"""End-to-end SQL through HiveServer2: DDL, DML, query correctness."""

import datetime

import pytest

import repro
from repro.config import NOT_SETTABLE, SET_NAMES, HiveConf
from repro.errors import (AnalysisError, CatalogError, ConfigError,
                          ExecutionError, ParseError)
from repro.service.plan_cache import PLAN_RELEVANT_CONF


class TestDdl:
    def test_create_show_describe_drop(self, session):
        session.execute("CREATE TABLE t (a INT, b STRING)")
        assert session.execute("SHOW TABLES").rows == [("t",)]
        described = session.execute("DESCRIBE t").rows
        assert [(r[0], r[1]) for r in described] == [
            ("a", "int"), ("b", "string")]
        session.execute("DROP TABLE t")
        assert session.execute("SHOW TABLES").rows == []

    def test_if_not_exists_and_if_exists(self, session):
        session.execute("CREATE TABLE t (a INT)")
        session.execute("CREATE TABLE IF NOT EXISTS t (a INT)")
        with pytest.raises(CatalogError):
            session.execute("CREATE TABLE t (a INT)")
        session.execute("DROP TABLE t")
        session.execute("DROP TABLE IF EXISTS t")
        with pytest.raises(CatalogError):
            session.execute("DROP TABLE t")

    def test_ctas(self, session):
        session.execute("CREATE TABLE src (a INT, b STRING)")
        session.execute("INSERT INTO src VALUES (1,'x'), (2,'y')")
        session.execute("CREATE TABLE dst AS "
                        "SELECT a * 10 big, b FROM src WHERE a > 1")
        assert session.execute("SELECT * FROM dst").rows == [(20, "y")]

    def test_transactional_property_respected(self, session):
        session.execute("CREATE TABLE nta (a INT) "
                        "TBLPROPERTIES ('transactional'='false')")
        table = session.hms.get_table("nta")
        assert not table.is_acid
        session.execute("CREATE TABLE ta (a INT)")
        assert session.hms.get_table("ta").is_acid

    def test_create_database_and_qualified_use(self, session):
        session.execute("CREATE DATABASE mart")
        session.execute("CREATE TABLE mart.facts (v INT)")
        session.execute("INSERT INTO mart.facts VALUES (5)")
        assert session.execute(
            "SELECT v FROM mart.facts").rows == [(5,)]


class TestInsert:
    def test_values_with_column_list(self, session):
        session.execute("CREATE TABLE t (a INT, b STRING, c DOUBLE)")
        session.execute("INSERT INTO t (c, a) VALUES (1.5, 7)")
        assert session.execute("SELECT a, b, c FROM t").rows == [
            (7, None, 1.5)]

    def test_insert_select(self, session):
        session.execute("CREATE TABLE src (a INT)")
        session.execute("CREATE TABLE dst (a INT)")
        session.execute("INSERT INTO src VALUES (1), (2), (3)")
        result = session.execute(
            "INSERT INTO dst SELECT a * 2 FROM src WHERE a < 3")
        assert result.rows_affected == 2
        assert sorted(session.execute("SELECT a FROM dst").rows) == [
            (2,), (4,)]

    @pytest.mark.parametrize("nan_at", [0, 2])
    def test_nan_does_not_poison_statistics(self, session, nan_at):
        """Row-group and table bounds skip NaN wherever it comes: a NaN
        first used to make min = max = NaN and sarg pruning lose rows."""
        values = ["(2, 5.0)", "(3, 7.0)"]
        values.insert(nan_at, "(1, CAST('NaN' AS DOUBLE))")
        session.conf.results_cache_enabled = False
        session.execute("CREATE TABLE u (k INT, x DOUBLE)")
        session.execute(f"INSERT INTO u VALUES {', '.join(values)}")
        assert session.execute(
            "SELECT k FROM u WHERE x = 5.0").rows == [(2,)]
        assert session.execute(
            "SELECT k FROM u WHERE x > 6.0").rows == [(3,)]
        stats = session.hms.get_statistics(
            session.hms.get_table("u")).column("x")
        assert (stats.min_value, stats.max_value) == (5.0, 7.0)
        assert stats.null_count == 0 and stats.ndv == 3     # NaN counts

    def test_static_partition_insert(self, session):
        session.execute("CREATE TABLE p (v INT) PARTITIONED BY (ds INT)")
        session.execute("INSERT INTO p PARTITION (ds=7) VALUES (1), (2)")
        table = session.hms.get_table("p")
        assert (7,) in table.partitions
        assert session.execute(
            "SELECT v, ds FROM p ORDER BY v").rows == [(1, 7), (2, 7)]

    def test_dynamic_partition_insert(self, session):
        session.execute("CREATE TABLE p (v INT) PARTITIONED BY (ds INT)")
        session.execute("INSERT INTO p VALUES (1, 10), (2, 20), (3, 10)")
        table = session.hms.get_table("p")
        assert set(table.partitions) == {(10,), (20,)}
        rows = session.execute("SELECT ds, COUNT(*) FROM p GROUP BY ds "
                               "ORDER BY ds").rows
        assert rows == [(10, 2), (20, 1)]

    def test_insert_overwrite(self, session):
        session.execute("CREATE TABLE t (a INT)")
        session.execute("INSERT INTO t VALUES (1), (2)")
        session.execute("INSERT OVERWRITE TABLE t SELECT 99")
        assert session.execute("SELECT a FROM t").rows == [(99,)]

    def test_values_must_be_constant(self, session):
        session.execute("CREATE TABLE t (a INT)")
        with pytest.raises(AnalysisError):
            session.execute("INSERT INTO t VALUES (a + 1)")

    @pytest.mark.parametrize("source, given", [
        ("VALUES (1)", 1), ("VALUES (1, 'x', 3)", 3), ("SELECT 1", 1)])
    def test_wrong_arity_is_a_typed_error(self, session, source, given):
        session.execute("CREATE TABLE t (a INT, b STRING)")
        with pytest.raises(AnalysisError) as error:
            session.execute(f"INSERT INTO t {source}")
        message = str(error.value)
        assert "default.t" in message
        assert f"{given} values" in message and "expected 2" in message
        assert session.execute("SELECT COUNT(*) FROM t").rows == [(0,)]

    def test_column_list_arity_checked(self, session):
        session.execute("CREATE TABLE t (a INT, b STRING)")
        with pytest.raises(AnalysisError, match="default.t.*2 values"):
            session.execute("INSERT INTO t (a) VALUES (1, 'dropped')")


class TestUpdateDelete:
    @pytest.fixture
    def table(self, session):
        session.execute("CREATE TABLE t (a INT, b STRING, c DOUBLE)")
        session.execute("INSERT INTO t VALUES "
                        "(1,'x',1.0), (2,'y',2.0), (3,'x',3.0)")
        return session

    def test_update_with_expression(self, table):
        result = table.execute("UPDATE t SET c = c * 10, b = upper(b) "
                               "WHERE a >= 2")
        assert result.rows_affected == 2
        rows = table.execute("SELECT a, b, c FROM t ORDER BY a").rows
        assert rows == [(1, "x", 1.0), (2, "Y", 20.0), (3, "X", 30.0)]

    def test_delete_all(self, table):
        assert table.execute("DELETE FROM t").rows_affected == 3
        assert table.execute("SELECT COUNT(*) FROM t").rows == [(0,)]

    def test_update_non_acid_rejected(self, session):
        session.execute("CREATE TABLE nta (a INT) "
                        "TBLPROPERTIES ('transactional'='false')")
        session.execute("INSERT INTO nta VALUES (1)")
        with pytest.raises(ExecutionError):
            session.execute("UPDATE nta SET a = 2")
        with pytest.raises(ExecutionError):
            session.execute("DELETE FROM nta")

    def test_update_partitioned_table(self, session):
        session.execute("CREATE TABLE p (v INT) PARTITIONED BY (ds INT)")
        session.execute("INSERT INTO p VALUES (1, 10), (2, 20)")
        result = session.execute("UPDATE p SET v = v + 100 WHERE ds = 20")
        assert result.rows_affected == 1
        assert sorted(session.execute("SELECT v FROM p").rows) == [
            (1,), (102,)]

    def test_delete_with_predicate_on_partition_column(self, session):
        session.execute("CREATE TABLE p (v INT) PARTITIONED BY (ds INT)")
        session.execute("INSERT INTO p VALUES (1, 10), (2, 20), (3, 20)")
        assert session.execute(
            "DELETE FROM p WHERE ds = 20").rows_affected == 2


class TestMerge:
    def test_full_merge(self, session):
        session.execute("CREATE TABLE t (id INT, v DOUBLE, note STRING)")
        session.execute("INSERT INTO t VALUES "
                        "(1, 1.0, 'keep'), (2, 2.0, 'upd'), "
                        "(3, 3.0, 'del')")
        session.execute("CREATE TABLE s (id INT, v DOUBLE, del INT)")
        session.execute("INSERT INTO s VALUES "
                        "(2, 20.0, 0), (3, 0.0, 1), (4, 40.0, 0)")
        result = session.execute("""
            MERGE INTO t USING s ON t.id = s.id
            WHEN MATCHED AND s.del = 1 THEN DELETE
            WHEN MATCHED THEN UPDATE SET v = s.v
            WHEN NOT MATCHED THEN INSERT VALUES (s.id, s.v, 'new')""")
        assert result.rows_affected == 3
        rows = session.execute("SELECT id, v, note FROM t ORDER BY id").rows
        assert rows == [(1, 1.0, "keep"), (2, 20.0, "upd"),
                        (4, 40.0, "new")]

    def test_merge_duplicate_match_rejected(self, session):
        session.execute("CREATE TABLE t (id INT, v INT)")
        session.execute("INSERT INTO t VALUES (1, 0)")
        session.execute("CREATE TABLE s (id INT, v INT)")
        session.execute("INSERT INTO s VALUES (1, 1), (1, 2)")
        with pytest.raises(ExecutionError, match="multiple source rows"):
            session.execute("MERGE INTO t USING s ON t.id = s.id "
                            "WHEN MATCHED THEN UPDATE SET v = s.v")


class TestQueries:
    @pytest.fixture
    def data(self, loaded_session):
        return loaded_session

    def test_projection_and_filter(self, data):
        rows = data.execute(
            "SELECT a, upper(b) FROM t WHERE c > 2 ORDER BY a").rows
        assert rows == [(2, "TWO"), (3, "THREE"), (4, "FOUR")]

    def test_aggregate_with_nulls(self, data):
        rows = data.execute(
            "SELECT COUNT(*), COUNT(b), SUM(c), AVG(c) FROM t").rows
        assert rows == [(5, 4, 12.0, 3.0)]

    def test_integer_sum_is_exact_beyond_2_53(self, session):
        # float64 accumulation lost the low bits: ...996 and ...992
        session.execute("CREATE TABLE big (g INT, x BIGINT)")
        session.execute("INSERT INTO big VALUES "
                        "(1, 9007199254740993), (1, 1), (2, 5)")
        assert session.execute("SELECT SUM(x), SUM(DISTINCT x) FROM big"
                               ).rows == [(9007199254740999,) * 2]
        assert session.execute(
            "SELECT g, SUM(x), AVG(x) FROM big GROUP BY g ORDER BY g"
        ).rows == [(1, 9007199254740994, 9007199254740994 / 2),
                   (2, 5, 5.0)]

    def test_count_distinct_sees_nan_as_one_value(self, session):
        # as SELECT DISTINCT and GROUP BY do; each NaN used to count
        session.execute("CREATE TABLE f (g INT, d DOUBLE)")
        session.execute(
            "INSERT INTO f VALUES (1, CAST('nan' AS DOUBLE)), "
            "(1, CAST('nan' AS DOUBLE)), (1, 1.0)")
        assert session.execute("SELECT COUNT(DISTINCT d) FROM f"
                               ).rows == [(2,)]
        assert session.execute(
            "SELECT g, COUNT(DISTINCT d) FROM f GROUP BY g"
        ).rows == [(1, 2)]
        assert len(session.execute("SELECT DISTINCT d FROM f").rows) == 2
        assert len(session.execute(
            "SELECT d, COUNT(*) FROM f GROUP BY d").rows) == 2

    def test_join_inner_and_outer(self, data):
        inner = data.execute(
            "SELECT t.a, u.x FROM t JOIN u ON t.a = u.k ORDER BY 1, 2"
        ).rows
        assert inner == [(1, 10), (2, 20), (2, 25), (3, 30)]
        left = data.execute(
            "SELECT t.a, u.x FROM t LEFT JOIN u ON t.a = u.k "
            "WHERE t.a >= 4 ORDER BY t.a").rows
        assert left == [(4, None), (5, None)]

    def test_date_functions(self, data):
        rows = data.execute(
            "SELECT EXTRACT(month FROM d) m, COUNT(*) FROM t "
            "GROUP BY EXTRACT(month FROM d) ORDER BY m").rows
        assert rows == [(1, 3), (2, 2)]

    def test_case_and_in(self, data):
        rows = data.execute(
            "SELECT a, CASE WHEN a IN (1, 3, 5) THEN 'odd' ELSE 'even' "
            "END FROM t ORDER BY a").rows
        assert [r[1] for r in rows] == ["odd", "even", "odd", "even",
                                        "odd"]

    def test_cte_and_subquery(self, data):
        rows = data.execute(
            "WITH big AS (SELECT * FROM t WHERE a > 2) "
            "SELECT COUNT(*) FROM big WHERE a IN "
            "(SELECT k FROM u)").rows
        assert rows == [(1,)]

    def test_window_over_aggregate(self, data):
        rows = data.execute(
            "SELECT b, cnt, RANK() OVER (ORDER BY cnt DESC) r FROM "
            "(SELECT b, COUNT(*) cnt FROM t WHERE b IS NOT NULL "
            "GROUP BY b) x ORDER BY r, b").rows
        assert all(r[2] == 1 for r in rows)      # all counts equal: tie

    def test_explain_runs(self, data):
        rows = data.execute(
            "EXPLAIN SELECT b, COUNT(*) FROM t GROUP BY b").rows
        assert any("Aggregate" in r[0] for r in rows)
        assert any("TableScan" in r[0] for r in rows)

    def test_set_config_changes_behaviour(self, data):
        data.execute("SET hive.vectorized.execution.enabled=false")
        assert data.conf.vectorized_execution is False
        with pytest.raises(AnalysisError):
            data.execute("SET no.such.key=1")

    def test_set_rejects_invalid_boolean(self, data):
        # booleans were silently coerced to False before; now any
        # unrecognized spelling is an error naming the key
        with pytest.raises(AnalysisError, match="hive.llap.enabled"):
            data.execute("SET hive.llap.enabled=maybe")
        assert data.conf.llap_enabled is True  # unchanged
        data.execute("SET hive.llap.enabled=off")
        assert data.conf.llap_enabled is False

    def test_set_key_may_contain_keyword_segments(self, data):
        # hive.cbo.ENABLE / hive.check.PLAN parse as config keys even
        # though ENABLE and PLAN are SQL keywords
        data.execute("SET hive.cbo.enable=false")
        assert data.conf.cbo_enabled is False
        data.execute("SET hive.check.plan=paranoid")
        assert data.conf.plan_check_mode == "paranoid"

    def test_set_check_plan_rejects_bad_mode(self, data):
        with pytest.raises(ConfigError, match="check_plan"):
            data.execute("SET hive.check.plan=sometimes")
        # the rejected value is rolled back, the session stays usable
        data.conf.plan_check_mode
        assert data.execute("SELECT count(*) FROM t").rows

    def test_set_coerces_to_the_declared_type(self, data):
        # the budget used to be stored as the string '1' and the next
        # hash join died comparing int with str
        data.execute("SET hash_join_memory_rows=1")
        assert data.conf.hash_join_memory_rows == 1
        data.execute("SET hive.query.reexecution.strategy=overlay")
        data.conf.reexecution_overlay = {"hash_join_memory_rows": None}
        result = data.execute("SELECT COUNT(*) FROM t, u WHERE t.a = u.k")
        assert result.reexecuted and result.rows == [(4,)]
        data.execute("SET hash_join_memory_rows=none")
        assert data.conf.hash_join_memory_rows is None

    @pytest.mark.parametrize("key", NOT_SETTABLE)
    def test_set_rejects_non_scalar_fields(self, data, key):
        before = getattr(data.conf, key)
        with pytest.raises(AnalysisError, match="unknown configuration"):
            data.execute(f"SET {key}=3")
        assert getattr(data.conf, key) is before
        assert data.execute("SELECT COUNT(*) FROM t").rows == [(5,)]

    @pytest.mark.parametrize("key, raw, expected", [
        ("num_nodes", "abc", "an integer"),
        ("hive.faults.seed", "1.5", "an integer"),
        ("hive.faults.task.fail.rate", "often", "a number"),
        ("hash_join_memory_rows", "lots", "an integer or none")])
    def test_set_rejects_mistyped_value(self, data, key, raw, expected):
        attr = SET_NAMES[key].attr
        before = getattr(data.conf, attr)
        with pytest.raises(AnalysisError) as error:
            data.execute(f"SET {key}={raw}")
        assert key in str(error.value) and expected in str(error.value)
        assert getattr(data.conf, attr) == before

    @pytest.mark.parametrize("key", sorted(SET_NAMES))
    def test_every_set_name_round_trips(self, data, key):
        knob = SET_NAMES[key]
        rendered = str(knob.default).lower()   # True -> true, None -> none
        # park a value SET must replace, whatever the default is
        setattr(data.conf, knob.attr, 7 if knob.default is None else None)
        result = data.execute(f"SET {key}={rendered}")
        assert result.message == f"{knob.attr}={knob.default}"
        value = getattr(data.conf, knob.attr)
        assert value == knob.default
        assert type(value) is type(knob.default)

    @pytest.mark.parametrize("key, attr, live", [
        ("hive.query.store.capacity", "qstore_capacity",
         lambda obs: obs.query_store.capacity),
        ("hive.audit.capacity", "audit_capacity",
         lambda obs: obs.audit_log.capacity),
        ("hive.obs.query.log.capacity", "obs_query_log_capacity",
         lambda obs: obs.query_log.capacity)])
    def test_server_scoped_set(self, server, key, attr, live):
        mine, other = server.connect(), server.connect()
        default = getattr(server.conf, attr)
        mine.execute(f"SET {key}=17")
        assert getattr(mine.conf, attr) == 17
        assert getattr(server.conf, attr) == 17
        assert live(server.obs) == 17
        # open sessions keep their snapshot; new ones see the server's
        assert getattr(other.conf, attr) == default
        assert getattr(server.connect().conf, attr) == 17

    def test_rejected_server_scoped_set_changes_nothing(self, server):
        session = server.connect()
        with pytest.raises(ConfigError, match="audit_capacity"):
            session.execute("SET hive.audit.capacity=0")
        assert session.conf.audit_capacity == 1000
        assert server.conf.audit_capacity == 1000
        assert server.obs.audit_log.capacity == 1000

    @pytest.mark.parametrize("attr", PLAN_RELEVANT_CONF)
    def test_plan_relevant_knob_splits_the_plan_cache(self, server, attr):
        one, two = server.connect(), server.connect()
        assert one._plan_conf_digest() == two._plan_conf_digest()
        value = {"bool": "false", "float": "0.5",
                 "Optional[int]": "7"}[SET_NAMES[attr].type]
        one.execute(f"SET {attr}={value}")
        assert one._plan_conf_digest() != two._plan_conf_digest()
        # a knob that is not plan-relevant leaves the digest alone
        before = two._plan_conf_digest()
        two.execute("SET hive.query.results.cache.enabled=false")
        assert two._plan_conf_digest() == before

    def test_parse_error_surfaces(self, data):
        with pytest.raises(ParseError):
            data.execute("SELEKT 1")

    def test_order_by_date_column(self, data):
        rows = data.execute("SELECT d FROM t ORDER BY d DESC LIMIT 1").rows
        assert rows == [(datetime.date(2020, 2, 2),)]


class TestVectorizedKnobsAndDeterminism:
    @pytest.fixture
    def data(self, loaded_session):
        return loaded_session

    def test_engine_choice_knobs_are_gone(self, data):
        # one expression engine, one Filter->Project path: nothing to set
        for name in ("hive.vectorized.compile.enabled",
                     "vectorized_compile",
                     "hive.vectorized.fusion.enabled",
                     "vectorized_fusion"):
            with pytest.raises(AnalysisError,
                               match="unknown configuration key"):
                data.execute(f"SET {name}=false")
        # the cost-model toggle Fig. 7 needs is a different knob
        data.execute("SET hive.vectorized.execution.enabled=false")
        assert data.conf.vectorized_execution is False

    def test_current_date_is_virtual_not_host(self, data):
        # the session clock starts at the virtual epoch; a wall-clock
        # leak would return today's real date here
        rows = data.execute("SELECT current_date() FROM t LIMIT 1").rows
        assert rows == [(datetime.date(1970, 1, 1),)]

    def test_seeded_rand_stable_across_executions(self, data):
        query = "SELECT a, rand(42) FROM t ORDER BY a"
        first = data.execute(query).rows
        second = data.execute(query).rows
        assert first == second
        values = [r[1] for r in first]
        assert len(set(values)) == len(values)   # per-row stream
        assert all(0.0 <= v < 1.0 for v in values)

    def test_unseeded_rand_changes_per_statement(self, data):
        one = data.execute("SELECT rand() FROM t").rows
        two = data.execute("SELECT rand() FROM t").rows
        assert one != two          # distinct query ids → distinct salt

    def test_rand_identical_across_fresh_servers(self, conf):
        import repro

        def run():
            session = repro.HiveServer2(
                repro.HiveConf.v3_profile()).connect()
            session.execute("CREATE TABLE r (a INT)")
            session.execute(
                "INSERT INTO r VALUES (1), (2), (3), (4)")
            return session.execute(
                "SELECT a, rand(7), rand() FROM r ORDER BY a").rows

        assert run() == run()      # full-stack reproducibility
