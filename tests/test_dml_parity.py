"""DML is a plan plus a write — and finds exactly the rows the displaced
loops found.

The regression cases pin the two bugs the private read path had and the
MERGE shapes the rewrite makes cheap to get wrong.  The property suite
runs random scripts against two fresh servers — one on ``TableWriter``,
one on the oracle in tests/dml_oracle.py — and demands equal
``rows_affected``, equal table contents and byte-identical files under
the table location (same deltas, not just equal rows).
"""

import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.config import HiveConf
from repro.errors import AnalysisError, HiveError

from .dml_oracle import OracleWriter

PARTITIONED = "CREATE TABLE t (a INT, b INT, s STRING) PARTITIONED BY (d INT)"
FLAT = "CREATE TABLE t (a INT, b INT, s STRING, d INT)"
SOURCE = "CREATE TABLE src (k INT, v INT, dd INT)"


def connect(oracle: bool = False):
    session = repro.HiveServer2(HiveConf.v3_profile()).connect()
    if oracle:
        session._writer = lambda: OracleWriter(
            session.hms, session.conf, eval_ctx=session._eval_context())
    return session


def contents(session, table: str = "t") -> list:
    return sorted(session.execute(f"SELECT * FROM {table}").rows, key=repr)


@pytest.fixture
def merged():
    """The ISSUE's table and MERGE source."""
    session = connect()
    session.execute("CREATE TABLE t (a INT, b INT) PARTITIONED BY (d INT)")
    session.execute("INSERT INTO t VALUES (1,10,5),(2,20,6)")
    session.execute(SOURCE)
    session.execute("INSERT INTO src VALUES (1,111,5),(7,777,5),(8,888,6)")
    return session


class TestUpdateReadsPartitionColumn:
    def test_set_from_partition_column(self, merged):
        result = merged.execute("UPDATE t SET b = d + 100 WHERE a = 1")
        assert result.rows_affected == 1
        assert contents(merged) == [(1, 105, 5), (2, 20, 6)]

    def test_set_partition_column_stays_an_analysis_error(self, merged):
        with pytest.raises(AnalysisError):
            merged.execute("UPDATE t SET d = 7 WHERE a = 1")


class TestSargsPruneEveryRowGroup:
    """DML now pushes sargs like any scan; with every row group skipped
    the reader must not take a delete delta's schema for the table's."""

    def test_select_and_delete_beside_a_delete_delta(self, merged):
        merged.execute("DELETE FROM t WHERE a = 2")
        assert merged.execute("SELECT * FROM t WHERE a = 0").rows == []
        assert merged.execute(
            "DELETE FROM t WHERE a = 0").rows_affected == 0
        assert contents(merged) == [(1, 10, 5)]


class TestMergeClauses:
    def test_not_matched_condition_is_applied(self, merged):
        result = merged.execute(
            "MERGE INTO t USING src ON t.a = src.k "
            "WHEN MATCHED THEN UPDATE SET b = v "
            "WHEN NOT MATCHED AND src.k > 7 THEN INSERT VALUES (k, v, dd)")
        assert result.rows_affected == 2
        assert contents(merged) == [(1, 111, 5), (2, 20, 6), (8, 888, 6)]

    def test_first_matched_clause_that_holds_wins(self, merged):
        merged.execute("INSERT INTO src VALUES (2, 600, 6)")
        result = merged.execute(
            "MERGE INTO t USING src ON t.a = src.k "
            "WHEN MATCHED AND v > 500 THEN DELETE "
            "WHEN MATCHED THEN UPDATE SET b = v")
        assert result.rows_affected == 2
        assert contents(merged) == [(1, 111, 5)]

    def test_matched_clause_matching_nothing(self, merged):
        result = merged.execute(
            "MERGE INTO t USING src ON t.a = src.k "
            "WHEN MATCHED AND v > 5000 THEN DELETE")
        assert result.rows_affected == 0
        assert contents(merged) == [(1, 10, 5), (2, 20, 6)]
        location = merged.hms.get_table("t").location
        assert not [f.path for f in merged.fs.list_files(
            location, recursive=True) if "delete_delta" in f.path]

    def test_non_equi_on(self, merged):
        result = merged.execute(
            "MERGE INTO t USING src ON t.a < src.k AND src.k < t.a + 6 "
            "WHEN MATCHED THEN UPDATE SET b = v")
        # a=1 pairs with no k in (1, 7); a=2 with k=7 alone
        assert result.rows_affected == 1
        assert contents(merged) == [(1, 10, 5), (2, 777, 6)]

    def test_source_row_matching_rows_in_two_partitions(self, merged):
        merged.execute("INSERT INTO t VALUES (1, 30, 6)")
        result = merged.execute(
            "MERGE INTO t USING src ON t.a = src.k "
            "WHEN MATCHED THEN UPDATE SET b = v + d")
        assert result.rows_affected == 2
        assert contents(merged) == [(1, 116, 5), (1, 117, 6), (2, 20, 6)]


# --------------------------------------------------------------------------- #
# random scripts against the oracle

PREDICATES = [
    None, "a > {n}", "a BETWEEN {n} AND {m}", "b IS NULL", "b < {m}",
    "s = 'x'", "1 = 0", "a < {n} OR d = {q}", "b + d > {m}",
    # sargable on the partition column: static pruning decides the locks
    "d = {p}", "d IN ({p}, {q})", "d > 100", "a > {n} AND d = {p}",
    "d >= {p} AND b IS NOT NULL", "d = {p} AND d = {q}", "{p} < d",
]
ASSIGNMENTS = [
    "b = b + 1", "b = d + 100", "s = 'x'", "b = NULL",
    "b = a * 2, s = CONCAT(s, '!')", "s = CAST(d AS STRING)",
]
ON_CONDITIONS = [
    "t.a = src.k", "t.b = src.k", "t.a = src.k AND t.d = src.dd",
    "t.a < src.k AND src.k < t.a + 2",
]
MATCHED_CLAUSES = [
    "WHEN MATCHED THEN UPDATE SET b = v",
    "WHEN MATCHED AND v > {m} THEN DELETE",
    "WHEN MATCHED AND t.d = {p} THEN UPDATE SET b = v + d, s = 'm'",
    "WHEN MATCHED THEN DELETE",
]
NOT_MATCHED_CLAUSES = [
    "WHEN NOT MATCHED THEN INSERT VALUES (k, v, 'new', dd)",
    "WHEN NOT MATCHED AND src.k > {n} THEN INSERT VALUES (k, v, NULL, dd)",
]

small = st.integers(0, 26)
partition = st.integers(5, 8)
nullable_int = st.one_of(st.none(), st.integers(0, 60))


def literal(value) -> str:
    return "NULL" if value is None else repr(value)


def insert(draw, fresh_ids, at_most: int) -> list[str]:
    rows = [(fresh_ids.pop(), draw(nullable_int),
             draw(st.sampled_from([None, "x", "y"])), draw(partition))
            for _ in range(draw(st.integers(1, at_most))) if fresh_ids]
    if not rows:
        return []
    return ["INSERT INTO t VALUES " + ", ".join(
        "(" + ", ".join(literal(v) for v in row) + ")" for row in rows)]


@st.composite
def statement(draw, fresh_ids):
    """One script step; ``fresh_ids`` hands out unused values of ``a``."""
    fill = dict(n=draw(small), m=draw(st.integers(0, 60)),
                p=draw(partition), q=draw(partition))
    kind = draw(st.sampled_from(
        ["insert", "update", "update", "delete", "delete", "merge",
         "merge", "merge", "txn", "compact"]))
    if kind == "insert":
        return insert(draw, fresh_ids, 5)
    if kind in ("update", "delete", "txn"):
        predicate = draw(st.sampled_from(PREDICATES))
        where = "" if predicate is None else " WHERE " + predicate.format(
            **fill)
        change = ("DELETE FROM t" if kind == "delete" else
                  "UPDATE t SET " + draw(st.sampled_from(ASSIGNMENTS)))
        if kind != "txn":
            return [change + where]
        return ["BEGIN", change + where,
                "DELETE FROM t WHERE a = " + str(fill["n"]),
                draw(st.sampled_from(["COMMIT", "ROLLBACK"]))]
    if kind == "compact":
        return ["compact"]
    source = draw(st.lists(
        st.tuples(small, st.integers(0, 999), partition),
        min_size=0, max_size=12, unique_by=lambda row: row[0]))
    clauses = draw(st.lists(st.sampled_from(MATCHED_CLAUSES),
                            min_size=0, max_size=2))
    if draw(st.booleans()):
        clauses.append(draw(st.sampled_from(NOT_MATCHED_CLAUSES)))
    steps = ["DELETE FROM src"]
    if source:
        steps.append("INSERT INTO src VALUES " + ", ".join(
            map(str, source)))
    steps.append(" ".join(
        ["MERGE INTO t USING src ON", draw(st.sampled_from(ON_CONDITIONS))]
        + clauses).format(**fill))
    return steps


@st.composite
def script(draw):
    fresh_ids = list(draw(st.permutations(range(24))))
    steps = [draw(st.sampled_from([PARTITIONED, FLAT])), SOURCE]
    steps.extend(insert(draw, fresh_ids, 16))
    for _ in range(draw(st.integers(1, 6))):
        steps.extend(draw(statement(fresh_ids)))
    return steps


def run(session, step: str):
    """What a step did: rows affected, or the error it raised."""
    if step == "compact":
        return session.server.run_compaction()
    try:
        return session.execute(step).rows_affected
    except HiveError as error:
        if session._active_txn is not None:
            session.execute("ROLLBACK")
        return type(error).__name__, str(error)


def file_listing(session) -> list[tuple[str, str]]:
    location = session.hms.get_table("t").location
    return sorted(
        (status.path, hashlib.sha1(session.fs.read(status.path)).hexdigest())
        for status in session.fs.list_files(location, recursive=True))


class TestParityWithDisplacedLoops:
    @given(script())
    @settings(max_examples=60, deadline=None)
    def test_random_scripts(self, steps):
        plan, oracle = connect(), connect(oracle=True)
        for step in steps:
            assert run(plan, step) == run(oracle, step), step
        assert contents(plan) == contents(oracle)
        assert file_listing(plan) == file_listing(oracle)

    def test_oracle_is_wired_in(self):
        """The comparison is not of the new path with itself."""
        session = connect(oracle=True)
        assert isinstance(session._writer(), OracleWriter)
        assert OracleWriter.merge is not repro.server.dml.TableWriter.merge
