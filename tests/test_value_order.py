"""One value order through ``Session.execute``: ORDER BY, window ranks,
MIN / MAX and INTERSECT / EXCEPT agree on NaN, ``-0.0`` and NULL, and
the answers are the hand-computed ones (DESIGN.md "One value order").
"""

import math

import pytest

from repro.errors import AnalysisError
from repro.sql.parser import parse_statement

NAN = float("nan")


def _column(result, i=0):
    return [row[i] for row in result.rows]


def _same(got: list, want: list) -> bool:
    return len(got) == len(want) and all(
        a == b or (a != a and b != b) for a, b in zip(got, want))


@pytest.fixture
def doubles(session):
    session.execute("CREATE TABLE d (v DOUBLE)")
    session.execute("INSERT INTO d VALUES (3.0), (1.0), (2.0), (0.0), "
                    "(CAST('NaN' AS DOUBLE)), (0.5), (5.0)")
    return session


class TestNanOrder:
    def test_order_by_puts_nan_above_every_number(self, doubles):
        asc = _column(doubles.execute("SELECT v FROM d ORDER BY v"))
        assert _same(asc, [0.0, 0.5, 1.0, 2.0, 3.0, 5.0, NAN])
        desc = _column(doubles.execute("SELECT v FROM d ORDER BY v DESC"))
        assert _same(desc, [NAN, 5.0, 3.0, 2.0, 1.0, 0.5, 0.0])

    def test_rank_follows_the_same_order(self, doubles):
        doubles.execute("INSERT INTO d VALUES (CAST('NaN' AS DOUBLE))")
        rows = doubles.execute(
            "SELECT v, RANK() OVER (ORDER BY v), "
            "DENSE_RANK() OVER (ORDER BY v) FROM d").rows
        ranks = sorted((r[1], r[2]) for r in rows if math.isnan(r[0]))
        assert ranks == [(7, 7), (7, 7)]          # NaN peers, ranked last
        assert sorted((r[0], r[1]) for r in rows if not math.isnan(r[0])
                      ) == [(0.0, 1), (0.5, 2), (1.0, 3), (2.0, 4),
                            (3.0, 5), (5.0, 6)]

    def test_min_ignores_nan_and_max_is_nan(self, doubles):
        (lo, hi), = doubles.execute("SELECT MIN(v), MAX(v) FROM d").rows
        assert lo == 0.0 and math.isnan(hi)
        doubles.execute("CREATE TABLE only_nan (v DOUBLE)")
        doubles.execute("INSERT INTO only_nan VALUES (CAST('NaN' AS DOUBLE))")
        (lo, hi), = doubles.execute(
            "SELECT MIN(v), MAX(v) FROM only_nan").rows
        assert math.isnan(lo) and math.isnan(hi)

    def test_window_min_max_follow_the_same_order(self, doubles):
        rows = doubles.execute(
            "SELECT MIN(v) OVER (), MAX(v) OVER () FROM d").rows
        assert all(r[0] == 0.0 and math.isnan(r[1]) for r in rows)


def test_variance_does_not_cancel(session):
    session.execute("CREATE TABLE big (x DOUBLE)")
    session.execute("INSERT INTO big VALUES (1000000001.0), "
                    "(1000000002.0), (1000000003.0)")
    (variance, stddev), = session.execute(
        "SELECT VARIANCE(x), STDDEV(x) FROM big").rows
    assert variance == pytest.approx(2 / 3, rel=1e-12)
    assert stddev == pytest.approx(math.sqrt(2 / 3), rel=1e-12)


class TestSetOps:
    @pytest.fixture
    def sides(self, session):
        session.execute("CREATE TABLE a (k INT)")
        session.execute("CREATE TABLE b (k INT)")
        session.execute("INSERT INTO a VALUES (1), (1), (1), (2)")
        session.execute("INSERT INTO b VALUES (1), (3)")
        return session

    def test_intersect_all_keeps_the_smaller_multiplicity(self, sides):
        assert sides.execute("SELECT k FROM a INTERSECT ALL "
                             "SELECT k FROM b").rows == [(1,)]

    def test_except_all_subtracts_multiplicities(self, sides):
        assert sides.execute("SELECT k FROM a EXCEPT ALL "
                             "SELECT k FROM b").rows == [(1,), (1,), (2,)]

    def test_nan_rows_are_equal(self, doubles):
        rows = _column(doubles.execute(
            "SELECT v FROM d INTERSECT SELECT v FROM d"))
        assert _same(rows, [3.0, 1.0, 2.0, 0.0, NAN, 0.5, 5.0])
        assert doubles.execute("SELECT v FROM d EXCEPT "
                               "SELECT v FROM d").rows == []


class TestWindowFrames:
    @pytest.fixture
    def series(self, session):
        session.execute("CREATE TABLE w (k INT, v DOUBLE)")
        session.execute("INSERT INTO w VALUES (1, 1.0), (2, 10.0), "
                        "(3, 100.0), (4, 1000.0)")
        return session

    def test_default_frame_is_range_over_peers(self, session):
        session.execute("CREATE TABLE ties (k INT, v DOUBLE)")
        session.execute("INSERT INTO ties VALUES (1, 1.0), (2, 10.0), "
                        "(2, 100.0)")
        rows = session.execute(
            "SELECT k, SUM(v) OVER (ORDER BY k) FROM ties").rows
        assert sorted(rows) == [(1, 1.0), (2, 111.0), (2, 111.0)]
        ranged = session.execute(
            "SELECT k, SUM(v) OVER (ORDER BY k RANGE BETWEEN UNBOUNDED "
            "PRECEDING AND CURRENT ROW) FROM ties").rows
        assert sorted(ranged) == sorted(rows)

    def test_frame_is_parsed_and_printed(self):
        query = parse_statement(
            "SELECT SUM(v) OVER (ORDER BY k ROWS 1 PRECEDING) FROM w")
        text = query.unparse()
        assert "ROWS BETWEEN 1 PRECEDING AND CURRENT ROW" in text
        assert parse_statement(text).unparse() == text

    def test_other_frames_are_refused(self, series):
        for frame in ("ROWS BETWEEN 1 PRECEDING AND CURRENT ROW",
                      "ROWS UNBOUNDED PRECEDING",
                      "ROWS BETWEEN UNBOUNDED PRECEDING AND UNBOUNDED "
                      "FOLLOWING"):
            with pytest.raises(AnalysisError, match="window frame"):
                series.execute(f"SELECT k, SUM(v) OVER (ORDER BY k {frame}) "
                               "FROM w")

    def test_whole_partition_frame_without_order_by(self, series):
        rows = series.execute(
            "SELECT k, SUM(v) OVER (ROWS BETWEEN UNBOUNDED PRECEDING AND "
            "UNBOUNDED FOLLOWING) FROM w").rows
        assert sorted(rows) == [(1, 1111.0), (2, 1111.0), (3, 1111.0),
                                (4, 1111.0)]

    def test_framed_query_raises_after_its_twin_was_plan_cached(
            self, series):
        series.conf.results_cache_enabled = False
        plain = "SELECT k, SUM(v) OVER (ORDER BY k) FROM w"
        series.execute(plain)
        assert series.execute(plain).plan_cached
        with pytest.raises(AnalysisError, match="window frame"):
            series.execute("SELECT k, SUM(v) OVER (ORDER BY k ROWS BETWEEN "
                           "1 PRECEDING AND CURRENT ROW) FROM w")
