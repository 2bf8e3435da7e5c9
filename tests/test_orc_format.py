"""ORC-like columnar format: round trips, pruning, Bloom, corruption."""

import datetime

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.rows import Column, Schema
from repro.common.types import BOOLEAN, DATE, DOUBLE, INT, STRING
from repro.errors import HiveError
from repro.formats.encoding import ByteReader, ByteWriter, CorruptFileError
from repro.formats.orc import OrcReader, OrcWriter, SargPredicate
from repro.formats.text import TextReader, TextWriter


def write_file(schema, rows, **kwargs) -> bytes:
    writer = OrcWriter(schema, **kwargs)
    writer.write_rows(rows)
    return writer.finish()


class TestEncoding:
    def test_primitives_roundtrip(self):
        writer = ByteWriter()
        writer.write_u8(7)
        writer.write_i32(-5)
        writer.write_i64(2**40)
        writer.write_f64(1.25)
        writer.write_str("héllo")
        writer.write_blob(b"\x00\x01")
        reader = ByteReader(writer.getvalue())
        assert reader.read_u8() == 7
        assert reader.read_i32() == -5
        assert reader.read_i64() == 2**40
        assert reader.read_f64() == 1.25
        assert reader.read_str() == "héllo"
        assert reader.read_blob() == b"\x00\x01"
        assert reader.remaining() == 0

    def test_bounds_checked(self):
        reader = ByteReader(b"\x01")
        with pytest.raises(CorruptFileError):
            reader.read_i64()


class TestOrcRoundtrip:
    def test_all_types(self, simple_schema):
        rows = [(1, "x", 1.5, datetime.date(2020, 1, 1)),
                (-2, "", 0.0, datetime.date(1999, 12, 31)),
                (None, None, None, None)]
        data = write_file(simple_schema, rows)
        reader = OrcReader(data)
        assert reader.num_rows == 3
        assert reader.read_all().to_rows() == rows

    def test_multiple_row_groups(self, simple_schema):
        rows = [(i, f"s{i}", float(i), None) for i in range(1000)]
        data = write_file(simple_schema, rows, row_group_size=100)
        reader = OrcReader(data)
        assert len(reader.row_groups) == 10
        assert reader.read_all().to_rows() == rows

    def test_boolean_column(self):
        schema = Schema([Column("flag", BOOLEAN)])
        rows = [(True,), (False,), (None,)]
        data = write_file(schema, rows)
        assert OrcReader(data).read_all().to_rows() == rows

    def test_column_projection(self, simple_schema):
        rows = [(i, f"s{i}", float(i), None) for i in range(50)]
        data = write_file(simple_schema, rows)
        batch = OrcReader(data).read_all(columns=["c", "a"])
        assert batch.schema.names() == ["c", "a"]
        assert batch.to_rows()[0] == (0.0, 0)

    def test_empty_file(self, simple_schema):
        data = write_file(simple_schema, [])
        reader = OrcReader(data)
        assert reader.num_rows == 0
        assert reader.read_all().num_rows == 0

    def test_writer_single_use(self, simple_schema):
        writer = OrcWriter(simple_schema)
        writer.finish()
        with pytest.raises(HiveError):
            writer.finish()

    @given(st.lists(st.tuples(
        st.one_of(st.none(), st.integers(-2**31, 2**31 - 1)),
        st.one_of(st.none(), st.text(max_size=12)),
        st.one_of(st.none(), st.floats(allow_nan=False,
                                       allow_infinity=False,
                                       width=32))),
        max_size=200))
    @settings(max_examples=30, deadline=None)
    def test_roundtrip_property(self, rows):
        schema = Schema([Column("a", INT), Column("b", STRING),
                         Column("c", DOUBLE)])
        data = write_file(schema, rows, row_group_size=16)
        assert OrcReader(data).read_all().to_rows() == rows


class TestRowGroupPruning:
    @pytest.fixture
    def reader(self):
        schema = Schema([Column("a", INT), Column("b", STRING)])
        rows = [(i, f"val{i // 100}") for i in range(1000)]
        data = write_file(schema, rows, row_group_size=100,
                          bloom_columns=["b"])
        return OrcReader(data)

    def test_equality_pruning(self, reader):
        selected = reader.select_row_groups([SargPredicate("a", "=", 150)])
        assert selected == [1]

    def test_range_pruning(self, reader):
        selected = reader.select_row_groups(
            [SargPredicate("a", ">", 850)])
        assert selected == [8, 9]
        selected = reader.select_row_groups(
            [SargPredicate("a", "<=", 99)])
        assert selected == [0]

    def test_between_and_in(self, reader):
        assert reader.select_row_groups(
            [SargPredicate("a", "between", (250, 260))]) == [2]
        assert reader.select_row_groups(
            [SargPredicate("a", "in", (5, 995))]) == [0, 9]

    def test_conjunction(self, reader):
        selected = reader.select_row_groups(
            [SargPredicate("a", ">", 100), SargPredicate("a", "<", 210)])
        assert selected == [1, 2]

    def test_bloom_pruning(self, reader):
        assert reader.select_row_groups(
            [SargPredicate("b", "=", "no-such-value")]) == []
        hits = reader.select_row_groups(
            [SargPredicate("b", "=", "val3")])
        assert 3 in hits and len(hits) <= 2  # exact + rare FPs

    def test_unknown_column_ignored(self, reader):
        assert len(reader.select_row_groups(
            [SargPredicate("zz", "=", 1)])) == 10

    def test_all_null_group_pruned(self):
        schema = Schema([Column("a", INT)])
        data = write_file(schema, [(None,)] * 10 + [(5,)] * 10,
                          row_group_size=10)
        reader = OrcReader(data)
        assert reader.select_row_groups(
            [SargPredicate("a", "=", 5)]) == [1]


    @pytest.mark.parametrize("nan_at", [0, 1, 2])
    def test_nan_has_no_place_in_the_bounds(self, nan_at):
        """Bounds are over the values that are neither NULL nor NaN,
        whatever the row order; a group of NaNs has none and matches no
        sarg."""
        values = [5.0, 7.0]
        values.insert(nan_at, float("nan"))
        schema = Schema([Column("x", DOUBLE)])
        reader = OrcReader(write_file(
            schema, [(v,) for v in values] + [(float("nan"),)] * 3,
            row_group_size=3))
        mixed, nans = (g.columns[0].stats for g in reader.row_groups)
        assert (mixed.min_value, mixed.max_value) == (5.0, 7.0)
        assert (nans.min_value, nans.max_value) == (None, None)
        assert nans.null_count == 0
        for sarg in (SargPredicate("x", "=", 5.0),
                     SargPredicate("x", ">", 6.0),
                     SargPredicate("x", "between", (0.0, 9.0))):
            assert reader.select_row_groups([sarg]) == [0]


class TestCorruption:
    def test_bad_magic(self):
        with pytest.raises(CorruptFileError):
            OrcReader(b"this is not an orc file----")

    def test_truncated(self, simple_schema):
        data = write_file(simple_schema, [(1, "x", 1.0, None)])
        with pytest.raises(CorruptFileError):
            OrcReader(data[:8])


class TestTextFormat:
    def test_roundtrip(self, simple_schema):
        rows = [(1, "x", 1.5, datetime.date(2020, 1, 1)),
                (None, None, None, None)]
        writer = TextWriter(simple_schema)
        writer.write_rows(rows)
        out = TextReader(simple_schema, writer.finish()).read_rows()
        assert out == rows

    def test_field_count_enforced(self, simple_schema):
        writer = TextWriter(simple_schema)
        with pytest.raises(HiveError):
            writer.write_rows([(1, 2)])

    def test_delimiter_collision_rejected(self):
        schema = Schema([Column("s", STRING)])
        writer = TextWriter(schema, delimiter=",")
        with pytest.raises(HiveError):
            writer.write_rows([("a,b",)])
