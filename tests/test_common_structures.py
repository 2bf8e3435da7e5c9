"""Schemas, column vectors and batches."""

import datetime

import numpy as np
import pytest

from repro.common.rows import Column, Schema
from repro.common.types import DATE, DOUBLE, INT, STRING
from repro.common.vector import ColumnVector, VectorBatch
from repro.errors import AnalysisError, ExecutionError


class TestSchema:
    def test_lookup_case_insensitive(self, simple_schema):
        assert simple_schema.index_of("A") == 0
        assert "B" in simple_schema
        assert simple_schema.field("C").dtype == DOUBLE

    def test_unknown_column(self, simple_schema):
        with pytest.raises(AnalysisError):
            simple_schema.index_of("zzz")

    def test_duplicate_rejected(self):
        with pytest.raises(AnalysisError):
            Schema([Column("x", INT), Column("X", INT)])

    def test_select_preserves_order(self, simple_schema):
        sub = simple_schema.select(["c", "a"])
        assert sub.names() == ["c", "a"]

    def test_concat_dedupe(self, simple_schema):
        merged = simple_schema.concat(
            Schema([Column("a", INT), Column("z", INT)]), dedupe=True)
        assert merged.names() == ["a", "b", "c", "d", "a_1", "z"]

    def test_concat_clash_raises_without_dedupe(self, simple_schema):
        with pytest.raises(AnalysisError):
            simple_schema.concat(Schema([Column("a", INT)]))

    def test_row_width(self, simple_schema):
        assert simple_schema.row_width_bytes() == 4 + 24 + 8 + 4

    def test_equality_and_hash(self, simple_schema):
        clone = Schema(simple_schema.columns)
        assert clone == simple_schema
        assert hash(clone) == hash(simple_schema)


class TestColumnVector:
    def test_from_values_with_nulls(self):
        vector = ColumnVector.from_values(INT, [1, None, 3])
        assert vector.nulls.tolist() == [False, True, False]
        assert vector.value(0) == 1
        assert vector.value(1) is None

    def test_date_storage(self):
        day = datetime.date(2020, 3, 1)
        vector = ColumnVector.from_values(DATE, [day])
        assert vector.data.dtype == np.dtype(np.int32)
        assert vector.value(0) == day

    def test_take_filter_slice(self):
        vector = ColumnVector.from_values(INT, [10, 20, 30, 40])
        assert vector.take(np.array([3, 0])).to_values() == [40, 10]
        mask = np.array([True, False, True, False])
        assert vector.filter(mask).to_values() == [10, 30]
        assert vector.slice(1, 3).to_values() == [20, 30]

    def test_concat(self):
        a = ColumnVector.from_values(STRING, ["x", None])
        b = ColumnVector.from_values(STRING, ["y"])
        merged = ColumnVector.concat([a, b])
        assert merged.to_values() == ["x", None, "y"]

    def test_concat_empty_list_raises(self):
        with pytest.raises(ExecutionError):
            ColumnVector.concat([])

    def test_nbytes_accounts_strings(self):
        short = ColumnVector.from_values(STRING, ["a"])
        long = ColumnVector.from_values(STRING, ["a" * 1000])
        assert long.nbytes() > short.nbytes()


class TestVectorBatch:
    def test_round_trip(self, simple_schema):
        rows = [(1, "x", 1.5, datetime.date(2020, 1, 1)),
                (None, None, None, None)]
        batch = VectorBatch.from_rows(simple_schema, rows)
        assert batch.num_rows == 2
        assert batch.to_rows() == rows

    def test_ragged_vectors_rejected(self, simple_schema):
        vectors = [ColumnVector.from_values(c.dtype, [None])
                   for c in simple_schema]
        vectors[0] = ColumnVector.from_values(INT, [1, 2])
        with pytest.raises(ExecutionError):
            VectorBatch(simple_schema, vectors)

    def test_schema_width_mismatch(self, simple_schema):
        with pytest.raises(ExecutionError):
            VectorBatch(simple_schema, [])

    def test_project(self, simple_schema):
        batch = VectorBatch.from_rows(
            simple_schema, [(1, "x", 1.5, None)])
        out = batch.project([1, 0], simple_schema.select(["b", "a"]))
        assert out.to_rows() == [("x", 1)]

    def test_concat_batches(self, simple_schema):
        one = VectorBatch.from_rows(simple_schema, [(1, "a", 1.0, None)])
        two = VectorBatch.from_rows(simple_schema, [(2, "b", 2.0, None)])
        merged = VectorBatch.concat(simple_schema, [one, two])
        assert merged.num_rows == 2

    def test_concat_empty(self, simple_schema):
        merged = VectorBatch.concat(simple_schema, [])
        assert merged.num_rows == 0
        assert merged.schema == simple_schema

    def test_column_by_name(self, simple_schema):
        batch = VectorBatch.from_rows(simple_schema, [(7, "x", 0.5, None)])
        assert batch.column("a").value(0) == 7
