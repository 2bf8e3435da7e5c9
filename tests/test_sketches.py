"""RLE codec, HyperLogLog++ and Bloom filter — including the property

tests that pin the invariants HMS statistics and the semijoin/IO paths
rely on (lossless RLE, lossless HLL merge, no Bloom false negatives).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common import rle
from repro.common.bloom import BloomFilter
from repro.common.hll import HyperLogLog
from repro.errors import HiveError


class TestRle:
    def test_repeat_runs_detected(self):
        runs = rle.encode(np.array([5, 5, 5, 5, 1, 2]))
        assert isinstance(runs[0], rle.RepeatRun)
        assert runs[0].count == 4
        assert isinstance(runs[1], rle.LiteralRun)

    def test_short_repeats_stay_literal(self):
        runs = rle.encode(np.array([1, 1, 2, 2, 3, 3]))
        assert all(isinstance(r, rle.LiteralRun) for r in runs)

    def test_roundtrip_objects(self):
        data = np.array(["a", "a", "a", "b", None, None, None],
                        dtype=object)
        runs = rle.encode(data)
        out = rle.decode(runs, np.dtype(object))
        assert list(out) == list(data)

    def test_empty(self):
        assert rle.encode(np.array([], dtype=np.int64)) == []
        assert len(rle.decode([], np.dtype(np.int64))) == 0

    def test_nan_runs_compress(self):
        data = np.array([np.nan] * 5, dtype=np.float64)
        runs = rle.encode(data)
        assert len(runs) == 1 and isinstance(runs[0], rle.RepeatRun)

    def test_encoded_size_rewards_repeats(self):
        repeated = rle.encode(np.full(1000, 7, dtype=np.int64))
        distinct = rle.encode(np.arange(1000, dtype=np.int64))
        assert (rle.encoded_size_bytes(repeated, 8)
                < rle.encoded_size_bytes(distinct, 8) / 100)

    @given(st.lists(st.integers(-1000, 1000), max_size=300))
    @settings(max_examples=60, deadline=None)
    def test_roundtrip_property(self, values):
        data = np.array(values, dtype=np.int64)
        out = rle.decode(rle.encode(data), np.dtype(np.int64))
        assert out.tolist() == values


class TestHyperLogLog:
    def test_small_cardinality_exact_ish(self):
        sketch = HyperLogLog(12)
        sketch.add_all(range(100))
        assert abs(sketch.cardinality() - 100) <= 3

    def test_large_cardinality_within_error(self):
        sketch = HyperLogLog(12)
        sketch.add_all(range(50_000))
        estimate = sketch.cardinality()
        assert abs(estimate - 50_000) / 50_000 < 0.06

    def test_duplicates_ignored(self):
        sketch = HyperLogLog(12)
        for _ in range(10):
            sketch.add_all(range(500))
        assert abs(sketch.cardinality() - 500) <= 20

    def test_merge_equals_union(self):
        left, right, union = (HyperLogLog(12) for _ in range(3))
        left.add_all(range(0, 3000))
        right.add_all(range(2000, 5000))
        union.add_all(range(0, 5000))
        merged = left.merge(right)
        assert merged.cardinality() == union.cardinality()

    def test_merge_precision_mismatch(self):
        with pytest.raises(HiveError):
            HyperLogLog(10).merge(HyperLogLog(12))

    def test_serialization_roundtrip(self):
        sketch = HyperLogLog(10)
        sketch.add_all(["a", "b", "c", 1, 2.5])
        clone = HyperLogLog.from_bytes(sketch.to_bytes())
        assert clone.cardinality() == sketch.cardinality()

    def test_invalid_precision(self):
        with pytest.raises(HiveError):
            HyperLogLog(2)

    @given(st.sets(st.integers(0, 10_000), max_size=200),
           st.sets(st.integers(0, 10_000), max_size=200))
    @settings(max_examples=25, deadline=None)
    def test_merge_is_lossless_property(self, left_values, right_values):
        """merge(A, B) must estimate exactly like a sketch fed A ∪ B —

        the additivity HMS statistics depend on (Section 4.1)."""
        left, right, union = (HyperLogLog(10) for _ in range(3))
        left.add_all(left_values)
        right.add_all(right_values)
        union.add_all(left_values | right_values)
        assert left.merge(right).cardinality() == union.cardinality()


def _object_array(values):
    out = np.empty(len(values), dtype=object)
    out[:] = values
    return out


def _plain_values(values):
    return values.tolist() if isinstance(values, np.ndarray) else values


class TestBloomFilter:
    def test_no_false_negatives(self):
        bloom = BloomFilter(1000, 0.03)
        bloom.add_all(range(1000))
        assert all(bloom.might_contain(v) for v in range(1000))

    def test_false_positive_rate_reasonable(self):
        bloom = BloomFilter(2000, 0.03)
        bloom.add_all(range(2000))
        false_hits = sum(bloom.might_contain(v)
                         for v in range(10_000, 14_000))
        assert false_hits / 4000 < 0.1

    def test_vectorized_probe(self):
        bloom = BloomFilter(10, 0.01)
        bloom.add_all(["x", "y"])
        mask = bloom.might_contain_many(
            np.array(["x", "nope", "y"], dtype=object))
        assert mask[0] and mask[2]

    def test_merge_union(self):
        a = BloomFilter(100, 0.05)
        b = BloomFilter(100, 0.05)
        a.add(1)
        b.add(2)
        merged = a.merge(b)
        assert merged.might_contain(1) and merged.might_contain(2)

    def test_merge_shape_mismatch(self):
        with pytest.raises(HiveError):
            BloomFilter(10, 0.05).merge(BloomFilter(10_000, 0.05))

    def test_invalid_fpp(self):
        with pytest.raises(HiveError):
            BloomFilter(10, 1.5)

    @given(st.sets(st.one_of(st.integers(), st.text(max_size=8)),
                   max_size=100))
    @settings(max_examples=40, deadline=None)
    def test_membership_property(self, values):
        bloom = BloomFilter(max(len(values), 1), 0.01)
        bloom.add_all(values)
        assert all(bloom.might_contain(v) for v in values)

    # the batch forms against a loop of the scalar ones: same verdicts,
    # same bits — the ORC footers and the virtual clock depend on it
    ARRAYS = st.one_of(
        st.lists(st.integers(-2**31, 2**31 - 1), max_size=60).map(
            lambda v: np.array(v, dtype=np.int32)),
        st.lists(st.integers(-2**63, 2**63 - 1), max_size=60).map(
            lambda v: np.array(v, dtype=np.int64)),
        st.lists(st.one_of(st.floats(), st.sampled_from([0.0, -0.0])),
                 max_size=60).map(lambda v: np.array(v, dtype=np.float64)),
        st.lists(st.booleans(), max_size=60).map(
            lambda v: np.array(v, dtype=bool)),
        st.lists(st.text(max_size=4), max_size=60).map(_object_array),
        # plain lists may mix 1, 1.0 and True: equal, hashed apart
        st.lists(st.one_of(st.integers(-3, 3), st.booleans(),
                           st.sampled_from([0.0, -0.0, 1.0, 2.5]),
                           st.text(max_size=2)), max_size=60))

    @given(ARRAYS, ARRAYS)
    @settings(max_examples=150, deadline=None)
    def test_batch_forms_match_scalar_loop(self, added, probed):
        batch = BloomFilter(max(len(added), 8), 0.05)
        loop = BloomFilter(max(len(added), 8), 0.05)
        batch.add_all(added)
        for value in _plain_values(added):
            loop.add(value)
        assert batch.bits.tobytes() == loop.bits.tobytes()
        assert batch.count == loop.count
        for values in (added, probed):
            mask = batch.might_contain_many(values)
            assert mask.dtype == bool
            assert mask.tolist() == [loop.might_contain(v)
                                     for v in _plain_values(values)]

    def test_batch_probe_distinguishes_equal_values_hashed_apart(self):
        bloom = BloomFilter(8, 0.0001)
        bloom.add_all([1, -0.0])
        assert bloom.might_contain_many([1, 1.0, True, 0.0, -0.0]).tolist() \
            == [True, False, False, False, True]
        assert bloom.might_contain_many(
            np.array([0.0, -0.0])).tolist() == [False, True]

