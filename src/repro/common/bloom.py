"""Bloom filter.

Used in two places, mirroring the paper:

* ORC-like files store per-row-group Bloom filters so sargable predicates
  can skip row groups (Section 5.1, I/O elevator pushdown).
* Dynamic semijoin reduction builds a Bloom filter from the filtered
  dimension-side values and pushes it into fact-table scans (Section 4.6).
"""

from __future__ import annotations

import hashlib
import math

import numpy as np

from ..errors import HiveError
from .vector import dict_codes


class BloomFilter:
    """Classic Bloom filter with double hashing (Kirsch-Mitzenmacher)."""

    def __init__(self, expected_items: int, fpp: float = 0.05):
        if expected_items < 1:
            expected_items = 1
        if not 0.0 < fpp < 1.0:
            raise HiveError("fpp must be in (0, 1)")
        self.expected_items = expected_items
        self.fpp = fpp
        self.num_bits = max(
            8, int(-expected_items * math.log(fpp) / (math.log(2) ** 2)))
        self.num_hashes = max(
            1, int(round(self.num_bits / expected_items * math.log(2))))
        self.bits = np.zeros((self.num_bits + 7) // 8, dtype=np.uint8)
        self.count = 0

    # -- updates ----------------------------------------------------------- #
    def add(self, value) -> None:
        h1, h2 = _double_hash(value)
        for i in range(self.num_hashes):
            bit = (h1 + i * h2) % self.num_bits
            self.bits[bit >> 3] |= 1 << (bit & 7)
        self.count += 1

    def add_all(self, values) -> None:
        """Batch form of :meth:`add`: sets exactly the bits a loop would."""
        positions, inverse = self._bit_positions(values)
        np.bitwise_or.at(self.bits, positions >> 3,
                         np.left_shift(1, positions & 7).astype(np.uint8))
        self.count += len(inverse)

    # -- membership ---------------------------------------------------------- #
    def might_contain(self, value) -> bool:
        h1, h2 = _double_hash(value)
        for i in range(self.num_hashes):
            bit = (h1 + i * h2) % self.num_bits
            if not self.bits[bit >> 3] & (1 << (bit & 7)):
                return False
        return True

    def might_contain_many(self, values) -> np.ndarray:
        """Batch form of :meth:`might_contain`; returns a boolean mask."""
        positions, inverse = self._bit_positions(values)
        hit = (self.bits[positions >> 3] >> (positions & 7)) & 1
        return hit.all(axis=1)[inverse]

    def _bit_positions(self, values) -> tuple[np.ndarray, np.ndarray]:
        """``(positions, inverse)``: one row of ``num_hashes`` bit
        positions per *distinct* value, and each value's row.

        Only distinct values reach the hash; ``(h1 + i*h2) % m`` is taken
        as ``(h1 % m + i * (h2 % m)) % m`` so it fits int64 — the same
        positions as the scalar methods, which work in Python ints.
        """
        values, inverse = distinct(values)
        hashes = np.array([_double_hash(v) for v in values],
                          dtype=np.uint64).reshape(-1, 2)
        h1, h2 = (hashes % np.uint64(self.num_bits)).astype(np.int64).T
        steps = np.arange(self.num_hashes, dtype=np.int64)
        positions = (h1[:, None] + steps * h2[:, None]) % self.num_bits
        return positions, inverse

    # -- merging ----------------------------------------------------------- #
    def merge(self, other: "BloomFilter") -> "BloomFilter":
        """Union of two filters built with identical parameters."""
        if (self.num_bits, self.num_hashes) != (other.num_bits,
                                                other.num_hashes):
            raise HiveError("cannot merge Bloom filters with different shapes")
        merged = BloomFilter(self.expected_items, self.fpp)
        merged.num_bits, merged.num_hashes = self.num_bits, self.num_hashes
        merged.bits = np.bitwise_or(self.bits, other.bits)
        merged.count = self.count + other.count
        return merged

    def nbytes(self) -> int:
        return int(self.bits.nbytes)


def _double_hash(value) -> tuple[int, int]:
    payload = repr(value).encode("utf-8")
    digest = hashlib.blake2b(payload, digest_size=16).digest()
    h1 = int.from_bytes(digest[:8], "little")
    h2 = int.from_bytes(digest[8:], "little") | 1
    return h1, h2


def distinct(values) -> tuple[list, np.ndarray]:
    """The distinct plain-Python values of ``values`` and, per input, its
    index among them.

    "Distinct" means *hashes apart*, i.e. by ``repr``: ``-0.0`` and
    ``0.0`` compare equal but print differently, so floats are told
    apart by bit pattern, and objects (and plain sequences, which may mix
    ``1``, ``1.0`` and ``True``) by their ``repr`` itself.
    """
    if isinstance(values, np.ndarray) and values.dtype != np.dtype(object):
        if values.dtype.kind == "f":
            uniq, inverse = np.unique(
                values.view(f"i{values.dtype.itemsize}"),
                return_inverse=True)
            uniq = uniq.view(values.dtype)
        else:
            uniq, inverse = np.unique(values, return_inverse=True)
        return uniq.tolist(), inverse
    items = values.tolist() if isinstance(values, np.ndarray) \
        else list(values)
    keys = list(map(repr, items))
    # one value per repr, in the first-occurrence order of dict_codes
    return list(dict(zip(keys, items)).values()), dict_codes(keys)[1]
