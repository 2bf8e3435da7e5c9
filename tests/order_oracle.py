"""Oracles for the value order and set operations of ``exec/operators``.

``sort_indices`` is the former per-row sort — ``list.sort`` over a key of
``_Directional`` wrappers — and ``setop_rows`` the former INTERSECT /
EXCEPT handler over row tuples.  Both moved here when the operators
switched to order ranks and dense codes, with their bugs fixed:

* values compare through :func:`compare_values`, Java's
  ``Double.compare`` (NaN equal to itself and above +inf) except that
  ``-0.0`` ties ``0.0`` as in GROUP BY, and strings by code point;
  ``list.sort`` needs that total order, and NaN broke the ``<`` it used;
* set operations count rows with :class:`collections.Counter` (the ALL
  forms kept or dropped every left row with any match) and compare them
  by :func:`group_key`, so NaN equals NaN (fresh NaN floats are unequal
  in a tuple).
"""

from __future__ import annotations

from collections import Counter

import numpy as np


def compare_values(a, b) -> int:
    """-1, 0 or 1: Java's ``Double.compare`` with ``-0.0 = 0.0``; ints,
    bools, storage dates and strings (code point) by ``<``."""
    a_nan, b_nan = a != a, b != b
    if a_nan or b_nan:
        return int(a_nan) - int(b_nan)
    return (a > b) - (a < b)


def _plain(value):
    return value.item() if isinstance(value, np.generic) else value


def sort_indices(batch, keys) -> np.ndarray:
    """Stable multi-key sort; NULLs sort last regardless of direction."""
    n = batch.num_rows
    key_values = [(batch.vectors[key.index], key.ascending) for key in keys]

    def sort_key(i: int):
        parts = []
        for vector, ascending in key_values:
            if vector.nulls[i]:
                parts.append((1, 0))
            else:
                parts.append((0, _Directional(_plain(vector.data[i]),
                                              ascending)))
        return tuple(parts)

    return np.asarray(sorted(range(n), key=sort_key), dtype=np.int64)


class _Directional:
    """Wrapper to invert comparison for DESC keys."""

    __slots__ = ("value", "ascending")

    def __init__(self, value, ascending: bool):
        self.value = value
        self.ascending = ascending

    def __lt__(self, other: "_Directional") -> bool:
        order = compare_values(self.value, other.value)
        return order < 0 if self.ascending else order > 0

    def __eq__(self, other) -> bool:
        return compare_values(self.value, other.value) == 0


_NAN_KEY = object()


def group_key(row: tuple) -> tuple:
    """``row`` as GROUP BY tells rows apart: NULL is a value, all NaN are
    one value, ``-0.0 = 0.0`` (which ``==`` and ``hash`` already say)."""
    return tuple(_NAN_KEY if v != v else v for v in row)


def setop_rows(kind: str, all_: bool, left_rows: list,
               right_rows: list) -> list:
    """INTERSECT / EXCEPT [ALL] over plain rows, in left order: a left
    row is kept while fewer than its quota of equal rows were kept —
    ``min(l, r)`` / ``max(l - r, 0)`` copies for ALL, one or none for
    DISTINCT."""
    left = Counter(group_key(row) for row in left_rows)
    right = Counter(group_key(row) for row in right_rows)
    out, kept = [], Counter()
    for row in left_rows:
        key = group_key(row)
        if kind == "intersect":
            quota = min(left[key], right[key]) if all_ else int(
                right[key] > 0)
        else:
            quota = max(left[key] - right[key], 0) if all_ else int(
                right[key] == 0)
        if kept[key] < quota:
            out.append(row)
            kept[key] += 1
    return out
