"""Independent oracles for the wall-clock benchmark.

Plain Python over the generator's row tuples: nothing in this file imports
``repro``.  An oracle states what a statement must return; ``rows_match``
and ``topk_match`` compare that with what the program returned, and
``rows_digest`` turns a result into the short digest that must not change
between cycles and that ``golden.json`` pins for the default seed.
"""

from __future__ import annotations

import datetime
import hashlib
import math
from collections import defaultdict

REL_TOL = 1e-9
ABS_TOL = 1e-6


# --------------------------------------------------------------------------- #
# comparing results

def plain(value):
    """A result cell as a plain Python value (numpy scalars unwrapped)."""
    if hasattr(value, "item") and not isinstance(value, (str, bytes)):
        value = value.item()
    if isinstance(value, (datetime.date, datetime.datetime)):
        return value.isoformat()
    return value


def _digest_cell(value) -> str:
    value = plain(value)
    if isinstance(value, float):
        # seven significant digits: a changed summation order keeps the
        # digest, a wrong row does not
        return format(value, ".6e")
    return repr(value)


def rows_digest(rows) -> str:
    """Order-sensitive digest of a result set."""
    h = hashlib.sha1()
    for row in rows:
        h.update("|".join(_digest_cell(v) for v in row).encode("utf-8"))
        h.update(b"\n")
    return h.hexdigest()[:16]


def cells_equal(a, b) -> bool:
    a, b = plain(a), plain(b)
    if isinstance(a, float) or isinstance(b, float):
        if a is None or b is None:
            return a is b
        return math.isclose(a, b, rel_tol=REL_TOL, abs_tol=ABS_TOL)
    return a == b


def _sort_key(row):
    return tuple((0, round(v, 4)) if isinstance(v, float)
                 else (1, str(v)) if not isinstance(v, (int, float))
                 else (0, v)
                 for v in map(plain, row))


def rows_match(actual, expected, ordered: bool = False) -> bool:
    """Same rows (floats within tolerance); order only if ``ordered``."""
    actual, expected = list(actual), list(expected)
    if len(actual) != len(expected):
        return False
    if not ordered:
        actual = sorted(actual, key=_sort_key)
        expected = sorted(expected, key=_sort_key)
    return all(len(a) == len(e)
               and all(cells_equal(x, y) for x, y in zip(a, e))
               for a, e in zip(actual, expected))


def topk_match(actual, expected_all, order_index: int, limit: int) -> bool:
    """``ORDER BY col DESC LIMIT k`` without depending on how ties break.

    ``expected_all`` is the full, unlimited result.  Every returned row
    must be one of them, and the order-key values must be exactly the
    ``limit`` largest, in order.
    """
    actual = list(actual)
    want = sorted((row[order_index] for row in expected_all), reverse=True)
    want = want[:limit]
    if len(actual) != len(want):
        return False
    if not all(cells_equal(row[order_index], value)
               for row, value in zip(actual, want)):
        return False
    def group_key(row):
        return tuple(plain(v) for i, v in enumerate(row) if i != order_index)

    by_key = {group_key(row): row for row in expected_all}
    return all(group_key(row) in by_key
               and cells_equal(row[order_index],
                               by_key[group_key(row)][order_index])
               for row in actual)


# --------------------------------------------------------------------------- #
# user bytes: the benchmark's own fixed plain encoding

def user_bytes(rows) -> int:
    """8 bytes per numeric or date value, UTF-8 length per string."""
    total = 0
    for row in rows:
        for value in row:
            total += (len(value.encode("utf-8")) if isinstance(value, str)
                      else 8)
    return total


# --------------------------------------------------------------------------- #
# tpcds_read: expected rows of nine of the 31 queries
#
# column positions in the generator's tuples
SS_TIME, SS_ITEM, SS_CUST, SS_STORE, SS_HDEMO, SS_TICKET, SS_QTY, \
    SS_LIST, SS_SALES, SS_EXT, SS_PROFIT, SS_DATE = range(12)
SR_ITEM, SR_CUST, SR_TICKET, SR_AMT, SR_DATE = range(5)


def tpcds_expectations(data: dict) -> dict:
    """query name -> ("rows" | "topk", expectation...)."""
    moy = {d[0]: d[3] for d in data["date_dim"]}
    year = {d[0]: d[2] for d in data["date_dim"]}
    date_of = {d[0]: d[1] for d in data["date_dim"]}
    category = {i[0]: i[2] for i in data["item"]}
    brand = {i[0]: i[3] for i in data["item"]}
    hour = {t[0]: t[1] for t in data["time_dim"]}
    dep_count = {h[0]: h[1] for h in data["household_demographics"]}
    sales, returns = data["store_sales"], data["store_returns"]
    out = {}

    by_cat = defaultdict(float)
    for s in sales:
        if moy[s[SS_DATE]] == 1:
            by_cat[(year[s[SS_DATE]], 1, category[s[SS_ITEM]])] += s[SS_EXT]
    out["q42_month_category"] = ("rows", [k + (v,) for k, v in by_cat.items()])

    by_brand = defaultdict(float)
    for s in sales:
        if moy[s[SS_DATE]] == 2 and category[s[SS_ITEM]] == "Home":
            by_brand[brand[s[SS_ITEM]]] += s[SS_EXT]
    out["q55_brand_month"] = ("rows", list(by_brand.items()))

    out["q96_counting"] = ("rows", [(sum(
        1 for s in sales
        if hour[s[SS_TIME]] == 8 and dep_count[s[SS_HDEMO]] == 5),)])

    returned = defaultdict(float)
    for r in returns:
        returned[category[r[SR_ITEM]]] += r[SR_AMT]
    out["q_returns_ratio"] = ("rows", list(returned.items()))

    # the star: fact ⋈ returns on (item, ticket) ⋈ item[Sports]; a ticket
    # returned twice joins twice
    return_count = defaultdict(int)
    for r in returns:
        return_count[(r[SR_ITEM], r[SR_TICKET])] += 1
    per_customer = defaultdict(float)
    for s in sales:
        n = return_count.get((s[SS_ITEM], s[SS_TICKET]), 0)
        if n and category[s[SS_ITEM]] == "Sports":
            per_customer[s[SS_CUST]] += s[SS_SALES] * n
    out["q_semijoin_star"] = ("topk", list(per_customer.items()), 1, 100)

    out["q_union_all"] = ("rows", [
        ("sales", math.fsum(s[SS_EXT] for s in sales)),
        ("returns", math.fsum(r[SR_AMT] for r in returns))])

    customers = defaultdict(set)
    for s in sales:
        customers[year[s[SS_DATE]]].add(s[SS_CUST])
    out["q_count_distinct"] = ("rows", [(y, len(c))
                                        for y, c in customers.items()])

    january = {s[SS_CUST] for s in sales if moy[s[SS_DATE]] == 1}
    out["q_intersect_38"] = ("rows", [(len(
        january & {r[SR_CUST] for r in returns}),)])

    lo = datetime.date(2018, 1, 10)
    hi = lo + datetime.timedelta(days=30)
    out["q_interval_16"] = ("rows", [(sum(
        1 for s in sales if lo <= date_of[s[SS_DATE]] <= hi),)])
    return out


def check(expectation, rows) -> bool:
    """Does ``rows`` satisfy an expectation built in this module?"""
    kind = expectation[0]
    if kind == "rows":
        return rows_match(rows, expectation[1])
    if kind == "ordered":
        return rows_match(rows, expectation[1], ordered=True)
    if kind == "topk":
        _, expected_all, order_index, limit = expectation
        return topk_match(rows, expected_all, order_index, limit)
    raise ValueError(kind)


# --------------------------------------------------------------------------- #
# bulk_load: one COUNT/SUM per table

#: table -> (column name, position in the generator's tuple)
CHECK_COLUMN = {
    "date_dim": ("d_date_sk", 0),
    "item": ("i_current_price", 4),
    "customer": ("c_customer_sk", 0),
    "store": ("s_store_sk", 0),
    "household_demographics": ("hd_income_band", 2),
    "time_dim": ("t_hour", 1),
    "store_sales": ("ss_ext_sales_price", SS_EXT),
    "store_returns": ("sr_return_amt", SR_AMT),
}


def table_check(table: str, rows) -> tuple:
    position = CHECK_COLUMN[table][1]
    return (len(rows), math.fsum(row[position] for row in rows))


# --------------------------------------------------------------------------- #
# acid_churn: the DML applied to a Python row list

O_ID, O_CUSTOMER, O_STATUS, O_AMOUNT, O_QUANTITY, O_DAY = range(6)


class OrdersModel:
    """What ``orders`` must contain after each statement of the script."""

    def __init__(self, rows):
        self.rows = {row[O_ID]: tuple(row) for row in rows}

    def insert(self, rows) -> int:
        for row in rows:
            self.rows[row[O_ID]] = tuple(row)
        return len(rows)

    def update_paid(self, lo: int, hi: int) -> int:
        """SET o_status='paid', o_amount=o_amount+1 WHERE customer in range."""
        hit = [r for r in self.rows.values() if lo <= r[O_CUSTOMER] <= hi]
        for r in hit:
            self.rows[r[O_ID]] = (r[O_ID], r[O_CUSTOMER], "paid",
                                  r[O_AMOUNT] + 1, r[O_QUANTITY], r[O_DAY])
        return len(hit)

    def delete_ids(self, lo: int, hi: int) -> int:
        hit = [k for k in self.rows if lo <= k <= hi]
        for k in hit:
            del self.rows[k]
        return len(hit)

    def merge(self, feed) -> int:
        """Matched: take amount, status 'merged'.  Not matched: insert."""
        for f in feed:
            old = self.rows.get(f[O_ID])
            if old is None:
                self.rows[f[O_ID]] = tuple(f)
            else:
                self.rows[f[O_ID]] = (old[O_ID], old[O_CUSTOMER], "merged",
                                      f[O_AMOUNT], old[O_QUANTITY],
                                      old[O_DAY])
        return len(feed)

    # reads ---------------------------------------------------------------
    def by_status(self) -> list:
        groups = defaultdict(list)
        for r in self.rows.values():
            groups[r[O_STATUS]].append(r[O_AMOUNT])
        return [(k, len(v), math.fsum(v)) for k, v in sorted(groups.items())]

    def day_totals(self, day: int) -> list:
        hit = [r for r in self.rows.values() if r[O_DAY] == day]
        if not hit:
            return [(0, None)]
        return [(len(hit), sum(r[O_QUANTITY] for r in hit))]

    def lookup(self, key: int) -> list:
        r = self.rows.get(key)
        return [] if r is None else [(r[O_ID], r[O_STATUS], r[O_AMOUNT])]

    def live_rows(self) -> list:
        return list(self.rows.values())


# --------------------------------------------------------------------------- #
# service_dashboards: point and range statements over lineorder

LO_ORDERKEY, LO_REVENUE = 0, 8


def lineorder_point(lineorder, key: int) -> list:
    return [(r[LO_ORDERKEY], r[LO_REVENUE]) for r in lineorder
            if r[LO_ORDERKEY] == key]


def lineorder_range(lineorder, lo: int, hi: int) -> list:
    hit = [r[LO_REVENUE] for r in lineorder if lo <= r[LO_ORDERKEY] <= hi]
    return [(len(hit), math.fsum(hit) if hit else None)]
