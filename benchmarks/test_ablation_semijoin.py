"""Ablation: dynamic semijoin reduction (Section 4.6).

A star join whose dimension side carries a tight filter: with the
optimization on, the runtime builds a range + Bloom filter from the
filtered dimension and the fact scan skips rows (and row groups) early.

Both clocks are reported: the virtual one must favour the optimization,
and on the wall clock the runtime filter must not cost more than the
join work it saves (it did while its probe was a per-row Python loop).
"""

import time

import pytest

import repro
from repro.bench import TpcdsScale, create_tpcds_warehouse
from repro.obs.export import BENCH_COLLECTOR
from conftest import make_conf

SCALE = TpcdsScale()

QUERY = """
    SELECT ss_customer_sk, SUM(ss_sales_price) AS sum_sales
    FROM store_sales, item
    WHERE ss_item_sk = i_item_sk AND i_category = 'Sports'
      AND i_current_price > 250
    GROUP BY ss_customer_sk ORDER BY sum_sales DESC LIMIT 25
"""


@pytest.fixture(scope="module")
def timings():
    conf_on = make_conf("v3")
    conf_off = make_conf("v3")
    conf_off.semijoin_reduction = False
    out = {}
    for label, conf in (("on", conf_on), ("off", conf_off)):
        session = create_tpcds_warehouse(repro.HiveServer2(conf), SCALE)
        session.conf.results_cache_enabled = False
        session.execute(QUERY)   # warm
        walls = []
        for _ in range(3):
            start = time.perf_counter()
            result = session.execute(QUERY)
            walls.append(time.perf_counter() - start)
        out[label] = result, min(walls)
    return out


def test_semijoin_reduction(benchmark, timings):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    (on, on_wall_s), (off, off_wall_s) = timings["on"], timings["off"]
    assert on.rows == off.rows
    assert on.optimized.semijoin_reducers
    assert not off.optimized.semijoin_reducers
    ratio = off.metrics.total_s / on.metrics.total_s
    wall_ratio = on_wall_s / off_wall_s
    benchmark.extra_info["semijoin_speedup"] = ratio
    benchmark.extra_info["semijoin_wall_ratio"] = wall_ratio
    for label, result, wall_s in (("reduction on", on, on_wall_s),
                                  ("reduction off", off, off_wall_s)):
        BENCH_COLLECTOR.record(
            "semijoin_ablation", label, seconds=result.metrics.total_s,
            rows=len(result.rows), wall_s=wall_s,
            breakdown={"semijoin_wall_ratio": wall_ratio})
    print()
    print("Ablation — dynamic semijoin reduction (Section 4.6)")
    print(f"  disabled: {off.metrics.total_s:8.3f}s virtual  "
          f"{off_wall_s * 1000:8.1f} ms wall")
    print(f"  enabled:  {on.metrics.total_s:8.3f}s virtual  "
          f"{on_wall_s * 1000:8.1f} ms wall")
    print(f"  virtual speedup {ratio:.2f}x   "
          f"wall on/off {wall_ratio:.2f}x")
    assert ratio >= 1.0  # never slower on this shape
    # min-of-3 wall on a shared runner: only "the filter does not cost
    # more than a quarter of the query it is meant to shorten"
    assert wall_ratio <= 1.25
