"""Ablation: the two caches (Sections 4.3 and 5.1).

* **query results cache**: a repeated identical BI query is answered
  from the cache in near-constant time; an intervening write invalidates
  it (transactional consistency).
* **LLAP data cache**: the second scan of the same data is served from
  memory — disk bytes drop to ~zero and the response time improves.
"""

import pytest

import repro
from repro.bench import TpcdsScale, create_tpcds_warehouse
from conftest import make_conf

SCALE = TpcdsScale(store_sales=8_000, store_returns=800)

QUERY = """
    SELECT i_category, SUM(ss_ext_sales_price) s
    FROM store_sales, item WHERE ss_item_sk = i_item_sk
    GROUP BY i_category ORDER BY s DESC
"""


@pytest.fixture(scope="module")
def session():
    return create_tpcds_warehouse(repro.HiveServer2(make_conf("v3")),
                                  SCALE)


def test_results_cache_repeated_query(benchmark, session):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    session.conf.results_cache_enabled = True
    first = session.execute(QUERY)
    second = session.execute(QUERY)
    assert not first.from_cache
    assert second.from_cache
    assert second.rows == first.rows
    ratio = first.metrics.total_s / second.metrics.total_s
    print()
    print("Ablation — query results cache (Section 4.3)")
    print(f"  first run : {first.metrics.total_s:8.3f}s")
    print(f"  cache hit : {second.metrics.total_s:8.3f}s "
          f"({ratio:.0f}x faster)")
    benchmark.extra_info["results_cache_speedup"] = ratio
    assert ratio > 3.0

    # a write to a participating table invalidates the entry
    session.execute(
        "INSERT INTO store_sales PARTITION (ss_sold_date_sk=0) VALUES "
        "(1, 1, 1, 1, 1, 999999, 1, 10.0, 9.0, 9.0, 1.0)")
    third = session.execute(QUERY)
    assert not third.from_cache


def test_llap_cache_warm_scan(benchmark, session):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    session.conf.results_cache_enabled = False
    server = session.server
    server.llap_cache.clear()
    cold = session.execute(QUERY + " LIMIT 5")
    cold_disk = cold.metrics.disk_bytes
    warm = session.execute(QUERY + " LIMIT 5")
    warm_disk = warm.metrics.disk_bytes
    print()
    print("Ablation — LLAP data cache (Section 5.1)")
    print(f"  cold scan: {cold.metrics.total_s:8.3f}s  "
          f"disk={cold_disk/1e3:.0f}KB cache={cold.metrics.cache_bytes/1e3:.0f}KB")
    print(f"  warm scan: {warm.metrics.total_s:8.3f}s  "
          f"disk={warm_disk/1e3:.0f}KB cache={warm.metrics.cache_bytes/1e3:.0f}KB")
    benchmark.extra_info["warm_hit_fraction"] = \
        warm.metrics.cache_hit_fraction
    assert cold_disk > 0
    assert warm_disk < cold_disk * 0.05      # nearly everything cached
    assert warm.metrics.cache_hit_fraction > 0.95
    assert warm.metrics.total_s <= cold.metrics.total_s
