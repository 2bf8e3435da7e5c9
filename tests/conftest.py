"""Shared fixtures for the test suite."""

import sys

import pytest

import repro
from repro.common.rows import Column, Schema
from repro.common.types import DATE, DOUBLE, INT, STRING
from repro.config import HiveConf


@pytest.fixture
def switch_interval():
    """``sys.setswitchinterval`` for one test, restored afterwards:
    attribution tests shorten it so two threads really interleave."""
    old = sys.getswitchinterval()
    yield sys.setswitchinterval
    sys.setswitchinterval(old)


@pytest.fixture
def conf():
    """Fast default configuration for unit tests.

    Plan-invariant checking runs at least in "on" mode for every test
    that goes through this fixture, so any optimizer rewrite that breaks
    a tree invariant fails loudly here.  HIVE_CHECK_PLAN=paranoid (the
    CI lint job) escalates to per-rule validation.
    """
    conf = HiveConf.v3_profile()
    if conf.plan_check_mode == "off":
        conf.check_plan = "on"
    return conf


@pytest.fixture
def server(conf):
    return repro.HiveServer2(conf)


@pytest.fixture
def session(server):
    return server.connect()


@pytest.fixture
def loaded_session(session):
    """A session with two small, loaded tables ``t`` and ``u``."""
    session.execute("CREATE TABLE t (a INT, b STRING, c DOUBLE, d DATE)")
    session.execute("CREATE TABLE u (k INT, x INT, y STRING)")
    session.execute("""
        INSERT INTO t VALUES
          (1, 'one',   1.5, DATE '2020-01-01'),
          (2, 'two',   2.5, DATE '2020-01-02'),
          (3, 'three', 3.5, DATE '2020-01-03'),
          (4, 'four',  4.5, DATE '2020-02-01'),
          (5, NULL,    NULL, DATE '2020-02-02')""")
    session.execute("""
        INSERT INTO u VALUES
          (1, 10, 'ux1'), (2, 20, 'ux2'), (2, 25, 'ux2b'),
          (3, 30, 'ux3'), (9, 90, 'ux9')""")
    return session


@pytest.fixture
def simple_schema():
    return Schema([Column("a", INT), Column("b", STRING),
                   Column("c", DOUBLE), Column("d", DATE)])
