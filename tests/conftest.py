"""Shared fixtures: a small, fast CacheMind session over the tiny config,
and a record of the worker pools a parallel run builds."""

from concurrent.futures import ProcessPoolExecutor

import pytest

import repro.sim.parallel as parallel_module
from repro import CacheMind, TINY_CONFIG
from repro.core.pipeline import SimulationCache

#: session parameters shared by the pipeline/CLI tests (small for speed).
SESSION_KWARGS = dict(
    workloads=["astar", "lbm"],
    policies=["lru", "belady"],
    num_accesses=500,
    config=TINY_CONFIG,
    seed=0,
)


@pytest.fixture()
def fresh_cache():
    """An isolated simulation memoiser (not the process-wide singleton)."""
    return SimulationCache()


@pytest.fixture()
def session(fresh_cache):
    """A small CacheMind session with an isolated memoiser."""
    return CacheMind(simulation_cache=fresh_cache, **SESSION_KWARGS)


@pytest.fixture()
def process_pools(monkeypatch):
    """The process pools ``ParallelSimulator`` builds, in order, on a host
    with two cores (a single-core host never builds one)."""
    pools = []

    class RecordingPool(ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            pools.append(self)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(parallel_module.os, "cpu_count", lambda: 2)
    monkeypatch.setattr(parallel_module, "ProcessPoolExecutor", RecordingPool)
    return pools
