"""Independent oracles for the simulator: a reference model and properties.

Every other simulator test compares one of the simulator's own replay paths
against another.  These tests instead check the simulator against things
that do not share its code:

* a small reference simulator (LRU/FIFO/Belady with their eviction
  scores, the resident lines, reuse distances, recency and recent history
  the access log records, miss classes, the analytic timing model), written
  here from the definitions over the raw trace columns — the executable
  spec;
* properties any correct cache simulator has: Belady's lower bound, the
  inclusion property of the stack algorithms, Belady's anomaly for FIFO (a
  positive control that the suite can see non-stack behaviour),
  conservation laws, and zeros on the empty trace.

Inclusion and monotonicity are what make configuration sweeps trustworthy
(Khatwal & Jain, arXiv:1406.5000).
"""

import dataclasses
from collections import deque
from typing import NamedTuple

import pytest

from repro.policies import available_policies, get_policy
from repro.policies.base import NEVER
from repro.sim.batch import BatchSimulator, NATIVE_POLICIES, RolloutSpec
from repro.sim.config import SMALL_CONFIG, TINY_CONFIG
from repro.sim.engine import SimulationEngine
from repro.tracedb.schema import MISS_TYPE_LABELS
from repro.workloads.generator import available_workloads, generate_trace
from repro.workloads.trace import (FLAG_PREFETCH, FLAG_WRITE, MemoryTrace,
                                   TraceAccess)

NUM_ACCESSES = 1500
SEED = 3
CONFIGS = {"tiny": TINY_CONFIG, "small": SMALL_CONFIG}
MODES = ("llc_only", "hierarchy")


def _trace(workload, num_accesses=NUM_ACCESSES):
    """A bundled workload's trace with every 7th access made a software
    prefetch, so the demand mask and base timing are exercised."""
    return MemoryTrace(workload, [
        dataclasses.replace(access, is_prefetch=index % 7 == 0)
        for index, access in enumerate(
            generate_trace(workload, num_accesses, SEED))])


# ----------------------------------------------------------------------
# the reference simulator
# ----------------------------------------------------------------------
#: Recent accesses the reference records per access, as the access log's
#: ``HISTORY_WINDOW``.
HISTORY = 8


class Step(NamedTuple):
    """One access of the reference cache: what it found and what it did.
    Distances and recency are -1 for "never"."""

    hit: bool
    evicted: int  # block, or -1
    lines: list  # resident (block, pc) in way order, before the access
    scores: list  # each resident line's eviction score, before the access
    accessed_reuse: int
    evicted_reuse: int
    recency: int
    history: list  # (block, pc) of the previous <= HISTORY accesses


def _score(policy, line, now):
    """A line's eviction score by the policy's definition: age since use
    (LRU), age since fill (FIFO), accesses until next use (Belady)."""
    _block, _pc, fill, use, upcoming = line
    if policy == "belady":
        return float(NEVER if upcoming == float("inf") else upcoming - now)
    return float(now - (fill if policy == "fifo" else use))


def reference_cache(blocks, cache, policy="lru", pcs=None):
    """One :class:`Step` per access of one cache."""
    pcs = pcs or [0] * len(blocks)
    future, upcoming = [], {}
    for block in reversed(blocks):
        future.append(upcoming.get(block, float("inf")))
        upcoming[block] = len(blocks) - len(future)
    future.reverse()

    def distance(position, now):
        return -1 if position == float("inf") else position - now

    # way -> [block, pc, fill, use, next]
    sets = [[] for _ in range(cache.num_sets)]
    last_seen, history, steps = {}, deque(maxlen=HISTORY), []
    for now, (block, pc) in enumerate(zip(blocks, pcs)):
        ways = sets[block % cache.num_sets]
        before = dict(
            lines=[(line[0], line[1]) for line in ways],
            scores=[_score(policy, line, now) for line in ways],
            accessed_reuse=distance(future[now], now),
            recency=now - last_seen[block] if block in last_seen else -1,
            history=list(history))
        last_seen[block] = now
        history.append((block, pc))
        line = next((line for line in ways if line[0] == block), None)
        if line is not None:
            line[3:] = [now, future[now]]
            steps.append(Step(True, -1, evicted_reuse=-1, **before))
            continue
        new = [block, pc, now, now, future[now]]
        evicted = evicted_reuse = -1
        if len(ways) < cache.num_ways:
            ways.append(new)
        else:
            if policy == "belady":  # farthest next use; first way on ties
                way = max(range(len(ways)), key=lambda w: ways[w][4])
            else:  # oldest fill (FIFO) or oldest use (LRU)
                field = 2 if policy == "fifo" else 3
                way = min(range(len(ways)), key=lambda w: ways[w][field])
            evicted, evicted_reuse = ways[way][0], distance(ways[way][4], now)
            ways[way] = new
        steps.append(Step(False, evicted, evicted_reuse=evicted_reuse,
                          **before))
    return steps


def reference_classes(blocks, capacity):
    """Miss class of every access: never seen -> compulsory; still in a
    fully-associative LRU cache of ``capacity`` blocks -> conflict."""
    seen, shadow, classes = set(), [], []  # shadow: least recent first
    for block in blocks:
        if block in shadow:
            classes.append("Conflict")
            shadow.remove(block)
        else:
            classes.append("Capacity" if block in seen else "Compulsory")
        seen.add(block)
        shadow.append(block)
        if len(shadow) > capacity:
            shadow.pop(0)
    return classes


def reference_replay(trace, config, policy, mode):
    pcs, addresses, flags, gaps = trace.columns()
    levels = ["llc"] * len(addresses)
    stream = list(range(len(addresses)))
    if mode == "hierarchy":  # LRU L1D, then LRU L2 on its misses
        for level, cache in (("l1", config.l1d), ("l2", config.l2)):
            steps = reference_cache(
                [addresses[i] // cache.block_bytes for i in stream], cache)
            for i, step in zip(stream, steps):
                if step.hit:
                    levels[i] = level
            stream = [i for i in stream if levels[i] == "llc"]
    llc = config.llc
    blocks = [addresses[i] // llc.block_bytes for i in stream]
    steps = reference_cache(blocks, llc, policy, [pcs[i] for i in stream])
    for i, step in zip(stream, steps):
        levels[i] = "llc" if step.hit else "dram"
    latency = {"l2": config.l1d.latency_cycles + config.l2.latency_cycles}
    latency["llc"] = latency["l2"] + llc.latency_cycles
    latency["dram"] = latency["llc"] + config.dram.access_latency_cycles
    timing = {"instructions": 0, "base_cycles": 0.0, "stall_cycles": 0.0,
              "accesses_by_level": {}, "stalls_by_level": {}}
    for i, level in enumerate(levels):
        if not flags[i] & FLAG_PREFETCH:
            timing["instructions"] += gaps[i] + 1
            timing["base_cycles"] += (gaps[i] + 1) / config.core.retire_width
        by_level = timing["accesses_by_level"]
        by_level[level] = by_level.get(level, 0) + 1
        if level != "l1" and not flags[i] & (FLAG_WRITE | FLAG_PREFETCH):
            stall = float(latency[level]) * (1.0 - config.core.overlap_factor)
            timing["stall_cycles"] += stall
            stalls = timing["stalls_by_level"]
            stalls[level] = stalls.get(level, 0.0) + stall
    return blocks, steps, reference_classes(blocks, llc.num_blocks), timing


def _assert_matches_reference(result, reference, llc):
    blocks, steps, classes, timing = reference
    hits = [step.hit for step in steps]
    evicted = [step.evicted for step in steps]
    misses = [cls for cls, hit in zip(classes, hits) if not hit]
    per_set_accesses, per_set_hits = [0] * llc.num_sets, [0] * llc.num_sets
    for block, hit in zip(blocks, hits):
        per_set_accesses[block % llc.num_sets] += 1
        per_set_hits[block % llc.num_sets] += hit
    assert result.llc_stats.as_tuple() == (
        len(blocks), sum(hits), len(misses),
        sum(1 for block in evicted if block >= 0), 0,
        misses.count("Compulsory"), misses.count("Capacity"),
        misses.count("Conflict"), tuple(per_set_accesses),
        tuple(per_set_hits))
    assert dataclasses.asdict(result.timing) == timing
    if result.log is not None:
        log = result.log
        assert list(log.block_addresses) == blocks
        assert list(log.hit_flags) == hits
        assert list(log.evicted_blocks) == evicted
        assert [MISS_TYPE_LABELS[code] for code in log.miss_type_codes] == [
            "" if hit else cls for cls, hit in zip(classes, hits)]
        rows = range(len(log))
        assert [log.row_lines(i) for i in rows] == [
            step.lines for step in steps]
        assert [log.row_scores(i) for i in rows] == [
            [(block, score) for (block, _pc), score in zip(step.lines,
                                                           step.scores)]
            for step in steps]
        assert [log.row_history(i) for i in rows] == [
            step.history for step in steps]
        assert list(log.accessed_reuse) == [
            step.accessed_reuse for step in steps]
        assert list(log.evicted_reuse) == [
            step.evicted_reuse for step in steps]
        assert list(log.recencies) == [step.recency for step in steps]
        assert result.wrong_evictions == sum(
            1 for step in steps if step.evicted_reuse >= 0 and (
                step.accessed_reuse < 0
                or step.evicted_reuse < step.accessed_reuse))


@pytest.mark.parametrize("config_name", sorted(CONFIGS))
@pytest.mark.parametrize("workload", available_workloads())
def test_engine_matches_reference_simulator(workload, config_name):
    config = CONFIGS[config_name]
    trace = _trace(workload)
    for policy in ("lru", "fifo", "belady"):
        for mode in MODES:
            reference = reference_replay(trace, config, policy, mode)
            stats = SimulationEngine(config=config, mode=mode,
                                     detail="stats")
            full = SimulationEngine(config=config, mode=mode)
            for result in (stats.run(trace, policy),  # native kernel
                           stats.run(trace, get_policy(policy)),
                           full.run(trace, policy)):
                _assert_matches_reference(result, reference, config.llc)


# ----------------------------------------------------------------------
# properties
# ----------------------------------------------------------------------
def _misses(trace, config, policy, mode="llc_only"):
    engine = SimulationEngine(config=config, mode=mode, detail="stats")
    return engine.run(trace, policy).llc_stats.misses


@pytest.mark.parametrize("workload", available_workloads())
def test_belady_is_a_lower_bound_on_misses(workload):
    trace = _trace(workload)
    for mode in MODES:
        optimal = _misses(trace, TINY_CONFIG, "belady", mode)
        for policy in available_policies():
            assert optimal <= _misses(trace, TINY_CONFIG, policy, mode), (
                policy, mode)


@pytest.mark.parametrize("workload", available_workloads())
def test_inclusion_doubling_ways_never_adds_misses(workload):
    trace = _trace(workload)
    for config in CONFIGS.values():
        wider = config.scaled_llc(2 * config.llc.size_bytes,
                                  num_ways=2 * config.llc.num_ways)
        assert wider.llc.num_sets == config.llc.num_sets
        for policy in ("lru", "belady"):
            for mode in MODES:
                assert (_misses(trace, wider, policy, mode)
                        <= _misses(trace, config, policy, mode)), (
                            config.name, policy, mode)


def test_fifo_shows_beladys_anomaly():
    block_bytes = TINY_CONFIG.llc.block_bytes
    trace = MemoryTrace("anomaly", [
        TraceAccess(pc=0x400000, address=block * block_bytes)
        for block in (1, 2, 3, 4, 1, 2, 5, 1, 2, 3, 4, 5)])
    misses = {}
    for ways in (3, 4):
        llc = dataclasses.replace(TINY_CONFIG.llc, num_ways=ways,
                                  size_bytes=ways * block_bytes)
        config = dataclasses.replace(TINY_CONFIG, llc=llc)
        assert llc.num_sets == 1
        reference = reference_cache([1, 2, 3, 4, 1, 2, 5, 1, 2, 3, 4, 5],
                                    llc, "fifo")
        misses[ways] = {_misses(trace, config, "fifo"),
                        _misses(trace, config, get_policy("fifo")),
                        sum(1 for step in reference if not step.hit)}
    assert misses == {3: {9}, 4: {10}}


@pytest.mark.parametrize("workload", available_workloads())
def test_conservation_laws(workload):
    trace = _trace(workload, 600)
    _pcs, _addresses, flags, gaps = trace.columns()
    retired = sum(gap + 1 for flag, gap in zip(flags, gaps)
                  if not flag & FLAG_PREFETCH)
    for mode in MODES:
        for detail in ("stats", "full"):
            engine = SimulationEngine(config=TINY_CONFIG, mode=mode,
                                      detail=detail)
            for policy in available_policies():
                result = engine.run(trace, policy)
                llc = result.llc_stats
                assert llc.hits + llc.misses == llc.accesses
                assert sum(llc.per_set_accesses) == llc.accesses
                assert (llc.compulsory_misses + llc.capacity_misses
                        + llc.conflict_misses == llc.misses)
                assert sum(result.timing.accesses_by_level.values()) == len(
                    trace)
                assert result.timing.instructions == retired


def test_empty_trace_returns_zeros_on_every_path():
    trace = MemoryTrace("empty")
    for mode in MODES:
        for detail in ("stats", "full"):
            engine = SimulationEngine(config=TINY_CONFIG, mode=mode,
                                      detail=detail)
            specs = [RolloutSpec(policy, TINY_CONFIG, mode=mode,
                                 detail=detail)
                     for policy in NATIVE_POLICIES + ("hawkeye",)]
            results = BatchSimulator(trace).run(specs) + [
                engine.run(trace, policy) for policy in available_policies()
            ] + [engine.run(trace, get_policy("lru"))]
            for result in results:
                zeros = (0,) * TINY_CONFIG.llc.num_sets
                assert result.llc_stats.as_tuple() == (0,) * 8 + (zeros,
                                                                  zeros)
                assert dataclasses.asdict(result.timing) == {
                    "instructions": 0, "base_cycles": 0.0,
                    "stall_cycles": 0.0, "stalls_by_level": {},
                    "accesses_by_level": {}}
                assert result.wrong_evictions == 0
                assert result.num_records == 0
