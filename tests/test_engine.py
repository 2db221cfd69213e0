"""Simulation engine determinism and trace reproducibility."""

import hashlib
from functools import lru_cache

import pytest

from repro.policies import LRUPolicy, available_policies, get_policy
from repro.sim.config import SMALL_CONFIG, TINY_CONFIG
from repro.sim.engine import SimulationEngine
from repro.workloads.generator import available_workloads, generate_trace
from row_oracle import to_records

#: Pinned digests of every full-detail result a policy produces over the
#: bundled workloads (see :func:`_full_detail_digest`).  Access logs become
#: store records and tables, so if this test fails you changed what the
#: store and every table hold — bump STORE_SCHEMA_VERSION and re-pin
#: deliberately.
PINNED_FULL_DETAIL_DIGESTS = {
    "belady": "a91bf2f6e705bee4",
    "brrip": "8ab1c6a9ce55bae9",
    "bypass": "4457f9e7ce67f09f",
    "dip": "2df51e3e2439b7ec",
    "drrip": "20f74ff8d552acb1",
    "fifo": "9ab4c1530aaec6e0",
    "hawkeye": "b884036481db26c1",
    "lru": "4457f9e7ce67f09f",
    "mlp": "406fb67c25090b60",
    "mockingjay": "bb01cd31340df89a",
    "parrot": "d81878f1501693b3",
    "plru": "52f2727152cb48d9",
    "random": "d7e27b29fdc20cea",
    "ship": "3d38cd938665b83d",
    "srrip": "52b8a1d01adbd231",
}
DIGEST_ACCESSES = 200

#: TINY with a 16-way LLC (8 sets): wide sets, where top eviction scores
#: tie far more often than in TINY's 4 ways.
WIDE_CONFIG = TINY_CONFIG.scaled_llc(8 * 1024, num_ways=16)
#: Pinned stats-detail digests on :data:`WIDE_CONFIG` (see
#: :func:`_wide_stats_digest`); they pin each policy's victim choice and
#: tie-break, which a stats replay records only in its counters.
PINNED_WIDE_STATS_DIGESTS = {
    "belady": "23c782ce95aa0de2",
    "brrip": "800422dd4d56bc01",
    "bypass": "eaae742f187b411a",
    "dip": "2915ca8f3d7b8caa",
    "drrip": "2f385c1af652040f",
    "fifo": "bd48a9a8351f9941",
    "hawkeye": "91e1960b56859db7",
    "lru": "eaae742f187b411a",
    "mlp": "524c8fa78b0a1fed",
    "mockingjay": "b55e8e09a452fa1c",
    "parrot": "c19e0d6813f7c159",
    "plru": "01ba91033dafa708",
    "random": "15e564faa77c1c47",
    "ship": "4c4a1507a28c7de0",
    "srrip": "f8b81424e1875b6a",
}
WIDE_ACCESSES = 1000

#: Pinned full-detail digests on SMALL (see :func:`_long_age_digest`) of
#: the policies whose scores bucket a line's age.  Neither pin above
#: scores a line in mlp's or parrot's oldest bucket; these do, over a
#: thousand times each (mlp's begins at age 1,024, parrot's at 2,048).
PINNED_LONG_AGE_DIGESTS = {
    "mlp": "fb30c92e1439bac1",
    "parrot": "2c6c7d822169b837",
}
LONG_AGE_ACCESSES = 2500
OLDEST_BUCKET_AGE = {"mlp": 1024, "parrot": 2048}


@lru_cache(maxsize=None)
def _wide_trace(workload):
    return generate_trace(workload, WIDE_ACCESSES)


def _run(trace, policy_name):
    engine = SimulationEngine(config=TINY_CONFIG)
    return engine.run(trace, policy_name)


def test_trace_generation_is_deterministic():
    first = generate_trace("astar", num_accesses=500, seed=0)
    second = generate_trace("astar", num_accesses=500, seed=0)
    assert len(first) == len(second) == 500
    assert [(a.pc, a.address, a.is_write) for a in first] == \
           [(a.pc, a.address, a.is_write) for a in second]


def test_different_seeds_differ():
    first = generate_trace("astar", num_accesses=500, seed=0)
    second = generate_trace("astar", num_accesses=500, seed=1)
    assert [(a.pc, a.address) for a in first] != \
           [(a.pc, a.address) for a in second]


def test_engine_is_deterministic_for_same_trace_and_policy():
    trace = generate_trace("astar", num_accesses=500, seed=0)
    first = _run(trace, "lru")
    second = _run(trace, "lru")
    assert first.llc_stats.accesses == second.llc_stats.accesses
    assert first.llc_stats.hits == second.llc_stats.hits
    assert first.llc_stats.misses == second.llc_stats.misses
    assert first.wrong_evictions == second.wrong_evictions
    assert first.timing.ipc == second.timing.ipc
    first_records, second_records = to_records(first.log), to_records(second.log)
    assert len(first_records) == len(second_records)
    for a, b in zip(first_records, second_records):
        assert a.program_counter == b.program_counter
        assert a.memory_address == b.memory_address
        assert a.is_hit == b.is_hit
        assert a.evicted_address == b.evicted_address


def test_policies_actually_differ():
    trace = generate_trace("astar", num_accesses=500, seed=0)
    lru = _run(trace, "lru")
    belady = _run(trace, "belady")
    # Belady's OPT is an oracle: it cannot do worse than LRU on misses.
    assert belady.llc_stats.misses <= lru.llc_stats.misses


def _full_detail_digest(policy_name):
    """sha256 (16 hex) over the whole table, wrong evictions, LLC counters
    and cycles of each workload in llc_only and hierarchy mode, then over
    the llc_only table's first ``DIGEST_ACCESSES // 3`` rows with the same
    counters, on TINY (whose 64-line LLC evicts early)."""
    digest = hashlib.sha256()
    for workload in available_workloads():
        trace = generate_trace(workload, DIGEST_ACCESSES)
        llc_only = _run(trace, policy_name)
        hierarchy = SimulationEngine(config=TINY_CONFIG, mode="hierarchy").run(
            trace, policy_name)
        table = llc_only.log.to_table().to_dict()
        head = {name: values[:DIGEST_ACCESSES // 3]
                for name, values in table.items()}
        for result, cells in ((llc_only, table),
                              (hierarchy, hierarchy.log.to_table().to_dict()),
                              (llc_only, head)):
            digest.update(repr((
                cells, result.wrong_evictions,
                result.llc_stats.as_tuple(), result.timing.cycles)).encode())
    return digest.hexdigest()[:16]


@pytest.mark.parametrize("policy_name", available_policies())
def test_full_detail_logs_match_pinned_digests(policy_name):
    assert (_full_detail_digest(policy_name)
            == PINNED_FULL_DETAIL_DIGESTS[policy_name])


class _MiscountedScores(LRUPolicy):
    """LRU whose eviction scores number ``extra`` more than the lines."""

    def __init__(self, extra):
        super().__init__()
        self.extra = extra

    def eviction_scores(self, set_index, lines, access):
        return [float(k) for k in range(len(lines) + self.extra)]


@pytest.mark.parametrize("extra", [-1, 1])
def test_eviction_scores_pair_with_resident_lines_as_zip_does(extra):
    trace = generate_trace("astar", num_accesses=300, seed=0)
    full = _run(trace, _MiscountedScores(extra))
    log = full.log
    for i in range(len(log)):
        lines = log.row_lines(i)
        assert log.row_scores(i) == list(zip(
            [block for block, _pc in lines],
            [float(k) for k in range(len(lines) + extra)]))
    # The victim comes from the same pairing at stats detail, which logs
    # nothing and scores only on eviction.
    stats = SimulationEngine(config=TINY_CONFIG, detail="stats").run(
        trace, _MiscountedScores(extra))
    assert full.llc_stats.evictions
    assert stats.llc_stats.as_tuple() == full.llc_stats.as_tuple()


@pytest.mark.parametrize("policy_name", available_policies())
def test_evicted_block_holds_its_rows_top_eviction_score(policy_name):
    """The paper's trace schema logs each access's eviction scores next to
    its evicted address; the evicted line must hold the top score."""
    evictions = 0
    for config in (TINY_CONFIG, WIDE_CONFIG):
        engine = SimulationEngine(config=config)
        for workload in available_workloads():
            log = engine.run(_wide_trace(workload), policy_name).log
            for i, evicted in enumerate(log.evicted_blocks):
                if evicted != -1:
                    scores = dict(log.row_scores(i))
                    assert scores[evicted] == max(scores.values()), (
                        config.llc.num_ways, workload, i)
                    evictions += 1
    assert evictions


def _wide_stats_digest(policy_name):
    """sha256 (16 hex) over the LLC counters and cycles of each workload at
    stats detail on :data:`WIDE_CONFIG`.  A policy instance takes the
    generic loop even where a name would take a native kernel."""
    digest = hashlib.sha256()
    engine = SimulationEngine(config=WIDE_CONFIG, detail="stats")
    for workload in available_workloads():
        result = engine.run(_wide_trace(workload), get_policy(policy_name))
        digest.update(repr((result.llc_stats.as_tuple(),
                            result.timing.cycles)).encode())
    return digest.hexdigest()[:16]


@pytest.mark.parametrize("policy_name", available_policies())
def test_wide_stats_detail_matches_pinned_digests(policy_name):
    assert (_wide_stats_digest(policy_name)
            == PINNED_WIDE_STATS_DIGESTS[policy_name])


def _oldest_bucket_scores(log, oldest_age):
    """How many of the log's line scores are of lines at least
    ``oldest_age`` accesses old (a line's last access is the last row that
    accessed its block)."""
    last_access = {}
    count = 0
    for i in range(len(log)):
        now = log.access_indices[i]
        count += sum(now - last_access[block] >= oldest_age
                     for block, _pc in log.row_lines(i))
        last_access[log.block_addresses[i]] = now
    return count


def _long_age_digest(policy_name):
    """sha256 (16 hex) over each workload's logged scores, resident lines,
    evicted blocks and LLC counters at full detail on SMALL, and how many
    logged scores fall in the policy's oldest age bucket."""
    digest = hashlib.sha256()
    oldest = 0
    engine = SimulationEngine(config=SMALL_CONFIG)
    for workload in available_workloads():
        result = engine.run(generate_trace(workload, LONG_AGE_ACCESSES),
                            policy_name)
        log = result.log
        digest.update(log.score_values.tobytes())
        digest.update(log.line_pairs.tobytes())
        digest.update(log.evicted_blocks.tobytes())
        digest.update(repr(result.llc_stats.as_tuple()).encode())
        oldest += _oldest_bucket_scores(log, OLDEST_BUCKET_AGE[policy_name])
    return digest.hexdigest()[:16], oldest


@pytest.mark.parametrize("policy_name", sorted(PINNED_LONG_AGE_DIGESTS))
def test_long_age_scores_match_pinned_digests(policy_name):
    digest, oldest = _long_age_digest(policy_name)
    assert oldest > 1000
    assert digest == PINNED_LONG_AGE_DIGESTS[policy_name]
