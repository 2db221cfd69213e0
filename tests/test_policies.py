"""Policy registry round-trips and score oracles."""

from array import array
from dataclasses import replace

import pytest

from repro.policies.base import (NEVER, PolicyAccess, ReplacementPolicy,
                                 available_policies, get_policy)
from repro.sim.cache import Cache
from repro.sim.config import TINY_CONFIG
from repro.workloads.generator import generate_trace


def test_available_policies_cover_the_paper_set():
    names = available_policies()
    for expected in ("lru", "fifo", "belady", "mlp", "parrot", "mockingjay",
                     "hawkeye", "ship", "srrip", "brrip", "drrip", "dip"):
        assert expected in names


@pytest.mark.parametrize("name", available_policies())
def test_registry_round_trip(name):
    policy = get_policy(name)
    assert isinstance(policy, ReplacementPolicy)
    assert policy.name == name
    assert policy.describe()


def test_unknown_policy_raises():
    with pytest.raises(KeyError):
        get_policy("not-a-policy")


# ----------------------------------------------------------------------
# Score oracles: mlp and parrot bucket each line's age, and their scores
# must match these reference formulas on both sides of every bucket edge.
# ----------------------------------------------------------------------
MLP_EDGES = (16, 128, 1024)
PARROT_EDGES = (32, 256, 2048)


def _bucket(age, edges):
    for bucket, edge in enumerate(edges):
        if age < edge:
            return bucket
    return len(edges)


def _mlp_reference(policy, line, age):
    features = policy._features(line.pc, line.block_address,
                                _bucket(age, MLP_EDGES))
    return -float(policy._predict(features))


def _parrot_reference(policy, line, age):
    return (policy._pc_weight.get(line.pc, 0.0)
            + policy._age_weight[_bucket(age, PARROT_EDGES)])


def _trained_llc(policy_name):
    """A TINY LLC after a short replay, which trains the policy's weights."""
    cache = Cache(TINY_CONFIG.llc, get_policy(policy_name), detail="stats")
    trace = generate_trace("mcf", 1500)
    blocks = [access.address // cache.block_bytes for access in trace]
    next_use, seen = [NEVER] * len(blocks), {}
    for i in reversed(range(len(blocks))):
        next_use[i] = seen.get(blocks[i], NEVER)
        seen[blocks[i]] = i
    for i, access in enumerate(trace):
        cache.access(access.pc, access.address, i, next_use[i])
    return cache


#: Each policy's age-bucket edges and reference score of one line.
SCORE_REFERENCES = {
    "mlp": (MLP_EDGES, _mlp_reference),
    "parrot": (PARROT_EDGES, _parrot_reference),
}


@pytest.mark.parametrize("policy_name", sorted(SCORE_REFERENCES))
def test_eviction_scores_match_reference_at_every_bucket_edge(policy_name):
    edges, reference = SCORE_REFERENCES[policy_name]
    cache = _trained_llc(policy_name)
    policy = cache.policy
    ages = [0] + [age for edge in edges for age in (edge - 1, edge)]
    now = 10 * edges[-1]
    access = PolicyAccess(pc=0, block_address=0, access_index=now)
    expected_scores = []
    for set_index, cache_set in enumerate(cache.sets):
        resident = [line for line in cache_set if line is not None]
        # Every line at every age, several ages in one call.
        for shift in range(len(ages)):
            line_ages = [ages[(way + shift) % len(ages)]
                         for way in range(len(resident))]
            lines = [replace(line, last_access=now - age)
                     for line, age in zip(resident, line_ages)]
            expected = [reference(policy, line, age)
                        for line, age in zip(lines, line_ages)]
            scores = policy.eviction_scores(set_index, lines, access)
            # Compared as logged: a double's bytes tell -0.0 from 0.0.
            assert array("d", scores).tobytes() == array("d", expected).tobytes()
            expected_scores += expected
    # The weights are trained, and each edge changes some line's score, so
    # a moved edge fails.
    resident = [line for cache_set in cache.sets for line in cache_set
                if line is not None]
    for edge in edges:
        assert any(reference(policy, line, edge - 1)
                   != reference(policy, line, edge) for line in resident)
    assert len(set(expected_scores)) > len(ages)


def test_mlp_scores_a_zero_prediction_minus_zero():
    """mlp negates its float prediction, so a zero prediction (an untrained
    line's) logs -0.0, whose bytes differ from 0.0's."""
    cache = Cache(TINY_CONFIG.llc, get_policy("mlp"), detail="stats")
    cache.access(pc=0x400, byte_address=0, access_index=0)
    access = PolicyAccess(pc=0, block_address=0, access_index=1)
    scores = cache.policy.eviction_scores(0, cache.sets[0][:1], access)
    assert array("d", scores).tobytes() == array("d", [-0.0]).tobytes()
