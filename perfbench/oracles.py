"""Independent oracles and the seeded question sets checked against them.

Every expected value here is recomputed from a direct
``SimulationEngine.run`` on the trace the workload generator produces for
the run's seed -- never from the memoiser, the store, the planner or a
retriever -- so an answer that disagrees with the oracle while claiming to
be grounded is a real defect, not a benchmark artefact.

Questions are made from the seed too: which PCs, addresses and pairs are
asked about is drawn with ``random.Random(seed)`` from the oracle logs, so
the same seed always asks the same questions.
"""

from __future__ import annotations

import random
from typing import Any, Dict, List, Tuple

from repro.sim.engine import SimulationEngine
from repro.workloads.generator import get_workload

Pair = Tuple[str, str]

#: Phrasings of a whole-trace policy comparison, each with whether it asks
#: for the policy with the lowest miss rate.
COMPARISONS = (
    ("Which policy has the lowest miss rate on {}?", True),
    ("Which policy has the highest miss rate on {}?", False),
    ("Which policy has the highest hit rate on {}?", True),
    ("Which policy has the lowest hit rate on {}?", False),
    ("Which policy performs best on {}?", True),
    ("Which policy performs worst on {}?", False),
    ("Which replacement policy has the lowest miss rate on {}?", True),
    ("Which replacement policy has the highest miss rate on {}?", False),
)


def fmt(value: int) -> str:
    """Hex rendering shared by PCs and block addresses (``0x401e31``)."""
    return f"0x{value:x}"


def summarise(log) -> Dict[str, Any]:
    """The per-access facts the questions need, from one full-detail log."""
    pc_count: Dict[int, int] = {}
    pc_reuse: Dict[int, List[int]] = {}
    pairs: Dict[Tuple[int, int], List[int]] = {}
    misses = 0
    for pc, block, hit, reuse in zip(log.pcs, log.block_addresses,
                                     log.hit_flags, log.accessed_reuse):
        misses += 0 if hit else 1
        pc_count[pc] = pc_count.get(pc, 0) + 1
        if reuse >= 0:
            pc_reuse.setdefault(pc, []).append(reuse)
        tally = pairs.setdefault((pc, block), [0, 0])
        tally[0] += 1 if hit else 0
        tally[1] += 1
    return {"total": len(log), "misses": misses, "pc_count": pc_count,
            "pc_reuse": pc_reuse, "pairs": pairs}


def matrix_oracle(workloads, policies, num_accesses: int, seed: int,
                  config) -> Dict[Pair, Dict[str, Any]]:
    """Summaries of a direct full-detail replay of every (workload, policy)."""
    oracle = {}
    for workload in workloads:
        trace = get_workload(workload, seed=seed).generate(num_accesses)
        for policy in policies:
            result = SimulationEngine(config=config, mode="llc_only").run(
                trace, policy)
            oracle[(workload, policy)] = summarise(result.log)
    return oracle


def grid_oracle(workloads, policies, configs, num_accesses: int,
                seed: int) -> Dict[Tuple[str, str, str], Dict[str, Any]]:
    """``(workload, policy, config) -> {miss_rate, hits, misses}`` from a
    direct stats-detail replay of every unique grid cell."""
    oracle = {}
    for workload in dict.fromkeys(workloads):
        trace = get_workload(workload, seed=seed).generate(num_accesses)
        for config in configs:
            engine = SimulationEngine(config=config, mode="llc_only",
                                      detail="stats")
            for policy in policies:
                stats = engine.run(trace, policy).llc_stats
                oracle[(workload, policy, config.name)] = {
                    "miss_rate": stats.miss_rate, "hits": stats.hits,
                    "misses": stats.misses}
    return oracle


# ----------------------------------------------------------------------
# questions
# ----------------------------------------------------------------------
def _question(text: str, kind: str, expect: Any = None,
              grounded: bool = True) -> Dict[str, Any]:
    """``expect`` is a list of acceptable values (ties allow several);
    ``grounded`` marks trace-grounded questions scored for accuracy."""
    return {"q": text, "kind": kind, "expect": expect, "grounded": grounded}


def _miss_rate(summary) -> float:
    return summary["misses"] / summary["total"]


def _ranked(oracle, workload: str, policies, lowest: bool) -> List[str]:
    rates = {policy: _miss_rate(oracle[(workload, policy)])
             for policy in policies}
    target = (min if lowest else max)(rates.values())
    return [policy for policy, rate in rates.items() if rate == target]


def _busy_pcs(summary, rng: random.Random, count: int) -> List[int]:
    pcs = sorted(pc for pc, n in summary["pc_count"].items() if n >= 4)
    return rng.sample(pcs, min(count, len(pcs)))


def _hit_miss_pair(summary, stratum: int, strata: int) -> Tuple[int, int]:
    """The (pc, block) pair in the middle of stratum ``stratum`` of
    ``strata`` equal strata of PC popularity.  The cost of a lookup grows
    with its PC's access count, so fixed popularity quantiles keep the
    latency mix alike across seeds."""
    keys = sorted((summary["pc_count"][key[0]], key)
                  for key, (_hits, total) in summary["pairs"].items()
                  if total >= 2)
    return keys[len(keys) * (2 * stratum + 1) // (2 * strata)][1]


def miss_rate_q(oracle, workload: str, policy: str, hit: bool = False):
    rate = _miss_rate(oracle[(workload, policy)])
    metric = "hit rate" if hit else "miss rate"
    return _question(f"What is the {metric} of {policy} on {workload}?",
                     "miss_rate", [1.0 - rate if hit else rate])


def comparison_q(oracle, workload: str, policies, template: str,
                 lowest_miss: bool):
    return _question(template.format(workload), "policy_comparison",
                     _ranked(oracle, workload, policies, lowest_miss))


def count_q(oracle, workload: str, policy: str, pc: int):
    count = oracle[(workload, policy)]["pc_count"][pc]
    return _question(f"How many times does PC {fmt(pc)} access memory in "
                     f"{workload} under {policy}?", "count", [count])


def hit_miss_q(oracle, workload: str, policy: str, pc: int, block: int):
    hits, total = oracle[(workload, policy)]["pairs"][(pc, block)]
    label = "Cache Hit" if hits * 2 > total else "Cache Miss"
    return _question(f"Does the access by PC {fmt(pc)} to address "
                     f"{fmt(block)} in {workload} under {policy} result in a "
                     f"cache hit or miss?", "hit_miss", [label])


def grounded_questions(oracle, workloads, policies,
                       seed: int) -> List[Dict[str, Any]]:
    """The cold single-pair question, then the trace-grounded follow-ups.

    The follow-up mix is an assumption, not a measured share of real
    traffic: every grounded kind is asked equally often.  Each (workload,
    policy) pair gets its miss and hit rate (the cold question is
    astar/lru's miss rate), two counts and two hit/miss lookups, and each
    workload gets every comparison phrasing: on the 3 x 4 benchmark
    matrix, 24 questions of each kind.  The simulated model gets each
    question right or wrong by a seeded draw, so accuracy is a sample
    mean and its seed-to-seed spread shrinks as questions are added.
    """
    rng = random.Random(seed)
    pairs = [(workload, policy) for workload in workloads
             for policy in policies]
    questions = [miss_rate_q(oracle, "astar", "lru")]
    for workload, policy in pairs:
        if (workload, policy) != ("astar", "lru"):
            questions.append(miss_rate_q(oracle, workload, policy))
        questions.append(miss_rate_q(oracle, workload, policy, hit=True))
    questions += [comparison_q(oracle, workload, policies, template, lowest)
                  for workload in workloads
                  for template, lowest in COMPARISONS]
    for workload, policy in pairs:
        for pc in _busy_pcs(oracle[(workload, policy)], rng, 2):
            questions.append(count_q(oracle, workload, policy, pc))
    strata = 2 * len(pairs)
    for index, (workload, policy) in enumerate(pairs):
        for part in range(2):
            pc, block = _hit_miss_pair(oracle[(workload, policy)],
                                       2 * index + part, strata)
            questions.append(hit_miss_q(oracle, workload, policy, pc,
                                        block))
    return questions


def _absent_pc(oracle, rng: random.Random) -> int:
    present = set()
    for summary in oracle.values():
        present.update(summary["pc_count"])
    while True:
        pc = rng.randrange(0x500000, 0x5fffff)
        if pc not in present:
            return pc


def serve_questions(oracle, workloads, policies, seed: int,
                    per_kind: int = 4) -> Dict[str, List[Dict[str, Any]]]:
    """Questions by kind: the 13 parsed intents plus trick questions.

    The trace-grounded kinds reuse ``grounded_questions``; the others get
    ``per_kind`` seeded questions each."""
    rng = random.Random(seed)
    by_kind: Dict[str, List[Dict[str, Any]]] = {}
    for question in grounded_questions(oracle, workloads, policies, seed):
        by_kind.setdefault(question["kind"], []).append(question)

    def pick_pair() -> Pair:
        return rng.choice(workloads), rng.choice(policies)

    def pick_pc(pair: Pair) -> int:
        return _busy_pcs(oracle[pair], rng, 1)[0]

    def arithmetic() -> Dict[str, Any]:
        pair = pick_pair()
        reuse = oracle[pair]["pc_reuse"]
        pc = rng.choice(sorted(reuse))
        values = reuse[pc]
        return _question(f"What is the average reuse distance for PC "
                         f"{fmt(pc)} in {pair[0]} under {pair[1]}?",
                         "arithmetic", [sum(values) / len(values)])

    def trick() -> Dict[str, Any]:
        workload, policy = pick_pair()
        return _question(f"Does the access by PC {fmt(_absent_pc(oracle, rng))}"
                         f" to address 0x1000 in {workload} under {policy} "
                         f"result in a cache hit or miss?", "trick", None)

    def ungrounded(kind: str, text: str) -> Dict[str, Any]:
        return _question(text, kind, grounded=False)

    def policy_analysis() -> Dict[str, Any]:
        workload = rng.choice(workloads)
        first, second = rng.sample(list(policies), 2)
        return ungrounded("policy_analysis",
                          f"Why does {first} outperform {second} on PC "
                          f"{fmt(pick_pc((workload, first)))} in {workload}?")

    def semantic_analysis() -> Dict[str, Any]:
        pair = pick_pair()
        return ungrounded("semantic_analysis",
                          f"Why does PC {fmt(pick_pc(pair))} miss so often in "
                          f"{pair[0]}? Examine the assembly.")

    concepts = ["What is a cache set index?",
                "What is a tag in a set-associative cache?",
                "What is a replacement policy?",
                "What is a cache block offset?"]
    generals = ["Tell me something about this trace collection.",
                "Summarise what you can do.",
                "Give me a short overview of the simulator.",
                "Hello there."]
    makers = {
        "arithmetic": arithmetic,
        "trick": trick,
        "concept": lambda: ungrounded("concept", rng.choice(concepts)),
        "code_generation": lambda: ungrounded(
            "code_generation", "Write code to compute the miss rate of "
            "{1} on {0}.".format(*pick_pair())),
        "policy_analysis": policy_analysis,
        "workload_analysis": lambda: ungrounded(
            "workload_analysis", f"Which workload has the highest miss rate "
            f"under {rng.choice(policies)}?"),
        "semantic_analysis": semantic_analysis,
        "pc_list": lambda: ungrounded(
            "pc_list", "List all unique PCs in {0} under {1}.".format(
                *pick_pair())),
        "set_analysis": lambda: ungrounded(
            "set_analysis", "Which cache sets are hot and cold in {0} under "
            "{1}?".format(*pick_pair())),
        "general": lambda: ungrounded("general", rng.choice(generals)),
    }
    for kind, maker in makers.items():
        by_kind[kind] = [maker() for _ in range(per_kind)]
    return by_kind


def score(question: Dict[str, Any], answer: Dict[str, Any]) -> Tuple[bool, bool]:
    """``(correct, failed)`` for one answer to a trace-grounded question.

    Wrong answers the simulated model marks ``grounded=False`` are the
    accuracy being measured; a wrong answer that claims to be grounded is a
    defect and fails the run.
    """
    if question["kind"] == "trick":
        correct = bool(answer["rejected"])
    else:
        correct = answer["value"] in question["expect"]
    return correct, bool(answer["grounded"]) and not correct
