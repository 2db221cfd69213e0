"""End-to-end CacheMind facade: routing, grounding, memoisation, batching."""

import pytest

from repro import CacheMind, ExperimentSpec, TINY_CONFIG
from repro.core.experiment import ExperimentRunner
from repro.core.pipeline import SimulationCache
from repro.retrieval import executor as executor_module
from repro.retrieval.executor import SandboxExecutor
from repro.tracedb.schema import AccessLog
from repro.tracedb.store import TraceStore

from conftest import SESSION_KWARGS


# ----------------------------------------------------------------------
# the flagship acceptance path
# ----------------------------------------------------------------------
def test_ask_miss_rate_returns_grounded_answer(session):
    answer = session.ask("What is the miss rate of lru on astar?")
    assert answer.category == "miss_rate"
    assert answer.retriever == "sieve"
    assert answer.grounded
    assert answer.retrieval_quality == "high"
    assert isinstance(answer.value, float) and 0.0 <= answer.value <= 1.0
    assert "miss rate" in answer.text.lower()
    assert answer.sources == ["astar_evictions_lru"]
    assert answer.backend == "gpt-4o"
    assert answer.evidence


def test_hit_rate_question_reports_hit_rate(session):
    miss = session.ask("What is the miss rate of lru on astar?")
    hit = session.ask("What is the hit rate of lru on astar?")
    assert "hit rate" in hit.text
    # Both answers ground in the same entry; at least the true values are
    # complements (allow for the backend's deliberate corruption on one).
    if miss.grounded and hit.grounded:
        assert abs((miss.value + hit.value) - 1.0) < 1e-9


def test_highest_hit_rate_picks_lowest_miss_rate(fresh_cache):
    from repro.llm.simulated import SimulatedLLM

    class PerfectBackend(SimulatedLLM):
        def check(self, skill, key, quality=1.0):
            return True

    session = CacheMind(simulation_cache=fresh_cache,
                        backend=PerfectBackend("gpt-4o"), **SESSION_KWARGS)
    answer = session.ask("Which policy has the highest hit rate on astar?")
    assert answer.value == "belady"
    assert "hit rate" in answer.text
    # Unmapped superlatives ("best") must also mean the best policy.
    best = session.ask("Which policy has the best hit rate on astar?")
    assert best.value == "belady"
    best_miss = session.ask("Which policy has the best miss rate on astar?")
    assert best_miss.value == "belady"
    worst = session.ask("Which policy has the worst hit rate on astar?")
    assert worst.value == "lru"
    worst_overall = session.ask("Which policy performs worst on astar?")
    assert worst_overall.value == "lru"
    # Hit-count phrasing must rank by hits, not miss rate.
    most_hits = session.ask("Which policy has the most hits on astar?")
    assert most_hits.value == "belady"
    fewest_hits = session.ask("Which policy has the fewest hits on astar?")
    assert fewest_hits.value == "lru"
    most_misses = session.ask("Which policy has the most misses on astar?")
    assert most_misses.value == "lru"


def test_ranger_policy_comparison_direction(session):
    # 'best' must map to the lowest miss rate inside Ranger's generated code.
    intent = session.parser.parse("Which policy is best on astar?")
    ranger = session.retriever("ranger")
    context = ranger.retrieve(intent)
    if "best_policy" in context.facts:
        per_policy = context.facts["per_policy"]
        assert context.facts["best_policy"] == min(per_policy,
                                                   key=per_policy.get)


def test_unknown_policy_question_not_misgrounded(session):
    # 'plru' is a known alias but absent from this session's database; the
    # answer must not confidently report another policy's rate.
    answer = session.ask("What is the miss rate of plru on astar?")
    assert answer.admitted_unknown or not answer.grounded


def test_database_built_once_across_asks(session):
    session.ask("What is the miss rate of lru on astar?")
    first_sim_count = session.simulation_cache.misses
    session.ask("What is the miss rate of belady on astar?")
    session.ask("Which policy has the lowest miss rate on lbm?")
    assert session.database_builds == 1
    # No additional simulations ran for the follow-up questions.
    assert session.simulation_cache.misses == first_sim_count


def test_database_entries_shared_across_sessions(fresh_cache):
    first = CacheMind(simulation_cache=fresh_cache, **SESSION_KWARGS)
    second = CacheMind(simulation_cache=fresh_cache, **SESSION_KWARGS)
    key = "astar_evictions_lru"
    # Derived entries (table + statistics) are memoised, not just the
    # simulation results, so repeat builds are near-free.
    assert first.database.entries[key] is second.database.entries[key]


def test_retriever_alias_reuses_instance(session):
    embedding = session.retriever("embedding")
    assert session.retriever("baseline") is embedding
    assert session.retriever("llamaindex") is embedding


def test_simulation_memoiser_hit_on_second_session(fresh_cache):
    first = CacheMind(simulation_cache=fresh_cache, **SESSION_KWARGS)
    first.ask("What is the miss rate of lru on astar?")
    simulated = fresh_cache.misses
    assert simulated == len(SESSION_KWARGS["workloads"]) * len(
        SESSION_KWARGS["policies"])
    assert fresh_cache.hits == 0

    second = CacheMind(simulation_cache=fresh_cache, **SESSION_KWARGS)
    second.ask("What is the miss rate of belady on lbm?")
    # Every (workload, policy, config) pair was served from the memoiser.
    assert fresh_cache.hits == simulated
    assert fresh_cache.misses == simulated


# ----------------------------------------------------------------------
# one smoke test per routing branch
# ----------------------------------------------------------------------
def test_routing_sieve_branch(session):
    answer = session.ask(
        "Which policy has the lowest miss rate on astar?")
    assert answer.category == "policy_comparison"
    assert answer.retriever == "sieve"
    assert answer.value in SESSION_KWARGS["policies"]
    assert answer.extra["per_policy"]


def test_routing_ranger_branch(session):
    answer = session.ask("How many accesses are there in astar under lru?")
    assert answer.category == "count"
    assert answer.retriever == "ranger"
    assert isinstance(answer.value, int)


def test_routing_ranger_code_generation(session):
    answer = session.ask("Write code to compute the miss rate for lbm.")
    assert answer.category == "code_generation"
    assert answer.retriever == "ranger"
    assert answer.generated_code
    assert "result" in answer.generated_code


def test_routing_embedding_fallback(session):
    answer = session.ask(
        "How does increasing associativity affect conflict misses?")
    assert answer.category == "concept"
    assert answer.retriever == "embedding"
    assert answer.text


def test_embedding_retriever_ties_go_to_the_earliest_chunk(session):
    from repro.retrieval.embedding import EmbeddingRetriever, _Chunk

    text = "TRACE_ID: astar_evictions_lru program_counter=0x401000"
    retriever = EmbeddingRetriever(session.database, top_k=4)
    # Identical-text chunks score identically; filler chunks score lower.
    retriever._chunks = [
        _Chunk(text=text if index % 3 else f"filler {index} lbm mcf",
               trace_key=f"chunk{index}", kind="summary")
        for index in range(60)]
    retriever._matrix = retriever.embedder.embed_batch(
        [chunk.text for chunk in retriever._chunks])
    context = retriever.retrieve(session.parser.parse(text))
    assert context.sources == ["chunk1", "chunk2", "chunk4", "chunk5"]


def test_routing_workload_analysis(session):
    # Also regression-covers parse_metadata_string on sentence-final
    # correlation values ("... is 0.86.") reached via the summaries stage.
    answer = session.ask("Which workload has the highest miss rate under lru?")
    assert answer.category == "workload_analysis"
    assert answer.retriever == "sieve"
    assert len(answer.evidence) == len(set(answer.evidence))


def test_forced_retriever_overrides_routing(session):
    answer = session.ask("What is the miss rate of lru on astar?",
                         retriever="embedding")
    assert answer.retriever == "embedding"


def test_trick_question_premise_violation(session):
    # PC 0xdead00 does not exist in any workload trace.
    answer = session.ask(
        "What is the miss rate for PC 0xdead00 in astar under lru?")
    assert answer.rejected_premise or answer.extra.get("missed_trick")


# ----------------------------------------------------------------------
# batch APIs
# ----------------------------------------------------------------------
def test_ask_many_shares_one_build(session):
    answers = session.ask_many([
        "What is the miss rate of lru on astar?",
        "What is the miss rate of belady on lbm?",
        "How many accesses are there in astar under lru?",
    ])
    assert len(answers) == 3
    assert session.database_builds == 1
    assert [a.question for a in answers] == [a.question for a in session.history[-3:]]


def test_compare_policies(session):
    table = session.compare_policies()
    assert set(table) == set(SESSION_KWARGS["workloads"])
    for row in table.values():
        assert set(row) == set(SESSION_KWARGS["policies"])
        for rate in row.values():
            assert 0.0 <= rate <= 1.0
    assert session.database_builds == 1


def test_best_policy_is_belady_on_astar(session):
    # Belady's OPT cannot lose on misses to LRU.
    name, rate = session.best_policy("astar")
    assert name == "belady"
    assert 0.0 <= rate <= 1.0


def test_compare_policies_rejects_bad_metric(session):
    with pytest.raises(ValueError):
        session.compare_policies(metric="latency")


# ----------------------------------------------------------------------
# construction validation and provenance
# ----------------------------------------------------------------------
def test_empty_construction_rejected():
    with pytest.raises(ValueError):
        CacheMind(workloads=[])
    with pytest.raises(ValueError):
        CacheMind(policies=[])


def test_database_is_lazy(fresh_cache):
    session = CacheMind(simulation_cache=fresh_cache, **SESSION_KWARGS)
    assert session.database_builds == 0
    assert fresh_cache.misses == 0
    assert "not built yet" in session.describe()
    session.ask("What is the miss rate of lru on astar?")
    assert session.database_builds == 1


def test_cache_keys_by_trace_content_not_metadata():
    """A workload name that left the registry may come back as a different
    trace with the same workload, length and seed: sessions over the same
    cache must replay the new content, and identical content is a hit."""
    from repro.workloads.generator import generate_trace, unregister_workload
    from repro.workloads.ingest import register_trace

    first_trace = generate_trace("astar", 300, seed=0)

    def reregister(trace):
        unregister_workload("renamed")
        register_trace(trace, name="renamed")

    def lru_miss_rate(cache):
        return CacheMind(workloads=["renamed"], policies=["lru"],
                         num_accesses=300, config=TINY_CONFIG,
                         simulation_cache=cache).simulate(
                             "renamed", "lru").llc_stats.miss_rate

    cache = SimulationCache()
    try:
        reregister(first_trace)
        first = lru_miss_rate(cache)
        reregister(generate_trace("lbm", 300, seed=0))
        second = lru_miss_rate(cache)
        assert second == lru_miss_rate(SimulationCache())
        reregister(first_trace)
        assert lru_miss_rate(cache) == first
    finally:
        unregister_workload("renamed")
    assert second != first
    assert cache.misses == 2 and cache.hits == 1


def test_simulation_cache_lru_bound():
    from repro.core.plan import PlannedJob

    cache = SimulationCache(max_entries=2)
    for seed in range(4):
        cache.run_jobs([PlannedJob("astar", "lru", 200, seed,
                                   TINY_CONFIG.name, "llc_only")],
                       {TINY_CONFIG.name: TINY_CONFIG})
    # The bound holds: older entries were evicted, not accumulated.
    assert len(cache) <= 2
    assert cache.stats()["traces"] <= 2
    assert cache.stats()["derived_entries"] <= 2
    assert cache.misses == 4


def test_unknown_names_raise_registry_error():
    from repro.errors import UnknownNameError
    from repro.workloads.generator import get_workload

    with pytest.raises(UnknownNameError):
        get_workload("not-a-workload")
    # Still a KeyError subclass for backward compatibility.
    assert issubclass(UnknownNameError, KeyError)


def test_ranger_uses_session_backend(fresh_cache):
    session = CacheMind(simulation_cache=fresh_cache, backend="gpt-3.5-turbo",
                        **SESSION_KWARGS)
    session.ask("How many accesses are there in astar under lru?")
    assert session.retriever("ranger").code_llm is session.backend


def test_custom_backend_factory_without_seed_param(fresh_cache):
    from repro.llm.backend import register_backend
    from repro.llm.simulated import SimulatedLLM

    @register_backend("no-seed-backend")
    def make():
        return SimulatedLLM("gpt-4o")

    # CacheMind always offers seed=/prompting=; the factory must not blow up.
    session = CacheMind(simulation_cache=fresh_cache,
                        backend="no-seed-backend", **SESSION_KWARGS)
    assert session.backend.name == "gpt-4o"


def test_address_scoped_miss_rate_not_given_trace_rate(session):
    # The whole-trace rate must not be confidently attributed to one address.
    answer = session.ask(
        "What is the miss rate of address 0xaff500406999 in astar under lru?")
    assert answer.admitted_unknown or not answer.grounded


def test_general_question_not_marked_grounded(session):
    answer = session.ask("Why do caches use replacement policies?")
    assert answer.category == "general"
    assert not answer.grounded or answer.rejected_premise


def test_memory_threads_across_turns(session):
    session.ask("What is the miss rate of lru on astar?")
    session.ask("And what about belady?")
    assert len(session.memory) >= 2
    assert len(session.history) == 2


# ----------------------------------------------------------------------
# snapshot columns are formatted only when read
# ----------------------------------------------------------------------
@pytest.fixture()
def snapshot_decodes(monkeypatch):
    """Names of the ``AccessLog`` snapshot decoders called, one entry per
    snapshot cell built."""
    calls = []
    for name in ("row_lines", "row_history", "row_scores"):
        def counted(self, i, _decode=getattr(AccessLog, name), _name=name):
            calls.append(_name)
            return _decode(self, i)

        monkeypatch.setattr(AccessLog, name, counted)
    return calls


def test_asks_grids_and_warm_builds_format_no_snapshot_cell(tmp_path,
                                                            snapshot_decodes):
    cold = CacheMind(simulation_cache=SimulationCache(
        store=TraceStore(str(tmp_path))), **SESSION_KWARGS)
    assert cold.ask("What is the miss rate of lru on astar?").retriever == "sieve"
    assert snapshot_decodes == []

    ExperimentRunner(simulation_cache=SimulationCache()).run(ExperimentSpec(
        workloads=["astar", "lbm"], policies=["lru", "belady"],
        configs=[TINY_CONFIG], num_accesses=400, details=["full"]))
    assert snapshot_decodes == []

    warm_cache = SimulationCache(store=TraceStore(str(tmp_path)))
    warm = CacheMind(simulation_cache=warm_cache, **SESSION_KWARGS)
    table = warm.database.get("astar", "lru").data_frame
    assert warm_cache.misses == 0
    assert snapshot_decodes == []

    pc = table.sequence("program_counter")[0]
    count = warm.ask(f"How many times does PC {pc} access memory in astar "
                     f"under lru?")
    assert count.retriever == "ranger" and count.category == "count"
    assert snapshot_decodes == []

    # Positive control: reading one row builds that row's cells only.
    table.row(0)
    assert sorted(snapshot_decodes) == ["row_history", "row_lines", "row_scores"]


def test_first_ranger_question_builds_one_table(fresh_cache, monkeypatch):
    session = CacheMind(simulation_cache=fresh_cache, **SESSION_KWARGS)
    assert len(session.database) == 4
    built = []
    to_table = AccessLog.to_table
    monkeypatch.setattr(AccessLog, "to_table",
                        lambda log: built.append(log) or to_table(log))
    answer = session.ask("How many accesses are there in astar under lru?")
    assert answer.retriever == "ranger"
    assert built == [session.database.get("astar", "lru").result.log]


def test_sandbox_compiles_a_code_text_once_and_validates_every_call(
        monkeypatch):
    compiled = []
    monkeypatch.setattr(executor_module, "compile",
                        lambda *args: compiled.append(args[0]) or compile(*args),
                        raising=False)
    sandbox = SandboxExecutor({"astar_evictions_lru": {}})
    code = "result = 'tables: %d' % len(loaded_data)  # compiled once"
    assert [sandbox.execute(code).result for _ in range(2)] == ["tables: 1"] * 2
    assert compiled == [code]
    # A refused text is refused on every call, never compiled.
    for _ in range(2):
        refused = sandbox.execute("import os\nresult = 'never run'")
        assert not refused.success and "forbidden" in refused.error
    assert compiled == [code]
