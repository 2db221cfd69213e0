"""The request/plan/execute API: planning, batch dedup, serialization."""

import json

import pytest

from repro import CacheMind
from repro.core.answer import Answer, AskResponse
from repro.core.pipeline import SimulationCache
from repro.core.plan import (
    AskRequest,
    PlannedJob,
    QueryPlan,
    as_request,
    merge_jobs,
)
from repro.errors import UnknownNameError

from conftest import SESSION_KWARGS


# ----------------------------------------------------------------------
# planning is a pure description
# ----------------------------------------------------------------------
def test_plan_runs_nothing(session, fresh_cache):
    plan = session.plan("What is the miss rate of lru on astar?")
    assert session.database_builds == 0
    assert fresh_cache.stats()["misses"] == 0
    assert plan.route == "sieve"
    assert plan.intent.question_type == "miss_rate"
    assert plan.question == "What is the miss rate of lru on astar?"


def test_plan_names_the_session_matrix(session):
    plan = session.plan("Which policy has the lowest miss rate on astar?")
    expected_pairs = {(workload, policy)
                      for workload in SESSION_KWARGS["workloads"]
                      for policy in SESSION_KWARGS["policies"]}
    assert {(job.workload, job.policy) for job in plan.jobs} == expected_pairs
    for job in plan.jobs:
        assert job.num_accesses == SESSION_KWARGS["num_accesses"]
        assert job.seed == SESSION_KWARGS["seed"]
        assert job.config_name == SESSION_KWARGS["config"].name
        assert job.detail == "full"


def test_plan_routes_match_intent_routing(session):
    for question, route in [
        ("What is the miss rate of lru on astar?", "sieve"),
        ("How many accesses are there in astar under lru?", "ranger"),
        ("Why do caches use replacement policies?", "embedding"),
    ]:
        assert session.plan(question).route == route


def test_plan_resolves_retriever_aliases(session):
    plan = session.plan(AskRequest(
        question="What is the miss rate of lru on astar?",
        retriever="baseline"))
    assert plan.route == "embedding"


def test_plan_rejects_unknown_retriever(session):
    with pytest.raises(UnknownNameError):
        session.plan(AskRequest(question="anything", retriever=""))


def test_plan_describe_and_dict(session):
    plan = session.plan("What is the miss rate of lru on astar?")
    assert "sieve" in plan.describe()
    payload = plan.to_dict()
    assert payload["route"] == "sieve"
    assert payload["question_type"] == "miss_rate"
    assert len(payload["jobs"]) == len(plan.jobs)
    json.dumps(payload)  # wire-clean


# ----------------------------------------------------------------------
# batch merging / simulation dedup (the batching contract)
# ----------------------------------------------------------------------
def test_merge_jobs_dedupes_across_plans(session):
    plans = [session.plan(question) for question in [
        "What is the miss rate of lru on astar?",
        "What is the miss rate of belady on astar?",
        "What is the miss rate of lru on lbm?",
    ]]
    merged = merge_jobs(plans)
    matrix = len(SESSION_KWARGS["workloads"]) * len(SESSION_KWARGS["policies"])
    assert len(merged) == matrix
    assert sum(len(plan.jobs) for plan in plans) == 3 * matrix


def test_ask_many_duplicate_questions_simulate_once():
    # N questions over the same (workload, policy) pair must run exactly ONE
    # simulation: the planner merges the batch's duplicate jobs.
    cache = SimulationCache()
    session = CacheMind(workloads=["astar"], policies=["lru"],
                        num_accesses=SESSION_KWARGS["num_accesses"],
                        config=SESSION_KWARGS["config"],
                        simulation_cache=cache)
    questions = ["What is the miss rate of lru on astar?"] * 5
    answers = session.ask_many(questions)
    assert len(answers) == 5
    stats = cache.stats()
    assert stats["misses"] == 1          # exactly one simulation ran
    assert session.database_builds == 1
    # Planner probe: the merged batch named exactly one unique job.
    assert session.planner.last_merged_job_count == 1


def test_ask_response_carries_batch_dedup_counts(session):
    questions = ["What is the miss rate of lru on astar?",
                 "What is the miss rate of belady on lbm?"]
    responses = session.ask_request_many(questions)
    matrix = len(SESSION_KWARGS["workloads"]) * len(SESSION_KWARGS["policies"])
    for response in responses:
        assert response.planned_jobs == matrix
        assert response.batch_unique_jobs == matrix
        # Two plans x matrix jobs, merged down to one matrix.
        assert response.batch_duplicate_jobs == matrix
        assert response.simulations_run == matrix  # cold cache: all ran
        # The shared simulation pass is amortised per request.
        assert (response.timings["simulate"] * len(responses)
                == pytest.approx(response.timings["batch_simulate"]))
    # A follow-up batch is fully warm.
    warm = session.ask_request_many(questions)
    assert all(response.simulations_run == 0 for response in warm)


def test_simulations_run_ignores_concurrent_cache_traffic(fresh_cache):
    """``simulations_run`` counts this batch's simulations only: a foreign
    simulation on the shared cache mid-ask (the serving layer runs grids
    outside its lock) must not leak into the reply."""
    session = CacheMind(workloads=["astar"], policies=["lru", "belady"],
                        num_accesses=SESSION_KWARGS["num_accesses"],
                        config=SESSION_KWARGS["config"],
                        simulation_cache=fresh_cache)
    foreign_session = CacheMind(workloads=["mcf"], policies=["lru"],
                                num_accesses=300,
                                config=SESSION_KWARGS["config"],
                                simulation_cache=fresh_cache)
    get_trace = fresh_cache.get_trace
    foreign = []

    def get_trace_with_foreign_traffic(*args):
        if not foreign:
            # Marked first: the foreign simulation fetches its trace here.
            foreign.append("mcf")
            foreign_session.simulate("mcf", "lru")
        return get_trace(*args)

    fresh_cache.get_trace = get_trace_with_foreign_traffic
    response = session.ask_request("What is the miss rate of lru on astar?")
    assert len(foreign) == 1
    assert fresh_cache.stats()["misses"] == 3
    assert response.simulations_run == 2


def test_ask_request_response_envelope(session):
    response = session.ask_request("What is the miss rate of lru on astar?")
    assert isinstance(response, AskResponse)
    assert response.route == "sieve"
    assert response.question_type == "miss_rate"
    assert "type=miss_rate" in response.intent
    assert set(response.timings) == {"plan", "simulate", "batch_simulate",
                                     "retrieve", "generate", "total"}
    assert all(value >= 0.0 for value in response.timings.values())
    assert response.answer.grounded


def test_legacy_ask_and_ask_request_agree(fresh_cache):
    question = "Which policy has the lowest miss rate on astar?"
    legacy = CacheMind(simulation_cache=SimulationCache(), **SESSION_KWARGS)
    planned = CacheMind(simulation_cache=fresh_cache, **SESSION_KWARGS)
    assert (legacy.ask(question).to_dict()
            == planned.ask_request(question).answer.to_dict())


def test_execute_rejects_foreign_config_jobs(session):
    foreign = PlannedJob(workload="astar", policy="lru",
                         num_accesses=SESSION_KWARGS["num_accesses"],
                         seed=0, config_name="paper", mode="llc_only")
    with pytest.raises(ValueError):
        session._execute_planned_jobs([foreign])
    # The database needs entries: a stats-detail job is refused too rather
    # than silently running at full detail.
    stats_job = PlannedJob(workload="astar", policy="lru",
                           num_accesses=SESSION_KWARGS["num_accesses"],
                           seed=0, config_name=SESSION_KWARGS["config"].name,
                           mode="llc_only", detail="stats")
    with pytest.raises(ValueError):
        session._execute_planned_jobs([stats_job])
    # The same validation fires through execute() even once the database
    # is warm — a hand-built plan's jobs are never silently skipped.
    session.ask("What is the miss rate of lru on astar?")
    plan = session.plan("What is the miss rate of lru on astar?")
    plan.jobs = (foreign,)
    with pytest.raises(ValueError):
        session.execute(plan)


def test_execute_honours_hand_built_jobs_on_warm_session(session, fresh_cache):
    # Once the database exists, a plan naming a not-yet-simulated job
    # (different seed) must still run it, not silently reuse the database.
    session.ask("What is the miss rate of lru on astar?")
    misses_before = fresh_cache.stats()["misses"]
    plan = session.plan("What is the miss rate of lru on astar?")
    plan.jobs = (PlannedJob(workload="astar", policy="lru",
                            num_accesses=SESSION_KWARGS["num_accesses"],
                            seed=7, config_name=SESSION_KWARGS["config"].name,
                            mode="llc_only"),)
    session.execute(plan)
    assert fresh_cache.stats()["misses"] == misses_before + 1


# ----------------------------------------------------------------------
# wire serialization round-trips
# ----------------------------------------------------------------------
def test_ask_request_roundtrip():
    request = AskRequest(question="What is the miss rate of lru on astar?",
                         retriever="sieve", request_id="req-9")
    rebuilt = AskRequest.from_dict(json.loads(json.dumps(request.to_dict())))
    assert rebuilt == request


def test_ask_request_with_instance_refuses_serialization(session):
    instance = session.retriever("embedding")
    with pytest.raises(ValueError):
        AskRequest(question="q", retriever=instance).to_dict()


def test_planned_job_roundtrip():
    job = PlannedJob(workload="astar", policy="lru", num_accesses=500,
                     seed=3, config_name="tiny", mode="llc_only",
                     detail="stats")
    rebuilt = PlannedJob.from_dict(json.loads(json.dumps(job.to_dict())))
    assert rebuilt == job and rebuilt.key == job.key


def test_as_request_coercion():
    assert as_request("q").question == "q"
    request = AskRequest(question="q", retriever="sieve")
    # A ready-made request passes through; the extra retriever is ignored.
    assert as_request(request, retriever="ranger") is request


def test_answer_roundtrip_preserves_every_field(session):
    # Cover grounded, hallucination-prone, premise-rejection and code paths.
    questions = [
        "What is the miss rate of lru on astar?",
        "What is the miss rate for PC 0xdead00 in astar under lru?",
        "Write code to compute the miss rate for lbm.",
        "Which policy has the lowest miss rate on astar?",
        "Why do caches use replacement policies?",
    ]
    for answer in session.ask_many(questions):
        payload = json.loads(json.dumps(answer.to_dict()))
        rebuilt = Answer.from_dict(payload)
        assert rebuilt == answer
        assert rebuilt.grounded == answer.grounded
        assert rebuilt.rejected_premise == answer.rejected_premise
        assert rebuilt.admitted_unknown == answer.admitted_unknown
        assert rebuilt.extra == answer.extra


def test_ask_response_roundtrip_is_byte_identical(session):
    response = session.ask_request("What is the miss rate of lru on astar?")
    wire = json.dumps(response.to_dict(), sort_keys=True)
    rebuilt = AskResponse.from_dict(json.loads(wire))
    assert rebuilt == response
    assert json.dumps(rebuilt.to_dict(), sort_keys=True) == wire


def test_answer_from_dict_ignores_unknown_keys():
    payload = Answer(question="q", text="a").to_dict()
    payload["added_in_a_future_version"] = 1
    assert Answer.from_dict(payload).question == "q"
