"""CLI subcommands exercised through repro.cli.main."""

import json

import pytest

from repro.cli import build_parser, main
from repro.tracedb.database import DEFAULT_POLICIES, DEFAULT_WORKLOADS

COMMON = ["--workloads", "astar", "--policies", "lru,belady",
          "--accesses", "400", "--config", "tiny"]


def test_simulate_list(capsys):
    assert main(["simulate", "--list"]) == 0
    out = capsys.readouterr().out
    assert "astar" in out and "lru" in out
    assert "sieve" in out and "gpt-4o" in out


def test_simulate_runs(capsys):
    code = main(["simulate", *COMMON, "--workload", "astar",
                 "--policy", "lru"])
    assert code == 0
    out = capsys.readouterr().out
    assert "astar under lru" in out
    assert "miss rate" in out


def test_ask_runs(capsys):
    code = main(["ask", *COMMON, "What is the miss rate of lru on astar?"])
    assert code == 0
    out = capsys.readouterr().out
    assert "Q: What is the miss rate of lru on astar?" in out
    assert "A:" in out
    assert "retriever=sieve" in out


def test_ask_json_prints_full_response(capsys):
    code = main(["ask", *COMMON, "--json",
                 "What is the miss rate of lru on astar?"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["question_type"] == "miss_rate"
    assert payload["route"] == "sieve"
    assert payload["answer"]["grounded"] is True
    assert payload["answer"]["value"] == pytest.approx(payload["answer"]["value"])
    assert set(payload["timings"]) == {"plan", "simulate", "batch_simulate",
                                       "retrieve", "generate", "total"}
    assert payload["batch_unique_jobs"] == 2  # 1 workload x 2 policies


def test_ask_remote_unreachable_fails_cleanly(capsys):
    code = main(["ask", "--remote", "127.0.0.1:1",
                 "What is the miss rate of lru on astar?"])
    assert code == 1
    assert "remote ask failed" in capsys.readouterr().err


def test_experiment_run_default_matrix_and_length(capsys):
    # Omitted --workloads/--policies sweep the default 3 x 4 matrix...
    assert main(["experiment", "run", "--configs", "tiny", "--accesses",
                 "400", "--details", "stats", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    spec = payload["spec"]
    assert (spec["workloads"], spec["policies"]) == (
        list(DEFAULT_WORKLOADS), list(DEFAULT_POLICIES))
    assert spec["num_accesses"] == [400]
    assert len(payload["columns"]["workload"]) == 12
    # ...and an omitted --accesses is the default trace length.
    assert main(["experiment", "run", "--workloads", "astar", "--policies",
                 "lru", "--configs", "tiny", "--details", "stats",
                 "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["spec"]["num_accesses"] == [20000]
    assert payload["columns"]["accesses"] == [20000]


@pytest.mark.parametrize("command", [
    ["serve"], ["store", "save", "--dir", "unused"], ["experiment", "run"]])
@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_jobs_must_be_a_positive_count(command, jobs, capsys):
    # Refused while parsing: nothing runs, nothing serves.
    with pytest.raises(SystemExit) as exit_info:
        build_parser().parse_args([*command, "--jobs", jobs])
    assert exit_info.value.code == 2
    assert "expected a positive integer" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["store", "gc", "--dir", "unused", "--max-records", "-1"],
    ["store", "gc", "--dir", "unused", "--temp-max-age", "-5"],
    ["store", "gc", "--dir", "unused", "--temp-max-age", "nan"],
    ["store", "verify", "--dir", "unused", "--repair",
     "--temp-max-age", "-5"],
    ["serve", "--max-in-flight", "0"],
    ["serve", "--max-in-flight", "-1"]])
def test_store_and_serve_flags_refuse_out_of_range_values(argv, capsys):
    # A negative budget or age would delete records or a concurrent
    # writer's in-flight temp file; a zero cap was silently raised to 1.
    # Refused while parsing: nothing runs, nothing serves.
    with pytest.raises(SystemExit) as exit_info:
        build_parser().parse_args(argv)
    assert exit_info.value.code == 2
    assert "expected a" in capsys.readouterr().err


def test_unknown_workload_fails_cleanly(capsys):
    code = main(["simulate", *COMMON, "--workload", "not-a-workload"])
    assert code == 1
    assert "error" in capsys.readouterr().err


def test_missing_subcommand_exits():
    with pytest.raises(SystemExit):
        main([])
