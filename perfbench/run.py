#!/usr/bin/env python3
"""End-to-end benchmark of the CacheMind reproduction.

    python3 perfbench/run.py --workload ask-cold --seed 1 --seconds 24 --trace 0

Workloads (parameters in ``spec.PARAMS``):

* ``ask-cold``   -- fresh process, session and store; one single-pair
  question, then every trace-grounded follow-up (``cold.py``);
* ``serve-warm`` -- ``python -m repro serve`` on a read-only store filled by
  ``python -m repro store save``, under a closed loop of ``RemoteClient``
  threads (``serving.py``);
* ``grid-sweep`` -- a cold ``ExperimentSpec`` grid into a fresh store, then
  warm re-runs with a fresh ``SimulationCache`` (``cold.py``).

Inputs come from ``--seed`` alone.  Every answer and grid cell is checked
against an independent oracle (``oracles.py``); a defect makes the run exit
1.  With ``--trace 0`` the last line of output is the JSON result with the
end-to-end metrics of ``BENCHMARK.json``; with ``--trace 1`` the rounds
alternate traced and untraced and the result carries the per-layer figures
instead.  Each run also writes a result file (parameters, seed, version,
environment, raw samples) under ``.perfbench/results`` for ``compare.py``.

``--workload all`` runs the three workloads one after another, each in a
process of its own, and prints every end-to-end metric under its
workload-specific name (``cold_ask_s``, ``serve_qps``, ...).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import tempfile
import time
from typing import Any, Dict, List, Optional

from common import ROOT, SRC, WORK, BenchError, Run

WORKLOADS = ("ask-cold", "serve-warm", "grid-sweep")


def git_revision() -> Optional[str]:
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() or None


def environment() -> Dict[str, Any]:
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "platform": platform.platform(), "git_revision": git_revision()}


def write_result(directory: str, record: Dict[str, Any]) -> str:
    os.makedirs(directory, exist_ok=True)
    path = os.path.join(directory, f"{record['workload']}-seed"
                        f"{record['seed']}-trace{int(record['trace'])}-"
                        f"{time.time_ns()}.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=1, sort_keys=True)
    return path


def run_all(args) -> int:
    """Each workload in its own process; one table of every metric under
    its workload-specific name."""
    import spec

    status = 0
    rows: List[str] = []
    for workload in WORKLOADS:
        done = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload",
             workload, "--seed", str(args.seed), "--seconds",
             str(args.seconds), "--results-dir", args.results_dir],
            capture_output=True, text=True)
        status = status or done.returncode
        lines = done.stdout.strip().splitlines()
        if not lines or not lines[-1].startswith("{"):
            rows.append(f"{workload:<11} failed: {done.stderr[-500:]}")
            continue
        result = json.loads(lines[-1])
        for name, metric in result["metrics"].items():
            rows.append(f"{workload:<11} {spec.MEASURES[name][workload][1]:<28}"
                        f" {metric['value']:>12.6g} {metric['unit']}")
        rows.append(f"{workload:<11} {'failed_ratio':<28} "
                    f"{result['failed'] / result['attempted']:>12.6g} ratio")
    print("\n".join(rows))
    return status


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--results-dir",
                        default=os.path.join(WORK, "results"),
                        help="where result files go "
                             "(default: .perfbench/results)")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"error: no program source at {SRC}/repro; run the benchmark "
              f"from a checkout of the repository", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, SRC)
    import cold
    import serving
    import spec

    runners = {"ask-cold": cold.ask_cold, "serve-warm": serving.serve_warm,
               "grid-sweep": cold.grid_sweep}
    contract = spec.load_benchmark(ROOT)
    params = spec.PARAMS[args.workload]
    os.makedirs(WORK, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix="run-", dir=WORK)
    run = Run(args.workload, args.seed, args.seconds, bool(args.trace), tmp)
    try:
        outcome = runners[args.workload](run, params)
    except BenchError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    section = "per_layer" if args.trace else "end_to_end"
    values = outcome["layers"] if args.trace else outcome["metrics"]
    metrics = {item["name"]: {"value": values[item["name"]],
                              "unit": item["unit"]}
               for item in contract[section]}
    record = {"version": spec.VERSION, "workload": args.workload,
              "seed": args.seed, "seconds": args.seconds,
              "trace": bool(args.trace), "params": params,
              "environment": environment(), "attempted": run.attempted,
              "failed": run.failed, "problems": run.problems,
              "metrics": metrics, "samples": run.samples}
    path = write_result(args.results_dir, record)

    print(f"{args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace} -> {os.path.relpath(path, ROOT)}")
    for name, metric in metrics.items():
        label = spec.MEASURES.get(name, {}).get(args.workload, ("", ""))[1]
        print(f"  {name:<30} {metric['value']:>14.6g} {metric['unit']:<6} "
              f"{label}")
    print(f"  {'failed_ratio':<30} "
          f"{run.failed / max(1, run.attempted):>14.6g} ratio  "
          f"({run.failed} of {run.attempted} operations)")
    for problem in run.problems:
        print(f"  FAIL {problem}")
    print(json.dumps({"correct": run.failed == 0,
                      "attempted": run.attempted, "failed": run.failed,
                      "metrics": metrics}))
    return 0 if run.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
