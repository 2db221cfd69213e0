"""Paths, run bookkeeping and statistics shared by the workload modules."""

from __future__ import annotations

import os
import statistics
import tempfile
import time
from typing import Any, Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench")
#: The CPUs this benchmark may run on, as it started.
CPUS = sorted(os.sched_getaffinity(0))


class BenchError(RuntimeError):
    """A benchmark step could not run (not an oracle mismatch)."""


class Run:
    """One benchmark run: its arguments, scratch directory and the
    attempted/failed operation counts every oracle check feeds."""

    def __init__(self, workload: str, seed: int, seconds: int, trace: bool,
                 tmp: str):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.tmp = tmp
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []
        self.samples: Dict[str, Any] = {}
        self.spans = os.path.join(WORK, "spans", f"{workload}-seed{seed}-"
                                  f"{time.time_ns()}")

    def fresh_dir(self, prefix: str) -> str:
        return tempfile.mkdtemp(prefix=prefix, dir=self.tmp)

    def span_file(self, name: str) -> str:
        """Where a traced process writes its spans (kept after the run)."""
        os.makedirs(self.spans, exist_ok=True)
        return os.path.join(self.spans, name)

    def problem(self, message: str) -> None:
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append(message)

    def score_answers(self, questions, answers) -> float:
        """Oracle-check answers; returns the trace-grounded accuracy."""
        import oracles

        if len(answers) != len(questions):
            self.problem(f"{len(answers)} answers for {len(questions)} "
                         f"questions")
            return 0.0
        correct = graded = 0
        for question, answer in zip(questions, answers):
            self.attempted += 1
            if not question["grounded"]:
                continue
            graded += 1
            ok, failed = oracles.score(question, answer)
            correct += ok
            if failed:
                self.problem(f"grounded answer {answer['value']!r} != "
                             f"oracle {question['expect']!r} for "
                             f"{question['q']!r}")
        return correct / graded


def child_env() -> Dict[str, str]:
    """The environment for every process the benchmark starts: the
    checkout's own ``src`` first on the import path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    return env


def _spin_s() -> float:
    """Seconds a fixed pure-Python loop takes on the current CPU."""
    began = time.perf_counter()
    total = 0
    for index in range(40_000):
        total += index * index % 7
    return time.perf_counter() - began


def pin(pid: int, cpus) -> None:
    """Set the CPU affinity of every thread of process ``pid``; threads it
    starts later inherit it."""
    for tid in os.listdir(f"/proc/{pid}/task"):
        try:
            os.sched_setaffinity(int(tid), cpus)
        except (ProcessLookupError, PermissionError):
            pass


def pin_fastest_cpu() -> Optional[int]:
    """Pin this process to the CPU that runs a fixed loop fastest right now
    and return it; processes started afterwards inherit the pin.  ``None``
    (and no pin) when there is only one CPU.

    On a shared host a CPU can be a hyperthread whose sibling other tenants
    load on and off for seconds at a time: the same loop then runs up to
    1.4x slower on one CPU than on another at the same moment.  Timing on
    the fastest CPU measures the program, not the neighbours."""
    if len(CPUS) < 2:
        return None
    timings = {}
    for cpu in CPUS:
        os.sched_setaffinity(0, {cpu})
        timings[cpu] = min(_spin_s() for _ in range(3))
    fastest = min(timings, key=timings.get)
    os.sched_setaffinity(0, {fastest})
    return fastest


def others(cpu: Optional[int]) -> List[int]:
    """Every CPU but ``cpu`` (all of them when ``cpu`` is None)."""
    return [other for other in CPUS if other != cpu]


def answer_dict(answer) -> Dict[str, Any]:
    """The checked fields of an :class:`repro.Answer`."""
    return {"value": answer.value, "grounded": answer.grounded,
            "rejected": answer.rejected_premise}


def p95(values: List[float]) -> float:
    """Linear-interpolation 95th percentile (``statistics.quantiles``)."""
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=20, method="inclusive")[18]
