"""Deterministic fault injection for chaos testing.

The production code is instrumented with named *fault points* — calls to
:func:`fault_point` at I/O and concurrency seams (store reads/writes, pool
workers, client sockets, the answer backend).  When no plan is active the
hook is a single integer check, so the instrumentation is free in normal
operation.

Tests build a seeded :class:`FaultPlan` out of :class:`FaultRule`s and
activate it for a thread, for the whole process, or — via an environment
variable — for child processes spawned by a pool.
The same seed always produces the same injected failures, so chaos tests
are reproducible and their byte-identity assertions are meaningful.
"""

from __future__ import annotations

import errno as _errno
import json
import multiprocessing
import os
import random
import threading
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

__all__ = [
    "FAULT_POINTS",
    "FAULT_ACTIONS",
    "FAULT_ERRORS",
    "ENV_PLAN_VAR",
    "InjectedFault",
    "FaultRule",
    "FaultPlan",
    "fault_point",
    "active_plan",
    "ensure_env_plan",
]

#: Every fault point wired into production code.  Plans may only reference
#: these names so a typo in a chaos test fails loudly instead of silently
#: never firing.
FAULT_POINTS: Tuple[str, ...] = (
    "store.read",
    "store.write",
    "worker.simulate",
    "socket.recv",
    "socket.send",
    "backend.generate",
)

FAULT_ACTIONS: Tuple[str, ...] = ("raise", "truncate", "corrupt", "exit")
FAULT_ERRORS: Tuple[str, ...] = ("injected", "os", "connection", "timeout")
FAULT_SCOPES: Tuple[str, ...] = ("any", "worker")

#: Environment variable holding a JSON-encoded plan for child processes.
ENV_PLAN_VAR = "REPRO_FAULT_PLAN"

#: Exit status used by ``action="exit"`` so a chaos-killed worker is
#: distinguishable from a normal crash in pool diagnostics.
EXIT_STATUS = 37


class InjectedFault(RuntimeError):
    """Raised by a fault point when a plan rule with ``error="injected"`` fires.

    Production code treats this like any other infrastructure failure; it is
    a distinct type only so tests can tell injected failures from real bugs.
    """


def _make_error(kind: str, message: str) -> BaseException:
    if kind == "os":
        return OSError(_errno.EIO, message)
    if kind == "connection":
        return ConnectionResetError(_errno.ECONNRESET, message)
    if kind == "timeout":
        return TimeoutError(message)
    return InjectedFault(message)


def _in_worker_process() -> bool:
    """True when running in a process spawned/forked from another python
    process (e.g. a ``ProcessPoolExecutor`` worker)."""
    return multiprocessing.parent_process() is not None


@dataclass
class FaultRule:
    """One trigger: *when* a named fault point fires and *what* it does.

    Exactly one of ``nth`` (1-based call index at that point) or
    ``probability`` (per-call chance drawn from the plan's seeded RNG) must
    be set.  ``times`` caps how often the rule fires (``None`` = unlimited).
    ``scope="worker"`` restricts the rule to pool worker processes so an
    env-activated crash plan cannot kill the parent's serial fallback.
    """

    point: str
    action: str = "raise"
    error: str = "injected"
    nth: Optional[int] = None
    probability: Optional[float] = None
    times: Optional[int] = 1
    scope: str = "any"
    message: str = ""

    def __post_init__(self) -> None:
        if self.point not in FAULT_POINTS:
            raise ValueError(
                f"unknown fault point {self.point!r}; expected one of {FAULT_POINTS}")
        if self.action not in FAULT_ACTIONS:
            raise ValueError(
                f"unknown fault action {self.action!r}; expected one of {FAULT_ACTIONS}")
        if self.error not in FAULT_ERRORS:
            raise ValueError(
                f"unknown fault error kind {self.error!r}; expected one of {FAULT_ERRORS}")
        if self.scope not in FAULT_SCOPES:
            raise ValueError(
                f"unknown fault scope {self.scope!r}; expected one of {FAULT_SCOPES}")
        if (self.nth is None) == (self.probability is None):
            raise ValueError("exactly one of nth/probability must be set")
        if self.nth is not None and self.nth < 1:
            raise ValueError("nth is 1-based and must be >= 1")
        if self.probability is not None and not 0.0 < self.probability <= 1.0:
            raise ValueError("probability must be in (0, 1]")
        if self.times is not None and self.times < 1:
            raise ValueError("times must be >= 1 (or None for unlimited)")

    def to_dict(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {"point": self.point, "action": self.action}
        if self.error != "injected":
            out["error"] = self.error
        if self.nth is not None:
            out["nth"] = self.nth
        if self.probability is not None:
            out["probability"] = self.probability
        if self.times != 1:
            out["times"] = self.times
        if self.scope != "any":
            out["scope"] = self.scope
        if self.message:
            out["message"] = self.message
        return out

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "FaultRule":
        if not isinstance(data, dict):
            raise ValueError(f"fault rule must be a dict, got {type(data).__name__}")
        known = {"point", "action", "error", "nth", "probability", "times",
                 "scope", "message"}
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"unknown fault rule fields: {sorted(unknown)}")
        return cls(**data)


class FaultPlan:
    """A seeded, serialisable set of :class:`FaultRule`s.

    The plan owns one :class:`random.Random` per probabilistic rule, seeded
    from ``(seed, rule index)``, so the sequence of injected failures is a
    pure function of the plan — activating the same plan twice injects the
    same faults at the same calls.
    """

    def __init__(self, rules: Sequence[FaultRule] = (), seed: int = 0) -> None:
        self.seed = int(seed)
        self.rules: List[FaultRule] = list(rules)
        self._lock = threading.Lock()
        self.calls: Dict[str, int] = {}
        self.fired: Dict[str, int] = {}
        self._rule_fired: List[int] = [0] * len(self.rules)
        self._rngs: List[random.Random] = [
            random.Random(f"{self.seed}/{index}") for index in range(len(self.rules))
        ]

    # ------------------------------------------------------------------
    # serialisation
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        return {"seed": self.seed, "rules": [rule.to_dict() for rule in self.rules]}

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "FaultPlan":
        if not isinstance(data, dict):
            raise ValueError(f"fault plan must be a dict, got {type(data).__name__}")
        rules = [FaultRule.from_dict(entry) for entry in data.get("rules", [])]
        return cls(rules, seed=data.get("seed", 0))

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        return cls.from_dict(json.loads(text))

    # ------------------------------------------------------------------
    # firing
    # ------------------------------------------------------------------
    @property
    def triggered(self) -> int:
        """Total number of faults this plan has injected so far."""
        with self._lock:
            return sum(self._rule_fired)

    def stats(self) -> Dict[str, Any]:
        with self._lock:
            return {
                "calls": dict(self.calls),
                "fired": dict(self.fired),
                "per_rule": list(self._rule_fired),
            }

    def fire(self, name: str, payload: Any = None) -> Any:
        """Record one call at fault point ``name`` and apply the first
        matching rule, if any.  Returns ``payload`` (possibly mangled)."""
        rule: Optional[FaultRule] = None
        with self._lock:
            count = self.calls.get(name, 0) + 1
            self.calls[name] = count
            for index, candidate in enumerate(self.rules):
                if candidate.point != name:
                    continue
                if candidate.scope == "worker" and not _in_worker_process():
                    continue
                if (candidate.times is not None
                        and self._rule_fired[index] >= candidate.times):
                    continue
                if candidate.nth is not None:
                    hit = count == candidate.nth
                else:
                    hit = self._rngs[index].random() < candidate.probability
                if not hit:
                    continue
                self._rule_fired[index] += 1
                label = f"{name}:{candidate.action}"
                self.fired[label] = self.fired.get(label, 0) + 1
                rule = candidate
                break
        if rule is None:
            return payload
        return self._apply(rule, name, payload)

    def _apply(self, rule: FaultRule, name: str, payload: Any) -> Any:
        message = rule.message or f"injected fault at {name}"
        if rule.action == "raise":
            raise _make_error(rule.error, message)
        if rule.action == "exit":
            os._exit(EXIT_STATUS)
        if not isinstance(payload, (bytes, bytearray)):
            raise ValueError(
                f"fault action {rule.action!r} needs a bytes payload at {name}, "
                f"got {type(payload).__name__}")
        data = bytes(payload)
        if rule.action == "truncate":
            return data[: len(data) // 2]
        # corrupt: flip every bit of the middle byte
        if not data:
            return data
        middle = len(data) // 2
        return data[:middle] + bytes([data[middle] ^ 0xFF]) + data[middle + 1:]


# ----------------------------------------------------------------------
# activation
# ----------------------------------------------------------------------

_TLS = threading.local()
_PROCESS_PLAN: Optional[FaultPlan] = None
#: Number of active plan installations in this process.  ``fault_point``
#: returns immediately while this is zero, keeping the hook free when no
#: chaos test is running.
_ACTIVE_COUNT = 0
_ACTIVATION_LOCK = threading.Lock()
#: pid of the process that exported ``ENV_PLAN_VAR`` — the plan must only
#: auto-activate in *children* of that process, never in the exporter.
_ENV_OWNER_PID: Optional[int] = None


def active_plan() -> Optional[FaultPlan]:
    """The plan visible to the calling thread, if any (thread-scoped plans
    shadow the process-wide one)."""
    plan = getattr(_TLS, "plan", None)
    if plan is not None:
        return plan
    return _PROCESS_PLAN


def fault_point(name: str, payload: Any = None) -> Any:
    """Production-code hook: a no-op unless a fault plan is active.

    Returns ``payload`` unchanged, or mangled by a ``truncate``/``corrupt``
    rule; ``raise``/``exit`` rules never return.
    """
    if not _ACTIVE_COUNT:
        return payload
    plan = getattr(_TLS, "plan", None)
    if plan is None:
        plan = _PROCESS_PLAN
    if plan is None:
        return payload
    return plan.fire(name, payload)


class _ThreadScope:
    def __init__(self, plan: FaultPlan) -> None:
        self._plan = plan
        self._previous: Optional[FaultPlan] = None

    def __enter__(self) -> FaultPlan:
        global _ACTIVE_COUNT
        self._previous = getattr(_TLS, "plan", None)
        _TLS.plan = self._plan
        with _ACTIVATION_LOCK:
            _ACTIVE_COUNT += 1
        return self._plan

    def __exit__(self, *exc_info: Any) -> None:
        global _ACTIVE_COUNT
        _TLS.plan = self._previous
        with _ACTIVATION_LOCK:
            _ACTIVE_COUNT -= 1


class _ProcessScope:
    def __init__(self, plan: FaultPlan) -> None:
        self._plan = plan
        self._previous: Optional[FaultPlan] = None

    def __enter__(self) -> FaultPlan:
        global _ACTIVE_COUNT, _PROCESS_PLAN
        with _ACTIVATION_LOCK:
            self._previous = _PROCESS_PLAN
            _PROCESS_PLAN = self._plan
            _ACTIVE_COUNT += 1
        return self._plan

    def __exit__(self, *exc_info: Any) -> None:
        global _ACTIVE_COUNT, _PROCESS_PLAN
        with _ACTIVATION_LOCK:
            _PROCESS_PLAN = self._previous
            _ACTIVE_COUNT -= 1


class _EnvScope:
    """Exports the plan via ``ENV_PLAN_VAR`` so processes forked/spawned
    while the scope is active (e.g. pool workers) pick it up through
    :func:`ensure_env_plan`.  The exporting process itself stays clean."""

    def __init__(self, plan: FaultPlan) -> None:
        self._plan = plan
        self._previous_value: Optional[str] = None
        self._previous_owner: Optional[int] = None

    def __enter__(self) -> FaultPlan:
        global _ENV_OWNER_PID
        self._previous_value = os.environ.get(ENV_PLAN_VAR)
        self._previous_owner = _ENV_OWNER_PID
        os.environ[ENV_PLAN_VAR] = self._plan.to_json()
        _ENV_OWNER_PID = os.getpid()
        return self._plan

    def __exit__(self, *exc_info: Any) -> None:
        global _ENV_OWNER_PID
        if self._previous_value is None:
            os.environ.pop(ENV_PLAN_VAR, None)
        else:
            os.environ[ENV_PLAN_VAR] = self._previous_value
        _ENV_OWNER_PID = self._previous_owner


def thread_scope(plan: FaultPlan) -> _ThreadScope:
    """Activate ``plan`` for the calling thread only."""
    return _ThreadScope(plan)


def process_scope(plan: FaultPlan) -> _ProcessScope:
    """Activate ``plan`` for every thread in this process."""
    return _ProcessScope(plan)


def env_scope(plan: FaultPlan) -> _EnvScope:
    """Export ``plan`` to child processes via the environment."""
    return _EnvScope(plan)


def ensure_env_plan() -> Optional[FaultPlan]:
    """Install the environment-exported plan in this process, if one exists
    and was exported by a *different* process (i.e. we are a child).

    Called at the top of pool worker jobs; idempotent and cheap when no
    plan is exported.
    """
    global _ACTIVE_COUNT, _PROCESS_PLAN, _ENV_OWNER_PID
    text = os.environ.get(ENV_PLAN_VAR)
    if not text:
        return None
    if _ENV_OWNER_PID == os.getpid():
        return None
    with _ACTIVATION_LOCK:
        if _PROCESS_PLAN is not None:
            return _PROCESS_PLAN
        try:
            plan = FaultPlan.from_json(text)
        except (ValueError, TypeError) as error:
            raise ValueError(
                f"invalid fault plan in ${ENV_PLAN_VAR}: {error}") from error
        _PROCESS_PLAN = plan
        _ACTIVE_COUNT += 1
        # This process now owns the installed copy; its own children get a
        # fresh copy from the environment again via parent-pid mismatch.
        _ENV_OWNER_PID = None
        return plan


def _install_env_plan() -> None:
    """Import-time bootstrap for processes launched with ``ENV_PLAN_VAR``
    already set (e.g. a CLI invocation in a chaos smoke test)."""
    if os.environ.get(ENV_PLAN_VAR) and multiprocessing.parent_process() is None:
        ensure_env_plan()
