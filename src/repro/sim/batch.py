"""Batch entry point into the replay core: one trace, many rollouts.

Every (policy, config, mode, detail) cell of an experiment grid used to
replay the whole trace independently, so grid cost scaled as cells x
single-replay cost.  This module follows the "parallel rollouts as array
programs" shape (Considine, arXiv:2604.12902): the rollouts of one trace
share a single :class:`~repro.sim.replay.ReplayCore`, so everything that is
*policy-independent* — the LLC stream (L1/L2 filtering in hierarchy mode),
block and set columns, miss classes, reuse arrays, the demand mask and the
base timing — is computed once per geometry it depends on, and only the
per-rollout policy loop and post-pass repeat.

Each rollout runs through :meth:`SimulationEngine.replay`, the same code a
standalone ``engine.run`` takes, so every rollout is **byte-identical** to
it (enforced by ``tests/test_batch.py`` across the full policy x workload x
mode x detail matrix).  Policies in :data:`NATIVE_POLICIES` run their
native kernels at stats detail in either mode.

This is how :meth:`SimulationCache.run_jobs
<repro.core.pipeline.SimulationCache.run_jobs>` replays every simulation:
one batch per trace serially, one one-rollout batch per task in a
:class:`~repro.sim.parallel.ParallelSimulator` worker.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.sim.cache import DETAIL_LEVELS, DETAIL_STATS
from repro.sim.config import HierarchyConfig
from repro.sim.engine import SimulationEngine, SimulationResult
from repro.sim.replay import NATIVE_POLICIES, ReplayCore, native_kernel
from repro.workloads.trace import MemoryTrace

__all__ = ["BatchSimulator", "NATIVE_POLICIES", "RolloutSpec",
           "rollout_strategy"]


@dataclass(frozen=True)
class RolloutSpec:
    """One rollout of the shared trace: policy x config x mode x detail.

    The engine-knob fields (``max_records``, ``history_window``,
    ``annotate_context``) default to :class:`SimulationEngine`'s defaults so
    a bare ``RolloutSpec(policy, config)`` reproduces ``engine.run``
    exactly.
    """

    policy: str
    config: HierarchyConfig
    mode: str = "llc_only"
    detail: str = DETAIL_STATS
    max_records: Optional[int] = None
    history_window: int = 8
    annotate_context: bool = True

    def __post_init__(self) -> None:
        if self.mode not in ("llc_only", "hierarchy"):
            raise ValueError("mode must be 'llc_only' or 'hierarchy'")
        if self.detail not in DETAIL_LEVELS:
            raise ValueError(f"detail must be one of {DETAIL_LEVELS}")


def rollout_strategy(spec: RolloutSpec) -> str:
    """Policy loop one rollout takes: ``"native:<policy>"`` for a native
    kernel, ``"engine"`` for the generic :meth:`Cache.access` loop."""
    if native_kernel(spec.policy, spec.detail) is not None:
        return f"native:{spec.policy}"
    return "engine"


class BatchSimulator:
    """Run many rollouts of one trace over one shared replay core.

    Construct one per trace and call :meth:`run` with the rollout specs;
    results come back in spec order, each byte-identical to what a fresh
    ``SimulationEngine(...).run(trace, policy)`` would produce.  The
    strategy chosen for each rollout of the last :meth:`run` is recorded in
    :attr:`strategies`.
    """

    def __init__(self, trace: MemoryTrace):
        self.trace = trace
        self.strategies: List[str] = []
        self._core = ReplayCore(trace)

    def run(self, specs: Sequence[RolloutSpec]) -> List[SimulationResult]:
        """Execute every rollout; results in spec order."""
        self.strategies = [rollout_strategy(spec) for spec in specs]
        return [SimulationEngine(
                    config=spec.config, mode=spec.mode,
                    history_window=spec.history_window,
                    annotate_context=spec.annotate_context,
                    max_records=spec.max_records,
                    detail=spec.detail).replay(self._core, spec.policy)
                for spec in specs]
