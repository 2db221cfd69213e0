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
from typing import List, Sequence

from repro.sim.cache import DETAIL_LEVELS, DETAIL_STATS
from repro.sim.config import HierarchyConfig
from repro.sim.engine import SimulationEngine, SimulationResult
from repro.sim.replay import NATIVE_POLICIES, ReplayCore
from repro.workloads.trace import MemoryTrace

__all__ = ["BatchSimulator", "NATIVE_POLICIES", "RolloutSpec"]


@dataclass(frozen=True)
class RolloutSpec:
    """One rollout of the shared trace: policy x config x mode x detail."""

    policy: str
    config: HierarchyConfig
    mode: str = "llc_only"
    detail: str = DETAIL_STATS

    def __post_init__(self) -> None:
        if self.mode not in ("llc_only", "hierarchy"):
            raise ValueError("mode must be 'llc_only' or 'hierarchy'")
        if self.detail not in DETAIL_LEVELS:
            raise ValueError(f"detail must be one of {DETAIL_LEVELS}")


class BatchSimulator:
    """Run many rollouts of one trace over one shared replay core.

    Construct one per trace and call :meth:`run` with the rollout specs;
    results come back in spec order, each byte-identical to what a fresh
    ``SimulationEngine(...).run(trace, policy)`` would produce.
    """

    def __init__(self, trace: MemoryTrace):
        self.trace = trace
        self._core = ReplayCore(trace)

    def run(self, specs: Sequence[RolloutSpec]) -> List[SimulationResult]:
        """Execute every rollout; results in spec order."""
        return [SimulationEngine(
                    config=spec.config, mode=spec.mode,
                    detail=spec.detail).replay(self._core, spec.policy)
                for spec in specs]
