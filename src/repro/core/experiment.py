"""Declarative experiment API: sweep grids compiled to merged job plans.

The paper's analyses are sweeps — policy x workload x hierarchy-configuration
grids — but a :class:`~repro.core.pipeline.CacheMind` session is pinned to
one :class:`~repro.sim.config.HierarchyConfig`.  This module is the layer
that runs the whole evaluation matrix as one call:

* :class:`ExperimentSpec` names every axis of a grid declaratively —
  workloads x policies x **multiple configs** x detail levels x trace
  lengths x seeds, plus the metrics to report and an optional baseline
  policy — and serialises losslessly (``to_dict``/``from_dict``), so specs
  cross the JSON-server wire unchanged.
* :meth:`ExperimentSpec.compile` flattens the grid into one
  :class:`~repro.core.plan.PlannedJob` per cell and merges duplicates
  through the same machinery the serving batch path uses
  (:func:`~repro.core.plan.merge_job_lists`): however the grid names a
  cell twice — duplicated axis values, a baseline policy already in the
  policy list — it simulates exactly once.
* :class:`ExperimentRunner` executes a compiled plan through
  :meth:`SimulationCache.run_jobs
  <repro.core.pipeline.SimulationCache.run_jobs>`, where every simulation
  starts, asks and database builds included (and therefore through the
  persistent :class:`~repro.tracedb.store.TraceStore`, when one is
  attached: warm cells skip simulation across processes), with serial
  misses batched per trace and, with ``jobs > 1``, every miss of the grid
  replayed in one :class:`~repro.sim.parallel.ParallelSimulator` process
  pool.
* :class:`ExperimentResult` is a columnar cell table — one row per unique
  grid cell with miss/hit rate, IPC and cycle accounting — with lossless
  ``to_dict``/``from_dict``, derived views (:meth:`~ExperimentResult.pivot`,
  :meth:`~ExperimentResult.best_policy_per_cell`,
  :meth:`~ExperimentResult.delta_vs_baseline`) and store persistence keyed
  by the spec fingerprint.

Equivalence contract: a ``detail="full"`` cell reports exactly the numbers a
single-config :class:`CacheMind` session reports for that (workload, policy,
config) — metrics come from the same memoised
:class:`~repro.tracedb.database.TraceEntry` objects the session database
holds (``entry.statistics`` for rates, ``entry.result.ipc`` for IPC), so
``compare_policies`` can route through here without changing a digit.
Those statistics are the ones the replay computed from the result's access
log, so a cell reads no table, and a cell loaded warm from the store reads
the same numbers as the cold replay that wrote it.
``detail="stats"`` cells skip entry derivation entirely and read the raw
LLC counters (the fast path for wide sweeps).

    >>> from repro.core.experiment import ExperimentSpec, ExperimentRunner
    >>> spec = ExperimentSpec(workloads=["astar", "lbm"],
    ...                       policies=["lru", "belady"],
    ...                       configs=["tiny", "small"],
    ...                       baseline_policy="lru")
    >>> result = ExperimentRunner().run(spec)
    >>> result.pivot("miss_rate", where={"config": "tiny"})
"""

from __future__ import annotations

import hashlib
import json
import time
import warnings
from dataclasses import dataclass
from typing import (
    Any,
    Callable,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.core.answer import _dataclass_from_dict
from repro.core.plan import PlannedJob, merge_job_lists
from repro.policies.base import get_policy
from repro.sim.config import HierarchyConfig, resolve_config
from repro.errors import StoreReadOnlyError
from repro.tracedb.store import StoreCorruptionWarning
from repro.workloads.generator import workload_info
from repro.workloads.ingest import ensure_store_traces_registered

#: metrics where a smaller value wins (everything else is higher-is-better).
LOWER_IS_BETTER_METRICS = ("miss_rate",)

#: simulation modes an experiment may run in.
MODES = ("llc_only", "hierarchy")

#: engine detail levels an experiment may sweep over.
DETAILS = ("full", "stats")

#: metric names a spec may select for its default views.
METRICS = ("miss_rate", "hit_rate", "ipc")

#: identity columns of the cell table, in row order.
AXES = ("workload", "policy", "config", "detail", "num_accesses", "seed")

#: measured columns recorded for every cell (all of them, always — the
#: spec's ``metrics`` tuple only selects which ones the default views show).
VALUES = ("miss_rate", "hit_rate", "ipc", "accesses", "hits", "misses",
          "evictions", "instructions", "cycles")

#: every column of the cell table.
COLUMNS = AXES + VALUES

#: progress callback shape: ``progress(cells_done, cells_total)``.
ProgressCallback = Callable[[int, int], None]


def _as_tuple(value, item_type=None) -> tuple:
    """Coerce a scalar-or-sequence axis value into a tuple."""
    if isinstance(value, (str, int)) or not isinstance(value, Sequence):
        value = (value,)
    items = tuple(value)
    if item_type is not None:
        items = tuple(item_type(item) for item in items)
    return items


# ----------------------------------------------------------------------
# the spec
# ----------------------------------------------------------------------
@dataclass
class ExperimentSpec:
    """One declarative sweep grid: every axis named up front, no execution.

    ``configs`` accepts registered names (``"tiny"``), full
    :meth:`~repro.sim.config.HierarchyConfig.to_dict` payloads (the wire
    form) or ready instances, in any mix.  ``baseline_policy`` adds its
    cells to the grid when absent from ``policies`` (deduplicated when
    present) and enables :meth:`ExperimentResult.delta_vs_baseline`.
    Scalars are accepted for single-value axes (``num_accesses=4000``).
    """

    workloads: Tuple[str, ...] = ()
    policies: Tuple[str, ...] = ()
    configs: Tuple[HierarchyConfig, ...] = ()
    mode: str = "llc_only"
    details: Tuple[str, ...] = ("full",)
    num_accesses: Tuple[int, ...] = (20000,)
    seeds: Tuple[int, ...] = (0,)
    metrics: Tuple[str, ...] = METRICS
    baseline_policy: Optional[str] = None

    def __post_init__(self) -> None:
        self.workloads = _as_tuple(self.workloads, str)
        self.policies = _as_tuple(self.policies, str)
        self.configs = tuple(resolve_config(config)
                             for config in _as_tuple(self.configs))
        self.details = _as_tuple(self.details, str)
        self.num_accesses = _as_tuple(self.num_accesses, int)
        self.seeds = _as_tuple(self.seeds, int)
        self.metrics = _as_tuple(self.metrics, str)
        for axis_name in ("workloads", "policies", "configs", "details",
                          "num_accesses", "seeds", "metrics"):
            if not getattr(self, axis_name):
                raise ValueError(f"experiment spec needs at least one value "
                                 f"on the {axis_name!r} axis")
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}")
        for detail in self.details:
            if detail not in DETAILS:
                raise ValueError(f"details must be drawn from {DETAILS}; "
                                 f"got {detail!r}")
        for metric in self.metrics:
            if metric not in METRICS:
                raise ValueError(f"metrics must be drawn from {METRICS}; "
                                 f"got {metric!r}")
        for length in self.num_accesses:
            if length <= 0:
                raise ValueError("num_accesses values must be positive")
        # Config names are the cell/job identity (PlannedJob carries the
        # name, not the object), so one name must never denote two
        # different hierarchies within a grid.
        by_name: Dict[str, HierarchyConfig] = {}
        for config in self.configs:
            seen = by_name.setdefault(config.name, config)
            if seen != config:
                raise ValueError(
                    f"two different configurations share the name "
                    f"{config.name!r}; rename one (e.g. "
                    f"config.scaled_llc(..., name='{config.name}-v2'))")

    # ------------------------------------------------------------------
    @property
    def config_map(self) -> Dict[str, HierarchyConfig]:
        """Config-name -> config, in grid order (names are unique)."""
        mapping: Dict[str, HierarchyConfig] = {}
        for config in self.configs:
            mapping.setdefault(config.name, config)
        return mapping

    @property
    def grid_policies(self) -> Tuple[str, ...]:
        """The policy axis actually swept: ``policies`` plus the baseline
        when it is not already listed."""
        if (self.baseline_policy is not None
                and self.baseline_policy not in self.policies):
            return self.policies + (self.baseline_policy,)
        return self.policies

    def cells(self) -> Tuple[PlannedJob, ...]:
        """One :class:`PlannedJob` per grid cell, config-major, duplicates
        preserved (the compile step merges them)."""
        return tuple(
            PlannedJob(workload=workload, policy=policy,
                       num_accesses=length, seed=seed,
                       config_name=config.name, mode=self.mode,
                       detail=detail)
            for config in self.configs
            for detail in self.details
            for length in self.num_accesses
            for seed in self.seeds
            for workload in self.workloads
            for policy in self.grid_policies)

    def compile(self) -> "ExperimentPlan":
        """Flatten the grid and merge duplicate cells into one job set."""
        cells = self.cells()
        return ExperimentPlan(spec=self, cells=cells,
                              jobs=merge_job_lists((cells,)))

    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """Lossless JSON-serialisable form (configs as full dictionaries)."""
        return {
            "workloads": list(self.workloads),
            "policies": list(self.policies),
            "configs": [config.to_dict() for config in self.configs],
            "mode": self.mode,
            "details": list(self.details),
            "num_accesses": list(self.num_accesses),
            "seeds": list(self.seeds),
            "metrics": list(self.metrics),
            "baseline_policy": self.baseline_policy,
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "ExperimentSpec":
        """Rebuild a spec from :meth:`to_dict` output (unknown keys from
        newer producers are ignored)."""
        return cls(**_dataclass_from_dict(cls, payload))

    def fingerprint(self) -> str:
        """Stable content hash of the whole grid (the persistence key).

        Hashes the canonical JSON of :meth:`to_dict`, so two specs with
        equal axes — however they were constructed — share a fingerprint,
        and any changed axis (including a config parameter) changes it.
        """
        canonical = json.dumps(self.to_dict(), sort_keys=True)
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:32]

    def describe(self) -> str:
        axes = (f"{len(self.workloads)} workloads x "
                f"{len(self.grid_policies)} policies x "
                f"{len(self.configs)} configs x "
                f"{len(self.details)} details x "
                f"{len(self.num_accesses)} trace lengths x "
                f"{len(self.seeds)} seeds")
        plan = self.compile()
        return (f"experiment grid [{self.mode}]: {axes} = "
                f"{len(plan.cells)} cells ({len(plan.jobs)} unique jobs)")


def as_experiment_spec(
        value: Union[ExperimentSpec, Dict[str, Any]]) -> ExperimentSpec:
    """Coerce a spec-or-payload (the wire form) into an
    :class:`ExperimentSpec`."""
    if isinstance(value, ExperimentSpec):
        return value
    if isinstance(value, dict):
        return ExperimentSpec.from_dict(value)
    raise TypeError(f"cannot coerce {type(value).__name__!r} into an "
                    f"ExperimentSpec (expected spec or dict)")


# ----------------------------------------------------------------------
# the compiled plan
# ----------------------------------------------------------------------
@dataclass
class ExperimentPlan:
    """A compiled grid: every cell, and the merged unique job set.

    Pure description — building one runs no simulation, mirroring
    :class:`~repro.core.plan.QueryPlan`.
    """

    spec: ExperimentSpec
    cells: Tuple[PlannedJob, ...]
    jobs: Tuple[PlannedJob, ...]

    @property
    def planned_cells(self) -> int:
        return len(self.cells)

    @property
    def unique_jobs(self) -> int:
        return len(self.jobs)

    @property
    def duplicate_jobs(self) -> int:
        """How many grid cells the merge collapsed into earlier ones."""
        return len(self.cells) - len(self.jobs)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "spec": self.spec.to_dict(),
            "planned_cells": self.planned_cells,
            "unique_jobs": self.unique_jobs,
            "duplicate_jobs": self.duplicate_jobs,
            "jobs": [job.to_dict() for job in self.jobs],
        }


# ----------------------------------------------------------------------
# the result table
# ----------------------------------------------------------------------
class ExperimentResult:
    """Columnar cell table: one row per unique grid cell, plus run telemetry.

    ``columns`` maps every :data:`COLUMNS` name to a parallel list (rows in
    first-seen cell order).  ``counters`` records the dedup and cache
    telemetry of the run (``planned_cells``, ``unique_jobs``,
    ``duplicate_jobs``, ``simulations_run``, ``cache_hits``,
    ``store_hits``); ``timings`` the per-stage seconds (``compile``,
    ``execute``, ``total``).
    """

    def __init__(self, spec: ExperimentSpec,
                 columns: Dict[str, List[Any]],
                 counters: Optional[Dict[str, int]] = None,
                 timings: Optional[Dict[str, float]] = None,
                 fingerprint: str = ""):
        self.spec = spec
        self.columns = {name: list(columns.get(name, []))
                        for name in COLUMNS}
        lengths = {len(column) for column in self.columns.values()}
        if len(lengths) > 1:
            raise ValueError(f"ragged cell table: column lengths {lengths}")
        self.counters = dict(counters or {})
        self.timings = dict(timings or {})
        self.fingerprint = fingerprint or spec.fingerprint()

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.columns["workload"])

    def row(self, index: int) -> Dict[str, Any]:
        return {name: self.columns[name][index] for name in COLUMNS}

    def rows(self) -> List[Dict[str, Any]]:
        """Row-dictionary view of the cell table (materialised on demand)."""
        return list(self.iter_rows())

    def iter_rows(self):
        """Lazily yield one dict per cell, in row order."""
        for index in range(len(self)):
            yield self.row(index)

    # ------------------------------------------------------------------
    # lookups and derived views
    # ------------------------------------------------------------------
    def as_table(self):
        """The cell table as a :class:`~repro.tracedb.table.Table` copy."""
        from repro.tracedb.table import Table

        return Table.from_columns(
            {name: list(values) for name, values in self.columns.items()})

    def query(self, query):
        """Run a declarative :class:`~repro.analytics.Query` (or its wire
        form) against the cell table via :mod:`repro.analytics`.

        The cell table is registered under the query's own table name
        (conventionally ``"cells"``), so any single-table query works;
        for cross-experiment joins use :meth:`join`.
        """
        from repro.analytics import as_query, run_query

        query = as_query(query)
        return run_query(query, {query.table: self.as_table()})

    def top_k(self, metric: str, k: int = 5,
              where: Optional[Dict[str, Any]] = None,
              descending: bool = True):
        """The ``k`` cells with the largest ``metric`` (axes + metric
        columns), optionally under an axis filter.

        Largest-first by default; pass ``descending=False`` for the
        smallest (e.g. best ``miss_rate``).  Ties preserve cell order.
        """
        from repro.analytics import Filter, OrderBy, Query

        self._check_metric(metric)
        filters = tuple(Filter(axis, "eq", value)
                        for axis, value in (where or {}).items())
        return self.query(Query(
            table="cells",
            select=AXES + (metric,),
            filters=filters,
            order_by=(OrderBy(metric, descending),),
            limit=k,
        ))

    def join(self, other: "ExperimentResult",
             on: Sequence[str] = AXES,
             metrics: Sequence[str] = ("miss_rate",),
             suffix: str = "_other"):
        """Inner-join this cell table against another experiment's.

        Rows match on the ``on`` axes (all of :data:`AXES` by default, i.e.
        identical grid cells).  The result carries every left column plus
        each requested right ``metric`` as ``<metric><suffix>`` and a
        computed ``<metric>_delta`` (left minus right) — the
        delta-vs-baseline view across *experiments* rather than policies.
        """
        from repro.analytics import Join, Query, run_query

        for metric in metrics:
            self._check_metric(metric)
        query = Query(table="cells", join=Join(
            table="other",
            on=tuple((axis, axis) for axis in on),
            select=tuple((metric, f"{metric}{suffix}") for metric in metrics),
        ))
        joined = run_query(
            query, {"cells": self.as_table(), "other": other.as_table()})
        for metric in metrics:
            left = joined[metric].values
            right = joined[f"{metric}{suffix}"].values
            joined.add_column(f"{metric}_delta", [
                (a - b) if isinstance(a, (int, float)) and isinstance(b, (int, float))
                else None
                for a, b in zip(left, right)
            ])
        return joined

    def _indices(self, where: Optional[Dict[str, Any]] = None) -> List[int]:
        if not where:
            return list(range(len(self)))
        for axis in where:
            if axis not in COLUMNS:
                raise ValueError(f"unknown filter column {axis!r}; "
                                 f"columns: {', '.join(COLUMNS)}")
        return [index for index in range(len(self))
                if all(self.columns[axis][index] == value
                       for axis, value in where.items())]

    def value(self, metric: str, **axes: Any) -> Any:
        """The single cell value for ``metric`` under the axis filter;
        raises if the filter does not pin exactly one cell."""
        self._check_metric(metric)
        matches = self._indices(axes)
        if len(matches) != 1:
            raise ValueError(
                f"filter {axes!r} matches {len(matches)} cells; "
                f"pin more axes (grid axes: {', '.join(AXES)})")
        return self.columns[metric][matches[0]]

    def _check_metric(self, metric: str) -> None:
        if metric not in VALUES:
            raise ValueError(f"unknown metric {metric!r}; "
                             f"available: {', '.join(VALUES)}")

    def pivot(self, metric: str, rows: str = "workload",
              cols: str = "policy",
              where: Optional[Dict[str, Any]] = None
              ) -> Dict[Any, Dict[Any, Any]]:
        """A ``{row: {col: metric}}`` table over the (filtered) cells.

        Raises when two cells land on the same (row, col) — that means an
        unpinned axis still varies; add it to ``where``.
        """
        self._check_metric(metric)
        if rows not in AXES or cols not in AXES or rows == cols:
            raise ValueError(f"rows/cols must be two different grid axes "
                             f"({', '.join(AXES)})")
        table: Dict[Any, Dict[Any, Any]] = {}
        origin: Dict[Tuple[Any, Any], int] = {}
        selected = self._indices(where)
        for index in selected:
            row_key = self.columns[rows][index]
            col_key = self.columns[cols][index]
            if (row_key, col_key) in origin:
                # Name the axes that actually still vary among the
                # *filtered* rows; a pinned axis (even to a falsy value
                # like seed=0) is never reported.
                varying = [
                    axis for axis in AXES
                    if axis not in (rows, cols)
                    and axis not in (where or {})
                    and len({self.columns[axis][i] for i in selected}) > 1]
                raise ValueError(
                    f"pivot cell ({row_key!r}, {col_key!r}) is ambiguous: "
                    f"unpinned axes still vary ({', '.join(varying)}); "
                    f"filter them via where={{...}}")
            origin[(row_key, col_key)] = index
            table.setdefault(row_key, {})[col_key] = (
                self.columns[metric][index])
        return table

    def best_policy_per_cell(self, metric: str = "miss_rate"
                             ) -> List[Dict[str, Any]]:
        """The winning policy for every non-policy cell of the grid.

        Returns one row per (workload, config, detail, num_accesses, seed)
        group with the chosen ``policy`` and its metric value; lower wins
        for :data:`LOWER_IS_BETTER_METRICS`, higher otherwise.
        """
        self._check_metric(metric)
        group_axes = tuple(axis for axis in AXES if axis != "policy")
        groups: Dict[Tuple, List[int]] = {}
        for index in range(len(self)):
            key = tuple(self.columns[axis][index] for axis in group_axes)
            groups.setdefault(key, []).append(index)
        chooser = min if metric in LOWER_IS_BETTER_METRICS else max
        winners = []
        for key, indices in groups.items():
            best = chooser(indices,
                           key=lambda index: self.columns[metric][index])
            row = dict(zip(group_axes, key))
            row["policy"] = self.columns["policy"][best]
            row[metric] = self.columns[metric][best]
            winners.append(row)
        return winners

    def delta_vs_baseline(self, metric: str = "miss_rate"
                          ) -> List[Dict[str, Any]]:
        """Per-cell metric delta against the spec's baseline policy.

        One row per non-baseline cell: the cell's axes, its ``metric``
        value, the baseline's value in the same group and
        ``delta = value - baseline`` (negative means below baseline).
        """
        self._check_metric(metric)
        baseline = self.spec.baseline_policy
        if baseline is None:
            raise ValueError("spec has no baseline_policy; set one to use "
                             "delta_vs_baseline")
        group_axes = tuple(axis for axis in AXES if axis != "policy")

        def group_key(index: int) -> Tuple:
            return tuple(self.columns[axis][index] for axis in group_axes)

        baseline_values: Dict[Tuple, Any] = {}
        for index in range(len(self)):
            if self.columns["policy"][index] == baseline:
                baseline_values[group_key(index)] = (
                    self.columns[metric][index])
        deltas = []
        for index in range(len(self)):
            policy = self.columns["policy"][index]
            if policy == baseline:
                continue
            key = group_key(index)
            if key not in baseline_values:
                raise ValueError(f"no baseline ({baseline!r}) cell for "
                                 f"group {dict(zip(group_axes, key))!r}")
            value = self.columns[metric][index]
            row = dict(zip(group_axes, key))
            row["policy"] = policy
            row[metric] = value
            row["baseline"] = baseline_values[key]
            row["delta"] = value - baseline_values[key]
            deltas.append(row)
        return deltas

    # ------------------------------------------------------------------
    # wire format and persistence
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """Lossless JSON-serialisable form (every column is plain data)."""
        return {
            "spec": self.spec.to_dict(),
            "fingerprint": self.fingerprint,
            "columns": {name: list(values)
                        for name, values in self.columns.items()},
            "counters": dict(self.counters),
            "timings": dict(self.timings),
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "ExperimentResult":
        """Rebuild a result from :meth:`to_dict` output."""
        return cls(spec=ExperimentSpec.from_dict(payload.get("spec") or {}),
                   columns=payload.get("columns") or {},
                   counters=payload.get("counters"),
                   timings=payload.get("timings"),
                   fingerprint=payload.get("fingerprint", ""))

    def save(self, store) -> str:
        """Persist into a :class:`~repro.tracedb.store.TraceStore` under the
        spec fingerprint; returns the record path.  The record leaves out
        the wall-clock ``timings``, so identical runs write identical
        bytes."""
        payload = self.to_dict()
        del payload["timings"]
        return store.save_experiment(self.fingerprint, payload)

    @classmethod
    def load(cls, store, fingerprint: str) -> Optional["ExperimentResult"]:
        """Load a stored result by fingerprint, or ``None`` (its
        ``timings`` are empty: records leave them out)."""
        payload = store.load_experiment(fingerprint)
        return cls.from_dict(payload) if payload is not None else None

    # ------------------------------------------------------------------
    # rendering
    # ------------------------------------------------------------------
    def summary(self) -> str:
        counters = self.counters
        return (f"experiment {self.fingerprint[:12]}: "
                f"{counters.get('planned_cells', len(self))} cells -> "
                f"{counters.get('unique_jobs', len(self))} unique jobs "
                f"({counters.get('duplicate_jobs', 0)} duplicates merged); "
                f"{counters.get('simulations_run', 0)} simulated, "
                f"{counters.get('cache_hits', 0)} cache hits "
                f"({counters.get('store_hits', 0)} from store)"
                + (f" in {self.timings['total']:.3f}s"
                   if "total" in self.timings else ""))

    def format_table(self, metric: Optional[str] = None) -> str:
        """Workload x policy grids, one block per remaining axis group."""
        metric = metric or self.spec.metrics[0]
        self._check_metric(metric)
        percent = metric in ("miss_rate", "hit_rate")
        group_axes = ("config", "detail", "num_accesses", "seed")
        seen_groups: List[Tuple] = []
        for index in range(len(self)):
            key = tuple(self.columns[axis][index] for axis in group_axes)
            if key not in seen_groups:
                seen_groups.append(key)
        lines = [f"{metric} per (workload, policy)"]
        for key in seen_groups:
            where = dict(zip(group_axes, key))
            table = self.pivot(metric, where=where)
            lines.append("  " + "  ".join(f"{axis}={value}"
                                          for axis, value in where.items()))
            name_width = max(len(str(name)) for name in table)
            for workload, row in table.items():
                rendered = []
                for policy in sorted(row):
                    value = row[policy]
                    cell = (f"{value * 100:.2f}%" if percent
                            else f"{value:.4f}")
                    rendered.append(f"{policy}={cell}")
                lines.append(f"    {workload:<{name_width}}  "
                             + "  ".join(rendered))
        return "\n".join(lines)

    def __repr__(self) -> str:
        return (f"ExperimentResult(cells={len(self)}, "
                f"fingerprint={self.fingerprint[:12]!r})")


# ----------------------------------------------------------------------
# the executor
# ----------------------------------------------------------------------
class ExperimentRunner:
    """Execute compiled grids through the simulation memoiser.

    ``simulation_cache`` defaults to the process-wide singleton; attach a
    store-backed cache for cross-process warm runs.  The unique jobs run
    through :meth:`SimulationCache.run_jobs
    <repro.core.pipeline.SimulationCache.run_jobs>`, the executor asks and
    database builds use too: serial misses sharing a trace batch over one
    replay core, ``jobs > 1`` sends every miss to one
    :class:`~repro.sim.parallel.ParallelSimulator` process pool, and every
    value installs through the memoiser and its store, so re-runs simulate
    zero cells.  This runner maps the values to cell rows and
    takes its counters from the executor's tally.
    """

    def __init__(self, simulation_cache=None, jobs: int = 1):
        self.simulation_cache = simulation_cache
        self.jobs = max(1, int(jobs))

    # ------------------------------------------------------------------
    def _cache(self):
        if self.simulation_cache is not None:
            return self.simulation_cache
        # Lazy: repro.core.pipeline imports this module at load time.
        from repro.core.pipeline import SIMULATION_CACHE
        return SIMULATION_CACHE

    def run(self, spec: Union[ExperimentSpec, Dict[str, Any]],
            progress: Optional[ProgressCallback] = None) -> ExperimentResult:
        """Compile and execute ``spec``; returns the populated result.

        With a store-backed cache the result is also persisted under the
        spec fingerprint, so ``experiment report`` (and warm re-runs) can
        find it later.  A run that simulated nothing and finds that record
        leaves it as it is.
        """
        started = time.perf_counter()
        spec = as_experiment_spec(spec)
        plan = spec.compile()
        cache = self._cache()
        if cache.store is not None:
            # Traces imported by earlier processes become nameable grid
            # axes before the typo check below rejects them.
            ensure_store_traces_registered(cache.store)
        # Fail on a typo'd policy/workload name before hours of sweep run.
        for policy in {job.policy for job in plan.jobs}:
            get_policy(policy)
        for workload in {job.workload for job in plan.jobs}:
            workload_info(workload)
        compile_seconds = time.perf_counter() - started
        execute_started = time.perf_counter()
        # The executor's tally counts this run's own cells (not a delta of
        # the shared cache's global counters): other threads sharing the
        # cache — the serving layer runs sweeps concurrently with asks —
        # must not leak their hits/misses into this result's telemetry,
        # which the CLI's --expect-warm assertion and the stored record
        # rely on.
        values, tally = cache.run_jobs(
            plan.jobs, spec.config_map, jobs=self.jobs, progress=progress)
        execute_seconds = time.perf_counter() - execute_started

        columns: Dict[str, List[Any]] = {name: [] for name in COLUMNS}
        for job in plan.jobs:
            row = (self._row_from_entry if job.detail == "full"
                   else self._row_from_result)(job, values[job.key])
            for name, value in row.items():
                columns[name].append(value)
        counters = {
            "planned_cells": plan.planned_cells,
            "unique_jobs": plan.unique_jobs,
            "duplicate_jobs": plan.duplicate_jobs,
            **tally,
        }
        total_seconds = time.perf_counter() - started
        result = ExperimentResult(
            spec=spec, columns=columns, counters=counters,
            timings={"compile": compile_seconds,
                     "execute": execute_seconds,
                     "total": total_seconds})
        # A run that simulated nothing has the cells its stored record
        # holds, so a readable record stays as it is.
        if cache.store is not None and (
                tally["simulations_run"]
                or cache.store.load_experiment(result.fingerprint) is None):
            # The store is an accelerator: a failed persist must not lose
            # the freshly computed in-memory result.  A read-only mount is
            # the deliberate "serve warm, don't persist" configuration, so
            # it skips silently rather than warning per experiment.
            try:
                result.save(cache.store)
            except StoreReadOnlyError:
                pass
            except OSError as error:
                warnings.warn(
                    f"experiment result persist failed ({error!r}); "
                    f"continuing without persistence",
                    StoreCorruptionWarning, stacklevel=2)
        return result

    # ------------------------------------------------------------------
    @staticmethod
    def _axis_values(job: PlannedJob) -> Dict[str, Any]:
        return {"workload": job.workload, "policy": job.policy,
                "config": job.config_name, "detail": job.detail,
                "num_accesses": job.num_accesses, "seed": job.seed}

    @classmethod
    def _row_from_entry(cls, job: PlannedJob, entry) -> Dict[str, Any]:
        """Cell values for a full-detail job, from its database entry.

        Rates come from ``entry.statistics`` and IPC from
        ``entry.result.ipc`` — the exact expressions
        ``CacheMind.compare_policies`` reads, so experiment cells and
        session tables agree to the last bit.
        """
        stats = entry.statistics
        result = entry.result
        row = cls._axis_values(job)
        row.update({
            "miss_rate": stats.miss_rate,
            "hit_rate": stats.hit_rate,
            "ipc": result.ipc,
            "accesses": stats.total_accesses,
            "hits": stats.total_accesses - stats.total_misses,
            "misses": stats.total_misses,
            "evictions": stats.total_evictions,
            "instructions": result.timing.instructions,
            "cycles": result.timing.cycles,
        })
        return row

    @classmethod
    def _row_from_result(cls, job: PlannedJob, result) -> Dict[str, Any]:
        """Cell values for a stats-detail job, from the raw LLC counters."""
        llc = result.llc_stats
        row = cls._axis_values(job)
        row.update({
            "miss_rate": llc.miss_rate,
            "hit_rate": llc.hit_rate,
            "ipc": result.ipc,
            "accesses": llc.accesses,
            "hits": llc.hits,
            "misses": llc.misses,
            "evictions": llc.evictions,
            "instructions": result.timing.instructions,
            "cycles": result.timing.cycles,
        })
        return row


def run_experiment(spec: Union[ExperimentSpec, Dict[str, Any]],
                   simulation_cache=None, jobs: int = 1,
                   progress: Optional[ProgressCallback] = None
                   ) -> ExperimentResult:
    """Module-level convenience: compile and execute one spec."""
    runner = ExperimentRunner(simulation_cache=simulation_cache, jobs=jobs)
    return runner.run(spec, progress=progress)
