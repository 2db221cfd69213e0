"""Simulator configuration (Table 2 of the paper plus scaled-down variants).

``PAPER_CONFIG`` mirrors the processor and memory hierarchy in Table 2 of the
paper.  Because the synthetic traces used by default are much shorter than
the 1-billion-instruction SPEC runs, two scaled-down configurations are also
provided so working sets still exceed the LLC and the policies differentiate:

* ``SMALL_CONFIG`` -- the default for trace-database construction,
* ``TINY_CONFIG``  -- used by fast unit tests.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace
from typing import Any, Dict, List, Optional, Union

from repro.errors import UnknownNameError


def _component_to_dict(component) -> Dict[str, Any]:
    """Flat field dictionary of one frozen config dataclass."""
    return {f.name: getattr(component, f.name) for f in fields(component)}


def _component_from_dict(cls, payload: Dict[str, Any]):
    """Rebuild a config dataclass, ignoring unknown keys (forward
    compatibility with payloads written by newer builds)."""
    known = {f.name for f in fields(cls)}
    return cls(**{key: value for key, value in payload.items()
                  if key in known})


@dataclass(frozen=True)
class CacheConfig:
    """Geometry and latency of one cache level."""

    name: str
    size_bytes: int
    num_ways: int
    block_bytes: int = 64
    latency_cycles: int = 4
    mshr_entries: int = 16

    @property
    def num_sets(self) -> int:
        sets = self.size_bytes // (self.num_ways * self.block_bytes)
        if sets <= 0:
            raise ValueError(f"{self.name}: size too small for geometry")
        return sets

    @property
    def num_blocks(self) -> int:
        return self.size_bytes // self.block_bytes

    def describe(self) -> str:
        kib = self.size_bytes / 1024
        return (f"{self.name}: {kib:g} KB, {self.num_sets} sets, "
                f"{self.num_ways} ways; {self.latency_cycles}-cycle latency; "
                f"{self.mshr_entries}-entry MSHR")


@dataclass(frozen=True)
class CoreConfig:
    """Out-of-order core parameters used by the analytic timing model."""

    frequency_ghz: float = 4.0
    fetch_width: int = 6
    retire_width: int = 4
    rob_entries: int = 352
    load_queue_entries: int = 128
    store_queue_entries: int = 72
    branch_predictor: str = "bimodal"
    #: fraction of a miss latency that overlaps with other work (memory-level
    #: parallelism / out-of-order tolerance).
    overlap_factor: float = 0.35

    def describe(self) -> str:
        return (f"1 core; {self.frequency_ghz:g} GHz; {self.fetch_width}-wide "
                f"fetch/decode/execute; {self.retire_width}-wide retire; "
                f"{self.rob_entries}-entry ROB; {self.load_queue_entries}-entry LQ; "
                f"{self.store_queue_entries}-entry SQ; {self.branch_predictor} "
                f"branch predictor")


@dataclass(frozen=True)
class DRAMConfig:
    """Main-memory parameters."""

    size_gb: int = 4
    data_rate: str = "DDR4-3200MT/s"
    channels: int = 1
    ranks_per_channel: int = 1
    banks_per_rank: int = 8
    access_latency_cycles: int = 200

    def describe(self) -> str:
        return (f"{self.size_gb} GB; {self.data_rate}; {self.channels} channel; "
                f"{self.ranks_per_channel} rank/channel; {self.banks_per_rank} "
                f"banks/rank; ~{self.access_latency_cycles}-cycle access latency")


@dataclass(frozen=True)
class HierarchyConfig:
    """Full processor + memory hierarchy configuration."""

    name: str
    core: CoreConfig
    l1d: CacheConfig
    l2: CacheConfig
    llc: CacheConfig
    l1i: Optional[CacheConfig] = None
    dram: DRAMConfig = field(default_factory=DRAMConfig)

    def describe(self) -> str:
        lines = [f"configuration '{self.name}':",
                 "  Processor  " + self.core.describe()]
        if self.l1i is not None:
            lines.append("  L1 I-Cache " + self.l1i.describe())
        lines.append("  L1 D-Cache " + self.l1d.describe())
        lines.append("  L2 Cache   " + self.l2.describe())
        lines.append("  LLC        " + self.llc.describe())
        lines.append("  DRAM       " + self.dram.describe())
        return "\n".join(lines)

    def scaled_llc(self, size_bytes: int, num_ways: Optional[int] = None,
                   name: Optional[str] = None) -> "HierarchyConfig":
        """Return a copy with a different LLC capacity (for sweeps).

        ``name`` renames the copy; experiment grids require distinct names
        per distinct configuration, so sweeps should pass one (e.g.
        ``config.scaled_llc(2 * config.llc.size_bytes, name="small-llc2x")``).
        """
        llc = replace(self.llc, size_bytes=size_bytes,
                      num_ways=num_ways if num_ways is not None else self.llc.num_ways)
        return replace(self, llc=llc,
                       name=name if name is not None else self.name)

    # ------------------------------------------------------------------
    # wire format (experiment specs carry whole configs across the wire)
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """A JSON-serialisable dictionary with every nested component."""
        return {
            "name": self.name,
            "core": _component_to_dict(self.core),
            "l1i": (_component_to_dict(self.l1i)
                    if self.l1i is not None else None),
            "l1d": _component_to_dict(self.l1d),
            "l2": _component_to_dict(self.l2),
            "llc": _component_to_dict(self.llc),
            "dram": _component_to_dict(self.dram),
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "HierarchyConfig":
        """Rebuild a configuration from :meth:`to_dict` output."""
        l1i = payload.get("l1i")
        return cls(
            name=payload["name"],
            core=_component_from_dict(CoreConfig, payload.get("core") or {}),
            l1i=(_component_from_dict(CacheConfig, l1i)
                 if l1i is not None else None),
            l1d=_component_from_dict(CacheConfig, payload["l1d"]),
            l2=_component_from_dict(CacheConfig, payload["l2"]),
            llc=_component_from_dict(CacheConfig, payload["llc"]),
            dram=_component_from_dict(DRAMConfig, payload.get("dram") or {}),
        )


#: Table 2 of the paper.
PAPER_CONFIG = HierarchyConfig(
    name="paper",
    core=CoreConfig(),
    l1i=CacheConfig(name="L1I", size_bytes=32 * 1024, num_ways=8,
                    latency_cycles=4, mshr_entries=8),
    l1d=CacheConfig(name="L1D", size_bytes=32 * 1024, num_ways=8,
                    latency_cycles=4, mshr_entries=16),
    l2=CacheConfig(name="L2", size_bytes=512 * 1024, num_ways=8,
                   latency_cycles=12, mshr_entries=32),
    llc=CacheConfig(name="LLC", size_bytes=2 * 1024 * 1024, num_ways=16,
                    latency_cycles=26, mshr_entries=64),
    dram=DRAMConfig(),
)

#: Scaled-down hierarchy used for the default (short) synthetic traces so
#: that workloads still exceed LLC capacity and policies differentiate.
SMALL_CONFIG = HierarchyConfig(
    name="small",
    core=CoreConfig(),
    l1d=CacheConfig(name="L1D", size_bytes=4 * 1024, num_ways=4,
                    latency_cycles=4, mshr_entries=8),
    l2=CacheConfig(name="L2", size_bytes=16 * 1024, num_ways=8,
                   latency_cycles=12, mshr_entries=16),
    llc=CacheConfig(name="LLC", size_bytes=64 * 1024, num_ways=16,
                    latency_cycles=26, mshr_entries=32),
    dram=DRAMConfig(),
)

#: Miniature hierarchy for fast unit tests.
TINY_CONFIG = HierarchyConfig(
    name="tiny",
    core=CoreConfig(),
    l1d=CacheConfig(name="L1D", size_bytes=1 * 1024, num_ways=2,
                    latency_cycles=2, mshr_entries=4),
    l2=CacheConfig(name="L2", size_bytes=2 * 1024, num_ways=4,
                   latency_cycles=8, mshr_entries=4),
    llc=CacheConfig(name="LLC", size_bytes=4 * 1024, num_ways=4,
                    latency_cycles=20, mshr_entries=8),
    dram=DRAMConfig(access_latency_cycles=150),
)


#: Named configurations resolvable by string (the CLI and experiment specs
#: accept these names anywhere a :class:`HierarchyConfig` is expected).
NAMED_CONFIGS: Dict[str, HierarchyConfig] = {
    "paper": PAPER_CONFIG,
    "small": SMALL_CONFIG,
    "tiny": TINY_CONFIG,
}


def available_configs() -> List[str]:
    """Names of the registered hierarchy configurations, sorted."""
    return sorted(NAMED_CONFIGS)


def get_config(name: str) -> HierarchyConfig:
    """The registered configuration for ``name``."""
    if name not in NAMED_CONFIGS:
        raise UnknownNameError(
            f"unknown configuration {name!r}; available: "
            f"{', '.join(available_configs())}")
    return NAMED_CONFIGS[name]


def resolve_config(
        value: Union[str, HierarchyConfig, Dict[str, Any]]) -> HierarchyConfig:
    """Coerce a name, a :meth:`HierarchyConfig.to_dict` payload or a ready
    instance into a :class:`HierarchyConfig` (the experiment-spec input
    contract: names stay convenient, full dictionaries cross the wire)."""
    if isinstance(value, HierarchyConfig):
        return value
    if isinstance(value, str):
        return get_config(value)
    if isinstance(value, dict):
        return HierarchyConfig.from_dict(value)
    raise TypeError(f"cannot resolve {type(value).__name__!r} into a "
                    f"HierarchyConfig (expected name, dict or instance)")
