"""Workload generator base class and registry."""

from __future__ import annotations

import random
import zlib
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from repro.errors import DuplicateNameError, UnknownNameError
from repro.workloads.symbols import BinaryImage
from repro.workloads.trace import MemoryTrace, TraceAccess

#: Cache block size in bytes used when generators reason in blocks.
BLOCK_BYTES = 64


def _stable_hash(name: str) -> int:
    """Process-independent hash for seeding (unlike builtin ``hash``)."""
    return zlib.crc32(name.encode("utf-8"))


@dataclass
class WorkloadSpec:
    """Static description of a workload used in database descriptions."""

    name: str
    description: str
    dominant_pattern: str
    working_set_blocks: int


class WorkloadGenerator(ABC):
    """Deterministic synthetic workload generator.

    Subclasses build a :class:`BinaryImage` describing the program's
    functions and memory instructions, then emit a :class:`MemoryTrace` whose
    access pattern mimics the documented behaviour of the original SPEC
    workload.  All randomness flows through a seeded ``random.Random`` so the
    same ``(workload, seed, length)`` tuple always yields an identical trace,
    which keeps CacheMindBench ground truths stable.
    """

    #: canonical workload name (``astar``, ``lbm``, ``mcf``, ...)
    name: str = "workload"
    #: registry kind: ``"synthetic"`` here; ingested traces report
    #: ``"ingested"`` (see :mod:`repro.workloads.ingest`).
    kind: str = "synthetic"
    #: one-line description stored in the trace database
    description: str = ""
    #: dominant access pattern summary (used by workload-analysis answers)
    dominant_pattern: str = ""
    #: nominal working-set size in 64-byte blocks
    working_set_blocks: int = 4096

    def __init__(self, seed: int = 0):
        self.seed = seed
        # zlib.crc32, not hash(): str hashing is randomised per process, and
        # traces (hence CacheMindBench ground truths) must be stable across
        # runs, not just within one interpreter.
        self._rng = random.Random((_stable_hash(self.name) & 0xFFFF) ^ seed)
        self.binary = self.build_binary(self._rng)

    # ------------------------------------------------------------------
    # subclass hooks
    # ------------------------------------------------------------------
    @abstractmethod
    def build_binary(self, rng: random.Random) -> BinaryImage:
        """Create the synthetic binary image (functions, PCs, assembly)."""

    @abstractmethod
    def emit_accesses(self, num_accesses: int, rng: random.Random) -> List[TraceAccess]:
        """Emit ``num_accesses`` dynamic memory accesses."""

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------
    def spec(self) -> WorkloadSpec:
        return WorkloadSpec(
            name=self.name,
            description=self.description,
            dominant_pattern=self.dominant_pattern,
            working_set_blocks=self.working_set_blocks,
        )

    def generate(self, num_accesses: int = 20000) -> MemoryTrace:
        """Generate a trace with ``num_accesses`` memory accesses."""
        if num_accesses <= 0:
            raise ValueError("num_accesses must be positive")
        rng = random.Random((_stable_hash(self.name) & 0xFFFF) ^ self.seed ^ 0x5EED)
        accesses = self.emit_accesses(num_accesses, rng)
        trace = MemoryTrace(
            workload=self.name,
            accesses=accesses,
            binary=self.binary,
            description=self.description,
            seed=self.seed,
        )
        return trace

    # ------------------------------------------------------------------
    # helpers for subclasses
    # ------------------------------------------------------------------
    @staticmethod
    def block_address(region_base: int, block_index: int) -> int:
        """Byte address of the first byte of ``block_index`` within a region."""
        return region_base + block_index * BLOCK_BYTES


# ----------------------------------------------------------------------
# registry
# ----------------------------------------------------------------------
#: name -> factory.  A factory is anything callable as ``factory(seed=...)``
#: returning a generator-like object (``generate``/``description``), with
#: ``name``/``kind``/``description`` readable as attributes without calling
#: it: generator classes qualify directly, and ingested-trace entries
#: (:mod:`repro.workloads.ingest`) register lazy-loading factory objects.
WorkloadFactory = Callable[..., "WorkloadGenerator"]

_REGISTRY: Dict[str, WorkloadFactory] = {}
#: name -> how many times it left the registry (see workload_generation).
_DEPARTURES: Dict[str, int] = {}


def _load_builtin_workloads() -> None:
    # Imported lazily to avoid a circular import at module load time.
    from repro.workloads import spec as _spec  # noqa: F401
    from repro.workloads import microbench as _microbench  # noqa: F401
    from repro.workloads import composite as _composite  # noqa: F401


def register_workload(factory: WorkloadFactory) -> WorkloadFactory:
    """Register a generator class (decorator) or factory under its ``name``.

    Registering a name twice raises :class:`DuplicateNameError` — silently
    overwriting would let e.g. an ingested trace shadow a synthetic
    generator and change every later session's answers without a trace.
    Re-registering the *same* factory object is an idempotent no-op (module
    reloads do this).
    """
    name = factory.name
    existing = _REGISTRY.get(name)
    if existing is not None and existing is not factory:
        raise DuplicateNameError(
            f"workload {name!r} is already registered "
            f"({getattr(existing, 'kind', 'synthetic')}); unregister it "
            f"first or pick another name")
    _REGISTRY[name] = factory
    return factory


def unregister_workload(name: str) -> None:
    """Remove a registered workload (no-op when absent)."""
    if _REGISTRY.pop(name, None) is not None:
        _DEPARTURES[name] = _DEPARTURES.get(name, 0) + 1


def workload_generation(name: str) -> int:
    """How many times ``name`` has left the registry.

    A name may come back as a different workload, so a memo keyed by
    workload name must include this count to miss on its old traces.
    """
    return _DEPARTURES.get(name, 0)


def available_workloads() -> List[str]:
    """Names of all registered workloads."""
    _load_builtin_workloads()
    return sorted(_REGISTRY)


def workload_kind(name: str) -> str:
    """``"synthetic"`` or ``"ingested"`` for a registered name."""
    return workload_info(name)["kind"]


def workload_info(name: str) -> Dict[str, str]:
    """Registry metadata for one workload, without instantiating it.

    Reads the factory's attributes only — an ingested workload's trace is
    *not* loaded — so listings stay cheap.
    """
    _load_builtin_workloads()
    if name not in _REGISTRY:
        raise UnknownNameError(
            f"unknown workload {name!r}; available: {available_workloads()}")
    factory = _REGISTRY[name]
    return {
        "name": name,
        "kind": getattr(factory, "kind", "synthetic"),
        "description": getattr(factory, "description", ""),
        "dominant_pattern": getattr(factory, "dominant_pattern", ""),
    }


def available_workload_info() -> List[Dict[str, str]]:
    """:func:`workload_info` for every registered workload, name-sorted."""
    return [workload_info(name) for name in available_workloads()]


def get_workload(name: str, seed: int = 0) -> WorkloadGenerator:
    """Instantiate a registered workload generator by name."""
    _load_builtin_workloads()
    if name not in _REGISTRY:
        raise UnknownNameError(
            f"unknown workload {name!r}; available: {available_workloads()}")
    return _REGISTRY[name](seed=seed)


def generate_trace(name: str, num_accesses: int = 20000, seed: int = 0) -> MemoryTrace:
    """Convenience wrapper: instantiate and generate in one call."""
    return get_workload(name, seed=seed).generate(num_accesses)
