"""Replacement policy interface shared by the cache simulator.

A policy sees the cache through two small value objects:

* :class:`PolicyAccess` -- the access being serviced (PC, block address,
  global access index and, when the engine runs in oracle mode, the index
  of the *next* access to the same block).
* :class:`CacheLine` -- one resident line of the accessed set (way, block
  address, inserting PC, insertion/last-touch times and the line's own
  next-use index), which policies treat as read-only.

The cache hands every hook of one access the same :class:`PolicyAccess`,
one object per cache that it rewrites on each access.  So a policy copies
the fields it needs and never keeps the object.

The simulator drives the policy with ``on_hit`` / ``on_fill`` notifications
and asks ``should_bypass`` before allocating on a miss.  ``eviction_scores``
is the one scoring rule: the trace database stores it as the paper's
``cache_line_eviction_scores`` column, and the cache evicts a line holding
the top score.  A policy adds only a ``tie_break`` among top-scored lines
(``None``: the first way) and the side effects of an eviction, in
``on_evict``.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import attrgetter
from typing import Callable, Dict, List, Optional, Sequence, Type

from repro.errors import UnknownNameError

#: Next-use index meaning "this block is never accessed again".
NEVER = 1 << 60


@dataclass
class PolicyAccess:
    """The memory access currently being serviced by the cache.

    Each cache keeps one and rewrites its fields on every access, so it is
    valid only during the hook call that receives it: a policy copies the
    fields it needs and never keeps the object.
    """

    pc: int
    block_address: int
    access_index: int
    #: index of the next access to this block in the same cache's access
    #: stream, or :data:`NEVER`; only meaningful when the engine precomputes
    #: future knowledge (needed by Belady/Hawkeye training).
    next_use: int = NEVER


@dataclass
class CacheLine:
    """One resident cache line, handed to policies as their view of it.

    ``way`` is fixed for the line's whole residency.
    """

    block_address: int
    pc: int
    inserted_at: int
    last_access: int
    next_use: int = NEVER
    way: int = -1


_last_access = attrgetter("last_access")


def least_recently_used(lines: Sequence[CacheLine]) -> CacheLine:
    """Tie-break that evicts the line untouched for the longest time."""
    return min(lines, key=_last_access)


class ReplacementPolicy:
    """Base class: an LRU-equivalent default with overridable hooks."""

    #: canonical lowercase name used in trace-database keys.
    name = "base"
    #: whether the policy needs next-use (oracle) information.
    requires_future = False
    #: picks the victim among the lines that share the top score; ``None``
    #: takes the first way, as ``max`` does.
    tie_break: Optional[Callable[[Sequence[CacheLine]], CacheLine]] = None

    def __init__(self, **kwargs):
        self.num_sets = 0
        self.num_ways = 0

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def initialize(self, num_sets: int, num_ways: int) -> None:
        """Called once by the cache before simulation starts."""
        self.num_sets = num_sets
        self.num_ways = num_ways

    # ------------------------------------------------------------------
    # notifications
    # ------------------------------------------------------------------
    def on_hit(self, set_index: int, line: CacheLine, access: PolicyAccess) -> None:
        """The access hit ``line``."""

    def on_fill(self, set_index: int, line: CacheLine, access: PolicyAccess) -> None:
        """``line`` was just filled by ``access`` (after any eviction)."""

    def on_evict(self, set_index: int, lines: Sequence[CacheLine],
                 victim: CacheLine, access: PolicyAccess) -> None:
        """``victim``, one of the full set's ``lines``, is being evicted to
        make room for ``access``."""

    # ------------------------------------------------------------------
    # decisions
    # ------------------------------------------------------------------
    def should_bypass(self, set_index: int, lines: Sequence[CacheLine],
                      access: PolicyAccess) -> bool:
        """Return True to service the miss without allocating a line."""
        return False

    def eviction_scores(self, set_index: int, lines: Sequence[CacheLine],
                        access: PolicyAccess) -> List[float]:
        """Per-line eviction priority (higher = evicted sooner), paired with
        ``lines`` as zip pairs them; the victim holds the top score.  The
        lines are the set's ways 0..n-1, in order.  The access log stores
        each score as a double, so exact integers may stay ints.

        The default is recency age, which evicts the least recently used
        line.
        """
        now = access.access_index
        return [now - line.last_access for line in lines]

    # ------------------------------------------------------------------
    # misc
    # ------------------------------------------------------------------
    def describe(self) -> str:
        """One-line human description used in database metadata."""
        return f"{self.name} replacement policy"

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


# ----------------------------------------------------------------------
# registry
# ----------------------------------------------------------------------
_REGISTRY: Dict[str, Type[ReplacementPolicy]] = {}


def register_policy(cls: Type[ReplacementPolicy]) -> Type[ReplacementPolicy]:
    """Class decorator registering a policy under its ``name``."""
    _REGISTRY[cls.name] = cls
    return cls


def available_policies() -> List[str]:
    """Names of all registered policies."""
    _ensure_policies_imported()
    return sorted(_REGISTRY)


def get_policy(name: str, **kwargs) -> ReplacementPolicy:
    """Instantiate a registered policy by name."""
    _ensure_policies_imported()
    if name not in _REGISTRY:
        raise UnknownNameError(
            f"unknown policy {name!r}; available: {available_policies()}")
    return _REGISTRY[name](**kwargs)


def _ensure_policies_imported() -> None:
    # Importing the package registers every built-in policy exactly once.
    import repro.policies  # noqa: F401
