"""CacheMind reproduction: natural-language, trace-grounded reasoning for
cache replacement (conf_asplos_MhapsekarGAA26).

The three-line session API:

    >>> from repro import CacheMind
    >>> session = CacheMind(workloads=["astar"], policies=["lru", "belady"])
    >>> print(session.ask("What is the miss rate of lru on astar?"))

Layer stack (each importable as ``repro.<layer>``):

* :mod:`repro.workloads` -- synthetic SPEC-like trace generators,
* :mod:`repro.policies`  -- replacement policies (registry-driven),
* :mod:`repro.sim`       -- the trace-driven LLC / hierarchy simulator,
* :mod:`repro.tracedb`   -- the eviction-annotated external store,
* :mod:`repro.analytics` -- the declarative query layer over columnar
  tables (:class:`Query` objects executed by the pure-stdlib
  :class:`StdlibBackend`),
* :mod:`repro.retrieval` -- Sieve, Ranger and the embedding baseline
  (registry-driven),
* :mod:`repro.llm`       -- simulated LLM backends (registry-driven),
* :mod:`repro.core`      -- query parsing, answer generation, the
  request/plan/execute API, the declarative experiment API
  (:class:`ExperimentSpec` sweep grids compiled to merged job plans) and
  the :class:`CacheMind` facade tying all of the above together,
* :mod:`repro.serve`     -- the serving subsystem: the thread-safe
  :class:`CacheMindService`, the concurrent JSON-lines
  :class:`CacheMindServer` and the matching :class:`RemoteClient`,
* :mod:`repro.faults`    -- deterministic fault injection (seeded
  :class:`FaultPlan` rules fired at named :func:`fault_point` hooks) for
  chaos-testing the store, parallel builds and the serving stack.

``python -m repro`` exposes the ``simulate``, ``ask``, ``bench``,
``experiment``, ``store`` and ``serve`` subcommands over the same facade.
"""

from repro.analytics import (
    Aggregate,
    Filter,
    Join,
    OrderBy,
    Query,
    StdlibBackend,
    parse_query,
    run_query,
)
from repro.core.answer import Answer, AskResponse
from repro.core.experiment import (
    ExperimentResult,
    ExperimentRunner,
    ExperimentSpec,
    run_experiment,
)
from repro.core.plan import AskRequest, QueryPlan, QueryPlanner
from repro.core.pipeline import SIMULATION_CACHE, CacheMind, SimulationCache
from repro.serve.client import (
    DeadlineExceeded,
    RemoteClient,
    RemoteError,
    ServerOverloadedError,
    ServerShuttingDownError,
)
from repro.serve.server import CacheMindServer
from repro.serve.service import CacheMindService
from repro.errors import (
    DeadlineExceededError,
    StoreVersionError,
    UnknownNameError,
)
from repro.faults import FaultPlan, FaultRule, InjectedFault, fault_point
from repro.core.query import QueryIntent, QueryParser
from repro.llm.backend import (
    LLMBackend,
    available_backend_names,
    get_backend,
    register_backend,
)
from repro.llm.simulated import SimulatedLLM, create_backend
from repro.policies.base import (
    ReplacementPolicy,
    available_policies,
    get_policy,
    register_policy,
)
from repro.retrieval.base import (
    Retriever,
    available_retrievers,
    get_retriever,
    register_retriever,
)
from repro.sim.config import PAPER_CONFIG, SMALL_CONFIG, TINY_CONFIG, HierarchyConfig
from repro.sim.engine import SimulationEngine, SimulationResult, simulate
from repro.tracedb.database import TraceDatabase, TraceEntry, build_database
from repro.tracedb.store import TraceStore
from repro.workloads.generator import (
    WorkloadGenerator,
    available_workloads,
    generate_trace,
    get_workload,
)

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # session facade
    "CacheMind",
    "SimulationCache",
    "SIMULATION_CACHE",
    "Answer",
    "QueryIntent",
    "QueryParser",
    "UnknownNameError",
    # request/plan/execute serving API
    "AskRequest",
    "AskResponse",
    "QueryPlan",
    "QueryPlanner",
    "CacheMindService",
    "CacheMindServer",
    "RemoteClient",
    "RemoteError",
    "ServerOverloadedError",
    "ServerShuttingDownError",
    "DeadlineExceeded",
    "DeadlineExceededError",
    # fault injection / chaos testing
    "FaultPlan",
    "FaultRule",
    "InjectedFault",
    "fault_point",
    # declarative analytics engine
    "Query",
    "Filter",
    "Aggregate",
    "OrderBy",
    "Join",
    "StdlibBackend",
    "parse_query",
    "run_query",
    # declarative experiment API
    "ExperimentSpec",
    "ExperimentResult",
    "ExperimentRunner",
    "run_experiment",
    # simulation
    "HierarchyConfig",
    "PAPER_CONFIG",
    "SMALL_CONFIG",
    "TINY_CONFIG",
    "SimulationEngine",
    "SimulationResult",
    "simulate",
    # store
    "TraceDatabase",
    "TraceEntry",
    "build_database",
    # registries
    "ReplacementPolicy",
    "available_policies",
    "get_policy",
    "register_policy",
    "Retriever",
    "available_retrievers",
    "get_retriever",
    "register_retriever",
    "LLMBackend",
    "SimulatedLLM",
    "available_backend_names",
    "get_backend",
    "register_backend",
    "create_backend",
    # workloads
    "WorkloadGenerator",
    "available_workloads",
    "get_workload",
    "generate_trace",
]
