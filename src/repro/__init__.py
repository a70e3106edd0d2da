"""repro -- proof-driven query planning over restricted interfaces.

A from-scratch reproduction of *"Generating Low-cost Plans From Proofs"*
(Benedikt, ten Cate, Tsamoura; PODS 2014): answering queries completely
over schemas with access methods (binding patterns) and TGD integrity
constraints, by searching the space of chase proofs that the query is
answerable and reading low-cost plans directly off the proofs.

Quick tour::

    from repro import (
        SchemaBuilder, cq, find_best_plan, SearchOptions,
        Instance, InMemorySource,
    )

    schema = (
        SchemaBuilder("uni")
        .relation("Profinfo", 3, ["eid", "onum", "lname"])
        .relation("Udirect", 2, ["eid", "lname"])
        .access("mt_prof", "Profinfo", inputs=[0], cost=2.0)
        .access("mt_udir", "Udirect", inputs=[], cost=1.0)
        .tgd("Profinfo(eid, onum, lname) -> Udirect(eid, lname)")
        .build()
    )
    query = cq(["?eid", "?onum"],
               [("Profinfo", ["?eid", "?onum", "smith"])])
    result = find_best_plan(schema, query)
    print(result.best_plan.describe())

Subpackages: :mod:`repro.logic` (CQs, TGDs, homomorphisms),
:mod:`repro.schema` (access methods, accessible schemas),
:mod:`repro.chase` (the chase with blocking), :mod:`repro.plans`
(RA plans and their semantics), :mod:`repro.data` (access-enforced
sources, AccPart), :mod:`repro.exec` (the indexed/deduplicated/cached
execution runtime), :mod:`repro.service` (the concurrent query service
with admission control and overload shedding),
:mod:`repro.cost` (cost functions),
:mod:`repro.planner` (proof-to-plan + Algorithm 1 + views),
:mod:`repro.fo` (interpolation, executable queries),
:mod:`repro.scenarios` (the paper's examples).
"""

from repro.logic import (
    Atom,
    ConjunctiveQuery,
    Constant,
    Null,
    TGD,
    Variable,
    cq,
    inclusion_dependency,
    parse_tgd,
)
from repro.schema import (
    AccessMethod,
    AccessibleSchema,
    Relation,
    Schema,
    SchemaBuilder,
    accessible_schema,
    inferred_accessible_query,
)
from repro.data import (
    InMemorySource,
    Instance,
    accessible_part,
    random_instance,
)
from repro.errors import (
    AccessError,
    DeadlineExceeded,
    MethodOutage,
    ReproError,
    RowBudgetExceeded,
    ServiceOverloaded,
    ServiceStopped,
    TransientAccessError,
)
from repro.exec import (
    AccessCache,
    BreakerRegistry,
    CircuitBreaker,
    Deadline,
    ExecStats,
    ExecutionContext,
    ResilientDispatcher,
    ResourceBudget,
    RetryPolicy,
    substitute_constants,
)
from repro.service import (
    PRIORITY_BEST_EFFORT,
    PRIORITY_HIGH,
    PRIORITY_NORMAL,
    QueryRequest,
    QueryResponse,
    QueryService,
    ServiceHealth,
    Ticket,
)
from repro.faults import (
    FaultInjectingSource,
    FaultPolicy,
    FaultStats,
    VirtualClock,
)
from repro.plans import Plan, PlanKind
from repro.cost import CountingCostFunction, SimpleCostFunction
from repro.planner import (
    ChaseProof,
    Exposure,
    SearchOptions,
    SearchResult,
    find_any_plan,
    find_best_plan,
    is_answerable,
    plan_from_proof,
    rewrite_over_views,
)

__version__ = "1.0.0"

__all__ = [
    "AccessCache",
    "AccessError",
    "AccessMethod",
    "AccessibleSchema",
    "Atom",
    "BreakerRegistry",
    "ChaseProof",
    "CircuitBreaker",
    "ConjunctiveQuery",
    "Constant",
    "CountingCostFunction",
    "Deadline",
    "DeadlineExceeded",
    "ExecStats",
    "ExecutionContext",
    "Exposure",
    "FaultInjectingSource",
    "FaultPolicy",
    "FaultStats",
    "InMemorySource",
    "Instance",
    "MethodOutage",
    "Null",
    "PRIORITY_BEST_EFFORT",
    "PRIORITY_HIGH",
    "PRIORITY_NORMAL",
    "Plan",
    "PlanKind",
    "QueryRequest",
    "QueryResponse",
    "QueryService",
    "Relation",
    "ReproError",
    "ResilientDispatcher",
    "ResourceBudget",
    "RetryPolicy",
    "RowBudgetExceeded",
    "Schema",
    "SchemaBuilder",
    "SearchOptions",
    "SearchResult",
    "ServiceHealth",
    "ServiceOverloaded",
    "ServiceStopped",
    "SimpleCostFunction",
    "TGD",
    "Ticket",
    "TransientAccessError",
    "Variable",
    "VirtualClock",
    "accessible_part",
    "accessible_schema",
    "cq",
    "find_any_plan",
    "find_best_plan",
    "inclusion_dependency",
    "inferred_accessible_query",
    "is_answerable",
    "parse_tgd",
    "plan_from_proof",
    "random_instance",
    "rewrite_over_views",
    "substitute_constants",
]
