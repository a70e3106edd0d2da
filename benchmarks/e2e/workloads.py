"""The four workloads: what is built, what is warm, which requests run.

Each workload stresses a different layer of the same pipeline (see the
README for the reasons); all of them drive ``QueryService`` closed-loop
and hand every response to an oracle computed from the instance, never
from another plan run.  The op sequence of a workload is a pure
function of its seed.
"""

from __future__ import annotations

import random
import threading
from contextlib import contextmanager
from dataclasses import dataclass
from time import perf_counter
from typing import Callable, Dict, Iterator, List, NamedTuple, Optional, Tuple

from repro.cost.functions import SimpleCostFunction
from repro.data.instance import Instance
from repro.data.source import InMemorySource
from repro.errors import ReproError
from repro.exec.cache import AccessCache
from repro.exec.stats import ExecStats
from repro.logic.queries import ConjunctiveQuery, cq
from repro.logic.terms import Constant
from repro.planner.plan_cache import PlanCache
from repro.planner.search import SearchOptions
from repro.plans.commands import (
    AccessCommand,
    MiddlewareCommand,
    identity_output_map,
)
from repro.plans.expressions import (
    EqConst,
    Join,
    NeqConst,
    Project,
    Scan,
    Select,
    Singleton,
)
from repro.plans.plan import Plan
from repro.scenarios import (
    Scenario,
    example1,
    example2,
    example5,
    path_views,
    referential_chain,
    view_stack_scenario,
    webservices,
)
from repro.schema.core import Schema, SchemaBuilder
from repro.service import QueryService
from repro.sources import SQLiteSource

#: How long a client waits for one response before calling it lost.
RESULT_TIMEOUT = 120.0


# ------------------------------------------------------------------ requests
@dataclass(frozen=True)
class Problem:
    """One request class: a scenario factory and its search budget."""

    key: str
    family: str
    factory: Callable[[], Scenario]
    max_accesses: int = 6
    #: Draw the instance from the run's seed.  Off for generators whose
    #: *size* is random (path_views' forest, example1's name draw): the
    #: work per request, which the count metrics gate, must not depend
    #: on the seed.
    seeded_data: bool = True


@dataclass
class Live:
    """A request class bound to a running service."""

    service: QueryService
    query: Optional[ConjunctiveQuery] = None
    #: Set for requests that enter through ``submit(plan)``.
    plan: Optional[Plan] = None
    options: Optional[SearchOptions] = None


@dataclass
class Op:
    """One request of the op sequence."""

    key: str
    family: str
    #: What ``parse_cq`` turns back into the query (None for plan ops).
    text: Optional[str] = None
    query: Optional[ConjunctiveQuery] = None
    bindings: Optional[Dict[str, str]] = None
    oracle: Optional[frozenset] = None
    #: serve_mix: insert a tuple under the writer gate before this request.
    mutate: bool = False
    problem: Optional[Problem] = None


class PlanUse(NamedTuple):
    """The plan a service last used for one request class."""

    plan: Plan
    schema: Schema
    bindings: Optional[Dict[str, str]]
    query: Optional[ConjunctiveQuery]


@dataclass
class Sample:
    """What the client saw for one request."""

    key: str
    family: str
    latency: float
    #: None when the answer matched the oracle, else the failure kind.
    failure: Optional[str] = None
    post_mutation: bool = False


def query_text(query: ConjunctiveQuery) -> str:
    """Datalog text that ``parse_cq`` reads back as an equal query."""

    def term(t) -> str:
        return repr(t.value) if isinstance(t, Constant) else t.name

    body = ", ".join(
        f"{a.relation}({', '.join(term(t) for t in a.terms)})"
        for a in query.atoms
    )
    head = ", ".join(v.name for v in query.head)
    return f"{query.name}({head}) :- {body}"


def verdict(response, oracle: frozenset) -> Optional[str]:
    """Why a response counts as an error, or None when it is right."""
    if response.error is not None:
        return type(response.error).__name__
    if response.partial or not response.complete:
        return "partial"
    if response.table.rows != oracle:
        return "wrong_answer"
    return None


def direct_request(workload: "Workload", live: Live, op: Op) -> Sample:
    """The untraced client: ``submit*()`` to rows in hand, then the oracle."""
    started = perf_counter()
    try:
        if live.plan is not None:
            ticket = live.service.submit(live.plan, bindings=op.bindings)
        else:
            ticket = live.service.submit_query(
                live.query, search_options=live.options, bindings=op.bindings
            )
        response = ticket.result(RESULT_TIMEOUT)
    except (ReproError, TimeoutError) as error:
        return Sample(
            op.key, op.family, perf_counter() - started, type(error).__name__
        )
    latency = perf_counter() - started
    workload.note_plan(op, ticket.request.plan, live)
    return Sample(op.key, op.family, latency, verdict(response, op.oracle))


# ------------------------------------------------------------------ base
def unwrapped(source):
    """The default ``wrap_source``: requests reach the source directly."""
    return source


def bare(source):
    """The source underneath a timing proxy (or the source itself)."""
    return getattr(source, "inner", source)


_HEALTH_COUNTERS = ("planned", "served", "shed", "rejected", "failed")


def _add_health(counts: Dict[str, int], health) -> None:
    for name in _HEALTH_COUNTERS:
        counts[name] += getattr(health, name)


class Workload:
    """Set-up, op sequence and accounting of one workload."""

    name = ""
    clients = 1

    def __init__(self, seed: int, wrap_source: Callable = unwrapped) -> None:
        self.seed = seed
        #: The traced pass wraps every source in a timing proxy.
        self.wrap_source = wrap_source
        self.accesses = 0
        self.charged_cost = 0.0
        #: Request class -> the plan its latest request ran.
        self.plans: Dict[str, PlanUse] = {}
        #: Called whenever no request is in flight (the harness samples
        #: the machine's speed there).
        self.on_idle: Callable[[], None] = lambda: None
        #: Health counters of services already shut down.
        self._closed_counts = dict.fromkeys(_HEALTH_COUNTERS, 0)

    # -- lifecycle
    def setup(self) -> None:
        """Build instances and sources, warm what is warm, start services."""
        raise NotImplementedError

    def prepare(self) -> None:
        """Compute the oracles (harness work, not part of set-up time)."""
        raise NotImplementedError

    def close(self) -> None:
        """Stop every service and release every source."""

    # -- the op sequence
    def passes(self, client: int) -> Iterator[List[Op]]:
        """The endless sequence of passes one client runs."""
        raise NotImplementedError

    def perform(self, op: Op, run: Callable) -> Sample:
        """Run one op through ``run``: ``direct_request`` or the tracer's."""
        with self.live(op) as live:
            return run(self, live, op)

    @contextmanager
    def live(self, op: Op) -> Iterator[Live]:
        """The running service an op is sent to."""
        raise NotImplementedError
        yield  # pragma: no cover

    def end_pass(self) -> None:
        """Called by each client after each of its passes."""
        self.idle()

    def idle(self) -> None:
        """No request is in flight: drain the logs, let the harness look."""
        self.drain_logs()
        self.on_idle()

    def drain_logs(self) -> None:
        """Fold the sources' access logs into the totals and clear them.

        Once per pass, so that what the program accumulates without
        bound -- the sources' access logs and the services' aggregate
        ``ExecStats`` -- never becomes the benchmark's memory: peak RSS
        would otherwise grow with the number of requests, and a faster
        program would read as a hungrier one.  Not safe beside a
        running request.
        """
        for source in self.sources():
            self.accesses += source.total_invocations
            self.charged_cost += source.charged_cost()
            source.reset_log()
        for service in self.services():
            if service.stats is not None:
                service.stats = ExecStats()

    def services(self) -> List[QueryService]:
        """The long-lived services of this workload."""
        return []

    def sources(self) -> List:
        """The long-lived sources whose logs :meth:`drain_logs` drains."""
        return [service.source for service in self.services()]

    def service_counts(self) -> Dict[str, int]:
        """``ServiceHealth`` counters summed over every service used."""
        counts = dict(self._closed_counts)
        for service in self.services():
            _add_health(counts, service.health())
        return counts

    # -- accounting
    def note_plan(self, op: Op, plan: Plan, live: Live) -> None:
        """Remember the plan the service used for this request class."""
        self.plans[op.key] = PlanUse(
            plan, live.service.source.schema, op.bindings, live.query
        )

    def plan_cost_sum(self) -> float:
        """Static cost of the plan last used for each request class."""
        return sum(
            SimpleCostFunction.from_schema(use.schema).plan_cost(use.plan)
            for use in self.plans.values()
        )

    def probe_source(self, key: str):
        """An unwrapped source the probes can run one class's plan on."""
        raise NotImplementedError

    def violations(self, requests: int) -> List[str]:
        """Broken workload invariants after ``requests`` direct requests."""
        return []

    def data_seed(self, problem: Problem) -> int:
        """The instance seed of one problem (see ``Problem.seeded_data``)."""
        return self.seed if problem.seeded_data else 0


def _scenario_oracle(scenario: Scenario, instance: Instance) -> frozenset:
    return frozenset(instance.evaluate(scenario.query))


# ------------------------------------------------------------------ plan_cold
class PlanCold(Workload):
    """Planner, chase and logic do the work; execution is about 1 ms.

    Every request rebuilds its scenario from the factory, so the schema
    and query objects are fresh and nothing memoized on them survives:
    this is what a user's first sight of a query pays.
    """

    name = "plan_cold"
    PROBLEMS = (
        Problem("example1", "other", example1, 6, seeded_data=False),
        Problem("example2", "other", example2, 6),
        Problem("example5[3]", "example5", lambda: example5(3), 6),
        Problem("example5[6]", "example5", lambda: example5(6), 7),
        Problem("example5[8]", "example5", lambda: example5(8), 6),
        Problem("example5[10]", "example5", lambda: example5(10), 6),
        Problem("chain[8]", "other", lambda: referential_chain(8), 10),
        Problem("pathviews[6]", "pathviews", lambda: path_views(6), 8, False),
        Problem("pathviews[12]", "pathviews", lambda: path_views(12), 14, False),
        Problem("webservices", "other", webservices, 8),
        Problem("views[8]", "views", lambda: view_stack_scenario(8), 6),
        Problem("views[16]", "views", lambda: view_stack_scenario(16), 6),
        Problem("views[32]", "views", lambda: view_stack_scenario(32), 6),
    )

    def __init__(self, seed, wrap_source=unwrapped) -> None:
        super().__init__(seed, wrap_source)
        self.instances: Dict[str, Instance] = {}
        self._ops: List[Op] = []

    def setup(self) -> None:
        self.instances = {
            p.key: p.factory().instance(self.data_seed(p))
            for p in self.PROBLEMS
        }

    def prepare(self) -> None:
        for problem in self.PROBLEMS:
            scenario = problem.factory()
            self._ops.append(
                Op(
                    problem.key,
                    problem.family,
                    text=query_text(scenario.query),
                    oracle=_scenario_oracle(
                        scenario, self.instances[problem.key]
                    ),
                    problem=problem,
                )
            )

    def passes(self, client: int) -> Iterator[List[Op]]:
        rng = random.Random(f"{self.name}:{self.seed}")
        while True:
            ops = list(self._ops)
            rng.shuffle(ops)
            yield ops

    @contextmanager
    def live(self, op: Op) -> Iterator[Live]:
        scenario = op.problem.factory()
        source = self.wrap_source(
            InMemorySource(scenario.schema, self.instances[op.key])
        )
        service = QueryService(
            source, workers=1, plan_cache=None, name=op.key
        ).start()
        try:
            yield Live(
                service,
                query=scenario.query,
                options=SearchOptions(max_accesses=op.problem.max_accesses),
            )
        finally:
            service.shutdown()
            _add_health(self._closed_counts, service.health())
            self.accesses += source.total_invocations
            self.charged_cost += source.charged_cost()

    def probe_source(self, key: str):
        return InMemorySource(self.plans[key].schema, self.instances[key])

    def violations(self, requests: int) -> List[str]:
        planned = self.service_counts()["planned"]
        if planned != requests:
            return [
                f"plan_cold must search on every request: planned="
                f"{planned}, requests={requests}"
            ]
        return []


# ------------------------------------------------------------------ warm, 1 client
def row_heavy_workload(n: int) -> Tuple[Schema, Instance, Plan]:
    """The join-heavy plan of ``benchmarks/bench_execution.py``, copied.

    Two full scans feed a selected, projected join where every key
    matches ``100 * n`` row pairs, so middleware row-pair work dwarfs
    the accesses: the regime where the executor, not the source, is
    the cost.
    """
    keys = max(1, n // 100)
    schema = (
        SchemaBuilder("rowheavy")
        .relation("R", 2)
        .relation("S", 2)
        .access("mt_R", "R", inputs=[], cost=1.0)
        .access("mt_S", "S", inputs=[], cost=1.0)
        .build()
    )
    instance = Instance(
        {
            "R": [(f"a{i}", f"b{i % keys}") for i in range(n)],
            "S": [(f"b{i % keys}", f"c{i}") for i in range(n)],
        }
    )
    plan = Plan(
        (
            AccessCommand(
                "T_R", "mt_R", Singleton(), (), identity_output_map(("a", "b"))
            ),
            AccessCommand(
                "T_S", "mt_S", Singleton(), (), identity_output_map(("b", "c"))
            ),
            MiddlewareCommand(
                "OUT",
                Project(
                    Select(
                        Join(Scan("T_R"), Scan("T_S")),
                        (
                            EqConst("c", Constant("c1")),
                            NeqConst("a", Constant("a0")),
                        ),
                    ),
                    ("a", "c"),
                ),
            ),
        ),
        "OUT",
        name=f"rowheavy-{n}",
    )
    return schema, instance, plan


def _row_heavy_oracle(instance: Instance) -> frozenset:
    by_key: Dict[Constant, List[Constant]] = {}
    for b, c in instance.tuples("S"):
        if c == Constant("c1"):
            by_key.setdefault(b, []).append(c)
    return frozenset(
        (a, c)
        for a, b in instance.tuples("R")
        if a != Constant("a0")
        for c in by_key.get(b, ())
    )


class _WarmSingleClient(Workload):
    """Five request classes over long-lived services, plans cached."""

    PROBLEMS: Tuple[Problem, ...] = ()
    ROW_HEAVY: Optional[int] = None

    def __init__(self, seed, wrap_source=unwrapped) -> None:
        super().__init__(seed, wrap_source)
        self.plan_cache: Optional[PlanCache] = None
        self._targets: Dict[str, Tuple[Live, Instance, Optional[Scenario]]] = {}
        self._ops: List[Op] = []
        self._submit_query_calls = 0

    def make_source(self, schema: Schema, instance: Instance):
        """The backend this workload reads through."""
        raise NotImplementedError

    def setup(self) -> None:
        self.plan_cache = PlanCache()
        for problem in self.PROBLEMS:
            scenario = problem.factory()
            instance = scenario.instance(self.data_seed(problem))
            live = Live(
                self._start(problem.key, scenario.schema, instance),
                query=scenario.query,
                options=SearchOptions(max_accesses=problem.max_accesses),
            )
            self._targets[problem.key] = (live, instance, scenario)
        if self.ROW_HEAVY is not None:
            schema, instance, plan = row_heavy_workload(self.ROW_HEAVY)
            live = Live(self._start("row_heavy", schema, instance), plan=plan)
            self._targets["row_heavy"] = (live, instance, None)
        # Warm: one untimed request per class fills the plan cache and
        # lets each source build whatever it builds on first use.
        for key, (live, _, _) in self._targets.items():
            direct_request(self, live, Op(key, "", oracle=frozenset()))
        for source in self.sources():
            source.reset_log()
        self._warm_lookups = self._lookups()

    def _start(self, key: str, schema: Schema, instance: Instance):
        source = self.wrap_source(self.make_source(schema, instance))
        return QueryService(
            source, workers=1, plan_cache=self.plan_cache, name=key
        ).start()

    def _lookups(self) -> int:
        return self.plan_cache.hits + self.plan_cache.misses

    def prepare(self) -> None:
        families = {p.key: p.family for p in self.PROBLEMS}
        for key, (live, instance, scenario) in self._targets.items():
            if scenario is None:
                self._ops.append(
                    Op(key, "other", oracle=_row_heavy_oracle(instance))
                )
            else:
                self._ops.append(
                    Op(
                        key,
                        families[key],
                        text=query_text(scenario.query),
                        oracle=_scenario_oracle(scenario, instance),
                    )
                )

    def passes(self, client: int) -> Iterator[List[Op]]:
        rng = random.Random(f"{self.name}:{self.seed}")
        while True:
            ops = list(self._ops)
            rng.shuffle(ops)
            yield ops

    @contextmanager
    def live(self, op: Op) -> Iterator[Live]:
        live = self._targets[op.key][0]
        if live.plan is None:
            self._submit_query_calls += 1
        yield live

    def services(self) -> List[QueryService]:
        return [live.service for live, _, _ in self._targets.values()]

    def probe_source(self, key: str):
        return bare(self._targets[key][0].service.source)

    def violations(self, requests: int) -> List[str]:
        out = []
        lookups = self._lookups() - self._warm_lookups
        if lookups != self._submit_query_calls:
            out.append(
                f"plan-cache hits + misses ({lookups}) != submit_query "
                f"calls ({self._submit_query_calls})"
            )
        for service in self.services():
            planned = service.health().planned
            if planned > 1:
                out.append(
                    f"{service.name}: searched {planned} times with a "
                    f"warm plan cache"
                )
        return out

    def close(self) -> None:
        for service in self.services():
            service.shutdown()
            closer = getattr(service.source, "close", None)
            if callable(closer):
                closer()


class ExecRows(_WarmSingleClient):
    """``plans.expressions`` and ``exec`` do the work.

    Planning is a cache hit and the source is in memory, so what is
    left is the executor: middleware joins and per-tuple dispatch.
    """

    name = "exec_rows"
    ROW_HEAVY = 1500
    PROBLEMS = (
        Problem("webservices", "other", lambda: webservices(10, 100, 3), 8),
        Problem(
            "example5[3]",
            "example5",
            lambda: example5(3, professors=1000, noise_per_source=2000),
            6,
        ),
        Problem("views[3]", "views", lambda: view_stack_scenario(3, rows=5000), 6),
        Problem(
            "pathviews[6]",
            "pathviews",
            lambda: path_views(6, entries=50, fanout=3),
            8,
            seeded_data=False,
        ),
    )

    def make_source(self, schema, instance):
        return InMemorySource(schema, instance)


class AccessSqlite(_WarmSingleClient):
    """``sources`` does the work: every access is a SQLite statement.

    Single-input methods take the ``access_batch`` path, wider ones
    fall back to per-key ``access``, so a change to either shows.
    """

    name = "access_sqlite"
    PROBLEMS = (
        Problem("webservices", "other", lambda: webservices(10, 40, 2), 8),
        Problem(
            "pathviews[4]",
            "pathviews",
            lambda: path_views(4, entries=40, fanout=3),
            8,
            seeded_data=False,
        ),
        Problem("example2", "other", lambda: example2(directory_size=30), 6),
        Problem(
            "example5[3]",
            "example5",
            lambda: example5(3, professors=350, noise_per_source=700),
            6,
        ),
        Problem(
            "example1", "other", lambda: example1(1000, 2000), 6, False
        ),
    )

    def make_source(self, schema, instance):
        return SQLiteSource(schema, instance, path=":memory:")


# ------------------------------------------------------------------ serve_mix
class WriterGate:
    """Many requests or one writer; a waiting writer goes first."""

    def __init__(self) -> None:
        self._cond = threading.Condition()
        self._readers = 0
        self._writing = False
        self._writers_waiting = 0

    @contextmanager
    def read(self) -> Iterator[None]:
        """Hold the gate as one of many concurrent requests."""
        with self._cond:
            while self._writing or self._writers_waiting:
                self._cond.wait()
            self._readers += 1
        try:
            yield
        finally:
            with self._cond:
                self._readers -= 1
                self._cond.notify_all()

    @contextmanager
    def write(self) -> Iterator[None]:
        """Hold the gate alone."""
        with self._cond:
            self._writers_waiting += 1
            while self._writing or self._readers:
                self._cond.wait()
            self._writers_waiting -= 1
            self._writing = True
        try:
            yield
        finally:
            with self._cond:
                self._writing = False
                self._cond.notify_all()


class ServeMix(Workload):
    """Service, plan-cache lookup, substitution and the access cache.

    Small requests where per-request overhead is a large share: two
    closed-loop clients, one cached plan with many bindings, a tenth
    of requests with the literal inlined under a fresh variable name
    (a new canonical text, so Algorithm 1 runs on the submitting
    thread), and a write beside the reads.
    """

    name = "serve_mix"
    clients = 2
    VENUES = 200
    #: Share of requests that miss the plan cache.  A tenth, not a
    #: twentieth: p95 must sit inside the miss population, not on the
    #: boundary between hits and misses.
    INLINED = 0.10
    PASS_OPS = 100
    #: Each client writes every 400th of its own requests, half a
    #: period apart: one write per 200 requests overall.
    WRITE_EVERY = 400
    TEMPLATE = "venue0"

    def __init__(self, seed, wrap_source=unwrapped) -> None:
        super().__init__(seed, wrap_source)
        self.gate = WriterGate()
        self.mutations = 0
        self._submitted = 0
        self._count_lock = threading.Lock()
        self._oracles: Dict[str, frozenset] = {}

    @staticmethod
    def _query(venue: str, suffix: str = "") -> ConjunctiveQuery:
        d = f"?d{suffix}"
        return cq(
            ["?t", "?a"],
            [("Articles", [d, "?t", venue]), ("AuthorOf", [d, "?a"])],
            name="Qvenue",
        )

    def setup(self) -> None:
        scenario = webservices(self.VENUES, 10, 2)
        self.instance = scenario.instance(self.seed)
        self.access_cache = AccessCache(1024)
        self.plan_cache = PlanCache()
        source = self.wrap_source(InMemorySource(scenario.schema, self.instance))
        service = QueryService(
            source,
            workers=2,
            plan_cache=self.plan_cache,
            cache=self.access_cache,
            name=self.name,
        ).start()
        self.target = Live(
            service,
            query=self._query(self.TEMPLATE),
            options=SearchOptions(max_accesses=8),
        )
        self._template_text = query_text(self.target.query)
        # Warm: one untimed request per venue caches the template's
        # plan, builds the source's indexes and brings the access cache
        # and the allocator to the state the timed run keeps them in.
        for v in range(self.VENUES):
            direct_request(
                self,
                self.target,
                Op("bound", "", bindings={self.TEMPLATE: f"venue{v}"}, oracle=frozenset()),
            )
        source.reset_log()
        self._warm_lookups = self.plan_cache.hits + self.plan_cache.misses
        self._warm_served = service.health().served

    def prepare(self) -> None:
        # The writes only touch Venues, which the query does not read,
        # so one oracle per venue holds for the whole run.
        for v in range(self.VENUES):
            venue = f"venue{v}"
            self._oracles[venue] = frozenset(
                self.instance.evaluate(self._query(venue))
            )

    def passes(self, client: int) -> Iterator[List[Op]]:
        rng = random.Random(f"{self.name}:{self.seed}:{client}")
        ranked = [f"venue{v}" for v in range(self.VENUES)]
        random.Random(f"{self.name}:{self.seed}:rank").shuffle(ranked)
        weights = [1.0 / rank for rank in range(1, self.VENUES + 1)]
        phase = (self.WRITE_EVERY // self.clients) * client
        count = 0
        while True:
            ops = []
            for venue in rng.choices(ranked, weights, k=self.PASS_OPS):
                count += 1
                mutate = count % self.WRITE_EVERY == phase
                if rng.random() < self.INLINED:
                    query = self._query(venue, f"_{client}_{count}")
                    op = Op("inlined", "other", query_text(query), query)
                else:
                    op = Op(
                        "bound",
                        "other",
                        self._template_text,
                        bindings={self.TEMPLATE: venue},
                    )
                op.oracle = self._oracles[venue]
                op.mutate = mutate
                ops.append(op)
            yield ops

    def perform(self, op: Op, run: Callable) -> Sample:
        live = Live(
            self.target.service,
            op.query if op.query is not None else self.target.query,
            options=self.target.options,
        )
        with self._count_lock:
            self._submitted += 1
        if not op.mutate:
            with self.gate.read():
                return run(self, live, op)
        # The request after a write runs under the writer gate too, so
        # it is always that request which pays the re-index and the
        # emptied access cache.
        with self.gate.write():
            self.idle()
            self.instance.add("Venues", (f"zz_{self.mutations}",))
            self.mutations += 1
            sample = run(self, live, op)
        sample.post_mutation = True
        return sample

    def end_pass(self) -> None:
        """The idle moments are under the writer gate, not between passes."""

    def services(self) -> List[QueryService]:
        return [self.target.service]

    def probe_source(self, key: str):
        return bare(self.target.service.source)

    def violations(self, requests: int) -> List[str]:
        out = []
        health = self.target.service.health()
        served = health.served - self._warm_served
        if served + health.shed + health.rejected != self._submitted:
            out.append(
                f"served {served} + shed {health.shed} + rejected "
                f"{health.rejected} != submitted {self._submitted}"
            )
        lookups = (
            self.plan_cache.hits + self.plan_cache.misses - self._warm_lookups
        )
        if lookups != self._submitted:
            out.append(
                f"plan-cache hits + misses ({lookups}) != submit_query "
                f"calls ({self._submitted})"
            )
        return out

    def close(self) -> None:
        self.target.service.shutdown()


WORKLOADS = {
    cls.name: cls for cls in (PlanCold, ExecRows, AccessSqlite, ServeMix)
}
