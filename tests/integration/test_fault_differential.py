"""Differential oracle for the fault stack: resilience changes nothing.

The acceptance bar of the fault-tolerance PR: for every scenario with a
complete plan, executing under a seeded fault schedule *with retries*
yields byte-identical tables to the fault-free reference, and failing
over around a hard outage yields the same certain answers (Proposition
2: every complete plan computes the certain answers, whichever methods
it uses).
"""

import pytest

from repro.data.source import InMemorySource
from repro.exec import (
    AccessCache,
    BreakerRegistry,
    ExecutionContext,
    ResilientDispatcher,
    RetryPolicy,
)
from repro.faults import FaultInjectingSource, FaultPolicy, VirtualClock
from repro.planner.search import SearchOptions, find_best_plan
from repro.scenarios import (
    example1,
    example2,
    example5,
    referential_chain,
    view_stack_scenario,
    webservices,
)
from repro.service import QueryService

SCENARIOS = [
    ("example1", example1, 3),
    ("example2", example2, 4),
    ("example5", example5, 4),
    ("chain2", lambda: referential_chain(2), 4),
    ("views", view_stack_scenario, 4),
    ("webservices", webservices, 5),
]

FAULT_SEED = 13


def planned(factory, budget):
    scenario = factory()
    result = find_best_plan(
        scenario.schema, scenario.query, SearchOptions(max_accesses=budget)
    )
    if not result.found:
        pytest.skip("no complete plan within the access budget")
    return scenario, result.best_plan


def faulty_source(scenario, policy, clock=None):
    return FaultInjectingSource(
        InMemorySource(scenario.schema, scenario.instance(0)),
        policy,
        clock=clock,
    )


def resilient(retries=4, clock=None):
    clock = clock or VirtualClock()
    return ResilientDispatcher(
        retry=RetryPolicy(max_attempts=retries + 1, seed=FAULT_SEED),
        breakers=BreakerRegistry(clock=clock),
        sleep=clock.sleep,
    )


def serve_with_failover(scenario, source):
    """One ``serve_query`` over a one-worker service on a virtual clock."""
    clock = VirtualClock()
    with QueryService(
        source,
        workers=1,
        retry=RetryPolicy(max_attempts=5, seed=FAULT_SEED),
        clock=clock,
    ) as service:
        return service.serve_query(scenario.query, timeout=60)


def canonical(table):
    """A byte-comparable rendering of a table: sorted row reprs."""
    return (table.attributes, tuple(sorted(map(repr, table.rows))))


@pytest.mark.parametrize(
    "name,factory,budget", SCENARIOS, ids=[s[0] for s in SCENARIOS]
)
@pytest.mark.parametrize("rate", [0.2, 0.5])
def test_faulty_run_with_retries_is_byte_identical(name, factory, budget, rate):
    scenario, plan = planned(factory, budget)
    reference = plan.execute(
        InMemorySource(scenario.schema, scenario.instance(0))
    )
    policy = FaultPolicy.transient(rate, seed=FAULT_SEED)
    source = faulty_source(scenario, policy)
    dispatcher = resilient()
    output = plan.execute(source, ExecutionContext(resilience=dispatcher))
    assert canonical(output) == canonical(reference)
    assert dispatcher.giveups == 0
    # The schedule actually bit on at least one scenario-rate combo; the
    # per-case assertion is just that recovery was total.
    assert dispatcher.faults == dispatcher.retries


@pytest.mark.parametrize(
    "name,factory,budget", SCENARIOS[:3], ids=[s[0] for s in SCENARIOS[:3]]
)
def test_fault_bursts_recover_with_enough_retries(name, factory, budget):
    scenario, plan = planned(factory, budget)
    reference = plan.execute(
        InMemorySource(scenario.schema, scenario.instance(0))
    )
    policy = FaultPolicy.transient(0.4, seed=FAULT_SEED, burst=2)
    output = plan.execute(
        faulty_source(scenario, policy),
        ExecutionContext(resilience=resilient(retries=4)),
    )
    assert canonical(output) == canonical(reference)


def test_fault_schedule_and_backoff_are_reproducible():
    scenario, plan = planned(example5, 4)

    def trace():
        clock = VirtualClock()
        source = faulty_source(
            scenario,
            FaultPolicy.transient(0.5, seed=FAULT_SEED),
            clock=clock,
        )
        dispatcher = resilient(clock=clock)
        table = plan.execute(source, ExecutionContext(resilience=dispatcher))
        return (
            canonical(table),
            source.stats.as_dict(),
            dispatcher.retries,
            dispatcher.backoff_waited,
            clock.now(),
        )

    assert trace() == trace()


def test_cache_and_resilience_compose():
    scenario, plan = planned(example5, 4)
    reference = plan.execute(
        InMemorySource(scenario.schema, scenario.instance(0))
    )
    source = faulty_source(
        scenario, FaultPolicy.transient(0.3, seed=FAULT_SEED)
    )
    output = plan.execute(
        source,
        ExecutionContext(cache=AccessCache(), resilience=resilient()),
    )
    assert canonical(output) == canonical(reference)


@pytest.mark.parametrize("victim", ["mt_udirect1", "mt_udirect2", "mt_udirect3"])
def test_failover_returns_the_same_certain_answers(victim):
    scenario, plan = planned(example5, 4)
    reference = plan.execute(
        InMemorySource(scenario.schema, scenario.instance(0))
    )
    source = faulty_source(scenario, FaultPolicy.outage(victim))
    outcome = serve_with_failover(scenario, source)
    assert outcome.complete
    assert canonical(outcome.table) == canonical(reference)


@pytest.mark.parametrize(
    "name,factory,budget", SCENARIOS, ids=[s[0] for s in SCENARIOS]
)
def test_partial_answers_are_sound(name, factory, budget):
    """Killing the first method of the best plan degrades soundly.

    Whatever the outcome -- a failover plan or a marked partial answer
    -- every returned row is a true answer of the query on the hidden
    instance.
    """
    scenario, plan = planned(factory, budget)
    first_access = next(
        command.method
        for command in plan.commands
        if hasattr(command, "method")
    )
    instance = scenario.instance(0)
    truth = instance.evaluate(scenario.query)
    source = FaultInjectingSource(
        InMemorySource(scenario.schema, instance),
        FaultPolicy.outage(first_access),
    )
    outcome = serve_with_failover(scenario, source)
    assert outcome.ok, outcome.describe()
    assert set(outcome.table.rows) <= truth or scenario.query.is_boolean
    if outcome.complete:
        if scenario.query.is_boolean:
            assert bool(outcome.table.rows) == bool(truth)
        else:
            assert set(outcome.table.rows) == truth
