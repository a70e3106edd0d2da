"""End-to-end runtime soundness: every execution mode equals the truth.

The runtime counterpart of the PR 1/2 differential oracles: for every
scenario in :mod:`repro.scenarios` whose query has a complete plan, the
plan executed over an :class:`InMemorySource` -- naive scan, indexed,
cached, indexed+cached, with and without temp freeing, and through the
columnar and differential executors -- returns exactly
``Instance.evaluate(query)``.
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

SCENARIOS = [
    ("example1", example1, 3),
    ("example2", example2, 4),
    ("example5", example5, 4),
    ("chain2", lambda: referential_chain(2), 4),
    ("views", view_stack_scenario, 4),
    ("webservices", webservices, 5),
]


def _answers(scenario, output):
    """Plan output normalized for comparison against the query answer."""
    if scenario.query.is_boolean:
        return bool(output.rows)
    return set(output.rows)


@pytest.mark.parametrize(
    "name,factory,budget", SCENARIOS, ids=[s[0] for s in SCENARIOS]
)
def test_every_execution_mode_is_complete(name, factory, budget):
    scenario = factory()
    result = find_best_plan(
        scenario.schema, scenario.query, SearchOptions(max_accesses=budget)
    )
    if not result.found:
        pytest.skip(f"{name}: no complete plan within {budget} accesses")
    plan = result.best_plan
    instance = scenario.instance(0)
    truth = (
        bool(instance.evaluate(scenario.query))
        if scenario.query.is_boolean
        else instance.evaluate(scenario.query)
    )

    # Plan.run frees no temporary table; every execute() below does.
    naive_source = InMemorySource(scenario.schema, instance, indexed=False)
    naive = plan.run(naive_source)
    assert _answers(scenario, naive) == truth

    modes = {
        "indexed": dict(indexed=True, cache=None),
        "cached": dict(indexed=False, cache=AccessCache()),
        "indexed+cached": dict(indexed=True, cache=AccessCache()),
        "indexed+charged": dict(
            indexed=True, cache=AccessCache(charge_hits=True)
        ),
    }
    for executor in ("interpreter", "columnar", "differential"):
        for mode, config in modes.items():
            source = InMemorySource(
                scenario.schema, instance, indexed=config["indexed"]
            )
            output = plan.execute(
                source,
                ExecutionContext(cache=config["cache"]),
                executor=executor,
            )
            assert output.attributes == naive.attributes, (executor, mode)
            assert output.rows == naive.rows, (executor, mode)
            assert _answers(scenario, output) == truth, (executor, mode)


@pytest.mark.parametrize(
    "name,factory,budget", SCENARIOS, ids=[s[0] for s in SCENARIOS]
)
def test_executors_agree_under_injected_faults(name, factory, budget):
    """Fault schedules are keyed by (method, inputs), not dispatch
    order, so columnar's different access ordering must not change the
    answer -- every executor retries through the same transients."""
    scenario = factory()
    result = find_best_plan(
        scenario.schema, scenario.query, SearchOptions(max_accesses=budget)
    )
    if not result.found:
        pytest.skip(f"{name}: no complete plan within {budget} accesses")
    plan = result.best_plan
    instance = scenario.instance(0)
    reference = plan.execute(InMemorySource(scenario.schema, instance))
    for executor in ("interpreter", "columnar", "differential"):
        clock = VirtualClock()
        source = FaultInjectingSource(
            InMemorySource(scenario.schema, instance),
            FaultPolicy.transient(0.3, seed=11),
            clock=clock,
        )
        dispatcher = ResilientDispatcher(
            retry=RetryPolicy(max_attempts=6, seed=11),
            breakers=BreakerRegistry(clock=clock),
            sleep=clock.sleep,
        )
        output = plan.execute(
            source,
            ExecutionContext(resilience=dispatcher),
            executor=executor,
        )
        assert output.rows == reference.rows, executor


@pytest.mark.parametrize(
    "name,factory,budget", SCENARIOS, ids=[s[0] for s in SCENARIOS]
)
def test_differential_with_charged_cache(name, factory, budget):
    """charge_hits metering must not break differential agreement."""
    scenario = factory()
    result = find_best_plan(
        scenario.schema, scenario.query, SearchOptions(max_accesses=budget)
    )
    if not result.found:
        pytest.skip(f"{name}: no complete plan within {budget} accesses")
    plan = result.best_plan
    instance = scenario.instance(0)
    reference = plan.execute(InMemorySource(scenario.schema, instance))
    output = plan.execute(
        InMemorySource(scenario.schema, instance),
        ExecutionContext(cache=AccessCache(charge_hits=True)),
        executor="differential",
    )
    assert output.rows == reference.rows


@pytest.mark.parametrize("seed", [1, 2])
def test_repeated_batch_execution_stays_sound(seed):
    """Cache reuse across repeated runs never changes an answer."""
    scenario = example5(sources=3, professors=15, noise_per_source=30)
    result = find_best_plan(
        scenario.schema, scenario.query, SearchOptions(max_accesses=4)
    )
    assert result.found
    instance = scenario.instance(seed)
    source = InMemorySource(scenario.schema, instance)
    cache = AccessCache()
    outputs = [
        result.best_plan.execute(
            source,
            ExecutionContext(cache=cache),
        ) for _ in range(3)
    ]
    reference = result.best_plan.run(
        InMemorySource(scenario.schema, instance, indexed=False)
    )
    for output in outputs:
        assert output.rows == reference.rows
