"""One execution context, one command loop, one request runner (PR 21).

(a) the context's wire form is pinned by
    ``tests/service/golden/request_payload.json`` (key order included);
    ``PYTHONPATH=src python -m tests.exec.test_context`` rewrites the
    file, which is only right for a change that means to alter it;
(b) it round-trips budgets, retry policies and deadlines without a
    per-class codec;
(c) the four runners -- in-process service, ``execute_payload`` of a
    bare wire form and of one that ships a retry policy and a deadline,
    a direct ``run_request`` call, all on the interpreter -- agree on
    rows, truncation, access log and command stats, and so does
    ``Plan.execute`` on either engine (the columnar one dispatches the
    same accesses in its own order);
(d) the columnar engine takes the interpreter's batch branch;
(e) the signatures that used to thread eight arguments take the
    context, and the service keeps the settable values it has.
"""

import inspect
import json
from dataclasses import dataclass
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data.source import InMemorySource
from repro.exec import (
    AccessCache,
    BreakerRegistry,
    Deadline,
    ExecStats,
    ExecutionContext,
    ResilientDispatcher,
    ResourceBudget,
    RetryPolicy,
    run_request,
)
from repro.exec.columnar import ColumnarPlan, compile_columnar, execute_differential
from repro.logic.terms import Constant
from repro.planner.search import SearchOptions, find_best_plan
from repro.plans.commands import AccessCommand, MiddlewareCommand
from repro.plans.ir import plan_to_ir, table_from_ir
from repro.plans.plan import Plan
from repro.service import QueryService
from repro.service.workers import execute_payload
from repro.sources import SQLiteSource
from tests.exec.test_access_bind import SCENARIOS

GOLDEN_PATH = (
    Path(__file__).parent.parent / "service" / "golden" / "request_payload.json"
)
EXECUTORS = ("interpreter", "columnar")


# ------------------------------------------------------------ (a) golden
def full_context():
    """Every shippable field set; a frozen clock makes ``deadline`` exact."""
    return ExecutionContext(
        cache=AccessCache(),
        stats=ExecStats(),
        resilience=ResilientDispatcher(
            retry=RetryPolicy(
                max_attempts=5,
                base_delay=0.02,
                multiplier=3.0,
                max_delay=1.5,
                jitter=0.25,
                seed=7,
            ),
            breakers=BreakerRegistry(),
            deadline=Deadline(2.5, clock=lambda: 100.0),
            sleep=lambda seconds: None,
        ),
        budget=ResourceBudget(max_result_rows=10, on_result_overflow="error"),
    )


def test_wire_form_is_the_golden_file():
    """Byte for byte: a reordered, renamed or dropped field fails."""
    written = json.dumps(full_context().to_payload(), indent=1) + "\n"
    assert written == GOLDEN_PATH.read_text()
    assert tuple(json.loads(written)) == ExecutionContext.wire_fields


def test_what_is_process_local_stays_behind():
    context = full_context()
    context.truncated_rows = 3  # one run's outcome, not configuration
    payload = context.to_payload()
    json.dumps(payload)  # plain data: no cache, breakers, sleep
    assert set(payload) == {"collect_stats", "budget", "retry", "deadline"}
    assert "retry_on" not in payload["retry"]  # a tuple of classes
    assert ExecutionContext().to_payload() == {
        "collect_stats": False, "budget": None, "retry": None, "deadline": None,
    }
    rebuilt = ExecutionContext.from_payload(payload)
    assert rebuilt.cache is None
    assert rebuilt.resilience.sleep is None
    assert rebuilt.truncated_rows == 0
    assert rebuilt.stats is not full_context().stats


# -------------------------------------------------------- (b) round trip
budgets = st.one_of(
    st.none(),
    st.builds(
        ResourceBudget,
        max_result_rows=st.none() | st.integers(0, 10**6),
        on_result_overflow=st.sampled_from(["truncate", "error"]),
    ),
)
retries = st.one_of(
    st.none(),
    st.builds(
        RetryPolicy,
        max_attempts=st.integers(1, 9),
        base_delay=st.floats(0, 1),
        multiplier=st.floats(1, 4),
        max_delay=st.floats(0, 10),
        jitter=st.floats(0, 1),
        seed=st.integers(0, 2**31),
    ),
)
deadlines = st.none() | st.floats(0.5, 1e6)


@settings(max_examples=60, deadline=None)
@given(budget=budgets, retry=retries, seconds=deadlines)
def test_payload_round_trip(budget, retry, seconds):
    sent = ExecutionContext(
        stats=ExecStats(),
        resilience=ResilientDispatcher(
            retry=retry,
            deadline=(
                Deadline(seconds, clock=lambda: 0.0)
                if seconds is not None
                else None
            ),
        ),
        budget=budget,
    )
    got = ExecutionContext.from_payload(json.loads(json.dumps(sent.to_payload())))
    assert got.stats is not None and got.stats is not sent.stats
    assert got.budget == budget  # the ceiling and the overflow policy
    assert got.budget is None or got.budget is not budget
    assert got.retry == retry
    if retry is not None:
        inputs = (Constant("k"), Constant(3))
        for attempt in range(1, retry.max_attempts + 1):
            assert got.retry.delay(attempt, "mt", inputs) == retry.delay(
                attempt, "mt", inputs
            )
    if seconds is None:
        assert got.resilience.deadline is None and got.deadline is None
    else:
        # Restarted on the receiver's clock with what the sender had left.
        assert got.resilience.deadline.seconds == seconds
        assert 0 < got.deadline <= seconds


def test_a_new_retry_field_ships_without_a_codec():
    @dataclass(frozen=True)
    class CappedRetry(RetryPolicy):
        total_cap: float = 30.0

    class CappedContext(ExecutionContext):
        wire_types = {**ExecutionContext.wire_types, "retry": CappedRetry}

    sent = CappedContext(
        resilience=ResilientDispatcher(retry=CappedRetry(seed=3, total_cap=4.5))
    )
    payload = json.loads(json.dumps(sent.to_payload()))
    assert payload["retry"]["total_cap"] == 4.5
    assert CappedContext.from_payload(payload).retry == CappedRetry(
        seed=3, total_cap=4.5
    )
    # A receiver that does not know the field drops it and keeps the rest.
    assert ExecutionContext.from_payload(payload).retry == RetryPolicy(seed=3)


# ----------------------------------------------- (c) four runners, one run
def planned(factory, budget):
    scenario = factory()
    result = find_best_plan(
        scenario.schema, scenario.query, SearchOptions(max_accesses=budget)
    )
    assert result.found, scenario.name
    return scenario, result.best_plan


def books(stats):
    """``CommandStats`` modulo wall time."""
    return [
        {k: v for k, v in command.as_dict().items() if k != "wall_time"}
        for command in stats.commands
    ]


def run_the_runners(scenario, plan, engine, budget):
    """name -> (sorted rows, truncated rows, access log, command stats).

    The four runners serve through the interpreter; the fifth entry,
    ``"Plan.execute"``, runs ``engine`` -- the one way to reach the
    columnar engine.
    """
    instance = scenario.instance(0)
    fresh = lambda: InMemorySource(scenario.schema, instance)
    seen = {}

    source = fresh()
    with QueryService(source, workers=1) as service:
        response = service.submit(plan, budget=budget).result(30)
    assert response.ok, response.error
    seen["service"] = (
        sorted(response.table.rows), response.truncated_rows,
        list(source.log), books(response.stats),
    )

    for wire, resilience in (
        ("bare", None),
        ("retry, deadline", ResilientDispatcher(
            retry=RetryPolicy(seed=3), deadline=Deadline(30.0)
        )),
    ):
        source = fresh()
        context = ExecutionContext(
            stats=ExecStats(), resilience=resilience, budget=budget
        )
        result = execute_payload(
            source,
            json.loads(json.dumps({
                "plan": plan_to_ir(plan), **context.to_payload(),
            })),
        )
        assert result["ok"], result
        seen[f"execute_payload ({wire})"] = (
            sorted(table_from_ir(result["table"]).rows), result["truncated"],
            list(source.log), books(ExecStats.from_dict(result["stats"])),
        )

    source = fresh()
    context = ExecutionContext(stats=ExecStats(), budget=budget)
    table = run_request(source, plan, None, context)
    seen["direct"] = (
        sorted(table.rows), context.truncated_rows,
        list(source.log), books(context.stats),
    )

    source = fresh()
    context = ExecutionContext(stats=ExecStats(), budget=budget)
    table = plan.execute(source, context, executor=engine)
    seen["Plan.execute"] = (
        sorted(table.rows), context.truncated_rows,
        list(source.log), books(context.stats),
    )
    return seen


def unordered(outcome):
    """``outcome`` with its access log as a multiset: the columnar engine
    dispatches the interpreter's accesses in an order of its own."""
    rows, truncated, log, stats = outcome
    return rows, truncated, sorted(map(repr, log)), stats


@pytest.mark.timeout(120)
@pytest.mark.parametrize("engine", EXECUTORS)
@pytest.mark.parametrize(
    "name,factory,accesses", SCENARIOS, ids=[s[0] for s in SCENARIOS]
)
def test_the_four_runners_agree(name, factory, accesses, engine):
    scenario, plan = planned(factory, accesses)
    full = run_the_runners(scenario, plan, engine, None)
    reference = full["direct"]
    assert reference[2], "the plan made no access"
    assert unordered(full.pop("Plan.execute")) == unordered(reference)
    for runner, outcome in full.items():
        assert outcome == reference, runner
    rows = len(reference[0])
    if rows < 2:
        return
    cut = run_the_runners(
        scenario, plan, engine, ResourceBudget(max_result_rows=rows // 2)
    )
    assert unordered(cut.pop("Plan.execute")) == unordered(cut["direct"])
    for runner, outcome in cut.items():
        assert outcome == cut["direct"], runner
    assert cut["direct"][0] == reference[0][: rows // 2]
    assert cut["direct"][1] == rows - rows // 2


# ------------------------------------------- (d) one batch-or-per-key step
@pytest.mark.parametrize(
    "name,factory,accesses", SCENARIOS[:3], ids=[s[0] for s in SCENARIOS[:3]]
)
def test_columnar_batches_over_sqlite_like_the_interpreter(
    name, factory, accesses
):
    scenario, plan = planned(factory, accesses)
    instance = scenario.instance(0)
    counts = {}
    for executor in EXECUTORS:
        source = SQLiteSource(scenario.schema, instance)
        table = plan.execute(source, executor=executor)
        counts[executor] = (
            source._statements, source.total_invocations, sorted(table.rows)
        )
    assert counts["columnar"] == counts["interpreter"]
    statements, accesses_made, _ = counts["columnar"]
    assert statements < accesses_made  # was one statement per key


# ------------------------------------------------------- (e) signatures
def parameters(function):
    return [p for p in inspect.signature(function).parameters if p != "self"]


def test_the_signatures_take_the_context():
    assert parameters(Plan.execute) == ["source", "context", "executor"]
    assert parameters(ColumnarPlan.execute) == ["source", "context"]
    assert parameters(execute_differential) == ["plan", "source", "context"]
    compiled = compile_columnar(planned(SCENARIOS[0][1], SCENARIOS[0][2])[1])
    for command in (AccessCommand, MiddlewareCommand, *map(type, compiled.commands)):
        # The command loop hands every command the request's bindings.
        assert parameters(command.execute) == [
            "env", "source", "context", "bindings",
        ]
    with pytest.raises(TypeError):
        Plan.execute(None, None, cache=AccessCache())
    # 19 -> 16 -> 14 -> 12 -> 11 -> 10 settable values: the source and
    # nine keywords (the breakers and the backoff sleep derive from
    # ``clock``; the service runs the interpreter, feeds no cost model,
    # shares a frozen budget as it is passed and refuses nothing on a
    # static size bound).
    assert parameters(QueryService.__init__) == [
        "source", "workers", "max_queue", "cache", "retry",
        "default_deadline", "clock", "name",
        "worker_pool", "plan_cache",
    ]


def test_a_payload_naming_the_interpreter_still_runs():
    """A sender that still ships ``"executor": "interpreter"`` is served:
    the key is ignored, like any key the wire form does not know."""
    scenario, plan = planned(SCENARIOS[0][1], SCENARIOS[0][2])
    instance = scenario.instance(0)
    reference = plan.execute(InMemorySource(scenario.schema, instance))
    result = execute_payload(
        InMemorySource(scenario.schema, instance),
        {"plan": plan_to_ir(plan), "executor": "interpreter",
         "collect_stats": True},
    )
    assert result["ok"], result
    assert table_from_ir(result["table"]).rows == reference.rows


if __name__ == "__main__":
    GOLDEN_PATH.write_text(
        json.dumps(full_context().to_payload(), indent=1) + "\n"
    )
    print(f"wrote {GOLDEN_PATH}")
