"""One budget object, many requests: a budget is configuration.

A :class:`ResourceBudget` is frozen and records nothing, so one object
may govern any number of requests on either execution tier; what a
request's answer lost to it is that request's own ``truncated_rows``.
"""

import pytest

from repro.data.source import InMemorySource
from repro.exec import ResourceBudget
from repro.planner.search import SearchOptions, find_best_plan
from repro.scenarios import example1
from repro.service import ProcessWorkerPool, QueryService


@pytest.fixture(scope="module")
def served():
    scenario = example1()
    plan = find_best_plan(
        scenario.schema, scenario.query, SearchOptions(max_accesses=3)
    ).best_plan
    source = InMemorySource(scenario.schema, scenario.instance(0))
    rows = len(plan.execute(source).rows)
    assert rows > 1
    return source, plan, rows


def assert_each_dropped_one(responses, rows):
    for response in responses:
        assert response.error is None, response.describe()
        assert response.partial and not response.complete
        assert response.truncated_rows == 1
        assert len(response.table.rows) == rows - 1


@pytest.mark.timeout(120)
@pytest.mark.parametrize("tier", ["in-process", "process"])
def test_one_budget_served_three_times_reports_each_request(served, tier):
    source, plan, rows = served
    budget = ResourceBudget(max_result_rows=rows - 1)
    pool = (
        ProcessWorkerPool(source, workers=2, start_method="fork")
        if tier == "process"
        else None
    )
    with QueryService(source, workers=3, worker_pool=pool) as service:
        sequential = [
            service.serve(plan, budget=budget, timeout=60) for _ in range(3)
        ]
        tickets = [service.submit(plan, budget=budget) for _ in range(3)]
        concurrent = [ticket.result(60) for ticket in tickets]
    assert_each_dropped_one(sequential, rows)
    assert_each_dropped_one(concurrent, rows)
    assert budget == ResourceBudget(max_result_rows=rows - 1)
