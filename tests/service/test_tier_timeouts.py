"""The process tier's request path: its timeout table and races.

``ProcessWorkerPool.run_request`` maps a request that answered within
neither its deadline nor the watchdog to one typed error.  The table
below is that mapping on the process tier (fork): {the request's
deadline is the nearer bound, the watchdog is} x {the request is
queued behind busy workers, it is running}.  Every cell sets a
watchdog, and every cell checks that the slot comes back: the next
request answers.

The race tests pin what a request meets when another request replaced
the executor it took (a watchdog kill or a crash recovery in between):
a refused submit, or a queued request cancelled by the replace, is the
typed :class:`~repro.errors.WorkerCrashed` every other request on the
replaced executor gets -- never a bare ``RuntimeError`` or
``CancelledError`` that the service can only call an unexpected
failure.
"""

import inspect
import time

import pytest

from repro.data.decorators import StormyLatencySource
from repro.data.source import InMemorySource
from repro.errors import DeadlineExceeded, WorkerCrashed, WorkerStalled
from repro.plans.ir import plan_to_ir
from repro.service import LatencyTracker, ProcessWorkerPool, QueryService
from tests.service.test_workers import (
    simple_instance,
    simple_plan,
    simple_schema,
)

#: The slow access and each blocker: longer than every bound below.
SLOW = 0.7

#: The nearer bound -> (the request's timeout, the pool's watchdog).
BOUNDS = {"deadline": (0.25, 5.0), "watchdog": (30.0, 0.35)}

#: (tier, nearer bound, copy) -> (error, killed, stalls, watchdog_kills,
#: restarts).  A tier with a watchdog kills a running request's pool
#: even when the request's own deadline was the nearer bound.
TABLE = {
    ("process", "deadline", "queued"): (DeadlineExceeded, None, 0, 0, 0),
    ("process", "deadline", "running"): (DeadlineExceeded, None, 0, 1, 1),
    ("process", "watchdog", "queued"): (WorkerStalled, False, 1, 0, 0),
    ("process", "watchdog", "running"): (WorkerStalled, True, 1, 1, 1),
}


def stormy_source(slow_every):
    """Every ``slow_every``-th access sleeps ``SLOW`` (per process)."""
    return StormyLatencySource(
        InMemorySource(simple_schema(), simple_instance()),
        base_latency=0.0,
        slow_latency=SLOW,
        slow_every=slow_every,
    )


def one_worker_pool(source, **resilience):
    return ProcessWorkerPool(
        source, workers=1, start_method="fork", **resilience
    )


@pytest.mark.timeout(120)
@pytest.mark.parametrize("tier, nearer, copy", list(TABLE))
def test_a_timeout_maps_to_one_typed_error(tier, nearer, copy):
    error, killed, stalls, kills, restarts = TABLE[tier, nearer, copy]
    timeout, watchdog = BOUNDS[nearer]
    source = stormy_source(slow_every=3)
    payload = {"plan": plan_to_ir(simple_plan(source.schema))}
    with one_worker_pool(source, watchdog_seconds=watchdog) as pool:
        pool._executor.submit(int).result(timeout=60)  # boot the worker
        blockers = []
        if copy == "running":
            # Accesses 1-2 are fast; the next request's first access is
            # the slow third.
            assert pool.run_request(payload, timeout=60)["ok"]
        else:
            blockers = busy_workers(pool)
        with pytest.raises(error) as excinfo:
            pool.run_request(payload, timeout=timeout)
        if error is WorkerStalled:
            assert excinfo.value.killed is killed
            if copy == "queued":
                assert "all workers busy" in str(excinfo.value)
        health = pool.health()
        assert (
            health["stalls"],
            health["watchdog_kills"],
            health["restarts"],
        ) == (stalls, kills, restarts)
        # The slot comes back: a no-op reaches a worker, and the next
        # request answers.
        for blocker in blockers:
            blocker.result(timeout=60)
        pool._executor.submit(int).result(timeout=60)
        assert pool.run_request(payload, timeout=60)["ok"]
        assert pool.backlog() == 0


def busy_workers(pool):
    """Blockers that keep the one worker busy for ``SLOW`` seconds.

    A process pool moves up to workers + 1 calls into its call queue,
    where they can no longer be cancelled, so a request queued behind
    busy workers needs three in front of it.
    """
    return [pool._executor.submit(time.sleep, SLOW) for _ in range(3)]


@pytest.mark.timeout(120)
def test_a_submit_refused_by_a_replaced_executor_is_typed():
    """What a concurrent watchdog kill or crash recovery does to a
    request between taking the executor and submitting to it: the held
    executor is shut down and is no longer the pool's."""
    source = stormy_source(slow_every=100)
    plan = simple_plan(source.schema)
    pool = one_worker_pool(source)
    with QueryService(source, workers=1, worker_pool=pool) as service:
        held = pool._executor
        real_submit = held.submit

        def submit(*args, **kwargs):
            held.submit = real_submit
            with pool._lock:
                pool._executor = None
            held.shutdown(wait=False)
            return real_submit(*args, **kwargs)

        held.submit = submit
        response = service.serve(plan, timeout=60)
        assert isinstance(response.error, WorkerCrashed), response.error
        # The request that met the replace is the only casualty.
        assert service.serve(plan, timeout=60).ok


@pytest.mark.timeout(60)
def test_a_queued_copy_cancelled_by_a_replace_is_typed():
    source = stormy_source(slow_every=100)
    payload = {"plan": plan_to_ir(simple_plan(source.schema))}
    with one_worker_pool(source) as pool:
        held = pool._executor
        held.submit(int).result(timeout=60)  # boot the worker
        busy_workers(pool)
        real_submit = held.submit

        def submit(*args, **kwargs):
            future = real_submit(*args, **kwargs)  # queued behind them
            with pool._lock:
                pool._executor = None
            held.shutdown(wait=False, cancel_futures=True)
            return future

        held.submit = submit
        with pytest.raises(WorkerCrashed):
            pool.run_request(payload, timeout=30)
        assert pool.run_request(payload, timeout=30)["ok"]


def test_a_tier_is_an_executor_a_submit_and_a_reclaim_rule():
    """One class, no base and no hooks: the process pool's executor,
    its submit and its reclaim rule (kill the pool) sit beside the
    request path, the timeout table and the lifecycle, and the settable
    values are the ones it needs (5 -> 4: the hedge delay moved to
    :class:`~repro.data.decorators.HedgedSource`; the latency tracker
    has none)."""
    assert ProcessWorkerPool.__mro__ == (ProcessWorkerPool, object)
    settable = {
        tier: list(inspect.signature(tier).parameters)
        for tier in (ProcessWorkerPool, LatencyTracker)
    }
    assert settable == {
        ProcessWorkerPool: [
            "source", "workers", "start_method", "watchdog_seconds",
        ],
        LatencyTracker: [],
    }
