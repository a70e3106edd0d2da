"""Spec round trips for the real backends, alone and under wrappers.

The process tier ships sources across the process boundary as plain
JSON-able *specs*.  The new backends must survive that trip: a worker
rehydrating ``spec_to_source(json.loads(json.dumps(source_to_spec(s))))``
has to answer byte-identically to the original -- including when the
backend sits under the Latency / FaultInjecting wrapper stacks the
chaos matrix uses.  Transports that cannot describe themselves are
rejected with a typed :class:`SourceSpecError`, never pickled.
"""

import json

import pytest

from repro.data.decorators import LatencySource
from repro.data.instance import Instance
from repro.data.source import InMemorySource
from repro.errors import SourceUnavailable
from repro.faults import FaultInjectingSource, FaultPolicy
from repro.planner.search import SearchOptions, find_best_plan
from repro.scenarios import example1
from repro.service import (
    ProcessWorkerPool,
    QueryService,
    SourceSpecError,
    source_to_spec,
    spec_to_source,
)
from repro.sources import HTTPSource, SQLiteSource, StubTransport

_NO_SLEEP = lambda _seconds: None  # noqa: E731


def round_trip(source):
    """The exact trip a worker takes: spec -> JSON text -> source."""
    return spec_to_source(json.loads(json.dumps(source_to_spec(source))))


def scenario_fixture():
    scenario = example1(professors=8, directory_extra=3)
    return scenario.schema, scenario.instance(0)


def sqlite_backend(schema, instance):
    return SQLiteSource(schema, instance, sleep=_NO_SLEEP)


def http_backend(schema, instance):
    return HTTPSource(StubTransport(schema, instance, page_size=3))


BACKENDS = [("sqlite", sqlite_backend), ("http", http_backend)]


class TestBackendRoundTrip:
    @pytest.mark.parametrize("name,build", BACKENDS)
    def test_bare_backend_survives_the_json_trip(self, name, build):
        schema, instance = scenario_fixture()
        original = build(schema, instance)
        rebuilt = round_trip(original)
        assert type(rebuilt) is type(original)
        reference = InMemorySource(schema, instance)
        assert rebuilt.access("mt_udir") == reference.access("mt_udir")
        assert rebuilt.access("mt_prof", ("e1",)) == reference.access(
            "mt_prof", ("e1",)
        )

    @pytest.mark.parametrize("name,build", BACKENDS)
    def test_latency_wrapper_stack_survives_and_answers_identically(
        self, name, build
    ):
        schema, instance = scenario_fixture()
        stacked = LatencySource(build(schema, instance), 0.0)
        rebuilt = round_trip(stacked)
        assert isinstance(rebuilt, LatencySource)
        assert type(rebuilt.inner) is type(stacked.inner)
        assert rebuilt.access("mt_prof", ("e2",)) == InMemorySource(
            schema, instance
        ).access("mt_prof", ("e2",))

    @pytest.mark.parametrize("name,build", BACKENDS)
    def test_fault_wrapper_replays_the_same_schedule(self, name, build):
        schema, instance = scenario_fixture()
        policy = FaultPolicy(seed=7, unavailable_rate=1.0, burst=1)
        stacked = FaultInjectingSource(build(schema, instance), policy)
        rebuilt = round_trip(stacked)
        assert isinstance(rebuilt, FaultInjectingSource)
        assert rebuilt.policy == policy
        # Faults key on (seed, method, inputs): both copies fault on
        # the first attempt and answer identically on the retry.
        for copy in (stacked, rebuilt):
            with pytest.raises(SourceUnavailable):
                copy.access("mt_prof", ("e1",))
        assert stacked.access("mt_prof", ("e1",)) == rebuilt.access(
            "mt_prof", ("e1",)
        )

    def test_http_config_fields_round_trip(self):
        schema, instance = scenario_fixture()
        transport = StubTransport(
            schema,
            instance,
            page_size=2,
            rate_limit=500.0,
            burst=4.0,
            fault_policy=FaultPolicy(seed=5, timeout_rate=0.25, burst=2),
        )
        rebuilt = round_trip(
            HTTPSource(transport, max_retry_after_waits=3)
        )
        assert rebuilt.max_retry_after_waits == 3
        assert rebuilt.transport.page_size == 2
        assert rebuilt.transport.rate_limit == 500.0
        assert rebuilt.transport.fault_policy.seed == 5
        assert rebuilt.transport.fault_policy.burst == 2

    def test_sqlite_lifecycle_knobs_round_trip(self):
        schema, instance = scenario_fixture()
        rebuilt = round_trip(
            SQLiteSource(
                schema,
                instance,
                max_reconnects=2,
                backoff=0.005,
                drop_every=3,
                sleep=_NO_SLEEP,
            )
        )
        assert rebuilt.max_reconnects == 2
        assert rebuilt.backoff == pytest.approx(0.005)
        assert rebuilt.drop_every == 3


class TestUnspecable:
    def test_opaque_transport_is_rejected_with_a_typed_error(self):
        class OpaqueTransport:
            """A live-socket stand-in: no spec_config, not shippable."""

            def __init__(self, schema, instance):
                self.schema = schema
                self.instance = instance

            def request(self, verb, path, params):
                """Never reached by the spec check."""
                raise AssertionError("spec check must reject first")

        schema, instance = scenario_fixture()
        source = HTTPSource(OpaqueTransport(schema, instance))
        with pytest.raises(SourceSpecError, match="is not spec-able"):
            source_to_spec(source)

    def test_unknown_source_type_is_rejected(self):
        with pytest.raises(SourceSpecError):
            source_to_spec(object())


class TestProcessTierEndToEnd:
    @pytest.mark.parametrize("start_method", ["spawn", "fork"])
    @pytest.mark.parametrize("name,build", BACKENDS)
    def test_workers_rehydrate_backends_and_agree_with_the_oracle(
        self, name, build, start_method
    ):
        scenario = example1(professors=8, directory_extra=3)
        result = find_best_plan(
            scenario.schema, scenario.query, SearchOptions(max_accesses=3)
        )
        assert result.found
        plan = result.best_plan
        instance = scenario.instance(0)
        reference = plan.execute(
            InMemorySource(scenario.schema, instance)
        )
        source = build(scenario.schema, instance)
        pool = ProcessWorkerPool(
            source, workers=1, start_method=start_method
        )
        with QueryService(source, workers=1, worker_pool=pool) as svc:
            response = svc.serve(plan, timeout=300)
        assert response.complete, response.describe()
        assert response.table.attributes == reference.attributes
        assert sorted(map(repr, response.table.rows)) == sorted(
            map(repr, reference.rows)
        )
