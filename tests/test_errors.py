"""The consolidated error hierarchy: altitudes, context, old aliases."""

import pytest

from repro import errors


class TestHierarchy:
    def test_every_error_is_a_repro_error_and_runtime_error(self):
        for name in errors.__all__:
            cls = getattr(errors, name)
            assert issubclass(cls, errors.ReproError), name
            assert issubclass(cls, RuntimeError), name

    def test_transient_kinds_are_access_errors(self):
        for cls in (
            errors.SourceUnavailable,
            errors.AccessTimeout,
            errors.RateLimited,
            errors.ResultTruncated,
        ):
            assert issubclass(cls, errors.TransientAccessError)
            assert issubclass(cls, errors.AccessError)

    def test_permanent_kinds_are_not_transient(self):
        for cls in (
            errors.MethodOutage,
            errors.AccessViolation,
            errors.CircuitOpen,
        ):
            assert issubclass(cls, errors.AccessError)
            assert not issubclass(cls, errors.TransientAccessError)

    def test_catching_access_error_catches_all_source_failures(self):
        with pytest.raises(errors.AccessError):
            raise errors.SourceUnavailable("down", method="mt")
        with pytest.raises(errors.AccessError):
            raise errors.MethodOutage("dead", method="mt")


class TestContext:
    def test_message_carries_method_relation_inputs(self):
        error = errors.AccessTimeout(
            "too slow", method="mt_prof", relation="Profinfo", inputs=("e1",)
        )
        assert error.method == "mt_prof"
        assert error.relation == "Profinfo"
        assert error.inputs == ("e1",)
        text = str(error)
        assert "too slow" in text
        assert "method=mt_prof" in text
        assert "relation=Profinfo" in text
        assert "inputs=('e1',)" in text

    def test_context_free_message_is_unwrapped(self):
        assert str(errors.AccessError("plain")) == "plain"

    def test_truncation_carries_partial_rows(self):
        error = errors.ResultTruncated(
            "cut", rows=frozenset({(1,)}), method="mt"
        )
        assert error.rows == frozenset({(1,)})

    def test_chase_budget_carries_partial_stats(self):
        # A spent chase budget is no error: the run returns truncated,
        # with the stats it gathered.
        from repro.chase import ChasePolicy, chase_to_fixpoint
        from repro.chase.configuration import ChaseConfiguration
        from repro.logic.atoms import Atom
        from repro.logic.dependencies import parse_tgd
        from repro.logic.terms import Constant, NullFactory

        pair = (Constant("a"), Constant("b"))
        config = ChaseConfiguration([Atom("R", pair)])
        result = chase_to_fixpoint(
            config,
            [parse_tgd("R(x, y) -> R(y, z)")],
            NullFactory("t"),
            ChasePolicy(max_work=7),
        )
        assert not result.reached_fixpoint
        assert result.stats.hom.candidates_scanned > 7
        assert not any("Chase" in name for name in errors.__all__)


class TestAliases:
    def test_old_import_locations_still_work(self):
        from repro.data.decorators import SourceUnavailable
        from repro.data.source import AccessViolation

        assert AccessViolation is errors.AccessViolation
        assert SourceUnavailable is errors.SourceUnavailable

    def test_rebased_layer_errors(self):
        from repro.planner.plan_state import PlanningError
        from repro.plans.expressions import EvaluationError

        assert issubclass(EvaluationError, errors.ExecutionError)
        assert issubclass(PlanningError, errors.ReproError)

    def test_source_violation_now_carries_context(self):
        from repro.data.instance import Instance
        from repro.data.source import InMemorySource
        from repro.schema.core import SchemaBuilder

        schema = (
            SchemaBuilder("s")
            .relation("R", 2)
            .access("mt_key", "R", inputs=[0])
            .build()
        )
        source = InMemorySource(schema, Instance({"R": [("a", "b")]}))
        with pytest.raises(
            errors.AccessViolation, match=r"method mt_key needs 1 inputs"
        ) as excinfo:
            source.access("mt_key", ())
        assert excinfo.value.method == "mt_key"
        assert excinfo.value.relation == "R"


class TestWorkerTierErrors:
    def test_worker_stalled_is_a_service_error_with_context(self):
        error = errors.WorkerStalled("stuck", stalls=3, killed=True)
        assert issubclass(errors.WorkerStalled, errors.ServiceError)
        assert error.stalls == 3
        assert error.killed is True
        with pytest.raises(errors.ServiceError):
            raise error

    def test_worker_stalled_defaults_to_unkilled(self):
        error = errors.WorkerStalled("leaked thread")
        assert error.stalls == 0
        assert error.killed is False

    def test_worker_crashed_carries_restart_count(self):
        error = errors.WorkerCrashed("died", restarts=2)
        assert error.restarts == 2
        assert issubclass(errors.WorkerCrashed, errors.ServiceError)

    def test_no_viable_plan_carries_the_dead_set(self):
        error = errors.NoViablePlan("all dead", dead_methods=("mt_a",))
        assert error.dead_methods == ("mt_a",)
        assert issubclass(errors.NoViablePlan, errors.ExecutionError)
