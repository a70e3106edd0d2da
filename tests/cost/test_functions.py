"""Unit tests for cost functions and their monotonicity."""

import pytest

from repro.cost.functions import (
    CardinalityCostFunction,
    CostFunction,
    CountingCostFunction,
    SimpleCostFunction,
    is_monotone_on,
)
from repro.plans.commands import (
    AccessCommand,
    MiddlewareCommand,
    identity_output_map,
)
from repro.plans.expressions import Join, Project, Scan, Singleton
from repro.plans.plan import Plan
from repro.schema.core import SchemaBuilder


def access(target, method, expr=None, attrs=()):
    return AccessCommand(
        target,
        method,
        expr if expr is not None else Singleton(),
        attrs,
        identity_output_map((f"{target}_p0", f"{target}_p1")),
    )


@pytest.fixture
def commands():
    return [
        access("T1", "cheap"),
        MiddlewareCommand("T2", Project(Scan("T1"), ("T1_p0",))),
        access("T3", "pricey"),
        MiddlewareCommand("T4", Join(Scan("T2"), Scan("T3"))),
    ]


class TestSimpleCost:
    def test_sums_per_method_weights(self, commands):
        cost = SimpleCostFunction({"cheap": 1.0, "pricey": 10.0})
        assert cost.commands_cost(commands) == pytest.approx(11.0)

    def test_default_for_unknown_method(self, commands):
        cost = SimpleCostFunction({}, default=3.0)
        assert cost.commands_cost(commands) == pytest.approx(6.0)

    def test_middleware_free(self):
        cost = SimpleCostFunction({"m": 1.0})
        only_mw = [MiddlewareCommand("T", Singleton())]
        assert cost.commands_cost(only_mw) == 0.0

    def test_repeated_method_charged_per_command(self):
        cost = SimpleCostFunction({"m": 2.0})
        cmds = [access("A", "m"), access("B", "m")]
        assert cost.commands_cost(cmds) == pytest.approx(4.0)

    def test_from_schema_uses_declared_costs(self):
        schema = (
            SchemaBuilder("s")
            .relation("R", 2)
            .access("mt", "R", inputs=[], cost=7.5)
            .build()
        )
        cost = SimpleCostFunction.from_schema(schema)
        assert cost.method_cost("mt") == pytest.approx(7.5)

    def test_monotone(self, commands):
        cost = SimpleCostFunction({"cheap": 1.0, "pricey": 10.0})
        assert is_monotone_on(cost, commands)


class TestCountingCost:
    def test_counts_access_commands(self, commands):
        assert CountingCostFunction().commands_cost(commands) == 2.0

    def test_monotone(self, commands):
        assert is_monotone_on(CountingCostFunction(), commands)


class TestCardinalityCost:
    def test_charges_per_access_plus_fanin(self, commands):
        cost = CardinalityCostFunction(
            relation_cardinality={"cheap": 100, "pricey": 10},
            per_access=1.0,
            per_tuple=0.1,
        )
        value = cost.commands_cost(commands)
        # Two accesses with singleton fan-in (1 row each).
        assert value == pytest.approx(2.0 + 0.1 * 2)

    def test_larger_input_costs_more(self):
        cost = CardinalityCostFunction(
            relation_cardinality={"big": 1000, "probe": 10},
            per_access=1.0,
            per_tuple=0.01,
        )
        cheap = [access("A", "probe")]
        chained = [
            access("A", "big"),
            access(
                "B", "probe", Project(Scan("A"), ("A_p0",)), ("A_p0",)
            ),
        ]
        assert cost.commands_cost(chained) > cost.commands_cost(cheap)

    def test_monotone(self, commands):
        cost = CardinalityCostFunction(relation_cardinality={})
        assert is_monotone_on(cost, commands)

    def test_method_cost_probe(self):
        cost = CardinalityCostFunction(
            relation_cardinality={}, per_access=2.0, per_tuple=0.5
        )
        assert cost.method_cost("anything") == pytest.approx(2.5)


class TestMonotonicityChecker:
    def test_detects_non_monotone(self, commands):
        class Bogus(CountingCostFunction):
            def commands_cost(self, cmds):
                return -float(len(cmds))

        assert not is_monotone_on(Bogus(), commands)


class TestSelectSelectivity:
    def selective_commands(self):
        from repro.plans.expressions import EqConst, Select
        from repro.logic.terms import Constant

        return [
            access("A", "big"),
            access(
                "B",
                "probe",
                Select(Scan("A"), (EqConst("A_p0", Constant("v")),)),
                ("A_p0",),
            ),
        ]

    def test_selectivity_scales_the_fan_in(self):
        lax = CardinalityCostFunction(
            relation_cardinality={"big": 1000},
            per_tuple=0.01,
            select_selectivity=1.0,
        )
        tight = CardinalityCostFunction(
            relation_cardinality={"big": 1000},
            per_tuple=0.01,
            select_selectivity=0.1,
        )
        commands = self.selective_commands()
        assert tight.commands_cost(commands) < lax.commands_cost(commands)

    def test_default_matches_historic_half(self):
        default = CardinalityCostFunction(relation_cardinality={"big": 1000})
        explicit = CardinalityCostFunction(
            relation_cardinality={"big": 1000}, select_selectivity=0.5
        )
        commands = self.selective_commands()
        assert default.commands_cost(commands) == pytest.approx(
            explicit.commands_cost(commands)
        )


class TestParameterValidation:
    """Satellite: estimator knobs are validated at construction."""

    @pytest.mark.parametrize("value", [0.0, -0.25, 1.5, 2.0])
    def test_select_selectivity_outside_unit_interval_rejected(self, value):
        from repro.errors import InvalidCostParameter, ReproError

        with pytest.raises(InvalidCostParameter) as info:
            CardinalityCostFunction(
                relation_cardinality={}, select_selectivity=value
            )
        assert isinstance(info.value, ReproError)
        assert info.value.parameter == "select_selectivity"
        assert info.value.value == value

    @pytest.mark.parametrize("value", [0.0, -1.0, 1.0000001])
    def test_join_selectivity_outside_unit_interval_rejected(self, value):
        from repro.errors import InvalidCostParameter

        with pytest.raises(InvalidCostParameter):
            CardinalityCostFunction(
                relation_cardinality={}, join_selectivity=value
            )

    def test_negative_charges_rejected(self):
        from repro.errors import InvalidCostParameter

        with pytest.raises(InvalidCostParameter):
            CardinalityCostFunction(relation_cardinality={}, per_access=-1.0)
        with pytest.raises(InvalidCostParameter):
            CardinalityCostFunction(relation_cardinality={}, per_tuple=-0.1)
        with pytest.raises(InvalidCostParameter):
            CardinalityCostFunction(
                relation_cardinality={}, per_method_access={"mt": -2.0}
            )

    def test_default_cardinality_floor(self):
        from repro.errors import InvalidCostParameter

        with pytest.raises(InvalidCostParameter):
            CardinalityCostFunction(
                relation_cardinality={}, default_cardinality=0
            )

    def test_boundary_values_accepted(self):
        CardinalityCostFunction(
            relation_cardinality={},
            select_selectivity=1.0,
            join_selectivity=1.0,
            per_access=0.0,
            per_tuple=0.0,
            default_cardinality=1,
        )


class TestMinAccessCharge:
    def test_base_class_claims_nothing(self):
        class Opaque(CostFunction):
            def commands_cost(self, commands):
                return 0.0

        assert Opaque().min_access_charge() == 0.0

    def test_counting_charges_one(self):
        assert CountingCostFunction().min_access_charge() == 1.0

    def test_simple_takes_cheapest_weight(self):
        cost = SimpleCostFunction({"a": 3.0, "b": 0.5}, default=2.0)
        assert cost.min_access_charge() == pytest.approx(0.5)
        assert SimpleCostFunction({}).min_access_charge() == 1.0

    def test_cardinality_adds_one_tuple_charge(self):
        cost = CardinalityCostFunction(
            relation_cardinality={},
            per_access=2.0,
            per_tuple=0.25,
            per_method_access={"cheap": 0.5},
        )
        assert cost.min_access_charge() == pytest.approx(0.75)

    def test_charge_really_is_a_lower_bound(self, commands):
        for cost in (
            SimpleCostFunction({"cheap": 1.0, "pricey": 10.0}),
            CountingCostFunction(),
            CardinalityCostFunction(relation_cardinality={}),
        ):
            floor = cost.min_access_charge()
            total = 0.0
            for end in range(1, len(commands) + 1):
                previous, total = total, cost.commands_cost(commands[:end])
                if isinstance(commands[end - 1], AccessCommand):
                    assert total - previous >= floor - 1e-9


class TestCalibratedEstimates:
    def make_calibration(self, fan_out):
        from repro.cost.calibration import CalibrationStore

        store = CalibrationStore()
        store.observe(
            "cheap",
            dispatched=10,
            fetched=10 * int(fan_out),
            emitted=10 * int(fan_out),
        )
        return store

    def test_calibrated_fan_out_replaces_flat_guess(self):
        chained = [
            access("A", "cheap"),
            access("B", "probe", Project(Scan("A"), ("A_p0",)), ("A_p0",)),
        ]
        flat = CardinalityCostFunction(
            relation_cardinality={}, per_tuple=0.1, default_cardinality=100
        )
        calibrated = CardinalityCostFunction(
            relation_cardinality={},
            per_tuple=0.1,
            default_cardinality=100,
            calibration=self.make_calibration(fan_out=3),
        )
        # Flat: B's fan-in is the 100-row default guess for A's output;
        # calibrated: 3 emitted rows per dispatched tuple * 1 dispatched.
        assert flat.commands_cost(chained) == pytest.approx(2.0 + 0.1 + 10.0)
        assert calibrated.commands_cost(chained) == pytest.approx(
            2.0 + 0.1 + 0.3
        )

    def test_per_method_access_weights(self):
        cost = CardinalityCostFunction(
            relation_cardinality={},
            per_access=1.0,
            per_tuple=0.0,
            per_method_access={"pricey": 10.0},
        )
        cmds = [access("A", "cheap"), access("B", "pricey")]
        assert cost.commands_cost(cmds) == pytest.approx(11.0)

    def test_calibration_moves_the_identity(self):
        store = self.make_calibration(fan_out=2)
        cost = CardinalityCostFunction(
            relation_cardinality={}, calibration=store
        )
        before = cost.identity()
        store.observe("cheap", dispatched=1, fetched=5, emitted=5)
        assert cost.identity() != before

    def test_monotone_with_calibration(self, commands):
        cost = CardinalityCostFunction(
            relation_cardinality={},
            calibration=self.make_calibration(fan_out=5),
        )
        assert is_monotone_on(cost, commands)
