"""Unit tests for cost functions and their monotonicity."""

from dataclasses import dataclass

import pytest

from repro.cost.functions import (
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
from repro.schema.core import SchemaBuilder


@dataclass
class FanInCost(SimpleCostFunction):
    """A toy cardinality cost, monotone and not additive: the i-th
    access command (1-based) costs its method's weight plus
    ``per_tuple`` for each of the i rows its input is taken to hold
    (one row, and one more for every access before it).

    What an access adds depends on the prefix before it, as with any
    cost that is not a sum of fixed per-command charges; the search
    must accept it all the same (the paper's cost is a monotone black
    box).  Every input holds at least one row, so the cheapest weight
    plus one tuple charge is a sound ``min_access_charge``.
    """

    per_tuple: float = 0.5

    def commands_cost(self, commands):
        """Each access's weight plus ``per_tuple`` times its position."""
        accesses = (c for c in commands if isinstance(c, AccessCommand))
        return float(sum(
            self.per_method.get(c.method, self.default)
            + self.per_tuple * position
            for position, c in enumerate(accesses, 1)
        ))

    def identity(self):
        """The weights plus the tuple charge."""
        return {**super().identity(), "per_tuple": float(self.per_tuple)}

    def min_access_charge(self):
        """The cheapest weight plus one tuple charge."""
        return super().min_access_charge() + max(0.0, self.per_tuple)


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
    """The search's non-additive checks run on :class:`FanInCost`."""

    def test_charges_per_access_plus_fanin(self, commands):
        cost = FanInCost({"cheap": 1.0, "pricey": 10.0}, per_tuple=0.1)
        # One input row for the first access, two for the second.
        assert cost.commands_cost(commands) == pytest.approx(
            (1.0 + 0.1) + (10.0 + 0.1 * 2)
        )

    def test_larger_input_costs_more(self):
        cost = FanInCost({"big": 1.0, "probe": 2.0}, per_tuple=0.5)
        alone = cost.commands_cost([access("A", "probe")])
        chained = [
            access("A", "big"),
            access("B", "probe", Project(Scan("A"), ("A_p0",)), ("A_p0",)),
        ]
        after = cost.commands_cost(chained) - cost.commands_cost(chained[:1])
        # The same access adds 2.5 first and 3.0 behind another one.
        assert (alone, after) == (pytest.approx(2.5), pytest.approx(3.0))

    def test_monotone(self, commands):
        assert is_monotone_on(FanInCost({"cheap": 1.0}), commands)

    def test_method_cost_probe(self):
        cost = FanInCost({}, default=2.0, per_tuple=0.5)
        assert cost.method_cost("anything") == pytest.approx(2.5)


class TestMonotonicityChecker:
    def test_detects_non_monotone(self, commands):
        class Bogus(CountingCostFunction):
            def commands_cost(self, cmds):
                return -float(len(cmds))

        assert not is_monotone_on(Bogus(), commands)


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
        cost = FanInCost({"cheap": 0.5}, default=2.0, per_tuple=0.25)
        assert cost.min_access_charge() == pytest.approx(0.75)

    def test_charge_really_is_a_lower_bound(self, commands):
        for cost in (
            SimpleCostFunction({"cheap": 1.0, "pricey": 10.0}),
            CountingCostFunction(),
            FanInCost({"cheap": 1.0, "pricey": 10.0}),
        ):
            floor = cost.min_access_charge()
            total = 0.0
            for end in range(1, len(commands) + 1):
                previous, total = total, cost.commands_cost(commands[:end])
                if isinstance(commands[end - 1], AccessCommand):
                    assert total - previous >= floor - 1e-9


def test_the_cost_package_exports_the_interface_and_two_costs():
    import repro.cost

    assert repro.cost.__all__ == [
        "CostFunction",
        "CountingCostFunction",
        "SimpleCostFunction",
        "is_monotone_on",
    ]
