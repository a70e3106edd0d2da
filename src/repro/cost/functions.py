"""Concrete cost functions over plans and command sequences.

All cost functions expose two entry points:

* :meth:`CostFunction.plan_cost` -- the cost of a complete plan,
* :meth:`CostFunction.commands_cost` -- the cost of a command prefix,
  which is what Algorithm 1 charges partial plans with during search.

Monotonicity (appending commands never decreases cost) is what makes the
cost-bound pruning of Section 5 sound; :func:`is_monotone_on` provides a
programmatic spot-check used by the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, Mapping, Optional, Sequence

from repro.cost.calibration import CalibrationStore
from repro.errors import InvalidCostParameter
from repro.plans.commands import AccessCommand, Command, MiddlewareCommand
from repro.plans.expressions import (
    Difference,
    Expression,
    Join,
    Project,
    Rename,
    Scan,
    Select,
    Singleton,
    Union as UnionExpr,
)
from repro.plans.plan import Plan
from repro.schema.core import Schema


class CostFunction:
    """Base class: a monotone real-valued cost on command sequences."""

    def commands_cost(self, commands: Sequence[Command]) -> float:
        """Monotone cost of a command prefix."""
        raise NotImplementedError

    def plan_cost(self, plan: Plan) -> float:
        """Cost of a complete plan (defaults to its command list)."""
        return self.commands_cost(plan.commands)

    def method_cost(self, method_name: str) -> float:
        """Cost of a single hypothetical access command on the method.

        Used by search heuristics to order candidate methods cheapest
        first; subclasses with data-dependent costs may approximate.
        """
        probe = AccessCommand(
            target="_probe",
            method=method_name,
            input_expr=Singleton(),
            input_binding=(),
            output_map=(),
        )
        return self.commands_cost([probe])

    def identity(self) -> Dict[str, object]:
        """A JSON-able description of this cost model and its knobs.

        Two cost functions with equal identities must assign equal
        costs to every plan -- that is the contract that lets the
        identity participate in plan-cache keys (a cached best plan is
        only best *relative to* the cost model that picked it).  The
        base implementation covers kind-only cost functions; subclasses
        with knobs override and include every knob, key-sorted.
        """
        return {"kind": type(self).__name__}

    def min_access_charge(self) -> float:
        """A sound lower bound on what *any* access command adds.

        Branch-and-bound pruning in Algorithm 1 uses this as an
        admissible completion estimate: every descendant of a
        non-successful search node must append at least one access
        command, so its cost is at least ``node.cost +
        min_access_charge()``.  The base implementation returns 0.0
        (no claim beyond monotonicity -- pruning degrades to a plain
        incumbent comparison); subclasses with known positive charges
        override.
        """
        return 0.0


@dataclass
class SimpleCostFunction(CostFunction):
    """The paper's simple cost: sum of per-method weights per command."""

    per_method: Mapping[str, float]
    default: float = 1.0

    @classmethod
    def from_schema(cls, schema: Schema) -> "SimpleCostFunction":
        """Use the cost declared on each access method."""
        return cls({m.name: m.cost for m in schema.methods})

    def commands_cost(self, commands: Sequence[Command]) -> float:
        """Monotone cost of a command prefix."""
        return sum(
            self.per_method.get(c.method, self.default)
            for c in commands
            if isinstance(c, AccessCommand)
        )

    def identity(self) -> Dict[str, object]:
        """Kind plus the full per-method weight table and default."""
        return {
            "kind": type(self).__name__,
            "per_method": {
                name: float(self.per_method[name])
                for name in sorted(self.per_method)
            },
            "default": float(self.default),
        }

    def min_access_charge(self) -> float:
        """The cheapest declared weight (or the default, if cheaper)."""
        weights = [float(w) for w in self.per_method.values()]
        weights.append(float(self.default))
        return max(0.0, min(weights))


@dataclass
class CountingCostFunction(CostFunction):
    """Every access command costs one unit (pure access counting)."""

    def commands_cost(self, commands: Sequence[Command]) -> float:
        """Monotone cost of a command prefix."""
        return float(
            sum(1 for c in commands if isinstance(c, AccessCommand))
        )

    def min_access_charge(self) -> float:
        """Every access command costs exactly one unit."""
        return 1.0


@dataclass
class CardinalityCostFunction(CostFunction):
    """A monotone, cardinality-aware estimator.

    Each access command is charged ``per_access + per_tuple * |E|`` where
    ``|E|`` is the estimated number of input tuples fed to the method,
    propagated through the expression tree from per-relation cardinality
    statistics (``table_estimates`` maps temporary-table name prefixes are
    not needed: estimates flow through the command sequence itself).

    This is the "generic black box" flavour of cost the search accepts;
    it stays monotone because every access command adds a positive charge.

    Three optional refinements (all off by default, all preserving
    monotonicity):

    ``per_method_access``
        per-method access weights overriding the flat ``per_access``
        (absent methods keep the flat charge) -- the estimator's
        counterpart of :class:`SimpleCostFunction`'s weight table.
    ``calibration``
        a :class:`~repro.cost.calibration.CalibrationStore`: an access's
        output estimate becomes ``observed_fan_out(method) * fan_in``
        instead of the flat per-relation guess, and the observed global
        selectivity replaces the flat ``select_selectivity`` knob.  The
        store's identity folds into :meth:`identity`, so plan-cache
        entries keyed on this cost model invalidate whenever new
        observations move the estimates.
    """

    relation_cardinality: Mapping[str, int]
    per_access: float = 1.0
    per_tuple: float = 0.01
    join_selectivity: float = 0.5
    select_selectivity: float = 0.5
    default_cardinality: int = 100
    per_method_access: Mapping[str, float] = field(default_factory=dict)
    calibration: Optional[CalibrationStore] = None

    def __post_init__(self) -> None:
        for knob in ("select_selectivity", "join_selectivity"):
            value = getattr(self, knob)
            if not (0.0 < value <= 1.0):
                raise InvalidCostParameter(
                    f"{knob} must lie in (0, 1], got {value!r}",
                    parameter=knob,
                    value=value,
                )
        for knob in ("per_access", "per_tuple"):
            value = getattr(self, knob)
            if not (value >= 0.0):
                raise InvalidCostParameter(
                    f"{knob} must be non-negative, got {value!r}",
                    parameter=knob,
                    value=value,
                )
        if self.default_cardinality < 1:
            raise InvalidCostParameter(
                "default_cardinality must be >= 1, got "
                f"{self.default_cardinality!r}",
                parameter="default_cardinality",
                value=self.default_cardinality,
            )
        for name, weight in self.per_method_access.items():
            if not (weight >= 0.0):
                raise InvalidCostParameter(
                    f"per_method_access[{name!r}] must be non-negative, "
                    f"got {weight!r}",
                    parameter="per_method_access",
                    value=weight,
                )

    def commands_cost(self, commands: Sequence[Command]) -> float:
        """Monotone cost of a command prefix."""
        estimates: Dict[str, float] = {}
        total = 0.0
        for command in commands:
            total += self._advance(estimates, command)
        return total

    def identity(self) -> Dict[str, object]:
        """Kind plus every estimator knob, key-sorted.

        When a calibration store is attached, its identity is
        included -- a calibration version bump therefore
        changes this cost model's identity, which is exactly what makes
        :func:`repro.planner.plan_cache.plan_cache_key` land on a new
        key and forces a re-plan under the updated estimates.
        """
        identity: Dict[str, object] = {
            "kind": type(self).__name__,
            "relation_cardinality": {
                name: int(self.relation_cardinality[name])
                for name in sorted(self.relation_cardinality)
            },
            "per_access": float(self.per_access),
            "per_tuple": float(self.per_tuple),
            "join_selectivity": float(self.join_selectivity),
            "select_selectivity": float(self.select_selectivity),
            "default_cardinality": int(self.default_cardinality),
        }
        if self.per_method_access:
            identity["per_method_access"] = {
                name: float(self.per_method_access[name])
                for name in sorted(self.per_method_access)
            }
        if self.calibration is not None:
            identity["calibration"] = self.calibration.identity()
        return identity

    def min_access_charge(self) -> float:
        """Cheapest access weight plus one tuple's charge.

        Sound because every table estimate is floored at 1.0, so the
        fan-in of any future access is at least one tuple.
        """
        weights = [float(w) for w in self.per_method_access.values()]
        weights.append(float(self.per_access))
        return max(0.0, min(weights)) + float(self.per_tuple)

    def access_charge(self, method: str, fan_in: float) -> float:
        """The charge of one access command with the given fan-in."""
        weight = float(
            self.per_method_access.get(method, self.per_access)
        )
        return weight + self.per_tuple * fan_in

    def _advance(
        self, estimates: Dict[str, float], command: Command
    ) -> float:
        """Record the command's output estimate; return its charge."""
        if isinstance(command, AccessCommand):
            fan_in = self._estimate(command.input_expr, estimates)
            fan_out = (
                self.calibration.fan_out(command.method)
                if self.calibration is not None
                else None
            )
            if fan_out is not None:
                # Calibrated: observed mean output rows per dispatched
                # input tuple, scaled by the estimated fan-in.
                out = fan_out * fan_in
            else:
                relation = self._relation_of(command)
                out = float(
                    self.relation_cardinality.get(
                        relation, self.default_cardinality
                    )
                )
            estimates[command.target] = max(1.0, out)
            return self.access_charge(command.method, fan_in)
        estimates[command.target] = max(
            1.0, self._estimate(command.expr, estimates)
        )
        return 0.0

    def _effective_select_selectivity(self) -> float:
        """The observed global selectivity when calibrated, else the knob.

        The calibration's pooled emitted/fetched ratio lies in (0, 1] by
        construction, the same sound range the constructor enforces for
        the static knob, so swapping it in preserves every invariant.
        """
        if self.calibration is not None:
            observed = self.calibration.select_selectivity()
            if observed is not None:
                return observed
        return self.select_selectivity

    def _relation_of(self, command: AccessCommand) -> str:
        # Access commands do not carry the relation; the method name is the
        # stable key callers configure estimates with.
        return command.method

    def _estimate(
        self, expr: Expression, estimates: Mapping[str, float]
    ) -> float:
        if isinstance(expr, Singleton):
            return 1.0
        if isinstance(expr, Scan):
            return estimates.get(expr.table, float(self.default_cardinality))
        if isinstance(expr, (Project, Rename)):
            return self._estimate(expr.child, estimates)
        if isinstance(expr, Select):
            return max(
                1.0,
                self._effective_select_selectivity()
                * self._estimate(expr.child, estimates),
            )
        if isinstance(expr, Join):
            left = self._estimate(expr.left, estimates)
            right = self._estimate(expr.right, estimates)
            return max(1.0, self.join_selectivity * min(left, right) *
                       max(1.0, max(left, right) ** 0.5))
        if isinstance(expr, UnionExpr):
            return self._estimate(expr.left, estimates) + self._estimate(
                expr.right, estimates
            )
        if isinstance(expr, Difference):
            return self._estimate(expr.left, estimates)
        return float(self.default_cardinality)


def is_monotone_on(
    cost: CostFunction, commands: Sequence[Command]
) -> bool:
    """Spot-check monotonicity along one command sequence's prefixes."""
    previous = 0.0
    for end in range(len(commands) + 1):
        value = cost.commands_cost(commands[:end])
        if value + 1e-9 < previous:
            return False
        previous = value
    return True
