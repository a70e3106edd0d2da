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

from dataclasses import dataclass
from typing import Dict, Mapping, Sequence

from repro.plans.commands import AccessCommand, Command
from repro.plans.expressions import Singleton
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
