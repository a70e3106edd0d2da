"""Static upper bounds on intermediate-relation sizes of SPJU plans.

Following the classic observation of Chen & Schneider (static derivation
of output-size bounds for relational expressions), the size of every
temporary table a plan produces can be bounded *before execution* from
nothing more than the base-relation sizes and key constraints:

* an access into relation ``R`` can never emit more rows than ``|R|``,
  and per distinct dispatched binding it emits at most ``|R|`` matches
  -- or at most **one** when the bound input positions cover a declared
  key of ``R``;
* select, project and rename never grow their input (set semantics);
* a natural join is bounded by the product of its input bounds, a union
  by the sum, a difference by its left input.

These bounds are *sound but not tight* -- they hold for every instance
with the declared sizes, so two distinct consumers may rely on them:

1. the planner's branch-and-bound search caps its cardinality
   *estimates* at the static bound (an over-estimate above a hard
   ceiling is pure noise), and
2. :meth:`repro.service.service.QueryService.submit` rejects plans
   whose static result bound already exceeds the request's
   ``ResourceBudget`` row ceiling *before* dispatching a single access
   -- a typed :class:`~repro.errors.PlanInadmissible` beats an
   execution that is guaranteed to blow its budget halfway through.

Unknown sizes bound to ``inf``; every propagation rule treats ``inf``
pessimistically (so a partial size declaration is still sound), and the
admission check is deliberately permissive on infinite bounds -- we
only reject when we can *prove* doom.
"""

from __future__ import annotations

import hashlib
import json
import math
from typing import Dict, Mapping, Optional, Sequence, Tuple

from repro.plans.commands import AccessCommand, MiddlewareCommand
from repro.plans.expressions import (
    Difference,
    Expression,
    Join,
    Literal,
    Project,
    Rename,
    Scan,
    Select,
    Singleton,
    Union,
)
from repro.plans.plan import Plan

INF = math.inf


class SizeBounds:
    """Static size bounds for plans over one schema + size declaration.

    ``relation_sizes`` maps relation names to (upper bounds on) their
    cardinalities; relations absent from the mapping bound to ``inf``.
    ``keys`` maps relation names to declared keys, each a tuple of
    0-based positions: when an access method's input positions cover a
    key, each dispatched binding matches at most one tuple.
    """

    def __init__(
        self,
        schema,
        relation_sizes: Mapping[str, int],
        keys: Optional[Mapping[str, Sequence[Sequence[int]]]] = None,
    ) -> None:
        self.schema = schema
        self.relation_sizes: Dict[str, float] = {
            name: float(size) for name, size in relation_sizes.items()
        }
        self.keys: Dict[str, Tuple[Tuple[int, ...], ...]] = {
            name: tuple(tuple(int(p) for p in key) for key in rel_keys)
            for name, rel_keys in (keys or {}).items()
        }

    @classmethod
    def from_instance(
        cls,
        schema,
        instance,
        keys: Optional[Mapping[str, Sequence[Sequence[int]]]] = None,
    ) -> "SizeBounds":
        """Bounds with every declared relation sized from an instance.

        The instance's *current* sizes are sound bounds for replaying
        queries against that instance -- the common calibration setup.
        """
        return cls(
            schema,
            {r.name: instance.size(r.name) for r in schema.relations},
            keys=keys,
        )

    # ---------------------------------------------------------- lookups
    def relation_bound(self, relation: str) -> float:
        """The declared size bound of a base relation (inf if unknown)."""
        return self.relation_sizes.get(relation, INF)

    def per_binding_bound(self, method_name: str) -> float:
        """Max rows one distinct dispatched binding can match.

        1 when the method's input positions cover a declared key of its
        relation; otherwise the relation's size bound (every tuple could
        match).
        """
        method = self.schema.method(method_name)
        bound_positions = set(method.input_positions)
        for key in self.keys.get(method.relation, ()):
            if set(key) <= bound_positions:
                return 1.0
        return self.relation_bound(method.relation)

    def access_bound(self, method_name: str, fan_in_bound: float) -> float:
        """Upper bound on one access command's output rows.

        ``min(|R|, fan_in * per_binding)``: the output mapping sends each
        accessed relation tuple to at most one row (equality filters only
        shrink), so the relation size caps the output regardless of how
        many bindings were dispatched.  Unknown methods bound to ``inf``
        (the planner may probe hypothetical accesses).
        """
        try:
            method = self.schema.method(method_name)
        except Exception:
            return INF
        if fan_in_bound == 0.0:
            return 0.0
        return min(
            self.relation_bound(method.relation),
            fan_in_bound * self.per_binding_bound(method_name),
        )

    # ------------------------------------------------------ propagation
    def expression_bound(
        self, expr: Expression, table_bounds: Mapping[str, float]
    ) -> float:
        """Upper bound on an expression's output rows.

        ``table_bounds`` supplies the bounds of the temporary tables
        the expression may scan.
        """
        if isinstance(expr, Singleton):
            return 1.0
        if isinstance(expr, Literal):
            return float(len(expr.table.rows))
        if isinstance(expr, Scan):
            return table_bounds.get(expr.table, INF)
        if isinstance(expr, (Select, Project, Rename)):
            return self.expression_bound(expr.child, table_bounds)
        if isinstance(expr, Join):
            left = self.expression_bound(expr.left, table_bounds)
            right = self.expression_bound(expr.right, table_bounds)
            # inf * 0 is nan in IEEE; an empty side makes the join empty.
            if left == 0.0 or right == 0.0:
                return 0.0
            return left * right
        if isinstance(expr, Union):
            return self.expression_bound(
                expr.left, table_bounds
            ) + self.expression_bound(expr.right, table_bounds)
        if isinstance(expr, Difference):
            return self.expression_bound(expr.left, table_bounds)
        # Unknown operator (full RA): no static bound.
        return INF

    def plan_bounds(self, plan: Plan) -> Dict[str, float]:
        """Per-target static size bounds, in command order.

        For an access command the bound is
        ``min(|R|, input_bound * per_binding_bound)`` -- the output maps
        relation tuples one-to-one (equality filters only shrink it), so
        the relation size caps it regardless of how many bindings were
        dispatched.
        """
        bounds: Dict[str, float] = {}
        for command in plan.commands:
            if isinstance(command, AccessCommand):
                fan_in = self.expression_bound(command.input_expr, bounds)
                bound = self.access_bound(command.method, fan_in)
            else:
                bound = self.expression_bound(command.expr, bounds)
            bounds[command.target] = bound
        return bounds

    def result_bound(self, plan: Plan) -> float:
        """Static upper bound on the plan's result rows (inf if none)."""
        return self.plan_bounds(plan)[plan.output_table]

    def resident_bound(self, plan: Plan) -> float:
        """Coarse bound on peak resident temporary rows.

        Sums every target's bound -- ignores the runtime's temp-table
        freeing, so it over-approximates the true peak.
        """
        return sum(self.plan_bounds(plan).values())

    # ---------------------------------------------------------- identity
    def identity(self) -> Dict[str, object]:
        """A stable content digest (for cost-model identities).

        Covers the size declaration and keys; the schema itself is
        already part of plan-cache keys via its fingerprint.
        """
        payload = json.dumps(
            {
                "sizes": {
                    name: (
                        "inf"
                        if math.isinf(self.relation_sizes[name])
                        else self.relation_sizes[name]
                    )
                    for name in sorted(self.relation_sizes)
                },
                "keys": {
                    name: sorted(self.keys[name])
                    for name in sorted(self.keys)
                },
            },
            sort_keys=True,
            separators=(",", ":"),
        )
        return {
            "digest": hashlib.blake2b(
                payload.encode("utf-8"), digest_size=8
            ).hexdigest()
        }

    def __repr__(self) -> str:
        declared = sum(
            1 for s in self.relation_sizes.values() if not math.isinf(s)
        )
        return (
            f"SizeBounds({declared} sized relations, "
            f"{sum(len(k) for k in self.keys.values())} keys)"
        )


__all__ = ["INF", "SizeBounds"]
