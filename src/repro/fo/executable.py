"""Executable FO queries and their compilation to plans (Proposition 1).

An FO query is *executable* for a schema when its binding patterns are
all served by access methods: every guard ``R(t..)`` is quantified with
enough bound positions to cover the input positions of some method on R.
Such a query can be evaluated through the access methods alone, and
Proposition 1 says the evaluation strategy is itself a plan: existential
guards become access-then-join, universal guards become
access-then-difference.

The compiler here works on boolean sentences (the paper's running
setting) and on formulas whose free variables are supplied by a context
table.  The produced plan filters the context: its output rows are the
context rows satisfying the formula; for a sentence the context is the
TRUE singleton and the output is empty/non-empty.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.fo.binding import (
    UnrestrictedQuantificationError,
    _existential_guard,
    _universal_guard,
)
from repro.fo.formulas import (
    And,
    Bottom,
    Eq,
    Exists,
    FOAtom,
    Forall,
    Formula,
    Implies,
    Not,
    Or,
    Top,
    to_nnf,
)
from repro.logic.atoms import Atom
from repro.logic.terms import Constant, Term, Variable
from repro.plans.commands import (
    AccessCommand,
    Command,
    MiddlewareCommand,
    identity_output_map,
)
from repro.plans.expressions import (
    Difference,
    Union as ExprUnion,
    EqAttr,
    EqConst,
    Expression,
    Join,
    Literal,
    NamedTable,
    NeqAttr,
    NeqConst,
    Project,
    Rename,
    Scan,
    Select,
    Singleton,
)
from repro.plans.plan import Plan
from repro.schema.core import AccessMethod, Schema


class ExecutabilityError(ValueError):
    """Raised when a formula cannot be executed over the schema."""


def to_guarded_nnf(formula: Formula, negate: bool = False) -> Formula:
    """Negation normal form that *preserves guarded quantifier shapes*.

    Plain NNF rewrites ``forall y (R(..) -> phi)`` into
    ``forall y (not R(..) or phi)``, destroying the guard the executable
    compiler keys on.  This variant pushes negations through using the
    dualities ``not exists y (g & phi) == forall y (g -> not phi)`` and
    ``not forall y (g -> phi) == exists y (g & not phi)``, which keep
    every guard in place (and keep BindPatt unchanged, as the paper's
    definition already treats the two shapes symmetrically).
    """
    if isinstance(formula, Top):
        return Bottom() if negate else formula
    if isinstance(formula, Bottom):
        return Top() if negate else formula
    if isinstance(formula, (FOAtom, Eq)):
        return Not(formula) if negate else formula
    if isinstance(formula, Not):
        return to_guarded_nnf(formula.inner, not negate)
    if isinstance(formula, Implies):
        return to_guarded_nnf(Or(Not(formula.left), formula.right), negate)
    if isinstance(formula, And):
        parts = tuple(to_guarded_nnf(p, negate) for p in formula.parts)
        return Or(*parts) if negate else And(*parts)
    if isinstance(formula, Or):
        parts = tuple(to_guarded_nnf(p, negate) for p in formula.parts)
        return And(*parts) if negate else Or(*parts)
    if isinstance(formula, Exists):
        guard, rest = _existential_guard(formula)
        if negate:
            return Forall(
                formula.variables,
                Implies(FOAtom(guard), to_guarded_nnf(rest, True)),
            )
        return Exists(
            formula.variables,
            And(FOAtom(guard), to_guarded_nnf(rest, False)),
        )
    if isinstance(formula, Forall):
        guard, rest = _universal_guard(formula)
        if negate:
            return Exists(
                formula.variables,
                And(FOAtom(guard), to_guarded_nnf(rest, True)),
            )
        return Forall(
            formula.variables,
            Implies(FOAtom(guard), to_guarded_nnf(rest, False)),
        )
    raise ExecutabilityError(f"unknown formula node {formula!r}")


def method_for_guard(
    schema: Schema, guard: Atom, bound: Sequence[Variable]
) -> Optional[AccessMethod]:
    """The cheapest method whose inputs are covered by bound positions."""
    bound_set = set(bound)
    bound_positions = {
        i
        for i, term in enumerate(guard.terms)
        if isinstance(term, Constant)
        or (isinstance(term, Variable) and term in bound_set)
    }
    usable = [
        m
        for m in schema.methods_of(guard.relation)
        if set(m.input_positions) <= bound_positions
    ]
    if not usable:
        return None
    return min(usable, key=lambda m: (m.cost, m.name))


def is_executable(formula: Formula, schema: Schema) -> bool:
    """True when the formula compiles to a plan over the schema."""
    try:
        _Compiler(schema).compile_sentence(formula, probe=True)
    except (ExecutabilityError, UnrestrictedQuantificationError):
        return False
    return True


def executable_to_plan(
    formula: Formula, schema: Schema, name: str = "executable"
) -> Plan:
    """Compile a boolean executable FO sentence into a plan.

    The output table has no attributes; it is non-empty exactly when the
    sentence holds on the (hidden) instance behind the source.
    """
    if formula.free_variables():
        raise ExecutabilityError(
            f"not a sentence: free variables {formula.free_variables()}"
        )
    return _Compiler(schema).compile_sentence(formula, name=name)


@dataclass
class _Context:
    """A context table: one attribute per bound variable."""

    table: str
    variables: Tuple[Variable, ...]

    def attr(self, variable: Variable) -> str:
        """Attribute name carrying this variable's binding."""
        return variable.name


class _Compiler:
    def __init__(self, schema: Schema) -> None:
        self.schema = schema
        self._counter = itertools.count()
        self.commands: List[Command] = []

    def _fresh(self, prefix: str = "E") -> str:
        return f"{prefix}{next(self._counter)}"

    def compile_sentence(
        self, formula: Formula, name: str = "executable", probe: bool = False
    ) -> Plan:
        """Compile a boolean sentence into a full plan."""
        self.commands = []
        root = self._fresh("C")
        self.commands.append(MiddlewareCommand(root, Singleton()))
        context = _Context(root, ())
        result = self._compile(to_guarded_nnf(formula), context)
        self.commands.append(
            MiddlewareCommand("T_fin", Project(Scan(result.table), ()))
        )
        plan = Plan(tuple(self.commands), "T_fin", name=name)
        return plan

    # ------------------------------------------------------------ dispatch
    def _compile(self, formula: Formula, context: _Context) -> _Context:
        """Emit commands computing the context rows satisfying ``formula``."""
        if isinstance(formula, Top):
            return context
        if isinstance(formula, Bottom):
            return self._none_of(context)
        if isinstance(formula, Eq):
            return self._compile_eq(formula, context, negated=False)
        if isinstance(formula, Not):
            return self._compile_not(formula, context)
        if isinstance(formula, And):
            current = context
            for part in formula.parts:
                current = self._compile(part, current)
            return current
        if isinstance(formula, Or):
            return self._compile_or(formula, context)
        if isinstance(formula, Exists):
            return self._compile_exists(formula, context)
        if isinstance(formula, Forall):
            return self._compile_forall(formula, context)
        if isinstance(formula, FOAtom):
            # A bare atom is sugar for exists-nothing with a guard.
            return self._compile_exists(
                Exists((), formula), context
            )
        if isinstance(formula, Implies):
            return self._compile(to_guarded_nnf(formula), context)
        raise ExecutabilityError(f"cannot compile {formula!r}")

    # ------------------------------------------------------------- pieces
    def _compile_eq(
        self, formula: Eq, context: _Context, negated: bool
    ) -> _Context:
        left, right = formula.left, formula.right
        if isinstance(left, Constant) and isinstance(right, Constant):
            # Decided now: true keeps every context row (no command).
            if (left == right) != negated:
                return context
            return self._none_of(context)
        condition = self._eq_condition(formula, context, negated)
        target = self._fresh("C")
        self.commands.append(
            MiddlewareCommand(
                target, Select(Scan(context.table), (condition,))
            )
        )
        return _Context(target, context.variables)

    def _none_of(self, context: _Context) -> _Context:
        """No row of the context: an empty table over its attributes."""
        target = self._fresh("C")
        attrs = tuple(context.attr(v) for v in context.variables)
        self.commands.append(
            MiddlewareCommand(target, Literal(NamedTable.empty(attrs)))
        )
        return _Context(target, context.variables)

    def _eq_condition(self, formula: Eq, context: _Context, negated: bool):
        left, right = formula.left, formula.right
        if isinstance(left, Variable) and isinstance(right, Variable):
            cls = NeqAttr if negated else EqAttr
            return cls(context.attr(left), context.attr(right))
        if isinstance(left, Variable) and isinstance(right, Constant):
            cls = NeqConst if negated else EqConst
            return cls(context.attr(left), right)
        if isinstance(left, Constant) and isinstance(right, Variable):
            cls = NeqConst if negated else EqConst
            return cls(context.attr(right), left)
        raise ExecutabilityError(f"cannot compile equality {formula!r}")

    def _compile_not(self, formula: Not, context: _Context) -> _Context:
        inner = formula.inner
        if isinstance(inner, Eq):
            return self._compile_eq(inner, context, negated=True)
        # General negation: context minus the satisfying rows.
        satisfied = self._compile(inner, context)
        target = self._fresh("C")
        self.commands.append(
            MiddlewareCommand(
                target,
                Difference(Scan(context.table), Scan(satisfied.table)),
            )
        )
        return _Context(target, context.variables)

    def _compile_or(self, formula: Or, context: _Context) -> _Context:
        if not formula.parts:
            return self._compile(Bottom(), context)
        results = [self._compile(part, context) for part in formula.parts]
        current = results[0]
        for nxt in results[1:]:
            target = self._fresh("C")
            self.commands.append(
                MiddlewareCommand(
                    target,
                    ExprUnion(Scan(current.table), Scan(nxt.table)),
                )
            )
            current = _Context(target, context.variables)
        return current

    def _compile_exists(
        self, formula: Exists, context: _Context
    ) -> _Context:
        guard, rest = _existential_guard(formula)
        extended = self._access_and_join(
            guard, formula.variables, context
        )
        satisfied = self._compile(rest, extended)
        # Project the surviving extended rows back onto the context.
        target = self._fresh("C")
        attrs = tuple(v.name for v in context.variables)
        self.commands.append(
            MiddlewareCommand(
                target, Project(Scan(satisfied.table), attrs)
            )
        )
        return _Context(target, context.variables)

    def _compile_forall(
        self, formula: Forall, context: _Context
    ) -> _Context:
        guard, rest = _universal_guard(formula)
        extended = self._access_and_join(guard, formula.variables, context)
        satisfied = self._compile(to_guarded_nnf(rest), extended)
        bad = self._fresh("C")
        self.commands.append(
            MiddlewareCommand(
                bad,
                Difference(Scan(extended.table), Scan(satisfied.table)),
            )
        )
        attrs = tuple(v.name for v in context.variables)
        bad_ctx = self._fresh("C")
        self.commands.append(
            MiddlewareCommand(bad_ctx, Project(Scan(bad), attrs))
        )
        target = self._fresh("C")
        self.commands.append(
            MiddlewareCommand(
                target, Difference(Scan(context.table), Scan(bad_ctx))
            )
        )
        return _Context(target, context.variables)

    def _access_and_join(
        self,
        guard: Atom,
        quantified: Tuple[Variable, ...],
        context: _Context,
    ) -> _Context:
        """Access the guard relation and join with the context.

        Produces a context over ``context.variables + new variables``.
        """
        method = method_for_guard(self.schema, guard, context.variables)
        if method is None:
            raise ExecutabilityError(
                f"no access method serves guard {guard!r} with bound "
                f"variables {[v.name for v in context.variables]}"
            )
        binding: List[Union[str, Constant]] = []
        for position in method.input_positions:
            term = guard.terms[position]
            if isinstance(term, Constant):
                binding.append(term)
            else:
                binding.append(context.attr(term))
        raw = self._fresh("A")
        positional = tuple(f"{raw}_p{i}" for i in range(guard.arity))
        input_attrs = tuple(
            dict.fromkeys(b for b in binding if isinstance(b, str))
        )
        self.commands.append(
            AccessCommand(
                target=raw,
                method=method.name,
                input_expr=Project(Scan(context.table), input_attrs),
                input_binding=tuple(binding),
                output_map=identity_output_map(positional),
            )
        )
        # Filter/rename the raw rows to the guard's term pattern.
        conditions: List[object] = []
        first: Dict[Variable, int] = {}
        for i, term in enumerate(guard.terms):
            if isinstance(term, Constant):
                conditions.append(EqConst(positional[i], term))
            elif isinstance(term, Variable):
                if term in first:
                    conditions.append(
                        EqAttr(positional[first[term]], positional[i])
                    )
                else:
                    first[term] = i
        expr: Expression = Scan(raw)
        if conditions:
            expr = Select(expr, tuple(conditions))
        keep = tuple(positional[p] for p in first.values())
        expr = Project(expr, keep)
        renaming = tuple(
            (positional[p], variable.name) for variable, p in first.items()
        )
        if renaming:
            expr = Rename(expr, renaming)
        joined = self._fresh("C")
        self.commands.append(
            MiddlewareCommand(joined, Join(Scan(context.table), expr))
        )
        new_vars = context.variables + tuple(
            v for v in first if v not in context.variables
        )
        return _Context(joined, new_vars)

