"""The incremental plan builder behind Section 4's proof-to-plan algorithm.

A :class:`PlanState` is the plan-side mirror of a chase configuration:
after j accessibility-axiom firings it holds a command prefix whose
current temporary table ``T_j`` has one attribute per *accessible* chase
constant, and whose rows (on any instance) are candidate homomorphisms
mapping those constants into the instance -- the invariant of Theorem 5.

Each exposure of a fact ``R(c1..cn)`` via method ``mt``:

1. emits (or reuses) an *access command* whose input expression projects
   the current table onto the attributes named by the chase constants at
   ``mt``'s input positions (schema constants are passed through the
   input binding), producing a raw table with positional attributes;
2. emits middleware that filters the raw rows by the fact's constant and
   repeated-null pattern, renames positions to chase-constant names, and
   joins the result with the current table.

Raw access tables are *reused* when a later exposure needs the same
method with the same input binding: this is how the "facts induced by
firing" of Algorithm 1 become cost-free, since only a new join is added.

PlanState is immutable; every operation returns a new state, which is
what lets thousands of search-tree nodes share command prefixes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple, Union

from repro.logic.atoms import Atom
from repro.logic.terms import Constant, Null, Term
from repro.plans.commands import (
    AccessCommand,
    Command,
    MiddlewareCommand,
    identity_output_map,
)
from repro.plans.expressions import (
    EqAttr,
    EqConst,
    Expression,
    Join,
    Project,
    Rename,
    Scan,
    Select,
    Singleton,
)
from repro.plans.plan import Plan
from repro.errors import ReproError
from repro.schema.core import AccessMethod


class PlanningError(ReproError):
    """Raised when a plan step is requested that the state cannot honour."""


# Hashable identity of an access: method name plus, per input position,
# either the chase-constant attribute feeding it or the fixed constant.
AccessKey = Tuple[str, Tuple[Tuple[str, object], ...]]


def _attr_of(null: Null) -> str:
    return null.name


@dataclass(frozen=True)
class PlanState:
    """An immutable prefix of an SPJ plan under construction."""

    commands: Tuple[Command, ...] = ()
    current: Optional[str] = None
    attributes: FrozenSet[str] = frozenset()
    # The raw table of every access made so far, by access key.  Never
    # mutated: an exposure that adds a raw table hands its state a copy,
    # and one that reuses a table hands on this very dict.  It and the
    # count below are functions of ``commands``, so equality skips them.
    access_tables: Dict[AccessKey, str] = field(
        default_factory=dict, compare=False
    )
    counter: int = 0
    #: Number of access commands so far.
    access_command_count: int = field(default=0, compare=False)

    # ------------------------------------------------------------ exposure
    def expose(self, fact: Atom, method: AccessMethod) -> "PlanState":
        """Extend the plan with the commands for one accessibility firing."""
        if fact.relation != method.relation:
            raise PlanningError(
                f"method {method.name} is on {method.relation}, "
                f"not {fact.relation}"
            )
        key, binding = self._access_key(fact, method)
        registry = self.access_tables
        commands = self.commands
        counter = self.counter
        accesses = self.access_command_count
        raw = registry.get(key)
        if raw is None:
            raw = f"A{counter}"
            counter += 1
            commands += (
                self._access_command(raw, method, binding, fact.arity),
            )
            registry = {**registry, key: raw}
            accesses += 1
        incorporate = self._incorporation_expr(fact, raw)
        attributes = self.attributes
        names = {_attr_of(n) for n in fact.nulls()}
        if not names <= attributes:
            attributes = attributes | names
        target = f"T{counter}"
        counter += 1
        if self.current is None:
            commands += (MiddlewareCommand(target, incorporate),)
        else:
            commands += (
                MiddlewareCommand(
                    target, Join(Scan(self.current), incorporate)
                ),
            )
        return PlanState(
            commands=commands,
            current=target,
            attributes=attributes,
            access_tables=registry,
            counter=counter,
            access_command_count=accesses,
        )

    def _access_key(
        self, fact: Atom, method: AccessMethod
    ) -> Tuple[AccessKey, Tuple[Union[str, Constant], ...]]:
        binding: List[Union[str, Constant]] = []
        key_parts: List[Tuple[str, object]] = []
        for position in method.input_positions:
            term = fact.terms[position]
            if isinstance(term, Constant):
                binding.append(term)
                key_parts.append(("const", term.value))
            elif isinstance(term, Null):
                attr = _attr_of(term)
                if attr not in self.attributes:
                    raise PlanningError(
                        f"input value {term!r} of {fact!r} is not yet "
                        f"accessible in the plan (attributes: "
                        f"{sorted(self.attributes)})"
                    )
                binding.append(attr)
                key_parts.append(("attr", attr))
            else:
                raise PlanningError(f"non-ground input term {term!r}")
        return (method.name, tuple(key_parts)), tuple(binding)

    def _access_command(
        self,
        raw: str,
        method: AccessMethod,
        binding: Tuple[Union[str, Constant], ...],
        arity: int,
    ) -> AccessCommand:
        input_attrs = tuple(
            dict.fromkeys(b for b in binding if isinstance(b, str))
        )
        if self.current is None:
            if input_attrs:
                raise PlanningError(
                    "input attributes requested before any table exists"
                )
            input_expr: Expression = Singleton()
        else:
            # Projecting onto the (possibly empty) set of needed input
            # attributes: with no attributes this yields one empty row iff
            # the current table is non-empty, so accesses are skipped for
            # provably-empty intermediate results.
            input_expr = Project(Scan(self.current), input_attrs)
        positional = tuple(f"{raw}_p{i}" for i in range(arity))
        return AccessCommand(
            target=raw,
            method=method.name,
            input_expr=input_expr,
            input_binding=binding,
            output_map=identity_output_map(positional),
        )

    def _incorporation_expr(self, fact: Atom, raw: str) -> Expression:
        """Filter + rename the raw access output to the fact's constants."""
        positional = [f"{raw}_p{i}" for i in range(fact.arity)]
        conditions: List[object] = []
        first_position: Dict[Null, int] = {}
        for i, term in enumerate(fact.terms):
            if isinstance(term, Constant):
                conditions.append(EqConst(positional[i], term))
            elif isinstance(term, Null):
                if term in first_position:
                    conditions.append(
                        EqAttr(positional[first_position[term]], positional[i])
                    )
                else:
                    first_position[term] = i
        expr: Expression = Scan(raw)
        if conditions:
            expr = Select(expr, tuple(conditions))
        keep = tuple(positional[p] for p in first_position.values())
        expr = Project(expr, keep)
        renaming = tuple(
            (positional[p], _attr_of(null))
            for null, p in first_position.items()
        )
        if renaming:
            expr = Rename(expr, renaming)
        return expr

    # ------------------------------------------------------------- output
    def finish(
        self,
        output_nulls: Sequence[Null],
        name: str = "plan",
    ) -> Plan:
        """Close the plan, projecting onto the answer attributes.

        For boolean queries pass no nulls: the output is the zero-attribute
        table, non-empty exactly when the query holds.
        """
        attrs = tuple(_attr_of(n) for n in output_nulls)
        for attr in attrs:
            if attr not in self.attributes:
                raise PlanningError(
                    f"output attribute {attr!r} is not accessible"
                )
        commands = list(self.commands)
        if self.current is None:
            # A proof with no accesses: the query is witnessed by reasoning
            # alone; the constant TRUE table is the (boolean) answer.
            if attrs:
                raise PlanningError(
                    "non-boolean output requested from an access-free plan"
                )
            commands.append(MiddlewareCommand("T_fin", Singleton()))
        else:
            commands.append(
                MiddlewareCommand(
                    "T_fin", Project(Scan(self.current), attrs)
                )
            )
        return Plan(tuple(commands), "T_fin", name=name)

    def __repr__(self) -> str:
        return (
            f"PlanState({len(self.commands)} commands, "
            f"{self.access_command_count} accesses, "
            f"current={self.current})"
        )
