"""Relations, access methods, and schemas.

An :class:`AccessMethod` is the paper's notion of restricted interface: a
named way of querying one relation, with a set of *input positions* that
must be supplied (mandatory web-form fields, index lookup keys, required
service parameters).  A relation with no methods cannot be accessed at all
(a virtual or hidden relation); a method with no input positions is a free
table scan.

Positions are 0-based throughout this codebase (the paper counts from 1);
all public pretty-printers show 0-based positions explicitly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    Dict,
    FrozenSet,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from repro.logic.atoms import Atom
from repro.logic.dependencies import TGD
from repro.logic.queries import ConjunctiveQuery
from repro.logic.terms import Constant, Variable

if TYPE_CHECKING:
    from repro.chase.engine import ChasePolicy
    from repro.schema.accessible import AxiomSystem, Variant


class SchemaError(ValueError):
    """Raised for ill-formed schemas or lookups of unknown components."""


@dataclass(frozen=True, slots=True)
class Relation:
    """A relation with a name, an arity and optional attribute names."""

    name: str
    arity: int
    attributes: Tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if self.arity < 0:
            raise SchemaError(f"negative arity for {self.name}")
        if self.attributes and len(self.attributes) != self.arity:
            raise SchemaError(
                f"{self.name}: {len(self.attributes)} attribute names "
                f"for arity {self.arity}"
            )
        if not self.attributes:
            object.__setattr__(
                self,
                "attributes",
                tuple(f"a{i}" for i in range(self.arity)),
            )

    def __repr__(self) -> str:
        return f"{self.name}/{self.arity}"


@dataclass(frozen=True, slots=True)
class AccessMethod:
    """An access method on a relation.

    ``input_positions`` are the 0-based positions whose values must be
    supplied to invoke the method.  An empty tuple means free access.
    """

    name: str
    relation: str
    input_positions: Tuple[int, ...]
    cost: float = 1.0

    def __post_init__(self) -> None:
        if not isinstance(self.input_positions, tuple):
            object.__setattr__(
                self, "input_positions", tuple(self.input_positions)
            )
        if len(set(self.input_positions)) != len(self.input_positions):
            raise SchemaError(f"method {self.name}: repeated input position")
        if any(p < 0 for p in self.input_positions):
            raise SchemaError(f"method {self.name}: negative input position")
        if self.cost < 0:
            raise SchemaError(f"method {self.name}: negative cost")

    @property
    def is_free(self) -> bool:
        """True when the method needs no inputs (full scan allowed)."""
        return not self.input_positions

    def __repr__(self) -> str:
        inputs = ",".join(str(p) for p in self.input_positions)
        return f"{self.name}[{self.relation};in={{{inputs}}}]"


class Schema:
    """A querying scenario: relations, methods, constants, constraints."""

    def __init__(
        self,
        relations: Iterable[Relation],
        methods: Iterable[AccessMethod] = (),
        constants: Iterable[Constant] = (),
        constraints: Iterable[TGD] = (),
        name: str = "S",
    ) -> None:
        self._fingerprint: Optional[str] = None
        self._chase_policy: Optional[ChasePolicy] = None
        self._constraint_constants: Optional[FrozenSet[Constant]] = None
        self._axioms: Dict[Variant, AxiomSystem] = {}
        self.name = name
        self._relations: Dict[str, Relation] = {}
        for relation in relations:
            if relation.name in self._relations:
                raise SchemaError(f"duplicate relation {relation.name}")
            self._relations[relation.name] = relation
        self._methods: Dict[str, AccessMethod] = {}
        self._methods_by_relation: Dict[str, List[AccessMethod]] = {
            r: [] for r in self._relations
        }
        for method in methods:
            self._add_method(method)
        self.constants: Tuple[Constant, ...] = tuple(constants)
        self.constraints: Tuple[TGD, ...] = tuple(constraints)
        self._validate_constraints()

    def __setattr__(self, attribute: str, value: object) -> None:
        # What fingerprint() memoises is a digest of these three and the
        # declarations, axioms() derives from the same, and
        # chase_policy() and constraint_constants() read the
        # constraints: assigning one drops the memo.
        object.__setattr__(self, attribute, value)
        if attribute in ("name", "constants", "constraints"):
            object.__setattr__(self, "_fingerprint", None)
            object.__setattr__(self, "_axioms", {})
        if attribute == "constraints":
            object.__setattr__(self, "_chase_policy", None)
            object.__setattr__(self, "_constraint_constants", None)

    def _add_method(self, method: AccessMethod) -> None:
        relation = self._relations.get(method.relation)
        if relation is None:
            raise SchemaError(
                f"method {method.name} refers to unknown relation "
                f"{method.relation}"
            )
        if any(p >= relation.arity for p in method.input_positions):
            raise SchemaError(
                f"method {method.name}: input position beyond arity "
                f"{relation.arity}"
            )
        if method.name in self._methods:
            raise SchemaError(f"duplicate method name {method.name}")
        self._methods[method.name] = method
        self._methods_by_relation[method.relation].append(method)
        self._fingerprint = None
        self._axioms = {}

    def _validate_constraints(self) -> None:
        for tgd in self.constraints:
            for atom in tgd.body + tgd.head:
                relation = self._relations.get(atom.relation)
                if relation is None:
                    raise SchemaError(
                        f"constraint {tgd.name} uses unknown relation "
                        f"{atom.relation}"
                    )
                if atom.arity != relation.arity:
                    raise SchemaError(
                        f"constraint {tgd.name}: {atom.relation} used with "
                        f"arity {atom.arity}, declared {relation.arity}"
                    )

    # ----------------------------------------------------------- lookups
    @property
    def relations(self) -> Tuple[Relation, ...]:
        """All declared relations, in declaration order."""
        return tuple(self._relations.values())

    @property
    def methods(self) -> Tuple[AccessMethod, ...]:
        """All declared access methods, in declaration order."""
        return tuple(self._methods.values())

    def relation(self, name: str) -> Relation:
        """Look up a relation by name (raises SchemaError if unknown)."""
        try:
            return self._relations[name]
        except KeyError:
            raise SchemaError(f"unknown relation {name}") from None

    def has_relation(self, name: str) -> bool:
        """Whether a relation with this name is declared."""
        return name in self._relations

    def method(self, name: str) -> AccessMethod:
        """Look up an access method by name (raises SchemaError if unknown)."""
        try:
            return self._methods[name]
        except KeyError:
            raise SchemaError(f"unknown method {name}") from None

    def methods_of(self, relation: str) -> Tuple[AccessMethod, ...]:
        """The access methods declared on one relation (possibly none)."""
        if relation not in self._relations:
            raise SchemaError(f"unknown relation {relation}")
        return tuple(self._methods_by_relation[relation])

    def accessible_relations(self) -> Tuple[Relation, ...]:
        """Relations having at least one access method."""
        return tuple(
            r
            for r in self._relations.values()
            if self._methods_by_relation[r.name]
        )

    def hidden_relations(self) -> Tuple[Relation, ...]:
        """Relations with no method at all (only reachable via reasoning)."""
        return tuple(
            r
            for r in self._relations.values()
            if not self._methods_by_relation[r.name]
        )

    def without_methods(self, names: Iterable[str]) -> "Schema":
        """A copy of this schema with the named access methods removed.

        Relations, constants and constraints are untouched: the data and
        its semantics have not changed, only our *access* to it -- this
        is the "schema minus the dead methods" the service re-plans
        against when a source goes down.  Unknown method names
        raise :class:`SchemaError`.
        """
        drop = set(names)
        unknown = drop - set(self._methods)
        if unknown:
            raise SchemaError(
                f"cannot drop unknown methods {sorted(unknown)}"
            )
        return Schema(
            self.relations,
            [m for m in self.methods if m.name not in drop],
            self.constants,
            self.constraints,
            name=self.name,
        )

    def fingerprint(self) -> str:
        """Stable BLAKE2b content hash of this schema's serialization.

        Delegates to :func:`repro.schema.serialize.schema_fingerprint`
        (imported lazily to avoid a core<->serialize import cycle).
        Used as one component of plan-cache keys, so it is asked for on
        every request: the digest is computed on the first call and
        kept.  A schema is not mutated after construction anywhere in
        this package; should a caller assign ``name``, ``constants`` or
        ``constraints`` later, the assignment *drops the memo* (it does
        not raise) and the next call re-hashes.
        """
        digest = self._fingerprint
        if digest is None:
            from repro.schema.serialize import schema_fingerprint

            digest = self._fingerprint = schema_fingerprint(self)
        return digest

    def axioms(self, variant: Variant) -> AxiomSystem:
        """The chase rules of one variant of ``AcSch(self)``.

        Every :class:`~repro.schema.accessible.AccessibleSchema` over
        this schema object takes its rules from here, so a service that
        searches one schema on every plan-cache miss derives them once
        per variant.  Kept like :meth:`fingerprint`, and dropped with
        it: assigning ``name``, ``constants`` or ``constraints``, or
        adding a method, starts a fresh memo.  The memo is keyed by
        this object, never by content, and no rule refers back to the
        schema, so it adds no reference cycle.  The import is lazy
        because :mod:`repro.schema.accessible` imports this module.
        """
        system = self._axioms.get(variant)
        if system is None:
            from repro.schema.accessible import AxiomSystem

            system = self._axioms[variant] = AxiomSystem(self, variant)
        return system

    def chase_policy(self) -> ChasePolicy:
        """The chase policy every search of this schema runs under.

        Termination is a property of the constraint class (Section 5):

        * weakly acyclic constraints: the chase terminates (the
          accessible schema's extra axioms are full TGDs over fresh
          relation copies, so it stays weakly acyclic) and the default
          :class:`~repro.chase.engine.ChasePolicy` applies;
        * guarded constraints: guarded-bag blocking;
        * anything else: a depth cap and a tight work budget, so every
          saturation returns.

        Computed on the first call and kept, like :meth:`fingerprint`;
        assigning ``constraints`` drops the memo.  The imports are lazy
        because the chase imports this module.
        """
        policy = self._chase_policy
        if policy is None:
            from repro.chase.blocking import BlockingPolicy
            from repro.chase.engine import ChasePolicy
            from repro.logic.analysis import is_weakly_acyclic

            if is_weakly_acyclic(self.constraints):
                policy = ChasePolicy()
            elif self.has_only_guarded_constraints:
                policy = ChasePolicy(blocking=BlockingPolicy(enabled=True))
            else:
                policy = ChasePolicy(max_depth=8, max_work=20_000)
            self._chase_policy = policy
        return policy

    def constraint_constants(self) -> FrozenSet[Constant]:
        """The constants the constraints mention, kept like
        :meth:`chase_policy`.

        Renaming a constant in a plan gives a plan for the query with
        that constant renamed only when no constraint mentions it
        (``docs/theory.md``, "Rebinding a plan"); the planning front
        asks for this set on every bound query request.
        """
        found = self._constraint_constants
        if found is None:
            found = self._constraint_constants = frozenset(
                constant
                for tgd in self.constraints
                for atom in tgd.body + tgd.head
                for constant in atom.constants()
            )
        return found

    # ------------------------------------------------------- properties
    @property
    def has_only_guarded_constraints(self) -> bool:
        """True when every constraint is a Guarded TGD (Section 5 applies)."""
        return all(tgd.is_guarded for tgd in self.constraints)

    @property
    def has_only_inclusion_dependencies(self) -> bool:
        """True when every constraint is a referential constraint (ID)."""
        return all(tgd.is_inclusion_dependency for tgd in self.constraints)

    def validate_query(self, query: ConjunctiveQuery) -> None:
        """Check a query only mentions schema relations at correct arity."""
        for atom in query.atoms:
            relation = self.relation(atom.relation)
            if atom.arity != relation.arity:
                raise SchemaError(
                    f"query {query.name}: {atom.relation} used with arity "
                    f"{atom.arity}, declared {relation.arity}"
                )

    def describe(self) -> str:
        """A human-readable multi-line description."""
        lines = [f"schema {self.name}"]
        for relation in self._relations.values():
            methods = self._methods_by_relation[relation.name]
            if methods:
                tags = ", ".join(repr(m) for m in methods)
            else:
                tags = "no access"
            lines.append(f"  {relation!r}: {tags}")
        if self.constants:
            values = ", ".join(repr(c) for c in self.constants)
            lines.append(f"  constants: {values}")
        for tgd in self.constraints:
            lines.append(f"  constraint {tgd!r}")
        return "\n".join(lines)

    def __repr__(self) -> str:
        return (
            f"Schema({self.name}: {len(self._relations)} relations, "
            f"{len(self._methods)} methods, "
            f"{len(self.constraints)} constraints)"
        )


class SchemaBuilder:
    """Fluent construction of schemas.

    ::

        schema = (
            SchemaBuilder("uni")
            .relation("Profinfo", 3)
            .relation("Udirect", 2)
            .access("mt_prof", "Profinfo", inputs=[0])
            .access("mt_udir", "Udirect", inputs=[])
            .tgd("Profinfo(eid, onum, lname) -> Udirect(eid, lname)")
            .constant("smith")
            .build()
        )
    """

    def __init__(self, name: str = "S") -> None:
        self._name = name
        self._relations: List[Relation] = []
        self._methods: List[AccessMethod] = []
        self._constants: List[Constant] = []
        self._constraints: List[TGD] = []

    def relation(
        self,
        name: str,
        arity: int,
        attributes: Sequence[str] = (),
    ) -> "SchemaBuilder":
        """Declare a relation."""
        self._relations.append(Relation(name, arity, tuple(attributes)))
        return self

    def access(
        self,
        name: str,
        relation: str,
        inputs: Sequence[int] = (),
        cost: float = 1.0,
    ) -> "SchemaBuilder":
        """Declare an access method with 0-based input positions."""
        self._methods.append(
            AccessMethod(name, relation, tuple(inputs), cost)
        )
        return self

    def free_access(
        self, relation: str, cost: float = 1.0
    ) -> "SchemaBuilder":
        """Shorthand: an input-free method named ``mt_<relation>``."""
        return self.access(f"mt_{relation}", relation, (), cost)

    def constant(self, value: object) -> "SchemaBuilder":
        """Declare a schema constant (a value the querier may use)."""
        self._constants.append(
            value if isinstance(value, Constant) else Constant(value)  # type: ignore[arg-type]
        )
        return self

    def tgd(self, text_or_tgd: object, name: str = "") -> "SchemaBuilder":
        """Add a constraint, as a TGD object or parse_tgd text."""
        if isinstance(text_or_tgd, TGD):
            self._constraints.append(text_or_tgd)
        elif isinstance(text_or_tgd, str):
            from repro.logic.dependencies import parse_tgd

            self._constraints.append(parse_tgd(text_or_tgd, name=name))
        else:
            raise SchemaError(f"cannot interpret constraint {text_or_tgd!r}")
        return self

    def build(self) -> Schema:
        """Validate and assemble the schema."""
        return Schema(
            self._relations,
            self._methods,
            self._constants,
            self._constraints,
            name=self._name,
        )
