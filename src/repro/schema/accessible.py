"""The accessible-schema constructions of Section 3.

Given a schema ``S0``, the accessible schema ``AcSch(S0)`` axiomatizes what
a querier can learn through the access methods:

* a copy ``Accessed_R`` of every relation ``R`` (facts explicitly retrieved
  through some access),
* a unary relation ``_accessible`` (values returned by some access, seeded
  with the schema constants),
* a copy ``InfAcc_R`` of every relation (facts *derivable* from accessed
  facts using the integrity constraints),

with the axiom groups:

* defining axioms      ``Accessed_R(x) -> _accessible(x_i)``,
* accessibility axioms ``_accessible(x_j1) & ... & R(x) -> Accessed_R(x)``
  (one per access method -- firing one of these is "making an access" and
  is the only costed step in proofs),
* inferred-accessible rules ``Accessed_R(x) -> InfAcc_R(x)`` plus a copy of
  every original constraint over the ``InfAcc_`` relations.

``AcSch<->`` (Theorem 2, RA-plans) adds the reverse inclusion
``Accessed_R(x) -> R(x)`` and, per method, the *negative accessibility*
axioms ``_accessible(x_ji..) & InfAcc_R(x) -> Accessed_R(x)``.

``AcSch-neg`` (Theorem 3, USPJ-with-atomic-negation plans) is ``AcSch``
plus the reverse inclusion and the negative axioms restricted to require
*every* position accessible (the contrapositive TGD form of the paper's
``accessible(x_i).. & not R(x) -> not InfAcc_R(x)``).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple, Union

from repro.logic.atoms import Atom
from repro.logic.dependencies import TGD
from repro.logic.queries import ConjunctiveQuery
from repro.logic.terms import Constant, Variable
from repro.schema.core import AccessMethod, Relation, Schema, SchemaError

ACCESSED_PREFIX = "Accessed_"
INFACC_PREFIX = "InfAcc_"
ACCESSIBLE = "_accessible"


def accessed_name(relation: str) -> str:
    """Name of the accessed copy of a relation."""
    return ACCESSED_PREFIX + relation


def infacc_name(relation: str) -> str:
    """Name of the inferred-accessible copy of a relation."""
    return INFACC_PREFIX + relation


def is_accessed_name(name: str) -> bool:
    """Whether a relation name is an ``Accessed_`` copy."""
    return name.startswith(ACCESSED_PREFIX)


def is_infacc_name(name: str) -> bool:
    """Whether a relation name is an ``InfAcc_`` copy."""
    return name.startswith(INFACC_PREFIX)


def original_name(name: str) -> str:
    """Strip an ``Accessed_``/``InfAcc_`` prefix, if present."""
    if name.startswith(ACCESSED_PREFIX):
        return name[len(ACCESSED_PREFIX):]
    if name.startswith(INFACC_PREFIX):
        return name[len(INFACC_PREFIX):]
    return name


class AxiomKind(enum.Enum):
    """The role a rule plays inside an accessible schema."""

    ORIGINAL = "original"
    INFACC_COPY = "infacc-copy"
    DEFINING = "defining"
    ACCESSED_TO_INFACC = "accessed-to-infacc"
    ACCESSIBILITY = "accessibility"
    REVERSE_INCLUSION = "reverse-inclusion"
    NEGATIVE_ACCESSIBILITY = "negative-accessibility"


class Variant(enum.Enum):
    """Which of the paper's three axiom systems to build."""

    FORWARD = "AcSch"
    BIDIRECTIONAL = "AcSch<->"
    NEGATIVE = "AcSch-neg"


_ACCESS_KINDS = (
    AxiomKind.ACCESSIBILITY,
    AxiomKind.NEGATIVE_ACCESSIBILITY,
)


@dataclass(frozen=True)
class ChaseRule:
    """A TGD tagged with its role and (for access axioms) its method."""

    tgd: TGD
    kind: AxiomKind
    method: Optional[AccessMethod] = None
    #: True for the rules whose firing corresponds to a plan command.
    is_access: bool = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "is_access", self.kind in _ACCESS_KINDS)

    def __repr__(self) -> str:
        return f"<{self.kind.value}> {self.tgd!r}"


RuleLike = Union[TGD, ChaseRule]


def tgd_of(rule: RuleLike) -> TGD:
    """The dependency a rule fires: a bare TGD is its own."""
    return rule.tgd if isinstance(rule, ChaseRule) else rule


class RuleSet(tuple):
    """A fixed sequence of rules that knows which of them read a relation.

    ``readers[relation]`` holds, in increasing order, the slots of the
    rules whose body mentions ``relation``: what the chase consults to
    hand a new fact only to the rules it can complete a match for.  The
    map is derived here, once, and lives on the sequence itself, so it is
    collected with the rules instead of keeping them alive from a cache.
    """

    readers: Dict[str, Tuple[int, ...]]

    def __new__(cls, rules: Iterable[RuleLike] = ()) -> "RuleSet":
        self = super().__new__(cls, rules)
        by_relation: Dict[str, List[int]] = {}
        for slot, rule in enumerate(self):
            for relation in {atom.relation for atom in tgd_of(rule).body}:
                by_relation.setdefault(relation, []).append(slot)
        self.readers = {
            relation: tuple(slots) for relation, slots in by_relation.items()
        }
        return self


_EXPOSURE_KINDS = (
    AxiomKind.DEFINING,
    AxiomKind.ACCESSED_TO_INFACC,
    AxiomKind.REVERSE_INCLUSION,
)

# An exposure rule's name and, per head atom, its relation and the
# positions of the body atom its terms are read from.
ExposureHeads = Tuple[str, Tuple[Tuple[str, Tuple[int, ...]], ...]]


def _head_positions(tgd: TGD) -> ExposureHeads:
    """The template of a full TGD whose body is one atom over distinct
    variables (an exposure rule)."""
    position = {term: i for i, term in enumerate(tgd.body[0].terms)}
    return tgd.name, tuple(
        (atom.relation, tuple(position[term] for term in atom.terms))
        for atom in tgd.head
    )


class AxiomSystem:
    """The rule structures of one variant of ``AcSch(S)``.

    They depend on the schema alone, so
    :meth:`Schema.axioms <repro.schema.core.Schema.axioms>` derives them
    on first use and keeps them; every :class:`AccessibleSchema` over
    that schema object shares them.  Nothing here refers back to the
    schema: the memo holds rules, and the schema is collected as soon
    as its last user lets go of it.
    """

    __slots__ = (
        "rules",
        "free_rules",
        "access_rules",
        "saturation_rules",
        "exposure_rules",
        "exposure_heads",
    )

    def __init__(self, schema: Schema, variant: Variant) -> None:
        self.rules: Tuple[ChaseRule, ...] = tuple(_build_rules(schema, variant))
        # The rule tuple never changes, so every split of it is computed
        # once here and handed around as a tuple.
        self.free_rules = RuleSet(r for r in self.rules if not r.is_access)
        self.access_rules = tuple(r for r in self.rules if r.is_access)
        self.saturation_rules = RuleSet(
            r for r in self.free_rules if r.kind not in _EXPOSURE_KINDS
        )
        by_body: Dict[str, List[ChaseRule]] = {}
        for rule in self.free_rules:
            if rule.kind in _EXPOSURE_KINDS:
                by_body.setdefault(rule.tgd.body[0].relation, []).append(rule)
        self.exposure_rules: Dict[str, Tuple[ChaseRule, ...]] = {
            relation: tuple(rules) for relation, rules in by_body.items()
        }
        # Filled per relation on its first exposure, so a relation that
        # is never exposed costs nothing.
        self.exposure_heads: Dict[str, Tuple[ExposureHeads, ...]] = {}


class AccessibleSchema:
    """An accessible schema: the base schema plus one axiom system."""

    def __init__(self, schema: Schema, variant: Variant = Variant.FORWARD):
        self.schema = schema
        self.variant = variant
        axioms = schema.axioms(variant)
        self.rules: Tuple[ChaseRule, ...] = axioms.rules
        #: Rules fired eagerly at no cost (everything but access axioms).
        self.free_rules: RuleSet = axioms.free_rules
        #: Rules whose firing represents making an access.
        self.access_rules: Tuple[ChaseRule, ...] = axioms.access_rules
        #: The free rules that are not exposure rules.  No free rule has an
        #: ``Accessed_`` relation in its head, so once the exposure rules
        #: have been applied to the facts of an access, saturating under
        #: these alone saturates under all free rules.
        self.saturation_rules: RuleSet = axioms.saturation_rules
        self._exposure_rules = axioms.exposure_rules
        self._exposure_heads = axioms.exposure_heads

    def exposure_rules(self, accessed_relation: str) -> Tuple[ChaseRule, ...]:
        """The free rules whose whole body is one ``Accessed_R`` atom.

        These are ``def[R]``, ``acc2inf[R]`` and (bidirectional variants)
        ``rev[R]``, in rule order: full TGDs over the distinct variables
        of that single atom, so their heads follow from a new
        ``Accessed_R`` fact by substitution, with no trigger search.
        """
        return self._exposure_rules.get(accessed_relation, ())

    def exposure_heads(
        self, accessed_relation: str
    ) -> Tuple[ExposureHeads, ...]:
        """:meth:`exposure_rules` as position templates, in rule order.

        Per rule its name and, per head atom, the head relation and the
        body positions its terms are read from: the head facts of a new
        ``Accessed_R`` fact, with no substitution built.
        """
        heads = self._exposure_heads.get(accessed_relation)
        if heads is None:
            heads = self._exposure_heads[accessed_relation] = tuple(
                _head_positions(rule.tgd)
                for rule in self.exposure_rules(accessed_relation)
            )
        return heads

    def access_rule_for(
        self, method_name: str, negative: bool = False
    ) -> ChaseRule:
        """The (negative) accessibility axiom generated for one method."""
        wanted = (
            AxiomKind.NEGATIVE_ACCESSIBILITY
            if negative
            else AxiomKind.ACCESSIBILITY
        )
        for rule in self.rules:
            if (
                rule.kind is wanted
                and rule.method is not None
                and rule.method.name == method_name
            ):
                return rule
        raise SchemaError(
            f"no {'negative ' if negative else ''}accessibility axiom "
            f"for method {method_name}"
        )

    def initial_accessible_facts(self) -> Tuple[Atom, ...]:
        """``_accessible(c)`` for every schema constant c."""
        return tuple(
            Atom(ACCESSIBLE, (constant,))
            for constant in self.schema.constants
        )

    def __repr__(self) -> str:
        return (
            f"AccessibleSchema({self.variant.value} over "
            f"{self.schema.name}: {len(self.rules)} rules)"
        )


def accessible_schema(
    schema: Schema, variant: Variant = Variant.FORWARD
) -> AccessibleSchema:
    """Build the accessible schema of the requested variant."""
    return AccessibleSchema(schema, variant)


def inferred_accessible_query(query: ConjunctiveQuery) -> ConjunctiveQuery:
    """``InferredAccQ``: rename relations and demand accessible free vars.

    The atoms of Q move to their ``InfAcc_`` copies, and one
    ``_accessible(x)`` atom is added for every free variable, so a match
    certifies both derivability and that the witness values can actually be
    returned to the user.
    """
    renamed = query.rename_relations(
        {atom.relation: infacc_name(atom.relation) for atom in query.atoms}
    )
    accessible_atoms = tuple(
        Atom(ACCESSIBLE, (variable,)) for variable in query.head
    )
    return ConjunctiveQuery(
        query.head,
        renamed.atoms + accessible_atoms,
        name=f"InfAcc_{query.name}",
    )


def _build_rules(schema: Schema, variant: Variant) -> Iterable[ChaseRule]:
    yield from _original_rules(schema)
    yield from _infacc_copies(schema)
    yield from _defining_axioms(schema)
    yield from _accessed_to_infacc(schema)
    yield from _accessibility_axioms(schema)
    if variant is Variant.BIDIRECTIONAL:
        yield from _reverse_inclusions(schema)
        yield from _negative_axioms(schema, full_arity=False)
    elif variant is Variant.NEGATIVE:
        yield from _reverse_inclusions(schema)
        yield from _negative_axioms(schema, full_arity=True)


def _original_rules(schema: Schema) -> Iterable[ChaseRule]:
    for tgd in schema.constraints:
        yield ChaseRule(tgd, AxiomKind.ORIGINAL)


def _infacc_copies(schema: Schema) -> Iterable[ChaseRule]:
    renaming = {r.name: infacc_name(r.name) for r in schema.relations}
    for tgd in schema.constraints:
        yield ChaseRule(tgd.rename_relations(renaming), AxiomKind.INFACC_COPY)


def _relation_variables(relation: Relation) -> Tuple[Variable, ...]:
    return tuple(Variable(f"x{i}") for i in range(relation.arity))


def _defining_axioms(schema: Schema) -> Iterable[ChaseRule]:
    for relation in schema.relations:
        if relation.arity == 0:
            continue
        variables = _relation_variables(relation)
        body = (Atom(accessed_name(relation.name), variables),)
        head = tuple(Atom(ACCESSIBLE, (v,)) for v in variables)
        yield ChaseRule(
            TGD(body, head, name=f"def[{relation.name}]"),
            AxiomKind.DEFINING,
        )


def _accessed_to_infacc(schema: Schema) -> Iterable[ChaseRule]:
    for relation in schema.relations:
        variables = _relation_variables(relation)
        yield ChaseRule(
            TGD(
                (Atom(accessed_name(relation.name), variables),),
                (Atom(infacc_name(relation.name), variables),),
                name=f"acc2inf[{relation.name}]",
            ),
            AxiomKind.ACCESSED_TO_INFACC,
        )


def _accessibility_axioms(schema: Schema) -> Iterable[ChaseRule]:
    for method in schema.methods:
        relation = schema.relation(method.relation)
        variables = _relation_variables(relation)
        guards = tuple(
            Atom(ACCESSIBLE, (variables[p],))
            for p in method.input_positions
        )
        body = guards + (Atom(relation.name, variables),)
        head = (Atom(accessed_name(relation.name), variables),)
        yield ChaseRule(
            TGD(body, head, name=f"access[{method.name}]"),
            AxiomKind.ACCESSIBILITY,
            method=method,
        )


def _reverse_inclusions(schema: Schema) -> Iterable[ChaseRule]:
    for relation in schema.relations:
        variables = _relation_variables(relation)
        yield ChaseRule(
            TGD(
                (Atom(accessed_name(relation.name), variables),),
                (Atom(relation.name, variables),),
                name=f"rev[{relation.name}]",
            ),
            AxiomKind.REVERSE_INCLUSION,
        )


def _negative_axioms(schema: Schema, full_arity: bool) -> Iterable[ChaseRule]:
    """Negative accessibility axioms in contrapositive TGD form.

    With ``full_arity`` (the ``AcSch-neg`` variant) every position of the
    relation must hold an accessible value; otherwise (``AcSch<->``) only
    the method's input positions must.
    """
    for method in schema.methods:
        relation = schema.relation(method.relation)
        variables = _relation_variables(relation)
        if full_arity:
            guarded_positions: Tuple[int, ...] = tuple(range(relation.arity))
        else:
            guarded_positions = method.input_positions
        guards = tuple(
            Atom(ACCESSIBLE, (variables[p],)) for p in guarded_positions
        )
        body = guards + (Atom(infacc_name(relation.name), variables),)
        head = (Atom(accessed_name(relation.name), variables),)
        yield ChaseRule(
            TGD(body, head, name=f"neg-access[{method.name}]"),
            AxiomKind.NEGATIVE_ACCESSIBILITY,
            method=method,
        )
