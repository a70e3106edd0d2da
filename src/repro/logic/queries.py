"""Conjunctive queries and canonical databases.

A conjunctive query ``Q(x) = exists y (A1 and ... and An)`` is stored as a
tuple of head variables plus a tuple of atoms.  Boolean queries have an
empty head.  The *canonical database* of Q (Section 4 of the paper) freezes
each variable into a labelled null, producing the starting configuration of
every chase proof.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, Optional, Sequence, Set, Tuple

from repro.logic.atoms import Atom, Substitution
from repro.logic.homomorphisms import FactIndex, find_homomorphisms
from repro.logic.terms import Constant, Null, Term, Variable


class QueryError(ValueError):
    """Raised for malformed conjunctive queries."""


@dataclass(frozen=True)
class ConjunctiveQuery:
    """A conjunctive query with explicit head (free) variables."""

    head: Tuple[Variable, ...]
    atoms: Tuple[Atom, ...]
    name: str = "Q"

    def __post_init__(self) -> None:
        # ``type() is``, not ``isinstance``: a term is a tuple subclass,
        # and ``tuple(term)`` raises for it.
        if type(self.head) is not tuple:
            object.__setattr__(self, "head", tuple(self.head))
        if not isinstance(self.atoms, tuple):
            object.__setattr__(self, "atoms", tuple(self.atoms))
        body_variables = self.variables()
        for variable in self.head:
            if variable not in body_variables:
                raise QueryError(
                    f"head variable {variable!r} does not occur in the body"
                )
        if len(set(self.head)) != len(self.head):
            raise QueryError("repeated head variable")

    @property
    def is_boolean(self) -> bool:
        """True when the query has no head (free) variables."""
        return not self.head

    def variables(self) -> FrozenSet[Variable]:
        """All variables occurring in the body."""
        out: Set[Variable] = set()
        for atom in self.atoms:
            out.update(atom.variables())
        return frozenset(out)

    def existential_variables(self) -> FrozenSet[Variable]:
        """Body variables that are not in the head."""
        return self.variables() - set(self.head)

    def constants(self) -> FrozenSet[Constant]:
        """Schema constants mentioned in the body."""
        out: Set[Constant] = set()
        for atom in self.atoms:
            out.update(atom.constants())
        return frozenset(out)

    def relations(self) -> FrozenSet[str]:
        """Relation names mentioned in the body."""
        return frozenset(atom.relation for atom in self.atoms)

    def canonical_database(
        self, prefix: Optional[str] = None
    ) -> Tuple[Tuple[Atom, ...], Dict[Variable, Null]]:
        """Freeze variables into nulls.

        Returns the canonical facts and the variable-to-null mapping; the
        nulls for head variables are the "constants corresponding to the
        free variables" that chase-proof matches must preserve.
        """
        tag = prefix if prefix is not None else self.name
        mapping = {
            variable: Null(f"{tag}_{variable.name}")
            for variable in sorted(self.variables(), key=lambda v: v.name)
        }
        substitution = Substitution(dict(mapping))
        facts = tuple(atom.apply(substitution) for atom in self.atoms)
        return facts, mapping

    def evaluate(self, index: FactIndex) -> Set[Tuple[Term, ...]]:
        """All head-variable tuples witnessed in the fact index."""
        results: Set[Tuple[Term, ...]] = set()
        for hom in find_homomorphisms(self.atoms, index):
            results.add(tuple(hom[v] for v in self.head))
        return results

    def holds_in(self, index: FactIndex) -> bool:
        """Boolean satisfaction (exists at least one match)."""
        for _ in find_homomorphisms(self.atoms, index):
            return True
        return False

    def substitute(self, substitution: Substitution) -> "ConjunctiveQuery":
        """Apply a substitution to body atoms; head variables must survive."""
        new_head = []
        for variable in self.head:
            image = substitution.get(variable, variable)
            if not isinstance(image, Variable):
                raise QueryError(
                    f"substitution maps head variable {variable!r} "
                    f"to non-variable {image!r}"
                )
            new_head.append(image)
        return ConjunctiveQuery(
            tuple(new_head),
            tuple(atom.apply(substitution) for atom in self.atoms),
            self.name,
        )

    def rename_relations(self, renaming: Dict[str, str]) -> "ConjunctiveQuery":
        """Rename relations (e.g. R -> InfAcc_R) throughout the body."""
        return ConjunctiveQuery(
            self.head,
            tuple(
                atom.rename_relation(renaming.get(atom.relation, atom.relation))
                for atom in self.atoms
            ),
            self.name,
        )

    def __repr__(self) -> str:
        head = ", ".join(repr(v) for v in self.head)
        body = " & ".join(repr(a) for a in self.atoms)
        return f"{self.name}({head}) :- {body}"


def cq(
    head: Sequence[str],
    atoms: Iterable[Tuple[str, Sequence[object]]],
    name: str = "Q",
) -> ConjunctiveQuery:
    """Concise query builder.

    Terms are given as plain Python values: strings starting with ``?`` are
    variables, everything else is a schema constant::

        cq(["?phone"], [("Direct2", ["?uname", "?addr", "?phone"])])
    """
    built = tuple(
        Atom(relation, tuple(_term_of(raw) for raw in terms))
        for relation, terms in atoms
    )
    head_vars = tuple(_variable_of(raw) for raw in head)
    return ConjunctiveQuery(head_vars, built, name)


def _term_of(raw: object) -> Term:
    if isinstance(raw, (Variable, Constant, Null)):
        return raw
    if isinstance(raw, str) and raw.startswith("?"):
        return Variable(raw[1:])
    if isinstance(raw, (str, int, float, bool)):
        return Constant(raw)
    raise QueryError(f"cannot interpret term {raw!r}")


def _variable_of(raw: object) -> Variable:
    if isinstance(raw, Variable):
        return raw
    if isinstance(raw, str):
        return Variable(raw[1:] if raw.startswith("?") else raw)
    raise QueryError(f"cannot interpret head variable {raw!r}")


import re as _re

_HEAD_RE = _re.compile(r"^\s*([A-Za-z_]\w*)\s*\(([^)]*)\)\s*$")
_BODY_ATOM_RE = _re.compile(r"([A-Za-z_]\w*)\s*\(([^)]*)\)")


def parse_cq(text: str) -> ConjunctiveQuery:
    """Parse Datalog-style text into a conjunctive query.

    ::

        parse_cq("q(phone) :- Direct2(uname, addr, phone)")
        parse_cq("q() :- R(x, 'smith'), S(x)")     # boolean
        parse_cq("R(x), S(x)")                      # boolean shorthand

    Bare identifiers are variables; quoted strings and numbers are schema
    constants.  The query name is the head predicate.
    """
    name = "Q"
    if ":-" in text:
        head_text, body_text = text.split(":-", 1)
        match = _HEAD_RE.match(head_text)
        if match is None:
            raise QueryError(f"malformed head {head_text!r}")
        name = match.group(1)
        head = [
            token.strip()
            for token in match.group(2).split(",")
            if token.strip()
        ]
    else:
        body_text = text
        head = []
    atoms = []
    for match in _BODY_ATOM_RE.finditer(body_text):
        relation = match.group(1)
        tokens = [
            token.strip()
            for token in match.group(2).split(",")
            if token.strip()
        ]
        atoms.append(
            Atom(relation, tuple(_parse_text_term(t) for t in tokens))
        )
    if not atoms:
        raise QueryError(f"no body atoms in {text!r}")
    head_vars = tuple(Variable(h) for h in head)
    return ConjunctiveQuery(head_vars, tuple(atoms), name=name)


def _parse_text_term(token: str) -> Term:
    if token.startswith(("'", '"')) and token.endswith(("'", '"')):
        return Constant(token[1:-1])
    try:
        return Constant(int(token))
    except ValueError:
        pass
    return Variable(token)
