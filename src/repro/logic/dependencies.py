"""Tuple-generating dependencies (TGDs) and their subclasses.

A TGD ``forall x  phi(x) -> exists y rho(x, y)`` is stored as body and head
atom tuples.  The paper's executable algorithms work with:

* arbitrary TGDs (chase may diverge -- Algorithm 1 still applies with a
  depth bound),
* **Guarded TGDs** -- the body has an atom containing every body variable;
  these admit the guarded-bag blocking of Section 5 and make plan existence
  decidable (2EXPTIME),
* **inclusion dependencies** (referential constraints) -- single-atom body
  and head with no repeated variables or constants.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, Optional, Sequence, Tuple

from repro.logic.atoms import Atom
from repro.logic.terms import Constant, Term, Variable


class DependencyError(ValueError):
    """Raised for malformed dependencies."""


@dataclass(frozen=True)
class TGD:
    """A tuple-generating dependency ``body -> exists(head)``."""

    body: Tuple[Atom, ...]
    head: Tuple[Atom, ...]
    name: str = ""

    def __post_init__(self) -> None:
        if not isinstance(self.body, tuple):
            object.__setattr__(self, "body", tuple(self.body))
        if not isinstance(self.head, tuple):
            object.__setattr__(self, "head", tuple(self.head))
        if not self.body:
            raise DependencyError("TGD body must be non-empty")
        if not self.head:
            raise DependencyError("TGD head must be non-empty")
        if not self.name:
            object.__setattr__(self, "name", self._default_name())
        # The variable sets are read per trigger by the chase; the atoms
        # are frozen, so they are computed once, in one pass over the
        # terms of each side.  They are plain attributes, not fields:
        # equality, hash and repr do not see them.
        body_variables = frozenset(
            term
            for atom in self.body
            for term in atom.terms
            if isinstance(term, Variable)
        )
        head_variables = frozenset(
            term
            for atom in self.head
            for term in atom.terms
            if isinstance(term, Variable)
        )
        existential = head_variables - body_variables
        object.__setattr__(self, "_body_variables", body_variables)
        object.__setattr__(self, "_head_variables", head_variables)
        object.__setattr__(
            self, "_frontier", body_variables & head_variables
        )
        object.__setattr__(self, "_existential_variables", existential)
        object.__setattr__(
            self,
            "_existential_order",
            tuple(sorted(existential, key=lambda v: v.name)),
        )

    def _default_name(self) -> str:
        body = ",".join(a.relation for a in self.body)
        head = ",".join(a.relation for a in self.head)
        return f"{body}=>{head}"

    def body_variables(self) -> FrozenSet[Variable]:
        """All variables of the body."""
        return self._body_variables

    def head_variables(self) -> FrozenSet[Variable]:
        """All variables of the head."""
        return self._head_variables

    def frontier(self) -> FrozenSet[Variable]:
        """Variables shared between body and head (the exported ones)."""
        return self._frontier

    def existential_variables(self) -> FrozenSet[Variable]:
        """Head variables bound by the existential quantifier."""
        return self._existential_variables

    def existential_order(self) -> Tuple[Variable, ...]:
        """The existential variables sorted by name: the order in which a
        firing mints their fresh nulls."""
        return self._existential_order

    @property
    def is_full(self) -> bool:
        """Full TGDs introduce no existential variables."""
        return not self.existential_variables()

    @property
    def is_guarded(self) -> bool:
        """True when some body atom contains every body variable."""
        body_vars = self.body_variables()
        return any(
            body_vars <= set(atom.variables()) for atom in self.body
        )

    @property
    def guard(self) -> Optional[Atom]:
        """A body atom containing every body variable, if one exists."""
        body_vars = self.body_variables()
        for atom in self.body:
            if body_vars <= set(atom.variables()):
                return atom
        return None

    @property
    def is_inclusion_dependency(self) -> bool:
        """Single-atom body and head, no constants or repeated variables."""
        if len(self.body) != 1 or len(self.head) != 1:
            return False
        for atom in (self.body[0], self.head[0]):
            if any(isinstance(t, Constant) for t in atom.terms):
                return False
            if len(set(atom.terms)) != len(atom.terms):
                return False
        return True

    def relations(self) -> FrozenSet[str]:
        """Relation names mentioned on either side."""
        return frozenset(
            atom.relation for atom in self.body + self.head
        )

    def rename_relations(self, renaming: Dict[str, str]) -> "TGD":
        """Copy of this TGD with relations renamed on both sides.

        Renaming relations moves no variable, so the copy takes this
        TGD's variable sets as they are instead of deriving them again.
        """
        renamed = object.__new__(TGD)
        renamed.__dict__.update(
            self.__dict__,
            body=tuple(
                a.rename_relation(renaming.get(a.relation, a.relation))
                for a in self.body
            ),
            head=tuple(
                a.rename_relation(renaming.get(a.relation, a.relation))
                for a in self.head
            ),
            name=f"{self.name}'",
        )
        return renamed

    def __repr__(self) -> str:
        body = " & ".join(repr(a) for a in self.body)
        head = " & ".join(repr(a) for a in self.head)
        exists = sorted(v.name for v in self.existential_variables())
        prefix = f"exists {','.join(exists)} " if exists else ""
        return f"[{self.name}] {body} -> {prefix}{head}"


def inclusion_dependency(
    source: str,
    source_positions: Sequence[int],
    target: str,
    target_positions: Sequence[int],
    source_arity: int,
    target_arity: int,
    name: str = "",
) -> TGD:
    """Build a referential constraint ``source[sp] subseteq target[tp]``.

    Positions are 0-based.  Every non-exported position becomes a distinct
    variable (existential on the target side).
    """
    if len(source_positions) != len(target_positions):
        raise DependencyError("position lists must have equal length")
    body_terms: list = [Variable(f"x{i}") for i in range(source_arity)]
    head_terms: list = [Variable(f"y{i}") for i in range(target_arity)]
    for sp, tp in zip(source_positions, target_positions):
        if not 0 <= sp < source_arity or not 0 <= tp < target_arity:
            raise DependencyError("position out of range")
        head_terms[tp] = body_terms[sp]
    return TGD(
        (Atom(source, tuple(body_terms)),),
        (Atom(target, tuple(head_terms)),),
        name=name or f"{source}->{target}",
    )


_ATOM_RE = re.compile(r"([A-Za-z_][\w]*)\s*\(([^)]*)\)")


def parse_tgd(text: str, name: str = "") -> TGD:
    """Parse ``"R(x,y) & S(y) -> T(x,z)"`` into a TGD.

    Lower-case bare identifiers are variables; quoted strings and numbers
    are schema constants.
    """
    if "->" not in text:
        raise DependencyError(f"missing '->' in {text!r}")
    body_text, head_text = text.split("->", 1)
    body = tuple(_parse_atoms(body_text))
    head = tuple(_parse_atoms(head_text))
    if not body or not head:
        raise DependencyError(f"could not parse atoms from {text!r}")
    return TGD(body, head, name=name)


def _parse_atoms(text: str) -> Iterable[Atom]:
    for match in _ATOM_RE.finditer(text):
        relation = match.group(1)
        raw_terms = [t.strip() for t in match.group(2).split(",") if t.strip()]
        yield Atom(relation, tuple(_parse_term(t) for t in raw_terms))


def _parse_term(token: str) -> Term:
    if token.startswith(("'", '"')) and token.endswith(("'", '"')):
        return Constant(token[1:-1])
    try:
        return Constant(int(token))
    except ValueError:
        pass
    return Variable(token)
