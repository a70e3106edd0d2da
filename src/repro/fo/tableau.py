"""A refutation tableau prover with interpolant extraction.

Implements the classical signed ("biased") tableau method behind the
paper's constructive Access Interpolation theorem (Theorem 4): to
interpolate an entailment ``phi1 |= phi2``, refute ``phi1 & not phi2``
keeping every formula labelled with the side it came from (L for phi1, R
for not-phi2), and read an interpolant off the closed tableau bottom-up:

* branch closed by two L-formulas  -> Bottom,
* by two R-formulas                -> Top,
* by a positive L / negative R pair -> the atom,
* by a positive R / negative L pair -> its negation,
* beta splits combine sub-interpolants with Or (L-disjunction) or
  And (R-disjunction),
* delta parameters are quantified out of the final interpolant
  (existentially for L-parameters, universally for R-parameters).

The prover is for equality-free, function-free FO (the language of TGDs
and of the paper's axioms).  Universal quantifiers are instantiated over
the branch's ground terms with a per-formula budget, so the prover is a
bounded semi-decision procedure: ``ProofNotFound`` means "no proof within
budget", never "disproved" -- full FO validity is undecidable and the
paper's Theorems 1-3 are correspondingly non-effective.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

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
from repro.logic.atoms import Atom, Substitution
from repro.logic.dependencies import TGD
from repro.errors import ReproError
from repro.logic.terms import Constant, Term, Variable


class ProofNotFound(ReproError):
    """No closed tableau was found within the search budget."""


LEFT = "L"
RIGHT = "R"

_PARAM_PREFIX = "@p"


def is_parameter(term: Term) -> bool:
    """True for constants invented by delta expansions."""
    return isinstance(term, Constant) and isinstance(
        term.value, str
    ) and term.value.startswith(_PARAM_PREFIX)


@dataclass(frozen=True)
class Signed:
    """A formula tagged with the side of the entailment it came from."""

    formula: Formula
    side: str

    def __repr__(self) -> str:
        return f"[{self.side}] {self.formula!r}"


def tgd_to_formula(tgd: TGD) -> Formula:
    """A TGD as a closed FO sentence."""
    body = And(*(FOAtom(a) for a in tgd.body))
    head: Formula = And(*(FOAtom(a) for a in tgd.head))
    existential = tgd.existential_order()
    if existential:
        head = Exists(existential, head)
    universal = tuple(sorted(tgd.body_variables(), key=lambda v: v.name))
    return Forall(universal, Implies(body, head))


def simplify(formula: Formula) -> Formula:
    """Light boolean simplification of extracted interpolants."""
    if isinstance(formula, And):
        parts = []
        for part in (simplify(p) for p in formula.parts):
            if isinstance(part, Bottom):
                return Bottom()
            if isinstance(part, Top):
                continue
            parts.append(part)
        if not parts:
            return Top()
        if len(parts) == 1:
            return parts[0]
        return And(*parts)
    if isinstance(formula, Or):
        parts = []
        for part in (simplify(p) for p in formula.parts):
            if isinstance(part, Top):
                return Top()
            if isinstance(part, Bottom):
                continue
            parts.append(part)
        if not parts:
            return Bottom()
        if len(parts) == 1:
            return parts[0]
        return Or(*parts)
    if isinstance(formula, Not):
        inner = simplify(formula.inner)
        if isinstance(inner, Top):
            return Bottom()
        if isinstance(inner, Bottom):
            return Top()
        return Not(inner)
    if isinstance(formula, Exists):
        body = simplify(formula.body)
        if isinstance(body, (Top, Bottom)):
            return body
        return Exists(formula.variables, body)
    if isinstance(formula, Forall):
        body = simplify(formula.body)
        if isinstance(body, (Top, Bottom)):
            return body
        return Forall(formula.variables, body)
    return formula


@dataclass
class _Branch:
    """One open tableau branch (persistent-ish: copied on split)."""

    pending: List[Signed]
    # Ground literals: (relation, terms, positive?) -> side of occurrence.
    literals: Dict[Tuple[str, Tuple[Term, ...], bool], str]
    # Universal formulas available for gamma, with used instantiations.
    universals: List[Tuple[Signed, Set[Tuple[Term, ...]]]]
    terms: Set[Term]
    # FIFO head of ``pending``: entries before it are consumed.  An
    # integer cursor keeps dequeuing O(1) where a ``pop(0)`` drain
    # would shift the whole tail on every expansion step.
    cursor: int = 0

    def copy(self) -> "_Branch":
        """An independent copy (already-consumed pending entries drop)."""
        return _Branch(
            pending=self.pending[self.cursor:],
            literals=dict(self.literals),
            universals=[(s, set(used)) for s, used in self.universals],
            terms=set(self.terms),
        )


class TableauProver:
    """Bounded tableau refutation with interpolant extraction."""

    def __init__(
        self,
        gamma_limit: int = 4,
        max_steps: int = 20_000,
        max_parameters: int = 24,
    ) -> None:
        self.gamma_limit = gamma_limit
        self.max_steps = max_steps
        self.max_parameters = max_parameters
        self._params = itertools.count()
        self._param_side: Dict[Constant, str] = {}
        self._param_order: List[Constant] = []
        self._steps = 0

    # ----------------------------------------------------------- public
    def refute(
        self,
        left: Sequence[Formula],
        right: Sequence[Formula],
    ) -> Formula:
        """Close a tableau for ``left (L) + right (R)``; return interpolant.

        The returned formula I satisfies ``And(left) |= I`` and
        ``I, And(right) |= Bottom``, over the vocabulary discipline of
        Theorem 4 (checked by the interpolation wrapper).  Raises
        :class:`ProofNotFound` when the budget is exhausted.
        """
        self._params = itertools.count()
        self._param_side = {}
        self._param_order = []
        self._steps = 0
        branch = _Branch(pending=[], literals={}, universals=[], terms=set())
        for formula in left:
            self._push(branch, Signed(to_nnf(formula), LEFT))
        for formula in right:
            self._push(branch, Signed(to_nnf(formula), RIGHT))
        raw = self._close(branch)
        return simplify(self._quantify_parameters(raw))

    def entails(
        self, premises: Sequence[Formula], conclusion: Formula
    ) -> bool:
        """Best-effort entailment check (True = proved)."""
        try:
            self.refute(list(premises), [Not(conclusion)])
            return True
        except ProofNotFound:
            return False

    def is_unsatisfiable(self, formulas: Sequence[Formula]) -> bool:
        """Best-effort refutation (True = proved unsatisfiable)."""
        try:
            self.refute(list(formulas), [])
            return True
        except ProofNotFound:
            return False

    # ----------------------------------------------------------- engine
    def _push(self, branch: _Branch, signed: Signed) -> None:
        formula = signed.formula
        if isinstance(formula, (FOAtom, Not)):
            key = self._literal_key(formula)
            if key is not None:
                branch.literals.setdefault(key, signed.side)
                for term in key[1]:
                    branch.terms.add(term)
                return
        if isinstance(formula, Forall):
            branch.universals.append((signed, set()))
            self._collect_terms(formula, branch)
            return
        branch.pending.append(signed)
        self._collect_terms(formula, branch)

    def _collect_terms(self, formula: Formula, branch: _Branch) -> None:
        for constant in formula.constants():
            branch.terms.add(constant)

    def _literal_key(
        self, formula: Formula
    ) -> Optional[Tuple[str, Tuple[Term, ...], bool]]:
        if isinstance(formula, FOAtom) and formula.atom.is_fact:
            return (formula.atom.relation, formula.atom.terms, True)
        if (
            isinstance(formula, Not)
            and isinstance(formula.inner, FOAtom)
            and formula.inner.atom.is_fact
        ):
            return (formula.inner.atom.relation, formula.inner.atom.terms, False)
        return None

    def _close(self, branch: _Branch) -> Formula:
        """Close the branch; return the (raw) interpolant."""
        self._steps += 1
        if self._steps > self.max_steps:
            raise ProofNotFound("step budget exhausted")
        closure = self._find_closure(branch)
        if closure is not None:
            return closure
        if branch.cursor < len(branch.pending):
            return self._expand(branch)
        return self._gamma(branch)

    def _find_closure(self, branch: _Branch) -> Optional[Formula]:
        for (relation, terms, positive), side in branch.literals.items():
            other = branch.literals.get((relation, terms, not positive))
            if other is None:
                continue
            pos_side = side if positive else other
            neg_side = other if positive else side
            atom = FOAtom(Atom(relation, terms))
            if pos_side == LEFT and neg_side == LEFT:
                return Bottom()
            if pos_side == RIGHT and neg_side == RIGHT:
                return Top()
            if pos_side == LEFT and neg_side == RIGHT:
                return atom
            return Not(atom)
        return None

    def _expand(self, branch: _Branch) -> Formula:
        signed = branch.pending[branch.cursor]
        branch.cursor += 1
        formula, side = signed.formula, signed.side
        if isinstance(formula, Top):
            if side == RIGHT:
                return self._close(branch)
            return self._close(branch)
        if isinstance(formula, Bottom):
            # An explicit falsum closes immediately.
            return Bottom() if side == LEFT else Top()
        if isinstance(formula, And):
            for part in formula.parts:
                self._push(branch, Signed(part, side))
            return self._close(branch)
        if isinstance(formula, Or):
            interpolants = []
            for part in formula.parts:
                sub = branch.copy()
                self._push(sub, Signed(part, side))
                interpolants.append(self._close(sub))
            if not interpolants:
                return Bottom() if side == LEFT else Top()
            return (
                Or(*interpolants) if side == LEFT else And(*interpolants)
            )
        if isinstance(formula, Exists):
            binding = {}
            for variable in formula.variables:
                binding[variable] = self._fresh_parameter(side)
            body = formula.body.substitute(Substitution(binding))
            self._push(branch, Signed(body, side))
            return self._close(branch)
        if isinstance(formula, (FOAtom, Not)):
            # Non-ground literal (free variables): treat as inert.
            return self._close(branch)
        raise ProofNotFound(f"cannot expand {signed!r}")

    def _gamma(self, branch: _Branch) -> Formula:
        """Instantiate some universal with an unused ground term tuple.

        Connection guidance: combinations that unify one of the
        universal's literal templates with an existing branch literal are
        tried first -- they are the instantiations that can actually
        close branches -- before falling back to systematic enumeration.
        """
        terms = sorted(branch.terms) or [self._fresh_parameter(LEFT)]
        for guided_only in (True, False):
            for signed, used in branch.universals:
                formula = signed.formula
                assert isinstance(formula, Forall)
                width = len(formula.variables)
                if len(used) >= self.gamma_limit ** max(1, width):
                    continue
                combos = (
                    self._guided_combos(formula, branch, terms)
                    if guided_only
                    else itertools.product(terms, repeat=width)
                )
                for combo in combos:
                    if combo in used:
                        continue
                    used.add(combo)
                    binding = Substitution(
                        dict(zip(formula.variables, combo))
                    )
                    body = formula.body.substitute(binding)
                    self._push(branch, Signed(to_nnf(body), signed.side))
                    return self._close(branch)
        raise ProofNotFound("branch saturated without closure")

    def _guided_combos(self, formula: Forall, branch: _Branch, terms):
        """Instantiations unifying a body literal with a branch literal."""
        variables = formula.variables
        for template in _literal_templates(formula.body):
            for relation, ground_terms, _pos in branch.literals:
                if relation != template.relation:
                    continue
                if len(ground_terms) != template.arity:
                    continue
                binding: dict = {}
                ok = True
                for pattern_term, ground in zip(
                    template.terms, ground_terms
                ):
                    if isinstance(pattern_term, Variable):
                        if pattern_term in variables:
                            bound = binding.get(pattern_term)
                            if bound is None:
                                binding[pattern_term] = ground
                            elif bound != ground:
                                ok = False
                                break
                    elif pattern_term != ground:
                        ok = False
                        break
                if not ok:
                    continue
                free = [v for v in variables if v not in binding]
                for filler in itertools.product(terms, repeat=len(free)):
                    full = dict(binding)
                    full.update(zip(free, filler))
                    yield tuple(full[v] for v in variables)

    def _fresh_parameter(self, side: str) -> Constant:
        if len(self._param_order) >= self.max_parameters:
            raise ProofNotFound("parameter budget exhausted")
        parameter = Constant(f"{_PARAM_PREFIX}{next(self._params)}")
        self._param_side[parameter] = side
        self._param_order.append(parameter)
        return parameter

    # ----------------------------------------------- parameter cleanup
    def _quantify_parameters(self, interpolant: Formula) -> Formula:
        """Quantify out delta parameters, newest first.

        L-parameters are existential, R-parameters universal -- the
        standard endgame of tableau interpolation.
        """
        result = interpolant
        fresh = itertools.count()
        for parameter in reversed(self._param_order):
            if parameter not in result.constants():
                continue
            variable = Variable(f"z{next(fresh)}")
            result = _replace_constant(result, parameter, variable)
            if self._param_side[parameter] == LEFT:
                result = Exists((variable,), result)
            else:
                result = Forall((variable,), result)
        return result


def _literal_templates(formula: Formula):
    """All atoms occurring in a formula (any polarity, any depth)."""
    if isinstance(formula, FOAtom):
        yield formula.atom
    elif isinstance(formula, Not):
        yield from _literal_templates(formula.inner)
    elif isinstance(formula, (And, Or)):
        for part in formula.parts:
            yield from _literal_templates(part)
    elif isinstance(formula, Implies):
        yield from _literal_templates(formula.left)
        yield from _literal_templates(formula.right)
    elif isinstance(formula, (Exists, Forall)):
        yield from _literal_templates(formula.body)


def _replace_constant(
    formula: Formula, constant: Constant, variable: Variable
) -> Formula:
    """Structurally replace a constant by a variable."""
    if isinstance(formula, FOAtom):
        terms = tuple(
            variable if t == constant else t for t in formula.atom.terms
        )
        return FOAtom(Atom(formula.atom.relation, terms))
    if isinstance(formula, Eq):
        left = variable if formula.left == constant else formula.left
        right = variable if formula.right == constant else formula.right
        return Eq(left, right)
    if isinstance(formula, Not):
        return Not(_replace_constant(formula.inner, constant, variable))
    if isinstance(formula, And):
        return And(
            *(_replace_constant(p, constant, variable) for p in formula.parts)
        )
    if isinstance(formula, Or):
        return Or(
            *(_replace_constant(p, constant, variable) for p in formula.parts)
        )
    if isinstance(formula, Implies):
        return Implies(
            _replace_constant(formula.left, constant, variable),
            _replace_constant(formula.right, constant, variable),
        )
    if isinstance(formula, Exists):
        return Exists(
            formula.variables,
            _replace_constant(formula.body, constant, variable),
        )
    if isinstance(formula, Forall):
        return Forall(
            formula.variables,
            _replace_constant(formula.body, constant, variable),
        )
    return formula
