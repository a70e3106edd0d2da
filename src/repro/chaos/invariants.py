"""The invariants every chaos scenario must preserve.

Three checks, applied to every request of every scenario:

* **soundness** (:func:`verify_response`): an answer marked
  ``complete`` equals the clean oracle's certain answers exactly; an
  answer marked ``partial`` is a subset of them; an unmarked table or
  a non-typed error is a violation on its own.  This is the dynamic
  face of the paper's guarantee -- chaos may *withhold* answers
  (typed, marked), it may never *change* them.
* **accounting** (:func:`verify_accounting`): submitted ==
  complete + partial + failed + shed + rejected, and the service's own
  books (``served``, ``shed``, ``rejected``) agree with the per-ticket
  outcomes the harness observed -- no request is lost, double-counted,
  or silently dropped.
* **termination**: enforced by the harness itself
  (:meth:`~repro.chaos.runner.ScenarioHarness.collect` waits on every
  ticket with the scenario deadline); a ticket still unresolved when
  the deadline passes is reported as a ``termination`` violation, the
  one invariant that cannot be checked after the fact.

Checkers return :class:`InvariantViolation` lists instead of raising,
so a scenario report can carry *all* violations (and the benchmark can
count them) rather than dying on the first.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Mapping

from repro.errors import ReproError

#: The terminal outcome classes a harness buckets tickets into.
OUTCOMES = ("complete", "partial", "failed", "shed", "rejected")


@dataclass(frozen=True)
class InvariantViolation:
    """One observed breach of a chaos invariant."""

    #: "soundness" | "accounting" | "termination" | "typed"
    invariant: str
    detail: str

    def __str__(self) -> str:
        return f"{self.invariant}: {self.detail}"

    def as_dict(self) -> Dict[str, str]:
        """A JSON-able representation."""
        return {"invariant": self.invariant, "detail": self.detail}


def verify_response(
    response, oracle_rows: FrozenSet
) -> List[InvariantViolation]:
    """Check one resolved response against the clean oracle.

    ``oracle_rows`` are the certain answers computed with no chaos
    injected (same plan or query, clean source).  Returns all
    violations: soundness breaches (wrong or unmarked answers) and
    typing breaches (non-:class:`~repro.errors.ReproError` failures).
    """
    violations: List[InvariantViolation] = []
    rid = response.request_id or "request"
    if response.error is not None:
        if not isinstance(response.error, ReproError):
            violations.append(
                InvariantViolation(
                    "typed",
                    f"{rid}: failed with untyped "
                    f"{type(response.error).__name__}: {response.error}",
                )
            )
        return violations
    if response.table is None:
        violations.append(
            InvariantViolation(
                "typed", f"{rid}: resolved with neither table nor error"
            )
        )
        return violations
    rows = frozenset(response.table.rows)
    if response.complete:
        if rows != oracle_rows:
            missing = len(oracle_rows - rows)
            extra = len(rows - oracle_rows)
            violations.append(
                InvariantViolation(
                    "soundness",
                    f"{rid}: marked complete but diverges from the oracle "
                    f"({missing} missing, {extra} extra rows)",
                )
            )
    elif response.partial:
        if not rows <= oracle_rows:
            violations.append(
                InvariantViolation(
                    "soundness",
                    f"{rid}: marked partial but contains "
                    f"{len(rows - oracle_rows)} rows not in the oracle",
                )
            )
    else:
        violations.append(
            InvariantViolation(
                "typed",
                f"{rid}: answer carries neither complete nor partial "
                "marking",
            )
        )
    return violations


def verify_accounting(
    submitted: int,
    outcomes: Mapping[str, int],
    books,
) -> List[InvariantViolation]:
    """Check the accounting identity against the service's books.

    ``outcomes`` is the harness's own bucketing of every submission
    (keys from :data:`OUTCOMES`); ``books`` is a
    :class:`~repro.service.service.ServiceBooks` (a ``health()``
    snapshot is one).  Three identities:

    * nothing lost: submitted == sum of all outcome buckets;
    * served books balance: ``books.served`` == complete + partial
      + failed (exactly the tickets the service resolved and
      accounted);
    * refusal books balance: ``books.shed + books.rejected`` == shed
      + rejected (every request the service refused, at the door or
      from the queue, was typed and counted once).
    """
    violations: List[InvariantViolation] = []
    total = sum(outcomes.get(key, 0) for key in OUTCOMES)
    if submitted != total:
        violations.append(
            InvariantViolation(
                "accounting",
                f"{submitted} submitted but only {total} accounted for "
                f"({dict(outcomes)})",
            )
        )
    served = (
        outcomes.get("complete", 0)
        + outcomes.get("partial", 0)
        + outcomes.get("failed", 0)
    )
    if books.served != served:
        violations.append(
            InvariantViolation(
                "accounting",
                f"service served={books.served} but the harness "
                f"observed {served} served outcomes",
            )
        )
    refused = outcomes.get("shed", 0) + outcomes.get("rejected", 0)
    shed, rejected = books.shed, books.rejected
    if shed + rejected != refused:
        violations.append(
            InvariantViolation(
                "accounting",
                f"service shed={shed} + rejected={rejected} but the "
                f"harness observed {refused} shed/rejected outcomes",
            )
        )
    return violations
