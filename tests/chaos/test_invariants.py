"""The chaos invariant checkers themselves: they must catch breaches."""

from repro.chaos.invariants import verify_accounting, verify_response
from repro.errors import DeadlineExceeded
from repro.plans.expressions import NamedTable
from repro.service.request import QueryResponse
from repro.service.service import ServiceBooks

ORACLE = frozenset({("a", "c1"), ("a", "c2")})


def table(rows):
    return NamedTable(("x", "y"), frozenset(rows))


class TestVerifyResponse:
    def test_complete_matching_oracle_is_clean(self):
        response = QueryResponse("q1", table=table(ORACLE), complete=True)
        assert verify_response(response, ORACLE) == []

    def test_complete_divergence_is_a_soundness_violation(self):
        rows = {("a", "c1"), ("a", "WRONG")}
        response = QueryResponse("q1", table=table(rows), complete=True)
        violations = verify_response(response, ORACLE)
        assert [v.invariant for v in violations] == ["soundness"]
        assert "1 missing, 1 extra" in violations[0].detail

    def test_partial_subset_is_clean(self):
        response = QueryResponse(
            "q1", table=table({("a", "c1")}), complete=False, partial=True
        )
        assert verify_response(response, ORACLE) == []

    def test_partial_with_alien_rows_is_a_soundness_violation(self):
        response = QueryResponse(
            "q1",
            table=table({("a", "ALIEN")}),
            complete=False,
            partial=True,
        )
        violations = verify_response(response, ORACLE)
        assert [v.invariant for v in violations] == ["soundness"]

    def test_unmarked_answer_is_a_typed_violation(self):
        response = QueryResponse(
            "q1", table=table(ORACLE), complete=False, partial=False
        )
        violations = verify_response(response, ORACLE)
        assert [v.invariant for v in violations] == ["typed"]

    def test_typed_error_is_clean_untyped_is_not(self):
        typed = QueryResponse("q1", error=DeadlineExceeded("late"))
        assert verify_response(typed, ORACLE) == []
        untyped = QueryResponse("q1", error=RuntimeError("boom"))
        violations = verify_response(untyped, ORACLE)
        assert [v.invariant for v in violations] == ["typed"]
        assert "RuntimeError" in violations[0].detail


class TestVerifyAccounting:
    HEALTH = ServiceBooks(completed=4, partial=1, shed=2)

    def test_balanced_books_are_clean(self):
        outcomes = {
            "complete": 3,
            "partial": 1,
            "failed": 1,
            "shed": 1,
            "rejected": 1,
        }
        assert verify_accounting(7, outcomes, self.HEALTH) == []

    def test_lost_request_is_caught(self):
        outcomes = {"complete": 3, "partial": 1, "failed": 1, "shed": 2}
        violations = verify_accounting(8, outcomes, self.HEALTH)
        assert any("8 submitted" in v.detail for v in violations)

    def test_served_mismatch_is_caught(self):
        outcomes = {"complete": 4, "shed": 2}
        violations = verify_accounting(6, outcomes, self.HEALTH)
        assert any("served=5" in v.detail for v in violations)

    def test_shed_mismatch_is_caught(self):
        outcomes = {"complete": 5, "shed": 1}
        violations = verify_accounting(6, outcomes, self.HEALTH)
        assert any("shed=2" in v.detail for v in violations)
