"""Corollaries 1-2 of the paper: monotonicity <-> rewritability on views.

Corollary 1: a query monotone in a set of views iff it has a USPJ
rewriting over them.  In our effective (TGD + chase) reading this says:
the AcSch entailment check over a view schema (which is exactly the
subinstance-monotonicity proxy of Claim 2) agrees with the planner's
rewritability verdict -- two implementations of the same property.
"""

import pytest

from repro.fo.determinacy import is_monotonically_determined
from repro.logic.queries import cq
from repro.planner.views import (
    ViewDefinition,
    rewrite_over_views,
    views_schema,
)
from repro.schema.core import Relation


BASE = [Relation("R", 2), Relation("S", 2)]

VIEW_SETS = {
    "identity": [
        ViewDefinition("VR", cq(["?x", "?y"], [("R", ["?x", "?y"])])),
    ],
    "both": [
        ViewDefinition("VR", cq(["?x", "?y"], [("R", ["?x", "?y"])])),
        ViewDefinition("VS", cq(["?y", "?z"], [("S", ["?y", "?z"])])),
    ],
    "join-only": [
        ViewDefinition(
            "VJ",
            cq(
                ["?x", "?z"],
                [("R", ["?x", "?y"]), ("S", ["?y", "?z"])],
            ),
        ),
    ],
    "s-only": [
        ViewDefinition("VS", cq(["?y", "?z"], [("S", ["?y", "?z"])])),
    ],
}

QUERIES = {
    "r": cq(["?x", "?y"], [("R", ["?x", "?y"])], name="qr"),
    "join": cq(
        ["?x", "?z"],
        [("R", ["?x", "?y"]), ("S", ["?y", "?z"])],
        name="qj",
    ),
    "middle": cq(
        ["?y"],
        [("R", ["?x", "?y"]), ("S", ["?y", "?z"])],
        name="qm",
    ),
}


@pytest.mark.parametrize("view_key", sorted(VIEW_SETS))
@pytest.mark.parametrize("query_key", sorted(QUERIES))
def test_monotonicity_agrees_with_rewritability(view_key, query_key):
    schema = views_schema(BASE, VIEW_SETS[view_key], name=view_key)
    query = QUERIES[query_key]
    rewritable = rewrite_over_views(schema, query).rewritable
    monotone = is_monotonically_determined(
        # The entailment chase runs the policy the search ran.
        schema, query, schema.chase_policy()
    )
    assert rewritable == monotone, (view_key, query_key)


def test_expected_verdict_grid():
    """Spot-check the grid against hand-derived expectations."""
    expectations = {
        ("identity", "r"): True,
        ("identity", "join"): False,   # no S view
        ("both", "join"): True,
        ("both", "middle"): True,      # VR and VS both expose y
        ("join-only", "join"): True,
        ("join-only", "middle"): False,  # y projected away
        ("s-only", "r"): False,
    }
    for (view_key, query_key), expected in expectations.items():
        schema = views_schema(BASE, VIEW_SETS[view_key], name=view_key)
        result = rewrite_over_views(schema, QUERIES[query_key])
        assert result.rewritable == expected, (view_key, query_key)
