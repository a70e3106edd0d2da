"""Cross-module semantic property tests.

* AccPart monotonicity: adding tuples never shrinks the accessible part.
* Weak acyclicity really implies chase termination (analysis vs engine).
* Certified plans stay complete under source decorators.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.chase.configuration import ChaseConfiguration
from repro.chase.engine import ChasePolicy, chase_to_fixpoint
from repro.data.accessible_part import accessible_part
from repro.data.instance import Instance
from repro.logic.analysis import is_weakly_acyclic
from repro.logic.atoms import Atom
from repro.logic.dependencies import TGD
from repro.logic.terms import Constant, NullFactory, Variable
from repro.scenarios import example1, example2


class TestAccPartMonotone:
    @pytest.mark.parametrize("seed", range(4))
    def test_adding_tuples_grows_accpart(self, seed):
        scenario = example2(directory_size=6)
        schema = scenario.schema
        small = scenario.instance(seed)
        large = small.copy()
        rng = random.Random(seed)
        # Add extra tuples (respecting nothing in particular: AccPart
        # monotonicity holds regardless of constraints).
        for _ in range(5):
            large.add("Names", (f"extra{rng.randrange(100)}",))
            large.add("Ids", (f"xid{rng.randrange(100)}",))
        part_small = accessible_part(schema, small)
        part_large = accessible_part(schema, large)
        assert part_small.is_subpart_of(part_large)
        assert (
            part_small.accessible_values
            <= part_large.accessible_values
        )

    def test_accpart_fixpoint_stable(self):
        """Re-running AccPart on the accessed copy changes nothing for a
        schema whose accesses reveal everything they return."""
        scenario = example1(professors=5, directory_extra=5)
        instance = scenario.instance(0)
        part = accessible_part(scenario.schema, instance)
        again = accessible_part(scenario.schema, part.as_instance())
        assert again.accessed == part.accessed


VARS = [Variable(n) for n in "xyz"]


@st.composite
def random_tgds(draw):
    """Random single-atom-body TGDs over binary relations R, S, T."""
    rels = ["R", "S", "T"]
    body_rel = draw(st.sampled_from(rels))
    body = Atom(body_rel, (VARS[0], VARS[1]))
    head_rel = draw(st.sampled_from(rels))
    pool = [VARS[0], VARS[1], VARS[2]]  # z is existential if used
    head = Atom(
        head_rel,
        (draw(st.sampled_from(pool)), draw(st.sampled_from(pool))),
    )
    return TGD((body,), (head,))


class TestWeakAcyclicityPredictsTermination:
    @given(st.lists(random_tgds(), min_size=1, max_size=3))
    @settings(max_examples=60, deadline=None)
    def test_wa_sets_terminate_within_generous_budget(self, tgds):
        if not is_weakly_acyclic(tgds):
            return  # the guarantee only goes one way
        config = ChaseConfiguration(
            [
                Atom("R", (Constant("a"), Constant("b"))),
                Atom("S", (Constant("b"), Constant("c"))),
            ]
        )
        result = chase_to_fixpoint(
            config, tgds, NullFactory("wa"), ChasePolicy(max_work=50_000)
        )
        assert result.reached_fixpoint, [repr(t) for t in tgds]
