"""Tests for DOT renderings of proof trees and plans."""

import pytest

from repro.planner.search import SearchOptions, find_best_plan
from repro.planner.visualize import plan_to_dot, search_tree_to_dot
from repro.scenarios import example1, example5


@pytest.fixture
def figure1_result():
    scenario = example5(
        sources=3, source_costs=[1.0, 2.0, 3.0], profinfo_cost=5.0
    )
    return find_best_plan(
        scenario.schema,
        scenario.query,
        SearchOptions(
            max_accesses=4, collect_tree=True, candidate_order="method"
        ),
    )


class TestSearchTreeDot:
    def test_requires_collected_tree(self):
        scenario = example1()
        result = find_best_plan(scenario.schema, scenario.query)
        with pytest.raises(ValueError):
            search_tree_to_dot(result)

    def test_every_node_rendered(self, figure1_result):
        dot = search_tree_to_dot(figure1_result)
        for node in figure1_result.tree:
            assert f"n{node.node_id} [" in dot

    def test_edges_follow_parents(self, figure1_result):
        dot = search_tree_to_dot(figure1_result)
        for node in figure1_result.tree:
            if node.parent_id is not None:
                assert f"n{node.parent_id} -> n{node.node_id};" in dot

    def test_statuses_colored(self, figure1_result):
        dot = search_tree_to_dot(figure1_result)
        assert "#b7e1a1" in dot  # a success node exists
        assert "#d9d2e9" in dot  # a dominated node exists (the n''')

    def test_dominated_nodes_point_at_their_dominator(self, figure1_result):
        dot = search_tree_to_dot(figure1_result)
        dominated = [
            n for n in figure1_result.tree if n.pruned == "domination"
        ]
        assert dominated
        for node in dominated:
            assert (
                f"n{node.node_id} -> n{node.dominated_by} [style=dashed"
                in dot
            )
        assert dot.count("style=dashed") == len(dominated)

    def test_syntactically_balanced(self, figure1_result):
        dot = search_tree_to_dot(figure1_result)
        assert dot.startswith("digraph")
        assert dot.rstrip().endswith("}")
        assert dot.count("[") == dot.count("]")


class TestPlanDot:
    def test_access_and_output_marked(self):
        scenario = example1()
        plan = find_best_plan(scenario.schema, scenario.query).best_plan
        dot = plan_to_dot(plan)
        assert "doubleoctagon" in dot
        assert "access mt_udir" in dot
        assert f'"{plan.output_table}" [style=filled' in dot

    def test_dataflow_edges_match_reads(self):
        scenario = example1()
        plan = find_best_plan(scenario.schema, scenario.query).best_plan
        dot = plan_to_dot(plan)
        from repro.plans.commands import AccessCommand

        for command in plan.commands:
            expr = (
                command.input_expr
                if isinstance(command, AccessCommand)
                else command.expr
            )
            for source in expr.tables_read():
                assert f'"{source}" -> "{command.target}";' in dot
