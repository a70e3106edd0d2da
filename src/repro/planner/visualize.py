"""Graphviz (DOT) renderings of proof trees and plans.

``search_tree_to_dot`` regenerates Figure 1 of the paper as an actual
figure: one box per proof-tree node showing the exposed fact, partial
cost and status (success / pruned-by-cost / dominated), edges following
the accessibility-axiom firings and a dashed edge from each dominated
node to its dominator.  Render with ``dot -Tpdf``.

``plan_to_dot`` draws a plan's dataflow: access commands as double
octagons (labelled with their method), middleware tables as boxes,
edges following table reads.
"""

from __future__ import annotations

from typing import Dict, List

from repro.planner.search import SearchResult
from repro.plans.commands import AccessCommand
from repro.plans.plan import Plan


def _escape(text: str) -> str:
    return text.replace('"', '\\"')


def search_tree_to_dot(result: SearchResult, title: str = "proof space") -> str:
    """DOT text for a search run's proof tree (needs ``collect_tree``)."""
    if not result.tree:
        raise ValueError(
            "no tree recorded: run the search with "
            "SearchOptions(collect_tree=True)"
        )
    lines = [
        "digraph prooftree {",
        "  rankdir=TB;",
        f'  label="{_escape(title)}";',
        "  node [shape=box, fontsize=10];",
    ]
    for node in result.tree:
        if node.exposures:
            exposure = node.exposures[-1]
            label = f"n{node.node_id}\\nexpose {exposure.fact.relation}"
            label += f"\\nvia {exposure.method}"
        else:
            label = f"n{node.node_id}\\n(root)"
        label += f"\\ncost {node.cost:g}"
        attrs = [f'label="{_escape(label)}"']
        if node.successful:
            attrs.append("style=filled")
            attrs.append('fillcolor="#b7e1a1"')
        elif node.pruned in ("cost", "bound"):
            attrs.append("style=filled")
            attrs.append('fillcolor="#f4c7c3"')
        elif node.pruned == "domination":
            attrs.append("style=filled")
            attrs.append('fillcolor="#d9d2e9"')
        lines.append(f"  n{node.node_id} [{', '.join(attrs)}];")
        if node.parent_id is not None:
            lines.append(f"  n{node.parent_id} -> n{node.node_id};")
        if node.dominated_by is not None:
            lines.append(
                f"  n{node.node_id} -> n{node.dominated_by} "
                f'[style=dashed, constraint=false, label="dominated by"];'
            )
    lines.append("}")
    return "\n".join(lines)


def plan_to_dot(plan: Plan) -> str:
    """DOT text for a plan's command dataflow."""
    lines = [
        "digraph plan {",
        "  rankdir=LR;",
        f'  label="{_escape(plan.name)} ({plan.kind.value})";',
        "  node [fontsize=10];",
    ]
    for index, command in enumerate(plan.commands):
        if isinstance(command, AccessCommand):
            label = f"{command.target}\\naccess {command.method}"
            shape = "doubleoctagon"
        else:
            label = f"{command.target}"
            shape = "box"
        lines.append(
            f'  "{command.target}" [shape={shape}, '
            f'label="{_escape(label)}"];'
        )
        for source in sorted(command.tables_read()):
            lines.append(f'  "{source}" -> "{command.target}";')
    lines.append(
        f'  "{plan.output_table}" [style=filled, fillcolor="#b7e1a1"];'
    )
    lines.append("}")
    return "\n".join(lines)
