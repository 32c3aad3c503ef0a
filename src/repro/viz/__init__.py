"""Textual and DOT rendering — the GUI substitute."""

from repro.viz.ascii import (
    drill_down,
    graph_summary,
    node_card,
    relation_summary,
    render_ranking,
    render_result_graph,
    render_table,
    roll_up,
)
from repro.viz.dot import graph_to_dot, pattern_to_dot, result_to_dot

__all__ = [
    "drill_down",
    "graph_summary",
    "node_card",
    "relation_summary",
    "render_ranking",
    "render_result_graph",
    "render_table",
    "roll_up",
    "graph_to_dot",
    "pattern_to_dot",
    "result_to_dot",
]
