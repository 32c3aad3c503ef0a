"""Matchers: (bounded) simulation, isomorphism baseline, result graphs."""

from repro.matching.base import MatchRelation, MatchResult
from repro.matching.bounded import BoundedState, bounded_relation, match_bounded
from repro.matching.isomorphism import (
    count_isomorphisms,
    find_isomorphisms,
    has_isomorphism,
)
from repro.matching.reference import (
    is_maximal_bounded_relation,
    is_valid_bounded_relation,
    naive_bounded,
    naive_simulation,
)
from repro.matching.result_graph import ResultGraph, build_result_graph
from repro.matching.simulation import (
    match_simulation,
    simulates,
    simulation_candidates,
)

__all__ = [
    "MatchRelation",
    "MatchResult",
    "BoundedState",
    "bounded_relation",
    "match_bounded",
    "count_isomorphisms",
    "find_isomorphisms",
    "has_isomorphism",
    "is_maximal_bounded_relation",
    "is_valid_bounded_relation",
    "naive_bounded",
    "naive_simulation",
    "ResultGraph",
    "build_result_graph",
    "match_simulation",
    "simulates",
    "simulation_candidates",
]
