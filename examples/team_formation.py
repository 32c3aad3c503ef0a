"""The paper's running example, end to end (Examples 1-3 + §II compression).

Reproduces, on the reconstructed Fig. 1 collaboration network:

* Example 1 — the exact match relation under bounded simulation, and why
  subgraph isomorphism and plain simulation both come up empty;
* Example 2 — the social-impact ranks f(SA,Bob) = 9/5 and f(SA,Walt) = 7/3;
* Example 3 — the incremental ΔM = {(SD, Fred)} after inserting edge e1;
* the compression discussion — Pat and Fred become mutually similar and
  merge in the compressed graph.

Run:  python examples/team_formation.py
"""

from fractions import Fraction

from repro.compression.compress import compress
from repro.datasets.paper_example import EDGE_E1, paper_graph, paper_pattern
from repro.incremental.inc_bounded import IncrementalBoundedSimulation
from repro.incremental.updates import EdgeInsertion, apply_updates
from repro.matching.bounded import match_bounded
from repro.matching.isomorphism import count_isomorphisms
from repro.matching.simulation import match_simulation
from repro.ranking.social_impact import rank_matches
from repro.viz import ascii as views


def main() -> None:
    graph = paper_graph()
    pattern = paper_pattern()

    print("=" * 70)
    print("Example 1: matching semantics on the Fig. 1 network")
    print("=" * 70)
    print(pattern.describe())
    print()
    bounded = match_bounded(graph, pattern)
    print("Bounded simulation M(Q,G):")
    print(views.relation_summary(bounded.relation))
    print()
    print(
        "Subgraph isomorphism embeddings found:",
        count_isomorphisms(graph, pattern),
        "(needs edge-to-edge mapping: Bob has no direct BA edge)",
    )
    simulation = match_simulation(graph, pattern)
    print(
        "Plain simulation match:",
        "empty" if simulation.relation.is_empty else "nonempty",
        "(every bound treated as 1 is too restrictive)",
    )
    print()

    print("=" * 70)
    print("Example 2: ranking the SA candidates by social impact")
    print("=" * 70)
    result_graph = bounded.result_graph()
    print(views.render_result_graph(result_graph))
    print()
    ranked = rank_matches(result_graph)
    for match in ranked:
        print(
            f"  f(SA, {match.node}) = {Fraction(match.rank).limit_denominator(100)}"
            f"  (connected to {match.impact_set_size} team members)"
        )
    print(f"Top-1 expert: {ranked[0].node} — stronger social impact on the team")
    print()

    print("=" * 70)
    print("Example 3: the network changes — incremental evaluation")
    print("=" * 70)
    incremental = IncrementalBoundedSimulation(graph, pattern)
    before = incremental.relation()
    apply_updates(graph, [EdgeInsertion(*EDGE_E1)], [incremental.apply])
    added, removed = before.diff(incremental.relation())
    print(f"inserted e1 = {EDGE_E1[0]} -> {EDGE_E1[1]}")
    print(f"ΔM added:   {sorted(added)}")
    print(f"ΔM removed: {sorted(removed)}")
    print("(computed from the previous result and e1 — no recomputation)")
    print()

    print("=" * 70)
    print("Compression: Pat and Fred now simulate each other")
    print("=" * 70)
    compressed = compress(graph, attrs=("field", "specialty"), method="simulation")
    pat_class = compressed.class_of("Pat")
    fred_class = compressed.class_of("Fred")
    print(f"class(Pat) = {pat_class}, class(Fred) = {fred_class}")
    print(f"merged: {pat_class == fred_class}")
    print(
        f"compressed graph: {compressed.quotient.num_nodes} classes / "
        f"{compressed.quotient.num_edges} edges "
        f"(size reduced by {compressed.size_reduction:.0%})"
    )


if __name__ == "__main__":
    main()
