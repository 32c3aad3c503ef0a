"""Query planning: route, algorithm, and per-edge kernel selection.

The demo promises "optimized query plans"; for ExpFinder that means three
decisions, all made here so they are inspectable and testable:

* **route** — cache hit, compressed graph, or the original graph, in that
  order of preference (§II's evaluation flow);
* **algorithm** — simulation when every bound is 1, bounded simulation
  otherwise.  Both run the relation-first matcher over the snapshot on the
  direct route (simulation unguarded), and one relation-only pass over a
  compressed quotient's frozen snapshot
  (:func:`~repro.matching.bounded.bounded_relation`);
* **kernel, per pattern edge** — how the bounded matcher materialises the
  edge's successor rows over a frozen snapshot: *oracle-pairwise* label
  merges (when a :class:`~repro.graph.oracle.DistanceOracle` covers the
  bound and candidate sets are selective), *per-source BFS enumeration*
  (shallow bounds, tiny frontiers), or the *bitset-parallel* traversal
  (deep or ``'*'`` bounds over broad candidate sets).

:func:`make_plan` and the kernel cost model are pure: they see numbers
describing the engine state and return explainable values.  The cost
units are abstract "operation" counts weighted by per-kernel constants
(an oracle label-merge step is a C-speed list scan; a bitset step is a
big-int mask op) — crude, but the inputs that matter (candidate
cardinalities, estimated frontier sizes, measured label sizes) dominate
the decision by orders of magnitude, so the constants only tune the
boundary.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.pattern.pattern import Bound, Pattern

ROUTE_CACHE = "cache"
ROUTE_COMPRESSED = "compressed"
ROUTE_DIRECT = "direct"

ALGORITHM_SIMULATION = "simulation"
ALGORITHM_BOUNDED = "bounded-simulation"

KERNEL_ORACLE = "oracle-pairwise"
KERNEL_PER_SOURCE = "bfs-enumeration"
KERNEL_BITSET = "bitset"

#: Relative per-operation weights of the three kernels.  One unit is one
#: per-source-BFS edge scan (C-speed frozenset algebra); bitset traversal
#: pays big-int mask arithmetic per edge per level; an oracle join step is
#: a C-speed list scan plus an int add.
PER_SOURCE_OP = 1.0
BITSET_OP = 2.5
ORACLE_OP = 0.25

#: Sources per bitset chunk — mirrors ``matching.bounded.FROZEN_CHUNK_BITS``
#: (kept as a plain number here so the planner stays import-light).
BITSET_CHUNK = 4096


@dataclass(frozen=True)
class EdgeRoute:
    """The kernel decision for one pattern edge, with its cost estimates."""

    edge: tuple[str, str]
    bound: Bound
    kernel: str
    costs: tuple[tuple[str, float], ...]
    num_sources: int
    num_children: int

    def describe(self) -> str:
        bound = "*" if self.bound is None else str(self.bound)
        estimates = ", ".join(
            f"{kernel}={cost:.3g}" for kernel, cost in self.costs
        )
        return (
            f"edge {self.edge[0]}->{self.edge[1]} (bound {bound}, "
            f"{self.num_sources}x{self.num_children} candidates): "
            f"{self.kernel} [{estimates}]"
        )


@dataclass(frozen=True)
class Plan:
    """An evaluation decision plus the reasons behind it."""

    route: str
    algorithm: str
    reasons: tuple[str, ...]
    edge_routes: tuple[EdgeRoute, ...] = field(default=())

    def explain(self) -> str:
        """Human-readable plan description (CLI ``--explain``)."""
        lines = [f"route: {self.route}", f"algorithm: {self.algorithm}"]
        lines.extend(f"- {reason}" for reason in self.reasons)
        lines.extend(f"- {route.describe()}" for route in self.edge_routes)
        return "\n".join(lines)


# ----------------------------------------------------------------------
# per-edge kernel cost model
# ----------------------------------------------------------------------

def estimate_levels(bound: Bound, num_nodes: int, avg_degree: float) -> int:
    """How many BFS levels a traversal for this bound is expected to run.

    Finite bounds truncate the search; ``'*'`` runs to the frontier's
    natural death, which on a random-ish digraph happens around the
    diameter — estimated as ``log(n) / log(avg degree)`` and clamped to a
    sane band so degenerate degree values cannot produce silly plans.
    """
    if bound is not None:
        return max(1, bound)
    if num_nodes <= 1:
        return 1
    growth = max(1.25, avg_degree)
    return max(4, min(40, int(math.log(num_nodes) / math.log(growth)) + 1))


def frontier_size(depth: int, num_nodes: int, avg_degree: float) -> float:
    """Estimated ball volume at ``depth``: ``min(n, avg_degree ** depth)``."""
    if avg_degree <= 1.0:
        return min(num_nodes, depth * max(avg_degree, 0.5) + 1.0)
    try:
        ball = avg_degree ** depth
    except OverflowError:  # pragma: no cover - absurd depths
        return float(num_nodes)
    return float(min(num_nodes, ball))


def kernel_costs(
    num_sources: int,
    num_children: int,
    bound: Bound,
    num_nodes: int,
    num_edges: int,
    oracle_profile: dict | None = None,
) -> dict[str, float]:
    """Abstract cost of each kernel for one pattern edge.

    ``oracle_profile`` is :meth:`DistanceOracle.profile
    <repro.graph.oracle.DistanceOracle.profile>` output (``cap`` plus
    measured average label sizes); without one — or when the cap does not
    cover the bound — the oracle kernel is absent from the result.
    Label sizes are *measured*, which makes the model self-calibrating:
    hub-poor graphs grow labels comparable to ball volumes and the oracle
    correctly loses its advantage there.
    """
    num_nodes = max(1, num_nodes)
    avg_degree = num_edges / num_nodes
    levels = estimate_levels(bound, num_nodes, avg_degree)
    ball_edges = min(
        float(num_edges),
        frontier_size(levels, num_nodes, avg_degree) * max(avg_degree, 0.5),
    )
    costs: dict[str, float] = {
        KERNEL_PER_SOURCE: num_sources * ball_edges * PER_SOURCE_OP,
        KERNEL_BITSET: (
            -(-num_sources // BITSET_CHUNK) * num_edges * levels * BITSET_OP
        ),
    }
    if oracle_profile is not None:
        cap = oracle_profile.get("cap")
        if cap is None or (bound is not None and bound <= cap):
            avg_out = float(oracle_profile.get("avg_out_label", 0.0))
            avg_in = float(oracle_profile.get("avg_in_label", 0.0))
            merge = min(avg_out, avg_in) or max(avg_out, avg_in)
            costs[KERNEL_ORACLE] = (
                num_children * avg_in  # bucket construction
                + num_sources * avg_out  # label scans
                + num_sources * num_children * merge * 0.5  # join work
            ) * ORACLE_OP
    return costs


def enumeration_kernel(bound_depth: Bound, num_sources: int, bulk_depth: int) -> str:
    """Per-source vs bitset for one group of enumeration-routed edges.

    This is the calibrated frontier-size rule the frozen kernels have
    shipped with since they were introduced: below ``bulk_depth`` (or with
    a single source) per-source balls stay small enough that big-int
    bookkeeping cannot pay for itself; at or beyond it — and for ``'*'`` —
    the shared bitset traversal amortises overlapping balls.
    """
    if bound_depth is not None and (bound_depth < bulk_depth or num_sources == 1):
        return KERNEL_PER_SOURCE
    return KERNEL_BITSET


def route_edge(
    edge: tuple[str, str],
    bound: Bound,
    num_sources: int,
    num_children: int,
    num_nodes: int,
    num_edges: int,
    oracle_profile: dict | None = None,
    bulk_depth: int = 5,
) -> EdgeRoute:
    """Pick the kernel for one pattern edge from the cost model.

    The oracle-pairwise kernel is chosen when it is available (an oracle
    whose cap covers the bound) and its candidate x candidate label-merge
    estimate undercuts every enumeration estimate; otherwise the edge
    falls to the calibrated enumeration split.  The returned
    :class:`EdgeRoute` carries every estimate so ``explain()`` can show
    the losing kernels too.
    """
    costs = kernel_costs(
        num_sources,
        num_children,
        bound,
        num_nodes,
        num_edges,
        oracle_profile,
    )
    enumeration = enumeration_kernel(bound, num_sources, bulk_depth)
    kernel = enumeration
    oracle_cost = costs.get(KERNEL_ORACLE)
    if oracle_cost is not None and num_sources and oracle_cost < costs[enumeration]:
        kernel = KERNEL_ORACLE
    ranked = tuple(sorted(costs.items(), key=lambda item: item[1]))
    return EdgeRoute(
        edge=edge,
        bound=bound,
        kernel=kernel,
        costs=ranked,
        num_sources=num_sources,
        num_children=num_children,
    )


def choose_algorithm(pattern: Pattern) -> tuple[str, str]:
    """``(algorithm, reason)`` for a pattern."""
    if pattern.is_simulation_pattern:
        return (
            ALGORITHM_SIMULATION,
            "all pattern bounds are 1: graph simulation, relation-first over "
            "the snapshot, unguarded (relation-only over a compressed "
            "quotient's snapshot)",
        )
    return (
        ALGORITHM_BOUNDED,
        "pattern has bounds > 1 (or '*'): bounded simulation, relation-first "
        "over the snapshot (relation-only over a compressed quotient's snapshot)",
    )


def make_plan(
    pattern: Pattern,
    cached: bool = False,
    compression_available: bool = False,
    compression_compatible: bool = False,
    use_cache: bool = True,
    use_compression: bool = True,
) -> Plan:
    """Decide how a query will be evaluated.

    >>> from repro.datasets.paper_example import paper_pattern
    >>> make_plan(paper_pattern()).route
    'direct'
    >>> make_plan(paper_pattern(), cached=True).route
    'cache'
    """
    algorithm, algo_reason = choose_algorithm(pattern)
    reasons: list[str] = []
    if cached and use_cache:
        reasons.append("result already cached for this graph version")
        return Plan(ROUTE_CACHE, algorithm, tuple(reasons))
    if cached and not use_cache:
        reasons.append("cache hit ignored (use_cache=False)")
    if compression_available and use_compression:
        if compression_compatible:
            reasons.append(
                "compressed graph available and the pattern reads only "
                "compression-label attributes"
            )
            reasons.append(algo_reason)
            return Plan(ROUTE_COMPRESSED, algorithm, tuple(reasons))
        reasons.append(
            "compressed graph available but the pattern reads attributes the "
            "compression does not preserve; falling back to the original graph"
        )
    elif compression_available:
        reasons.append("compression available but disabled (use_compression=False)")
    else:
        reasons.append("no compressed graph for this data graph")
    reasons.append(algo_reason)
    return Plan(ROUTE_DIRECT, algorithm, tuple(reasons))
