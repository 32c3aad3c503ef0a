"""Graph substrate: directed attributed graphs, distances, generators, I/O."""

from repro.graph.digraph import Edge, Graph, NodeId
from repro.graph.distance import (
    UNBOUNDED,
    bounded_ancestors,
    bounded_descendants,
    distance,
    eccentricity_within,
    weighted_distances,
    within_bound,
)
from repro.graph.frozen import FrozenGraph
from repro.graph.generators import (
    FIELDS,
    CollaborationConfig,
    collaboration_graph,
    degree_histogram,
    random_digraph,
    twitter_like_graph,
)
from repro.graph.io import (
    graph_from_dict,
    graph_to_dict,
    load_edgelist,
    load_graph,
    save_edgelist,
    save_graph,
)
from repro.graph.index import (
    AttributeIndex,
    Resolution,
    batch_candidates,
    candidates_from_index,
    predicate_key,
)
from repro.graph.oracle import DistanceOracle
from repro.graph.stats import (
    DegreeStats,
    attribute_histogram,
    degree_stats,
    density,
    graph_profile,
    reciprocity,
    sampled_reach,
)

__all__ = [
    "Edge",
    "Graph",
    "NodeId",
    "UNBOUNDED",
    "bounded_ancestors",
    "bounded_descendants",
    "distance",
    "eccentricity_within",
    "weighted_distances",
    "within_bound",
    "FrozenGraph",
    "FIELDS",
    "CollaborationConfig",
    "collaboration_graph",
    "degree_histogram",
    "random_digraph",
    "twitter_like_graph",
    "graph_from_dict",
    "graph_to_dict",
    "load_edgelist",
    "load_graph",
    "save_edgelist",
    "save_graph",
    "AttributeIndex",
    "Resolution",
    "batch_candidates",
    "candidates_from_index",
    "predicate_key",
    "DistanceOracle",
    "DegreeStats",
    "attribute_histogram",
    "degree_stats",
    "density",
    "graph_profile",
    "reciprocity",
    "sampled_reach",
]
