"""Query engine: planner, cache, file storage, orchestration."""

from repro.engine.cache import (
    CacheEntry,
    QueryCache,
    RankCache,
    RankEntry,
    cache_key,
)
from repro.engine.engine import QueryEngine, RegisteredGraph
from repro.engine.planner import (
    ALGORITHM_BOUNDED,
    ALGORITHM_SIMULATION,
    KERNEL_BITSET,
    KERNEL_ORACLE,
    KERNEL_PER_SOURCE,
    ROUTE_CACHE,
    ROUTE_COMPRESSED,
    ROUTE_DIRECT,
    EdgeRoute,
    Plan,
    choose_algorithm,
    kernel_costs,
    make_plan,
    route_edge,
)
from repro.engine.storage import GraphStore

__all__ = [
    "CacheEntry",
    "QueryCache",
    "RankCache",
    "RankEntry",
    "cache_key",
    "QueryEngine",
    "RegisteredGraph",
    "ALGORITHM_BOUNDED",
    "ALGORITHM_SIMULATION",
    "KERNEL_BITSET",
    "KERNEL_ORACLE",
    "KERNEL_PER_SOURCE",
    "ROUTE_CACHE",
    "ROUTE_COMPRESSED",
    "ROUTE_DIRECT",
    "EdgeRoute",
    "Plan",
    "choose_algorithm",
    "kernel_costs",
    "make_plan",
    "route_edge",
    "GraphStore",
]
