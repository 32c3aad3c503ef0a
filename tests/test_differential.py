"""Differential testing: multiprocess evaluation ≡ sequential evaluation.

Every case generates a seeded random graph and a seeded random pattern,
evaluates it sequentially (over the dict graph) and in worker processes
through :meth:`~repro.engine.parallel.ParallelExecutor.match_many` (over a
frozen snapshot), and requires the relations to be *byte-identical* (set
equality plus equal serialized forms).  The query-set evaluation literature (Brochier et al.,
arXiv:1806.10813) shows expert-finding results depend heavily on which
queries you test with, so the harness sweeps many query shapes — chains,
cycles, mixed bounds, ``*`` edges, edge-free patterns — not just the paper
example.

Seeds are fixed and appear in the pytest parametrize id (and in every
assertion message), so a failure names the exact case to replay:

    pytest tests/test_differential.py -k "seed17" -x

One executor is shared by the whole module; every fan-out forks worker
processes of its own that inherit the snapshot.  Each case is a batch of
two tasks, so the call really forks two workers, and runs twice: ``cold``
calls are unbudgeted, ``warmed`` calls carry a per-query node budget that
never trips.  (The ``warmed`` id is historical: budgeted calls used to run
on a warm persistent pool.)
"""

from __future__ import annotations

import random

import pytest

from repro.engine.engine import QueryEngine
from repro.engine.estimator import QueryBudget
from repro.engine.parallel import ParallelExecutor
from repro.graph.digraph import Graph
from repro.graph.frozen import FrozenGraph
from repro.graph.generators import random_digraph
from repro.graph.oracle import DistanceOracle
from repro.matching.base import MatchResult
from repro.matching.bounded import frozen_successor_rows, match_bounded
from repro.matching.simulation import match_simulation, simulation_candidates
from repro.pattern.pattern import Pattern
from repro.ranking.topk import RankingContext, bulk_top_k_detail
from tests.conftest import batch_of

BOUNDED_SEEDS = range(60)
SIMULATION_SEEDS = range(60)
ENGINE_SEEDS = range(6)
ORACLE_SEEDS = range(40)


@pytest.fixture(scope="module")
def shared_executor():
    with ParallelExecutor(workers=2) as shared:
        yield shared


@pytest.fixture(params=["cold", "warmed"])
def sharded_match(request, shared_executor):
    """``match(graph, pattern)`` as a two-task ``match_many`` batch through
    the shared executor (two forked workers over one frozen snapshot),
    unbudgeted (``cold``) or under a per-query node budget that never trips
    (``warmed``).  Both tasks must agree; the first one's answer returns."""
    budget = QueryBudget(node_visits=10**12) if request.param == "warmed" else None

    def match(graph, pattern):
        (relation, stats), (twin, _twin_stats) = shared_executor.match_many(
            graph, *batch_of(graph, pattern),
            frozen=FrozenGraph.freeze(graph), budget=budget,
        )
        assert relation.to_dict() == twin.to_dict()
        guarded = budget is not None and not pattern.is_simulation_pattern
        assert ("visits" in stats) == guarded
        assert not stats.get("partial")
        return MatchResult(graph, pattern, relation, stats=stats)

    return match


def random_case(seed: int, simulation_only: bool = False) -> tuple[Graph, Pattern]:
    """A seeded (graph, pattern) pair; every shape decision comes from seed."""
    rng = random.Random(seed * 2 + int(simulation_only))
    num_nodes = rng.randint(12, 40)
    num_edges = rng.randint(num_nodes, 3 * num_nodes)
    graph = random_digraph(num_nodes, num_edges, seed=seed)

    pattern = Pattern(f"rand-s{seed}")
    names = [f"Q{i}" for i in range(rng.randint(1, 4))]
    for name in names:
        roll = rng.random()
        if roll < 0.40:
            condition = f'label == "L{rng.randrange(3)}"'
        elif roll < 0.70:
            condition = f"x >= {rng.randint(0, 6)}"
        elif roll < 0.85:
            condition = 'label in ["L0", "L1"]'
        else:
            condition = None  # unconstrained node: full-graph candidates
        pattern.add_node(name, condition)
    pairs = [(a, b) for a in names for b in names if a != b]
    rng.shuffle(pairs)
    for source, target in pairs[: rng.randint(0, min(len(pairs), len(names) + 1))]:
        bound = 1 if simulation_only else rng.choice([1, 1, 2, 3, None])
        pattern.add_edge(source, target, bound)
    return graph, pattern


def sequential_result(graph: Graph, pattern: Pattern):
    """What the planner would run: simulation iff every bound is 1."""
    if pattern.is_simulation_pattern:
        return match_simulation(graph, pattern)
    return match_bounded(graph, pattern)


def candidate_rows(graph, pattern, frozen, oracle=None, kernel_log=None):
    """``frozen_successor_rows`` over every candidate, label-keyed.

    This is the candidate-indexed ``S`` the dict-graph ``BoundedState``
    builds, produced by the int kernels (routed exactly as a one-shot
    evaluation routes them; ``kernel_log`` receives the routes).
    """
    ids, labels = frozen.ids(), frozen.labels
    candidate_ids = {
        u: frozenset(ids[v] for v in vs)
        for u, vs in simulation_candidates(graph, pattern).items()
    }
    spec = {u: tuple(pattern.out_edges(u)) for u in pattern.nodes()}
    rows = frozen_successor_rows(
        frozen, spec, candidate_ids, oracle=oracle, kernel_log=kernel_log
    )
    return {
        edge: {
            labels[source]: {labels[reached]: dist for reached, dist in row.items()}
            for source, row in edge_rows.items()
        }
        for edge, edge_rows in rows.items()
    }


def weighted_edges(result) -> set:
    """The result graph's edges *with* their distances."""
    return set(result.result_graph().edges())


def assert_identical(seed, parallel, sequential) -> None:
    __tracebackhide__ = True
    assert parallel.relation == sequential.relation, (
        f"seed {seed}: parallel relation diverged\n"
        f"  parallel:   {parallel.relation!r}\n"
        f"  sequential: {sequential.relation!r}"
    )
    # Byte-identity, not just set equality: the canonical serialized forms
    # must match too (this is what persists and crosses process borders).
    assert parallel.relation.to_dict() == sequential.relation.to_dict(), (
        f"seed {seed}: serialized relations differ"
    )


@pytest.mark.parametrize("seed", BOUNDED_SEEDS, ids=lambda s: f"seed{s}")
def test_parallel_equals_sequential_bounded(sharded_match, seed):
    graph, pattern = random_case(seed)
    sequential = sequential_result(graph, pattern)
    parallel = sharded_match(graph, pattern)
    assert_identical(seed, parallel, sequential)


@pytest.mark.parametrize("seed", BOUNDED_SEEDS, ids=lambda s: f"seed{s}")
def test_relation_first_equals_dict_state_bounded(seed):
    """The frozen relation-first matcher ≡ the dict ``BoundedState``.

    Same relation (serialized form included), same result graph with
    distances, same ranking of every pattern node taken as the output
    node — and the kernel log names exactly the routes
    ``frozen_successor_rows`` takes over the candidates, so routing does
    not depend on the answer.
    """
    graph, pattern = random_case(seed)
    plain = match_bounded(graph, pattern)
    frozen = FrozenGraph.freeze(graph)
    oracle = DistanceOracle.build(frozen)
    for snapshot_oracle in (None, oracle):
        result = match_bounded(graph, pattern, frozen=frozen, oracle=snapshot_oracle)
        assert_identical(seed, result, plain)
        assert weighted_edges(result) == weighted_edges(plain), f"seed {seed}"
        log: dict = {}
        candidate_rows(graph, pattern, frozen, oracle=snapshot_oracle, kernel_log=log)
        assert result.stats.get("kernels", {}) == {
            f"{source}->{target}": route.kernel
            for (source, target), route in log.items()
        }, f"seed {seed}"
    for output in pattern.nodes():
        pattern.set_output(output)
        k = graph.num_nodes
        assert repr(
            bulk_top_k_detail(RankingContext(result.result_graph()), k)
        ) == repr(bulk_top_k_detail(RankingContext(plain.result_graph()), k)), (
            f"seed {seed}: rankings of {output} diverged"
        )


@pytest.mark.parametrize("seed", SIMULATION_SEEDS, ids=lambda s: f"seed{s}")
def test_parallel_equals_sequential_simulation(sharded_match, seed):
    """All-bounds-1 cases, plus the cross-matcher invariant.

    With every bound 1, bounded simulation's fixpoint coincides with plain
    simulation's, so all three evaluators must agree: the quadratic
    matcher, the cubic matcher, and the multiprocess batch path.
    """
    graph, pattern = random_case(seed, simulation_only=True)
    via_simulation = match_simulation(graph, pattern)
    via_bounded = match_bounded(graph, pattern)
    assert via_bounded.relation == via_simulation.relation, (
        f"seed {seed}: bounded(all bounds=1) != plain simulation"
    )
    parallel = sharded_match(graph, pattern)
    assert_identical(seed, parallel, via_simulation)


def engine_batch(seed: int) -> tuple[Graph, list[Pattern]]:
    """Seed ``seed``'s graph with its pattern and the first later seed's
    pattern that differs from it, so the batch farms out two tasks."""
    graph, pattern = random_case(seed)
    for later in range(seed + 1, seed + 100):
        other = random_case(later)[1]
        if other.canonical_key() != pattern.canonical_key():
            return graph, [pattern, other]
    raise AssertionError(f"seed {seed}: no distinct second pattern")


@pytest.mark.parametrize("seed", ENGINE_SEEDS, ids=lambda s: f"seed{s}")
def test_engine_workers_equals_sequential(seed):
    """The engine's ``evaluate_many(workers=N)`` route produces the
    sequential relations."""
    graph, patterns = engine_batch(seed)
    engine = QueryEngine()
    engine.register_graph("g", graph)
    kwargs = dict(use_cache=False, cache_result=False)
    sequential = [engine.evaluate("g", pattern, **kwargs) for pattern in patterns]
    parallel = engine.evaluate_many("g", patterns, workers=2, **kwargs)
    for seq, par in zip(sequential, parallel):
        assert_identical(seed, par, seq)
    assert parallel[0].stats["batch"]["workers"] == 2


def test_engine_batch_workers_equals_sequential():
    """Per-batch parallelism: one pool pass over many distinct queries."""
    cases = [random_case(seed) for seed in range(8)]
    graph = cases[0][0]
    patterns = [pattern for _graph, pattern in cases]
    engine = QueryEngine()
    engine.register_graph("g", graph)
    sequential = engine.evaluate_many(
        "g", patterns, use_cache=False, cache_result=False
    )
    parallel = engine.evaluate_many(
        "g", patterns, use_cache=False, cache_result=False, workers=2
    )
    for seed, (seq, par) in enumerate(zip(sequential, parallel)):
        assert_identical(seed, par, seq)
    assert parallel[0].stats["batch"]["workers"] == 2


# ----------------------------------------------------------------------
# oracle-kernel differential: oracle-pairwise ≡ per-source BFS ≡ bitset
# ----------------------------------------------------------------------

def _forced_kernel_costs(kernel: str):
    """A kernel_costs wrapper that makes one kernel win every cost race."""
    from repro.engine import planner

    original = planner.kernel_costs

    def forced(*args, **kwargs):
        costs = original(*args, **kwargs)
        if kernel in costs:
            costs[kernel] = -1.0
        return costs

    return original, forced


@pytest.mark.parametrize("seed", ORACLE_SEEDS, ids=lambda s: f"seed{s}")
def test_oracle_kernel_equals_enumeration_kernels(seed, monkeypatch):
    """The three row kernels are byte-identical on the same queries.

    Per seeded case, the same (graph, pattern) runs three times over the
    same snapshot: per-source BFS (bulk depth pushed out of reach), bitset
    (bulk depth 1), and oracle-pairwise (cost race rigged so every covered
    edge routes to the labels).  Each kernel's rows over the candidates
    must equal the dict ``BoundedState``'s ``S`` (entries and distances),
    and each one-shot evaluation — rows between matches only — must give
    the same relation and the same result graph with distances.
    """
    import repro.matching.bounded as bounded_module
    from repro.engine import planner

    graph, pattern = random_case(seed)
    if pattern.num_edges == 0:
        pytest.skip("edge-free pattern exercises no row kernel")
    frozen = FrozenGraph.freeze(graph)
    oracle = DistanceOracle.build(frozen)
    plain = match_bounded(graph, pattern)

    def run(bulk_depth, with_oracle=None):
        monkeypatch.setattr(bounded_module, "FROZEN_BULK_DEPTH", bulk_depth)
        log: dict = {}
        rows = candidate_rows(graph, pattern, frozen, with_oracle, kernel_log=log)
        result = match_bounded(graph, pattern, frozen=frozen, oracle=with_oracle)
        return rows, result, log

    per_source = run(99)
    bitset = run(1)
    original, forced = _forced_kernel_costs(planner.KERNEL_ORACLE)
    monkeypatch.setattr(planner, "kernel_costs", forced)
    via_oracle = run(5, oracle)
    monkeypatch.setattr(planner, "kernel_costs", original)

    for name, (rows, result, _log) in (
        ("per-source", per_source), ("bitset", bitset), ("oracle", via_oracle)
    ):
        assert rows == plain._state.S, (
            f"seed {seed}: {name} candidate rows (entries + distances) diverged"
        )
        assert_identical(seed, result, plain)
        assert weighted_edges(result) == weighted_edges(plain), (
            f"seed {seed}: {name} result graph diverged"
        )
    assert any(
        route.kernel == planner.KERNEL_ORACLE for route in via_oracle[2].values()
    ), f"seed {seed}: forced routing did not reach the oracle"
    assert planner.KERNEL_ORACLE in via_oracle[1].stats["kernels"].values()


# ----------------------------------------------------------------------
# guard differential: a generous budget must change nothing, ever
# ----------------------------------------------------------------------
#
# Guarded evaluation swaps the planner's analytic frontier for sampled
# estimates and threads charge/should_stop checks through every kernel —
# none of which may perturb the answer when the budget never trips.  The
# full seed sweep (60 bounded + 60 simulation + 6 engine + 1 batch = 127
# cases) is repeated with a budget no test-sized case can blow.

GENEROUS_BUDGET_VISITS = 10**9


def generous_budget():
    from repro.engine.estimator import QueryBudget

    return QueryBudget(node_visits=GENEROUS_BUDGET_VISITS, allow_partial=True)


@pytest.mark.parametrize("seed", BOUNDED_SEEDS, ids=lambda s: f"seed{s}")
def test_guarded_equals_unguarded_bounded(seed):
    graph, pattern = random_case(seed)
    sequential = sequential_result(graph, pattern)
    guarded = match_bounded(graph, pattern, budget=generous_budget())
    assert_identical(seed, guarded, sequential)
    assert guarded.stats["partial"] is False, (
        f"seed {seed}: a {GENEROUS_BUDGET_VISITS}-visit budget tripped"
    )


@pytest.mark.parametrize("seed", SIMULATION_SEEDS, ids=lambda s: f"seed{s}")
def test_guarded_equals_unguarded_simulation(seed):
    """All-bounds-1 patterns through the *bounded* matcher under guard."""
    graph, pattern = random_case(seed, simulation_only=True)
    guarded = match_bounded(graph, pattern, budget=generous_budget())
    assert_identical(seed, guarded, match_simulation(graph, pattern))
    assert guarded.stats["partial"] is False


@pytest.mark.parametrize("seed", ENGINE_SEEDS, ids=lambda s: f"seed{s}")
def test_engine_guarded_workers_equals_sequential(seed):
    """Budget + batch workers + generous limits = the sequential answer."""
    graph, patterns = engine_batch(seed)
    engine = QueryEngine()
    engine.register_graph("g", graph)
    kwargs = dict(use_cache=False, cache_result=False)
    sequential = [engine.evaluate("g", pattern, **kwargs) for pattern in patterns]
    guarded = engine.evaluate_many(
        "g", patterns, budget=generous_budget(), workers=2, **kwargs
    )
    for seq, limited in zip(sequential, guarded):
        assert_identical(seed, limited, seq)
        assert not limited.stats.get("partial")


def test_engine_batch_guarded_equals_unguarded():
    cases = [random_case(seed) for seed in range(8)]
    graph = cases[0][0]
    patterns = [pattern for _graph, pattern in cases]
    engine = QueryEngine()
    engine.register_graph("g", graph)
    kwargs = dict(use_cache=False, cache_result=False)
    unguarded = engine.evaluate_many("g", patterns, **kwargs)
    guarded = engine.evaluate_many(
        "g", patterns, budget=generous_budget(), **kwargs
    )
    for seed, (plain, limited) in enumerate(zip(unguarded, guarded)):
        assert_identical(seed, limited, plain)
        assert not limited.stats.get("partial")


@pytest.mark.parametrize("seed", range(6), ids=lambda s: f"seed{s}")
def test_engine_oracle_equals_plain_evaluation(seed):
    """enable_oracle() changes kernels, never results (engine level)."""
    graph, pattern = random_case(seed)
    plain = QueryEngine()
    plain.register_graph("g", graph)
    accelerated = QueryEngine()
    accelerated.register_graph("g", graph)
    accelerated.enable_oracle("g")
    kwargs = dict(use_cache=False, cache_result=False)
    assert_identical(
        seed,
        accelerated.evaluate("g", pattern, **kwargs),
        plain.evaluate("g", pattern, **kwargs),
    )


# ----------------------------------------------------------------------
# store-loaded snapshots: mmap files in, byte-identical answers out
# ----------------------------------------------------------------------
# The full 127-seed sweep (60 bounded + 60 simulation + 6 engine + 1
# batch) re-runs with snapshots and oracles served from the GraphStore's
# binary files instead of built in-process: freeze/build -> save ->
# mmap-load -> evaluate must reproduce the sequential result byte for
# byte.  This is the acceptance gate for the persistence layer — a codec
# or alignment bug anywhere surfaces as a named seed here.


@pytest.fixture(scope="module")
def snapshot_store(tmp_path_factory):
    from repro.engine.storage import GraphStore

    return GraphStore(tmp_path_factory.mktemp("snapshot-store"))


def _store_served(store, tag, graph):
    """Persist a graph's snapshot + oracle, reload both mmap-backed."""
    name = f"case-{tag}"
    store.save_snapshot(name, FrozenGraph.freeze(graph))
    store.save_oracle(name, DistanceOracle.build(store.load_snapshot(name)))
    return (
        store.load_snapshot(name, expected_version=graph.version),
        store.load_oracle(name, expected_version=graph.version),
    )


@pytest.mark.parametrize("seed", BOUNDED_SEEDS, ids=lambda s: f"seed{s}")
def test_store_loaded_equals_sequential_bounded(snapshot_store, seed):
    graph, pattern = random_case(seed)
    sequential = sequential_result(graph, pattern)
    frozen, oracle = _store_served(snapshot_store, f"b{seed}", graph)
    assert frozen.path is not None and oracle.path is not None
    if pattern.is_simulation_pattern:
        via_store = match_simulation(graph, pattern, frozen=frozen)
    else:
        via_store = match_bounded(graph, pattern, frozen=frozen, oracle=oracle)
    assert_identical(seed, via_store, sequential)


@pytest.mark.parametrize("seed", SIMULATION_SEEDS, ids=lambda s: f"seed{s}")
def test_store_loaded_equals_sequential_simulation(snapshot_store, seed):
    graph, pattern = random_case(seed, simulation_only=True)
    sequential = match_simulation(graph, pattern)
    frozen, _oracle = _store_served(snapshot_store, f"s{seed}", graph)
    via_store = match_simulation(graph, pattern, frozen=frozen)
    assert_identical(seed, via_store, sequential)


@pytest.mark.parametrize("seed", ENGINE_SEEDS, ids=lambda s: f"seed{s}")
def test_engine_fault_in_equals_sequential(seed, tmp_path):
    """A cold engine on the same store faults files in — same answers."""
    from repro.engine.storage import GraphStore

    graph, pattern = random_case(seed)
    store = GraphStore(tmp_path)
    warm = QueryEngine(store=store)
    warm.register_graph("g", graph)
    warm.enable_oracle("g")
    warm.persist_snapshot("g", include_oracle=True)
    warm.close()

    sequential = sequential_result(graph, pattern)
    cold = QueryEngine(store=store)
    cold.register_graph("g", graph)
    cold.enable_oracle("g")
    served = cold.evaluate("g", pattern, use_cache=False, cache_result=False)
    assert_identical(seed, served, sequential)
    snapshot_stats = cold.snapshot_stats()
    assert snapshot_stats["fault_ins"] == 1, f"seed {seed}: snapshot not faulted in"
    assert snapshot_stats["builds"] == 0, f"seed {seed}: engine re-froze anyway"
    assert cold.oracle_cache_stats()["builds"] == 0, (
        f"seed {seed}: engine rebuilt the oracle despite the stored labels"
    )
    cold.close()


def test_engine_batch_store_loaded_equals_sequential(tmp_path):
    """Batch evaluation over a faulted-in snapshot matches the plain path."""
    from repro.engine.storage import GraphStore

    cases = [random_case(seed) for seed in range(8)]
    graph = cases[0][0]
    patterns = [pattern for _graph, pattern in cases]
    store = GraphStore(tmp_path)
    warm = QueryEngine(store=store)
    warm.register_graph("g", graph)
    warm.persist_snapshot("g")
    warm.close()

    plain = QueryEngine()
    plain.register_graph("g", graph)
    sequential = plain.evaluate_many("g", patterns, use_cache=False, cache_result=False)
    cold = QueryEngine(store=store)
    cold.register_graph("g", graph)
    served = cold.evaluate_many("g", patterns, use_cache=False, cache_result=False)
    for seed, (seq, via_store) in enumerate(zip(sequential, served)):
        assert_identical(seed, via_store, seq)
    assert cold.snapshot_stats()["fault_ins"] == 1
    assert cold.snapshot_stats()["builds"] == 0
