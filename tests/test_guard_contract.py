"""A guard bounds the one relation-first evaluation; it selects no other.

The contract of :mod:`repro.engine.estimator` over a frozen snapshot:

* a budget that never trips changes no answer: the relation (and its
  rows) are byte-identical to an unguarded run's, on every pattern the
  perf workloads serve and on the ledger's query bomb;
* a trip in the membership pass returns the empty relation flagged
  partial, and builds no rows and runs no removal cascade;
* a pass that finishes within budget is exact; reading its rows later
  charges the same guard, and a trip there raises
  :class:`~repro.errors.BudgetExceededError` whatever ``allow_partial``
  says (HTTP 408), so no ranking over cut rows is ever cached;
* a wall-clock limit stops the pass at the next level it reads.
"""

from __future__ import annotations

import http.client
import json

import pytest

from benchmarks.ledger import BOMB
from benchmarks.perf import workloads
from repro.engine import estimator
from repro.engine.engine import QueryEngine
from repro.engine.estimator import GUARD_NODE_BUDGET, GUARD_TIME_LIMIT, QueryBudget
from repro.errors import BudgetExceededError
from repro.graph.frozen import FrozenGraph
from repro.graph.generators import twitter_like_graph
from repro.graph.oracle import DistanceOracle
from repro.matching import bounded as bounded_module
from repro.matching.bounded import match_bounded
from repro.pattern.parser import parse_pattern
from repro.pattern.pattern import Pattern
from repro.server import ExpFinderService, QueryServer
from repro.server.wire import encode_relation

GENEROUS = QueryBudget(node_visits=10**12, allow_partial=True)


def bomb() -> Pattern:
    return parse_pattern(BOMB.replace("; ", "\n"), name="bomb")


def served_patterns(workload) -> list[str]:
    """Every pattern text the workload sends or pins, in first-seen order."""
    texts = [*workload.options.get("pinned", ()), *workload.options.get("field_only", ())]
    for op in workload.warmup + [op for stream in workload.streams for op in stream]:
        texts.extend(op.get("patterns", ()))
        if "pattern" in op:
            texts.append(op["pattern"])
    return list(dict.fromkeys(texts))


@pytest.fixture
def counted(monkeypatch):
    """Calls of the rows kernel and of the removal cascade."""
    calls = {"frozen_successor_rows": 0, "_removal_cascade": 0}
    for name in calls:
        original = getattr(bounded_module, name)

        def counting(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(bounded_module, name, counting)
    return calls


def pass_visits(graph, pattern, frozen) -> int:
    """What the membership pass charges (rows are not read)."""
    return match_bounded(graph, pattern, frozen=frozen, budget=GENEROUS).stats["visits"]


# ----------------------------------------------------------------------
# a budget that never trips changes nothing
# ----------------------------------------------------------------------

@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_a_generous_budget_changes_no_served_relation(name):
    workload = workloads.build(name, 0, scale="smoke")
    graph = workload.graph
    frozen = FrozenGraph.freeze(graph)
    oracle = None
    if workload.options.get("oracle"):
        oracle = DistanceOracle.build(frozen, cap=workload.options["oracle"]["cap"])
    texts = served_patterns(workload)
    assert texts, name
    for text in texts:
        pattern = parse_pattern(text, name="q")
        plain = match_bounded(graph, pattern, frozen=frozen, oracle=oracle)
        guarded = match_bounded(
            graph, pattern, frozen=frozen, oracle=oracle, budget=GENEROUS
        )
        assert guarded.stats["partial"] is False, text
        assert encode_relation(guarded.relation).text == encode_relation(plain.relation).text
        assert guarded.stats["kernels"] == plain.stats["kernels"], text
        assert guarded.state.rows == plain.state.rows, text


def test_a_generous_budget_answers_the_bomb_exactly():
    graph = twitter_like_graph(2000, seed=0)
    frozen = FrozenGraph.freeze(graph)
    plain = match_bounded(graph, bomb(), frozen=frozen)
    assert not plain.relation.is_empty
    for budget in (GENEROUS, QueryBudget(node_visits=100_000)):
        guarded = match_bounded(graph, bomb(), frozen=frozen, budget=budget)
        assert guarded.stats["partial"] is False
        assert encode_relation(guarded.relation).text == encode_relation(plain.relation).text
        # the pass charges its arrivals, under any budget that fits them
        assert guarded.stats["visits"] == pass_visits(graph, bomb(), frozen)


# ----------------------------------------------------------------------
# a trip in the pass: the empty relation, no rows, no cascade
# ----------------------------------------------------------------------

def test_a_trip_in_the_pass_builds_no_rows_and_runs_no_cascade(counted):
    graph = twitter_like_graph(2000, seed=0)
    frozen = FrozenGraph.freeze(graph)
    budget = QueryBudget(node_visits=pass_visits(graph, bomb(), frozen) // 4,
                         allow_partial=True)
    result = match_bounded(graph, bomb(), frozen=frozen, budget=budget)
    assert result.stats["partial"] is True
    assert result.stats["guard"] == GUARD_NODE_BUDGET
    assert result.relation.is_empty
    assert result.result_graph().num_edges == 0
    assert counted == {"frozen_successor_rows": 0, "_removal_cascade": 0}


def _ping_pong_on_a_path() -> tuple:
    """A long path against ``A <-> B``: the re-pass cap trips, so the rows
    and the cascade run at evaluation."""
    from repro.graph.digraph import Graph

    graph = Graph.from_edges([(index, index + 1) for index in range(400)])
    pattern = Pattern("ping-pong")
    pattern.add_node("A", None)
    pattern.add_node("B", None)
    pattern.add_edge("A", "B", 2)
    pattern.add_edge("B", "A", 2)
    return graph, pattern


def test_a_trip_in_the_capped_rows_runs_no_cascade(counted, monkeypatch):
    graph, pattern = _ping_pong_on_a_path()
    frozen = FrozenGraph.freeze(graph)
    arrivals: list[int] = []
    original = bounded_module._reaching

    def recording(*args, **kwargs):
        found, reached = original(*args, **kwargs)
        arrivals.append(reached)
        return found, reached

    with monkeypatch.context() as patch:
        patch.setattr(bounded_module, "_reaching", recording)
        exact = match_bounded(graph, pattern, frozen=frozen, budget=GENEROUS)
    assert exact.relation.is_empty and exact.stats["partial"] is False
    assert counted == {"frozen_successor_rows": 1, "_removal_cascade": 1}
    # The rows cost arrivals past the pass's: a budget between the two
    # trips in the rows, after which nothing else runs.
    assert sum(arrivals) < exact.stats["visits"]
    counted.update(frozen_successor_rows=0, _removal_cascade=0)
    budget = QueryBudget(node_visits=sum(arrivals) + 1, allow_partial=True)
    result = match_bounded(graph, pattern, frozen=frozen, budget=budget)
    assert result.stats["partial"] is True and result.relation.is_empty
    assert all(not rows for rows in result.state.rows.values())
    assert counted == {"frozen_successor_rows": 1, "_removal_cascade": 0}


# ----------------------------------------------------------------------
# a pass within budget is exact; its rows charge the same guard
# ----------------------------------------------------------------------

def _rows_outgrow_the_pass():
    """The bomb on a 400-node hub graph, and a budget one visit past its
    pass: the relation fits, its rows do not."""
    graph = twitter_like_graph(400, seed=3)
    frozen = FrozenGraph.freeze(graph)
    return graph, frozen, pass_visits(graph, bomb(), frozen) + 1


@pytest.mark.parametrize("allow_partial", [True, False])
def test_rows_past_the_budget_raise_on_read(allow_partial, counted):
    graph, frozen, visits = _rows_outgrow_the_pass()
    plain = match_bounded(graph, bomb(), frozen=frozen)
    budget = QueryBudget(node_visits=visits, allow_partial=allow_partial)
    result = match_bounded(graph, bomb(), frozen=frozen, budget=budget)
    assert result.stats["partial"] is False
    assert result.relation == plain.relation and not result.relation.is_empty
    assert counted["frozen_successor_rows"] == 0
    for _ in range(2):  # a second read raises again
        with pytest.raises(BudgetExceededError, match=GUARD_NODE_BUDGET):
            result.result_graph()
    assert counted["_removal_cascade"] == 0


def test_a_row_read_gets_a_time_limit_of_its_own():
    """A relation exact within a time limit keeps readable rows once that
    limit has passed since the evaluation: the read restarts the clock."""
    now = [0.0]
    graph, frozen, _ = _rows_outgrow_the_pass()
    plain = match_bounded(graph, bomb(), frozen=frozen)

    class Stopped(estimator.QueryGuard):
        def __init__(self, budget):
            super().__init__(budget, clock=lambda: now[0])

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(estimator, "QueryGuard", Stopped)
        budget = QueryBudget(seconds=1.0)
        result = match_bounded(graph, bomb(), frozen=frozen, budget=budget)
    assert result.stats["partial"] is False
    now[0] = 5.0  # past the evaluation's deadline
    assert sorted(result.result_graph().edges()) == sorted(plain.result_graph().edges())


def test_a_trip_reading_rows_does_not_suggest_allow_partial():
    graph, frozen, visits = _rows_outgrow_the_pass()
    budget = QueryBudget(node_visits=visits)
    result = match_bounded(graph, bomb(), frozen=frozen, budget=budget)
    with pytest.raises(BudgetExceededError) as raised:
        result.result_graph()
    assert "pass allow_partial" not in str(raised.value)
    assert "rows of an exact relation" in str(raised.value)


def test_engine_top_k_raises_and_caches_no_ranking():
    graph, _, visits = _rows_outgrow_the_pass()
    engine = QueryEngine()
    engine.register_graph("g", graph)
    budget = QueryBudget(node_visits=visits, allow_partial=True)
    for _ in range(2):  # the retry meets the relation cache, and is refused
        with pytest.raises(BudgetExceededError, match=GUARD_NODE_BUDGET):
            engine.top_k("g", bomb(), 3, budget=budget)
    assert engine.stats()["rank_cache"]["size"] == 0
    # the relation itself was exact, so it may be served from the cache
    assert engine.evaluate("g", bomb()).relation == match_bounded(graph, bomb()).relation


def test_engine_budgeted_evaluate_then_top_k_raises():
    graph, _, visits = _rows_outgrow_the_pass()
    engine = QueryEngine()
    engine.register_graph("g", graph)
    budget = QueryBudget(node_visits=visits, allow_partial=True)
    assert engine.evaluate("g", bomb(), budget=budget).stats["partial"] is False
    with pytest.raises(BudgetExceededError, match=GUARD_NODE_BUDGET):
        engine.top_k("g", bomb(), 3, budget=budget)
    assert engine.stats()["rank_cache"]["size"] == 0


def _post(conn, path: str, payload: dict) -> tuple[int, dict]:
    conn.request("POST", path, body=json.dumps(payload),
                 headers={"Content-Type": "application/json"})
    response = conn.getresponse()
    return response.status, json.loads(response.read())


@pytest.mark.parametrize("first", ["topk", "evaluate"])
def test_http_topk_is_408_and_caches_no_ranking(first):
    """A budgeted /topk is refused, and so is the same request after a
    budgeted /topk or /evaluate left the exact relation cached."""
    graph, _, visits = _rows_outgrow_the_pass()
    service = ExpFinderService()
    service.register_graph("g", graph)
    request = {
        "pattern": BOMB.replace("; ", "\n"),
        "k": 3,
        "budget": {"node_visits": visits, "allow_partial": True},
    }
    with QueryServer(service) as server:
        server.start()
        host, port = server.address
        conn = http.client.HTTPConnection(host, port, timeout=30)
        try:
            status, payload = _post(conn, f"/graphs/g/{first}", request)
            if first == "evaluate":
                assert status == 200 and not payload["stats"]["partial"]
            else:
                assert status == 408
            status, payload = _post(conn, "/graphs/g/topk", request)
        finally:
            conn.close()
        assert status == 408
        assert payload["error"] == "BudgetExceededError"
        epoch = service.registry.current_epoch("g")
        assert epoch.rank_cache.stats()["size"] == 0
        assert epoch.cache.stats()["size"] == 1


# ----------------------------------------------------------------------
# a wall-clock limit stops the pass at the next level
# ----------------------------------------------------------------------

def test_a_time_limit_stops_the_pass_at_the_next_level(monkeypatch, counted):
    """The clock ticks once per read: created at 0, the deadline 2.5 passes
    at the third ``should_stop``, which follows the third level."""
    charges: list[int] = []

    class Ticking(estimator.QueryGuard):
        def __init__(self, budget):
            self.ticks = -1
            super().__init__(budget, clock=self.tick)

        def tick(self) -> float:
            self.ticks += 1
            return float(self.ticks)

        def charge(self, visits):
            charges.append(visits)
            super().charge(visits)

    monkeypatch.setattr(estimator, "QueryGuard", Ticking)
    graph = twitter_like_graph(2000, seed=0)
    frozen = FrozenGraph.freeze(graph)
    budget = QueryBudget(seconds=2.5, allow_partial=True)
    result = match_bounded(graph, bomb(), frozen=frozen, budget=budget)
    assert result.stats["guard"] == GUARD_TIME_LIMIT
    assert result.stats["partial"] is True and result.relation.is_empty
    assert len(charges) == 3
    assert result.stats["visits"] == sum(charges)
    assert counted == {"frozen_successor_rows": 0, "_removal_cascade": 0}
