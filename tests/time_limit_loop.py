"""The wall-clock abort of a parallel query, many times in one process.

Evaluates the hub-graph bomb of ``test_query_bombs.py``
(``hub_graph(400)`` x ``wildcard_cycle()``) with two workers under a
0.1 ms time limit, ``--calls`` times in this one process, under one start
method.  After every call the result must be partial and no worker
process may be left; a hang shows as the caller's ``timeout`` expiring::

    PYTHONPATH=src timeout 600 python tests/time_limit_loop.py --calls 500 --start-method spawn
"""

from __future__ import annotations

import argparse
import multiprocessing


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--calls", type=int, default=500)
    parser.add_argument(
        "--start-method", choices=multiprocessing.get_all_start_methods(),
        default="fork",
    )
    args = parser.parse_args(argv)
    # Imported here, not at the top: spawned workers re-import this module
    # and need none of it.
    from repro.engine.engine import QueryEngine
    from repro.engine.estimator import QueryBudget
    from test_query_bombs import hub_graph, wildcard_cycle

    multiprocessing.set_start_method(args.start_method)
    engine = QueryEngine()
    engine.register_graph("g", hub_graph(400))
    pattern = wildcard_cycle()
    budget = QueryBudget(seconds=1e-4, allow_partial=True)
    for call in range(args.calls):
        result = engine.evaluate(
            "g", pattern, budget=budget, workers=2, use_cache=False,
            cache_result=False,
        )
        assert result.stats["partial"], (call, result.stats)
        assert multiprocessing.active_children() == [], call
    engine.close()
    print(f"{args.calls} time-limited calls under {args.start_method}: "
          "all partial, no worker left behind")


if __name__ == "__main__":
    main()
