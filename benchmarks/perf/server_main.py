"""Benchmark-owned launcher: the query service in a process of its own.

``python -m benchmarks.perf.server_main --graph-file F [...]`` builds a
:class:`ServiceConfig`, registers the graph written beforehand (unless the
WAL already recovered it), binds port 0 and prints ``PORT <n> <batches replayed by recovery>``.  It then
obeys one-line commands on stdin — ``trace on``, ``trace off``,
``dump <path>``, ``quit`` — answering each with ``ok``; end-of-file means
the benchmark is gone, and the server exits with it.
"""

from __future__ import annotations

import argparse

from repro.graph import io
from repro.server import ExpFinderService, QueryServer, ServiceConfig

from .trace import Tracer
from .workloads import GRAPH_NAME


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--graph-file", required=True)
    parser.add_argument("--oracle-cap", type=int, default=None)
    parser.add_argument("--wal-dir", default=None)
    parser.add_argument("--fsync", default="batch")
    parser.add_argument("--checkpoint-every", type=int, default=64)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)

    tracer = Tracer()
    if args.trace:
        tracer.install()
    config = ServiceConfig(
        oracle=None if args.oracle_cap is None else {"cap": args.oracle_cap},
        wal_dir=args.wal_dir,
        fsync=args.fsync,
        checkpoint_every=args.checkpoint_every,
    )
    service = ExpFinderService(config)
    recovery = service.recovered.get(GRAPH_NAME, {})
    if recovery.get("status") != "recovered":
        # attribute lookup at call time, so a traced run sees the load
        service.register_graph(GRAPH_NAME, io.load_graph(args.graph_file))
    with QueryServer(service) as server:
        server.start()
        print(f"PORT {server.address[1]} {recovery.get('replayed', 0)}", flush=True)
        tracer.obey({})
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
