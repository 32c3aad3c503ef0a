"""Command-line front end — the offline substitute for the demo GUI.

Every interaction the demo performs through its GUI maps to a subcommand:

===============  ======================================================
GUI action        CLI equivalent
===============  ======================================================
select/view data  ``expfinder show --graph g.json [--node Bob]``
generate data     ``expfinder generate --kind collab --nodes 500 --out g.json``
build a pattern   pattern files (see ``repro.pattern.parser`` syntax)
run a query       ``expfinder query --graph g.json --pattern q.pattern``
run many queries  ``expfinder batch --graph g.json --pattern q1 --pattern q2``
browse top-K      ``expfinder topk --graph g.json --pattern q.pattern -k 3``
batch updates     ``expfinder update --graph g.json --insert a:b --delete c:d``
compress          ``expfinder compress --graph g.json --attrs field``
the walkthrough   ``expfinder demo``
===============  ======================================================
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro.errors import CliError, ReproError
from repro.graph.digraph import Graph
from repro.graph.generators import collaboration_graph, random_digraph, twitter_like_graph
from repro.graph.io import load_graph, save_graph
from repro.incremental.updates import EdgeDeletion, EdgeInsertion, Update
from repro.compression.compress import compress
from repro.matching.bounded import match_bounded
from repro.pattern.parser import load_pattern
from repro.pattern.pattern import Pattern
from repro.ranking.metrics import METRICS
from repro.ranking.social_impact import rank_matches
from repro.viz import ascii as views
from repro.viz.dot import result_to_dot


def main(argv: list[str] | None = None) -> int:
    """Entry point; returns a process exit code."""
    arguments = list(sys.argv[1:] if argv is None else argv)
    if arguments[:1] == ["lint"]:
        # repro-lint owns its own flags and exit codes; forwarding before
        # argparse keeps `expfinder lint --list-rules` working (REMAINDER
        # would refuse a leading option).
        from repro.analysis.cli import main as lint_main

        return lint_main(arguments[1:])
    parser = _build_parser()
    args = parser.parse_args(arguments)
    try:
        return args.handler(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="expfinder",
        description="Find experts in social networks by graph pattern matching.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    generate = sub.add_parser("generate", help="generate a synthetic social graph")
    generate.add_argument("--kind", choices=("collab", "twitter", "random"), default="collab")
    generate.add_argument("--nodes", type=int, default=500)
    generate.add_argument("--edges", type=int, default=None, help="random kind only")
    generate.add_argument("--seed", type=int, default=0)
    generate.add_argument("--out", required=True, help="output JSON path")
    generate.set_defaults(handler=_cmd_generate)

    show = sub.add_parser("show", help="summarize a graph or one node")
    show.add_argument("--graph", required=True)
    show.add_argument("--node", default=None)
    show.add_argument("--attr", default="field", help="attribute for the histogram")
    show.add_argument("--profile", action="store_true",
                      help="print degree/density/reciprocity statistics")
    show.set_defaults(handler=_cmd_show)

    query = sub.add_parser("query", help="evaluate a pattern query")
    query.add_argument("--graph", required=True)
    query.add_argument("--pattern", required=True)
    query.add_argument("--explain", action="store_true", help="print the plan")
    query.add_argument("--result-graph", action="store_true", help="print witness edges")
    query.add_argument("--oracle", action="store_true",
                       help="build a landmark distance oracle first and let "
                            "the planner route selective pattern edges to "
                            "pairwise label merges")
    query.add_argument("--oracle-cap", type=int, default=None, metavar="DEPTH",
                       help="bound the oracle's exact-distance depth "
                            "(default: uncapped, covers '*' too)")
    _add_budget_flags(query)
    query.set_defaults(handler=_cmd_query)

    batch = sub.add_parser(
        "batch",
        help="evaluate many pattern queries in one engine pass "
             "(shared candidate generation via the attribute index)",
    )
    batch.add_argument("--graph", required=True)
    batch.add_argument(
        "--pattern", action="append", required=True, metavar="SPEC",
        help="pattern file or lib:<name>; repeat for each query",
    )
    batch.add_argument("--verbose", action="store_true",
                       help="print the full relation of every query")
    batch.add_argument("--workers", type=int, default=1,
                       help="farm the batch's distinct queries out to N "
                            "worker processes, one query per process "
                            "(default 1 = sequential)")
    batch.add_argument("--oracle", action="store_true",
                       help="enable the landmark distance oracle for the "
                            "whole batch (built once, shared by every query)")
    batch.add_argument("--oracle-cap", type=int, default=None, metavar="DEPTH",
                       help="bound the oracle's exact-distance depth "
                            "(default: uncapped)")
    _add_budget_flags(batch)
    batch.set_defaults(handler=_cmd_batch)

    oracle = sub.add_parser(
        "oracle",
        help="build the landmark distance oracle for a graph and report "
             "label statistics (optionally: the kernel routing of a pattern)",
    )
    oracle.add_argument("--graph", required=True)
    oracle.add_argument("--cap", type=int, default=None, metavar="DEPTH",
                        help="exact-distance depth cap (default: uncapped, "
                             "covers '*' bounds too)")
    oracle.add_argument("--top", type=int, default=None, metavar="N",
                        help="sequential landmark prefix (default 512)")
    oracle.add_argument("--pattern", default=None,
                        help="also print the per-edge kernel routing this "
                             "oracle would produce for a pattern")
    oracle.add_argument("--workers", type=int, default=1,
                        help="build phase-two labels with N worker processes")
    oracle.set_defaults(handler=_cmd_oracle)

    topk = sub.add_parser("topk", help="rank the output node's matches")
    topk.add_argument("--graph", required=True)
    topk.add_argument("--pattern", required=True)
    topk.add_argument("-k", type=int, default=5)
    topk.add_argument("--metric", choices=sorted(METRICS), default="social-impact")
    topk.add_argument("--dot", default=None, help="write a DOT file highlighting the top-1")
    _add_budget_flags(topk)
    topk.set_defaults(handler=_cmd_topk)

    update = sub.add_parser("update", help="apply graph updates to a graph file")
    update.add_argument("--graph", required=True)
    update.add_argument("--insert", action="append", default=[], metavar="SRC:DST")
    update.add_argument("--delete", action="append", default=[], metavar="SRC:DST")
    update.add_argument("--add-node", action="append", default=[],
                        metavar="NODE[:attr=value,...]")
    update.add_argument("--remove-node", action="append", default=[], metavar="NODE")
    update.add_argument("--set-attr", action="append", default=[],
                        metavar="NODE:ATTR:VALUE")
    update.add_argument("--pattern", default=None, help="also report ΔM for this query")
    update.add_argument("--out", default=None, help="where to write (default: in place)")
    update.set_defaults(handler=_cmd_update)

    compress_cmd = sub.add_parser("compress", help="build a query-preserving compression")
    compress_cmd.add_argument("--graph", required=True)
    compress_cmd.add_argument("--attrs", default="field", help="comma-separated label attrs")
    compress_cmd.add_argument("--method", choices=("bisimulation", "simulation"),
                              default="bisimulation")
    compress_cmd.add_argument("--out", default=None, help="write the quotient graph JSON")
    compress_cmd.set_defaults(handler=_cmd_compress)

    snapshot = sub.add_parser(
        "snapshot",
        help="persist frozen snapshots (and oracles) as mmap-ready binary files",
    )
    snap_sub = snapshot.add_subparsers(dest="snapshot_command", required=True)
    snap_save = snap_sub.add_parser(
        "save", help="freeze a graph into a store's binary snapshot catalogue"
    )
    snap_save.add_argument("--graph", required=True, help="graph JSON file")
    snap_save.add_argument("--store", required=True, help="store root directory")
    snap_save.add_argument("--name", default=None,
                           help="store name (default: the graph file's stem)")
    snap_save.add_argument("--oracle", action="store_true",
                           help="also build and persist the distance oracle")
    snap_save.add_argument("--oracle-cap", type=int, default=None, metavar="DEPTH",
                           help="exact-distance cap for the oracle build")
    snap_save.add_argument("--workers", type=int, default=1,
                           help="worker processes for the oracle build")
    snap_save.set_defaults(handler=_cmd_snapshot_save)
    snap_load = snap_sub.add_parser(
        "load", help="mmap a stored snapshot back and verify it"
    )
    snap_load.add_argument("--store", required=True, help="store root directory")
    snap_load.add_argument("--name", required=True, help="snapshot name")
    snap_load.set_defaults(handler=_cmd_snapshot_load)
    snap_info = snap_sub.add_parser(
        "info", help="print a stored snapshot's header and section layout"
    )
    snap_info.add_argument("--store", required=True, help="store root directory")
    snap_info.add_argument("--name", required=True, help="snapshot name")
    snap_info.set_defaults(handler=_cmd_snapshot_info)

    serve = sub.add_parser(
        "serve",
        help="run the long-running concurrent query service "
             "(MVCC-lite snapshot epochs over HTTP + JSON)",
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8080,
                       help="TCP port (0 = ephemeral; printed at startup)")
    serve.add_argument("--store", default=None,
                       help="GraphStore root for --preload and persistence")
    serve.add_argument("--preload", action="append", default=[], metavar="NAME",
                       help="warm-start a stored graph at startup: mmap its "
                            ".frozen.snap/.oracle.snap via the store so the "
                            "first request never pays a freeze or label "
                            "build; repeat per graph (needs --store)")
    serve.add_argument("--graph", action="append", default=[],
                       metavar="[NAME=]FILE",
                       help="register a graph JSON file at startup "
                            "(default name: the file's stem); repeatable")
    serve.add_argument("--max-inflight", type=int, default=8,
                       help="admission control: concurrent request cap")
    serve.add_argument("--queue-depth", type=int, default=16,
                       help="admission control: waiting-request cap beyond "
                            "the inflight limit (excess gets HTTP 429)")
    serve.add_argument("--admission-timeout", type=float, default=5.0,
                       metavar="SECONDS",
                       help="max wait for a free slot before HTTP 429")
    serve.add_argument("--default-budget", type=int, default=None,
                       metavar="VISITS",
                       help="per-request node-visit budget applied when the "
                            "request carries none (allow-partial semantics)")
    serve.add_argument("--default-time-limit", type=float, default=None,
                       metavar="SECONDS",
                       help="per-request wall-clock limit applied when the "
                            "request carries no budget")
    serve.add_argument("--wal-dir", default=None, metavar="DIR",
                       help="enable the durable write-ahead changelog: every "
                            "update batch is appended (and CRC-framed) here "
                            "before it applies, and startup replays any "
                            "unapplied suffix over the last checkpoint")
    serve.add_argument("--fsync", default="batch",
                       choices=("always", "batch", "none"),
                       help="WAL fsync policy: 'always' syncs every batch, "
                            "'batch' amortizes (process crashes lose nothing "
                            "either way; only power loss differs), 'none' "
                            "trusts the OS page cache (default: batch)")
    serve.add_argument("--checkpoint-every", type=int, default=64,
                       metavar="BATCHES",
                       help="persist a snapshot checkpoint and truncate "
                            "sealed WAL segments every N published batches "
                            "(default: 64)")
    serve.set_defaults(handler=_cmd_serve)

    stats = sub.add_parser(
        "stats",
        help="surface cache/oracle/snapshot statistics for a running "
             "service (--url) or a local engine (--graph)",
    )
    stats.add_argument("--url", default=None,
                       help="base URL of a running `expfinder serve` "
                            "instance; prints its /stats document")
    stats.add_argument("--graph", default=None,
                       help="graph JSON file for local-engine statistics")
    stats.add_argument("--store", default=None,
                       help="GraphStore root (lets the local engine fault "
                            "persisted snapshots in, which the counters show)")
    stats.add_argument("--name", default=None,
                       help="store/registration name (default: file stem)")
    stats.add_argument("--pattern", default=None, metavar="SPEC",
                       help="run one query first so the counters show a "
                            "live evaluation (pattern file or lib:<name>)")
    stats.set_defaults(handler=_cmd_stats)

    # `lint` is dispatched in main() before argparse (its flags are owned
    # by repro.analysis.cli); registered here only so it shows in --help.
    lint = sub.add_parser(
        "lint",
        help="run repro-lint, the AST-based invariant checker "
             "(see also: python -m repro.analysis)",
    )
    lint.set_defaults(handler=_cmd_lint)

    demo = sub.add_parser("demo", help="walk through the paper's Examples 1-3")
    demo.set_defaults(handler=_cmd_demo)
    return parser


# ----------------------------------------------------------------------
# handlers
# ----------------------------------------------------------------------

def _cmd_generate(args: argparse.Namespace) -> int:
    if args.kind == "collab":
        graph = collaboration_graph(args.nodes, seed=args.seed)
    elif args.kind == "twitter":
        graph = twitter_like_graph(args.nodes, seed=args.seed)
    else:
        edges = args.edges if args.edges is not None else args.nodes * 3
        graph = random_digraph(args.nodes, edges, seed=args.seed)
    path = save_graph(graph, args.out)
    print(f"wrote {graph.num_nodes} nodes / {graph.num_edges} edges to {path}")
    return 0


def _cmd_show(args: argparse.Namespace) -> int:
    graph = load_graph(args.graph)
    if args.node is not None:
        print(views.node_card(graph, args.node))
        return 0
    print(views.graph_summary(graph, attr=args.attr))
    if args.profile:
        from repro.graph.stats import graph_profile

        profile = graph_profile(graph, attr=args.attr)
        print()
        print(f"density:      {profile['density']:.5f}")
        print(f"reciprocity:  {profile['reciprocity']:.3f}")
        out_stats = profile["out_degree"]
        print(
            "out-degree:   "
            f"min {out_stats.minimum}, median {out_stats.median}, "
            f"mean {out_stats.mean:.2f}, max {out_stats.maximum}, "
            f"zeros {out_stats.zeros}"
        )
        in_stats = profile["in_degree"]
        print(
            "in-degree:    "
            f"min {in_stats.minimum}, median {in_stats.median}, "
            f"mean {in_stats.mean:.2f}, max {in_stats.maximum}, "
            f"zeros {in_stats.zeros}"
        )
        print(f"avg 2-hop reach (sampled): {profile['avg_reach_2']:.1f} nodes")
    return 0


def _load_inputs(args: argparse.Namespace) -> tuple[Graph, Pattern]:
    return load_graph(args.graph), _resolve_pattern(args.pattern)


def _resolve_pattern(spec: str) -> Pattern:
    """A pattern file path, or ``lib:<name>`` from the bundled query library."""
    if spec.startswith("lib:"):
        from repro.datasets.queries import get_query

        return get_query(spec[len("lib:"):])
    return load_pattern(spec)


def _add_budget_flags(sub: argparse.ArgumentParser) -> None:
    """Runaway-query guard flags, shared by query/batch/topk."""
    sub.add_argument("--budget", type=int, default=None, metavar="VISITS",
                     help="abort (or, with --allow-partial, answer empty "
                          "and marked partial) any bounded query whose "
                          "traversal arrives at more than VISITS nodes: "
                          "backward BFS arrivals of the membership pass, "
                          "plus row arrivals when the result graph is read")
    sub.add_argument("--time-limit", type=float, default=None, metavar="SECONDS",
                     help="wall-clock limit per bounded query")
    sub.add_argument("--allow-partial", action="store_true",
                     help="degrade gracefully when a guard trips during "
                          "evaluation: return the empty relation (a sound "
                          "subset, marked partial) instead of failing the "
                          "query")


def _parse_budget(args: argparse.Namespace):
    """Flags into a validated :class:`QueryBudget` (or None when absent).

    Mirrors `_check_workers`: validation lives in the engine's one rule
    (`QueryBudget.validate`) and the CLI only rephrases failures in flag
    terms, so the two layers can never disagree.
    """
    if args.budget is None and args.time_limit is None:
        if args.allow_partial:
            raise CliError("--allow-partial needs --budget and/or --time-limit")
        return None
    from repro.engine.estimator import QueryBudget
    from repro.errors import EvaluationError

    budget = QueryBudget(
        node_visits=args.budget,
        seconds=args.time_limit,
        allow_partial=args.allow_partial,
    )
    try:
        budget.validate()
    except EvaluationError as exc:
        raise CliError(f"--budget/--time-limit: {exc}") from None
    return budget


def _report_partial(stats: dict) -> None:
    """One-line partial-result notice (query/topk; batch prints inline)."""
    if stats.get("partial"):
        print(
            f"note: partial result — {stats.get('guard', '?')} guard tripped "
            f"after {stats.get('visits', 0)} node visits"
        )


def _check_workers(workers: int) -> int:
    """CLI-level validation so `--workers 0` fails before any work starts.

    Delegates to the engine's one rule (`validate_workers`) and rephrases
    the failure in flag terms, so CLI and engine can never disagree about
    what a valid worker count is.
    """
    from repro.engine.parallel import validate_workers
    from repro.errors import EvaluationError

    try:
        return validate_workers(workers)
    except EvaluationError as exc:
        raise CliError(f"--workers: {exc}") from None


def _cmd_query(args: argparse.Namespace) -> int:
    # One evaluation route: the engine owns the attribute index, the
    # snapshot, the oracle cache, the planner's kernel routing and the
    # query guards.
    from repro.engine.engine import QueryEngine

    budget = _parse_budget(args)
    graph, pattern = _load_inputs(args)
    engine = QueryEngine()
    engine.register_graph("cli", graph)
    if args.oracle:
        engine.enable_oracle("cli", cap=args.oracle_cap)
    try:
        if args.explain:
            print(engine.explain("cli", pattern, budget=budget).explain())
            print()
        result = engine.evaluate("cli", pattern, budget=budget)
        if args.explain and "kernels" in result.stats:
            kernels = ", ".join(
                f"{edge}: {kernel}"
                for edge, kernel in sorted(result.stats["kernels"].items())
            )
            print(f"kernels used: {kernels}")
            print()
    finally:
        engine.close()
    _report_partial(result.stats)
    print(views.relation_summary(result.relation))
    if args.result_graph and result.is_match:
        print()
        print(views.render_result_graph(result.result_graph()))
    return 0 if result.is_match else 1


def _cmd_batch(args: argparse.Namespace) -> int:
    from repro.engine.engine import QueryEngine

    workers = _check_workers(args.workers)
    budget = _parse_budget(args)
    graph = load_graph(args.graph)
    patterns = [_resolve_pattern(spec) for spec in args.pattern]
    engine = QueryEngine()
    engine.register_graph("cli", graph)
    if args.oracle:
        engine.enable_oracle("cli", cap=args.oracle_cap)
    results = engine.evaluate_many("cli", patterns, workers=workers, budget=budget)
    all_matched = True
    for spec, result in zip(args.pattern, results):
        status = "match" if result.is_match else "no-match"
        if result.stats.get("partial"):
            status += f" [partial: {result.stats.get('guard', '?')}]"
        all_matched = all_matched and result.is_match
        print(
            f"{spec}: {status} ({result.relation.num_pairs} pairs, "
            f"route={result.stats['route']}, algorithm={result.stats['algorithm']}, "
            f"{result.stats['seconds']:.4f}s)"
        )
        if args.verbose:
            print(views.relation_summary(result.relation))
            print()
    batch_stats = results[0].stats["batch"] if results else {}
    workers_note = f", {workers} workers" if workers > 1 else ""
    print(
        f"batch: {len(results)} queries, "
        f"{batch_stats.get('distinct_predicates', 0)} distinct predicates, "
        f"{batch_stats.get('seconds_total', 0.0):.4f}s total{workers_note}"
    )
    snapshots = engine.snapshot_stats()
    print(
        f"frozen snapshots: {snapshots['builds']} built, "
        f"{snapshots['hits']} reused"
    )
    if args.oracle:
        stats = engine.oracle_stats("cli") or {}
        if stats.get("state") == "warm":
            # Engagement is read from each result's kernel log (it travels
            # back from worker processes too); the oracle instance's own
            # counters only move in whichever process filled the rows.
            routed = sum(
                1
                for result in results
                if "oracle-pairwise" in result.stats.get("kernels", {}).values()
            )
            print(
                f"distance oracle: {stats['label_entries_out'] + stats['label_entries_in']}"
                f" label entries built in {stats['build_seconds']:.3f}s, "
                f"{routed}/{len(results)} queries oracle-routed"
            )
        else:
            print("distance oracle: enabled (no bounded query needed it)")
    return 0 if all_matched else 1


def _cmd_oracle(args: argparse.Namespace) -> int:
    """Build a graph's distance oracle and report its label statistics.

    The CLI is file-based (one engine per invocation), so "enable" means:
    build now, print what the engine would cache, and — with --pattern —
    show the kernel routing the planner derives from it.  Long-running
    deployments call ``QueryEngine.enable_oracle`` once and keep the
    labels warm across queries; this subcommand is the offline view of
    the same machinery.
    """
    from repro.engine.engine import QueryEngine

    workers = _check_workers(args.workers)
    graph = load_graph(args.graph)
    engine = QueryEngine()
    engine.register_graph("cli", graph)
    engine.enable_oracle("cli", cap=args.cap, top=args.top)
    try:
        stats = engine.warm_oracle("cli", workers=workers)
        cap = "unbounded ('*' covered)" if stats["cap"] is None else stats["cap"]
        print(f"graph: {graph.num_nodes} nodes, {graph.num_edges} edges")
        print(f"exact-distance cap: {cap}")
        print(f"build: {stats['build_seconds']:.3f}s "
              f"(sequential landmark prefix: {stats['top']})")
        print(
            f"labels: {stats['label_entries_out']} forward + "
            f"{stats['label_entries_in']} reverse entries "
            f"(avg {stats['avg_out_label']:.1f} / {stats['avg_in_label']:.1f} "
            "per node)"
        )
        print(f"reachability closure: {stats['reach_entries']} hub entries")
        if args.pattern is not None:
            pattern = _resolve_pattern(args.pattern)
            print()
            print(engine.explain("cli", pattern).explain())
        return 0
    finally:
        engine.close()


def _cmd_snapshot_save(args: argparse.Namespace) -> int:
    """Freeze a graph (and optionally its oracle) into a store's catalogue.

    Also persists the graph JSON under the same name: reloading that JSON
    reproduces the same deterministic ``Graph.version``, which is what
    later loads (and engine cache fault-ins) validate the binary snapshot
    against.
    """
    from repro.engine.engine import QueryEngine
    from repro.engine.storage import GraphStore

    workers = _check_workers(args.workers)
    graph = load_graph(args.graph)
    name = args.name if args.name is not None else Path(args.graph).stem
    engine = QueryEngine(store=GraphStore(args.store))
    engine.register_graph(name, graph)
    try:
        engine.persist_graph(name)
        if args.oracle:
            engine.enable_oracle(name, cap=args.oracle_cap)
        paths = engine.persist_snapshot(
            name, include_oracle=args.oracle, workers=workers
        )
        print(
            f"graph: {graph.num_nodes} nodes, {graph.num_edges} edges "
            f"(version {graph.version})"
        )
        snapshot_path = paths["snapshot"]
        print(f"snapshot: {snapshot_path} ({snapshot_path.stat().st_size} bytes)")
        if args.oracle:
            oracle_path = paths["oracle"]
            print(f"oracle: {oracle_path} ({oracle_path.stat().st_size} bytes)")
        return 0
    finally:
        engine.close()


def _cmd_snapshot_load(args: argparse.Namespace) -> int:
    """Mmap a stored snapshot, validate it, and report what came back."""
    from repro.engine.storage import GraphStore

    store = GraphStore(args.store)
    expected = store.load_graph(args.name).version if store.has_graph(args.name) else None
    frozen = store.load_snapshot(args.name, expected_version=expected)
    print(
        f"snapshot: {frozen.num_nodes} nodes, {frozen.num_edges} edges "
        f"(source version {frozen.source_version})"
    )
    print(f"mapped from: {frozen.path}")
    if expected is not None:
        print(f"validated against stored graph {args.name!r} (version {expected})")
    if store.has_oracle(args.name):
        oracle = store.load_oracle(args.name, expected_version=expected)
        cap = "*" if oracle.cap is None else oracle.cap
        print(
            f"oracle: cap {cap}, "
            f"{len(oracle.out_hubs) + len(oracle.in_hubs)} label entries "
            f"(mapped from {oracle.path})"
        )
    return 0


def _cmd_snapshot_info(args: argparse.Namespace) -> int:
    """Print header fields and section layout of stored snapshot files."""
    from repro.engine.storage import GraphStore

    store = GraphStore(args.store)
    kinds = []
    if store.has_snapshot(args.name):
        kinds.append("frozen")
    if store.has_oracle(args.name):
        kinds.append("oracle")
    if not kinds:
        raise CliError(f"no stored snapshot named {args.name!r}")
    for kind in kinds:
        info = store.snapshot_info(args.name, kind=kind)
        print(f"{info['kind']}: {info['path']}")
        print(
            f"  format v{info['format_version']}, "
            f"source version {info['source_version']}, "
            f"checksum {info['checksum']}, {info['file_bytes']} bytes"
        )
        for section, length in info["sections"]:
            print(f"  section {section}: {length} bytes")
    return 0


def _cmd_topk(args: argparse.Namespace) -> int:
    """Top-K through the engine, like `query`/`batch` — never a private path.

    Routing through :class:`QueryEngine` gives `topk` everything the other
    subcommands already had: plan-based route selection, the attribute
    index, and the query and ranked-result caches.
    """
    from repro.engine.engine import QueryEngine

    budget = _parse_budget(args)
    graph, pattern = _load_inputs(args)
    pattern.validate(require_output=True)
    engine = QueryEngine()
    engine.register_graph("cli", graph)
    try:
        if budget is not None:
            # A ranking carries no stats: a guarded evaluation first tells
            # whether a guard tripped, and only an exact relation is ranked.
            result = engine.evaluate("cli", pattern, budget=budget)
            _report_partial(result.stats)
            if result.stats.get("partial"):
                return 1
        ranked = engine.top_k(
            "cli", pattern, args.k, metric=args.metric, budget=budget
        )
        # M(Q,G) is exact and total-or-empty: no ranked experts, no match.
        if not ranked:
            print("no match")
            return 1
        if args.metric == "social-impact":
            print(views.render_ranking(ranked))
            top = ranked[0].node
        else:
            print(views.render_table(("#", "expert", args.metric),
                                     [(i + 1, n, f"{s:.4f}")
                                      for i, (n, s) in enumerate(ranked)]))
            top = ranked[0][0]
        if args.dot is not None:
            # A ranking came back, so the relation was exact and is
            # cached: deriving the result graph here reads the cache.
            result = engine.evaluate("cli", pattern, budget=budget)
            result_graph = result.result_graph()
            Path(args.dot).write_text(result_to_dot(result_graph, highlight=top))
            print(f"wrote {args.dot}")
        return 0
    finally:
        engine.close()


def _parse_edge(spec: str) -> tuple[str, str]:
    parts = spec.split(":")
    if len(parts) != 2 or not parts[0] or not parts[1]:
        raise CliError(f"bad edge spec {spec!r}; expected SRC:DST")
    return parts[0], parts[1]


def _parse_node_spec(spec: str):
    """``NODE[:attr=value,...]`` into a NodeInsertion."""
    from repro.incremental.updates import NodeInsertion
    from repro.pattern.predicates import _parse_value

    head, _, rest = spec.partition(":")
    if not head:
        raise CliError(f"bad node spec {spec!r}")
    attrs = {}
    if rest:
        for assignment in rest.split(","):
            key, eq, raw = assignment.partition("=")
            if not eq or not key.strip():
                raise CliError(f"bad attribute assignment {assignment!r} in {spec!r}")
            attrs[key.strip()] = _parse_value(raw.strip())
    return NodeInsertion.with_attrs(head, **attrs)


def _parse_attr_spec(spec: str):
    """``NODE:ATTR:VALUE`` into an AttributeUpdate."""
    from repro.incremental.updates import AttributeUpdate
    from repro.pattern.predicates import _parse_value

    parts = spec.split(":")
    if len(parts) != 3 or not all(parts):
        raise CliError(f"bad attribute spec {spec!r}; expected NODE:ATTR:VALUE")
    return AttributeUpdate(parts[0], parts[1], _parse_value(parts[2]))


def _cmd_update(args: argparse.Namespace) -> int:
    from repro.engine.engine import QueryEngine
    from repro.incremental.updates import NodeDeletion

    graph = load_graph(args.graph)
    updates: list[Update] = []
    for spec in args.add_node:
        updates.append(_parse_node_spec(spec))
    for spec in args.insert:
        updates.append(EdgeInsertion(*_parse_edge(spec)))
    for spec in args.set_attr:
        updates.append(_parse_attr_spec(spec))
    for spec in args.delete:
        updates.append(EdgeDeletion(*_parse_edge(spec)))
    for node in args.remove_node:
        updates.append(NodeDeletion(node))
    if not updates:
        raise CliError(
            "nothing to do: pass --insert/--delete/--add-node/--remove-node/--set-attr"
        )

    # The engine maintains a pinned query incrementally (the paper's
    # incremental module), so ΔM falls out of the update itself.
    engine = QueryEngine()
    engine.register_graph("cli", graph)
    if args.pattern is not None:
        engine.pin("cli", _resolve_pattern(args.pattern))
    summary = engine.update_graph("cli", updates)
    out_path = args.out or args.graph
    save_graph(graph, out_path)
    print(f"applied {len(updates)} update(s); wrote {out_path}")
    for delta in summary["pinned_deltas"].values():
        added, removed = delta["added"], delta["removed"]
        for pattern_node, data_node in sorted(added, key=str):
            print(f"ΔM +({pattern_node}, {data_node})")
        for pattern_node, data_node in sorted(removed, key=str):
            print(f"ΔM -({pattern_node}, {data_node})")
        if not added and not removed:
            print("ΔM empty: match relation unchanged")
    return 0


def _cmd_compress(args: argparse.Namespace) -> int:
    graph = load_graph(args.graph)
    attrs = tuple(part.strip() for part in args.attrs.split(",") if part.strip())
    compressed = compress(graph, attrs, method=args.method)
    print(
        f"{graph.num_nodes} -> {compressed.quotient.num_nodes} nodes, "
        f"{graph.num_edges} -> {compressed.quotient.num_edges} edges "
        f"(size reduced by {compressed.size_reduction:.1%})"
    )
    if args.out is not None:
        save_graph(compressed.quotient, args.out)
        print(f"wrote quotient to {args.out}")
    return 0


def _serve_config(args: argparse.Namespace):
    """serve flags into a validated ServiceConfig (CliError on bad flags)."""
    from repro.engine.estimator import QueryBudget
    from repro.errors import EvaluationError, ServerError
    from repro.server import ServiceConfig

    default_budget = None
    if args.default_budget is not None or args.default_time_limit is not None:
        default_budget = QueryBudget(
            node_visits=args.default_budget,
            seconds=args.default_time_limit,
            allow_partial=True,
        )
        try:
            default_budget.validate()
        except EvaluationError as exc:
            raise CliError(
                f"--default-budget/--default-time-limit: {exc}"
            ) from None
    try:
        return ServiceConfig(
            max_inflight=args.max_inflight,
            max_queue=args.queue_depth,
            queue_timeout=args.admission_timeout,
            default_budget=default_budget,
            wal_dir=getattr(args, "wal_dir", None),
            fsync=getattr(args, "fsync", "batch"),
            checkpoint_every=getattr(args, "checkpoint_every", 64),
        ).validated()
    except ServerError as exc:
        raise CliError(f"--max-inflight/--queue-depth/--fsync/"
                       f"--checkpoint-every: {exc}") from None


class _GracefulExit(Exception):
    """Raised out of the serve loop by the SIGTERM handler (drain path)."""


def _cmd_serve(args: argparse.Namespace) -> int:
    """Start the query service, preload/register graphs, serve until ^C.

    SIGTERM (and Ctrl-C) triggers a *drain*: stop accepting work, wait
    for in-flight requests to finish, write a final checkpoint and seal
    the WAL — so a supervised restart recovers instantly with an empty
    replay suffix.
    """
    import signal

    from repro.engine.storage import GraphStore
    from repro.server import ExpFinderService, QueryServer
    from repro.testing.faults import install_from_env

    if args.preload and args.store is None:
        raise CliError("--preload needs --store (snapshots live in a store)")
    store = GraphStore(args.store) if args.store is not None else None
    # Staging rehearsal hook: REPRO_FAULTS="wal.fsync=crash@3" arms the
    # registered fault points in a real serve process.
    if install_from_env():
        print("fault injection armed from $REPRO_FAULTS")
    service = ExpFinderService(_serve_config(args), store=store)
    try:
        for name, report in sorted(service.recovered.items()):
            if report.get("status") == "recovered":
                print(
                    f"recovered {name!r}: replayed {report['replayed']} "
                    f"batch(es), skipped {report['skipped']}, "
                    f"lsn {report['lsn']}"
                )
        for name in args.preload:
            info = service.preload(name)
            print(
                f"preloaded {name!r}: {info['nodes']} nodes / "
                f"{info['edges']} edges, epoch {info['epoch']}, "
                f"oracle={'yes' if info['oracle'] else 'no'} "
                f"({info['fault_ins']} snapshot fault-ins, no freeze)"
            )
        for spec in args.graph:
            name, eq, path = spec.partition("=")
            if not eq:
                name, path = Path(spec).stem, spec
            if not name or not path:
                raise CliError(f"bad graph spec {spec!r}; expected [NAME=]FILE")
            if service.recovered.get(name, {}).get("status") == "recovered":
                # The same command line across restarts must just work:
                # the WAL already rebuilt this graph *with* every batch
                # published since the seed file was written, so the file
                # is strictly staler than what recovery installed.
                print(f"skipped {name!r}: already recovered from the WAL")
                continue
            graph = load_graph(path)
            info = service.register_graph(name, graph)
            print(
                f"registered {name!r}: {info['nodes']} nodes / "
                f"{info['edges']} edges, epoch {info['epoch']}"
            )

        def _on_sigterm(signum: int, frame: object) -> None:
            raise _GracefulExit()

        previous = signal.signal(signal.SIGTERM, _on_sigterm)
        with QueryServer(service, host=args.host, port=args.port) as server:
            host, port = server.address
            print(f"serving on http://{host}:{port} (Ctrl-C to stop)")
            try:
                server.serve_forever()
            except (KeyboardInterrupt, _GracefulExit):
                print("shutting down: draining in-flight requests")
                drained = service.drain()
                tail = ", sealing WAL" if service.wal is not None else ""
                print(("drained" if drained else "drain timed out") + tail)
            finally:
                signal.signal(signal.SIGTERM, previous)
        return 0
    finally:
        service.close()


def _cmd_stats(args: argparse.Namespace) -> int:
    """Print cache/oracle/snapshot statistics as pretty JSON."""
    import json

    if (args.url is None) == (args.graph is None):
        raise CliError("pass exactly one of --url (running service) "
                       "or --graph (local engine)")
    if args.url is not None:
        import urllib.error
        import urllib.request

        endpoint = args.url.rstrip("/") + "/stats"
        try:
            with urllib.request.urlopen(endpoint, timeout=10) as response:
                document = json.loads(response.read())
        except (urllib.error.URLError, OSError, ValueError) as exc:
            raise CliError(f"cannot fetch {endpoint}: {exc}") from None
        print(json.dumps(document, indent=2, sort_keys=True))
        return 0
    from repro.engine.engine import QueryEngine
    from repro.engine.storage import GraphStore

    graph = load_graph(args.graph)
    name = args.name if args.name is not None else Path(args.graph).stem
    store = GraphStore(args.store) if args.store is not None else None
    engine = QueryEngine(store=store)
    engine.register_graph(name, graph)
    try:
        if args.pattern is not None:
            engine.evaluate(name, _resolve_pattern(args.pattern))
        print(json.dumps(engine.stats(), indent=2, sort_keys=True))
        return 0
    finally:
        engine.close()


def _cmd_lint(args: argparse.Namespace) -> int:
    """Reached only via parse_args in tests; main() forwards earlier."""
    from repro.analysis.cli import main as lint_main

    return lint_main([])


def _cmd_demo(args: argparse.Namespace) -> int:
    from repro.datasets.paper_example import EDGE_E1, paper_graph, paper_pattern
    from repro.incremental.inc_bounded import IncrementalBoundedSimulation
    from repro.incremental.updates import EdgeInsertion as Ins, apply_updates

    graph = paper_graph()
    pattern = paper_pattern()
    print("== Example 1: bounded simulation on the Fig. 1 network ==")
    print(pattern.describe())
    print()
    result = match_bounded(graph, pattern)
    print(views.relation_summary(result.relation))
    print()
    print("== Example 2: top-K by social impact ==")
    ranked = rank_matches(result.result_graph())
    print(views.render_ranking(ranked))
    print()
    print("== Example 3: incremental evaluation after inserting e1 ==")
    incremental = IncrementalBoundedSimulation(graph, pattern)
    before = incremental.relation()
    apply_updates(graph, [Ins(*EDGE_E1)], [incremental.apply])
    added, removed = before.diff(incremental.relation())
    for pattern_node, data_node in sorted(added):
        print(f"ΔM +({pattern_node}, {data_node})")
    for pattern_node, data_node in sorted(removed):
        print(f"ΔM -({pattern_node}, {data_node})")
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
