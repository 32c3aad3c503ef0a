"""Unit tests for the command-line front end."""

import pytest

from repro.cli import main
from repro.datasets.paper_example import paper_graph, paper_pattern
from repro.graph.io import load_graph, save_graph
from repro.pattern.parser import save_pattern


@pytest.fixture
def graph_file(tmp_path):
    return str(save_graph(paper_graph(), tmp_path / "fig1.json"))


@pytest.fixture
def pattern_file(tmp_path):
    return str(save_pattern(paper_pattern(), tmp_path / "team.pattern"))


class TestGenerate:
    @pytest.mark.parametrize("kind", ["collab", "twitter", "random"])
    def test_generate_kinds(self, tmp_path, capsys, kind):
        out = tmp_path / f"{kind}.json"
        code = main(["generate", "--kind", kind, "--nodes", "40", "--out", str(out)])
        assert code == 0
        assert out.exists()
        assert load_graph(out).num_nodes == 40
        assert "wrote" in capsys.readouterr().out

    def test_generate_deterministic(self, tmp_path):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        main(["generate", "--nodes", "30", "--seed", "5", "--out", str(a)])
        main(["generate", "--nodes", "30", "--seed", "5", "--out", str(b)])
        assert load_graph(a) == load_graph(b)


class TestShow:
    def test_summary(self, graph_file, capsys):
        assert main(["show", "--graph", graph_file]) == 0
        out = capsys.readouterr().out
        assert "9 nodes" in out

    def test_node_card(self, graph_file, capsys):
        assert main(["show", "--graph", graph_file, "--node", "Bob"]) == 0
        assert "experience: 7" in capsys.readouterr().out

    def test_missing_graph_is_error(self, tmp_path, capsys):
        code = main(["show", "--graph", str(tmp_path / "none.json")])
        assert code == 2
        assert "error:" in capsys.readouterr().err


class TestQuery:
    def test_query_prints_relation(self, graph_file, pattern_file, capsys):
        assert main(["query", "--graph", graph_file, "--pattern", pattern_file]) == 0
        out = capsys.readouterr().out
        assert "SA: Bob, Walt" in out

    def test_query_explain(self, graph_file, pattern_file, capsys):
        main(["query", "--graph", graph_file, "--pattern", pattern_file, "--explain"])
        out = capsys.readouterr().out
        assert "algorithm: bounded-simulation" in out

    def test_query_result_graph(self, graph_file, pattern_file, capsys):
        main(["query", "--graph", graph_file, "--pattern", pattern_file,
              "--result-graph"])
        assert "Bob -[1]-> Dan" in capsys.readouterr().out

    def test_no_match_exits_1(self, tmp_path, graph_file, capsys):
        q = tmp_path / "none.pattern"
        q.write_text('node Z : field == "ZZ"\n')
        assert main(["query", "--graph", graph_file, "--pattern", str(q)]) == 1


class TestTopK:
    def test_topk_table(self, graph_file, pattern_file, capsys):
        assert main(["topk", "--graph", graph_file, "--pattern", pattern_file,
                     "-k", "1"]) == 0
        out = capsys.readouterr().out
        assert "Bob" in out
        assert "Walt" not in out

    def test_topk_alternative_metric(self, graph_file, pattern_file, capsys):
        assert main(["topk", "--graph", graph_file, "--pattern", pattern_file,
                     "--metric", "degree"]) == 0
        assert "Bob" in capsys.readouterr().out

    def test_topk_writes_dot(self, graph_file, pattern_file, tmp_path, capsys):
        dot = tmp_path / "top.dot"
        main(["topk", "--graph", graph_file, "--pattern", pattern_file,
              "--dot", str(dot)])
        assert "color=red" in dot.read_text()

    def test_topk_with_workers_matches_sequential(self, graph_file, pattern_file,
                                                  capsys):
        """One query runs in one process: ``topk`` has no ``--workers``."""
        assert main(["topk", "--graph", graph_file, "--pattern", pattern_file,
                     "-k", "2"]) == 0
        assert "Bob" in capsys.readouterr().out
        assert_no_workers_flag(["topk", "--graph", graph_file, "--pattern",
                                pattern_file, "-k", "2", "--workers", "2"],
                               capsys)

    @pytest.mark.parametrize("metric", ["social-impact", "degree", "closeness",
                                        "harmonic"])
    def test_topk_rejects_nonpositive_k_for_every_metric(self, graph_file,
                                                         pattern_file, capsys,
                                                         metric):
        code = main(["topk", "--graph", graph_file, "--pattern", pattern_file,
                     "-k", "0", "--metric", metric])
        assert code == 2
        assert "k must be a positive integer" in capsys.readouterr().err

    def test_topk_rejects_bad_workers(self, graph_file, pattern_file, capsys):
        assert_no_workers_flag(["topk", "--graph", graph_file, "--pattern",
                                pattern_file, "--workers", "0"], capsys)

    def test_topk_no_match_exits_1(self, tmp_path, graph_file, capsys):
        q = tmp_path / "none.pattern"
        q.write_text('node Z* : field == "ZZ"\n')
        code = main(["topk", "--graph", graph_file, "--pattern", str(q)])
        assert code == 1
        assert "no match" in capsys.readouterr().out


class TestUpdate:
    def test_update_applies_and_reports_delta(self, graph_file, pattern_file, capsys):
        code = main([
            "update", "--graph", graph_file, "--insert", "Fred:Eva",
            "--pattern", pattern_file,
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "ΔM +(SD, Fred)" in out
        assert load_graph(graph_file).has_edge("Fred", "Eva")

    def test_update_out_path(self, graph_file, tmp_path, capsys):
        out_path = tmp_path / "updated.json"
        main(["update", "--graph", graph_file, "--delete", "Bob:Dan",
              "--out", str(out_path)])
        assert load_graph(out_path).has_edge("Bob", "Mat")
        assert not load_graph(out_path).has_edge("Bob", "Dan")
        assert load_graph(graph_file).has_edge("Bob", "Dan")  # original intact

    def test_update_without_ops_is_error(self, graph_file, capsys):
        assert main(["update", "--graph", graph_file]) == 2

    def test_bad_edge_spec_is_error(self, graph_file, capsys):
        assert main(["update", "--graph", graph_file, "--insert", "nocolon"]) == 2

    def test_unchanged_delta_message(self, graph_file, pattern_file, capsys):
        main(["update", "--graph", graph_file, "--insert", "Bill:Fred",
              "--pattern", pattern_file])
        assert "ΔM empty" in capsys.readouterr().out

    def test_add_node_with_attrs(self, graph_file, capsys):
        code = main([
            "update", "--graph", graph_file,
            "--add-node", "Amy:field=SA,experience=8",
            "--insert", "Amy:Dan",
        ])
        assert code == 0
        loaded = load_graph(graph_file)
        assert loaded.get("Amy", "experience") == 8
        assert loaded.has_edge("Amy", "Dan")

    def test_set_attr_changes_matches(self, graph_file, pattern_file, capsys):
        main(["update", "--graph", graph_file, "--set-attr", "Walt:experience:4",
              "--pattern", pattern_file])
        out = capsys.readouterr().out
        assert "ΔM -(SA, Walt)" in out

    def test_remove_node(self, graph_file, pattern_file, capsys):
        main(["update", "--graph", graph_file, "--remove-node", "Eva",
              "--pattern", pattern_file])
        out = capsys.readouterr().out
        loaded = load_graph(graph_file)
        assert "Eva" not in loaded
        # Eva was the only tester: the whole match collapses.
        assert "ΔM -(ST, Eva)" in out

    def test_bad_node_spec_is_error(self, graph_file, capsys):
        assert main(["update", "--graph", graph_file,
                     "--add-node", ":broken"]) == 2
        assert main(["update", "--graph", graph_file,
                     "--set-attr", "Walt:experience"]) == 2


class TestLibraryPatterns:
    def test_query_with_library_pattern(self, tmp_path, capsys):
        graph_path = tmp_path / "collab.json"
        main(["generate", "--kind", "collab", "--nodes", "200", "--seed", "3",
              "--out", str(graph_path)])
        capsys.readouterr()
        code = main(["query", "--graph", str(graph_path),
                     "--pattern", "lib:q1-team-star"])
        assert code in (0, 1)  # valid run either way; depends on matches
        out = capsys.readouterr().out
        assert "SA" in out or "no match" in out

    def test_unknown_library_pattern_is_error(self, graph_file, capsys):
        assert main(["query", "--graph", graph_file, "--pattern", "lib:q99"]) == 2
        assert "unknown library query" in capsys.readouterr().err

    def test_show_profile(self, graph_file, capsys):
        assert main(["show", "--graph", graph_file, "--profile"]) == 0
        out = capsys.readouterr().out
        assert "density:" in out
        assert "out-degree:" in out


class TestCompress:
    def test_compress_reports_ratio(self, graph_file, capsys):
        assert main(["compress", "--graph", graph_file,
                     "--attrs", "field,specialty"]) == 0
        assert "size reduced by" in capsys.readouterr().out

    def test_compress_writes_quotient(self, graph_file, tmp_path, capsys):
        out = tmp_path / "q.json"
        main(["compress", "--graph", graph_file, "--attrs", "field",
              "--out", str(out)])
        quotient = load_graph(out)
        assert quotient.num_nodes <= 9


class TestDemo:
    def test_demo_reproduces_examples(self, capsys):
        assert main(["demo"]) == 0
        out = capsys.readouterr().out
        assert "SA: Bob, Walt" in out
        assert "1.8000" in out          # f(SA, Bob) = 9/5
        assert "2.3333" in out          # f(SA, Walt) = 7/3
        assert "ΔM +(SD, Fred)" in out  # Example 3


def assert_no_workers_flag(argv, capsys) -> None:
    """``argv`` names ``--workers`` on a command that has no such flag."""
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    assert exit_info.value.code == 2
    assert "unrecognized arguments: --workers" in capsys.readouterr().err


class TestWorkers:
    """CLI error paths and happy paths for the --workers flag, which only
    the commands with a fan-out (batch, oracle, snapshot save) take."""

    def test_query_parallel_matches_sequential_output(
        self, graph_file, pattern_file, capsys
    ):
        assert main(["query", "--graph", graph_file, "--pattern", pattern_file]) == 0
        assert "SA: Bob, Walt" in capsys.readouterr().out
        assert_no_workers_flag(["query", "--graph", graph_file, "--pattern",
                                pattern_file, "--workers", "2"], capsys)

    @pytest.mark.parametrize("workers", ["0", "-4"])
    def test_query_rejects_bad_workers(self, graph_file, pattern_file, capsys,
                                       workers):
        for command in (["query", "--graph", graph_file, "--pattern", pattern_file],
                        ["serve", "--port", "0"]):
            assert_no_workers_flag([*command, "--workers", workers], capsys)

    @pytest.mark.parametrize("workers", ["0", "-1"])
    def test_batch_rejects_bad_workers(self, graph_file, pattern_file, capsys,
                                       workers):
        code = main(["batch", "--graph", graph_file, "--pattern", pattern_file,
                     "--workers", workers])
        assert code == 2
        assert "--workers: workers must be a positive integer" in capsys.readouterr().err

    def test_batch_single_pattern_with_workers(self, graph_file, pattern_file,
                                               capsys):
        # A one-query batch runs its one task inline; the summary line
        # must still render (regression: KeyError on stats["batch"]).
        code = main(["batch", "--graph", graph_file, "--pattern", pattern_file,
                     "--workers", "2"])
        assert code == 0
        out = capsys.readouterr().out
        assert "batch: 1 queries" in out
        assert "2 workers" in out

    def test_batch_parallel_reports_workers(self, graph_file, pattern_file, capsys):
        code = main(["batch", "--graph", graph_file, "--pattern", pattern_file,
                     "--pattern", pattern_file, "--workers", "2"])
        assert code == 0
        out = capsys.readouterr().out
        assert "batch: 2 queries" in out
        assert "2 workers" in out

    def test_batch_empty_query_file_is_error(self, graph_file, tmp_path, capsys):
        empty = tmp_path / "empty.pattern"
        empty.write_text("")
        code = main(["batch", "--graph", graph_file, "--pattern", str(empty),
                     "--workers", "2"])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_query_parallel_missing_graph_file_is_error(self, tmp_path,
                                                        pattern_file, capsys):
        code = main(["batch", "--graph", str(tmp_path / "none.json"),
                     "--pattern", pattern_file, "--workers", "2"])
        assert code == 2
        assert "error:" in capsys.readouterr().err


class TestOracle:
    def test_oracle_stats_subcommand(self, graph_file, capsys):
        code = main(["oracle", "--graph", graph_file])
        assert code == 0
        out = capsys.readouterr().out
        assert "exact-distance cap: unbounded ('*' covered)" in out
        assert "labels:" in out and "reachability closure:" in out

    def test_oracle_with_cap_and_pattern_routing(self, graph_file, pattern_file, capsys):
        code = main([
            "oracle", "--graph", graph_file, "--cap", "3",
            "--pattern", pattern_file,
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "exact-distance cap: 3" in out
        assert "route: direct" in out
        assert "distance oracle: warm" in out
        assert "edge " in out  # per-edge kernel routing lines

    def test_query_with_oracle_matches_plain(self, graph_file, pattern_file, capsys):
        plain_code = main(["query", "--graph", graph_file, "--pattern", pattern_file])
        plain_out = capsys.readouterr().out
        code = main([
            "query", "--graph", graph_file, "--pattern", pattern_file,
            "--oracle", "--explain",
        ])
        out = capsys.readouterr().out
        assert code == plain_code == 0
        assert "distance oracle" in out
        assert "kernels used:" in out
        # Identical relation summaries: the oracle changes kernels only.
        assert plain_out.strip().splitlines()[-1] in out

    def test_batch_with_oracle_reports_label_stats(self, graph_file, pattern_file, capsys):
        code = main([
            "batch", "--graph", graph_file,
            "--pattern", pattern_file, "--pattern", pattern_file,
            "--oracle",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "distance oracle:" in out

    def test_oracle_bad_workers_rejected(self, graph_file, capsys):
        code = main(["oracle", "--graph", graph_file, "--workers", "0"])
        assert code == 2
        assert "--workers" in capsys.readouterr().err


class TestBudgetFlags:
    """--budget/--time-limit/--allow-partial on query, batch and topk."""

    @pytest.fixture
    def hub_graph_file(self, tmp_path):
        from repro.graph.generators import twitter_like_graph

        return str(save_graph(twitter_like_graph(300, seed=3), tmp_path / "hub.json"))

    @pytest.fixture
    def bomb_file(self, tmp_path):
        bomb = tmp_path / "bomb.pattern"
        bomb.write_text(
            "node A*\nnode B\nnode C\n"
            "edge A -> B : *\nedge B -> C : *\nedge C -> A : *\n"
        )
        return str(bomb)

    def test_query_partial_note_and_estimates(self, hub_graph_file, bomb_file, capsys):
        code = main([
            "query", "--graph", hub_graph_file, "--pattern", bomb_file,
            "--budget", "500", "--allow-partial", "--explain",
        ])
        out = capsys.readouterr().out
        assert code == 1  # partial bomb: no full match
        assert "budget: 500 node visits" in out
        assert "estimate: edge A->B:" in out
        assert "note: partial result — node-budget guard tripped" in out

    def test_query_hard_budget_is_error(self, hub_graph_file, bomb_file, capsys):
        code = main([
            "query", "--graph", hub_graph_file, "--pattern", bomb_file,
            "--budget", "500",
        ])
        assert code == 2
        assert "node-budget" in capsys.readouterr().err

    def test_generous_budget_matches_unguarded(self, graph_file, pattern_file, capsys):
        assert main(["query", "--graph", graph_file, "--pattern", pattern_file]) == 0
        plain_out = capsys.readouterr().out
        code = main([
            "query", "--graph", graph_file, "--pattern", pattern_file,
            "--budget", "1000000000", "--time-limit", "3600",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "note: partial" not in out
        assert plain_out.strip().splitlines()[-1] in out

    def test_budget_flag_validation(self, graph_file, pattern_file, capsys):
        assert main([
            "query", "--graph", graph_file, "--pattern", pattern_file,
            "--budget", "0",
        ]) == 2
        assert "--budget/--time-limit" in capsys.readouterr().err
        assert main([
            "query", "--graph", graph_file, "--pattern", pattern_file,
            "--time-limit", "-1",
        ]) == 2
        assert "--budget/--time-limit" in capsys.readouterr().err
        assert main([
            "query", "--graph", graph_file, "--pattern", pattern_file,
            "--allow-partial",
        ]) == 2
        assert "--allow-partial needs" in capsys.readouterr().err

    def test_batch_marks_partial_queries(self, hub_graph_file, bomb_file, capsys):
        code = main([
            "batch", "--graph", hub_graph_file, "--pattern", bomb_file,
            "--budget", "500", "--allow-partial",
        ])
        out = capsys.readouterr().out
        assert code == 1
        assert "[partial: node-budget]" in out

    def test_topk_with_budget_runs(self, graph_file, pattern_file, capsys):
        code = main([
            "topk", "--graph", graph_file, "--pattern", pattern_file,
            "-k", "2", "--budget", "1000000000",
        ])
        assert code == 0
        assert "Bob" in capsys.readouterr().out

    def test_query_workers_with_budget(self, hub_graph_file, bomb_file, capsys):
        code = main([
            "query", "--graph", hub_graph_file, "--pattern", bomb_file,
            "--budget", "500", "--allow-partial",
        ])
        out = capsys.readouterr().out
        assert code == 1
        assert "note: partial result" in out


class TestSnapshot:
    def test_save_then_load(self, tmp_path, graph_file, capsys):
        store = str(tmp_path / "store")
        code = main(["snapshot", "save", "--graph", graph_file, "--store", store])
        assert code == 0
        out = capsys.readouterr().out
        assert "graph: 9 nodes, 12 edges" in out
        assert "snapshot:" in out and "fig1.frozen.snap" in out

        code = main(["snapshot", "load", "--store", store, "--name", "fig1"])
        assert code == 0
        out = capsys.readouterr().out
        assert "snapshot: 9 nodes, 12 edges" in out
        assert "mapped from:" in out
        assert "validated against stored graph 'fig1'" in out

    def test_save_with_oracle(self, tmp_path, graph_file, capsys):
        store = str(tmp_path / "store")
        code = main([
            "snapshot", "save", "--graph", graph_file, "--store", store,
            "--name", "team", "--oracle", "--oracle-cap", "4",
        ])
        assert code == 0
        assert "oracle:" in capsys.readouterr().out

        code = main(["snapshot", "load", "--store", store, "--name", "team"])
        assert code == 0
        out = capsys.readouterr().out
        assert "oracle: cap 4," in out

    def test_info_lists_sections(self, tmp_path, graph_file, capsys):
        store = str(tmp_path / "store")
        main([
            "snapshot", "save", "--graph", graph_file, "--store", store,
            "--name", "team", "--oracle",
        ])
        capsys.readouterr()
        code = main(["snapshot", "info", "--store", store, "--name", "team"])
        assert code == 0
        out = capsys.readouterr().out
        assert "frozen-graph:" in out
        assert "distance-oracle:" in out
        assert "format v1" in out
        assert "section out_targets:" in out

    def test_info_missing_is_error(self, tmp_path, capsys):
        store = str(tmp_path / "store")
        code = main(["snapshot", "info", "--store", store, "--name", "ghost"])
        assert code == 2
        assert "no stored snapshot named 'ghost'" in capsys.readouterr().err

    def test_load_missing_is_error(self, tmp_path, capsys):
        store = str(tmp_path / "store")
        code = main(["snapshot", "load", "--store", store, "--name", "ghost"])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_load_detects_corruption(self, tmp_path, graph_file, capsys):
        store = tmp_path / "store"
        main(["snapshot", "save", "--graph", graph_file, "--store", str(store)])
        capsys.readouterr()
        path = store / "snapshots" / "fig1.frozen.snap"
        raw = bytearray(path.read_bytes())
        raw[-1] ^= 0xFF
        path.write_bytes(bytes(raw))
        code = main(["snapshot", "load", "--store", str(store), "--name", "fig1"])
        assert code == 2
        assert "checksum mismatch" in capsys.readouterr().err


class TestServe:
    @pytest.fixture
    def quiet_server(self, monkeypatch):
        """Make `expfinder serve` return right after binding."""
        from repro.server.app import QueryServer

        monkeypatch.setattr(QueryServer, "serve_forever", lambda self: None)

    def test_serve_registers_graph_files(self, graph_file, quiet_server, capsys):
        code = main(["serve", "--port", "0", "--graph", graph_file])
        assert code == 0
        out = capsys.readouterr().out
        assert "registered 'fig1': 9 nodes / 12 edges, epoch 0" in out
        assert "serving on http://127.0.0.1:" in out

    def test_serve_named_graph_spec(self, graph_file, quiet_server, capsys):
        code = main(["serve", "--port", "0", "--graph", f"team={graph_file}"])
        assert code == 0
        assert "registered 'team'" in capsys.readouterr().out

    def test_serve_bad_graph_spec(self, quiet_server, capsys):
        code = main(["serve", "--port", "0", "--graph", "=oops"])
        assert code == 2
        assert "bad graph spec" in capsys.readouterr().err

    def test_serve_ctrl_c_shuts_down(self, graph_file, monkeypatch, capsys):
        from repro.server.app import QueryServer

        def interrupted(self):
            raise KeyboardInterrupt

        monkeypatch.setattr(QueryServer, "serve_forever", interrupted)
        code = main(["serve", "--port", "0", "--graph", graph_file])
        assert code == 0
        assert "shutting down" in capsys.readouterr().out

    def test_serve_preload_needs_store(self, capsys):
        code = main(["serve", "--port", "0", "--preload", "fig1"])
        assert code == 2
        assert "--preload needs --store" in capsys.readouterr().err

    def test_serve_preload_warm_start(
        self, tmp_path, graph_file, quiet_server, capsys
    ):
        from repro.graph.frozen import FrozenGraph

        store = str(tmp_path / "store")
        main(["snapshot", "save", "--graph", graph_file, "--store", store])
        capsys.readouterr()
        code = main(
            ["serve", "--port", "0", "--store", store, "--preload", "fig1"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "preloaded 'fig1'" in out
        assert "snapshot fault-ins, no freeze" in out
        assert FrozenGraph  # snapshot CLI produced the .frozen.snap above

    def test_serve_wal_dir_round_trip(
        self, tmp_path, graph_file, quiet_server, capsys
    ):
        wal_dir = str(tmp_path / "wal")
        code = main(["serve", "--port", "0", "--graph", graph_file,
                     "--wal-dir", wal_dir, "--fsync", "always",
                     "--checkpoint-every", "8"])
        assert code == 0
        capsys.readouterr()
        # second boot, same command line: recovery runs (clean shutdown,
        # so nothing replays) and the --graph seed file must yield to the
        # recovered state instead of colliding with it
        code = main(["serve", "--port", "0", "--graph", graph_file,
                     "--wal-dir", wal_dir])
        assert code == 0
        out = capsys.readouterr().out
        assert "recovered 'fig1': replayed 0 batch(es)" in out
        assert "skipped 'fig1': already recovered from the WAL" in out

    def test_serve_wal_ctrl_c_seals_the_log(
        self, tmp_path, graph_file, monkeypatch, capsys
    ):
        from repro.server.app import QueryServer

        def interrupted(self):
            raise KeyboardInterrupt

        monkeypatch.setattr(QueryServer, "serve_forever", interrupted)
        code = main(["serve", "--port", "0", "--graph", graph_file,
                     "--wal-dir", str(tmp_path / "wal")])
        assert code == 0
        out = capsys.readouterr().out
        assert "shutting down" in out
        assert "sealing WAL" in out

    def test_serve_fault_arming_from_env(
        self, tmp_path, graph_file, quiet_server, capsys, monkeypatch
    ):
        from repro.testing.faults import disarm_faults, fault_stats

        monkeypatch.setenv("REPRO_FAULTS", "wal.fsync=crash@999")
        try:
            code = main(["serve", "--port", "0", "--graph", graph_file,
                         "--wal-dir", str(tmp_path / "wal")])
            assert code == 0
            out = capsys.readouterr().out
            assert "fault injection armed" in out
            assert fault_stats()["armed"] == {"wal.fsync": 999}
        finally:
            disarm_faults()

    def test_serve_preload_missing_graph(self, tmp_path, quiet_server, capsys):
        store = str(tmp_path / "store")
        code = main(["serve", "--port", "0", "--store", store,
                     "--preload", "ghost"])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_serve_rejects_bad_admission_flags(self, capsys):
        code = main(["serve", "--port", "0", "--max-inflight", "0"])
        assert code == 2
        assert "--max-inflight" in capsys.readouterr().err

    def test_serve_rejects_bad_default_budget(self, capsys):
        code = main(["serve", "--port", "0", "--default-budget", "-5"])
        assert code == 2
        assert "--default-budget" in capsys.readouterr().err


class TestStats:
    def test_stats_local_engine(self, graph_file, capsys):
        import json

        code = main(["stats", "--graph", graph_file])
        assert code == 0
        document = json.loads(capsys.readouterr().out)
        assert document["graphs"]["fig1"]["nodes"] == 9
        assert "cache" in document and "oracles" in document

    def test_stats_local_with_query(self, graph_file, pattern_file, capsys):
        import json

        code = main(
            ["stats", "--graph", graph_file, "--pattern", pattern_file]
        )
        assert code == 0
        document = json.loads(capsys.readouterr().out)
        assert document["cache"]["size"] == 1

    def test_stats_needs_exactly_one_source(self, graph_file, capsys):
        assert main(["stats"]) == 2
        assert "exactly one" in capsys.readouterr().err
        assert main(
            ["stats", "--graph", graph_file, "--url", "http://x"]
        ) == 2

    def test_stats_from_running_service(self, capsys):
        import json

        from repro.datasets.paper_example import paper_graph
        from repro.server import ExpFinderService, QueryServer

        service = ExpFinderService()
        service.register_graph("fig1", paper_graph())
        with QueryServer(service) as server:
            server.start()
            code = main(["stats", "--url", server.url])
        assert code == 0
        document = json.loads(capsys.readouterr().out)
        assert document["registry"]["graphs"]["fig1"]["current_epoch"] == 0
        assert "admission" in document

    def test_stats_unreachable_url(self, capsys):
        code = main(["stats", "--url", "http://127.0.0.1:1/nope"])
        assert code == 2
        assert "cannot fetch" in capsys.readouterr().err


class TestPackaging:
    def test_setup_py_carries_real_metadata(self):
        """`pip install -e . --no-use-pep517` must install `repro` and the
        `expfinder` command the docs use, not an UNKNOWN-0.0.0 stub."""
        import subprocess
        import sys
        from pathlib import Path

        import repro

        root = Path(__file__).resolve().parent.parent
        out = subprocess.run(
            [sys.executable, "setup.py", "--name", "--version"],
            cwd=root, capture_output=True, text=True, check=True, timeout=60,
        ).stdout.split()
        assert out == ["expfinder", repro.__version__]
        assert "expfinder = repro.cli:main" in (root / "setup.py").read_text()
