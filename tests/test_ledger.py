"""The claims ledger's contract (``benchmarks/ledger.py``).

Every selected claim prints its rows in the text table and in the JSON; a
result-identity mismatch exits 1; a speed claim that misses is a
``holds: no`` row and the exit status stays 0.  Each run is a small
smoke-scale subset of the claims.  The committed full-scale run covers
every claim, and ``docs/performance.md`` shows its table.
"""

from __future__ import annotations

import json
from pathlib import Path

from benchmarks import ledger

ROOT = Path(__file__).resolve().parent.parent

SUBSET = {name: ledger.CLAIMS[name] for name in ("ABL-1", "E9", "E13")}


def run(tmp_path, capsys, claims=SUBSET):
    out = tmp_path / "ledger.json"
    code = ledger.main(["--scale", "smoke", "--json", str(out)], claims)
    return code, capsys.readouterr().out, json.loads(out.read_text())


def test_smoke_subset_prints_every_selected_id(tmp_path, capsys):
    code, text, payload = run(tmp_path, capsys)
    assert code == 0
    ids = [row["id"] for row in payload["rows"]]
    assert ids == ["ABL-1", "E9", "E13-prunable", "E13-uniform"]
    for row in payload["rows"]:
        assert f"| {row['id']} |" in text
        assert row["workload"] and row["metric"] and row["threshold"]
        assert row["holds"] in ("yes", "no") or row["holds"].startswith("skipped: ")
    assert payload["scale"] == "smoke"
    assert payload["mismatches"] == []


def test_identity_mismatch_exits_1(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(ledger, "naive_bounded", lambda graph, pattern: None)
    code, text, payload = run(tmp_path, capsys)
    assert code == 1
    assert payload["mismatches"] == [
        "ABL-1: match_bounded vs naive_bounded relation"
    ]
    assert "| ABL-1 | result identity |" in text
    assert "MISMATCH" in text
    # the other claims still ran and printed their rows
    assert "| E9 |" in text and "| E13-prunable |" in text


def test_missed_speed_claim_reads_no_and_exits_0(tmp_path, capsys, monkeypatch):
    # the naive fixpoint answers instantly with the right relation, so the
    # indexed matcher cannot beat it
    graph = ledger.collaboration_graph(150, seed=0)
    pattern = ledger.team_pattern()
    expected = ledger.naive_bounded(graph, pattern)
    monkeypatch.setattr(ledger, "naive_bounded", lambda graph, pattern: expected)
    code, text, payload = run(tmp_path, capsys, {"ABL-1": ledger.CLAIMS["ABL-1"]})
    assert code == 0
    [row] = payload["rows"]
    assert (row["id"], row["holds"]) == ("ABL-1", "no")
    assert text.rstrip().endswith("| indexed < naive | no |")


def test_docs_table_is_the_committed_full_run():
    payload = json.loads((ROOT / "benchmarks" / "ledger.json").read_text())
    assert payload["scale"] == "full"
    assert payload["mismatches"] == []
    ids = [row["id"] for row in payload["rows"]]
    for group in ledger.CLAIMS:
        assert any(i == group or i.startswith(f"{group}-") for i in ids), group
    table = "\n".join(
        ledger.markdown_line([row[column] for column in ledger.COLUMNS])
        for row in payload["rows"]
    )
    assert table in (ROOT / "docs" / "performance.md").read_text()
