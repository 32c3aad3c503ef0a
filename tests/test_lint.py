"""repro-lint's own tests: rules against the fixture corpus, the
suppression grammar, the baseline round trip, and the CLI gate.

The fixture corpus lives in ``tests/lint_fixtures`` (excluded from the
repo-wide sweep by ``DEFAULT_EXCLUDED_DIRS``); every rule has one
deliberately-violating and one clean fixture, and the bad ones double as
the CI negative test proving the gate actually fails on seeded
violations.
"""

import json
from pathlib import Path

import pytest

from repro.analysis import lint_paths, lint_source, rule_ids, select_rules
from repro.analysis.baseline import load_baseline, write_baseline
from repro.analysis.cli import main as lint_main
from repro.analysis.core import BAD_SUPPRESSION, PARSE_ERROR
from repro.errors import StorageError

HERE = Path(__file__).parent
FIXTURES = HERE / "lint_fixtures"
REPO_ROOT = HERE.parent
#: Lint fixtures on purpose (the default excludes would skip them).
FIXTURE_EXCLUDES = frozenset({"__pycache__"})

#: rule id -> (flagged fixture, clean fixture); path-scoped rules opt in
#: by mirroring the directory shape they scope on.
CORPUS = {
    "frozen-immutability": ("bad/frozen_bad.py", "good/frozen_good.py"),
    "guard-threading": ("bad/guard_bad.py", "good/guard_good.py"),
    "spawn-safety": ("bad/spawn_bad.py", "good/spawn_good.py"),
    "determinism": (
        "bad/matching/determinism_bad.py",
        "good/matching/determinism_good.py",
    ),
    "version-bump-discipline": ("bad/version_bad.py", "good/version_good.py"),
    "error-wrapping": ("bad/engine/storage.py", "good/engine/storage.py"),
    "fault-point-registered": ("bad/faults_bad.py", "good/faults_good.py"),
}


def lint_fixture(relpath):
    return lint_paths([FIXTURES / relpath], excluded_dirs=FIXTURE_EXCLUDES)


class TestCorpus:
    def test_corpus_covers_every_rule(self):
        assert sorted(CORPUS) == rule_ids()

    @pytest.mark.parametrize("rule_id", sorted(CORPUS))
    def test_bad_fixture_flagged_by_exactly_its_rule(self, rule_id):
        bad, _good = CORPUS[rule_id]
        active = lint_fixture(bad).active
        assert active, f"{bad} produced no findings"
        assert {finding.rule for finding in active} == {rule_id}

    @pytest.mark.parametrize("rule_id", sorted(CORPUS))
    def test_good_fixture_is_clean(self, rule_id):
        _bad, good = CORPUS[rule_id]
        result = lint_fixture(good)
        assert result.active == []

    def test_findings_carry_source_lines_and_positions(self):
        finding = lint_fixture(CORPUS["frozen-immutability"][0]).active[0]
        assert finding.line > 0
        assert "frozen.labels = []" in finding.source_line

    def test_receivers_bound_to_patched_are_tracked(self):
        lines = [
            finding.source_line
            for finding in lint_fixture(CORPUS["frozen-immutability"][0]).active
        ]
        assert any("carried.in_targets[0] = 9" in line for line in lines)

    def test_a_copy_on_write_swap_is_not_a_content_write(self):
        # the same row swapped for its copy passes; another row's copy fires
        source_lines = {
            finding.source_line
            for finding in lint_fixture(CORPUS["version-bump-discipline"][0]).active
        }
        assert "self._attrs[node] = self._attrs[other].copy()" in {
            line.split("  #")[0] for line in source_lines
        }
        good = (FIXTURES / CORPUS["version-bump-discipline"][1]).read_text()
        assert "self._attrs[node] = self._attrs[node].copy()" in good


class TestSuppression:
    def test_justified_suppression_is_honored(self):
        result = lint_fixture("good/suppressed_ok.py")
        assert result.active == []
        assert len(result.suppressed) == 2  # trailing + standalone forms

    def test_empty_justification_is_flagged_and_does_not_silence(self):
        active = lint_fixture("bad/suppress_empty.py").active
        rules = sorted(finding.rule for finding in active)
        assert rules == [BAD_SUPPRESSION, "frozen-immutability"]

    def test_unknown_rule_in_directive_is_flagged(self):
        source = "x = 1  # repro-lint: disable=no-such-rule -- because\n"
        findings = lint_source(source)
        assert [f.rule for f in findings] == [BAD_SUPPRESSION]
        assert "no-such-rule" in findings[0].message

    def test_bad_suppression_cannot_be_suppressed(self):
        source = (
            "# repro-lint: disable=bad-suppression -- muting the auditor\n"
            "# repro-lint: disable=\n"
            "x = 1\n"
        )
        active = [f for f in lint_source(source) if f.active]
        assert [f.rule for f in active] == [BAD_SUPPRESSION]

    def test_directive_inside_a_string_is_inert(self):
        source = (
            'from repro.graph.frozen import FrozenGraph\n'
            'frozen = FrozenGraph.freeze(graph)\n'
            'note = "# repro-lint: disable=frozen-immutability -- nope"\n'
            'frozen.labels = [note]\n'
        )
        active = lint_source(source)
        assert [f.rule for f in active] == ["frozen-immutability"]
        assert not any(f.suppressed for f in active)

    def test_prose_mention_of_the_tool_is_not_a_directive(self):
        findings = lint_source("# repro-lint is documented in docs/\nx = 1\n")
        assert findings == []


class TestDriver:
    def test_parse_error_is_reported_not_raised(self):
        findings = lint_source("def broken(:\n", path="x.py")
        assert [f.rule for f in findings] == [PARSE_ERROR]

    def test_select_rules_unknown_id_raises(self):
        with pytest.raises(KeyError, match="no-such-rule"):
            select_rules(["no-such-rule"])

    def test_default_excludes_skip_the_fixture_corpus(self):
        result = lint_paths([FIXTURES])
        assert result.files_checked == 0

    def test_repo_sweep_is_clean(self):
        # The acceptance gate: zero unsuppressed findings over the tree.
        result = lint_paths(
            [REPO_ROOT / part for part in ("src", "benchmarks", "tests")]
        )
        assert result.active == [], [
            f"{f.path}:{f.line}: [{f.rule}] {f.message}" for f in result.active
        ]
        assert result.suppressed  # the justified exceptions are visible


class TestBaseline:
    def test_round_trip_grandfathers_findings(self, tmp_path):
        baseline_path = tmp_path / "baseline.json"
        first = lint_paths([FIXTURES / "bad"], excluded_dirs=FIXTURE_EXCLUDES)
        count = write_baseline(baseline_path, first.active)
        assert count == len(first.active)
        fingerprints = load_baseline(baseline_path)
        second = lint_paths(
            [FIXTURES / "bad"],
            excluded_dirs=FIXTURE_EXCLUDES,
            baseline_fingerprints=fingerprints,
        )
        assert second.ok
        assert len(second.baselined) == len(first.active)

    def test_fingerprint_survives_line_drift(self):
        violation = "frozen.labels = []\n"
        prefix = (
            "from repro.graph.frozen import FrozenGraph\n"
            "frozen = FrozenGraph.freeze(graph)\n"
        )
        shifted = prefix + "\n\n\n" + violation
        original = lint_source(prefix + violation, path="same.py")
        moved = lint_source(shifted, path="same.py")
        assert original[0].fingerprint() == moved[0].fingerprint()
        assert original[0].line != moved[0].line

    def test_malformed_baseline_raises_storage_error(self, tmp_path):
        bad = tmp_path / "baseline.json"
        bad.write_text("not json at all")
        with pytest.raises(StorageError):
            load_baseline(bad)
        bad.write_text(json.dumps({"format_version": 99, "fingerprints": []}))
        with pytest.raises(StorageError, match="format"):
            load_baseline(bad)


class TestCliGate:
    """The command-line contract CI relies on."""

    def test_seeded_violations_fail_the_gate(self, capsys):
        # The negative test: the gate must exit 1 on the bad corpus and
        # report a finding from every rule, proving each one fires in CI.
        code = lint_main(
            ["--no-default-excludes", "--format", "json", str(FIXTURES / "bad")]
        )
        assert code == 1
        report = json.loads(capsys.readouterr().out)
        flagged = {finding["rule"] for finding in report["findings"]}
        assert flagged >= set(rule_ids())
        assert BAD_SUPPRESSION in flagged

    def test_clean_corpus_passes_the_gate(self, capsys):
        code = lint_main(["--no-default-excludes", str(FIXTURES / "good")])
        assert code == 0
        assert "0 findings" in capsys.readouterr().out

    def test_list_rules(self, capsys):
        assert lint_main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule_id in rule_ids():
            assert rule_id in out

    def test_unknown_rule_flag_is_usage_error(self, capsys):
        assert lint_main(["--rules", "no-such-rule", str(FIXTURES)]) == 2

    def test_missing_path_is_usage_error(self, capsys):
        assert lint_main([str(FIXTURES / "does-not-exist")]) == 2

    def test_write_baseline_requires_baseline_flag(self, capsys):
        assert lint_main(["--write-baseline", str(FIXTURES / "good")]) == 2

    def test_write_then_enforce_baseline(self, tmp_path, capsys):
        baseline = tmp_path / "baseline.json"
        target = str(FIXTURES / "bad" / "frozen_bad.py")
        assert (
            lint_main(
                [
                    "--no-default-excludes",
                    "--baseline",
                    str(baseline),
                    "--write-baseline",
                    target,
                ]
            )
            == 0
        )
        capsys.readouterr()
        assert (
            lint_main(
                ["--no-default-excludes", "--baseline", str(baseline), target]
            )
            == 0
        )

    def test_expfinder_lint_subcommand_forwards(self, capsys):
        from repro.cli import main as expfinder_main

        assert expfinder_main(["lint", "--list-rules"]) == 0
        assert "frozen-immutability" in capsys.readouterr().out
