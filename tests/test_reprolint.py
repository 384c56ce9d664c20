"""Self-tests for tools/reprolint: every rule, both polarities, plumbing.

The fixture corpus lives under ``tools/reprolint/tests/fixtures``; each
rule has at least one file designed to trip it and one designed not to.
These tests pin the contract the CI gate relies on: findings where
expected, silence where expected, two-call-hop reachability for the
PAR0xx race detectors, exit codes, JSON/SARIF output, the suppression
syntax (including unused-suppression reporting) and baselines.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

REPO_ROOT = Path(__file__).resolve().parent.parent
TOOLS_DIR = REPO_ROOT / "tools"
FIXTURES = TOOLS_DIR / "reprolint" / "tests" / "fixtures"

sys.path.insert(0, str(TOOLS_DIR))

from reprolint import lint_file, lint_paths  # noqa: E402
from reprolint.baseline import (  # noqa: E402
    apply_baseline, load_baseline, write_baseline)
from reprolint.cli import main as reprolint_main  # noqa: E402
from reprolint.core import analyze_file, collect_files  # noqa: E402
from reprolint.project import ProjectGraph  # noqa: E402
from reprolint.registry import all_rules  # noqa: E402
from reprolint.sarif import SARIF_VERSION, to_sarif  # noqa: E402


def codes_in(path: Path, **kwargs) -> set[str]:
    """The set of rule codes reported for one fixture file."""
    return {f.code for f in lint_file(path, **kwargs)}


def codes_under(path: Path, **kwargs) -> set[str]:
    """The set of rule codes reported for one fixture directory."""
    return {f.code for f in lint_paths([path], **kwargs)}


class TestRulePack:
    def test_full_pack_registered(self):
        assert {"UNITS001", "UNITS002", "RNG001", "DET001", "API001",
                "EXC001", "DUR001", "PAR001", "PAR002", "PAR003",
                "PAR004", "PAR005"} <= set(all_rules())

    @pytest.mark.parametrize("code,bad,ok", [
        ("UNITS001", "units001_bad.py", "units001_ok.py"),
        ("UNITS002", "units002_bad.py", "units002_ok.py"),
        ("RNG001", "rng001_bad.py", "rng001_ok.py"),
        ("DET001", "det001_bad.py", "det001_ok.py"),
        ("DET001", "det001_telemetry_bad.py", "det001_telemetry_ok.py"),
        ("DET001", "det001_worker_bad.py", "det001_worker_ok.py"),
        ("API001", "api001_bad/__init__.py", "api001_ok/__init__.py"),
        ("EXC001", "exc001_bad.py", "exc001_ok.py"),
        ("DUR001", "dur001_bad/engine/writer.py",
         "dur001_ok/engine/writer.py"),
    ])
    def test_positive_and_negative_fixture(self, code, bad, ok):
        assert code in codes_in(FIXTURES / bad), f"{code} missed {bad}"
        assert code not in codes_in(FIXTURES / ok), f"{code} false-fired {ok}"

    def test_units001_counts_every_mixing_expression(self):
        findings = [f for f in lint_file(FIXTURES / "units001_bad.py")
                    if f.code == "UNITS001"]
        assert len(findings) == 4

    def test_units002_exempts_the_conversion_authority(self):
        units_py = REPO_ROOT / "src" / "repro" / "units.py"
        assert "UNITS002" not in codes_in(units_py)

    def test_rng001_flags_default_factory_reference(self):
        messages = [f.message for f in lint_file(FIXTURES / "rng001_bad.py")]
        assert any("factory" in m for m in messages)

    def test_api001_reports_dynamic_all(self):
        findings = lint_file(FIXTURES / "api001_dynamic" / "__init__.py")
        assert any("not a literal list" in f.message for f in findings)

    def test_exc001_allows_observe_and_reraise(self):
        assert "EXC001" not in codes_in(FIXTURES / "exc001_ok.py")

    def test_dur001_only_fires_under_scoped_directories(self):
        """The same raw writes outside engine/cluster/telemetry pass."""
        assert "DUR001" not in codes_in(FIXTURES / "dur001_unscoped.py")

    def test_dur001_counts_every_raw_write(self):
        findings = [f for f in lint_file(
            FIXTURES / "dur001_bad" / "engine" / "writer.py")
            if f.code == "DUR001"]
        assert len(findings) == 3

    def test_parse_errors_become_findings(self):
        assert codes_in(FIXTURES / "parse_error.py") == {"PARSE001"}


class TestParallelRules:
    """The PAR0xx race detector against its planted-violation corpus.

    Every ``*_bad`` fixture hides the hazard at least one call hop away
    from the worker entry point — a file-scope rule cannot see it.
    """

    @pytest.mark.parametrize("code,bad,count,ok", [
        ("PAR001", "par001_bad", 2, "par001_ok"),
        ("PAR002", "par002_bad.py", 3, "par002_ok.py"),
        ("PAR003", "par003_bad", 2, "par003_ok"),
        ("PAR004", "par004_bad", 1, "par004_ok"),
        ("PAR005", "par005_bad", 1, "par005_ok"),
    ])
    def test_positive_and_negative_fixture(self, code, bad, count, ok):
        findings = [f for f in lint_paths([FIXTURES / bad], select=[code])]
        assert len(findings) == count, \
            f"{code}: {[f.render() for f in findings]}"
        assert codes_under(FIXTURES / ok, select=[code]) == set()

    def test_par001_chain_spans_two_call_hops(self):
        """The diagnostic names the full entry -> ... -> sink chain."""
        messages = [f.message for f in
                    lint_paths([FIXTURES / "par001_bad"], select=["PAR001"])]
        assert any("run_trial -> par001_bad.work.step -> "
                   "par001_bad.state.remember" in m for m in messages)

    def test_par001_anchors_at_the_offending_module(self):
        """Findings point at state.py, not at the entry in driver.py."""
        findings = lint_paths([FIXTURES / "par001_bad"], select=["PAR001"])
        assert {Path(f.path).name for f in findings} == {"state.py"}

    def test_par001_never_written_constant_is_safe(self):
        """Reading a module dict nobody writes is not shared state."""
        assert codes_under(FIXTURES / "par001_ok") == set()

    def test_par002_reports_each_unpicklable_flavor(self):
        messages = [f.message for f in
                    lint_file(FIXTURES / "par002_bad.py", select=["PAR002"])]
        assert any("lambda" in m for m in messages)
        assert any("nested function" in m for m in messages)
        assert any("bound method" in m for m in messages)

    def test_par002_data_attribute_callable_is_not_flagged(self):
        """`self.trial_fn` holding a plain function is picklable."""
        assert codes_in(FIXTURES / "par002_ok.py") == set()

    def test_par003_finds_wallclock_and_env_two_hops_down(self):
        messages = [f.message for f in
                    lint_paths([FIXTURES / "par003_bad"], select=["PAR003"])]
        assert any("wall-clock" in m and "->" in m for m in messages)
        assert any("environment read" in m for m in messages)

    def test_par003_parent_side_clock_is_fine(self):
        """time.monotonic() in the driver (not worker-reachable) passes."""
        assert codes_under(FIXTURES / "par003_ok") == set()

    def test_par003_follows_a_local_partial_handoff(self):
        """`fn = partial(trial, ...); Campaign(fn, ...)` hands `trial`
        over: the clock two hops below it is worker-reachable."""
        messages = [f.message for f in lint_paths(
            [FIXTURES / "par003_partial_bad"], select=["PAR003"])]
        assert len(messages) == 1
        assert ("par003_partial_bad.work.trial -> "
                "par003_partial_bad.work.step -> "
                "par003_partial_bad.clock.stamp") in messages[0]

    def test_par001_module_function_call_is_not_mutation(self):
        """`np.sort(np.insert(...))` calls numpy functions named like
        list methods; it mutates no module-global container."""
        assert codes_under(FIXTURES / "par001_module_call_ok") == set()

    def test_par004_transitive_unseeded_rng(self):
        messages = [f.message for f in
                    lint_paths([FIXTURES / "par004_bad"], select=["PAR004"])]
        assert any("default_rng" in m and "via" in m for m in messages)

    def test_par005_is_dataflow_aware_where_dur001_is_not(self):
        """par005_bad writes outside the DUR001 path scope: only the
        reachability rule can connect the worker to the raw write."""
        assert codes_under(FIXTURES / "par005_bad",
                           select=["DUR001"]) == set()
        assert codes_under(FIXTURES / "par005_bad",
                           select=["PAR005"]) == {"PAR005"}

    def test_full_pack_on_par_corpus_reports_only_planted_codes(self):
        """No collateral findings from other rules on the PAR corpus.

        ``par003_bad``/``par004_bad`` also trip the file-scope twins
        (DET001/RNG001) on the very same calls — the intended overlap:
        the file rule sees the call locally, the project rule adds the
        worker chain.
        """
        for name, codes in [("par001_bad", {"PAR001"}),
                            ("par003_bad", {"PAR003", "DET001"}),
                            ("par003_partial_bad", {"PAR003", "DET001"}),
                            ("par004_bad", {"PAR004", "RNG001"}),
                            ("par005_bad", {"PAR005"})]:
            assert codes_under(FIXTURES / name) == codes, name


class TestSuppression:
    def test_line_directive_silences_one_line_only(self):
        findings = [f for f in lint_file(FIXTURES / "suppressed.py")
                    if f.code == "UNITS002"]
        assert len(findings) == 1  # only the undirected line fires

    def test_file_directive_silences_the_whole_file(self):
        assert "DET001" not in codes_in(FIXTURES / "suppressed.py")

    def test_unused_directive_is_reported(self, tmp_path):
        target = tmp_path / "dead.py"
        target.write_text("X = 5  # reprolint: disable=DET001\n")
        findings = lint_file(target)
        assert [f.code for f in findings] == ["SUP001"]
        assert "DET001" in findings[0].message

    def test_used_directive_is_not_reported(self):
        """suppressed.py's directives all fire; no SUP001 noise."""
        assert "SUP001" not in codes_in(FIXTURES / "suppressed.py")

    def test_unused_reporting_respects_selection(self, tmp_path):
        """--select RNG001 must not call a DET001 suppression dead."""
        target = tmp_path / "dead.py"
        target.write_text("X = 5  # reprolint: disable=DET001\n")
        assert codes_in(target, select=["RNG001"]) == set()

    def test_parse_errors_are_unsuppressable(self, tmp_path):
        target = tmp_path / "broken.py"
        target.write_text("# reprolint: disable-file=all\ndef broken(:\n")
        assert codes_in(target) == {"PARSE001"}

    def test_par_findings_are_suppressable(self, tmp_path):
        """Project-scope findings honour line directives like any other."""
        bad = tmp_path / "pkg"
        shutil.copytree(FIXTURES / "par004_bad", bad)
        noise = bad / "noise.py"
        text = noise.read_text()
        noise.write_text(text.replace(
            "np.random.default_rng()",
            "np.random.default_rng()  # reprolint: disable=PAR004,RNG001"))
        assert codes_under(bad, select=["PAR004"]) == set()


class TestBaseline:
    def _findings(self, path: Path):
        return lint_file(path)

    def test_round_trip_accepts_everything(self, tmp_path):
        findings = self._findings(FIXTURES / "exc001_bad.py")
        assert findings
        baseline = tmp_path / "base.json"
        count = write_baseline(baseline, findings)
        assert count == len(findings)
        assert apply_baseline(findings, load_baseline(baseline)) == []

    def test_new_findings_survive_the_baseline(self, tmp_path):
        baseline = tmp_path / "base.json"
        write_baseline(baseline, self._findings(FIXTURES / "exc001_bad.py"))
        fresh = self._findings(FIXTURES / "det001_bad.py")
        assert apply_baseline(fresh, load_baseline(baseline)) == fresh

    def test_fingerprints_survive_line_shifts(self, tmp_path):
        """Inserting unrelated lines above keeps findings baselined."""
        moved = tmp_path / "moved.py"
        moved.write_text((FIXTURES / "exc001_bad.py").read_text())
        baseline = tmp_path / "base.json"
        write_baseline(baseline, self._findings(moved))
        moved.write_text("# one new comment line\n# and another\n"
                         + moved.read_text())
        shifted = self._findings(moved)
        assert shifted  # still found, two lines lower...
        assert apply_baseline(shifted, load_baseline(baseline)) == []

    def test_malformed_baseline_raises(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"version": 99}')
        with pytest.raises(ValueError):
            load_baseline(bad)

    def test_cli_write_then_apply(self, tmp_path, capsys):
        baseline = tmp_path / "base.json"
        bad = str(FIXTURES / "exc001_bad.py")
        assert reprolint_main([bad, "--write-baseline",
                               "--baseline", str(baseline)]) == 0
        capsys.readouterr()
        assert reprolint_main([bad, "--baseline", str(baseline)]) == 0
        assert reprolint_main([str(FIXTURES / "det001_bad.py"),
                               "--baseline", str(baseline)]) == 1

    def test_cli_corrupt_baseline_exits_two(self, tmp_path, capsys):
        baseline = tmp_path / "base.json"
        baseline.write_text("not json")
        code = reprolint_main([str(FIXTURES / "exc001_bad.py"),
                               "--baseline", str(baseline)])
        assert code == 2
        assert "baseline" in capsys.readouterr().err


class TestSarif:
    def test_log_shape_and_rule_catalogue(self):
        findings = lint_file(FIXTURES / "exc001_bad.py")
        log = to_sarif(findings, "2.0.0")
        assert log["version"] == SARIF_VERSION == "2.1.0"
        run = log["runs"][0]
        driver = run["tool"]["driver"]
        assert driver["name"] == "reprolint"
        rule_ids = {r["id"] for r in driver["rules"]}
        assert {"PAR001", "PAR002", "PAR003", "PAR004", "PAR005",
                "SUP001", "PARSE001"} <= rule_ids
        assert {r["ruleId"] for r in run["results"]} == {"EXC001"}

    def test_columns_are_one_based(self):
        findings = lint_file(FIXTURES / "exc001_bad.py")
        log = to_sarif(findings, "2.0.0")
        for result in log["runs"][0]["results"]:
            region = result["locations"][0]["physicalLocation"]["region"]
            assert region["startLine"] >= 1
            assert region["startColumn"] >= 1

    def test_cli_sarif_round_trips(self, capsys):
        reprolint_main([str(FIXTURES / "exc001_bad.py"),
                        "--format", "sarif"])
        payload = json.loads(capsys.readouterr().out)
        assert payload["$schema"].endswith("sarif-schema-2.1.0.json")
        assert payload["runs"][0]["results"]


class TestChangedOnly:
    def _git(self, cwd: Path, *args: str) -> None:
        subprocess.run(["git", "-c", "user.email=t@t", "-c", "user.name=t",
                        *args], cwd=cwd, check=True, capture_output=True)

    def test_reports_only_changed_files(self, tmp_path):
        repo = tmp_path / "r"
        repo.mkdir()
        bad = (FIXTURES / "exc001_bad.py").read_text()
        (repo / "stale.py").write_text(bad)
        (repo / "touched.py").write_text(bad)
        self._git(repo, "init", "-q")
        self._git(repo, "add", ".")
        self._git(repo, "commit", "-qm", "seed")
        (repo / "touched.py").write_text(bad + "\n# touched\n")
        result = subprocess.run(
            [sys.executable, str(TOOLS_DIR / "reprolint"), ".",
             "--changed-only", "--format", "json"],
            cwd=repo, capture_output=True, text=True, timeout=60)
        assert result.returncode == 1, result.stderr
        paths = {item["path"] for item in json.loads(result.stdout)}
        assert {Path(p).name for p in paths} == {"touched.py"}

    def test_outside_git_exits_two(self, tmp_path):
        (tmp_path / "a.py").write_text("X = 1\n")
        result = subprocess.run(
            [sys.executable, str(TOOLS_DIR / "reprolint"), "a.py",
             "--changed-only"],
            cwd=tmp_path, capture_output=True, text=True, timeout=60,
            env={"PATH": "/usr/bin:/bin", "HOME": str(tmp_path),
                 "GIT_CEILING_DIRECTORIES": str(tmp_path.parent)})
        assert result.returncode == 2
        assert "git" in result.stderr


class TestCliContract:
    def test_fixture_corpus_exits_nonzero(self, capsys):
        assert reprolint_main([str(FIXTURES)]) == 1
        assert "findings" in capsys.readouterr().out

    def test_clean_tree_exits_zero(self, capsys):
        clean = FIXTURES / "api001_ok"
        assert reprolint_main([str(clean)]) == 0
        assert capsys.readouterr().out == ""

    def test_repo_src_is_clean(self):
        findings = lint_paths([REPO_ROOT / "src"])
        assert findings == [], "\n".join(f.render() for f in findings)

    def test_reprolint_tool_is_clean(self):
        """The linter dogfoods its own full pack (fixtures excluded)."""
        files = [p for p in sorted((TOOLS_DIR / "reprolint").rglob("*.py"))
                 if "fixtures" not in p.parts
                 and "__pycache__" not in p.parts]
        findings = lint_paths(files)
        assert findings == [], "\n".join(f.render() for f in findings)

    def test_src_graph_sees_the_campaign_entry_points(self):
        """Every campaign's trial function is a worker entry, though
        each reaches ``Campaign`` through a local ``partial``."""
        graph = ProjectGraph([analyze_file(path) for path
                              in collect_files([REPO_ROOT / "src"])])
        entries = {graph.fn_display(entry.fn) for entry in graph.entries}
        assert entries == {
            "repro.admission.saturation.saturation_trial",
            "repro.energy.compare.compare_trial",
            "repro.energy.outage.outage_trial",
            "repro.engine.supervisor._execute_attempt",
            "repro.experiments.fig10_snr_map.grid_cell_trial",
            "repro.experiments.fig11_ber_cdf.placement_trial",
            "repro.experiments.fig13_multinode.network_trial",
        }
        assert len(graph.reachable) > len(entries)

    def test_json_output_round_trips(self, capsys):
        reprolint_main([str(FIXTURES / "exc001_bad.py"),
                        "--format", "json"])
        payload = json.loads(capsys.readouterr().out)
        assert all({"code", "message", "path", "line", "col"} <= set(item)
                   for item in payload)
        assert {item["code"] for item in payload} == {"EXC001"}

    def test_usage_error_exits_two(self, capsys):
        assert reprolint_main([str(FIXTURES),
                               "--select", "NOPE999"]) == 2
        assert "error" in capsys.readouterr().err

    def test_list_rules(self, capsys):
        assert reprolint_main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for code in ("UNITS001", "UNITS002", "RNG001", "DET001",
                     "API001", "EXC001", "DUR001", "PAR001", "PAR002",
                     "PAR003", "PAR004", "PAR005"):
            assert code in out
        assert "[project]" in out and "[file]" in out

    def test_statistics_go_to_stderr(self, capsys):
        reprolint_main([str(FIXTURES / "api001_ok"), "--statistics"])
        err = capsys.readouterr().err
        assert "files=" in err and "worker_entries=" in err

    def test_directory_invocation_via_subprocess(self):
        """`python tools/reprolint <clean dir>` is the documented entry."""
        result = subprocess.run(
            [sys.executable, str(TOOLS_DIR / "reprolint"),
             str(FIXTURES / "api001_ok")],
            capture_output=True, text=True, cwd=REPO_ROOT, timeout=60)
        assert result.returncode == 0, result.stdout + result.stderr


class TestAnalyzerFuzz:
    """Property tests: the analyzer never crashes or mis-attributes."""

    _STATEMENTS = st.sampled_from([
        "import os",
        "import time",
        "from functools import partial",
        "STATE = {}",
        "TOTALS = []",
        "X_MS = 3",
        "def f(a):\n    return a",
        "def g(b):\n    STATE['k'] = b\n    return f(b)",
        "def h():\n    return time.time()",
        "def top():\n    def inner(v):\n        return v\n    return inner",
        "cb = lambda v: v + 1",
        "class C:\n    def m(self):\n        return self.m",
        "def drive(pool, shards):\n    pool.run_shards(g, shards)",
        "def drive2(pool):\n    pool.submit(lambda s: s)",
        "try:\n    import json\nexcept ImportError:\n    json = None",
        "from . import sibling",
        "print(os.environ.get('K'))",
    ])

    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(statements=st.lists(_STATEMENTS, min_size=0, max_size=12))
    def test_never_crashes_on_valid_modules(self, tmp_path, statements):
        target = tmp_path / "gen.py"
        source = "\n".join(statements) + "\n"
        target.write_text(source)
        findings = lint_file(target)  # must not raise
        lines = source.count("\n") + 1
        for finding in findings:
            assert finding.path == str(target)
            assert 1 <= finding.line <= lines

    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(blob=st.text(max_size=200))
    def test_arbitrary_text_parses_or_reports_parse001(self, tmp_path, blob):
        target = tmp_path / "blob.py"
        target.write_text(blob, encoding="utf-8")
        findings = lint_file(target)  # must not raise
        codes = {f.code for f in findings}
        if "PARSE001" in codes:
            assert codes == {"PARSE001"}
