"""BENCHMARK.json agrees with what run.py emits, within the limits."""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path
from typing import Any

import pytest

import run
from layers import per_layer_metric_names
from tracer import TraceSummary

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def test_shape_and_limits() -> None:
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert 2 <= len(SPEC["workloads"]) <= 8
    assert 1 <= len(SPEC["end_to_end"]) <= 16
    assert 1 <= len(SPEC["per_layer"]) <= 128
    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer")
             for m in SPEC[key]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name), name
    for workload in SPEC["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    for m in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert UNIT.fullmatch(m["unit"]) and m["better"] in ("higher",
                                                             "lower")
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert SPEC["paths"] == ["bench"]
    assert SPEC["command"][1] == "bench/run.py"


def test_workloads_match_the_registry() -> None:
    pytest.importorskip("repro")
    from workloads import WORKLOADS

    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


def _record(trace: bool) -> dict[str, Any]:
    info = {"unit": "trials", "units": 10, "verified": True,
            "attempted": 20, "failed": 0, "peak_rss_mb": 100.0,
            "traced": 1, "summary": vars(TraceSummary(wall_s=1.0))}
    measured = run.Measured(
        samples=[{"elapsed_s": 1.0, "units": 10, "failed": 0}] * 2,
        probes=[{"setup_s": 1.5, "import_s": 1.2, "first_unit_s": 0.3}] * 3)
    return run.workload_record(run.load_spec(), info, measured, trace)


def test_emitted_metric_names_match() -> None:
    record = _record(trace=True)
    assert list(record["metrics"]) == [m["name"] for m in SPEC["end_to_end"]]
    assert list(record["layers"]) == [m["name"] for m in SPEC["per_layer"]]
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == \
        per_layer_metric_names()
    assert record["noisy"] is False
    assert record["layers"]["trace.overhead_ratio"] == pytest.approx(1.0)


def test_fails_without_the_program(tmp_path: Path) -> None:
    """In a directory holding only BENCHMARK.json and bench/, the run
    exits non-zero and prints no result."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "chaos_sweep",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""
