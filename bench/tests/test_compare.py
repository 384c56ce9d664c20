"""compare.py verdicts on synthetic result files."""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any

import compare


def metric(samples: list[float], better: str = "higher",
           bound: float = 0.1) -> dict[str, Any]:
    ordered = sorted(samples)
    n = len(ordered)
    return {"median": ordered[n // 2], "q1": ordered[n // 4],
            "q3": ordered[(3 * n) // 4], "n": n, "unit": "1/s",
            "better": better, "bound": bound, "samples": samples}


def result(metrics: dict[str, dict[str, Any]], failed: int = 0
           ) -> dict[str, Any]:
    return {"header": {}, "workloads": {"w": {
        "attempted": 100, "failed": failed, "metrics": metrics}}}


def test_verdicts() -> None:
    steady = [99.0, 100.0, 100.0, 101.0, 100.0]
    assert compare.verdict(metric(steady), metric(steady))[1] == "unchanged"
    assert compare.verdict(metric(steady),
                           metric([x * 0.8 for x in steady]))[1] == "worse"
    assert compare.verdict(metric(steady),
                           metric([x * 1.3 for x in steady]))[1] == "better"
    # Lower-is-better flips the direction.
    assert compare.verdict(metric(steady, "lower"),
                           metric([x * 0.8 for x in steady], "lower")
                           )[1] == "better"


def test_wide_spread_is_unresolved_unless_every_b_wins() -> None:
    wide = [70.0, 90.0, 100.0, 110.0, 130.0]
    assert compare.verdict(metric(wide),
                           metric([x * 0.7 for x in wide]))[1] == "unresolved"
    assert compare.verdict(metric(wide),
                           metric([x * 2.0 for x in wide]))[1] == "better"
    steady = [99.0, 100.0, 100.0, 101.0, 100.0]
    assert compare.verdict(metric(steady), metric(wide))[1] == "unresolved"


def test_single_sample_metrics_compare_on_the_bound() -> None:
    rss = metric([100.0], "lower", 0.05)
    assert compare.verdict(rss, metric([104.0], "lower", 0.05))[1] == \
        "unchanged"
    assert compare.verdict(rss, metric([106.0], "lower", 0.05))[1] == \
        "worse"


def test_failed_fraction_rise_is_worse(tmp_path: Path, capsys: Any) -> None:
    steady = metric([99.0, 100.0, 101.0])
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    a.write_text(json.dumps(result({"units_per_s": steady})))
    b.write_text(json.dumps(result({"units_per_s": steady}, failed=1)))
    rows = {row["metric"]: row["verdict"]
            for row in compare.compare(json.loads(a.read_text()),
                                       json.loads(b.read_text()))}
    assert rows == {"units_per_s": "unchanged", "failed_fraction": "worse"}
    assert compare.main([str(a), str(b)]) == 1
    assert compare.main([str(a), str(a)]) == 0
    assert "failed_fraction" in capsys.readouterr().out
