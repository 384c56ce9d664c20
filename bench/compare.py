"""Compare two benchmark result files, one row per (workload, metric).

    python3 bench/compare.py A.json B.json

A is the baseline (the parent commit), B the change.  Verdicts:

* ``unresolved`` — the relative IQR of either side is wider than the
  metric's bound, unless every B repeat beats every A repeat (then
  ``better``);
* ``worse`` / ``better`` — otherwise, B's median is worse / better
  than A's by more than the bound;
* ``unchanged`` — otherwise.

``failed_fraction`` (failed / attempted units) has an absolute bound of
0: any rise is ``worse``.  Exits 1 on any ``worse`` row, else 0.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Any

__all__ = ["compare", "main", "verdict"]


def _rel_iqr(metric: dict[str, Any]) -> float:
    return (metric["q3"] - metric["q1"]) / metric["median"]


def verdict(a: dict[str, Any], b: dict[str, Any]) -> tuple[float, str]:
    """(signed relative change, verdict) of metric ``b`` against ``a``.

    The change is positive when B is better.
    """
    sign = 1.0 if a["better"] == "higher" else -1.0
    change = sign * (b["median"] - a["median"]) / a["median"]
    bound = a["bound"]
    if _rel_iqr(a) > bound or _rel_iqr(b) > bound:
        every_b_wins = (min(sign * x for x in b["samples"])
                        > max(sign * x for x in a["samples"]))
        return change, "better" if every_b_wins else "unresolved"
    if change < -bound:
        return change, "worse"
    if change > bound:
        return change, "better"
    return change, "unchanged"


def _failed_fraction(record: dict[str, Any]) -> float:
    return record["failed"] / record["attempted"]


def compare(a: dict[str, Any], b: dict[str, Any]) -> list[dict[str, Any]]:
    """Rows for every workload and metric present in both files."""
    rows = []
    for name, rec_a in a["workloads"].items():
        rec_b = b["workloads"].get(name)
        if rec_b is None:
            continue
        for metric, m_a in rec_a["metrics"].items():
            m_b = rec_b["metrics"].get(metric)
            if m_b is None:
                continue
            change, label = verdict(m_a, m_b)
            rows.append({"workload": name, "metric": metric,
                         "a": m_a["median"], "b": m_b["median"],
                         "change": change, "bound": m_a["bound"],
                         "verdict": label})
        fa, fb = _failed_fraction(rec_a), _failed_fraction(rec_b)
        rows.append({"workload": name, "metric": "failed_fraction",
                     "a": fa, "b": fb, "change": fa - fb, "bound": 0.0,
                     "verdict": ("worse" if fb > fa else
                                 "better" if fb < fa else "unchanged")})
    return rows


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("a", type=Path, help="baseline result JSON")
    parser.add_argument("b", type=Path, help="changed result JSON")
    args = parser.parse_args(argv)
    rows = compare(json.loads(args.a.read_text()),
                   json.loads(args.b.read_text()))
    print(f"{'workload':<20} {'metric':<16} {'A':>12} {'B':>12} "
          f"{'change':>8} {'bound':>6}  verdict")
    for row in rows:
        print(f"{row['workload']:<20} {row['metric']:<16} {row['a']:>12.5g} "
              f"{row['b']:>12.5g} {row['change']:>+8.1%} {row['bound']:>6.0%}"
              f"  {row['verdict']}")
    return 1 if any(row["verdict"] == "worse" for row in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
