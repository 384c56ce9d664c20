"""Lint-runtime gate: the static pass must stay cheap enough to run
on every push.

Two budgets, measured over the real ``src/`` tree with the real rule
pack (file-scope rules + the PAR0xx project graph), each run analysing
every file in process:

* **first run** — loading the rule pack included: < 10 s;
* **second run** — the same pass again: < 2 s.

Both runs must report byte-identical findings.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC = REPO_ROOT / "src"

sys.path.insert(0, str(REPO_ROOT / "tools"))

from reprolint import run_lint  # noqa: E402

COLD_BUDGET_S = 10.0
WARM_BUDGET_S = 2.0


def test_lint_runtime_budgets():
    start = time.perf_counter()
    cold = run_lint([SRC])
    cold_s = time.perf_counter() - start

    start = time.perf_counter()
    warm = run_lint([SRC])
    warm_s = time.perf_counter() - start

    assert cold_s < COLD_BUDGET_S, \
        f"cold lint took {cold_s:.2f}s (budget {COLD_BUDGET_S}s)"
    assert warm_s < WARM_BUDGET_S, \
        f"warm lint took {warm_s:.2f}s (budget {WARM_BUDGET_S}s)"

    assert warm.findings == cold.findings
