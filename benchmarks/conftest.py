"""Shared helpers for the reproduction benchmarks.

Every benchmark regenerates one table/figure of the paper, asserts the
published *shape* (who wins, by roughly what factor, where crossovers
fall) and prints the rendered text table so ``pytest benchmarks/
--benchmark-only -s`` reproduces the paper's evaluation section on the
terminal.  Rendered outputs are also written to ``benchmarks/output/``,
which is checked in, except the reports whose bytes depend on the run:
those go to the git-ignored ``benchmarks/artifacts/``.
"""

from __future__ import annotations

import pathlib
import statistics
import time
from collections.abc import Callable, Sequence

OUTPUT_DIR = pathlib.Path(__file__).parent / "output"
"""Checked-in reports: the same bytes on every run, so CI diffs them."""

ARTIFACT_DIR = pathlib.Path(__file__).parent / "artifacts"
"""Git-ignored reports whose bytes depend on the run (wall-clock
timings, temporary paths, completion order); CI uploads them."""

RUN_SPECIFIC = frozenset({
    "admission_scale",              # wall-clock timings
    "engine_durability_overhead",   # wall-clock timings
    "engine_fsck",                  # size of a report holding tmp paths
    "engine_scaling",               # wall-clock timings
    "telemetry_overhead",           # wall-clock timings
})
"""Reports :func:`record` writes to :data:`ARTIFACT_DIR`."""


def record(name: str, text: str) -> None:
    """Print a rendered experiment and persist it for EXPERIMENTS.md."""
    directory = ARTIFACT_DIR if name in RUN_SPECIFIC else OUTPUT_DIR
    directory.mkdir(exist_ok=True)
    (directory / f"{name}.txt").write_text(text + "\n")
    print(f"\n===== {name} =====\n{text}\n")


def interleaved_times(runs: Sequence[Callable[[], object]],
                      rounds: int) -> list[list[float]]:
    """Wall seconds of every run in every round, one list per run.

    Each round calls every run once, forwards on even rounds and
    backwards on odd ones, so a drift in host speed, or a cache warmed
    by the run before, lands on every run alike.  Samples of one round
    were taken side by side: compare them as pairs
    (:func:`median_ratio`), not as separate distributions.
    """
    times: list[list[float]] = [[] for _ in runs]
    order = list(range(len(runs)))
    for round_index in range(rounds):
        for index in order if round_index % 2 == 0 else order[::-1]:
            start = time.perf_counter()
            runs[index]()
            times[index].append(time.perf_counter() - start)
    return times


def median_ratio(times: Sequence[float],
                 baseline: Sequence[float]) -> float:
    """Median over rounds of ``times[r] / baseline[r]``: the paired
    estimate of how much slower ``times`` ran (1.0 = no difference)."""
    return statistics.median(t / b for t, b in zip(times, baseline))
