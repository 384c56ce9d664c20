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
