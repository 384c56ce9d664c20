"""reprolint — a project-graph domain linter for the mmX reproduction.

Generic linters check style; *reprolint* checks the invariants this
codebase's correctness actually hangs on:

* dB and linear power must never be mixed in arithmetic (``UNITS001``)
  and every conversion must go through :mod:`repro.units` (``UNITS002``);
* every random draw must be attributable to a seed (``RNG001``) and no
  simulation path may consult wall-clock time or the stdlib ``random``
  module (``DET001``);
* package façades must export exactly what exists (``API001``);
* exception handlers must not swallow injected faults (``EXC001``);
* persistent artifacts must go through the durability seam (``DUR001``);
* nothing reachable from a campaign worker may touch shared globals,
  wall clocks, the environment, unseeded RNG or raw write-mode I/O,
  and nothing unpicklable may cross the process boundary
  (``PAR001``-``PAR005`` — the parallel-safety race detector).

v2 analyses the *whole project* at once: per-file AST summaries are
cached by content hash (``.reprolint-cache/``), extracted in parallel,
and assembled into a symbol/import/call graph that the interprocedural
rules traverse.

Usage::

    python tools/reprolint [paths...] [--format human|json|sarif]
        [--changed-only]

Per-line suppression (dead directives are reported as ``SUP001``)::

    noise = legacy_noise_db + power_watts  # reprolint: disable=CODE

Whole-file suppression (anywhere in the file)::

    # reprolint: disable-file=CODE

Pre-existing debt can be parked in a baseline
(``--write-baseline`` / ``--baseline``) so new findings still gate.

See ``docs/static-analysis.md`` for the rule catalogue and how to add a
rule.
"""

from .core import Finding, LintRun, lint_file, lint_paths, run_lint
from .registry import all_rules, get_rule, register

__version__ = "2.0.0"

__all__ = [
    "Finding",
    "LintRun",
    "lint_file",
    "lint_paths",
    "run_lint",
    "all_rules",
    "get_rule",
    "register",
    "__version__",
]
