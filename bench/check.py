"""Output checks against the checked-in reference values.

``bench/reference/seed<N>.json`` holds every workload's items for seed
N as produced at the commit that wrote it.  Floats must agree to
``math.isclose(rel_tol=1e-9)``; ints, strings, bools, ``None`` and
non-finite floats must match exactly, type included.  A seed with no
reference file is checked against the run's own untimed warm-up repeat
instead and reported ``"verified": false``.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import Any

__all__ = ["REFERENCE_DIR", "REL_TOL", "failed_units", "load_reference",
           "normalise", "same", "write_reference"]

REL_TOL = 1e-9
REFERENCE_DIR = Path(__file__).resolve().parent / "reference"


def normalise(items: list[tuple[int, Any]]) -> list[tuple[int, Any]]:
    """Items as they read back from JSON (tuples become lists, ...)."""
    return [(int(units), json.loads(json.dumps(value)))
            for units, value in items]


def same(actual: Any, expected: Any) -> bool:
    """Whether ``actual`` matches ``expected`` under the tolerance rule."""
    if isinstance(expected, float) or isinstance(actual, float):
        if type(actual) is not float or type(expected) is not float:
            return False
        if not (math.isfinite(actual) and math.isfinite(expected)):
            return (actual == expected
                    or (math.isnan(actual) and math.isnan(expected)))
        return math.isclose(actual, expected, rel_tol=REL_TOL)
    if isinstance(expected, dict):
        return (isinstance(actual, dict) and actual.keys() == expected.keys()
                and all(same(actual[k], expected[k]) for k in expected))
    if isinstance(expected, list):
        return (isinstance(actual, list) and len(actual) == len(expected)
                and all(same(a, e) for a, e in zip(actual, expected)))
    return type(actual) is type(expected) and actual == expected


def failed_units(items: list[tuple[int, Any]],
                 expected: list[tuple[int, Any]]) -> int:
    """Work units whose item differs from the expected one.

    Units are counted from ``expected``, so a repeat that returns the
    wrong number of items fails every unit.
    """
    if len(items) != len(expected):
        return sum(units for units, _ in expected)
    return sum(units for (_, value), (units, want) in zip(items, expected)
               if not same(value, want))


def _path(seed: int) -> Path:
    return REFERENCE_DIR / f"seed{seed}.json"


def load_reference(seed: int, workload: str
                   ) -> list[tuple[int, Any]] | None:
    """The reference items of one workload, or ``None`` if unverified."""
    path = _path(seed)
    if not path.is_file():
        return None
    items = json.loads(path.read_text())["workloads"][workload]
    return [(int(item["units"]), item["value"]) for item in items]


def write_reference(seed: int,
                    workloads: dict[str, list[tuple[int, Any]]]) -> Path:
    """Write the reference file for ``seed``."""
    path = _path(seed)
    path.parent.mkdir(exist_ok=True)
    document = {"seed": seed, "rel_tol": REL_TOL, "workloads": {
        name: [{"units": units, "value": value} for units, value in items]
        for name, items in workloads.items()}}
    path.write_text(json.dumps(document, indent=1, sort_keys=True) + "\n")
    return path
