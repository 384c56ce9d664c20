"""The reference checker."""

from __future__ import annotations

import math
from pathlib import Path

import pytest

import check

ITEMS = [(1, {"ber": 1e-12, "ok": True}), (1, {"ber": 0.25, "ok": True}),
         (300, {"gain": 0.1, "actions": {"rate": 3}, "note": None,
                "snr": [21.5, float("inf")]})]


def test_identical_items_pass() -> None:
    assert check.failed_units(check.normalise(ITEMS),
                              check.normalise(ITEMS)) == 0


def test_relative_perturbation_fails_its_units() -> None:
    perturbed = check.normalise(ITEMS)
    perturbed[2][1]["gain"] *= 1 + 1e-6
    assert check.failed_units(perturbed, check.normalise(ITEMS)) == 300
    perturbed = check.normalise(ITEMS)
    perturbed[0][1]["ber"] *= 1 + 1e-6
    assert check.failed_units(perturbed, check.normalise(ITEMS)) == 1


def test_float_noise_below_tolerance_passes() -> None:
    assert check.same(0.25 * (1 + 1e-12), 0.25)


@pytest.mark.parametrize("actual, expected", [
    (3, 3.0), (True, 1), (1, True), ("a", "b"), (None, 0.0),
    (float("nan"), 1.0), (float("inf"), 1e308), (float("-inf"), math.inf),
    ([1.0], [1.0, 2.0]), ({"a": 1}, {"a": 1, "b": 2}),
])
def test_exact_kinds_must_match(actual: object, expected: object) -> None:
    assert not check.same(actual, expected)


def test_non_finite_match_exactly() -> None:
    assert check.same(float("nan"), float("nan"))
    assert check.same(float("inf"), float("inf"))


def test_wrong_item_count_fails_everything() -> None:
    expected = check.normalise(ITEMS)
    assert check.failed_units(expected[:2], expected) == 302


def test_reference_round_trip(tmp_path: Path,
                              monkeypatch: pytest.MonkeyPatch) -> None:
    monkeypatch.setattr(check, "REFERENCE_DIR", tmp_path)
    check.write_reference(7, {"w": check.normalise(ITEMS)})
    loaded = check.load_reference(7, "w")
    assert loaded is not None
    assert check.failed_units(check.normalise(ITEMS), loaded) == 0
    assert check.load_reference(8, "w") is None


def test_checked_in_references_cover_every_workload() -> None:
    import json

    names = [w["name"] for w in json.loads(
        (check.REFERENCE_DIR.parent.parent / "BENCHMARK.json").read_text()
    )["workloads"]]
    for seed in (0, 1):
        for name in names:
            items = check.load_reference(seed, name)
            assert items, (seed, name)
