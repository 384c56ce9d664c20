"""The outside-in tracer on a toy package."""

from __future__ import annotations

import sys
import time
import types

import pytest

from tracer import Target, Tracer

PKG = "toybench"


def _spin(seconds: float) -> None:
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        pass


@pytest.fixture()
def toy(monkeypatch: pytest.MonkeyPatch) -> types.SimpleNamespace:
    """``toybench`` with nested functions, a class, a generator and an
    alias module that imported ``inner`` by name."""
    pkg = types.ModuleType(PKG)
    alias = types.ModuleType(f"{PKG}.alias")

    def inner() -> int:
        _spin(0.02)
        return 3

    def outer() -> int:
        _spin(0.03)
        return pkg.inner() + alias.inner()

    def items():
        for i in range(3):
            _spin(0.01)
            yield i

    class Box:
        def __init__(self) -> None:
            self.size = 2

        def paths(self) -> list[int]:
            return list(range(self.size))

        @property
        def area(self) -> int:
            return self.size * self.size

    pkg.inner, pkg.outer, pkg.items, pkg.Box = inner, outer, items, Box
    alias.inner = inner
    Box.__module__ = PKG
    monkeypatch.setitem(sys.modules, PKG, pkg)
    monkeypatch.setitem(sys.modules, f"{PKG}.alias", alias)
    return types.SimpleNamespace(pkg=pkg, alias=alias, inner=inner,
                                 outer=outer, items=items, Box=Box)


def test_self_time_excludes_children(toy: types.SimpleNamespace) -> None:
    tracer = Tracer([Target(f"{PKG}:outer", "top"),
                     Target(f"{PKG}:inner", "low")], package=PKG)
    with tracer:
        assert toy.pkg.outer() == 6
    summary = tracer.aggregate()
    assert summary.calls == {f"{PKG}:outer": 1, f"{PKG}:inner": 2}
    assert summary.layer_self_s["top"] == pytest.approx(0.03, abs=0.01)
    assert summary.layer_self_s["low"] == pytest.approx(0.04, abs=0.01)
    assert summary.total_s[f"{PKG}:outer"] == pytest.approx(0.07, abs=0.015)
    assert set(summary.collapsed) == {"top:outer", "top:outer;low:inner"}
    assert summary.wall_s >= summary.total_s[f"{PKG}:outer"]


def test_generator_is_timed_per_next(toy: types.SimpleNamespace) -> None:
    tracer = Tracer([Target(f"{PKG}:items", "gen")], package=PKG)
    with tracer:
        got = []
        for item in toy.pkg.items():
            _spin(0.02)  # the consumer's time must not count
            got.append(item)
    assert got == [0, 1, 2]
    summary = tracer.aggregate()
    # Three items plus the final, exhausting next().
    assert summary.calls[f"{PKG}:items"] == 4
    assert summary.layer_self_s["gen"] == pytest.approx(0.03, abs=0.01)


def test_missing_target_is_reported_not_fatal(
        toy: types.SimpleNamespace) -> None:
    tracer = Tracer([Target(f"{PKG}:gone", "x"),
                     Target(f"{PKG}.nomodule:f", "x"),
                     Target(f"{PKG}:Box.gone", "x"),
                     Target(f"{PKG}:inner", "low")], package=PKG)
    with tracer:
        toy.pkg.inner()
    summary = tracer.aggregate()
    assert summary.missing == [f"{PKG}:gone", f"{PKG}.nomodule:f",
                               f"{PKG}:Box.gone"]
    assert summary.calls == {f"{PKG}:inner": 1}


def test_originals_restored_and_aliases_traced(
        toy: types.SimpleNamespace) -> None:
    paths = toy.Box.__dict__["paths"]
    area = toy.Box.__dict__["area"]
    tracer = Tracer([Target(f"{PKG}:inner", "low"),
                     Target(f"{PKG}:Box.paths", "box", count=len),
                     Target(f"{PKG}:Box.area", "box")], package=PKG)
    with tracer:
        assert toy.alias.inner is not toy.inner
        toy.alias.inner()
        box = toy.Box()
        assert box.paths() == [0, 1] and box.area == 4
    assert toy.pkg.inner is toy.inner and toy.alias.inner is toy.inner
    assert toy.Box.__dict__["paths"] is paths
    assert toy.Box.__dict__["area"] is area
    summary = tracer.aggregate()
    assert summary.calls[f"{PKG}:inner"] == 1
    assert summary.layer_calls["box"] == 2
    assert summary.counted[f"{PKG}:Box.paths"] == 2


def test_originals_restored_after_exception(
        toy: types.SimpleNamespace) -> None:
    tracer = Tracer([Target(f"{PKG}:inner", "low")], package=PKG)
    with pytest.raises(RuntimeError), tracer:
        toy.pkg.inner()
        raise RuntimeError
    assert toy.pkg.inner is toy.inner
    assert tracer.aggregate().calls == {f"{PKG}:inner": 1}


def test_boundary_starts_a_unit_and_is_unattributed(
        toy: types.SimpleNamespace) -> None:
    tracer = Tracer([Target(f"{PKG}:outer", None),
                     Target(f"{PKG}:inner", "low")], package=PKG)
    with tracer:
        toy.pkg.outer()
        toy.pkg.outer()
    units = [unit for _, _, unit, _, _ in tracer.spans]
    assert units == [1, 1, 1, 2, 2, 2]
    summary = tracer.aggregate()
    assert summary.units == 2
    assert set(summary.layer_self_s) == {"low"}
    assert "trial:outer;low:inner" in summary.collapsed
