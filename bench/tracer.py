"""Layer tracing from outside the program.

A :class:`Tracer` wraps named public functions of ``repro`` with timing
shims for the duration of a ``with`` block.  It finds every reference
to each target *by identity* in the namespaces of loaded ``repro.*``
modules and in the ``__dict__`` of their classes, so ``from .raytrace
import trace_paths``-style aliases are caught too; on exit every
original is put back.  References held elsewhere (inside a
``functools.partial``, a closure or a registry dict) are not seen, and
a target that no longer exists is reported missing instead of failing
the run.

Spans form a stack.  A span's self time is its duration minus the
durations of the spans opened directly inside it.  Spans of one work
unit (one call of a boundary target, see :class:`Target`) share a unit
id.  Spans live in memory while the block runs and are reduced by
:meth:`Tracer.aggregate` into per-layer counts, self times and
collapsed stacks afterwards.

Generator functions are timed per ``next()``: the time the consumer
spends between items is not charged to the generator.  A process
forked while tracing runs the originals (its spans would be lost), so
only the tracing process pays the shim cost.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import sys
import time
from collections.abc import Callable, Iterable
from dataclasses import dataclass, field
from typing import Any

__all__ = ["Target", "Tracer", "TraceSummary"]


@dataclass(frozen=True)
class Target:
    """One traced callable, ``"module:Qual.name"``, and its layer.

    ``layer=None`` marks a *boundary*: a workload's trial function.  Its
    span keeps the engine from being charged for trial bodies and starts
    a new work-unit id for the spans inside it; its own self time counts
    as unattributed.  ``count`` maps a call's return value to a number
    summed per target (e.g. paths returned per trace).
    """

    path: str
    layer: str | None
    count: Callable[[Any], float] | None = None

    @property
    def name(self) -> str:
        return self.path.split(":", 1)[1]


@dataclass
class TraceSummary:
    """Per-target and per-layer reductions of one or more traced runs."""

    wall_s: float = 0.0
    calls: dict[str, int] = field(default_factory=dict)
    total_s: dict[str, float] = field(default_factory=dict)
    counted: dict[str, float] = field(default_factory=dict)
    layer_calls: dict[str, int] = field(default_factory=dict)
    layer_self_s: dict[str, float] = field(default_factory=dict)
    collapsed: dict[str, float] = field(default_factory=dict)
    units: int = 0
    missing: list[str] = field(default_factory=list)


def _add(table: dict[str, Any], key: str, value: Any) -> None:
    table[key] = table.get(key, 0) + value


class Tracer:
    """Patch targets on enter, restore on exit, keep spans in memory."""

    def __init__(self, targets: Iterable[Target],
                 package: str = "repro") -> None:
        self.targets = list(targets)
        self.package = package
        self.missing: list[str] = []
        # Span record: [target index, parent span, unit id, start, end].
        self.spans: list[list[Any]] = []
        self.counted = [0.0] * len(self.targets)
        self.wall_s = 0.0
        self._stack: list[int] = []
        self._units = [0]
        self._patches: list[tuple[Any, str, Any]] = []
        self._started = 0.0
        self._live = [True]
        os.register_at_fork(
            after_in_child=functools.partial(self._live.__setitem__, 0,
                                             False))

    # --- patching ---------------------------------------------------------

    def __enter__(self) -> Tracer:
        self.missing = []
        shims: dict[int, tuple[Any, Any]] = {}
        for index, target in enumerate(self.targets):
            raw = self._resolve(target.path)
            shim = None if raw is None else self._shim(index, raw)
            if shim is None:
                self.missing.append(target.path)
            else:
                shims[id(raw)] = (raw, shim)
        try:
            for holder, name, value in self._bindings():
                entry = shims.get(id(value))
                if entry is not None and entry[0] is value:
                    self._patches.append((holder, name, value))
                    setattr(holder, name, entry[1])
        except BaseException:
            self._restore()
            raise
        self._started = time.perf_counter()
        return self

    def __exit__(self, *exc: object) -> None:
        self.wall_s += time.perf_counter() - self._started
        self._restore()

    def _restore(self) -> None:
        while self._patches:
            holder, name, original = self._patches.pop()
            setattr(holder, name, original)

    @staticmethod
    def _resolve(path: str) -> Any:
        """The object ``module:Qual.name`` names (the class-dict entry for
        methods and properties), or ``None`` if it no longer exists."""
        module_name, qualname = path.split(":", 1)
        try:
            owner: Any = importlib.import_module(module_name)
            *outer, leaf = qualname.split(".")
            for part in outer:
                owner = getattr(owner, part)
            return (owner.__dict__[leaf] if inspect.isclass(owner)
                    else getattr(owner, leaf))
        except (ImportError, AttributeError, KeyError):
            return None

    def _shim(self, index: int, raw: Any) -> Any:
        if isinstance(raw, property):
            if raw.fget is None:
                return None
            return property(self._wrap(index, raw.fget), raw.fset,
                            raw.fdel, raw.__doc__)
        if isinstance(raw, (staticmethod, classmethod)):
            return type(raw)(self._wrap(index, raw.__func__))
        return self._wrap(index, raw) if callable(raw) else None

    def _ours(self, name: str) -> bool:
        return name == self.package or name.startswith(self.package + ".")

    def _bindings(self) -> list[tuple[Any, str, Any]]:
        """Every (namespace, name, value) in the package's modules and
        in the ``__dict__`` of the classes they hold."""
        found: list[tuple[Any, str, Any]] = []
        seen: set[int] = set()
        for module_name, module in list(sys.modules.items()):
            if module is None or not self._ours(module_name):
                continue
            for name, value in list(vars(module).items()):
                found.append((module, name, value))
                if (inspect.isclass(value) and id(value) not in seen
                        and self._ours(str(getattr(value, "__module__",
                                                   "")))):
                    seen.add(id(value))
                    found.extend((value, attr, member) for attr, member
                                 in list(value.__dict__.items()))
        return found

    # --- spans ------------------------------------------------------------

    def _wrap(self, index: int, fn: Callable[..., Any]) -> Callable[..., Any]:
        # Everything the shim touches is a closure local: the shim runs
        # on every call of a hot function, so each lookup shows up in
        # the overhead ratio.
        count = self.targets[index].count
        boundary = self.targets[index].layer is None
        counted, spans, stack = self.counted, self.spans, self._stack
        units, live, clock = self._units, self._live, time.perf_counter

        def open_span() -> list[Any]:
            parent = stack[-1] if stack else -1
            if boundary:
                units[0] += 1
                unit = units[0]
            else:
                unit = spans[parent][2] if parent >= 0 else 0
            record = [index, parent, unit, 0.0, 0.0]
            stack.append(len(spans))
            spans.append(record)
            record[3] = clock()
            return record

        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def generator_shim(*args: Any, **kwargs: Any) -> Any:
                inner = fn(*args, **kwargs)
                if not live[0]:
                    return (yield from inner)
                try:
                    while True:
                        record = open_span()
                        try:
                            item = next(inner)
                        except StopIteration as stop:
                            return stop.value
                        finally:
                            record[4] = clock()
                            stack.pop()
                        yield item
                finally:
                    inner.close()
            return generator_shim

        @functools.wraps(fn)
        def shim(*args: Any, **kwargs: Any) -> Any:
            if not live[0]:
                return fn(*args, **kwargs)
            if boundary:
                record = open_span()
            else:  # open_span inlined for the hot, non-boundary case
                parent = stack[-1] if stack else -1
                record = [index, parent, spans[parent][2] if parent >= 0
                          else 0, 0.0, 0.0]
                stack.append(len(spans))
                spans.append(record)
                record[3] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[4] = clock()
                stack.pop()
            if count is not None:
                counted[index] += count(result)
            return result
        return shim

    # --- reduction --------------------------------------------------------

    def aggregate(self, into: TraceSummary | None = None) -> TraceSummary:
        """Reduce the recorded spans; add them to ``into`` if given.

        Empties the span buffer, so a tracer can be re-entered for the
        next repeat without its memory growing.
        """
        summary = into if into is not None else TraceSummary()
        spans = self.spans
        child_s = [0.0] * len(spans)
        for _, parent, _, start, end in spans:
            if parent >= 0:
                child_s[parent] += end - start
        names = [f"{t.layer or 'trial'}:{t.name}" for t in self.targets]
        stacks: list[str] = []
        for i, (index, parent, _, start, end) in enumerate(spans):
            target = self.targets[index]
            duration = end - start
            own = duration - child_s[i]
            stack = (names[index] if parent < 0
                     else stacks[parent] + ";" + names[index])
            stacks.append(stack)
            _add(summary.collapsed, stack, own)
            _add(summary.calls, target.path, 1)
            _add(summary.total_s, target.path, duration)
            if target.layer is not None:
                _add(summary.layer_calls, target.layer, 1)
                _add(summary.layer_self_s, target.layer, own)
        for index, target in enumerate(self.targets):
            if target.count is not None:
                _add(summary.counted, target.path, self.counted[index])
            self.counted[index] = 0.0
        summary.units += self._units[0]
        summary.wall_s += self.wall_s
        summary.missing.extend(path for path in self.missing
                               if path not in summary.missing)
        spans.clear()
        self._units[0] = 0
        self.wall_s = 0.0
        return summary
