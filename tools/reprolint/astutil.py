"""Shared AST matchers: the vocabulary rules and the extractor agree on.

The project analyzer (:mod:`reprolint.project`) extracts per-function
facts — wall-clock calls, RNG constructions, raw writes — that the
PAR0xx rules consume transitively, while the classic file-scope rules
(``DET001``, ``RNG001``, ``DUR001``) match the same patterns locally.
Keeping the matchers here, in one module, guarantees the local and the
interprocedural view of "what is an impurity" can never drift apart.
"""

from __future__ import annotations

import ast

__all__ = [
    "GLOBAL_STATE_CALLS",
    "MUTATING_METHODS",
    "WALL_CLOCK_DATETIME_ATTRS",
    "WALL_CLOCK_TIME_ATTRS",
    "WRITE_METHODS",
    "attr_chain",
    "is_env_read",
    "is_np_random",
    "is_unseeded_rng_call",
    "write_mode",
]

WALL_CLOCK_TIME_ATTRS = frozenset({
    "time", "time_ns", "monotonic", "monotonic_ns",
    "perf_counter", "perf_counter_ns",
})

WALL_CLOCK_DATETIME_ATTRS = frozenset({"now", "utcnow", "today"})

#: Legacy numpy global-state API: any call is a determinism leak.
GLOBAL_STATE_CALLS = frozenset({
    "seed", "get_state", "set_state", "rand", "randn", "randint",
    "random", "random_sample", "ranf", "sample", "choice", "shuffle",
    "permutation", "normal", "uniform", "standard_normal", "poisson",
    "exponential", "binomial", "beta", "gamma", "bytes",
})

#: Method calls that mutate a container in place.
MUTATING_METHODS = frozenset({
    "append", "extend", "insert", "remove", "pop", "clear", "add",
    "discard", "update", "setdefault", "popitem", "sort", "reverse",
    "appendleft", "extendleft", "popleft",
})

WRITE_METHODS = frozenset({"write_text", "write_bytes"})

_WRITE_MODE_CHARS = set("wax+")


def attr_chain(node: ast.AST) -> list[str]:
    """``a.b.c`` -> ["a", "b", "c"] (empty list when not a pure chain)."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return parts[::-1]
    return []


def is_np_random(node: ast.AST) -> bool:
    """Matches the ``np.random`` / ``numpy.random`` attribute chain."""
    return (isinstance(node, ast.Attribute) and node.attr == "random"
            and isinstance(node.value, ast.Name)
            and node.value.id in ("np", "numpy"))


def is_unseeded_rng_call(node: ast.Call) -> bool:
    """Whether a default_rng(...) call provides no usable seed."""
    if node.keywords:
        return any(kw.arg == "seed" and isinstance(kw.value, ast.Constant)
                   and kw.value.value is None for kw in node.keywords)
    if not node.args:
        return True
    first = node.args[0]
    return isinstance(first, ast.Constant) and first.value is None


def write_mode(call: ast.Call) -> str | None:
    """The write-ish mode string an ``open()`` call passes, if any."""
    mode: ast.expr | None = None
    if len(call.args) >= 2:
        mode = call.args[1]
    for keyword in call.keywords:
        if keyword.arg == "mode":
            mode = keyword.value
    if isinstance(mode, ast.Constant) and isinstance(mode.value, str) \
            and _WRITE_MODE_CHARS & set(mode.value):
        return mode.value
    return None


def is_env_read(node: ast.AST) -> bool:
    """``os.environ[...]`` / ``os.environ.get(...)`` / ``os.getenv(...)``.

    Any of the three is a read of parent-process state a worker cannot
    rely on (the parent may mutate its environment after the fork, and
    spawn-based pools inherit a snapshot).
    """
    if isinstance(node, ast.Call):
        chain = attr_chain(node.func)
        return chain in (["os", "getenv"], ["os", "environ", "get"])
    if isinstance(node, ast.Subscript):
        return attr_chain(node.value) == ["os", "environ"]
    return False
