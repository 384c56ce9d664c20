"""Whole-project analysis: per-file summaries and the project graph.

reprolint v1 saw one file at a time, so a worker trial function that
*calls into* a module using global RNG or wall-clock time sailed
through.  v2 fixes that with a two-stage pipeline:

1. **Extraction** — each file is parsed once and distilled into a
   :class:`ModuleSummary`: imports and aliases, every function with its
   call sites, worker handoffs, module-global reads/writes, and
   impurity sites (wall clock, env, RNG, raw writes).
2. **Graph assembly** — :class:`ProjectGraph` indexes the summaries
   into a symbol/import/call graph, resolves call edges through import
   aliases, collects worker *entry points* (anything handed to
   ``run_shard`` / ``run_shards`` / executor ``submit`` /
   ``Campaign``, unwrapping ``functools.partial`` and locals bound
   once to a partial),
   and computes the worker-reachable closure the PAR0xx rules walk.

Known static limits (documented in ``docs/static-analysis.md``): calls
through instance attributes other than ``self`` are not resolved, and
module top-level statements are summarised but never considered
worker-reachable.
"""

from __future__ import annotations

import ast
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Iterator

from .astutil import (
    GLOBAL_STATE_CALLS,
    MUTATING_METHODS,
    WALL_CLOCK_DATETIME_ATTRS,
    WALL_CLOCK_TIME_ATTRS,
    WRITE_METHODS,
    attr_chain,
    is_env_read,
    is_np_random,
    is_unseeded_rng_call,
    write_mode,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .core import AnalyzedFile

__all__ = [
    "FunctionSummary",
    "ModuleSummary",
    "ProjectGraph",
    "extract_summary",
]

#: Call-site names that hand a function across the worker boundary.
#: ``submit`` covers executor/backend submission;
#: ``run_shards`` the executor protocol; ``Campaign`` the engine
#: driver.  The *first positional* argument (or the ``trial_fn``
#: keyword) is the handed-off callable.
HANDOFF_CALLEES = frozenset({
    "run_shards", "submit", "Campaign",
})


# ---------------------------------------------------------------------------
# Summary data model (plain data)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Impurity:
    """One nondeterminism/IO site inside a function body."""

    kind: str       # wallclock | env | rng-global | rng-unseeded |
                    # stdlib-random | raw-write
    detail: str
    line: int
    col: int


@dataclass(frozen=True)
class SymbolUse:
    """A read/write/mutate of a module-level name from function scope."""

    name: str
    access: str     # read | write | mutate
    line: int
    col: int


@dataclass(frozen=True)
class CallSite:
    """One call expression, recorded as its raw attribute chain."""

    chain: tuple[str, ...]
    line: int
    col: int


@dataclass(frozen=True)
class Handoff:
    """A worker-boundary call site and the callable it hands over."""

    callee: str                 # the matched name (run_shards, submit, ...)
    arg_flavor: str | None      # name | attr | lambda | nested |
                                # bound-method | opaque | None (no arg)
    arg_ref: str | None         # name / dotted chain / lambda qualname
    line: int
    col: int


@dataclass(frozen=True)
class FunctionSummary:
    """Everything the graph needs to know about one function."""

    qualname: str
    name: str
    kind: str                   # function | method | nested | lambda | module
    owner_class: str | None
    line: int
    col: int
    calls: tuple[CallSite, ...] = ()
    handoffs: tuple[Handoff, ...] = ()
    global_uses: tuple[SymbolUse, ...] = ()
    impurities: tuple[Impurity, ...] = ()


@dataclass(frozen=True)
class RelativeImport:
    """One ``from .x import a, b`` statement (API001 feeds on these)."""

    level: int
    module: str | None
    names: tuple[tuple[str, str | None], ...]   # (name, asname)
    line: int
    col: int


@dataclass
class ModuleSummary:
    """The distilled view of one source file."""

    top_bindings: frozenset[str] = frozenset()
    top_classes: frozenset[str] = frozenset()
    import_aliases: dict[str, str] = field(default_factory=dict)
    from_absolute: dict[str, tuple[str, str]] = field(default_factory=dict)
    from_relative: dict[str, tuple[int, str | None, str]] = \
        field(default_factory=dict)
    relative_imports: tuple[RelativeImport, ...] = ()
    all_literal: tuple[str, ...] | None = None
    all_dynamic: bool = False
    all_line: int = 0
    all_col: int = 0
    functions: dict[str, FunctionSummary] = field(default_factory=dict)


# ---------------------------------------------------------------------------
# Extraction
# ---------------------------------------------------------------------------


import builtins as _builtins

_BUILTIN_NAMES = frozenset(dir(_builtins))


def _local_bindings(body: Iterable[ast.stmt]
                    ) -> dict[str, ast.expr | None]:
    """Names bound by a sequence of statements (one function's locals).

    Each name maps to the value of its binding when it is bound exactly
    once, by a plain ``name = value`` assignment, and to None otherwise.
    Descends into control flow but *not* into nested function or class
    bodies (their assignments bind in their own scope); nested def /
    class names themselves do bind locally.
    """
    names: dict[str, ast.expr | None] = {}

    def bind(name: str, value: ast.expr | None = None) -> None:
        names[name] = None if name in names else value

    def bind_target(target: ast.AST, value: ast.expr | None = None
                    ) -> None:
        # Only genuine binding forms: `x[i] = v` / `x.a = v` mutate an
        # existing object, they do not bind `x` in this scope.
        if isinstance(target, ast.Name):
            bind(target.id, value)
        elif isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                bind_target(element)
        elif isinstance(target, ast.Starred):
            bind_target(target.value)

    def visit(stmts: Iterable[ast.stmt]) -> None:
        for node in stmts:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                bind(node.name)
                continue
            if isinstance(node, ast.Assign):
                for target in node.targets:
                    bind_target(target, node.value)
            elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                bind_target(node.target)
            elif isinstance(node, (ast.For, ast.AsyncFor)):
                bind_target(node.target)
            elif isinstance(node, (ast.With, ast.AsyncWith)):
                for item in node.items:
                    if item.optional_vars is not None:
                        bind_target(item.optional_vars)
            elif isinstance(node, ast.Import):
                for alias in node.names:
                    bind(alias.asname or alias.name.split(".")[0])
            elif isinstance(node, ast.ImportFrom):
                for alias in node.names:
                    if alias.name != "*":
                        bind(alias.asname or alias.name)
            # Recurse into compound statements (but not nested scopes).
            for attr in ("body", "orelse", "finalbody"):
                inner = getattr(node, attr, None)
                if inner:
                    visit(inner)
            for handler in getattr(node, "handlers", ()) or ():
                if handler.name:
                    bind(handler.name)
                visit(handler.body)
    visit(body)
    return names


def _function_params(node: ast.FunctionDef | ast.AsyncFunctionDef
                     | ast.Lambda) -> set[str]:
    args = node.args
    params = {a.arg for a in args.args + args.posonlyargs + args.kwonlyargs}
    if args.vararg:
        params.add(args.vararg.arg)
    if args.kwarg:
        params.add(args.kwarg.arg)
    return params


def _unwrap_partial(node: ast.expr) -> ast.expr:
    """Peel ``functools.partial(f, ...)`` wrappers down to ``f``."""
    while isinstance(node, ast.Call):
        chain = attr_chain(node.func)
        if chain and chain[-1] == "partial" and node.args:
            node = node.args[0]
        else:
            break
    return node


class _FunctionExtractor(ast.NodeVisitor):
    """Collects one function's calls, handoffs, global uses, impurities.

    Nested functions and lambdas are handed back to the module extractor
    (they become their own :class:`FunctionSummary`); this visitor does
    not descend into them.
    """

    def __init__(self, extractor: "_ModuleExtractor", qualname: str,
                 name: str, kind: str, owner_class: str | None,
                 node: ast.AST, enclosing_locals: set[str]) -> None:
        self.extractor = extractor
        self.qualname = qualname
        self.name = name
        self.kind = kind
        self.owner_class = owner_class
        self.node = node
        self.enclosing_locals = enclosing_locals
        self.calls: list[CallSite] = []
        self.handoffs: list[Handoff] = []
        self.global_uses: list[SymbolUse] = []
        self.impurities: list[Impurity] = []
        self.global_names: set[str] = set()
        self._mutated: set[tuple[str, int]] = set()
        # Locals bound once to a value, e.g. `fn = partial(trial, ...)`:
        # a handoff of `fn` hands over whatever that value wraps.
        self.bound_once: dict[str, ast.expr] = {}
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            params = _function_params(node)
            bindings = _local_bindings(node.body)
            self.locals = params | set(bindings)
            self.bound_once = {name: value
                               for name, value in bindings.items()
                               if value is not None
                               and name not in params}
        elif isinstance(node, ast.Lambda):
            self.locals = _function_params(node)
        else:  # "<module>": top-level statements, everything is global
            self.locals = set()

    # -- scope plumbing ---------------------------------------------------

    def _is_module_name(self, name: str) -> bool:
        return (name in self.extractor.top_bindings
                and name not in self.locals
                and name not in self.enclosing_locals
                and name not in _BUILTIN_NAMES)

    def visit_Global(self, node: ast.Global) -> None:
        self.global_names.update(node.names)
        self.locals -= set(node.names)

    def visit_Import(self, node: ast.Import) -> None:
        self.extractor.record_import(node, top_level=False)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        self.extractor.record_import(node, top_level=False)

    def _enter_nested(self, node: ast.FunctionDef | ast.AsyncFunctionDef
                      | ast.Lambda, qualname: str, name: str,
                      kind: str) -> None:
        self.extractor.extract_function(
            node, qualname, name, kind, self.owner_class,
            self.enclosing_locals | self.locals)
        # A nested callable's impurities matter whenever its parent
        # runs (it is defined to be called); model that as a call edge.
        self.calls.append(CallSite(chain=("", qualname),
                                   line=node.lineno, col=node.col_offset))

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._enter_nested(node, f"{self.qualname}.{node.name}",
                           node.name, "nested")

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._enter_nested(node, f"{self.qualname}.{node.name}",
                           node.name, "nested")

    def visit_Lambda(self, node: ast.Lambda) -> None:
        qualname = f"{self.qualname}.<lambda:{node.lineno}:{node.col_offset}>"
        self._enter_nested(node, qualname, "<lambda>", "lambda")

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        # A class defined inside a function: treat its methods as nested
        # functions of this scope (rare; keeps the walker total).
        for stmt in node.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self._enter_nested(
                    stmt, f"{self.qualname}.{node.name}.{stmt.name}",
                    stmt.name, "nested")

    # -- facts ------------------------------------------------------------

    def _record_impurity(self, kind: str, detail: str,
                         node: ast.AST) -> None:
        self.impurities.append(Impurity(
            kind=kind, detail=detail, line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0)))

    def _classify_handoff_arg(self, arg: ast.expr
                              ) -> tuple[str, str | None]:
        arg = _unwrap_partial(arg)
        if isinstance(arg, ast.Name) and arg.id in self.bound_once:
            arg = _unwrap_partial(self.bound_once[arg.id])
        if isinstance(arg, ast.Lambda):
            qualname = (f"{self.qualname}."
                        f"<lambda:{arg.lineno}:{arg.col_offset}>")
            return "lambda", qualname
        if isinstance(arg, ast.Name):
            return "name", arg.id
        if isinstance(arg, ast.Attribute):
            chain = attr_chain(arg)
            if len(chain) == 2 and chain[0] == "self":
                return "bound-method", chain[1]
            if chain:
                return "attr", ".".join(chain)
        return "opaque", None

    def visit_Call(self, node: ast.Call) -> None:
        chain = attr_chain(node.func)
        if chain:
            self.calls.append(CallSite(chain=tuple(chain),
                                       line=node.lineno,
                                       col=node.col_offset))
            root, leaf = chain[0], chain[-1]
            # Worker handoffs.  ``map`` counts only as a *method*
            # (pool.map / executor.map): builtin map() stays local.
            if leaf in HANDOFF_CALLEES \
                    or (leaf == "map" and len(chain) >= 2):
                arg: ast.expr | None = None
                if node.args:
                    arg = node.args[0]
                for kw in node.keywords:
                    if kw.arg == "trial_fn":
                        arg = kw.value
                if arg is not None:
                    flavor, ref = self._classify_handoff_arg(arg)
                    self.handoffs.append(Handoff(
                        callee=leaf, arg_flavor=flavor, arg_ref=ref,
                        line=node.lineno, col=node.col_offset))
            # Impurities.
            if root == "time" and leaf in WALL_CLOCK_TIME_ATTRS:
                self._record_impurity("wallclock", f"time.{leaf}()", node)
            elif (leaf in WALL_CLOCK_DATETIME_ATTRS and len(chain) >= 2
                    and chain[-2] in ("datetime", "date")):
                self._record_impurity("wallclock",
                                      f"{'.'.join(chain)}()", node)
            elif root == "random" and len(chain) == 2:
                self._record_impurity("stdlib-random",
                                      f"random.{leaf}()", node)
            if is_env_read(node):
                self._record_impurity("env", f"{'.'.join(chain)}()", node)
            if isinstance(node.func, ast.Attribute):
                func = node.func
                if is_np_random(func.value):
                    if func.attr in GLOBAL_STATE_CALLS:
                        self._record_impurity(
                            "rng-global", f"np.random.{func.attr}()",
                            node)
                    elif func.attr == "default_rng" \
                            and is_unseeded_rng_call(node):
                        self._record_impurity(
                            "rng-unseeded",
                            "unseeded np.random.default_rng()", node)
                if func.attr in WRITE_METHODS:
                    self._record_impurity(
                        "raw-write", f".{func.attr}()", node)
                # In-place mutation of a module-level container (a
                # call on an imported module, `np.sort(...)`, is not).
                if (func.attr in MUTATING_METHODS
                        and isinstance(func.value, ast.Name)
                        and self._is_module_name(func.value.id)
                        and func.value.id
                        not in self.extractor.import_aliases):
                    self.global_uses.append(SymbolUse(
                        name=func.value.id, access="mutate",
                        line=node.lineno, col=node.col_offset))
                    self._mutated.add((func.value.id, node.lineno))
            elif isinstance(node.func, ast.Name):
                if node.func.id == "open":
                    mode = write_mode(node)
                    if mode is not None:
                        self._record_impurity(
                            "raw-write", f"open(..., {mode!r})", node)
                elif node.func.id == "default_rng" \
                        and is_unseeded_rng_call(node):
                    self._record_impurity(
                        "rng-unseeded", "unseeded default_rng()", node)
        self.generic_visit(node)

    def visit_Subscript(self, node: ast.Subscript) -> None:
        if is_env_read(node):
            self._record_impurity("env", "os.environ[...]", node)
        if (isinstance(node.ctx, (ast.Store, ast.Del))
                and isinstance(node.value, ast.Name)
                and self._is_module_name(node.value.id)):
            self.global_uses.append(SymbolUse(
                name=node.value.id, access="mutate",
                line=node.lineno, col=node.col_offset))
            self._mutated.add((node.value.id, node.lineno))
        self.generic_visit(node)

    def visit_Name(self, node: ast.Name) -> None:
        name = node.id
        if name in self.global_names:
            if isinstance(node.ctx, ast.Store):
                self.global_uses.append(SymbolUse(
                    name=name, access="write", line=node.lineno,
                    col=node.col_offset))
            elif isinstance(node.ctx, ast.Load):
                self.global_uses.append(SymbolUse(
                    name=name, access="read", line=node.lineno,
                    col=node.col_offset))
        elif (isinstance(node.ctx, ast.Load)
                and self._is_module_name(name)
                and (name, node.lineno) not in self._mutated):
            self.global_uses.append(SymbolUse(
                name=name, access="read", line=node.lineno,
                col=node.col_offset))
        self.generic_visit(node)

    def run(self) -> FunctionSummary:
        """Walk the body and assemble the summary."""
        if isinstance(self.node, ast.Lambda):
            self.visit(self.node.body)
        elif isinstance(self.node, (ast.FunctionDef,
                                    ast.AsyncFunctionDef)):
            for stmt in self.node.body:
                self.visit(stmt)
        else:  # module body: skip nested scopes, summarise the rest
            assert isinstance(self.node, ast.Module)
            for stmt in self.node.body:
                if isinstance(stmt, (ast.FunctionDef,
                                     ast.AsyncFunctionDef,
                                     ast.ClassDef)):
                    continue
                self.visit(stmt)
        return FunctionSummary(
            qualname=self.qualname, name=self.name, kind=self.kind,
            owner_class=self.owner_class,
            line=getattr(self.node, "lineno", 1),
            col=getattr(self.node, "col_offset", 0),
            calls=tuple(self.calls), handoffs=tuple(self.handoffs),
            global_uses=tuple(self.global_uses),
            impurities=tuple(self.impurities))


class _ModuleExtractor:
    """Drives extraction for one parsed module."""

    def __init__(self, tree: ast.Module) -> None:
        self.tree = tree
        self.top_bindings: set[str] = set()
        self.functions: dict[str, FunctionSummary] = {}
        # Shared alias maps: top-level imports bind here, and
        # *function-local* imports (the cycle-breaking idiom) are merged
        # in too so call resolution can follow them.  Top level wins on
        # collision.
        self.import_aliases: dict[str, str] = {}
        self.from_absolute: dict[str, tuple[str, str]] = {}
        self.from_relative: dict[str, tuple[int, str | None, str]] = {}

    def record_import(self, node: ast.Import | ast.ImportFrom,
                      top_level: bool) -> None:
        """Merge one import statement into the shared alias maps."""
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.asname:
                    self._bind_alias(alias.asname, alias.name, top_level)
                else:
                    # `import a.b.c` binds `a`.
                    root = alias.name.split(".")[0]
                    self._bind_alias(root, root, top_level)
            return
        for alias in node.names:
            if alias.name == "*":
                continue
            local = alias.asname or alias.name
            if node.level > 0:
                if top_level or local not in self.from_relative:
                    self.from_relative[local] = (node.level, node.module,
                                                 alias.name)
            elif node.module:
                if top_level or local not in self.from_absolute:
                    self.from_absolute[local] = (node.module, alias.name)

    def _bind_alias(self, local: str, dotted: str,
                    top_level: bool) -> None:
        if top_level or local not in self.import_aliases:
            self.import_aliases[local] = dotted

    def extract_function(self, node: ast.FunctionDef
                         | ast.AsyncFunctionDef | ast.Lambda
                         | ast.Module, qualname: str, name: str,
                         kind: str, owner_class: str | None,
                         enclosing_locals: set[str]) -> None:
        """Summarise one callable (and, recursively, its nested defs)."""
        extractor = _FunctionExtractor(self, qualname, name, kind,
                                       owner_class, node,
                                       enclosing_locals)
        self.functions[qualname] = extractor.run()

    def run(self) -> ModuleSummary:
        """Extract the whole module summary."""
        relative_imports: list[RelativeImport] = []
        top_classes: set[str] = set()
        all_literal: tuple[str, ...] | None = None
        all_dynamic = False
        all_line = all_col = 0

        def bind_top(tree_body: Iterable[ast.stmt]) -> None:
            nonlocal all_literal, all_dynamic, all_line, all_col
            for node in tree_body:
                if isinstance(node, ast.Import):
                    self.record_import(node, top_level=True)
                    for alias in node.names:
                        self.top_bindings.add(
                            alias.asname or alias.name.split(".")[0])
                elif isinstance(node, ast.ImportFrom):
                    self.record_import(node, top_level=True)
                    if node.level > 0:
                        relative_imports.append(RelativeImport(
                            level=node.level, module=node.module,
                            names=tuple((alias.name, alias.asname)
                                        for alias in node.names),
                            line=node.lineno, col=node.col_offset))
                    for alias in node.names:
                        if alias.name != "*":
                            self.top_bindings.add(
                                alias.asname or alias.name)
                elif isinstance(node, (ast.FunctionDef,
                                       ast.AsyncFunctionDef)):
                    self.top_bindings.add(node.name)
                elif isinstance(node, ast.ClassDef):
                    self.top_bindings.add(node.name)
                    top_classes.add(node.name)
                elif isinstance(node, ast.Assign):
                    # `X[k] = v` / `X.a = v` mutate, they do not bind:
                    # only Store-context names count as new bindings.
                    for target in node.targets:
                        for leaf in ast.walk(target):
                            if not isinstance(leaf, ast.Name) \
                                    or not isinstance(leaf.ctx, ast.Store):
                                continue
                            self.top_bindings.add(leaf.id)
                            if leaf.id == "__all__":
                                literal = _literal_strings(node.value)
                                if literal is None:
                                    all_dynamic = True
                                else:
                                    all_literal = tuple(literal)
                                all_line = node.lineno
                                all_col = node.col_offset
                elif isinstance(node, ast.AnnAssign) and isinstance(
                        node.target, ast.Name):
                    self.top_bindings.add(node.target.id)
                elif isinstance(node, ast.AugAssign) and isinstance(
                        node.target, ast.Name):
                    self.top_bindings.add(node.target.id)
                    if node.target.id == "__all__":
                        all_dynamic = all_literal is None
                        all_line = node.lineno
                        all_col = node.col_offset
                elif isinstance(node, (ast.If, ast.Try)):
                    bind_top(node.body)
                    bind_top(getattr(node, "orelse", ()) or ())
                    for handler in getattr(node, "handlers", ()) or ():
                        bind_top(handler.body)

        bind_top(self.tree.body)

        # Function bodies (top-level defs, methods, nested, lambdas).
        for node in self.tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self.extract_function(node, node.name, node.name,
                                      "function", None, set())
            elif isinstance(node, ast.ClassDef):
                for stmt in node.body:
                    if isinstance(stmt, (ast.FunctionDef,
                                         ast.AsyncFunctionDef)):
                        self.extract_function(
                            stmt, f"{node.name}.{stmt.name}", stmt.name,
                            "method", node.name, set())
        # Module top level (handoffs at import time still register
        # entry points; its impurities are never worker-reachable).
        self.extract_function(self.tree, "<module>", "<module>",
                              "module", None, set())

        return ModuleSummary(
            top_bindings=frozenset(self.top_bindings),
            top_classes=frozenset(top_classes),
            import_aliases=self.import_aliases,
            from_absolute=self.from_absolute,
            from_relative=self.from_relative,
            relative_imports=tuple(relative_imports),
            all_literal=all_literal, all_dynamic=all_dynamic,
            all_line=all_line, all_col=all_col,
            functions=self.functions)


def _literal_strings(node: ast.AST) -> list[str] | None:
    """The string elements of a literal list/tuple, else None."""
    if isinstance(node, (ast.List, ast.Tuple)) and all(
            isinstance(e, ast.Constant) and isinstance(e.value, str)
            for e in node.elts):
        return [e.value for e in node.elts]
    return None


def extract_summary(tree: ast.Module) -> ModuleSummary:
    """Distil one parsed module into its :class:`ModuleSummary`."""
    return _ModuleExtractor(tree).run()


# ---------------------------------------------------------------------------
# The project graph
# ---------------------------------------------------------------------------


FnKey = tuple[str, str]
"""(resolved absolute file path, function qualname)."""


@dataclass(frozen=True)
class EntryPoint:
    """One worker entry: the function plus the handoff that created it."""

    fn: FnKey
    callee: str
    flavor: str
    site_path: str
    line: int
    col: int


class ProjectGraph:
    """Symbol/import/call graph over a set of analyzed files.

    Built once per lint run from :class:`ModuleSummary` objects; the
    project-scope rules (``API001``, the ``PAR0xx`` family) traverse it
    instead of re-reading source.
    """

    def __init__(self, analyzed: Iterable[AnalyzedFile]) -> None:
        self.files: dict[str, AnalyzedFile] = {}
        self.display: dict[str, str] = {}
        self.module_name: dict[str, str | None] = {}
        self.by_module: dict[str, str] = {}
        for item in analyzed:
            abs_path = str(Path(item.path).resolve())
            self.files[abs_path] = item
            self.display[abs_path] = str(item.path)
        self._index_module_names()
        self.functions: dict[FnKey, FunctionSummary] = {}
        for abs_path, item in self.files.items():
            if item.summary is None:
                continue
            for qualname, fn in item.summary.functions.items():
                self.functions[(abs_path, qualname)] = fn
        self.edges: dict[FnKey, list[FnKey]] = {}
        for key in self.functions:
            self.edges[key] = self._resolve_edges(key)
        self.entries: list[EntryPoint] = self._collect_entries()
        self.reachable: dict[FnKey, tuple[EntryPoint, FnKey | None]] = {}
        self._compute_reachability()
        self.mutable_state: set[tuple[str, str]] = \
            self._collect_mutable_state()

    # -- naming -----------------------------------------------------------

    def _index_module_names(self) -> None:
        """Dotted module names derived from the package structure.

        Walk up from each file while ``__init__.py`` markers continue —
        the same resolution the interpreter performs — so names come
        out identical no matter which directory the lint was rooted at.
        """
        for abs_path in self.files:
            path = Path(abs_path)
            if path.name == "__init__.py":
                parts: list[str] = []
                package_dir = path.parent
            else:
                parts = [path.stem]
                package_dir = path.parent
            while (package_dir / "__init__.py").exists():
                parts.insert(0, package_dir.name)
                package_dir = package_dir.parent
            name = ".".join(parts) if parts else None
            self.module_name[abs_path] = name
            if name is not None:
                self.by_module.setdefault(name, abs_path)

    def fn_display(self, key: FnKey) -> str:
        """Human name for one function: ``module.qualname``."""
        abs_path, qualname = key
        module = self.module_name.get(abs_path)
        if module is None:
            module = Path(abs_path).stem
        return f"{module}.{qualname}" if module else qualname

    # -- resolution -------------------------------------------------------

    def resolve_relative(self, abs_path: str, level: int,
                         module: str | None) -> str | None:
        """Resolve a relative import to an analyzed file's abs path."""
        base = Path(abs_path).parent
        for _ in range(level - 1):
            base = base.parent
        if module:
            for part in module.split("."):
                base = base / part
        for candidate in (base.with_suffix(".py"), base / "__init__.py"):
            resolved = str(candidate.resolve())
            if resolved in self.files:
                return resolved
        return None

    def _module_file(self, dotted: str) -> str | None:
        return self.by_module.get(dotted)

    def _function_in(self, abs_path: str | None, name: str
                     ) -> FnKey | None:
        """A top-level function/class target inside one module file."""
        if abs_path is None:
            return None
        item = self.files.get(abs_path)
        if item is None or item.summary is None:
            return None
        summary = item.summary
        if name in summary.functions and \
                summary.functions[name].kind == "function":
            return (abs_path, name)
        if name in summary.top_classes:
            for init in ("__init__", "__post_init__"):
                if f"{name}.{init}" in summary.functions:
                    return (abs_path, f"{name}.{init}")
        return None

    def _imported_target(self, abs_path: str, name: str) -> FnKey | None:
        """Resolve a bare imported name to a function in the project."""
        item = self.files[abs_path]
        summary = item.summary
        assert summary is not None
        if name in summary.from_absolute:
            module, orig = summary.from_absolute[name]
            return self._function_in(self._module_file(module), orig)
        if name in summary.from_relative:
            level, module, orig = summary.from_relative[name]
            target = self.resolve_relative(abs_path, level, module)
            if target is not None:
                resolved = self._function_in(target, orig)
                if resolved is not None:
                    return resolved
                # `from . import sibling`-style module import.
                sibling = self.resolve_relative(
                    abs_path, level,
                    f"{module}.{orig}" if module else orig)
                if sibling is not None:
                    return None
        return None

    def _imported_module_file(self, abs_path: str,
                              name: str) -> str | None:
        """The analyzed file a local name refers to, if it is a module."""
        item = self.files[abs_path]
        summary = item.summary
        assert summary is not None
        if name in summary.import_aliases:
            return self._module_file(summary.import_aliases[name])
        if name in summary.from_absolute:
            module, orig = summary.from_absolute[name]
            return self._module_file(f"{module}.{orig}")
        if name in summary.from_relative:
            level, module, orig = summary.from_relative[name]
            return self.resolve_relative(
                abs_path, level, f"{module}.{orig}" if module else orig)
        return None

    def resolve_call(self, key: FnKey, chain: tuple[str, ...]
                     ) -> FnKey | None:
        """Best-effort static resolution of one call chain."""
        abs_path, qualname = key
        summary = self.files[abs_path].summary
        assert summary is not None
        fn = summary.functions[qualname]
        if not chain:
            return None
        # Synthetic edge to a nested def/lambda recorded by extraction.
        if chain[0] == "" and len(chain) == 2:
            nested = (abs_path, chain[1])
            return nested if nested in self.functions else None
        root = chain[0]
        if root == "self" and fn.owner_class and len(chain) == 2:
            method = (abs_path, f"{fn.owner_class}.{chain[1]}")
            return method if method in self.functions else None
        if len(chain) == 1:
            local = self._function_in(abs_path, root)
            if local is not None:
                return local
            nested_name = f"{qualname}.{root}"
            if (abs_path, nested_name) in self.functions:
                return (abs_path, nested_name)
            return self._imported_target(abs_path, root)
        # Dotted chains: Class.method / module.func / pkg.mod.func.
        if root in summary.top_classes:
            method = (abs_path, f"{root}.{chain[1]}")
            return method if method in self.functions else None
        module_file = self._imported_module_file(abs_path, root)
        rest = chain[1:]
        while module_file is not None and rest:
            target = self._function_in(module_file, rest[0])
            if target is not None and len(rest) == 1:
                return target
            deeper: str | None = None
            item = self.files.get(module_file)
            if item is not None and item.summary is not None:
                deeper_name = rest[0]
                deeper = self._imported_module_file(module_file,
                                                    deeper_name)
                if deeper is None:
                    module = self.module_name.get(module_file)
                    if module is not None:
                        deeper = self._module_file(
                            f"{module}.{deeper_name}")
            if len(rest) >= 2 and deeper is None:
                # Class attribute chain inside the target module.
                if item is not None and item.summary is not None \
                        and rest[0] in item.summary.top_classes:
                    method = (module_file, f"{rest[0]}.{rest[1]}")
                    if method in self.functions:
                        return method
            module_file, rest = deeper, rest[1:]
        return None

    def _resolve_edges(self, key: FnKey) -> list[FnKey]:
        fn = self.functions[key]
        targets: list[FnKey] = []
        seen: set[FnKey] = set()
        for call in fn.calls:
            target = self.resolve_call(key, call.chain)
            if target is not None and target not in seen:
                seen.add(target)
                targets.append(target)
        return targets

    # -- worker reachability ---------------------------------------------

    def _handoff_target(self, key: FnKey, handoff: Handoff
                        ) -> FnKey | None:
        abs_path, qualname = key
        summary = self.files[abs_path].summary
        assert summary is not None
        fn = summary.functions[qualname]
        ref = handoff.arg_ref
        if ref is None:
            return None
        if handoff.arg_flavor == "lambda":
            lam = (abs_path, ref)
            return lam if lam in self.functions else None
        if handoff.arg_flavor == "bound-method":
            if fn.owner_class:
                method = (abs_path, f"{fn.owner_class}.{ref}")
                return method if method in self.functions else None
            return None
        if handoff.arg_flavor == "name":
            nested = (abs_path, f"{qualname}.{ref}")
            if nested in self.functions:
                return nested
            local = self._function_in(abs_path, ref)
            if local is not None:
                return local
            return self._imported_target(abs_path, ref)
        if handoff.arg_flavor == "attr":
            return self.resolve_call(key, tuple(ref.split(".")))
        return None

    def handoffs(self) -> Iterator[tuple[FnKey, Handoff, FnKey | None]]:
        """Every worker handoff site: (owner, handoff, resolved target)."""
        for key in sorted(self.functions):
            for handoff in self.functions[key].handoffs:
                yield key, handoff, self._handoff_target(key, handoff)

    def _collect_entries(self) -> list[EntryPoint]:
        entries: list[EntryPoint] = []
        for key, handoff, target in self.handoffs():
            if target is None:
                continue
            flavor = handoff.arg_flavor or "opaque"
            if flavor == "name" \
                    and self.functions[target].kind == "nested":
                flavor = "nested"
            entries.append(EntryPoint(
                fn=target, callee=handoff.callee, flavor=flavor,
                site_path=key[0], line=handoff.line, col=handoff.col))
        return entries

    def _compute_reachability(self) -> None:
        queue: deque[FnKey] = deque()
        for entry in self.entries:
            if entry.fn not in self.reachable:
                self.reachable[entry.fn] = (entry, None)
                queue.append(entry.fn)
        while queue:
            current = queue.popleft()
            entry, _ = self.reachable[current]
            for target in self.edges.get(current, ()):  # already sorted
                if target not in self.reachable:
                    self.reachable[target] = (entry, current)
                    queue.append(target)

    def worker_reachable(self) -> Iterator[tuple[FnKey, FunctionSummary]]:
        """Every function reachable from a worker entry, sorted."""
        for key in sorted(self.reachable):
            yield key, self.functions[key]

    def chain_to_entry(self, key: FnKey, limit: int = 5) -> list[str]:
        """Display names from the worker entry down to ``key``."""
        names: list[str] = []
        current: FnKey | None = key
        while current is not None and len(names) <= limit:
            names.append(self.fn_display(current))
            _, parent = self.reachable[current]
            current = parent
        return names[::-1]

    # -- shared mutable state --------------------------------------------

    def _collect_mutable_state(self) -> set[tuple[str, str]]:
        """Module-level names with write evidence anywhere in the project.

        A name qualifies when it is bound at module level and some
        function *writes* it (``global`` rebinding) or *mutates* it in
        place.  Reads of never-written module constants stay clean.
        """
        state: set[tuple[str, str]] = set()
        for abs_path, item in self.files.items():
            if item.summary is None:
                continue
            bindings = item.summary.top_bindings
            for fn in item.summary.functions.values():
                for use in fn.global_uses:
                    if use.access in ("write", "mutate") \
                            and (use.name in bindings
                                 or use.access == "write"):
                        state.add((abs_path, use.name))
        return state
