"""Rule registry: every lint rule self-registers under its code.

A rule is a class with three class attributes — ``code`` (the stable
identifier findings and suppressions use), ``name`` (a short slug) and
``description`` (one sentence for ``--list-rules``) — plus a
``check(tree, ctx)`` method yielding :class:`reprolint.core.Finding`
objects.  Decorate the class with :func:`register` and it becomes part
of the default rule pack; no other wiring is needed.
"""

from __future__ import annotations

CODE_RE = r"^[A-Z]{2,10}\d{3}$"

_RULES: dict[str, type] = {}


def register(rule_cls: type) -> type:
    """Class decorator: add a rule to the global registry by its code."""
    import re

    code = getattr(rule_cls, "code", None)
    if not code or not re.match(CODE_RE, code):
        raise ValueError(
            f"rule {rule_cls.__name__} needs a code matching {CODE_RE}")
    if code in _RULES:
        raise ValueError(f"duplicate rule code {code}")
    _RULES[code] = rule_cls
    return rule_cls


def all_rules() -> dict[str, type]:
    """All registered rules, keyed by code (import side effect included)."""
    _ensure_loaded()
    return dict(_RULES)


def get_rule(code: str) -> type:
    """Look one rule up by code; raises ``KeyError`` for unknown codes."""
    _ensure_loaded()
    return _RULES[code]


def _ensure_loaded() -> None:
    """Import the rule pack so every @register decorator has run."""
    from . import rules  # noqa: F401  (import triggers registration)
