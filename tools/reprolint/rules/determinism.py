"""DET001: simulation code must not consult wall clocks or ``random``.

Simulated time is explicit everywhere in this repo (``now_s`` wanders
through the heartbeat, failover and chaos layers as an argument).  A
``time.time()`` or stdlib-``random`` call hidden in a sim/experiment
path makes a trajectory unreproducible in a way no seed can fix.

File-scope: the matching is purely local.  The transitive variant —
wall clocks reachable *from a worker* through any number of calls — is
``PAR003`` in :mod:`reprolint.rules.parallel`.
"""

from __future__ import annotations

import ast
from typing import Iterator

from ..astutil import (WALL_CLOCK_DATETIME_ATTRS, WALL_CLOCK_TIME_ATTRS,
                       attr_chain)
from ..core import Finding, SourceUnit
from ..registry import register


@register
class NonDeterministicSource:
    """DET001: wall-clock or stdlib-``random`` use in simulation code."""

    code = "DET001"
    name = "non-deterministic-source"
    scope = "file"
    description = ("wall-clock (time.time & co.) or stdlib random module "
                   "use; simulations must be replayable from a seed")

    def check(self, unit: SourceUnit) -> Iterator[Finding]:
        """Yield a finding per wall-clock call or ``random`` import."""
        for node in ast.walk(unit.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name.split(".")[0] == "random":
                        yield unit.finding(
                            self.code,
                            "stdlib random module imported; use a seeded "
                            "np.random.Generator instead",
                            node)
            elif isinstance(node, ast.ImportFrom):
                if node.level == 0 and node.module \
                        and node.module.split(".")[0] == "random":
                    yield unit.finding(
                        self.code,
                        "import from stdlib random; use a seeded "
                        "np.random.Generator instead",
                        node)
            elif isinstance(node, ast.Call):
                chain = attr_chain(node.func)
                if len(chain) < 2:
                    continue
                root, leaf = chain[0], chain[-1]
                if root == "time" and leaf in WALL_CLOCK_TIME_ATTRS:
                    yield unit.finding(
                        self.code,
                        f"wall-clock call time.{leaf}(); pass simulated "
                        "time (now_s) explicitly",
                        node)
                elif leaf in WALL_CLOCK_DATETIME_ATTRS \
                        and chain[-2] in ("datetime", "date"):
                    yield unit.finding(
                        self.code,
                        f"wall-clock call {'.'.join(chain)}(); pass "
                        "simulated time explicitly",
                        node)
