"""Sanctioned randomness construction for the mmX stack.

Every simulation result in this repo must be replayable from a seed, so
reprolint's ``RNG001`` rule forbids unseeded ``np.random.default_rng()``
calls (and all legacy global-state ``np.random.*`` use) everywhere in
``src/``.  This module is the one sanctioned factory: APIs that accept
an optional ``rng`` fall back to :func:`fresh_rng`, which

* honours the ``REPRO_SEED`` environment variable when set, so an
  entire run — including every "just give me some entropy" fallback —
  can be pinned from the outside without touching call sites; and
* otherwise draws OS entropy exactly like ``default_rng()`` would.

Library code that *can* thread a seeded generator through should; this
fallback exists for interactive use and demo paths, not as an excuse to
drop the seed plumbing.
"""

from __future__ import annotations

import os

import numpy as np

__all__ = ["DEFAULT_SEED_ENV", "fresh_rng", "ensure_rng"]

DEFAULT_SEED_ENV = "REPRO_SEED"
"""Environment variable that pins every :func:`fresh_rng` fallback."""


def fresh_rng() -> np.random.Generator:
    """A new Generator, ``REPRO_SEED``-pinned when that variable is set.

    With ``REPRO_SEED`` unset this is plain OS entropy — the same
    behaviour as ``np.random.default_rng()`` — but routed through the
    one module the lint rule exempts, so every such fallback in the
    codebase is enumerable.  A seeded generator is
    ``np.random.default_rng(seed)``, which the rule allows anywhere.
    """
    env_seed = os.environ.get(DEFAULT_SEED_ENV)
    if env_seed is not None:
        return np.random.default_rng(int(env_seed))
    return np.random.default_rng()


def ensure_rng(rng: np.random.Generator | None) -> np.random.Generator:
    """The common ``rng or fresh_rng()`` fallback, spelled once."""
    return rng if rng is not None else fresh_rng()
