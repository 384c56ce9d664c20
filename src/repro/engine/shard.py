"""The trial loop: the one place a Monte-Carlo trial is executed.

:func:`run_trials` is the single per-trial code path in the package —
seed → ``default_rng`` → ``trial_fn`` → dict check.  Every executor
reaches it through :func:`run_shard`, which collects one shard's trials
into a :class:`ShardResult` (in-process under
:class:`~repro.engine.pool.SerialExecutor`, or in a worker process
under :class:`~repro.engine.supervisor.SupervisedPool`).

One loop is what makes the executor choice invisible in the results: a
trial always sees the same seed and runs the same function.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Iterator, Sequence
from dataclasses import dataclass
from typing import Any

import numpy as np

from .plan import ShardSpec, TrialSpec

__all__ = ["ShardResult", "TrialFn", "TrialResult", "run_shard",
           "run_trials"]

TrialFn = Callable[[np.random.Generator, int], dict[str, Any]]
"""The campaign work unit: ``trial_fn(rng, index) -> dict``.  Under a
:class:`~repro.engine.supervisor.SupervisedPool` it must be picklable
(a module-level function or a ``functools.partial`` over one)."""


@dataclass(frozen=True)
class TrialResult:
    """One trial's outputs, tagged with its index and seed."""

    index: int
    seed: int
    values: dict[str, Any]

    def __getitem__(self, key: str) -> Any:
        return self.values[key]


class ShardResult:
    """One executed shard: per-trial values in index order.

    Deliberately a plain (picklable, JSON-friendly) container: ``trials``
    is a tuple of ``(index, seed, values)`` triples in index order.
    """

    __slots__ = ("shard_id", "trials")

    def __init__(self, shard_id: int,
                 trials: tuple[tuple[int, int, dict[str, Any]], ...]
                 ) -> None:
        self.shard_id = shard_id
        self.trials = trials


def run_trials(trial_fn: TrialFn, trials: Iterable[TrialSpec]
               ) -> Iterator[TrialResult]:
    """Run each planned trial, yielding its result as soon as it lands."""
    for trial in trials:
        values = trial_fn(np.random.default_rng(trial.seed), trial.index)
        if not isinstance(values, dict):
            raise TypeError("trial function must return a dict of values")
        yield TrialResult(index=trial.index, seed=trial.seed,
                          values=values)


def run_shard(trial_fn: TrialFn, shard: ShardSpec) -> ShardResult:
    """Execute every trial in ``shard`` against its planned seed."""
    executed = tuple((result.index, result.seed, result.values)
                     for result in run_trials(trial_fn, shard.trials))
    return ShardResult(shard_id=shard.shard_id, trials=executed)


def collect(results: Sequence[TrialResult], key: str) -> np.ndarray:
    """Gather one scalar metric across trials into an array."""
    return np.asarray([r.values[key] for r in results], dtype=float)
