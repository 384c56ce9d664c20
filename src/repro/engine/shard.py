"""The trial loop: the one place a Monte-Carlo trial is executed.

:func:`run_trials` is the single per-trial code path in the package —
seed → ``default_rng`` → ``sim.trial`` span → ``trial_fn`` → dict check
→ ``sim.trials`` count and ``sim.trial`` event.  Every executor reaches
it through :func:`run_shard`, which collects one shard's trials into a
:class:`ShardResult` (in-process under
:class:`~repro.engine.pool.SerialExecutor`, or in a worker process
under :class:`~repro.engine.supervisor.SupervisedPool`), recording into
a worker-local :class:`~repro.telemetry.Recorder` captured as a
:class:`~repro.telemetry.TelemetrySnapshot` so the campaign can merge
shard traces back into one byte-stable export.

One loop is what makes the executor choice invisible in the results: a
trial always sees the same seed, runs the same function, and records the
same telemetry shape.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Iterator, Sequence
from dataclasses import dataclass
from typing import Any

import numpy as np

from ..telemetry import (
    NullRecorder,
    Recorder,
    TelemetryRecorder,
    TelemetrySnapshot,
)
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
    """One executed shard: per-trial values plus its telemetry snapshot.

    Deliberately a plain (picklable, JSON-friendly) container: ``trials``
    is a tuple of ``(index, seed, values)`` triples in index order and
    ``telemetry`` is a :class:`~repro.telemetry.TelemetrySnapshot` (or
    ``None`` when the campaign runs untraced).
    """

    __slots__ = ("shard_id", "trials", "telemetry")

    def __init__(self, shard_id: int,
                 trials: tuple[tuple[int, int, dict[str, Any]], ...],
                 telemetry: TelemetrySnapshot | None = None) -> None:
        self.shard_id = shard_id
        self.trials = trials
        self.telemetry = telemetry


def run_trials(trial_fn: TrialFn, trials: Iterable[TrialSpec],
               of_total: int, telemetry: TelemetryRecorder
               ) -> Iterator[TrialResult]:
    """Run each planned trial, yielding its result as soon as it lands.

    Each trial is traced as a ``sim.trial`` span and announced with a
    ``sim.trial`` event carrying its index, seed and ``of_total`` (the
    campaign's full trial count, so shard events match a serial sweep's).
    """
    for trial in trials:
        rng = np.random.default_rng(trial.seed)
        with telemetry.span("sim.trial", index=trial.index):
            values = trial_fn(rng, trial.index)
        if not isinstance(values, dict):
            raise TypeError("trial function must return a dict of values")
        if telemetry.enabled:
            telemetry.count("sim.trials")
            telemetry.event("sim.trial", index=trial.index,
                            seed=trial.seed, of=of_total)
        yield TrialResult(index=trial.index, seed=trial.seed,
                          values=values)


def run_shard(trial_fn: TrialFn, shard: ShardSpec, of_total: int,
              record_telemetry: bool = False) -> ShardResult:
    """Execute every trial in ``shard`` against its planned seed."""
    recorder = Recorder() if record_telemetry else NullRecorder()
    executed = tuple(
        (result.index, result.seed, result.values)
        for result in run_trials(trial_fn, shard.trials, of_total,
                                 recorder))
    snapshot = (TelemetrySnapshot.capture(recorder)
                if isinstance(recorder, Recorder) else None)
    return ShardResult(shard_id=shard.shard_id, trials=executed,
                       telemetry=snapshot)


def collect(results: Sequence[TrialResult], key: str) -> np.ndarray:
    """Gather one scalar metric across trials into an array."""
    return np.asarray([r.values[key] for r in results], dtype=float)
