"""Seeded Monte-Carlo experiment runner.

Every experiment in the paper is a set of repeated trials over random
placements (30 locations in §9.3, 100 runs in §9.5...).  The runner owns
the RNG discipline — one master seed, one child generator per trial — so
every figure regenerates bit-identically.

Long sweeps are observable mid-run: :meth:`MonteCarloRunner.run_stream`
yields each :class:`TrialResult` the moment its trial finishes (so a
caller can checkpoint or print partials), :meth:`MonteCarloRunner.run`
accepts a per-trial ``progress`` callback, and a
:class:`~repro.telemetry.TelemetryRecorder` wraps every trial in a
``sim.trial`` span plus a ``sim.trial`` event — the per-trial profile
the flamegraph export is built from.

The runner is the serial streaming view of :mod:`repro.engine`: its
trial loop is :func:`repro.engine.shard.run_trials` and its seeds are
:meth:`repro.engine.CampaignPlan.child_seeds`.  Sharded, parallel or
resumable sweeps go through :class:`repro.engine.Campaign`; see
``docs/scaling.md``.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator

from ..engine import CampaignPlan, TrialFn, TrialResult, TrialSpec
from ..engine.shard import collect, run_trials, summary
from ..telemetry import NullRecorder, TelemetryRecorder

__all__ = ["TrialResult", "MonteCarloRunner"]


class MonteCarloRunner:
    """Runs ``trial_fn(rng, index) -> dict`` over independent RNG streams."""

    collect = staticmethod(collect)
    summary = staticmethod(summary)

    def __init__(self, master_seed: int = 0,
                 telemetry: TelemetryRecorder | None = None):
        self.master_seed = master_seed
        self.telemetry = telemetry if telemetry is not None \
            else NullRecorder()

    def child_seeds(self, count: int) -> list[int]:
        """Deterministic per-trial seeds derived from the master seed."""
        return CampaignPlan.child_seeds(self.master_seed, count)

    def run_stream(self, trial_fn: TrialFn,
                   num_trials: int) -> Iterator[TrialResult]:
        """Yield each trial's result as soon as it completes.

        This is the partial-result path: a sweep of hundreds of trials
        can be consumed incrementally (printed, checkpointed, aborted)
        instead of blocking until the last trial returns.
        """
        trials = [TrialSpec(index=index, seed=seed) for index, seed
                  in enumerate(self.child_seeds(num_trials))]
        yield from run_trials(trial_fn, trials, num_trials,
                              self.telemetry)

    def run(self, trial_fn: TrialFn, num_trials: int,
            progress: Callable[[TrialResult], None] | None = None
            ) -> list[TrialResult]:
        """Execute ``num_trials`` independent trials, serially.

        ``progress`` (optional) is invoked with each
        :class:`TrialResult` as it lands — the hook long sweeps use to
        report partial results without changing the return type.
        """
        results = []
        for result in self.run_stream(trial_fn, num_trials):
            if progress is not None:
                progress(result)
            results.append(result)
        return results
