"""The five benchmark workloads, each a fixed-size batch.

A workload is four plain functions:

* ``prepare(seed, workdir)`` builds everything a repeat needs (untimed);
* ``execute(state)`` is one timed repeat;
* ``outputs(state, raw)`` turns a repeat's result into *items* —
  ``(units, value)`` pairs, where ``units`` is how many work units the
  item covers and ``value`` is JSON data the checker compares with the
  reference (untimed; raises :class:`OutputError` on a broken
  invariant, which fails every unit of the repeat);
* ``probe(seed, workdir)`` is the minimal unit a fresh-interpreter
  set-up probe runs after ``import repro``.

Every input derives from ``seed``; the program sees only the generated
inputs.  ``bench/README.md`` says why each workload was chosen.
"""

from __future__ import annotations

import dataclasses
import shutil
import tempfile
from collections.abc import Callable
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Any

from repro.admission.saturation import default_config as saturation_config
from repro.admission.saturation import run_saturation
from repro.energy.compare import default_config as compare_config
from repro.energy.compare import run_compare
from repro.engine import Campaign, ResultStore, SupervisedPool
from repro.experiments import chaos, fig11_ber_cdf
from repro.experiments.fig13_multinode import NODE_COUNTS, network_trial

__all__ = ["Item", "OutputError", "Workload", "WORKLOADS"]

Item = tuple[int, Any]
"""(work units covered, JSON-able value)."""


class OutputError(Exception):
    """A repeat broke an invariant the reference values cannot express."""


@dataclass(frozen=True)
class Workload:
    name: str
    unit: str
    """What one work unit is, for ``units_per_s``."""

    prepare: Callable[[int, Path], Any]
    execute: Callable[[Any], Any]
    outputs: Callable[[Any, Any], list[Item]]
    probe: Callable[[int, Path], None]
    boundaries: tuple[str, ...] = ()
    """Trial functions the tracer treats as work-unit boundaries."""


def _seed_only(seed: int, workdir: Path) -> int:
    return seed


# --- placement_sweep: fig11, serial, channel tier ---------------------------

PLACEMENTS = 160


def _placement_execute(seed: int) -> Any:
    return fig11_ber_cdf.run(seed=seed, num_placements=PLACEMENTS)


def _placement_outputs(seed: int, result: Any) -> list[Item]:
    return [(1, {"ber_with": float(w), "ber_without": float(wo)})
            for w, wo in zip(result.ber_with_otam, result.ber_without_otam)]


def _placement_probe(seed: int, workdir: Path) -> None:
    fig11_ber_cdf.run(seed=seed, num_placements=1)


# --- chaos_sweep: every scenario for seeds S..S+3, scalar link path ---------

CHAOS_SEEDS = 4
CHAOS_DURATION_S = 30.0


def _chaos_execute(seed: int) -> Any:
    return [chaos.run_all(seed=s, duration_s=CHAOS_DURATION_S)
            for s in range(seed, seed + CHAOS_SEEDS)]


def _chaos_outputs(seed: int, sweeps: Any) -> list[Item]:
    return [(len(run.result.times_s), {
        "seed": run.seed,
        "scenario": run.scenario,
        "delivery_gain": float(run.delivery_gain),
        "recovered": bool(run.recovered),
        "actions": dict(sorted(run.action_counts().items())),
        "adaptive_mean_snr_db":
            float(run.result.adaptive_report.mean_snr_db),
        "static_mean_snr_db": float(run.result.static_report.mean_snr_db),
    }) for sweep in sweeps for run in sweep]


def _chaos_probe(seed: int, workdir: Path) -> None:
    chaos.run("kitchen-sink", seed=seed, duration_s=CHAOS_DURATION_S)


# --- admission_churn: saturation campaign, SpectrumBook/SDM ------------------

SATURATION = saturation_config(replicates=6, arrivals=600)


def _admission_execute(seed: int) -> Any:
    return run_saturation(SATURATION, master_seed=seed)


def _admission_outputs(seed: int, result: Any) -> list[Item]:
    churn = result.campaign.collect("churn_ops").reshape(
        len(result.loads), SATURATION.replicates).sum(axis=1)
    return [(int(ops), {**row, "churn_ops": float(ops)})
            for row, ops in zip(result.curve(), churn)]


def _admission_probe(seed: int, workdir: Path) -> None:
    run_saturation(saturation_config(loads=(1.0,), replicates=1,
                                     arrivals=SATURATION.arrivals),
                   master_seed=seed)


# --- energy_compare: node classes through the sample-level PHY ---------------

COMPARE = compare_config(replicates=10, num_bits=20000)


def _energy_execute(seed: int) -> Any:
    return run_compare(COMPARE, master_seed=seed)


def _energy_outputs(seed: int, result: Any) -> list[Item]:
    return [(COMPARE.replicates, row) for row in result.rows()]


def _energy_probe(seed: int, workdir: Path) -> None:
    run_compare(dataclasses.replace(COMPARE, classes=COMPARE.classes[:1],
                                    replicates=1), master_seed=seed)


# --- journaled_multinode: fig13 on the supervised pool with a journal -------

JOURNAL_TRIALS_PER_COUNT = 16
JOURNAL_SHARDS = 20
JOURNAL_JOBS = 2


@dataclass
class _Journaled:
    seed: int
    workdir: Path
    trial_fn: Any
    serial: dict[int, dict[str, Any]]
    """The in-process serial campaign every repeat must reproduce."""


def _journal_trial_fn(trials_per_count: int) -> Any:
    return partial(network_trial, node_counts=NODE_COUNTS,
                   trials_per_count=trials_per_count)


def _journaled_prepare(seed: int, workdir: Path) -> _Journaled:
    trial_fn = _journal_trial_fn(JOURNAL_TRIALS_PER_COUNT)
    serial = Campaign(trial_fn, len(NODE_COUNTS) * JOURNAL_TRIALS_PER_COUNT,
                      master_seed=seed, num_shards=JOURNAL_SHARDS).run()
    return _Journaled(seed, workdir, trial_fn,
                      {r.index: r.values for r in serial.results})


def _journaled_execute(state: _Journaled) -> Any:
    journal = Path(tempfile.mkdtemp(dir=state.workdir)) / "journal.jsonl"
    campaign = Campaign(state.trial_fn, len(state.serial),
                        master_seed=state.seed, num_shards=JOURNAL_SHARDS,
                        executor=SupervisedPool(jobs=JOURNAL_JOBS),
                        store=ResultStore(journal))
    return campaign, campaign.run(), journal


def _journaled_outputs(state: _Journaled, raw: Any) -> list[Item]:
    campaign, result, journal = raw
    try:
        shards = ResultStore(journal).load_or_create(campaign.plan)
    finally:
        shutil.rmtree(journal.parent)
    if sorted(shards) != list(range(campaign.plan.num_shards)):
        raise OutputError(f"journal holds shards {sorted(shards)}, "
                          f"planned {campaign.plan.num_shards}")
    merged = {r.index: r.values for r in result.results}
    if merged != state.serial:
        raise OutputError("pooled campaign differs from the serial one")
    for shard in shards.values():
        for index, _, values in shard.trials:
            if values != merged[index]:
                raise OutputError(f"journaled trial {index} differs "
                                  "from the campaign result")
    return [(1, dict(r.values)) for r in result.results]


def _journaled_probe(seed: int, workdir: Path) -> None:
    trials = len(NODE_COUNTS) * JOURNAL_TRIALS_PER_COUNT // JOURNAL_SHARDS
    journal = Path(tempfile.mkdtemp(dir=workdir)) / "journal.jsonl"
    try:
        Campaign(_journal_trial_fn(trials), trials, master_seed=seed,
                 num_shards=1, executor=SupervisedPool(jobs=1),
                 store=ResultStore(journal)).run()
    finally:
        shutil.rmtree(journal.parent)


WORKLOADS: dict[str, Workload] = {w.name: w for w in (
    Workload("placement_sweep", "trials", _seed_only, _placement_execute,
             _placement_outputs, _placement_probe,
             ("repro.experiments.fig11_ber_cdf:placement_trial",)),
    Workload("chaos_sweep", "sim steps", _seed_only, _chaos_execute,
             _chaos_outputs, _chaos_probe,
             ("repro.experiments.chaos:run",)),
    Workload("admission_churn", "admit+release ops", _seed_only,
             _admission_execute, _admission_outputs, _admission_probe,
             ("repro.admission.saturation:saturation_trial",)),
    Workload("energy_compare", "trials", _seed_only, _energy_execute,
             _energy_outputs, _energy_probe,
             ("repro.energy.compare:compare_trial",)),
    # Trials run in pool workers, where nothing is traced.
    Workload("journaled_multinode", "trials", _journaled_prepare,
             _journaled_execute, _journaled_outputs, _journaled_probe),
)}
"""Workload name -> definition, in report order."""
