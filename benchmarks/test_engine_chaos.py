"""Engine chaos gates: supervised campaigns survive injected faults.

Two promises of the :mod:`repro.engine` supervision layer, pinned on
the real fig11 trial function:

* a campaign whose workers crash, hang and corrupt payloads on a seeded
  :class:`~repro.engine.WorkerFaultSchedule` still completes — under
  ``on_failure="degrade"`` it recovers *every* trial and is exactly
  equal to the serial reference;
* a poison shard (sabotaged past ``max_attempts``) is quarantined, the
  campaign ends as an explicit :class:`PartialCampaignResult`, and the
  attempt/quarantine journal it leaves behind is archived to
  ``benchmarks/artifacts/`` so CI uploads a real forensics artifact
  (its shard records land in completion order, so it is not checked
  in).

Both gates run everywhere (``--benchmark-disable`` in CI).  The
supervised pool is the engine's only multi-process executor, so there
is no unsupervised pool left to measure an overhead against; its
throughput is tracked end to end by the ``journaled_multinode``
workload in ``BENCHMARK.json``.
"""

from __future__ import annotations

from repro.engine import (
    Campaign,
    PartialCampaignResult,
    ResultStore,
    SupervisedPool,
    SupervisionPolicy,
    WorkerFault,
    WorkerFaultSchedule,
)
from repro.experiments.fig11_ber_cdf import placement_trial

from conftest import ARTIFACT_DIR, record

CHAOS_TRIALS = 16
CHAOS_SHARDS = 4


def test_chaotic_campaign_recovers_every_trial():
    """Crash + hang + corrupt across shards; degrade recovers them all."""
    faults = WorkerFaultSchedule(faults={
        (0, 1): WorkerFault(kind="crash"),
        # hangs well past the 2 s deadline, but short enough that the
        # stuck worker does not stall interpreter shutdown for long
        (1, 1): WorkerFault(kind="hang", delay_s=4.0),
        (2, 1): WorkerFault(kind="corrupt"),
        # shard 3 is poison: sabotaged on every allowed attempt, so
        # only the degrade fallback can bring its trials home.
        (3, 1): WorkerFault(kind="crash"),
        (3, 2): WorkerFault(kind="crash"),
    })
    pool = SupervisedPool(
        jobs=2, faults=faults,
        policy=SupervisionPolicy(max_attempts=2, backoff_base_s=0.01,
                                 shard_timeout_s=2.0,
                                 on_failure="degrade"))
    outcome = Campaign(placement_trial, CHAOS_TRIALS, master_seed=3,
                       num_shards=CHAOS_SHARDS, executor=pool).run()
    assert not outcome.is_partial
    assert outcome.num_trials == CHAOS_TRIALS

    serial = Campaign(placement_trial, CHAOS_TRIALS, master_seed=3,
                      num_shards=CHAOS_SHARDS).run()
    assert [r.values for r in outcome.results] \
        == [r.values for r in serial.results]
    assert [r.seed for r in outcome.results] \
        == [r.seed for r in serial.results]

    report = pool.last_report
    assert report is not None
    kinds = sorted({f.kind for f in report.failures})
    assert kinds == ["error", "invalid", "timeout"]
    assert report.degraded == (3,)
    assert report.abandoned == ()
    record("engine_chaos",
           f"fig11-class sweep, {CHAOS_TRIALS} trials / "
           f"{CHAOS_SHARDS} shards under injected "
           f"crash+hang+corrupt: {report.retries} retries, "
           f"shard 3 recovered in-process; result exactly equals "
           f"the serial reference.")


def test_poison_shard_quarantine_journal_artifact(tmp_path):
    """Quarantine ends explicit and journaled; the journal is archived."""
    store_path = tmp_path / "campaign.jsonl"
    faults = WorkerFaultSchedule(faults={
        (1, 1): WorkerFault(kind="crash"),
        (1, 2): WorkerFault(kind="corrupt"),
    })
    pool = SupervisedPool(
        jobs=2, faults=faults,
        policy=SupervisionPolicy(max_attempts=2, backoff_base_s=0.01,
                                 on_failure="quarantine"))
    partial = Campaign(placement_trial, CHAOS_TRIALS, master_seed=3,
                       num_shards=CHAOS_SHARDS, executor=pool,
                       store=store_path).run()
    assert isinstance(partial, PartialCampaignResult)
    assert partial.quarantined_shards == (1,)
    assert partial.num_trials == CHAOS_TRIALS - len(partial.missing_trials)

    store = ResultStore(store_path)
    attempts = store.load_attempts()
    assert [(f.shard_id, f.kind) for f in attempts] \
        == [(1, "error"), (1, "invalid")]
    assert store.load_quarantined() == (1,)

    # Archive the quarantine journal: CI uploads it as the chaos
    # forensics artifact.
    ARTIFACT_DIR.mkdir(exist_ok=True)
    artifact = ARTIFACT_DIR / "engine-chaos-journal.jsonl"
    artifact.write_text(store_path.read_text())
    record("engine_quarantine",
           f"campaign of {CHAOS_TRIALS} trials / {CHAOS_SHARDS} shards "
           f"with a poison shard: quarantined shards "
           f"{list(partial.quarantined_shards)}, missing trials "
           f"{list(partial.missing_trials)}; every attempt and the "
           f"quarantine decision are journaled.\n"
           f"journal: {artifact.name} "
           f"({artifact.stat().st_size} bytes)")

    # The journal is a working checkpoint, not just forensics: a
    # fault-free re-run completes the campaign from it.
    resumed = Campaign(placement_trial, CHAOS_TRIALS, master_seed=3,
                       num_shards=CHAOS_SHARDS, store=store_path).run()
    assert not resumed.is_partial
    assert resumed.executed_shards == (1,)

