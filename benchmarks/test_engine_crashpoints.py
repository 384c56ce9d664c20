"""Durability gates: every storage crash point resumes to the truth.

The headline guarantee of :mod:`repro.durability`, pinned in CI: for
*every* syscall a journaled campaign makes — enumerated, not sampled —
and for every fault kind the harness can inject at it (torn write,
short write, bit flip, ``ENOSPC``, ``EIO``, crash), a resumed campaign
yields a byte-identical full result or an explicit
:class:`PartialCampaignResult`.  Silent corruption is not an outcome.

Also gated here:

* the ``repro fsck`` report for a faulted journal is archived to
  ``benchmarks/artifacts/`` so CI uploads real repair forensics (it
  names temporary paths, so it is not checked in);
* the durable seam is close to free: a fault-free journaled campaign
  costs at most 5% wall-clock (plus a fixed epsilon) over the PR 6
  style raw-``open()`` journal it replaced.
"""

from __future__ import annotations

import json
import os
import time

from repro.durability import (
    FS_FAULT_KINDS,
    FaultyFs,
    FsFault,
    InjectedFsCrash,
    fsck_path,
)
from repro.engine import Campaign
from repro.engine.store import ResultStore, StoreError

from conftest import ARTIFACT_DIR, record

SWEEP_TRIALS = 6
SWEEP_SHARDS = 3
MASTER_SEED = 5
MAX_OVERHEAD = 1.05
OVERHEAD_EPSILON_S = 0.5
OVERHEAD_SHARDS = 64


def sweep_trial(seed: int, index: int) -> dict:
    """Storage gates measure I/O, not physics: the trial is cheap."""
    return {"v": index * index}


def run_journaled(path, fs=None):
    return Campaign(sweep_trial, SWEEP_TRIALS,
                    master_seed=MASTER_SEED,
                    num_shards=SWEEP_SHARDS,
                    store=ResultStore(path, fs=fs)).run()


def enumerate_ops(tmp_path) -> int:
    """One fault-free instrumented run = the complete crash-point list."""
    probe = FaultyFs()
    run_journaled(tmp_path / "probe.jsonl", fs=probe)
    assert not probe.crashed
    return probe.op_count


def test_every_crash_point_resumes_byte_identical(tmp_path):
    """The sweep: all ops x all fault kinds, then repair-and-resume."""
    clean = run_journaled(tmp_path / "clean.jsonl")
    clean_lines = sorted(
        (tmp_path / "clean.jsonl").read_bytes().splitlines())
    num_ops = enumerate_ops(tmp_path)
    assert num_ops >= SWEEP_SHARDS * 3  # create + one append per shard

    outcomes: dict[str, int] = {}
    for kind in FS_FAULT_KINDS:
        for op in range(1, num_ops + 1):
            path = tmp_path / f"{kind}-{op}.jsonl"
            faulty = FaultyFs({op: FsFault(kind)})
            try:
                run_journaled(path, fs=faulty)
            except InjectedFsCrash:
                outcomes[f"{kind}:crashed"] = \
                    outcomes.get(f"{kind}:crashed", 0) + 1
            except OSError:
                # enospc/eio surfaced to the campaign; loud is allowed.
                outcomes[f"{kind}:errored"] = \
                    outcomes.get(f"{kind}:errored", 0) + 1
            else:
                outcomes[f"{kind}:survived"] = \
                    outcomes.get(f"{kind}:survived", 0) + 1

            if path.exists():
                report = fsck_path(path, repair=True)
                assert report.fatal is None or not path.exists() or \
                    report.kind in ("journal", "unknown")
                if report.fatal is not None:
                    # Unusable journal (e.g. torn header): start over,
                    # exactly what the fsck diagnostic tells the user.
                    path.unlink()

            # The "rebooted process": a fresh, fault-free backend.
            try:
                resumed = run_journaled(path)
            except StoreError:
                # Damage in the unhashed header (a bit-flipped
                # fingerprint digit) reads as a different campaign;
                # the resume refuses loudly and the diagnostic says to
                # remove the file — do that and start clean.
                path.unlink()
                resumed = run_journaled(path)
            assert not resumed.is_partial, \
                f"{kind} at op {op}: partial after clean resume"
            assert resumed.results == clean.results, \
                f"{kind} at op {op}: resumed result diverged"
            # Record order may differ (a repaired shard re-runs and
            # appends last) but every record must be byte-identical.
            assert sorted(path.read_bytes().splitlines()) \
                == clean_lines, \
                f"{kind} at op {op}: repaired journal records diverged"

    assert sum(outcomes.values()) == len(FS_FAULT_KINDS) * num_ops
    record("engine_crashpoints",
           f"{SWEEP_TRIALS}-trial/{SWEEP_SHARDS}-shard campaign makes "
           f"{num_ops} mutating syscalls; swept all "
           f"{len(FS_FAULT_KINDS) * num_ops} (kind x op) fault points: "
           f"every resume byte-identical to the fault-free journal. "
           f"outcomes: {json.dumps(outcomes, sort_keys=True)}")


def test_fsck_report_artifact(tmp_path):
    """A faulted journal's fsck report is archived for CI upload."""
    path = tmp_path / "damaged.jsonl"
    # A lying short write on a shard append leaves interior corruption.
    probe = FaultyFs()
    run_journaled(tmp_path / "probe.jsonl", fs=probe)
    append_write = next(
        i + 1 for i, entry in enumerate(probe.trace)
        if entry.startswith("write:") and i + 1 > 5
    )  # the first shard-append write after the 5-op atomic create
    faulty = FaultyFs({append_write: FsFault("short_write")})
    run_journaled(path, fs=faulty)

    before = fsck_path(path)
    assert before.exit_code == 1
    repaired = fsck_path(path, repair=True)
    assert repaired.repaired
    after = fsck_path(path)
    assert after.exit_code == 0

    ARTIFACT_DIR.mkdir(exist_ok=True)
    artifact = ARTIFACT_DIR / "engine-fsck-report.json"
    artifact.write_text(json.dumps(
        {"found": before.to_dict(), "repaired": repaired.to_dict(),
         "verified": after.to_dict()}, indent=1, sort_keys=True))
    record("engine_fsck",
           f"short-write corruption at syscall {append_write}: fsck "
           f"found {len(before.issues)} issue(s), repaired via "
           f"quarantine sidecar, re-scan clean.\n"
           f"report: {artifact.name} ({artifact.stat().st_size} bytes)")

    resumed = run_journaled(path)
    assert not resumed.is_partial


class _Pr6Store(ResultStore):
    """The pre-durability journal I/O, for the overhead baseline.

    What PR 6 shipped: plain ``open("w")`` creation (no temp file, no
    rename, no directory fsync) and per-line append with fsync but
    none of the seam's bookkeeping.
    """

    def create(self, plan) -> None:
        from repro.durability import canonical_json
        header = {
            "record": "campaign", "format": "repro-engine",
            "version": 2, "fingerprint": plan.fingerprint(),
            "master_seed": plan.master_seed,
            "num_trials": plan.num_trials,
            "num_shards": plan.num_shards,
        }
        with open(self.path, "w", encoding="utf-8") as fh:
            fh.write(canonical_json(header) + "\n")

    def _append(self, payload) -> None:
        from repro.durability import canonical_json
        with open(self.path, "a", encoding="utf-8") as fh:
            fh.write(canonical_json(payload) + "\n")
            fh.flush()
            os.fsync(fh.fileno())


def test_durable_seam_overhead_is_negligible(tmp_path):
    """Fault-free journaled run costs <= 5% over the PR 6 raw I/O."""
    trials = OVERHEAD_SHARDS  # one trial per shard = one append each

    def run_with(store):
        return Campaign(sweep_trial, trials, master_seed=1,
                        num_shards=OVERHEAD_SHARDS, store=store).run()

    # Warm both paths (page cache, imports).
    run_with(_Pr6Store(tmp_path / "warm-old.jsonl"))
    run_with(ResultStore(tmp_path / "warm-new.jsonl"))

    start = time.perf_counter()
    old = run_with(_Pr6Store(tmp_path / "old.jsonl"))
    old_s = time.perf_counter() - start

    start = time.perf_counter()
    new = run_with(ResultStore(tmp_path / "new.jsonl"))
    new_s = time.perf_counter() - start

    assert new.results == old.results
    overhead = new_s / old_s if old_s else 1.0
    record("engine_durability_overhead",
           f"{OVERHEAD_SHARDS}-shard journaled campaign: raw PR6 I/O "
           f"{old_s:.3f} s, durable seam {new_s:.3f} s -> "
           f"{overhead:.2f}x")
    assert new_s <= old_s * MAX_OVERHEAD + OVERHEAD_EPSILON_S, \
        f"durable seam overhead {overhead:.2f}x exceeds " \
        f"{MAX_OVERHEAD:.2f}x (+{OVERHEAD_EPSILON_S} s slack)"
