"""Hypothesis fuzz: arbitrary journal damage never yields a wrong merge.

Satellite of the durability PR: flip or truncate bytes anywhere in a
campaign journal — v1 (shard records only) or v2 — and the system must
*salvage or quarantine*, never silently merge damaged data:

* the scanner classifies every line without raising;
* every shard the store still returns is byte-identical to the clean
  run's shard (hash verification makes a wrong-but-plausible record
  unrepresentable under single-site damage);
* ``repro fsck --repair`` leaves a journal that scans clean, and a
  campaign resumed from it reproduces the uncorrupted results exactly;
* an unusable header fails loudly (``StoreError`` / fsck FATAL), never
  partially.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.durability import fsck_path, scan_journal_text
from repro.engine import Campaign, CampaignPlan
from repro.engine.store import ResultStore, StoreError

MASTER_SEED = 23
NUM_TRIALS = 6
NUM_SHARDS = 3


def trial(seed: int, index: int) -> dict:
    return {"v": index * 7}


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    """Clean v1/v2 journal bytes plus the clean per-shard truth."""
    root = tmp_path_factory.mktemp("fuzz-corpus")
    path = root / "clean.jsonl"
    store = ResultStore(path)
    clean = Campaign(trial, NUM_TRIALS, master_seed=MASTER_SEED,
                     num_shards=NUM_SHARDS, store=store).run()
    v2 = path.read_bytes()
    # A v1 journal is the same layout with the old header version and
    # shard records only (which this journal already is).
    v1 = v2.replace(b'"version":2', b'"version":1', 1)
    plan = CampaignPlan.build(master_seed=MASTER_SEED,
                              num_trials=NUM_TRIALS,
                              num_shards=NUM_SHARDS)
    truth = ResultStore(path).load_or_create(plan)
    return {"v1": v1, "v2": v2, "plan": plan, "truth": truth,
            "clean_results": clean.results,
            "dir": tmp_path_factory.mktemp("fuzz-work")}


def damage(data: bytes, kind: str, position: int, bit: int) -> bytes:
    """One deterministic corruption of the journal bytes."""
    position %= len(data)
    if kind == "truncate":
        return data[:position]
    mutated = bytearray(data)
    mutated[position] ^= 1 << bit
    return bytes(mutated)


def assert_no_wrong_merge(path, corpus) -> None:
    """Whatever loads must equal the clean truth, shard for shard."""
    store = ResultStore(path)
    try:
        loaded = store.load_or_create(corpus["plan"])
    except StoreError:
        return  # loud rejection is always allowed
    for shard_id, result in loaded.items():
        assert result.trials == corpus["truth"][shard_id].trials, \
            f"shard {shard_id} silently diverged"


class TestJournalFuzz:
    @given(version=st.sampled_from(["v1", "v2"]),
           kind=st.sampled_from(["flip", "truncate"]),
           position=st.integers(min_value=0, max_value=10_000),
           bit=st.integers(min_value=0, max_value=7))
    @settings(max_examples=120, deadline=None)
    def test_salvage_or_quarantine_never_wrong(
            self, corpus, version, kind, position, bit):
        mutated = damage(corpus[version], kind, position, bit)
        if not mutated:
            return  # an empty file is "no journal", not damage

        # 1. The scanner classifies arbitrary damage without raising.
        try:
            text = mutated.decode("utf-8")
        except UnicodeDecodeError:
            text = None
        if text is not None:
            scan = scan_journal_text(text)
            assert (len(scan.records) + len(scan.corrupt)
                    + (1 if scan.torn_tail else 0)
                    <= mutated.count(b"\n") + 1)

        path = corpus["dir"] / f"{version}.jsonl"
        path.write_bytes(mutated)

        # 2. Whatever the store still resumes is the clean truth.
        assert_no_wrong_merge(path, corpus)

        # 3. Repair converges: afterwards the journal is clean or the
        #    file was declared unusable — and a resumed campaign
        #    reproduces the uncorrupted results byte for byte.
        report = fsck_path(path, repair=True)
        if report.fatal is not None:
            return
        assert fsck_path(path).exit_code == 0, \
            "repair did not converge to a clean journal"
        assert_no_wrong_merge(path, corpus)
        try:
            resumed = Campaign(trial, NUM_TRIALS,
                               master_seed=MASTER_SEED,
                               num_shards=NUM_SHARDS,
                               store=ResultStore(path)).run()
        except StoreError:
            # Damage landed in the (unhashed) header — e.g. inside the
            # fingerprint — so the journal reads as a *different*
            # campaign and resume refuses loudly.  Allowed: loud, never
            # wrong.
            return
        assert resumed.results == corpus["clean_results"]

    @given(position=st.integers(min_value=0, max_value=10_000),
           bit=st.integers(min_value=0, max_value=7))
    @settings(max_examples=40, deadline=None)
    def test_repair_is_idempotent(self, corpus, position, bit):
        mutated = damage(corpus["v2"], "flip", position, bit)
        path = corpus["dir"] / "idem.jsonl"
        path.write_bytes(mutated)
        first = fsck_path(path, repair=True)
        if first.fatal is not None:
            return
        after_once = path.read_bytes()
        second = fsck_path(path, repair=True)
        assert second.exit_code == 0
        assert path.read_bytes() == after_once
