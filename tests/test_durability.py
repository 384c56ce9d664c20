"""Unit tests for repro.durability: seam, faults, fsck, integrations.

The storage analogue of ``test_engine_supervisor.py``: every fault kind
the harness can inject, the atomicity of :func:`atomic_replace` across
its full crash-point sweep, the scan/repair contract of ``repro fsck``,
and the regressions the migrations bought (journal creation fsyncs its
directory; checkpoint saves are atomic; a resumed campaign is identical
to an uninterrupted one after any single crash).
"""

from __future__ import annotations

import os
import pickle

import pytest

from repro.durability import (
    DurableFile,
    FaultyFs,
    FsFault,
    FsFaultSchedule,
    InjectedFsCrash,
    IntegrityError,
    append_line,
    atomic_replace,
    canonical_json,
    digest,
    fsck_path,
    fsck_paths,
    scan_journal_text,
    seal,
    verify_sealed,
)
from repro.engine import Campaign, CampaignPlan
from repro.engine.store import ResultStore


def trial(seed: int, index: int) -> dict:
    return {"v": index * 3}


def make_journal(path, faulty=None, num_trials=6, num_shards=3):
    """A small real campaign journal (optionally via a faulty backend)."""
    store = ResultStore(path, fs=faulty)
    Campaign(trial, num_trials, master_seed=11,
             num_shards=num_shards, store=store).run()
    return store


class TestIntegrity:
    def test_seal_verify_round_trip(self):
        payload = {"record": "shard", "values": [1, 2.5, None]}
        assert verify_sealed(seal(payload)) == payload

    def test_tampering_is_detected(self):
        sealed = seal({"record": "shard", "v": 1})
        sealed["v"] = 2
        with pytest.raises(IntegrityError):
            verify_sealed(sealed)

    def test_missing_hash_is_detected(self):
        with pytest.raises(IntegrityError):
            verify_sealed({"record": "shard"})

    def test_digest_is_key_order_independent(self):
        assert digest({"a": 1, "b": 2}) == digest({"b": 2, "a": 1})

    def test_canonical_json_is_compact_and_sorted(self):
        assert canonical_json({"b": 1, "a": 2}) == '{"a":2,"b":1}'


class TestAtomicReplace:
    def test_writes_and_returns_path(self, tmp_path):
        target = tmp_path / "x.json"
        assert atomic_replace(target, "hello\n") == target
        assert target.read_text() == "hello\n"
        assert not (tmp_path / ".x.json.tmp").exists()

    def test_op_sequence_ends_with_directory_fsync(self, tmp_path):
        faulty = FaultyFs()
        atomic_replace(tmp_path / "x.json", "hi", fs=faulty)
        ops = [entry.split(":")[0] for entry in faulty.trace]
        assert ops == ["open", "write", "fsync", "replace", "fsync_dir"]
        assert faulty.trace[-1] == f"fsync_dir:{tmp_path.name}"

    @pytest.mark.parametrize("crash_op", [1, 2, 3, 4])
    def test_crash_before_publish_preserves_old_content(
            self, tmp_path, crash_op):
        target = tmp_path / "x.json"
        target.write_text("old")
        faulty = FaultyFs(FsFaultSchedule.crash_at(crash_op))
        with pytest.raises(InjectedFsCrash):
            atomic_replace(target, "new", fs=faulty)
        assert target.read_text() == "old"

    def test_crash_after_rename_still_published(self, tmp_path):
        target = tmp_path / "x.json"
        target.write_text("old")
        faulty = FaultyFs(FsFaultSchedule.crash_at(5))  # the fsync_dir
        with pytest.raises(InjectedFsCrash):
            atomic_replace(target, "new", fs=faulty)
        assert target.read_text() == "new"

    def test_enospc_survivable_and_leaves_no_debris(self, tmp_path):
        target = tmp_path / "x.json"
        target.write_text("old")
        faulty = FaultyFs(FsFaultSchedule.single("enospc", 2))
        with pytest.raises(OSError):
            atomic_replace(target, "new", fs=faulty)
        assert not faulty.crashed
        assert target.read_text() == "old"
        # A fresh attempt through the same (uncrashed) backend succeeds.
        atomic_replace(target, "newer", fs=faulty)
        assert target.read_text() == "newer"
        assert not (tmp_path / ".x.json.tmp").exists()


class TestDurableFile:
    def test_every_append_is_fsynced(self, tmp_path):
        faulty = FaultyFs()
        with DurableFile(tmp_path / "j.jsonl", fs=faulty,
                         create=True) as handle:
            handle.append("a\n")
            handle.append("b\n")
        ops = [entry.split(":")[0] for entry in faulty.trace]
        assert ops == ["open", "fsync_dir",
                       "write", "fsync", "write", "fsync"]
        assert (tmp_path / "j.jsonl").read_text() == "a\nb\n"

    def test_create_fsyncs_the_parent_directory(self, tmp_path):
        faulty = FaultyFs()
        DurableFile(tmp_path / "j.jsonl", fs=faulty, create=True).close()
        assert f"fsync_dir:{tmp_path.name}" in faulty.trace

    def test_append_after_close_raises(self, tmp_path):
        handle = DurableFile(tmp_path / "j.jsonl", create=True)
        handle.close()
        handle.close()  # idempotent
        with pytest.raises(ValueError):
            handle.append("x\n")

    def test_append_line_appends(self, tmp_path):
        path = tmp_path / "j.jsonl"
        path.write_text("one\n")
        append_line(path, "two\n")
        assert path.read_text() == "one\ntwo\n"


class TestFaultyFs:
    def _open(self, faulty, path):
        return faulty.open(str(path),
                           os.O_WRONLY | os.O_CREAT | os.O_APPEND)

    def test_torn_write_leaves_prefix_and_kills(self, tmp_path):
        path = tmp_path / "f"
        faulty = FaultyFs(FsFaultSchedule.single(
            "torn_write", 2, fraction=0.5))
        fd = self._open(faulty, path)
        with pytest.raises(InjectedFsCrash):
            faulty.write(fd, b"abcdefgh")
        faulty.close(fd)
        assert path.read_bytes() == b"abcd"
        assert faulty.crashed

    def test_short_write_lies_and_survives(self, tmp_path):
        path = tmp_path / "f"
        faulty = FaultyFs(FsFaultSchedule.single(
            "short_write", 2, fraction=0.25))
        fd = self._open(faulty, path)
        assert faulty.write(fd, b"abcdefgh") == 8  # the lie
        faulty.close(fd)
        assert path.read_bytes() == b"ab"
        assert not faulty.crashed

    def test_bit_flip_flips_exactly_one_bit(self, tmp_path):
        path = tmp_path / "f"
        faulty = FaultyFs(FsFaultSchedule.single("bit_flip", 2, bit=9))
        fd = self._open(faulty, path)
        assert faulty.write(fd, b"\x00\x00") == 2
        faulty.close(fd)
        assert path.read_bytes() == b"\x00\x02"

    def test_errno_faults_carry_the_right_errno(self, tmp_path):
        import errno

        for kind, code in (("enospc", errno.ENOSPC), ("eio", errno.EIO)):
            faulty = FaultyFs(FsFaultSchedule.single(kind, 1))
            with pytest.raises(OSError) as info:
                self._open(faulty, tmp_path / "f")
            assert info.value.errno == code

    def test_crashed_backend_is_inert(self, tmp_path):
        path = tmp_path / "f"
        path.write_bytes(b"keep")
        faulty = FaultyFs(FsFaultSchedule.crash_at(1))
        with pytest.raises(InjectedFsCrash):
            self._open(faulty, path)
        # A dead process makes no syscalls: everything below must
        # change nothing on disk and raise only on open.
        with pytest.raises(InjectedFsCrash):
            self._open(faulty, path)
        faulty.replace(str(path), str(tmp_path / "g"))
        faulty.remove(str(path))
        assert path.read_bytes() == b"keep"
        assert faulty.op_count == 1

    def test_non_write_ordinals_degrade_to_crash(self, tmp_path):
        # A torn_write scheduled on an fsync still faults that ordinal.
        faulty = FaultyFs(FsFaultSchedule.single("torn_write", 2))
        fd = self._open(faulty, tmp_path / "f")
        with pytest.raises(InjectedFsCrash):
            faulty.fsync(fd)
        assert faulty.crashed

    def test_empty_schedule_is_a_pure_op_counter(self, tmp_path):
        faulty = FaultyFs()
        atomic_replace(tmp_path / "x", "data", fs=faulty)
        assert faulty.op_count == 5
        assert not faulty.crashed


class TestFsFaultSchedule:
    def test_build_is_deterministic(self):
        a = FsFaultSchedule.build(3, 50, crash=0.2, bit_flip=0.1)
        b = FsFaultSchedule.build(3, 50, crash=0.2, bit_flip=0.1)
        assert a == b
        assert a.num_faults > 0

    def test_different_seeds_differ(self):
        a = FsFaultSchedule.build(3, 200, crash=0.3)
        b = FsFaultSchedule.build(4, 200, crash=0.3)
        assert a != b

    def test_schedules_pickle(self):
        schedule = FsFaultSchedule.build(1, 20, torn_write=0.5)
        assert pickle.loads(pickle.dumps(schedule)) == schedule

    def test_rates_must_not_exceed_one(self):
        with pytest.raises(ValueError):
            FsFaultSchedule.build(0, 10, crash=0.7, eio=0.7)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            FsFault(kind="gremlin")  # type: ignore[arg-type]

    def test_ordinals_are_one_based(self):
        with pytest.raises(ValueError):
            FsFaultSchedule.crash_at(0)


class TestJournalScan:
    def test_clean_journal(self, tmp_path):
        path = tmp_path / "j.jsonl"
        make_journal(path)
        scan = scan_journal_text(path.read_text())
        assert scan.clean
        assert scan.header is not None
        assert len(scan.records) == 3

    def test_final_bad_line_is_a_torn_tail(self, tmp_path):
        path = tmp_path / "j.jsonl"
        make_journal(path)
        with open(path, "a") as fh:
            fh.write('{"record":"shard","trunc')
        scan = scan_journal_text(path.read_text())
        assert scan.torn_tail is not None
        assert not scan.corrupt
        assert len(scan.records) == 3

    def test_interior_bad_line_is_corrupt(self, tmp_path):
        path = tmp_path / "j.jsonl"
        make_journal(path)
        lines = path.read_text().splitlines()
        lines[1] = lines[1][:-5] + 'oops"'
        scan = scan_journal_text("\n".join(lines) + "\n")
        assert [issue.line for issue in scan.corrupt] == [2]
        assert scan.torn_tail is None
        assert len(scan.records) == 2

    def test_header_errors_are_fatal_not_line_issues(self):
        for text, fragment in [
                ("", "empty"),
                ("garbage\n", "not JSON"),
                ('{"record":"shard"}\n', "missing header"),
                ('{"record":"campaign","version":99}\n', "schema 99")]:
            scan = scan_journal_text(text)
            assert scan.header_error is not None
            assert fragment in scan.header_error


class TestFsck:
    def test_clean_journal_exits_zero(self, tmp_path):
        path = tmp_path / "j.jsonl"
        make_journal(path)
        report = fsck_path(path)
        assert report.kind == "journal"
        assert report.exit_code == 0
        assert "clean" in report.summary()

    def test_repair_round_trip(self, tmp_path):
        path = tmp_path / "j.jsonl"
        make_journal(path)
        lines = path.read_text().splitlines()
        lines[1] = lines[1].replace('"record":"shard"',
                                    '"record":"sharf"')
        path.write_text("\n".join(lines) + "\n")

        found = fsck_path(path)
        assert found.exit_code == 1 and not found.repaired

        repaired = fsck_path(path, repair=True)
        assert repaired.repaired
        assert repaired.quarantine_path == f"{path}.quarantine"
        assert "sharf" in (tmp_path / "j.jsonl.quarantine").read_text()

        assert fsck_path(path).exit_code == 0
        # The salvaged journal resumes: only the damaged shard re-runs.
        store = ResultStore(path)
        result = Campaign(trial, 6, master_seed=11, num_shards=3,
                          store=store).run()
        assert result.num_trials == 6

    def test_headerless_journal_is_fatal(self, tmp_path):
        path = tmp_path / "j.jsonl"
        make_journal(path)
        body = path.read_text().split("\n", 1)[1]
        path.write_text("]]corrupt[[\n" + body)
        report = fsck_path(path, repair=True)
        assert report.exit_code == 2
        assert not report.repaired
        assert "FATAL" in report.summary()

    def test_checkpoint_verify_and_quarantine(self, tmp_path):
        from repro.cluster import ApCheckpoint
        from repro.node.access_point import MmxAccessPoint

        ap = MmxAccessPoint()
        ap.register_node(0, 1e6)
        path = tmp_path / "ap0.ckpt"
        ApCheckpoint.capture(ap).save(path)
        assert fsck_path(path).exit_code == 0

        path.write_text(path.read_text().replace('"plans"', '"plons"'))
        report = fsck_path(path, repair=True)
        assert report.exit_code == 1 and report.repaired
        assert not path.exists()  # poison moved aside, not restored
        assert (tmp_path / "ap0.ckpt.corrupt").exists()

    def test_telemetry_export_repair(self, tmp_path):
        from repro.telemetry import Recorder, write_jsonl

        recorder = Recorder()
        recorder.count("x.events", 3)
        path = tmp_path / "t.jsonl"
        write_jsonl(recorder, path)
        assert fsck_path(path).exit_code == 0

        with open(path, "a") as fh:
            fh.write("not json\n")
        report = fsck_path(path, repair=True)
        assert report.exit_code == 1 and report.repaired
        assert fsck_path(path).exit_code == 0

    def test_unknown_artifact_is_fatal(self, tmp_path):
        path = tmp_path / "readme.txt"
        path.write_text("hello\n")
        report = fsck_path(path)
        assert report.exit_code == 2

    def test_fsck_paths_returns_worst_exit_code(self, tmp_path):
        good = tmp_path / "j.jsonl"
        make_journal(good)
        bad = tmp_path / "nope.txt"
        bad.write_text("x\n")
        reports, exit_code = fsck_paths([good, bad])
        assert [r.exit_code for r in reports] == [0, 2]
        assert exit_code == 2


class TestStoreIntegration:
    """The migrations' regressions: store + checkpoint on the seam."""

    def test_journal_creation_fsyncs_its_directory(self, tmp_path):
        """The PR 6 journal could vanish wholesale: created, written,
        fsynced — but its *directory entry* never synced.  Creation now
        goes through atomic_replace, whose last op is the dir fsync."""
        faulty = FaultyFs()
        store = ResultStore(tmp_path / "j.jsonl", fs=faulty)
        store.create(CampaignPlan.build(master_seed=1, num_trials=2))
        ops = [entry.split(":")[0] for entry in faulty.trace]
        assert ops == ["open", "write", "fsync", "replace", "fsync_dir"]

    def test_every_shard_append_is_fsynced(self, tmp_path):
        faulty = FaultyFs()
        make_journal(tmp_path / "j.jsonl", faulty=faulty)
        writes = faulty.trace.count("write:j.jsonl")
        fsyncs = faulty.trace.count("fsync:j.jsonl")
        assert writes == 3 and fsyncs == 3

    def test_resume_after_any_single_crash_matches_clean_run(
            self, tmp_path):
        """The headline guarantee, in miniature (the full sweep is the
        ``benchmarks/test_engine_crashpoints.py`` gate)."""
        clean = Campaign(trial, 6, master_seed=11, num_shards=3).run()
        probe = FaultyFs()
        make_journal(tmp_path / "probe.jsonl", faulty=probe)
        for crash_op in range(1, probe.op_count + 1):
            path = tmp_path / f"j{crash_op}.jsonl"
            faulty = FaultyFs(FsFaultSchedule.crash_at(crash_op))
            try:
                make_journal(path, faulty=faulty)
            except InjectedFsCrash:
                pass
            if path.exists():
                fsck_path(path, repair=True)
            resumed = make_journal(path)  # fresh backend = rebooted
            del resumed
            result = Campaign(trial, 6, master_seed=11,
                              num_shards=3,
                              store=ResultStore(path)).run()
            assert result.results == clean.results, \
                f"divergence after crash at op {crash_op}"

    def test_checkpoint_save_is_atomic(self, tmp_path):
        from repro.cluster import ApCheckpoint
        from repro.node.access_point import MmxAccessPoint

        ap = MmxAccessPoint()
        ap.register_node(0, 1e6)
        snapshot = ApCheckpoint.capture(ap)
        path = tmp_path / "ap0.ckpt"
        snapshot.save(path)
        before = path.read_text()

        ap.register_node(1, 1e6)
        for crash_op in range(1, 5):
            faulty = FaultyFs(FsFaultSchedule.crash_at(crash_op))
            with pytest.raises(InjectedFsCrash):
                ApCheckpoint.capture(ap).save(path, fs=faulty)
            assert path.read_text() == before
            assert ApCheckpoint.load(path) == snapshot
