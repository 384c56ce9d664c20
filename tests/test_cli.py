"""Tests for the command-line interface."""

import math
import multiprocessing
from functools import partial

import pytest

from repro.cli import _chaos_duration_error, build_parser, main


def _trial_zero_explodes(rng, index, **_):
    """A fig11 stand-in whose first trial always fails (module-level so
    pool workers can unpickle it)."""
    if index == 0:
        raise RuntimeError("trial 0 exploded")
    return {"ber_with": 1e-3, "ber_without": 1e-2}


def _keyed_trial_zero_explodes(rng, index, keys=(), **_):
    """A stand-in trial returning 1.0 for each of ``keys`` whose first
    trial always fails (module-level so pool workers can unpickle it)."""
    if index == 0:
        raise RuntimeError("trial 0 exploded")
    return dict.fromkeys(keys, 1.0)


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_reproduce_accepts_names(self):
        args = build_parser().parse_args(["reproduce", "fig07", "table1"])
        assert args.names == ["fig07", "table1"]

    def test_link_defaults(self):
        args = build_parser().parse_args(["link"])
        assert args.distance == 3.0
        assert not args.blocked

    def test_network_options(self):
        args = build_parser().parse_args(["network", "--nodes", "5",
                                          "--seed", "9"])
        assert args.nodes == 5
        assert args.seed == 9

    def test_chaos_options(self):
        args = build_parser().parse_args(["chaos", "--scenario", "blockage",
                                          "--seed", "3", "--duration", "10"])
        assert args.scenario == "blockage"
        assert args.seed == 3
        assert args.duration == 10.0
        assert not args.ap_crash

    def test_chaos_ap_crash_flag(self):
        args = build_parser().parse_args(["chaos", "--ap-crash"])
        assert args.ap_crash
        assert not args.as_json

    def test_chaos_json_flag(self):
        args = build_parser().parse_args(["chaos", "--json"])
        assert args.as_json

    def test_chaos_has_no_jobs_flag(self):
        # The chaos sweep runs in one process, so its --json export
        # comes from one recorder.
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["chaos", "--scenario", "all",
                                       "--jobs", "2"])
        assert exc.value.code == 2

    def test_campaign_options(self):
        args = build_parser().parse_args(
            ["campaign", "fig11", "--trials", "12", "--seed", "5",
             "--jobs", "2", "--shards", "4", "--out", "c.jsonl",
             "--resume"])
        assert args.experiment == "fig11"
        assert args.trials == 12
        assert args.seed == 5
        assert args.jobs == 2
        assert args.shards == 4
        assert args.out == "c.jsonl"
        assert args.resume

    def test_campaign_defaults(self):
        args = build_parser().parse_args(["campaign", "fig13"])
        assert args.trials is None
        assert args.jobs == 1
        assert args.shards is None
        assert args.out is None
        assert not args.resume

    def test_campaign_rejects_unknown_experiment(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["campaign", "fig99"])

    @pytest.mark.parametrize("argv", [
        pytest.param(["campaign", "chaos"], id="no-chaos-preset"),
        pytest.param(["campaign", "fig11", "--duration", "5"],
                     id="no-duration-flag"),
    ])
    def test_campaign_has_no_chaos_sweep(self, argv, capsys):
        # The chaos sweep is `chaos --scenario all`, in one process.
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert capsys.readouterr().out == ""

    def test_campaign_supervision_options(self):
        args = build_parser().parse_args(
            ["campaign", "fig11", "--max-retries", "2",
             "--shard-timeout", "1.5", "--on-failure", "degrade"])
        assert args.max_retries == 2
        assert args.shard_timeout == 1.5
        assert args.on_failure == "degrade"

    def test_campaign_supervision_defaults_off(self):
        args = build_parser().parse_args(["campaign", "fig11"])
        assert args.max_retries is None
        assert args.shard_timeout is None
        assert args.on_failure is None

    def test_campaign_rejects_unknown_failure_mode(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["campaign", "fig11", "--on-failure", "explode"])

    def test_telemetry_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["telemetry"])

    def test_telemetry_summarize_takes_path(self):
        args = build_parser().parse_args(
            ["telemetry", "summarize", "run.jsonl"])
        assert args.telemetry_command == "summarize"
        assert args.path == "run.jsonl"

    def test_telemetry_flame_takes_path(self):
        args = build_parser().parse_args(["telemetry", "flame", "x.jsonl"])
        assert args.telemetry_command == "flame"

    def test_fsck_options(self):
        args = build_parser().parse_args(
            ["fsck", "a.jsonl", "b.ckpt", "--repair", "--json"])
        assert args.paths == ["a.jsonl", "b.ckpt"]
        assert args.repair and args.as_json

    def test_fsck_requires_a_path(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fsck"])


class TestCommands:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fig10" in out and "table1" in out

    def test_reproduce_single(self, capsys):
        assert main(["reproduce", "table1"]) == 0
        out = capsys.readouterr().out
        assert "mmX" in out and "Bluetooth" in out

    def test_reproduce_unknown_fails(self, capsys):
        assert main(["reproduce", "fig99"]) == 2
        assert "unknown" in capsys.readouterr().err

    def test_link_clear(self, capsys):
        assert main(["link", "--distance", "2.5"]) == 0
        out = capsys.readouterr().out
        assert "SNR with OTAM" in out

    def test_link_blocked_reports_inversion_state(self, capsys):
        assert main(["link", "--distance", "3.0", "--blocked"]) == 0
        assert "inverted" in capsys.readouterr().out

    def test_link_too_far_fails(self, capsys):
        assert main(["link", "--distance", "50"]) == 2

    def test_network(self, capsys):
        assert main(["network", "--nodes", "3"]) == 0
        out = capsys.readouterr().out
        assert "mean" in out
        assert out.count("node ") == 3

    def test_characterize(self, capsys):
        assert main(["characterize"]) == 0
        out = capsys.readouterr().out
        assert "sparse" in out

    def test_chaos_unknown_scenario_fails(self, capsys):
        assert main(["chaos", "--scenario", "nope"]) == 2
        assert "unknown scenario" in capsys.readouterr().err

    def test_campaign_fig11(self, capsys):
        assert main(["campaign", "fig11", "--trials", "6",
                     "--shards", "3"]) == 0
        out = capsys.readouterr().out
        assert "Fig. 11" in out

    def test_campaign_store_roundtrip(self, tmp_path, capsys):
        store = str(tmp_path / "fig11.jsonl")
        assert main(["campaign", "fig11", "--trials", "6",
                     "--out", store]) == 0
        first = capsys.readouterr().out
        # Same store without --resume is refused...
        assert main(["campaign", "fig11", "--trials", "6",
                     "--out", store]) == 2
        assert "--resume" in capsys.readouterr().err
        # ...and with --resume replays the journaled shards.
        assert main(["campaign", "fig11", "--trials", "6",
                     "--out", store, "--resume"]) == 0
        assert capsys.readouterr().out == first

    def test_campaign_resume_against_other_campaign_fails(
            self, tmp_path, capsys):
        store = str(tmp_path / "fig11.jsonl")
        assert main(["campaign", "fig11", "--trials", "6",
                     "--out", store]) == 0
        capsys.readouterr()
        assert main(["campaign", "fig11", "--trials", "7",
                     "--out", store, "--resume"]) == 2
        assert "different campaign" in capsys.readouterr().err

    def test_campaign_resume_needs_out(self, capsys):
        assert main(["campaign", "fig11", "--resume"]) == 2
        assert "--out" in capsys.readouterr().err

    def test_campaign_fig10_rejects_trials(self, capsys):
        assert main(["campaign", "fig10", "--trials", "9"]) == 2
        assert "grid" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, reason", [
        pytest.param(["campaign", "fig11", "--trials", "0"], "--trials",
                     id="fig11-zero-trials"),
        pytest.param(["campaign", "fig11", "--trials", "-2"], "--trials",
                     id="fig11-negative-trials"),
        pytest.param(["campaign", "fig13", "--trials", "0"], "--trials",
                     id="fig13-zero-trials"),
        pytest.param(["chaos", "--duration", "2"], "--duration",
                     id="chaos-inside-quiet-tail"),
        pytest.param(["chaos", "--scenario", "all", "--duration", "nan"],
                     "--duration", id="chaos-nan-duration"),
        pytest.param(["chaos", "--ap-crash", "--duration", "0"],
                     "--duration", id="ap-crash-zero-duration"),
        pytest.param(["chaos", "--ap-crash", "--duration", "5"],
                     "--duration", id="ap-crash-before-the-crash"),
        pytest.param(["network", "--nodes", "0"], "--nodes",
                     id="network-no-nodes"),
        pytest.param(["network", "--seed", "-1"], "--seed",
                     id="network-negative-seed"),
        pytest.param(["chaos", "--seed", "-1"], "--seed",
                     id="chaos-negative-seed"),
        pytest.param(["campaign", "fig11", "--seed", "-1"], "--seed",
                     id="campaign-negative-seed"),
        pytest.param(["admission", "saturate", "--seed", "-1"], "--seed",
                     id="admission-negative-seed"),
        pytest.param(["energy", "compare", "--seed", "-1"], "--seed",
                     id="energy-compare-negative-seed"),
        pytest.param(["energy", "outage", "--seed", "-1"], "--seed",
                     id="energy-outage-negative-seed"),
        pytest.param(["chaos", "--ap-crash", "--duration", "inf"],
                     "--duration", id="ap-crash-infinite-duration"),
        pytest.param(["admission", "saturate", "--load", "inf"], "--load",
                     id="admission-infinite-load"),
        pytest.param(["admission", "saturate", "--load", "nan"], "--load",
                     id="admission-nan-load"),
        pytest.param(["link", "--offset-deg", "nan"], "--offset-deg",
                     id="link-nan-offset"),
        pytest.param(["campaign", "fig11", "--shard-timeout", "inf"],
                     "--shard-timeout", id="campaign-infinite-shard-timeout"),
        pytest.param(["campaign", "fig11", "--shard-timeout", "nan"],
                     "--shard-timeout", id="campaign-nan-shard-timeout"),
        pytest.param(["link", "--distance", "0"], "--distance",
                     id="link-zero-distance"),
    ])
    def test_bad_arguments_are_usage_errors(self, argv, reason, capsys):
        """Rejected before running: one stderr line, exit code 2."""
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1
        assert reason in captured.err

    def test_chaos_duration_bound_is_the_quiet_tail(self, capsys):
        from repro.experiments.chaos import QUIET_TAIL_S

        assert main(["chaos", "--duration", str(QUIET_TAIL_S)]) == 2
        assert f"{QUIET_TAIL_S:g} s" in capsys.readouterr().err
        assert main(["chaos", "--duration", str(QUIET_TAIL_S + 0.5)]) == 0

    def test_ap_crash_duration_bound_is_the_crash_start(self, capsys):
        # The drill has no quiet tail; a run that ends before its crash
        # would report a failover that never happened.
        from repro.experiments.chaos import CRASH_START_S

        assert main(["chaos", "--ap-crash", "--duration",
                     str(CRASH_START_S)]) == 2
        assert f"{CRASH_START_S:g} s" in capsys.readouterr().err
        assert main(["chaos", "--ap-crash", "--duration",
                     str(CRASH_START_S + 0.5)]) == 0

    def test_chaos_duration_must_be_finite(self):
        # An infinite run never returns, so this checks the validator
        # directly: a regression fails here instead of hanging main().
        assert _chaos_duration_error(math.inf, ap_crash=False) is not None
        assert _chaos_duration_error(math.inf, ap_crash=True) is not None

    def test_campaign_bad_jobs_and_shards_fail(self, capsys):
        assert main(["campaign", "fig11", "--jobs", "0"]) == 2
        assert main(["campaign", "fig11", "--shards", "0"]) == 2

    def test_campaign_bad_supervision_knobs_fail(self, capsys):
        assert main(["campaign", "fig11", "--max-retries", "-1"]) == 2
        assert "--max-retries" in capsys.readouterr().err
        assert main(["campaign", "fig11", "--shard-timeout", "0"]) == 2
        assert "--shard-timeout" in capsys.readouterr().err

    def test_campaign_supervised_run_matches_unsupervised(self, capsys):
        assert main(["campaign", "fig11", "--trials", "6",
                     "--shards", "3"]) == 0
        plain = capsys.readouterr().out
        assert main(["campaign", "fig11", "--trials", "6",
                     "--shards", "3", "--jobs", "2",
                     "--max-retries", "2",
                     "--on-failure", "degrade"]) == 0
        captured = capsys.readouterr()
        assert captured.out == plain
        # no fault fired, so no supervision chatter either
        assert "supervised" not in captured.err

    def test_campaign_failure_diagnostic_is_one_line(
            self, tmp_path, capsys):
        store = str(tmp_path / "fig11.jsonl")
        assert main(["campaign", "fig11", "--trials", "6",
                     "--out", store]) == 0
        capsys.readouterr()
        assert main(["campaign", "fig11", "--trials", "7",
                     "--out", store, "--resume",
                     "--max-retries", "1"]) == 2
        err = capsys.readouterr().err
        diagnostic = [line for line in err.splitlines()
                      if line.startswith("repro campaign:")]
        assert len(diagnostic) == 1
        assert "StoreError" in diagnostic[0]
        assert f"journal: {store}" in diagnostic[0]

    @pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                        reason="workers see the patched trial only "
                               "when forked")
    def test_campaign_jobs_quarantines_a_failing_worker(
            self, monkeypatch, capsys):
        from repro.experiments import fig11_ber_cdf

        monkeypatch.setattr(fig11_ber_cdf, "placement_trial",
                            _trial_zero_explodes)
        assert main(["campaign", "fig11", "--trials", "4",
                     "--jobs", "2"]) == 1
        err = capsys.readouterr().err
        assert "repro campaign: supervised run survived 2 retries" in err
        assert "quarantined shards [0] never completed" in err

    @pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                        reason="workers see the patched trial only "
                               "when forked")
    @pytest.mark.parametrize("argv, module, trial, keys, title", [
        (["campaign", "fig13", "--trials", "4"],
         "repro.experiments.fig13_multinode", "network_trial",
         ("node_count", "mean_sinr_db"), "Fig. 13 — multi-node performance"),
        (["admission", "saturate", "--replicates", "2"],
         "repro.admission.saturation", "saturation_trial",
         ("blocking_probability", "fdm_share", "sdm_share",
          "mean_occupancy", "mean_fragmentation", "churn_ops"),
         "Admission saturation — blocking vs offered load"),
        (["energy", "compare", "--replicates", "2"],
         "repro.energy.compare", "compare_trial",
         ("cost_usd", "active_power_w", "energy_per_bit_j", "bitrate_bps",
          "range_m", "measured_ber", "duty_cycle", "delivery_ratio",
          "harvested_uw"),
         "Node-class comparison — Table 1 extended down-market"),
    ], ids=["fig13", "admission-saturate", "energy-compare"])
    def test_sweep_presets_render_a_partial_campaign(
            self, monkeypatch, capsys, argv, module, trial, keys, title):
        # These presets reshape trials onto their sweep; a quarantined
        # shard leaves NaN rows in the table instead of a crash.
        monkeypatch.setattr(module + "." + trial,
                            partial(_keyed_trial_zero_explodes, keys=keys))
        assert main(argv + ["--jobs", "2"]) == 1
        captured = capsys.readouterr()
        assert title in captured.out
        assert "nan" in captured.out
        assert "quarantined shards [0] never completed" in captured.err

    def test_chaos_ap_crash(self, capsys):
        assert main(["chaos", "--ap-crash", "--seed", "7"]) == 0
        out = capsys.readouterr().out
        assert "ap-crash failover" in out
        assert "frozen single-AP" in out

    def test_chaos_json_emits_telemetry_export(self, capsys):
        import json

        assert main(["chaos", "--scenario", "dropout",
                     "--duration", "5", "--json"]) == 0
        lines = capsys.readouterr().out.splitlines()
        records = [json.loads(line) for line in lines]
        assert records[0]["record"] == "meta"
        assert records[0]["format"] == "repro-telemetry"
        assert any(r["record"] == "counter"
                   and r["name"] == "chaos.steps" for r in records)

    def test_chaos_json_is_deterministic(self, capsys):
        argv = ["chaos", "--scenario", "dropout",
                "--duration", "5", "--seed", "11", "--json"]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        assert capsys.readouterr().out == first

    def test_telemetry_summarize_roundtrip(self, tmp_path, capsys):
        export = tmp_path / "run.jsonl"
        assert main(["chaos", "--scenario", "kitchen-sink",
                     "--duration", "6", "--json"]) == 0
        export.write_text(capsys.readouterr().out, encoding="utf-8")
        assert main(["telemetry", "summarize", str(export)]) == 0
        out = capsys.readouterr().out
        assert "telemetry summary" in out
        assert "chaos.steps" in out

    def test_telemetry_flame_emits_collapsed_stacks(self, tmp_path,
                                                    capsys):
        export = tmp_path / "run.jsonl"
        assert main(["chaos", "--scenario", "kitchen-sink",
                     "--duration", "6", "--json"]) == 0
        export.write_text(capsys.readouterr().out, encoding="utf-8")
        assert main(["telemetry", "flame", str(export)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines, "expected at least the scenario span"
        for line in lines:
            stack, value = line.rsplit(" ", 1)
            assert stack.startswith("chaos.scenario")
            assert int(value) >= 0

    def test_telemetry_summarize_missing_file_fails(self, tmp_path,
                                                    capsys):
        missing = tmp_path / "nope.jsonl"
        assert main(["telemetry", "summarize", str(missing)]) == 2
        assert "cannot read" in capsys.readouterr().err

    def test_telemetry_summarize_garbage_fails(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text("this is not json\n", encoding="utf-8")
        assert main(["telemetry", "summarize", str(bad)]) == 2
        assert "not a telemetry JSONL" in capsys.readouterr().err

    def _damaged_journal(self, tmp_path, capsys):
        """A real fig11 campaign journal with one corrupted record."""
        store = tmp_path / "fig11.jsonl"
        assert main(["campaign", "fig11", "--trials", "6",
                     "--out", str(store)]) == 0
        capsys.readouterr()
        lines = store.read_text().splitlines()
        lines[1] = lines[1].replace('"record":"shard"',
                                    '"record":"sharf"')
        store.write_text("\n".join(lines) + "\n")
        return store

    def test_fsck_clean_journal_exits_zero(self, tmp_path, capsys):
        store = tmp_path / "fig11.jsonl"
        assert main(["campaign", "fig11", "--trials", "6",
                     "--out", str(store)]) == 0
        capsys.readouterr()
        assert main(["fsck", str(store)]) == 0
        out = capsys.readouterr().out
        assert "clean" in out and out.count("\n") == 1

    def test_fsck_detect_repair_verify_cycle(self, tmp_path, capsys):
        store = self._damaged_journal(tmp_path, capsys)

        assert main(["fsck", str(store)]) == 1
        first = capsys.readouterr().out
        assert "--repair" in first and first.count("\n") == 1

        assert main(["fsck", str(store), "--repair"]) == 1
        assert "quarantine" in capsys.readouterr().out

        assert main(["fsck", str(store)]) == 0
        # The repaired journal resumes the campaign cleanly.
        assert main(["campaign", "fig11", "--trials", "6",
                     "--out", str(store), "--resume"]) == 0

    def test_fsck_json_reports(self, tmp_path, capsys):
        import json

        store = self._damaged_journal(tmp_path, capsys)
        assert main(["fsck", str(store), "--json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert len(payload) == 1
        assert payload[0]["kind"] == "journal"
        assert payload[0]["exit_code"] == 1
        assert payload[0]["issues"]

    def test_fsck_missing_file_is_fatal(self, tmp_path, capsys):
        assert main(["fsck", str(tmp_path / "nope.jsonl")]) == 2
        assert "FATAL" in capsys.readouterr().out

    def test_fsck_worst_exit_code_wins(self, tmp_path, capsys):
        store = tmp_path / "fig11.jsonl"
        assert main(["campaign", "fig11", "--trials", "6",
                     "--out", str(store)]) == 0
        capsys.readouterr()
        assert main(["fsck", str(store),
                     str(tmp_path / "nope.jsonl")]) == 2
        assert len(capsys.readouterr().out.splitlines()) == 2


class TestAdmissionSaturate:
    def test_parser_defaults(self):
        args = build_parser().parse_args(["admission", "saturate"])
        assert args.admission_command == "saturate"
        assert args.nodes == 600
        assert args.load is None
        assert args.replicates == 4
        assert args.jobs == 1
        assert not args.as_json

    def test_runs_and_prints_the_curve(self, capsys):
        assert main(["admission", "saturate", "--nodes", "60",
                     "--replicates", "1", "--load", "0.5",
                     "--load", "2.0"]) == 0
        out = capsys.readouterr().out
        assert "P(block)" in out
        assert "0.50" in out and "2.00" in out

    def test_json_output(self, capsys):
        import json

        assert main(["admission", "saturate", "--nodes", "50",
                     "--replicates", "1", "--load", "1.0",
                     "--json"]) == 0
        rows = json.loads(capsys.readouterr().out)
        assert len(rows) == 1
        assert rows[0]["offered_load"] == 1.0
        assert set(rows[0]) >= {"blocking_probability", "fdm_share",
                                "sdm_share", "mean_occupancy"}

    def test_bad_flags_fail(self, capsys):
        assert main(["admission", "saturate", "--nodes", "0"]) == 2
        assert "--nodes" in capsys.readouterr().err
        assert main(["admission", "saturate", "--jobs", "0"]) == 2
        assert "--jobs" in capsys.readouterr().err
        assert main(["admission", "saturate", "--load", "-1"]) == 2
        assert "positive" in capsys.readouterr().err
        assert main(["admission", "saturate", "--resume"]) == 2
        assert "--out" in capsys.readouterr().err

    def test_existing_store_needs_resume(self, tmp_path, capsys):
        store = tmp_path / "sat.jsonl"
        store.write_text("")
        assert main(["admission", "saturate", "--out", str(store)]) == 2
        assert "--resume" in capsys.readouterr().err

    def test_store_and_resume_roundtrip(self, tmp_path, capsys):
        store = tmp_path / "sat.jsonl"
        argv = ["admission", "saturate", "--nodes", "40",
                "--replicates", "1", "--load", "1.0", "--json",
                "--out", str(store)]
        assert main(argv) == 0
        first = capsys.readouterr().out
        # Resuming a completed campaign replays the journal: identical
        # curve, no recomputation surprises.
        assert main(argv + ["--resume"]) == 0
        assert capsys.readouterr().out == first

    def test_failure_diagnostic_names_the_command(self, tmp_path, capsys):
        store = str(tmp_path / "sat.jsonl")
        argv = ["admission", "saturate", "--nodes", "40",
                "--replicates", "1", "--load", "1.0", "--out", store]
        assert main(argv) == 0
        capsys.readouterr()
        assert main(argv + ["--seed", "1", "--resume"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("repro admission saturate:")
        assert "different campaign" in err


class TestEnergyCommands:
    def test_parser_defaults(self):
        comp = build_parser().parse_args(["energy", "compare"])
        assert comp.energy_command == "compare"
        assert comp.bits == 400
        assert comp.replicates == 4
        assert comp.jobs == 1
        assert not comp.as_json
        surv = build_parser().parse_args(["energy", "outage"])
        assert surv.energy_command == "outage"
        assert surv.nodes == 6

    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["energy"])

    def test_compare_prints_the_class_table(self, capsys):
        assert main(["energy", "compare", "--replicates", "1",
                     "--bits", "64"]) == 0
        out = capsys.readouterr().out
        assert "mmx-active" in out
        assert "mmx-backscatter" in out
        assert "mmx-harvesting" in out

    def test_compare_json_rows(self, capsys):
        import json

        assert main(["energy", "compare", "--replicates", "1",
                     "--bits", "64", "--json"]) == 0
        rows = json.loads(capsys.readouterr().out)
        assert [r["node_class"] for r in rows] \
            == ["mmx-active", "mmx-backscatter", "mmx-harvesting"]
        assert set(rows[0]) >= {"cost_usd", "duty_cycle",
                                "delivery_ratio", "measured_ber"}

    def test_outage_json_summary(self, capsys):
        import json

        assert main(["energy", "outage", "--replicates", "1",
                     "--nodes", "2", "--json"]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["silence_failovers"] == 0
        assert "dormant_holds" in summary

    def test_bad_flags_fail(self, capsys):
        assert main(["energy", "compare", "--replicates", "0"]) == 2
        assert "--replicates" in capsys.readouterr().err
        assert main(["energy", "compare", "--jobs", "0"]) == 2
        assert "--jobs" in capsys.readouterr().err
        assert main(["energy", "compare", "--bits", "0"]) == 2
        assert "--bits" in capsys.readouterr().err
        assert main(["energy", "outage", "--nodes", "0"]) == 2
        assert "--nodes" in capsys.readouterr().err
        assert main(["energy", "compare", "--resume"]) == 2
        assert "--out" in capsys.readouterr().err

    def test_existing_store_needs_resume(self, tmp_path, capsys):
        store = tmp_path / "energy.jsonl"
        store.write_text("")
        assert main(["energy", "compare", "--out", str(store)]) == 2
        assert "--resume" in capsys.readouterr().err

    def test_store_and_resume_roundtrip(self, tmp_path, capsys):
        store = tmp_path / "compare.jsonl"
        argv = ["energy", "compare", "--replicates", "1", "--bits",
                "64", "--json", "--out", str(store)]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv + ["--resume"]) == 0
        assert capsys.readouterr().out == first
