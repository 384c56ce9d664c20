"""Determinism gate: identical seeds produce byte-identical exports.

The whole point of the sim-time clock is that a telemetry export is a
*replayable artifact*: no wall-clock stamp, no host jitter, no dict
ordering wobble anywhere in the pipeline.  These tests pin that
property end to end — the same scenario with the same seed must render
exactly the same JSONL and CSV bytes every run, including when the seed
arrives through the ``REPRO_SEED`` environment variable instead of an
explicit argument.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faults import SCENARIOS
from repro.network.mac import UplinkSimulator
from repro.telemetry import Recorder, to_csv, to_jsonl_lines

SCENARIO_NAMES = sorted(SCENARIOS)


def _uplink_run(recorder: Recorder,
                rng: np.random.Generator | None = None) -> None:
    """Half a second of a lossy uplink: retries, drops and latencies."""
    UplinkSimulator(link_rate_bps=1e6, frame_bits=8192,
                    frame_success_probability=0.8, rng=rng,
                    telemetry=recorder).run(duration_s=0.5,
                                            packet_interval_s=0.01)


def _chaos_export(scenario: str, seed: int,
                  duration_s: float) -> list[str]:
    from repro.experiments.chaos import run

    recorder = Recorder()
    run(scenario, seed=seed, duration_s=duration_s, telemetry=recorder)
    return to_jsonl_lines(recorder)


class TestByteIdenticalExports:
    @given(scenario=st.sampled_from(SCENARIO_NAMES),
           seed=st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=8, deadline=None)
    def test_chaos_jsonl_regenerates_bit_identically(self, scenario, seed):
        first = _chaos_export(scenario, seed, duration_s=4.0)
        second = _chaos_export(scenario, seed, duration_s=4.0)
        assert first == second

    @given(seed=st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=6, deadline=None)
    def test_uplink_exports_regenerate(self, seed):
        def export() -> tuple[list[str], str]:
            recorder = Recorder()
            _uplink_run(recorder, np.random.default_rng(seed))
            return to_jsonl_lines(recorder), to_csv(recorder)

        assert export() == export()

    def test_different_seeds_differ(self):
        # The converse sanity check: a chaotic scenario's export is
        # actually seed-sensitive, so byte-equality above is meaningful.
        a = _chaos_export("kitchen-sink", 0, duration_s=6.0)
        b = _chaos_export("kitchen-sink", 1, duration_s=6.0)
        assert a != b


class TestReproSeedEnvironment:
    def test_repro_seed_pins_fallback_rng_exports(self, monkeypatch):
        """Two runs with the same ``REPRO_SEED`` and *no* explicit rng
        argument are byte-identical; the env var is the seed."""

        def export() -> list[str]:
            recorder = Recorder()
            _uplink_run(recorder)
            return to_jsonl_lines(recorder)

        monkeypatch.setenv("REPRO_SEED", "424242")
        first = export()
        second = export()
        assert first == second

        monkeypatch.setenv("REPRO_SEED", "424243")
        assert export() != first
