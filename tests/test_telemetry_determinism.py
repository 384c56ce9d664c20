"""Determinism gate: identical seeds produce byte-identical exports.

The whole point of the sim-time clock is that a telemetry export is a
*replayable artifact*: no wall-clock stamp, no host jitter, no dict
ordering wobble anywhere in the pipeline.  These tests pin that
property end to end — the same scenario with the same seed must render
exactly the same JSONL bytes every run.  The ``REPRO_SEED`` environment
variable pins the fallback RNG a run uses when no explicit one is
passed.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faults import SCENARIOS
from repro.network.mac import UplinkSimulator
from repro.telemetry import Recorder, to_jsonl_lines

SCENARIO_NAMES = sorted(SCENARIOS)


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

    def test_different_seeds_differ(self):
        # The converse sanity check: a chaotic scenario's export is
        # actually seed-sensitive, so byte-equality above is meaningful.
        a = _chaos_export("kitchen-sink", 0, duration_s=6.0)
        b = _chaos_export("kitchen-sink", 1, duration_s=6.0)
        assert a != b


class TestReproSeedEnvironment:
    def test_repro_seed_pins_fallback_rng_results(self, monkeypatch):
        """Two runs with the same ``REPRO_SEED`` and *no* explicit rng
        argument are identical; the env var is the seed."""

        def run() -> object:
            # Half a second of a lossy uplink: its retries, drops and
            # latencies all come from the fallback generator.
            return UplinkSimulator(
                link_rate_bps=1e6, frame_bits=8192,
                frame_success_probability=0.8).run(
                    duration_s=0.5, packet_interval_s=0.01)

        monkeypatch.setenv("REPRO_SEED", "424242")
        first = run()
        assert run() == first

        monkeypatch.setenv("REPRO_SEED", "424243")
        assert run() != first
