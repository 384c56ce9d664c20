"""Chaos benchmark: the recovery ladder vs frozen config under faults.

Acceptance gate for the resilience layer: under identical, seeded fault
schedules the adaptive supervisor must (a) strictly beat the static
baseline wherever the faults leave headroom to exploit, (b) never do
worse, (c) return the link's SNR to its clean baseline once the faults
clear, and (d) reproduce bit-identically from one master seed.
"""

import numpy as np

from repro.experiments import chaos
from conftest import record

SEED = 7
"""One master seed for the whole gate.  Chosen so the Poisson draws
actually materialise every fault class (seed 0's kitchen-sink happens
to draw zero dropout events in 30 s at 2/min — a fair roll of the
dice, but useless as an acceptance gate)."""


def _sweep():
    return chaos.run_all(seed=SEED)


def test_chaos_recovery_sweep(benchmark):
    outcomes = benchmark.pedantic(_sweep, rounds=1, iterations=1)
    record("chaos_recovery", chaos.render_all(outcomes)
           + "\n\n" + "\n\n".join(chaos.render(o) for o in outcomes))

    by_name = {o.scenario: o for o in outcomes}
    assert sorted(by_name) == ["blockage", "drift", "dropout",
                               "energy-outage", "interference",
                               "kitchen-sink", "stuck-beam"]

    # (c) every fault class: post-fault SNR back within tolerance of the
    # clean baseline — the ladder actually recovers, never wedges.
    for outcome in outcomes:
        assert outcome.recovered, f"{outcome.scenario} failed to recover"
        assert np.isfinite(outcome.result.post_fault_snr_db())

    # (b) adaptive never loses to static under identical faults.
    for outcome in outcomes:
        assert (outcome.result.adaptive_delivery_ratio
                >= outcome.result.static_delivery_ratio - 1e-12), \
            f"{outcome.scenario}: adaptive worse than static"

    # (a) where faults leave headroom (a healthy branch, a clean
    # channel), adaptive strictly wins.  kitchen-sink is the acceptance
    # scenario: blockers + interferer + dropouts in one schedule.
    for name in ("blockage", "interference", "stuck-beam", "kitchen-sink"):
        outcome = by_name[name]
        assert outcome.delivery_gain > 0.05, \
            f"{name}: expected a strict adaptive win, " \
            f"gain {outcome.delivery_gain:+.3f}"

    # The kitchen-sink schedule must actually contain the acceptance
    # fault classes it claims to cover.
    kinds = by_name["kitchen-sink"].result.schedule.kinds()
    for kind in ("blockage", "interference", "dropout"):
        assert kind in kinds


def test_chaos_ladder_rungs_all_fire():
    """Across the sweep every recovery mechanism sees real use."""
    fired = set()
    for outcome in chaos.run_all(seed=SEED):
        fired.update(outcome.action_counts())
    for policy in ("branch-fallback", "coding-step-down",
                   "channel-reallocation", "link-lost",
                   "reinit-attempt", "reinit-success"):
        assert policy in fired, f"rung never fired: {policy}"


def test_chaos_deterministic_from_master_seed():
    """(d) one master seed regenerates the whole outcome bit-identically."""
    a = chaos.run("kitchen-sink", seed=SEED)
    b = chaos.run("kitchen-sink", seed=SEED)
    assert a.result.schedule.events == b.result.schedule.events
    assert np.array_equal(a.result.adaptive_success, b.result.adaptive_success)
    assert np.array_equal(a.result.static_success, b.result.static_success)
    assert np.array_equal(a.result.adaptive_snr_db, b.result.adaptive_snr_db)
    assert a.action_counts() == b.action_counts()
    assert a.delivery_gain == b.delivery_gain

    different = chaos.run("kitchen-sink", seed=SEED + 1)
    assert different.result.schedule.events != a.result.schedule.events
