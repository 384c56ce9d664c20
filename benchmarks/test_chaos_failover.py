"""Failover benchmark: the AP cluster vs a frozen single AP.

Acceptance gate for the control-plane resilience layer: under an
identical, seeded AP-crash schedule the adaptive cluster (heartbeat
detection + failover + checkpointed recovery) must strictly out-deliver
the frozen single-AP baseline, and a checkpoint save -> crash ->
restore cycle must reproduce the AP's FDM allocations and node
registrations exactly.
"""

import numpy as np

from repro.cluster import ApCheckpoint
from repro.experiments import chaos
from repro.node.access_point import MmxAccessPoint
from conftest import record

SEED = 7
"""Master seed shared with the chaos-recovery gate."""


def _failover():
    return chaos.run_failover(seed=SEED)


def test_failover_beats_frozen_single_ap(benchmark):
    outcome = benchmark.pedantic(_failover, rounds=1, iterations=1)
    record("chaos_failover", chaos.render_failover(outcome))
    r = outcome.result

    # The whole point: the cluster strictly out-delivers the frozen
    # baseline under the same crash schedule.
    assert r.adaptive_delivery_ratio > r.static_delivery_ratio, \
        f"cluster {r.adaptive_delivery_ratio:.3f} did not beat " \
        f"frozen {r.static_delivery_ratio:.3f}"
    assert r.gain > 0.1, f"failover gain too small: {r.gain:+.3f}"

    # Stranded nodes actually migrated; nobody was abandoned (two APs,
    # plenty of spectrum).
    assert r.failover_count > 0
    assert r.orphaned_nodes == 0

    # Detection is not free: the cluster pays a real stranded window
    # (heartbeat latency), so its delivery cannot be perfect either.
    assert r.detection_latency_s > 0
    assert r.adaptive_delivery_ratio < 1.0


def test_failover_deterministic_from_master_seed():
    """One master seed regenerates the comparison bit-identically."""
    a = chaos.run_failover(seed=SEED)
    b = chaos.run_failover(seed=SEED)
    assert np.array_equal(a.result.adaptive_success,
                          b.result.adaptive_success)
    assert np.array_equal(a.result.static_success, b.result.static_success)
    assert a.result.failover_count == b.result.failover_count
    assert a.delivery_gain == b.delivery_gain


def test_checkpoint_crash_restore_is_exact():
    """Save -> crash -> restore reproduces the control plane verbatim."""
    ap = MmxAccessPoint()
    ap.allocator.block_range(24.05e9, 24.07e9)
    for node_id, rate in enumerate([2e6, 1e6, 4e6, 0.5e6, 8e6]):
        ap.register_node(node_id, rate)

    snapshot = ApCheckpoint.capture(ap)
    blob = snapshot.to_json()
    del ap  # the crash: the live AP (and all its state) is gone

    restored = ApCheckpoint.from_json(blob).restore()
    roundtrip = ApCheckpoint.capture(restored)
    assert roundtrip == snapshot

    # Identical FDM allocations (exact plans, not merely equivalent;
    # snapshot.plans is sorted by node id, allocator.plans by center)...
    assert sorted((p.node_id, p.center_hz, p.bandwidth_hz)
                  for p in restored.allocator.plans) == list(snapshot.plans)
    assert restored.allocator.blocked_ranges == snapshot.blocked
    # ...and identical registrations, numerology included.
    assert tuple(
        (reg.node_id, reg.config.bit_rate_bps, reg.config.sample_rate_hz,
         reg.config.fsk_deviation_hz)
        for reg in (restored.registration(n)
                    for n in restored.registered_nodes)
    ) == snapshot.registrations
