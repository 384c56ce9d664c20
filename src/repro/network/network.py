"""Multi-node network simulation — the substrate for Fig. 13 (§9.5).

Protocol of the experiment: the AP sits on one side of the room, N nodes
at random locations/orientations transmit *simultaneously*; each node
occupies a 25 MHz channel; when the demanded channels exceed the 250 MHz
ISM band the surplus nodes reuse channels spatially (SDM through the
TMA).  Per-node "SNR" in the paper's plot is really SINR — interference
from the other transmitters is what bends the curve down as N grows.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..constants import (
    EVAL_NODE_CHANNEL_BANDWIDTH_HZ,
    ISM_24GHZ_BANDWIDTH_HZ,
)
from ..core.link import OtamLink
from ..sim.placement import Placement, PlacementSampler
from ..units import db_to_linear, linear_to_db
from .interference import InterferenceModel
from .sdm_scheduler import arrival_bearing_rad

__all__ = ["NodeStats", "NetworkSnapshot", "MultiNodeNetwork",
           "frame_success_matrix"]


def frame_success_matrix(room, ap_positions, node_positions,
                         payload_bytes: int = 256) -> np.ndarray:
    """Per-(node, AP) frame-survival probabilities for a deployment.

    Maps :func:`repro.network.deployment.snr_matrix` through the
    BER -> frame-success chain of :mod:`repro.core.throughput` (uncoded
    mode, best ASK-branch BER): ``result[i, j]`` is the chance one of
    node *i*'s frames survives when served by AP *j*.  The failover
    simulation uses it both to rank re-association targets and to score
    delivery in expectation, keeping the adaptive-vs-static comparison
    deterministic.
    """
    from ..core.throughput import CODING_MODES, frame_success_probability
    from ..phy import ber as ber_theory
    from .deployment import snr_matrix

    snrs = snr_matrix(room, ap_positions, node_positions)
    out = np.empty_like(snrs)
    for i in range(snrs.shape[0]):
        for j in range(snrs.shape[1]):
            ber = float(ber_theory.ber_ask_table(snrs[i, j]))
            out[i, j] = frame_success_probability(ber, payload_bytes,
                                                  CODING_MODES[0])
    return out


@dataclass(frozen=True)
class NodeStats:
    """Per-node outcome of one network evaluation."""

    node_id: int
    placement: Placement
    channel_index: int
    snr_db: float
    sinr_db: float
    interference_dbm: float

    @property
    def interference_limited(self) -> bool:
        """Whether interference (not noise) dominates this node's SINR."""
        return self.sinr_db < self.snr_db - 1.0


@dataclass(frozen=True)
class NetworkSnapshot:
    """One simultaneous-transmission evaluation of the whole network."""

    nodes: tuple[NodeStats, ...]

    @property
    def mean_sinr_db(self) -> float:
        """Average per-node SINR — the y-axis of Fig. 13."""
        return float(np.mean([n.sinr_db for n in self.nodes]))

    @property
    def min_sinr_db(self) -> float:
        """Worst node's SINR."""
        return float(np.min([n.sinr_db for n in self.nodes]))


class MultiNodeNetwork:
    """Places N nodes in a room and evaluates simultaneous transmission."""

    def __init__(self, room, rng: np.random.Generator,
                 channel_bandwidth_hz: float = EVAL_NODE_CHANNEL_BANDWIDTH_HZ,
                 band_width_hz: float = ISM_24GHZ_BANDWIDTH_HZ,
                 tma_elements: int = 8,
                 demodulator_rejection_db: float = 15.0):
        if channel_bandwidth_hz <= 0 or band_width_hz <= 0:
            raise ValueError("bandwidths must be positive")
        self.room = room
        self.rng = rng
        self.sampler = PlacementSampler(room, rng)
        self.num_fdm_channels = max(1, int(band_width_hz // channel_bandwidth_hz))
        self.interference = InterferenceModel()
        # Matched-filter decorrelation: the victim's per-bit Goertzel
        # projection coherently integrates its own tone but only
        # partially captures an unsynchronised co-channel interferer
        # (different bit timing, independent FSK state), rejecting a
        # further ~15 dB on average beyond the TMA image suppression.
        if demodulator_rejection_db < 0:
            raise ValueError("demodulator rejection cannot be negative")
        self.demodulator_rejection_db = demodulator_rejection_db
        if tma_elements < 2:
            raise ValueError("TMA needs at least 2 elements")
        self.tma_elements = tma_elements

    # --- evaluation -----------------------------------------------------------------

    @property
    def tma_resolvable_separation_rad(self) -> float:
        """Smallest bearing gap the TMA can fully separate (~2/N rad).

        The harmonic beams of an N-element array have a ~2/N-radian
        main-lobe width; arrivals closer than that land on the same
        harmonic and cannot be told apart.
        """
        return 2.0 / self.tma_elements

    def _tma_suppression_db(self, victim: Placement,
                            interferer: Placement) -> float:
        """Co-channel suppression from the TMA, by angular separation.

        Arrivals separated by at least the resolvable width enjoy the
        20-30 dB image suppression the paper cites from [25] (graded
        within the band by separation); closer arrivals lose
        suppression linearly, down to none for co-bearing nodes — the
        TMA cannot separate two signals from the same direction, which
        is exactly why the AP schedules SDM partners by angle.
        """
        from ..sim.geometry import normalize_angle

        theta_v = arrival_bearing_rad(victim)
        theta_i = arrival_bearing_rad(interferer)
        delta = abs(normalize_angle(theta_v - theta_i))
        resolvable = self.tma_resolvable_separation_rad
        if delta >= resolvable:
            extra = min((delta - resolvable) / resolvable, 1.0)
            return 25.0 + 5.0 * extra
        return 25.0 * delta / resolvable

    def evaluate(self, num_nodes: int,
                 placements: list[Placement] | None = None,
                 measurement_bandwidth_hz: float = 2.5e6,
                 scheduler=None) -> NetworkSnapshot:
        """One simultaneous-transmission snapshot for N nodes.

        ``measurement_bandwidth_hz`` is the per-node post-channelisation
        noise bandwidth.  Fig. 13 reports per-node SNRs well above the
        Fig. 10 heatmap values for the same room, consistent with the
        paper measuring each node's tone against the noise in a narrow
        analysis band after sub-band capture (section 9.5); 2.5 MHz
        (a tenth of the 25 MHz channel) reproduces that offset.

        ``scheduler`` optionally overrides the default direction-aware
        channel assignment with any policy exposing
        ``assign(placements) -> list[int]``.
        """
        if num_nodes < 1:
            raise ValueError("need at least one node")
        if placements is None:
            placements = self.sampler.sample_many(num_nodes)
        elif len(placements) != num_nodes:
            raise ValueError("one placement per node required")
        if scheduler is None:
            # The AP controls channel assignment, so by default it uses
            # the direction-aware policy: TMA separation is angular, so
            # co-channel partners should sit far apart in bearing.
            from .sdm_scheduler import AngularSdmScheduler

            scheduler = AngularSdmScheduler(self.num_fdm_channels)
        channels = scheduler.assign(list(placements))
        if len(channels) != num_nodes:
            raise ValueError("scheduler returned a bad assignment")
        links = [OtamLink(placement=p, room=self.room) for p in placements]
        breakdowns = [link.snr_breakdown(bandwidth_hz=measurement_bandwidth_hz)
                      for link in links]
        # Received level each node presents at the AP (its stronger beam;
        # over a packet both beams are used about equally, the stronger
        # one bounds the leakage).
        levels_dbm = [max(b.beam1_level_dbm, b.beam0_level_dbm)
                      for b in breakdowns]

        stats = []
        for i in range(num_nodes):
            victim_noise_dbm = breakdowns[i].noise_dbm
            interference_lin = 0.0
            for j in range(num_nodes):
                if j == i:
                    continue
                if channels[j] == channels[i]:
                    coupling = (self._tma_suppression_db(placements[i],
                                                         placements[j])
                                + self.demodulator_rejection_db)
                elif abs(channels[j] - channels[i]) == 1:
                    coupling = self.interference.coupling_db("adjacent")
                else:
                    coupling = self.interference.coupling_db("far")
                interference_lin += float(db_to_linear(levels_dbm[j] - coupling))
            interference_dbm = (float(linear_to_db(interference_lin))
                                if interference_lin > 0 else float("-inf"))
            snr = breakdowns[i].otam_snr_db
            signal_dbm = breakdowns[i].noise_dbm + snr
            total_floor = db_to_linear(victim_noise_dbm) + interference_lin
            sinr = float(signal_dbm - linear_to_db(total_floor))
            stats.append(NodeStats(
                node_id=i,
                placement=placements[i],
                channel_index=channels[i],
                snr_db=snr,
                sinr_db=sinr,
                interference_dbm=interference_dbm,
            ))
        return NetworkSnapshot(nodes=tuple(stats))
