"""Ablations for the design choices the paper argues for.

1. **Orthogonal vs non-orthogonal beams** (§6.2, Fig. 5): how often the
   two beams' path losses coincide under each design.
2. **ASK-only vs FSK-only vs joint** (§6.3): decode success across
   placements per decoding strategy.
3. **OTAM vs beam-search baselines** (§3, §6): alignment overhead and
   node-side energy for exhaustive / hierarchical / feedback schemes
   versus OTAM's zero.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..antenna.orthogonal import (
    OrthogonalBeamPair,
    ParametricBeam,
    measured_mmx_beams,
)
from ..antenna.phased_array import PhasedArray
from ..baselines.beam_search import (
    ExhaustiveBeamSearch,
    FeedbackBeamSelection,
    HierarchicalBeamSearch,
)
from ..channel.multipath import beam_channel_gain
from ..constants import CARRIER_FREQUENCY_HZ
from ..core.link import OtamLink
from ..sim.environment import default_lab_room
from ..sim.mobility import los_blocker_between
from ..sim.placement import PlacementSampler
from ..units import amplitude_to_db, linear_to_db
from .report import format_table

__all__ = [
    "OrthogonalityAblation",
    "ModulationAblation",
    "BeamSearchAblation",
    "OracleComparison",
    "run_orthogonality",
    "run_modulation",
    "run_beam_search",
    "run_oracle_comparison",
    "render",
    "render_oracle",
]

#: Levels within this gap count as "the same loss" (section 6.3).
AMBIGUITY_THRESHOLD_DB = 1.0

#: Minimum decision SNR for a branch to decode reliably.
DECODE_SNR_DB = 10.0


def _non_orthogonal_beams() -> OrthogonalBeamPair:
    """Fig. 5(a)'s bad design: Beam 0 is a single lobe squinted to +30°.

    Same pattern fidelity as the measured mmX pair (Gaussian lobes with
    an -18 dB floor), but Beam 0 is one lobe at +30° instead of two
    mutually-nulled arms: the lobes overlap heavily around +15°, where
    the AP sees equal losses, and nothing covers the -30° side at all.
    """
    beam1 = ParametricBeam(lobes=((0.0, 40.0),))
    beam0 = ParametricBeam(lobes=((30.0, 40.0),))
    return OrthogonalBeamPair(beam1=beam1, beam0=beam0)


@dataclass(frozen=True)
class OrthogonalityAblation:
    """Ambiguity and coverage angle for the two beam designs."""

    ambiguous_fraction_orthogonal: float
    ambiguous_fraction_non_orthogonal: float
    coverage_angle_orthogonal_deg: float
    coverage_angle_non_orthogonal_deg: float
    num_placements: int

    @property
    def orthogonal_wins(self) -> bool:
        """Orthogonal beams: less ambiguity AND a wider coverage angle.

        Exactly section 6.2's sentence: "using the orthogonal beam
        pattern not only reduces the probability of getting similar
        losses for the two beams but also increases the coverage
        angle."
        """
        return (self.ambiguous_fraction_orthogonal
                <= self.ambiguous_fraction_non_orthogonal
                and self.coverage_angle_orthogonal_deg
                > self.coverage_angle_non_orthogonal_deg)


def _coverage_angle_deg(beams: OrthogonalBeamPair,
                        threshold_db: float = -10.0) -> float:
    """Angular span where the better of the two beams is within
    ``threshold_db`` of the pattern peak — the design's field of view."""
    grid = np.linspace(-np.pi, np.pi, 1441)
    best = np.maximum(
        amplitude_to_db(np.maximum(np.asarray(beams.field(1, grid)), 1e-9)),
        amplitude_to_db(np.maximum(np.asarray(beams.field(0, grid)), 1e-9)))
    step = np.degrees(grid[1] - grid[0])
    return float(np.count_nonzero(best >= threshold_db) * step)


def run_orthogonality(seed: int = 0,
                      num_placements: int = 200) -> OrthogonalityAblation:
    """Compare ambiguity and coverage across beam designs.

    Ambiguity is measured in-room with the Fig. 10 protocol (persistent
    person in the node-AP line-of-sight); the coverage comparison is the
    patterns' combined field of view, which is what section 6.2's
    "increases the coverage angle" refers to.
    """
    rng = np.random.default_rng(seed)
    room = default_lab_room()
    sampler = PlacementSampler(room, rng)
    designs = {
        "orthogonal": measured_mmx_beams(),
        "non_orthogonal": _non_orthogonal_beams(),
    }
    placements = sampler.sample_many(num_placements)
    blockers = [los_blocker_between(p.node_position, p.ap_position,
                                    fraction=float(rng.uniform(0.3, 0.7)),
                                    rng=rng)
                for p in placements]
    fractions = {}
    for name, beams in designs.items():
        ambiguous = 0
        for placement, blocker in zip(placements, blockers):
            room.clear_blockers()
            room.add_blocker(blocker)
            link = OtamLink(placement=placement, room=room, beams=beams)
            breakdown = link.snr_breakdown()
            if breakdown.ask_contrast_db < AMBIGUITY_THRESHOLD_DB:
                ambiguous += 1
        fractions[name] = ambiguous / num_placements
    room.clear_blockers()
    return OrthogonalityAblation(
        ambiguous_fraction_orthogonal=fractions["orthogonal"],
        ambiguous_fraction_non_orthogonal=fractions["non_orthogonal"],
        coverage_angle_orthogonal_deg=_coverage_angle_deg(
            designs["orthogonal"]),
        coverage_angle_non_orthogonal_deg=_coverage_angle_deg(
            designs["non_orthogonal"]),
        num_placements=num_placements,
    )


@dataclass(frozen=True)
class ModulationAblation:
    """Decode-success rates per decoding strategy."""

    success_ask_only: float
    success_fsk_only: float
    success_joint: float
    num_placements: int

    @property
    def joint_dominates(self) -> bool:
        """Joint decoding succeeds at least as often as either alone."""
        return (self.success_joint >= self.success_ask_only
                and self.success_joint >= self.success_fsk_only)


def run_modulation(seed: int = 0,
                   num_placements: int = 200) -> ModulationAblation:
    """Which placements each decoding strategy can serve.

    A strategy 'succeeds' at a placement when its decision SNR clears
    :data:`DECODE_SNR_DB` — ASK needs level contrast, FSK needs both
    tones detectable, joint takes the better branch (§6.3's argument).
    """
    rng = np.random.default_rng(seed)
    room = default_lab_room()
    sampler = PlacementSampler(room, rng)
    ask_ok = fsk_ok = joint_ok = 0
    for i in range(num_placements):
        placement = sampler.sample()
        room.clear_blockers()
        if rng.random() < 0.5:
            room.add_blocker(los_blocker_between(
                placement.node_position, placement.ap_position,
                fraction=float(rng.uniform(0.3, 0.7)), rng=rng))
        breakdown = OtamLink(placement=placement, room=room).snr_breakdown()
        ask = breakdown.ask_snr_db >= DECODE_SNR_DB
        fsk = breakdown.fsk_snr_db >= DECODE_SNR_DB
        ask_ok += ask
        fsk_ok += fsk
        joint_ok += ask or fsk
    room.clear_blockers()
    return ModulationAblation(
        success_ask_only=ask_ok / num_placements,
        success_fsk_only=fsk_ok / num_placements,
        success_joint=joint_ok / num_placements,
        num_placements=num_placements,
    )


@dataclass(frozen=True)
class BeamSearchAblation:
    """Alignment costs per beam-management scheme."""

    scheme_names: tuple[str, ...]
    probes: tuple[int, ...]
    feedback_messages: tuple[int, ...]
    node_energy_mj: tuple[float, ...]
    hardware_power_w: tuple[float, ...]
    hardware_cost_usd: tuple[float, ...]

    @property
    def otam_is_free(self) -> bool:
        """OTAM does zero probing and zero feedback."""
        idx = self.scheme_names.index("OTAM (mmX)")
        return self.probes[idx] == 0 and self.feedback_messages[idx] == 0


def run_beam_search(num_array_elements: int = 16,
                    probe_duration_s: float = 50e-6,
                    feedback_duration_s: float = 100e-6,
                    tx_power_w: float = 1.1,
                    rx_power_w: float = 0.5) -> BeamSearchAblation:
    """Tally per-realignment cost for each scheme.

    The channel metric is synthetic (a single best direction with a
    raised-cosine profile) — search *cost* depends only on the search
    trajectory, not on which direction wins.
    """
    array = PhasedArray(num_array_elements, CARRIER_FREQUENCY_HZ)
    best_direction = np.radians(20.0)

    def metric(direction_rad: float) -> float:
        return 30.0 * float(np.cos(direction_rad - best_direction)) ** 2

    schemes = []
    exhaustive = ExhaustiveBeamSearch(array).search(metric)
    schemes.append(("Exhaustive sweep", exhaustive,
                    array.power_consumption_w, array.cost_usd))
    hierarchical = HierarchicalBeamSearch(array).search(metric)
    schemes.append(("Hierarchical search", hierarchical,
                    array.power_consumption_w, array.cost_usd))
    feedback = FeedbackBeamSelection(
        np.radians([-30.0, 0.0, 30.0])).select(metric)
    schemes.append(("Fixed beams + feedback", feedback, 0.0, 15.0))

    names, probes, feedbacks, energies, powers, costs = [], [], [], [], [], []
    for name, result, hw_power, hw_cost in schemes:
        names.append(name)
        probes.append(result.probes)
        feedbacks.append(result.feedback_messages)
        energies.append(result.node_energy_j(
            probe_duration_s, feedback_duration_s,
            tx_power_w, rx_power_w) * 1e3)
        powers.append(hw_power)
        costs.append(hw_cost)
    # OTAM: no probes, no feedback, no phased array.
    names.append("OTAM (mmX)")
    probes.append(0)
    feedbacks.append(0)
    energies.append(0.0)
    powers.append(0.0)
    costs.append(15.0)
    return BeamSearchAblation(
        scheme_names=tuple(names),
        probes=tuple(probes),
        feedback_messages=tuple(feedbacks),
        node_energy_mj=tuple(energies),
        hardware_power_w=tuple(powers),
        hardware_cost_usd=tuple(costs),
    )


def render(orthogonality: OrthogonalityAblation,
           modulation: ModulationAblation,
           beam_search: BeamSearchAblation) -> str:
    """All three ablations as one report."""
    t1 = format_table(
        ["beam design", "ambiguous-amplitude fraction",
         "coverage angle [deg]"],
        [
            ["orthogonal (mmX)",
             f"{orthogonality.ambiguous_fraction_orthogonal:.1%}",
             f"{orthogonality.coverage_angle_orthogonal_deg:.0f}"],
            ["non-orthogonal (Fig. 5a)",
             f"{orthogonality.ambiguous_fraction_non_orthogonal:.1%}",
             f"{orthogonality.coverage_angle_non_orthogonal_deg:.0f}"],
        ],
        title="Ablation 1 — orthogonal beam design (section 6.2)")
    t2 = format_table(
        ["decoding strategy", "placements decodable"],
        [
            ["ASK only", f"{modulation.success_ask_only:.1%}"],
            ["FSK only", f"{modulation.success_fsk_only:.1%}"],
            ["joint ASK-FSK", f"{modulation.success_joint:.1%}"],
        ],
        title="Ablation 2 — joint modulation (section 6.3)")
    rows = [[n, p, f, f"{e:.3g}", f"{w:.2g}", f"{c:,.0f}"]
            for n, p, f, e, w, c in zip(
                beam_search.scheme_names, beam_search.probes,
                beam_search.feedback_messages, beam_search.node_energy_mj,
                beam_search.hardware_power_w,
                beam_search.hardware_cost_usd)]
    t3 = format_table(
        ["scheme", "probes", "feedback msgs", "node energy [mJ]",
         "array power [W]", "array cost [$]"],
        rows, title="Ablation 3 — beam management cost per realignment")
    return "\n\n".join([t1, t2, t3])


# --- Ablation 4: OTAM vs an oracle phased array ------------------------------

@dataclass(frozen=True)
class OracleComparison:
    """What mmX gives up in peak SNR for its simplicity.

    The oracle is a 16-element phased-array node that always steers its
    (already-searched) best codebook beam — the upper bound any beam
    search can reach.  The comparison quantifies the paper's implicit
    trade: the phased array buys array gain, at hundreds of dollars,
    watts, and a continuous search the oracle gets for free here.
    """

    median_oracle_advantage_db: float
    p90_oracle_advantage_db: float
    otam_outage: float
    oracle_outage: float
    oracle_array_cost_usd: float
    oracle_array_power_w: float
    num_placements: int


def run_oracle_comparison(seed: int = 0, num_placements: int = 120,
                          num_elements: int = 16) -> OracleComparison:
    """Per-placement SNR: OTAM vs the best steered phased-array beam."""
    rng = np.random.default_rng(seed)
    room = default_lab_room()
    sampler = PlacementSampler(room, rng)
    array = PhasedArray(num_elements, CARRIER_FREQUENCY_HZ)
    directions = array.codebook_directions_rad()
    # Precompute steered patterns once; they are placement-independent.
    steered = [array.steered_pattern(d) for d in directions]
    array_peak_gain_dbi = float(linear_to_db(num_elements)) + 5.0
    mmx_peak_gain_dbi = 8.0

    advantages, otam_out, oracle_out = [], 0, 0
    for i in range(num_placements):
        placement = sampler.sample()
        room.clear_blockers()
        if rng.random() < 0.5:
            room.add_blocker(los_blocker_between(
                placement.node_position, placement.ap_position,
                fraction=float(rng.uniform(0.3, 0.7)), rng=rng))
        link = OtamLink(placement=placement, room=room)
        channel = link.channel_response()
        breakdown = link.snr_breakdown(channel)
        otam_snr = breakdown.otam_snr_db

        # Oracle: evaluate every codebook beam through the same traced
        # channel; take the best.  Gain above the mmX arrays' 8 dBi is
        # credited relative to the same EIRP budget.
        best_level = float("-inf")
        for pattern in steered:
            gain = beam_channel_gain(
                channel.paths, tx_field=pattern.field,
                rx_field=link.ap_element.field,
                tx_orientation_rad=placement.node_orientation_rad,
                rx_orientation_rad=placement.ap_orientation_rad,
                frequency_hz=link.frequency_hz)
            if abs(gain) > 0:
                level = (link.eirp_dbm
                         + (array_peak_gain_dbi - mmx_peak_gain_dbi)
                         + link.ap_gain_dbi - link.implementation_loss_db
                         + float(amplitude_to_db(abs(gain))))
                best_level = max(best_level, level)
        oracle_snr = best_level - breakdown.noise_dbm
        advantages.append(oracle_snr - otam_snr)
        otam_out += otam_snr < 10.0
        oracle_out += oracle_snr < 10.0
    room.clear_blockers()
    return OracleComparison(
        median_oracle_advantage_db=float(np.median(advantages)),
        p90_oracle_advantage_db=float(np.percentile(advantages, 90)),
        otam_outage=otam_out / num_placements,
        oracle_outage=oracle_out / num_placements,
        oracle_array_cost_usd=array.cost_usd,
        oracle_array_power_w=array.power_consumption_w,
        num_placements=num_placements,
    )


def render_oracle(result: OracleComparison) -> str:
    """The simplicity-vs-gain trade in one table."""
    return format_table(
        ["metric", "value"],
        [
            ["median oracle SNR advantage [dB]",
             f"{result.median_oracle_advantage_db:.1f}"],
            ["90th-pct oracle advantage [dB]",
             f"{result.p90_oracle_advantage_db:.1f}"],
            ["OTAM outage (<10 dB)", f"{result.otam_outage:.1%}"],
            ["oracle outage (<10 dB)", f"{result.oracle_outage:.1%}"],
            ["oracle array cost [$]",
             f"{result.oracle_array_cost_usd:,.0f}"],
            ["oracle array power [W]",
             f"{result.oracle_array_power_w:.1f}"],
            ["...plus beam search", "continuous probes + AP feedback"],
        ],
        title="Ablation 4 — OTAM vs an ideal 16-element phased array")
