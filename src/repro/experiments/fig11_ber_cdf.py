"""Fig. 11: BER CDF with and without OTAM (section 9.3).

Method, verbatim from the paper: measure SNR at 30 random placements
(locations, heights, orientations) in the same testbed, then "compute the
BER by substituting the SNR measurements into standard BER tables based
on the ASK modulation".  We do exactly that with the simulated SNRs.

Published shape: without OTAM median BER ~1e-5 and 90th percentile ~0.3;
with OTAM median ~1e-12 and 90th percentile ~1e-3.

The sweep runs as a :mod:`repro.engine` campaign: each placement is one
independently-seeded trial, so ``run(..., executor=SupervisedPool(4))``
fans the 30 placements out across cores (or thousands of placements,
for the dense-deployment studies the paper motivates) with results
identical to the serial default.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Any

import numpy as np

from ..core.link import OtamLink, ism_carriers
from ..engine import Campaign, ResultStore, ShardExecutor
from ..sim.environment import Blocker, default_lab_room
from ..sim.geometry import Point
from ..sim.placement import PlacementSampler
from .report import cdf_points, format_table

__all__ = ["Fig11Result", "run", "render"]

#: The paper floors its CDF axis at 1e-15 ("<10^-15" bucket).
BER_FLOOR = 1e-15


@dataclass(frozen=True)
class Fig11Result:
    """Per-placement BERs for both scenarios."""

    ber_with_otam: np.ndarray
    ber_without_otam: np.ndarray

    def median_with(self) -> float:
        """Median BER with OTAM."""
        return float(np.median(self.ber_with_otam))

    def median_without(self) -> float:
        """Median BER without OTAM."""
        return float(np.median(self.ber_without_otam))

    def p90_with(self) -> float:
        """90th percentile BER with OTAM."""
        return float(np.percentile(self.ber_with_otam, 90))

    def p90_without(self) -> float:
        """90th percentile BER without OTAM."""
        return float(np.percentile(self.ber_without_otam, 90))


def placement_trial(rng: np.random.Generator, index: int,
                    blocker_position: tuple[float, float] = (2.0, 1.2),
                    num_carriers: int = 3) -> dict[str, Any]:
    """One Fig. 11 trial: a random placement's BER for both scenarios.

    A person stands at ``blocker_position`` for the whole experiment,
    so placements whose LoS crosses them are blocked and the rest are
    clear — the mixture that produces the paper's long-tailed
    without-OTAM CDF.  BER is averaged over ``num_carriers`` carriers —
    each placement's channel was measured with frequency diversity, as
    in Fig. 10.  Module-level (and closed over only picklable
    parameters) so it runs under a :class:`~repro.engine.SupervisedPool`.
    """
    room = default_lab_room()
    room.add_blocker(Blocker(Point(*blocker_position)))
    placement = PlacementSampler(room, rng).sample()
    link = OtamLink(placement=placement, room=room)
    ber_w, ber_wo = [], []
    for channel in link.channel_responses(ism_carriers(num_carriers)):
        breakdown = link.snr_breakdown(channel)
        ber_w.append(breakdown.ber_with_otam())
        ber_wo.append(breakdown.ber_without_otam())
    return {
        "ber_with": max(float(np.mean(ber_w)), BER_FLOOR),
        "ber_without": max(float(np.mean(ber_wo)), BER_FLOOR),
    }


def run(seed: int = 0, num_placements: int = 30,
        blocker_position: tuple[float, float] = (2.0, 1.2),
        num_carriers: int = 3,
        executor: ShardExecutor | None = None,
        num_shards: int | None = None,
        store: ResultStore | str | None = None) -> Fig11Result:
    """Sample placements, convert SNR to BER via the closed-form tables.

    Runs as an engine campaign: serial by default, multi-core with
    ``executor=SupervisedPool(...)``, resumable with ``store=``.  Results
    depend only on ``seed`` (and the sweep parameters), never on the
    executor or shard count.
    """
    trial_fn = partial(placement_trial,
                       blocker_position=(float(blocker_position[0]),
                                         float(blocker_position[1])),
                       num_carriers=num_carriers)
    outcome = Campaign(trial_fn, num_placements, master_seed=seed,
                       num_shards=num_shards, executor=executor,
                       store=store).run()
    return Fig11Result(
        ber_with_otam=outcome.collect("ber_with"),
        ber_without_otam=outcome.collect("ber_without"))


def render(result: Fig11Result) -> str:
    """CDF listing plus the paper's percentile comparisons."""
    x_w, p_w = cdf_points(result.ber_with_otam)
    x_wo, p_wo = cdf_points(result.ber_without_otam)
    rows = [[f"{b:.1e}", f"{p:.2f}"] for b, p in zip(x_w, p_w)]
    cdf_with = format_table(["BER", "CDF"], rows,
                            title="Fig. 11 — BER CDF with OTAM")
    rows = [[f"{b:.1e}", f"{p:.2f}"] for b, p in zip(x_wo, p_wo)]
    cdf_without = format_table(["BER", "CDF"], rows,
                               title="Fig. 11 — BER CDF without OTAM")
    stats = format_table(
        ["percentile", "with OTAM", "without OTAM",
         "paper (with)", "paper (without)"],
        [
            ["median", f"{result.median_with():.1e}",
             f"{result.median_without():.1e}", "1e-12", "1e-5"],
            ["90th", f"{result.p90_with():.1e}",
             f"{result.p90_without():.1e}", "1e-3", "0.3"],
        ],
        title="Percentile comparison")
    return "\n\n".join([stats, cdf_with, cdf_without])
