"""Fig. 10: SNR heatmaps over the 6 m x 4 m room, with vs without OTAM.

Protocol (section 9.2): AP on one side of the room; node at random
locations with orientation drawn from ±60°; people walking; one person
blocking the node-AP line-of-sight for the entire experiment.

Published shape: without OTAM (node uses only Beam 1, modulates at the
radio) many locations fall below 5 dB; with OTAM the same locations reach
~11 dB or more, with the map topping out around 30 dB.

The grid sweep runs as a :mod:`repro.engine` campaign — one trial per
grid cell, each with its own child seed — so a fine-grid map
(``grid_step_m=0.1`` is ~2000 cells) parallelises across cores with the
same values as the serial default.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Any

import numpy as np

from ..constants import EVAL_ROOM_LENGTH_M, EVAL_ROOM_WIDTH_M
from ..core.link import OtamLink, ism_carriers
from ..engine import Campaign, ResultStore, ShardExecutor
from ..sim.environment import Blocker, default_lab_room
from ..sim.geometry import Point, angle_of, normalize_angle
from ..sim.placement import Placement
from ..units import db_to_linear, linear_to_db
from .report import ascii_heatmap, format_table

__all__ = ["Fig10Result", "run", "render"]


@dataclass(frozen=True)
class Fig10Result:
    """Gridded SNRs for both scenarios."""

    x_m: np.ndarray
    y_m: np.ndarray
    snr_without_otam_db: np.ndarray
    """(len(y), len(x)) grid, NaN at the AP's own cell."""
    snr_with_otam_db: np.ndarray

    @property
    def fraction_below_5db_without(self) -> float:
        """Fraction of locations under 5 dB without OTAM."""
        vals = self.snr_without_otam_db
        return float(np.mean(vals[~np.isnan(vals)] < 5.0))

    @property
    def fraction_above_10db_with(self) -> float:
        """Fraction of locations at 10 dB or more with OTAM."""
        vals = self.snr_with_otam_db
        return float(np.mean(vals[~np.isnan(vals)] >= 10.0))

    @property
    def median_gain_db(self) -> float:
        """Median per-location SNR improvement from OTAM."""
        diff = self.snr_with_otam_db - self.snr_without_otam_db
        return float(np.nanmedian(diff))


def grid_axes(grid_step_m: float) -> tuple[np.ndarray, np.ndarray]:
    """The sweep's grid-cell centres (x and y axes)."""
    xs = np.arange(0.4, EVAL_ROOM_WIDTH_M - 0.3, grid_step_m)
    ys = np.arange(0.6, EVAL_ROOM_LENGTH_M - 0.3, grid_step_m)
    return xs, ys


def grid_cell_trial(rng: np.random.Generator, index: int,
                    grid_step_m: float = 0.5,
                    blocker_position: tuple[float, float] = (2.0, 1.2),
                    num_carriers: int = 3) -> dict[str, Any]:
    """One Fig. 10 trial: both scenarios' SNR at a single grid cell.

    ``index`` is the row-major cell number (``iy * len(xs) + ix``).
    Cells inside the standing person's footprint return ``None`` for
    both SNRs — they become the NaN holes in the published map.  The
    cell's ±60° orientation offset comes from its own child generator,
    so a cell's value never depends on how many cells ran before it
    (or on which shard ran it).  Module-level so it pickles into
    :class:`~repro.engine.SupervisedPool` workers.
    """
    xs, ys = grid_axes(grid_step_m)
    iy, ix = divmod(index, xs.size)
    node = Point(float(xs[ix]), float(ys[iy]))
    if (node - Point(*blocker_position)).norm() < 0.45:
        return {"snr_without_db": None, "snr_with_db": None}
    room = default_lab_room()
    room.add_blocker(Blocker(Point(*blocker_position)))
    ap = Point(EVAL_ROOM_WIDTH_M / 2.0, 0.15)
    toward_ap = angle_of(node, ap)
    offset = float(rng.uniform(np.radians(-60), np.radians(60)))
    placement = Placement(
        node_position=node,
        node_orientation_rad=normalize_angle(toward_ap + offset),
        ap_position=ap,
        ap_orientation_rad=np.pi / 2.0,
    )
    link = OtamLink(placement=placement, room=room)
    wo_lin, w_lin = [], []
    for channel in link.channel_responses(ism_carriers(num_carriers)):
        breakdown = link.snr_breakdown(channel)
        wo_lin.append(float(db_to_linear(breakdown.no_otam_snr_db)))
        w_lin.append(float(db_to_linear(breakdown.otam_snr_db)))
    return {
        "snr_without_db": float(linear_to_db(np.mean(wo_lin))),
        "snr_with_db": float(linear_to_db(np.mean(w_lin))),
    }


def run(seed: int = 0, grid_step_m: float = 0.5,
        blocker_position: tuple[float, float] = (2.0, 1.2),
        num_carriers: int = 3,
        executor: ShardExecutor | None = None,
        num_shards: int | None = None,
        store: ResultStore | str | None = None) -> Fig10Result:
    """Sweep a placement grid with a persistent standing blocker.

    One person stands at ``blocker_position`` for the entire sweep
    ("one person was blocking the line-of-sight path ... for the
    entire duration of the experiment"): placements whose LoS crosses
    them are blocked, the rest see a clear direct path — which is what
    lets Fig. 10(b) span from ~11 dB in the shadow up to ~30 dB at
    clear close-in cells.  Orientation at each grid point is drawn once
    from ±60° and *shared by both scenarios* ("for the same
    locations").

    Each cell averages linear SNR over ``num_carriers`` carriers across
    the ISM band, as a measurement campaign's frequency diversity does —
    a single-carrier cut would be speckled by multipath fades the
    paper's averaged measurements do not show.

    The grid runs as an engine campaign (one trial per cell), so
    ``executor=SupervisedPool(...)`` parallelises it and ``store=`` makes
    it resumable, with values independent of both.
    """
    xs, ys = grid_axes(grid_step_m)
    trial_fn = partial(grid_cell_trial, grid_step_m=float(grid_step_m),
                       blocker_position=(float(blocker_position[0]),
                                         float(blocker_position[1])),
                       num_carriers=num_carriers)
    outcome = Campaign(trial_fn, int(xs.size * ys.size), master_seed=seed,
                       num_shards=num_shards, executor=executor,
                       store=store).run()
    without = np.full((ys.size, xs.size), np.nan)
    with_otam = np.full((ys.size, xs.size), np.nan)
    for result in outcome.results:
        iy, ix = divmod(result.index, xs.size)
        if result["snr_without_db"] is not None:
            without[iy, ix] = result["snr_without_db"]
            with_otam[iy, ix] = result["snr_with_db"]
    return Fig10Result(x_m=xs, y_m=ys,
                       snr_without_otam_db=without,
                       snr_with_otam_db=with_otam)


def render(result: Fig10Result) -> str:
    """ASCII heatmaps plus the headline coverage statistics."""
    maps = "\n\n".join([
        ascii_heatmap(result.snr_without_otam_db, 0.0, 30.0,
                      title="Fig. 10(a) — SNR without OTAM (0..30 dB ramp)"),
        ascii_heatmap(result.snr_with_otam_db, 0.0, 30.0,
                      title="Fig. 10(b) — SNR with OTAM (0..30 dB ramp)"),
    ])
    stats = format_table(
        ["metric", "value", "paper"],
        [
            ["locations < 5 dB without OTAM",
             f"{result.fraction_below_5db_without:.1%}", "many"],
            ["locations >= 10 dB with OTAM",
             f"{result.fraction_above_10db_with:.1%}", "almost all"],
            ["median OTAM gain [dB]", f"{result.median_gain_db:.1f}", ">0"],
        ],
        title="Coverage statistics")
    return "\n\n".join([maps, stats])
