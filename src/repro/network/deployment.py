"""Multi-AP deployment planning for larger spaces.

Section 1 pitches mmX for "surveillance cameras in public areas such as
malls, banks, libraries, and parks" — spaces far bigger than one AP's
18 m reach and 120°-per-node geometry.  This module plans such
deployments:

* :class:`Deployment` — a set of candidate AP positions in a (large)
  room; assigns every node to the AP giving it the best OTAM SNR and
  reports per-node and aggregate coverage.
* :func:`plan_access_points` — greedy AP placement: from a candidate
  grid, repeatedly add the AP that rescues the most uncovered nodes —
  the classic set-cover heuristic a site surveyor would run.

Different APs operate on different 24 GHz channels (the band comfortably
carries several AP cells), so inter-cell interference is treated as
negligible next to the noise floor.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.link import OtamLink
from ..sim.environment import Room
from ..sim.geometry import Point, angle_of, normalize_angle
from ..sim.placement import Placement

__all__ = ["NodeAssignment", "Deployment", "plan_access_points",
           "snr_matrix"]


@dataclass(frozen=True)
class NodeAssignment:
    """One node's best serving AP and the link quality it gets."""

    node_position: Point
    ap_index: int
    snr_db: float

    def covered(self, threshold_db: float = 10.0) -> bool:
        """Whether the node meets the SNR target."""
        return self.snr_db >= threshold_db


def _link_snr(node: Point, ap: Point, room: Room) -> float:
    """OTAM SNR for a node facing toward an AP."""
    placement = Placement(
        node_position=node,
        node_orientation_rad=normalize_angle(angle_of(node, ap)),
        ap_position=ap,
        ap_orientation_rad=angle_of(ap, node),
    )
    link = OtamLink(placement=placement, room=room)
    return link.snr_breakdown().otam_snr_db


@dataclass
class Deployment:
    """A set of APs serving a population of node positions."""

    room: Room
    ap_positions: list[Point]

    def __post_init__(self):
        if not self.ap_positions:
            raise ValueError("a deployment needs at least one AP")

    def assign(self, node_positions: list[Point]) -> list[NodeAssignment]:
        """Best-AP assignment for each node, each aimed at its AP."""
        assignments = []
        for node in node_positions:
            best_idx, best_snr = -1, float("-inf")
            for idx, ap in enumerate(self.ap_positions):
                snr = _link_snr(node, ap, self.room)
                if snr > best_snr:
                    best_idx, best_snr = idx, snr
            assignments.append(NodeAssignment(
                node_position=node, ap_index=best_idx, snr_db=best_snr))
        return assignments

    def coverage(self, node_positions: list[Point],
                 threshold_db: float = 10.0) -> float:
        """Fraction of nodes meeting the SNR target."""
        if not node_positions:
            raise ValueError("no nodes to cover")
        assignments = self.assign(node_positions)
        return float(np.mean([a.covered(threshold_db) for a in assignments]))

    def load_per_ap(self, node_positions: list[Point]) -> list[int]:
        """How many nodes each AP ends up serving."""
        counts = [0] * len(self.ap_positions)
        for assignment in self.assign(node_positions):
            counts[assignment.ap_index] += 1
        return counts


def snr_matrix(room: Room, ap_positions: list[Point],
               node_positions: list[Point]) -> np.ndarray:
    """Per-(node, AP) OTAM SNR table — the failover affinity map.

    ``result[i, j]`` is node *i*'s SNR when aimed at AP *j*.  A cluster
    uses each row (sorted descending) as that node's re-association
    preference order: when its serving AP dies, the node fails over to
    the best-SNR *surviving* AP, exactly the assignment rule
    :meth:`Deployment.assign` applies at install time.
    """
    if not ap_positions or not node_positions:
        raise ValueError("need at least one AP and one node position")
    out = np.empty((len(node_positions), len(ap_positions)), dtype=float)
    for i, node in enumerate(node_positions):
        for j, ap in enumerate(ap_positions):
            out[i, j] = _link_snr(node, ap, room)
    return out


def plan_access_points(room: Room, node_positions: list[Point],
                       candidate_positions: list[Point],
                       threshold_db: float = 10.0,
                       max_aps: int | None = None) -> list[Point]:
    """Greedy set-cover AP placement.

    Repeatedly adds the candidate AP that covers the most currently
    uncovered nodes, until everyone is covered, candidates run out, or
    ``max_aps`` is hit.  Returns the chosen AP positions (possibly
    covering less than 100 % — check with :meth:`Deployment.coverage`).
    """
    if not candidate_positions:
        raise ValueError("no candidate AP positions")
    if max_aps is None:
        max_aps = len(candidate_positions)
    if max_aps < 1:
        raise ValueError("need at least one AP allowed")

    # Precompute per-candidate coverage sets.
    covers: list[set[int]] = []
    for ap in candidate_positions:
        covered = {i for i, node in enumerate(node_positions)
                   if _link_snr(node, ap, room) >= threshold_db}
        covers.append(covered)

    chosen: list[Point] = []
    uncovered = set(range(len(node_positions)))
    remaining = list(range(len(candidate_positions)))
    while uncovered and remaining and len(chosen) < max_aps:
        best = max(remaining, key=lambda c: len(covers[c] & uncovered))
        gain = covers[best] & uncovered
        if not gain:
            break
        chosen.append(candidate_positions[best])
        uncovered -= gain
        remaining.remove(best)
    if not chosen:
        # Even a hopeless site gets its best single AP.
        best = max(range(len(candidate_positions)),
                   key=lambda c: len(covers[c]))
        chosen.append(candidate_positions[best])
    return chosen
