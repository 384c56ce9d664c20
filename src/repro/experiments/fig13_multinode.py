"""Fig. 13: mean per-node SNR vs number of simultaneous nodes (§9.5).

Protocol: AP on one side of the room, N nodes at random locations and
orientations transmitting simultaneously, 100 runs, FDM across 25 MHz
channels with SDM (TMA) reuse once the band is full.

Published shape: the mean SNR decays only mildly with node count and
stays above ~29 dB even at 20 simultaneous nodes.

The sweep runs as a :mod:`repro.engine` campaign: one trial per
(node count, repetition) pair, each with its own child seed, so the
100-run protocol fans out across cores with the same statistics as the
serial default.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Any

import numpy as np

from ..engine import Campaign, ResultStore, ShardExecutor
from ..network.network import MultiNodeNetwork
from ..sim.environment import default_lab_room
from .report import format_table

__all__ = ["Fig13Result", "run", "render", "NODE_COUNTS"]

NODE_COUNTS = (1, 2, 5, 10, 20)
"""The x-axis of the paper's Fig. 13."""


@dataclass(frozen=True)
class Fig13Result:
    """Mean-SINR samples per node count."""

    node_counts: tuple[int, ...]
    mean_sinr_db: np.ndarray
    std_sinr_db: np.ndarray

    @property
    def degradation_db(self) -> float:
        """SNR drop from the smallest to the largest node count."""
        return float(self.mean_sinr_db[0] - self.mean_sinr_db[-1])

    @property
    def sinr_at_max_nodes_db(self) -> float:
        """Mean SINR at the largest node count (paper: >29 dB at 20)."""
        return float(self.mean_sinr_db[-1])


def network_trial(rng: np.random.Generator, index: int,
                  node_counts: tuple[int, ...] = NODE_COUNTS,
                  trials_per_count: int = 30) -> dict[str, Any]:
    """One Fig. 13 trial: place N nodes, transmit simultaneously.

    The flat trial index maps onto the sweep as
    ``node_counts[index // trials_per_count]`` — the first
    ``trials_per_count`` trials run the smallest count, and so on.
    Each trial builds a fresh room and network from its own child
    generator, so a sample depends only on its seed, never on the
    trials (or shards) that ran before it.  Module-level so it pickles
    into :class:`~repro.engine.SupervisedPool` workers.
    """
    count = int(node_counts[index // trials_per_count])
    network = MultiNodeNetwork(default_lab_room(), rng)
    snapshot = network.evaluate(count)
    return {"node_count": count,
            "mean_sinr_db": float(snapshot.mean_sinr_db)}


def run(seed: int = 0, node_counts=NODE_COUNTS,
        trials_per_count: int = 30,
        executor: ShardExecutor | None = None,
        num_shards: int | None = None,
        store: ResultStore | str | None = None) -> Fig13Result:
    """Sweep node counts with fresh random placements per trial.

    Runs as an engine campaign: serial by default, multi-core with
    ``executor=SupervisedPool(...)``, resumable with ``store=``.  The
    per-count statistics depend only on ``seed`` and the sweep
    parameters.
    """
    counts = tuple(int(n) for n in node_counts)
    trial_fn = partial(network_trial, node_counts=counts,
                       trials_per_count=trials_per_count)
    outcome = Campaign(trial_fn, len(counts) * trials_per_count,
                       master_seed=seed, num_shards=num_shards,
                       executor=executor, store=store).run()
    samples = outcome.collect_planned("mean_sinr_db").reshape(
        len(counts), trials_per_count)
    means = np.asarray([row.mean() for row in samples])
    stds = np.asarray([row.std() for row in samples])
    return Fig13Result(node_counts=counts,
                       mean_sinr_db=means, std_sinr_db=stds)


def render(result: Fig13Result) -> str:
    """Node-count sweep table plus the headline claim check."""
    rows = [[n, f"{m:.1f}", f"{s:.1f}"]
            for n, m, s in zip(result.node_counts, result.mean_sinr_db,
                               result.std_sinr_db)]
    table = format_table(
        ["simultaneous nodes", "mean SNR [dB]", "std [dB]"],
        rows, title="Fig. 13 — multi-node performance")
    summary = format_table(
        ["metric", "value", "paper"],
        [
            ["mean SNR at 20 nodes [dB]",
             f"{result.sinr_at_max_nodes_db:.1f}", ">29"],
            ["1 -> 20 node degradation [dB]",
             f"{result.degradation_db:.1f}", "slight"],
        ],
        title="Multi-node summary")
    return "\n\n".join([table, summary])
