"""Worker path: the wall-clock read is two call hops below the trial."""

from .clock import stamp


def trial(seed, scale):
    return step(seed) * scale


def step(seed):
    return stamp() + seed
