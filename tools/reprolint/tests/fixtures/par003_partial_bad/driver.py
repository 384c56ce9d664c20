"""Parent side: the trial reaches the worker through a local partial."""

from functools import partial

from repro.engine import Campaign

from .work import trial


def run(engine, seeds):
    fn = partial(trial, scale=2.0)
    return Campaign(fn, seeds).run(engine)
