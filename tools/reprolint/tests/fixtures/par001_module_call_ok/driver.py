"""Parent side: hands trial across the worker boundary."""

from .work import trial


def launch(executor, shards):
    return executor.run_shards(trial, shards)
