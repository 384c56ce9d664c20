"""Worker path: `np.sort`/`np.insert` call numpy, they mutate no global."""

import numpy as np


def trial(spec):
    return insert_sorted(np.asarray(spec.values), spec.value)


def insert_sorted(values, value):
    return np.sort(np.insert(values, 0, value))
