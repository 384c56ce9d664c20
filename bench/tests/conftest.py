"""Make the benchmark's modules importable as top-level modules, the way
``bench/run.py`` imports them (run with ``PYTHONPATH=src``)."""

import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent
if str(BENCH) not in sys.path:
    sys.path.insert(0, str(BENCH))
