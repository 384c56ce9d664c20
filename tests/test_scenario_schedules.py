"""Every chaos scenario's fault schedule, pinned to the last bit.

``RECORDED`` holds ``scenario_injector(name, seed).schedule(30.0,
QUIET_TAIL_S).events`` for every scenario and seeds 0-3 as (kind,
start, duration, severity, channel) tuples of exact floats (``repr``
round-trips).  A change to a scenario's windows, to their order in
:data:`~repro.faults.SCENARIOS` (each entry, a fixed
:class:`~repro.faults.FaultEvent` included, takes the child stream at
its position) or to the injector's clipping shows here, not only in
the 3-decimal chaos reports.
"""

import pytest

from repro.experiments.chaos import QUIET_TAIL_S
from repro.faults import SCENARIOS, scenario_injector

SEEDS = range(4)

RECORDED = {
    ("blockage", 0): (
        ("blockage", 8.0, 8.0, 27.5, None),
        ("blockage", 24.701458431073707, 0.9745057285782471,
         30.83513882974738, None),
        ("blockage", 26.39607965712192, 0.6039203428780802,
         29.720571463809243, None),
        ("blockage", 26.890980214894448, 0.1090197851055521,
         24.030450808826252, None),
    ),
    ("blockage", 1): (
        ("blockage", 8.0, 8.0, 27.5, None),
        ("blockage", 20.567671645114746, 0.7615032820596437,
         29.676777982959415, None),
    ),
    ("blockage", 2): (
        ("blockage", 8.0, 8.0, 27.5, None),
        ("blockage", 18.000160310978103, 0.7199808025542216,
         26.53919618473229, None),
    ),
    ("blockage", 3): (
        ("blockage", 1.5697742933768026, 1.068017528904229,
         33.493697454430205, None),
        ("blockage", 3.4269323712224855, 0.8590430522578192,
         25.715041817272056, None),
        ("blockage", 7.592508410977797, 1.271666684917832,
         30.32518303985062, None),
        ("blockage", 8.0, 8.0, 27.5, None),
        ("blockage", 14.006916515246289, 1.861350146141474,
         23.19750984313003, None),
    ),
    ("drift", 0): (
        ("vco_drift", 5.0, 14.0, 600000.0, None),
    ),
    ("drift", 1): (
        ("vco_drift", 5.0, 14.0, 600000.0, None),
    ),
    ("drift", 2): (
        ("vco_drift", 5.0, 14.0, 600000.0, None),
    ),
    ("drift", 3): (
        ("vco_drift", 5.0, 14.0, 600000.0, None),
    ),
    ("dropout", 0): (
        ("side_channel_outage", 10.0, 4.0, 1.0, None),
    ),
    ("dropout", 1): (
        ("side_channel_outage", 10.0, 4.0, 1.0, None),
    ),
    ("dropout", 2): (
        ("side_channel_outage", 10.0, 4.0, 1.0, None),
    ),
    ("dropout", 3): (
        ("dropout", 3.1395485867536053, 2.136035057808458, 1.0, None),
        ("side_channel_outage", 10.0, 4.0, 1.0, None),
        ("dropout", 16.7899852080941, 2.8515355250257866, 1.0, None),
        ("dropout", 26.53961634746531, 0.4603836525346914, 1.0, None),
    ),
    ("energy-outage", 0): (
        ("energy_outage", 6.0, 12.0, 1.0, None),
    ),
    ("energy-outage", 1): (
        ("energy_outage", 6.0, 12.0, 1.0, None),
    ),
    ("energy-outage", 2): (
        ("energy_outage", 6.0, 12.0, 1.0, None),
    ),
    ("energy-outage", 3): (
        ("energy_outage", 6.0, 12.0, 1.0, None),
    ),
    ("interference", 0): (
        ("interference", 5.0, 15.0, -60.0, 0),
    ),
    ("interference", 1): (
        ("interference", 5.0, 15.0, -60.0, 0),
    ),
    ("interference", 2): (
        ("interference", 5.0, 15.0, -60.0, 0),
    ),
    ("interference", 3): (
        ("interference", 5.0, 15.0, -60.0, 0),
    ),
    ("kitchen-sink", 0): (
        ("blockage", 4.0, 6.0, 27.5, None),
        ("vco_drift", 12.0, 6.0, 500000.0, None),
        ("interference", 14.0, 8.0, -60.0, 0),
        ("stuck_beam", 20.0, 5.0, 1.0, None),
    ),
    ("kitchen-sink", 1): (
        ("blockage", 4.0, 6.0, 27.5, None),
        ("vco_drift", 12.0, 6.0, 500000.0, None),
        ("interference", 14.0, 8.0, -60.0, 0),
        ("stuck_beam", 20.0, 5.0, 1.0, None),
        ("dropout", 25.81040296109849, 1.1895970389015105, 1.0, None),
    ),
    ("kitchen-sink", 2): (
        ("dropout", 2.3037532512028775, 1.604327675118808, 1.0, None),
        ("blockage", 4.0, 6.0, 27.5, None),
        ("vco_drift", 12.0, 6.0, 500000.0, None),
        ("interference", 14.0, 8.0, -60.0, 0),
        ("dropout", 14.11677089757428, 2.301446687788175, 1.0, None),
        ("stuck_beam", 20.0, 5.0, 1.0, None),
        ("blockage", 24.000213747970804, 0.7199808025542216,
         26.53919618473229, None),
    ),
    ("kitchen-sink", 3): (
        ("blockage", 2.09303239116907, 1.068017528904229,
         33.493697454430205, None),
        ("blockage", 4.0, 6.0, 27.5, None),
        ("blockage", 4.569243161629981, 0.8590430522578192,
         25.715041817272056, None),
        ("blockage", 10.123344547970396, 1.271666684917832,
         30.32518303985062, None),
        ("vco_drift", 12.0, 6.0, 500000.0, None),
        ("interference", 14.0, 8.0, -60.0, 0),
        ("dropout", 16.949673885977774, 1.4025532032988162, 1.0, None),
        ("blockage", 18.67588868699505, 1.861350146141474,
         23.19750984313003, None),
        ("stuck_beam", 20.0, 5.0, 1.0, None),
    ),
    ("stuck-beam", 0): (
        ("stuck_beam", 6.0, 12.0, 1.0, None),
    ),
    ("stuck-beam", 1): (
        ("stuck_beam", 6.0, 12.0, 1.0, None),
    ),
    ("stuck-beam", 2): (
        ("stuck_beam", 6.0, 12.0, 1.0, None),
    ),
    ("stuck-beam", 3): (
        ("stuck_beam", 6.0, 12.0, 1.0, None),
    ),
}


def test_every_scenario_and_seed_is_recorded():
    assert set(RECORDED) == {(name, seed) for name in SCENARIOS
                             for seed in SEEDS}


@pytest.mark.parametrize("name, seed", sorted(RECORDED))
def test_schedule_matches_recording(name, seed):
    events = scenario_injector(name, seed).schedule(
        30.0, QUIET_TAIL_S).events
    assert tuple((e.kind, e.start_s, e.duration_s, e.severity,
                  e.channel_index) for e in events) == RECORDED[(name, seed)]
