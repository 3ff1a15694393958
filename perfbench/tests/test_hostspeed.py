import math

import hostspeed
import run
import workloads


def test_every_workload_has_a_reference_with_positive_readings():
    assert set(hostspeed.FOR_WORKLOAD) == set(workloads.GENERATORS)
    for index in set(hostspeed.FOR_WORKLOAD.values()):
        value = index()
        assert math.isfinite(value) and value > 0.0


def test_each_session_gets_the_mean_of_the_readings_around_it(monkeypatch):
    readings = iter([1.0, 2.0, 4.0, 4.0])
    monkeypatch.setattr(run, "run_session", lambda *args: {"wall": 1.0})
    # a zero-second phase runs exactly one session; run twice for two
    first = run.run_phase(None, "sweep", 1, 0.0, None, None, lambda: next(readings))
    second = run.run_phase(None, "sweep", 1, 0.0, None, None, lambda: next(readings))
    assert [r["host"] for r in first + second] == [1.5, 4.0]
