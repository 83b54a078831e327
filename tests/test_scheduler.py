import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from asyncsgd import (
    ArrivalTrace,
    FixedSpeeds,
    LedgerError,
    RandomSpeeds,
    SpeedModelError,
    StragglerSpeeds,
    simulate_trace,
    speedup_factor,
    steps_in_time,
    trace_from_workers,
)
from reference import naive_delays


def test_equal_speeds_round_robin():
    trace = simulate_trace(FixedSpeeds((1.0, 1.0)), 4)
    assert trace.workers.tolist() == [1, 2, 1, 2]
    assert trace.taus.tolist() == [1, 2, 2, 2]
    assert trace.times.tolist() == [1.0, 1.0, 2.0, 2.0]


def test_fast_worker_dominates_then_slow_arrives():
    # worker 1 finishes ten gradients before worker 2 finishes one; at the
    # t=10 tie the lower index arrives first
    trace = simulate_trace(FixedSpeeds((1.0, 10.0)), 11)
    assert trace.workers.tolist() == [1] * 10 + [2]
    assert trace.taus.tolist() == [1] * 10 + [11]
    assert trace.times.tolist() == list(range(1, 11)) + [10.0]


def test_three_workers_tie_break_by_index():
    trace = simulate_trace(FixedSpeeds((2.0, 2.0, 1.0)), 5)
    # t=1: worker 3; t=2: workers 1, 2, 3 tie in index order
    assert trace.workers.tolist() == [3, 1, 2, 3, 3]
    assert trace.times.tolist() == [1.0, 2.0, 2.0, 2.0, 3.0]


def test_zero_horizon_gives_empty_trace():
    trace = simulate_trace(FixedSpeeds((1.0,)), 0)
    assert trace.horizon == 0


def test_fixed_speeds_validation():
    with pytest.raises(SpeedModelError):
        FixedSpeeds(())
    with pytest.raises(SpeedModelError):
        FixedSpeeds((1.0, 0.0))
    with pytest.raises(SpeedModelError):
        FixedSpeeds((1.0, float("inf")))


def test_random_speeds_validation():
    with pytest.raises(SpeedModelError):
        RandomSpeeds("weibull", (1.0,))
    with pytest.raises(SpeedModelError):
        RandomSpeeds("exponential", ())
    with pytest.raises(SpeedModelError):
        RandomSpeeds("exponential", (1.0, -1.0))
    with pytest.raises(SpeedModelError):
        RandomSpeeds("lognormal", (1.0,), sigma=0.0)


def test_random_trace_is_reproducible_and_consistent():
    model = RandomSpeeds("lognormal", (1.0, 2.0, 4.0), sigma=1.0, seed=42)
    a = simulate_trace(model, 300)
    b = simulate_trace(model, 300)
    assert a.workers.tolist() == b.workers.tolist()
    assert a.times.tolist() == b.times.tolist()
    assert a.taus.tolist() == naive_delays(a.workers.tolist())
    assert np.all(np.diff(a.times) >= 0)
    a.validate()


def test_random_speeds_respect_their_means():
    # worker 2 is four times slower on average, so it should collect roughly
    # a fifth of the arrivals; both distributions are mean-corrected
    for dist in ("exponential", "lognormal"):
        model = RandomSpeeds(dist, (1.0, 4.0), sigma=0.8, seed=7)
        trace = simulate_trace(model, 4000)
        share = np.mean(trace.workers == 2)
        assert 0.14 < share < 0.26, (dist, share)


def test_straggler_speeds_seconds():
    model = StragglerSpeeds(base=2.0, straggler=2, slowdown=50.0, num_workers=3)
    assert model.seconds == (2.0, 100.0, 2.0)
    trace = simulate_trace(model, 120)
    # first straggler arrival at t=100, after ~100 fast arrivals; the next
    # would land at t=200, beyond this horizon
    assert np.sum(trace.workers == 2) == 1
    assert trace.taus[trace.workers == 2].tolist() == [100]


def test_straggler_validation():
    with pytest.raises(SpeedModelError):
        StragglerSpeeds(base=1.0, straggler=4, slowdown=10.0, num_workers=3)
    with pytest.raises(SpeedModelError):
        StragglerSpeeds(base=1.0, straggler=1, slowdown=0.5, num_workers=3)
    with pytest.raises(SpeedModelError):
        StragglerSpeeds(base=-1.0, straggler=1, slowdown=2.0, num_workers=3)
    with pytest.raises(SpeedModelError, match="positive and finite"):
        StragglerSpeeds(base=1e300, straggler=1, slowdown=1e10, num_workers=3)   # inf


def test_finish_times_past_the_float_range_are_rejected():
    # each worker's second finish time overflows to inf
    with pytest.raises(SpeedModelError, match="arrival 3 finishes past the float range"):
        simulate_trace(FixedSpeeds((1e308, 1e308)), 8)
    # the overflowing draws lie beyond the horizon, so the trace is finite
    trace = simulate_trace(FixedSpeeds((1e308, 1.0)), 8)
    assert trace.workers.tolist() == [2] * 8


@settings(max_examples=150, deadline=None)
@given(
    st.integers(min_value=1, max_value=5).flatmap(
        lambda m: st.lists(st.integers(min_value=1, max_value=m), min_size=1, max_size=80)
    )
)
def test_trace_from_workers_matches_definition(workers):
    trace = trace_from_workers(workers)
    assert trace.taus.tolist() == naive_delays(workers)
    assert trace.times.tolist() == list(range(1, len(workers) + 1))


def test_trace_rejects_wrong_taus(tmp_path):
    path = tmp_path / "trace.csv"
    path.write_text("k,worker,tau,time\n1,1,1,1.0\n2,2,2,1.5\n3,1,1,2.0\n")
    with pytest.raises(LedgerError) as exc:
        ArrivalTrace.read_csv(path)
    assert str(exc.value) == "trace row 3: recorded delay 1 but the arrival order gives 2"


def test_trace_rejects_decreasing_times():
    with pytest.raises(LedgerError):
        ArrivalTrace(np.array([1, 1]), np.array([2.0, 1.0]), 1)


def test_trace_csv_round_trip(tmp_path):
    trace = simulate_trace(RandomSpeeds("exponential", (1.0, 3.0), seed=5), 50)
    path = tmp_path / "trace.csv"
    trace.write_csv(path)
    back = ArrivalTrace.read_csv(path, num_workers=2)
    assert back.workers.tolist() == trace.workers.tolist()
    assert back.taus.tolist() == trace.taus.tolist()
    # times are serialized with shortest round-trip repr, so they come back exact
    assert back.times.tolist() == trace.times.tolist()
    path2 = tmp_path / "again.csv"
    back.write_csv(path2)
    assert path.read_bytes() == path2.read_bytes()


def test_trace_csv_rejects_missing_columns(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("k,worker\n1,1\n")
    with pytest.raises(LedgerError):
        ArrivalTrace.read_csv(path)


def test_steps_in_time_counts():
    assert steps_in_time([1.0, 1.0, 1.0, 10.0], 100.0) == (310, 10)
    assert steps_in_time([2.0], 7.0) == (3, 3)
    assert steps_in_time([1.0, 3.0], 2.0) == (2, 0)   # slow worker never finishes


def test_speedup_factor_values():
    assert speedup_factor([1.0, 1.0, 1.0, 10.0]) == pytest.approx(7.75)
    assert speedup_factor([5.0, 5.0]) == 1.0
    assert speedup_factor([1.0]) == 1.0


def test_steps_in_time_validation():
    with pytest.raises(SpeedModelError):
        steps_in_time([], 1.0)
    with pytest.raises(SpeedModelError):
        steps_in_time([1.0], -1.0)
    with pytest.raises(SpeedModelError):
        speedup_factor([0.0])
