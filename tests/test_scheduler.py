import tempfile
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from asyncsgd import (
    ArrivalTrace,
    FixedSpeeds,
    LedgerError,
    RandomSpeeds,
    RunRecord,
    SpeedModelError,
    StragglerSpeeds,
    simulate_trace,
    speedup_factor,
    steps_in_time,
    trace_from_workers,
)
from asyncsgd import scheduler
from reference import naive_delays, row_csv


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


INT64 = np.iinfo(np.int64)
EDGE_FLOATS = [np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324, 1.7976931348623157e308,
               -1.7976931348623157e308, 0.1, 1.0]


def float_columns(draw, count, horizon, finite=False):
    """`count` float64 columns of `horizon` rows, edge values drawn often."""
    values = st.one_of(st.sampled_from([v for v in EDGE_FLOATS if np.isfinite(v) or not finite]),
                       st.floats(allow_nan=not finite, allow_infinity=not finite))
    return [np.array(draw(st.lists(values, min_size=horizon, max_size=horizon)),
                     dtype=np.float64) for _ in range(count)]


def record_with(workers, taus, floats, num_workers=1):
    """A RunRecord holding just the columns its CSV writes."""
    names = ["gammas", "gamma_hats", "times", "fgaps", "gradnorms2"]
    zero = np.zeros(1)
    return RunRecord(num_workers=num_workers, workers=workers, taus=taus,
                     **dict(zip(names, floats)), gamma_hat_initial=zero, x0=zero,
                     x_final=zero, uniform_sum=zero, weighted_sum=zero)


@settings(max_examples=100, deadline=None)
@given(data=st.data(), block=st.sampled_from([1, 2, 3, 7]))
def test_csv_writers_write_the_bytes_of_the_row_loop(data, block):
    # both writers format a block of rows at a time; with blocks of 1, 2, 3
    # and 7 rows, block edges fall inside the table and the last block is
    # partial, and every cell must read as the csv.writer row loop writes it
    horizon = data.draw(st.integers(0, 24), label="K")
    ints = st.integers(INT64.min, INT64.max)
    num_workers = data.draw(st.sampled_from([1, 3, INT64.max]) | st.integers(1, INT64.max))
    workers = data.draw(st.lists(st.sampled_from([1, num_workers]) | st.integers(1, num_workers),
                                 min_size=horizon, max_size=horizon))
    (times,) = float_columns(data.draw, 1, horizon, finite=True)
    trace = ArrivalTrace(workers, np.sort(times), num_workers)
    run_ints = [np.array(data.draw(st.lists(ints, min_size=horizon, max_size=horizon)),
                         dtype=np.int64) for _ in range(2)]
    floats = float_columns(data.draw, 6, horizon)
    metrics = data.draw(st.booleans(), label="metrics")
    vres = floats.pop()
    if not data.draw(st.booleans(), label="vres"):
        vres = None
    if not metrics:
        floats[3:] = [None, None]
    record = record_with(*run_ints, floats)
    nan = np.full(horizon, np.nan)
    run_floats = dict(zip(["gamma", "gamma_hat", "time", "fgap", "gradnorm2"],
                          [nan if c is None else c for c in floats]))
    if vres is not None:
        run_floats["vres"] = vres
    with tempfile.TemporaryDirectory() as tmp, mock.patch.object(scheduler, "_ROWS", block):
        written, expected = Path(tmp, "written.csv"), Path(tmp, "expected.csv")
        trace.write_csv(written)
        row_csv(expected, {"worker": trace.workers, "tau": trace.taus}, {"time": trace.times})
        assert written.read_bytes() == expected.read_bytes()
        record.write_csv(written, vres)
        row_csv(expected, dict(zip(["worker", "tau"], run_ints)), run_floats)
        assert written.read_bytes() == expected.read_bytes()


def test_csv_writer_holds_a_bounded_number_of_rows(tmp_path):
    # a writer that formats whole columns (one block per write) peaked at
    # 27 MB on this run CSV of 2**17 rows and 9 columns, and two nan columns
    # of 2**17 floats take 2 MB; the block writer's peak depends on its block
    # size alone (0.4 MB at 1024 rows)
    horizon = 2**17
    trace = ArrivalTrace(np.arange(horizon) % 8 + 1, np.arange(horizon) / 3.0, 8)
    floats = [np.linspace(0.0, 1.0, horizon) / 7.0 for _ in range(3)]
    record = record_with(trace.workers, trace.taus, [*floats, None, None], 8)
    tracemalloc.start()
    try:
        record.write_csv(tmp_path / "run.csv", floats[0])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**21, peak


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
