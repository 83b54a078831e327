from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import asyncsgd
from asyncsgd import (ArrivalTrace, FixedSpeeds, LedgerError, invariants, least_squares,
                      make_schedule, run_async, scheduler, simulate_trace,
                      trace_from_workers)
from reference import naive_budget_slack, naive_delays, prev_arrival


def test_round_robin_delays():
    trace = trace_from_workers([1, 2, 1, 2], 2)
    assert trace.taus.tolist() == [1, 2, 2, 2]
    assert trace.prevs.tolist() == [0, 0, 1, 2]


def test_single_worker_delays_all_one():
    assert trace_from_workers([1] * 20).taus.tolist() == [1] * 20


def test_worker_id_validation():
    for bad in (0, 3):
        with pytest.raises(LedgerError, match="unknown worker id"):
            ArrivalTrace(np.array([1, bad]), np.array([1.0, 2.0]), 2)
    with pytest.raises(LedgerError):
        ArrivalTrace(np.array([1]), np.array([1.0]), 0)


def test_non_finite_times_are_rejected():
    with pytest.raises(LedgerError, match="row 1: arrival time nan is not finite"):
        ArrivalTrace([1, 2, 1], [np.nan, 1.5, 2.0], 2)
    with pytest.raises(LedgerError, match="row 3: arrival time inf is not finite"):
        ArrivalTrace([1, 2, 1], [1.0, 1.5, np.inf], 2)


def test_times_whose_gaps_overflow_are_ordered_by_comparison():
    # the gap between -max and +max passes the float range; the order check
    # compares times, so it raises no overflow warning either way
    big = np.finfo(np.float64).max
    assert ArrivalTrace([1, 1, 1], [-big, big, big], 1).horizon == 3
    with pytest.raises(LedgerError, match="row 2: arrival times must be non-decreasing"):
        ArrivalTrace([1, 1], [big, -big], 1)


def test_budget_tight_for_single_worker():
    # M=1 alternates nothing: every prefix meets the budget with slack 0
    assert trace_from_workers([1] * 7).delay_budget_slack() == 0


def test_budget_matches_definition_on_adversarial_order():
    # worker 2 sits out for a long stretch
    workers = [1] * 12 + [2] + [1] * 3
    trace = trace_from_workers(workers, 2)
    assert trace.delay_budget_slack() == naive_budget_slack(workers, 2) == 0


worker_sequences = st.integers(min_value=1, max_value=5).flatmap(
    lambda m: st.tuples(
        st.just(m),
        st.lists(st.integers(min_value=1, max_value=m), min_size=1, max_size=120),
    )
)


@settings(max_examples=200, deadline=None)
@given(worker_sequences)
def test_budget_slack_matches_definition(case):
    num_workers, workers = case
    trace = trace_from_workers(workers, num_workers)
    assert trace.delay_budget_slack() == naive_budget_slack(workers, num_workers)


@settings(max_examples=200, deadline=None)
@given(worker_sequences)
def test_budget_never_violated_and_delays_definitional(case):
    # realized plus in-flight delays account for every iteration exactly, so
    # any arrival order at all meets the budget with slack exactly 0; delays
    # match the definitional quadratic scan
    num_workers, workers = case
    trace = trace_from_workers(workers, num_workers)
    assert trace.validate() is trace
    assert trace.delay_budget_slack() == 0
    assert trace.taus.tolist() == naive_delays(workers)


@settings(max_examples=200, deadline=None)
@given(worker_sequences)
def test_long_delay_count_capped(case):
    num_workers, workers = case
    assert trace_from_workers(workers, num_workers).long_delay_count_ok()
    # and the cap is what the definition says, checked independently
    m3 = 3 * num_workers
    long_count = 0
    for k in range(1, len(workers) + 1):
        tau = k - prev_arrival(workers, k, workers[k - 1])
        if tau > m3:
            long_count += 1
        assert long_count <= min(k / 3, max(k - m3, 0))


def test_long_delay_count_flags_a_violation():
    # every trace meets the cap and its columns are read-only, so check the
    # cap on a stand-in holding a corrupted column: a delay above 3M = 6 at
    # k = 1 already exceeds min(1/3, max(1 - 6, 0)) = 0
    trace = trace_from_workers([1, 2] * 10, 2)
    assert trace.long_delay_count_ok()
    taus = trace.taus.copy()
    taus[0] = 7
    corrupted = SimpleNamespace(taus=taus, num_workers=trace.num_workers)
    assert not ArrivalTrace.long_delay_count_ok(corrupted)


def test_replay_infers_worker_count():
    trace = trace_from_workers([1, 3, 2])
    assert trace.num_workers == 3
    assert trace.taus.tolist() == [1, 2, 3]
    with pytest.raises(LedgerError):
        trace_from_workers([])


def test_every_exported_name_resolves():
    missing = [name for name in asyncsgd.__all__ if not hasattr(asyncsgd, name)]
    assert missing == []


def test_trace_columns_are_read_only_views():
    workers = np.array([1, 2, 1, 2], dtype=np.int64)
    times = np.arange(1.0, 5.0)
    trace = ArrivalTrace(workers, times, 2)
    assert np.shares_memory(trace.workers, workers) and np.shares_memory(trace.times, times)
    for column in (trace.workers, trace.times, trace.prevs, trace.taus):
        with pytest.raises(ValueError):
            column[0] = 2


def test_delays_are_derived_once_per_trace(monkeypatch):
    calls = []
    original = scheduler.dispatch_iterations
    monkeypatch.setattr(scheduler, "dispatch_iterations",
                        lambda workers: calls.append(1) or original(workers))
    problem = least_squares(dim=2, num_samples=10, sigma=0.5, seed=0)
    x0 = np.ones(2)
    trace = simulate_trace(FixedSpeeds((1.0, 3.0)), 40)
    schedule = make_schedule("adaptive-convex", problem.constants_for(x0, 2, 40))
    run_async(problem, trace, schedule, x0, seed=0, metrics=False)
    assert trace.validate().delay_budget_slack() == 0
    assert trace.long_delay_count_ok()
    assert len(calls) == 1
    calls.clear()
    assert invariants.check_case("adaptive-convex", 3, 30, "lognormal", seed=1) is not None
    assert len(calls) == 1
