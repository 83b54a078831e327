import numpy as np
import pytest

from asyncsgd import (
    ConstLipschitz,
    DiagnosticsError,
    FixedSpeeds,
    ProblemConstants,
    RandomSpeeds,
    StragglerSpeeds,
    bounded_nonconvex,
    least_squares,
    make_schedule,
    max_identity_residual,
    run_async,
    simulate_trace,
    trace_from_workers,
    track,
)
from reference import naive_virtual


def diagnostics_run(problem, trace, tag="adaptive-convex", x0=None, seed=5):
    if x0 is None:
        x0 = np.zeros(problem.dim)
    constants = problem.constants_for(x0, trace.num_workers, trace.horizon)
    schedule = make_schedule(tag, constants)
    return run_async(problem, trace, schedule, x0, seed=seed, diagnostics=True)


def test_single_worker_gap_is_exactly_zero():
    # with one worker nothing is ever in flight at an arrival, so the real
    # and virtual sequences coincide
    problem = least_squares(dim=3, num_samples=12, sigma=0.8, seed=1)
    record = diagnostics_run(problem, trace_from_workers([1] * 30))
    vt = track(record)
    assert np.all(vt.gaps == 0.0)
    assert np.all(vt.rel_residuals == 0.0)
    assert vt.terms_per_iteration.tolist() == [0] * 30
    np.testing.assert_array_equal(vt.virtual_iterates, record.iterates[1:])


def test_virtual_sequence_matches_definition():
    problem = least_squares(dim=3, num_samples=12, sigma=0.6, seed=2)
    trace = simulate_trace(RandomSpeeds("exponential", (1.0, 2.0, 3.5), seed=4), 40)
    record = diagnostics_run(problem, trace)
    vt = track(record)
    ref = naive_virtual(record.x0, record.workers.tolist(), record.gradients,
                        record.gamma_hats, record.gamma_hat_initial, 40)
    np.testing.assert_array_equal(vt.virtual_iterates, ref)
    np.testing.assert_array_equal(vt.gaps, record.iterates[1:] - ref)


def test_identity_holds_at_machine_precision():
    configs = [
        (least_squares(dim=4, num_samples=20, sigma=1.0, seed=3),
         simulate_trace(FixedSpeeds((1.0, 1.3, 2.8, 7.0)), 120), "adaptive-convex"),
        (least_squares(dim=2, num_samples=10, sigma=0.0, seed=4),
         simulate_trace(StragglerSpeeds(1.0, 3, 40.0, 3), 90), "adaptive-nonconvex"),
        (least_squares(dim=3, num_samples=30, noise="rows", seed=5),
         simulate_trace(RandomSpeeds("lognormal", (1.0, 4.0), seed=6), 80),
         "adaptive-convex"),
    ]
    for problem, trace, tag in configs:
        record = diagnostics_run(problem, trace, tag=tag)
        assert max_identity_residual(record) <= 1e-10, tag


def test_identity_with_never_returning_worker():
    # workers 2 and 3 never arrive; their initial gradients stay in flight the
    # whole run and must be priced with the terminal delay
    problem = least_squares(dim=3, num_samples=12, sigma=0.5, seed=7)
    record = diagnostics_run(problem, trace_from_workers([1] * 12, num_workers=3))
    vt = track(record)
    assert vt.terms_per_iteration.tolist() == [2] * 12
    assert vt.max_rel_residual <= 1e-10


def test_terms_count_in_flight_gradients():
    problem = least_squares(dim=2, num_samples=10, sigma=0.5, seed=8)
    trace = simulate_trace(FixedSpeeds((1.0, 1.7, 2.1, 3.9, 5.3)), 60)
    vt = track(diagnostics_run(problem, trace))
    assert vt.terms_per_iteration.tolist() == [4] * 60


def test_gap_norm_bounded_by_inflight_stepsizes():
    # constant-step schedule on a gradient-bounded objective: the gap is a sum
    # of M-1 gradients each of norm at most G, scaled by the constant step
    problem = bounded_nonconvex(dim=3, num_samples=15, seed=9)
    trace = simulate_trace(FixedSpeeds((1.0, 1.9, 4.2)), 50)
    constants = ProblemConstants(
        smoothness=problem.smoothness, lipschitz=problem.lipschitz,
        sigma=problem.sigma, init_distance=1.0, init_gap=problem.value(np.zeros(3)),
        num_workers=3, horizon=50)
    schedule = ConstLipschitz(constants)
    record = run_async(problem, trace, schedule, np.zeros(3), seed=2, diagnostics=True)
    vt = track(record)
    bound = 2 * schedule.cap * problem.lipschitz
    assert np.all(np.linalg.norm(vt.gaps, axis=1) <= bound + 1e-12)
    assert vt.max_rel_residual <= 1e-10


def test_injected_bookkeeping_bug_fails_loudly():
    problem = least_squares(dim=4, num_samples=20, sigma=1.0, seed=10)
    trace = simulate_trace(StragglerSpeeds(1.0, 5, 30.0, 5), 150)
    record = diagnostics_run(problem, trace)
    assert max_identity_residual(record) <= 1e-10
    assert max_identity_residual(record, inject="prev-off-by-one") > 1e-6


def test_attach_stores_residual_column():
    problem = least_squares(dim=2, num_samples=10, sigma=0.5, seed=11)
    record = diagnostics_run(problem, simulate_trace(FixedSpeeds((1.0, 1.4)), 20))
    assert record.vres is None
    vt = track(record, attach=True)
    np.testing.assert_array_equal(record.vres, vt.rel_residuals)


def test_track_requires_diagnostics_mode():
    problem = least_squares(dim=2, num_samples=10, sigma=0.5, seed=12)
    trace = simulate_trace(FixedSpeeds((1.0, 1.4)), 10)
    constants = problem.constants_for(np.zeros(2), 2, 10)
    schedule = make_schedule("adaptive-convex", constants)
    record = run_async(problem, trace, schedule, np.zeros(2), seed=0,
                       keep_iterates=True)
    with pytest.raises(DiagnosticsError):
        track(record)
    diag = run_async(problem, trace, schedule, np.zeros(2), seed=0, diagnostics=True)
    with pytest.raises(DiagnosticsError):
        track(diag, inject="future-off-by-one")
