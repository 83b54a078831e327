import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from asyncsgd import (
    DiagnosticsError,
    FixedSpeeds,
    ProblemConstants,
    RandomSpeeds,
    StragglerSpeeds,
    bounded_nonconvex,
    least_squares,
    make_schedule,
    run_async,
    simulate_trace,
    trace_from_workers,
    track,
)
from asyncsgd import virtual
from asyncsgd.problems import _row_dots
from reference import naive_virtual, reference_track, same_bits


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
        assert track(record).max_rel_residual <= 1e-10, tag


def test_identity_with_never_returning_worker():
    # workers 2 and 3 never arrive; their initial gradients stay in flight the
    # whole run and must be priced with the terminal delay
    problem = least_squares(dim=3, num_samples=12, sigma=0.5, seed=7)
    record = diagnostics_run(problem, trace_from_workers([1] * 12, num_workers=3))
    assert track(record).max_rel_residual <= 1e-10


def test_gap_norm_bounded_by_inflight_stepsizes():
    # constant-step schedule on a gradient-bounded objective: the gap is a sum
    # of M-1 gradients each of norm at most G, scaled by the constant step
    problem = bounded_nonconvex(dim=3, num_samples=15, seed=9)
    trace = simulate_trace(FixedSpeeds((1.0, 1.9, 4.2)), 50)
    constants = ProblemConstants(
        smoothness=problem.smoothness, lipschitz=problem.lipschitz,
        sigma=problem.sigma, init_distance=1.0, init_gap=problem.value(np.zeros(3)),
        num_workers=3, horizon=50)
    schedule = make_schedule("const-lipschitz", constants)
    record = run_async(problem, trace, schedule, np.zeros(3), seed=2, diagnostics=True)
    vt = track(record)
    bound = 2 * schedule.cap * problem.lipschitz
    assert np.all(np.linalg.norm(vt.gaps, axis=1) <= bound + 1e-12)
    assert vt.max_rel_residual <= 1e-10


def test_injected_bookkeeping_bug_fails_loudly():
    problem = least_squares(dim=4, num_samples=20, sigma=1.0, seed=10)
    trace = simulate_trace(StragglerSpeeds(1.0, 5, 30.0, 5), 150)
    record = diagnostics_run(problem, trace)
    assert track(record).max_rel_residual <= 1e-10
    assert track(record, inject="prev-off-by-one").max_rel_residual > 1e-6


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
    diag.gradients = diag.gradients[:-1]
    with pytest.raises(DiagnosticsError, match="gradient store has shape"):
        track(diag)


# block sizes the bit-for-bit test patches into the tracker
BLOCKS = (1, 2, 3, 7, virtual._BLOCK)

# ten workers over more than three blocks of the tracker, each block's first
# arrival by the worker that arrived last in the block before: the reused
# index buffer must not carry a block's rows into the next
EDGE_REPEATS = [(k - (k > 0 and k % virtual._BLOCK == 0)) * 7 % 10 + 1
                for k in range(3 * virtual._BLOCK + 2)]


@st.composite
def tracker_cases(draw):
    """(dim, M, arrival order, seed, block). Only workers 1..active ever
    arrive, so workers active+1..M never return; the horizon is often one of
    the drawn block's edges."""
    block = draw(st.sampled_from(BLOCKS))
    m_count = draw(st.integers(min_value=1, max_value=10))
    active = draw(st.integers(min_value=1, max_value=m_count))
    edges = [k for k in (block - 1, block, block + 1, 2 * block + 1) if k >= 1]
    horizon = draw(st.one_of(st.sampled_from(edges), st.integers(min_value=1, max_value=300)))
    workers = draw(st.lists(st.integers(min_value=1, max_value=active),
                            min_size=horizon, max_size=horizon))
    return (draw(st.sampled_from([1, 3, 50])), m_count, workers, draw(st.integers(0, 2**16)),
            block)


@settings(max_examples=100, deadline=None)
@given(tracker_cases())
@example((1, 8, [(k * 5) % 8 + 1 for k in range(129)], 1, 128))
@example((1, 10, [(k * 3) % 7 + 1 for k in range(257)], 2, 128))
@example((3, 9, [1, 2, 3] * 42 + [4], 3, 128))
# worker 4 never arrives: its dispatch-0 row is held across every block
@example((50, 4, [k % 3 + 1 for k in range(40)], 4, 7))
# worker 3 is a straggler that arrives only at K
@example((3, 3, [1, 2] * 20 + [3], 5, 3))
@example((3, 10, EDGE_REPEATS, 6, virtual._BLOCK))
def test_track_equals_per_step_reference_bit_for_bit(case):
    dim, m_count, workers, seed, block = case
    problem = least_squares(dim=dim, num_samples=12, sigma=0.7, seed=seed % 97)
    trace = trace_from_workers(workers, num_workers=m_count)
    x0 = np.ones(dim)
    schedule = make_schedule("adaptive-convex", problem.constants_for(
        x0, m_count, max(trace.horizon, m_count)))
    record = run_async(problem, trace, schedule, x0, seed=seed, diagnostics=True)
    for inject in (None, "prev-off-by-one"):
        with mock.patch.object(virtual, "_BLOCK", block):
            vt = track(record, inject=inject)
        got = (vt.virtual_iterates, vt.gaps, vt.rel_residuals)
        for name, a, b in zip(("virtual_iterates", "gaps", "rel_residuals"), got,
                              reference_track(record, inject)):
            assert same_bits(a, b), (name, inject, block)


def test_stacked_row_dot_equals_dot():
    # track takes every row's squared norm in one stacked matmul; its residuals
    # equal the per-step loop's only while that is a.dot(a) row by row
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    rng = np.random.default_rng(17)
    for dim in range(1, 258):
        rows = rng.standard_normal((9, dim)) * np.exp(rng.uniform(-20, 20, (9, 1)))
        want = np.array([float(a.dot(a)) for a in rows])
        assert same_bits(_row_dots(rows, rows), want), (
            f"stacked row dot differs from a.dot(a) at d={dim} under numpy {np.__version__} "
            f"with {blas.get('name')} {blas.get('version')}")


def test_tracker_and_store_memory():
    # the diagnostics-wide shape: d=50, M=64, K=5000
    problem = least_squares(dim=50, num_samples=200, noise="rows", seed=13)
    trace = simulate_trace(RandomSpeeds("lognormal", tuple(np.linspace(1.0, 4.0, 64)),
                                        seed=13), 5000)
    x0 = np.zeros(50)
    schedule = make_schedule("adaptive-convex", problem.constants_for(x0, 64, 5000))
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        plain = run_async(problem, trace, schedule, x0, seed=1, keep_iterates=True)
        kept_plain = tracemalloc.get_traced_memory()[0] - base
        del plain
        base = tracemalloc.get_traced_memory()[0]
        record = run_async(problem, trace, schedule, x0, seed=1, diagnostics=True)
        kept_diag = tracemalloc.get_traced_memory()[0] - base
        # what diagnostics keeps on top of the iterate history is the store
        assert kept_diag - kept_plain <= (64 + 5000 - 1) * 50 * 8 + 64 * 1024
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        vt = track(record)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    outputs = sum(a.nbytes for a in (vt.virtual_iterates, vt.gaps, vt.rel_residuals))
    assert peak - outputs <= 1024 * 1024
