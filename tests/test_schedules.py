import math
from types import SimpleNamespace

import numpy as np
import pytest

from asyncsgd import (
    DEFAULT_OUTPUT_RULE,
    OUTPUT_RULES,
    AdaptiveConvex,
    AdaptiveHeterogeneous,
    AdaptiveNonconvex,
    AdaptiveStronglyConvex,
    ConstantStep,
    ConstLipschitz,
    FixedSpeeds,
    LipschitzSmooth,
    ProblemConstants,
    ScheduleError,
    expected_sampled_metric,
    least_squares,
    log_weighted_stepsize_sum,
    make_schedule,
    output_weights,
    run_async,
    select_output,
    simulate_trace,
)

ADAPTIVE = (AdaptiveConvex, AdaptiveStronglyConvex, AdaptiveNonconvex, AdaptiveHeterogeneous)


def consts(**kw):
    base = dict(smoothness=1.0, strong_convexity=0.1, lipschitz=1.0, sigma=1.0,
                init_distance=1.0, init_gap=1.0, num_workers=2, horizon=100)
    base.update(kw)
    return ProblemConstants(**base)


def test_constants_validation():
    with pytest.raises(ScheduleError):
        consts(smoothness=-1.0)
    with pytest.raises(ScheduleError):
        consts(sigma=float("nan"))
    with pytest.raises(ScheduleError):
        consts(num_workers=0)
    with pytest.raises(ScheduleError):
        consts(horizon=0)


def test_const_lipschitz_value():
    sched = ConstLipschitz(consts(init_distance=1.0, lipschitz=1.0, horizon=100, num_workers=4))
    assert sched.gamma(1, 1) == 0.05
    assert sched.gamma(99, 37) == 0.05  # flat in both arguments


def test_const_lipschitz_requirements():
    with pytest.raises(ScheduleError):
        ConstLipschitz(consts(init_distance=0.0))
    with pytest.raises(ScheduleError):
        ConstLipschitz(consts(lipschitz=0.0))
    with pytest.raises(ScheduleError):
        ConstLipschitz(consts(horizon=3, num_workers=4))


def test_lipschitz_smooth_min_of_three():
    c = consts(smoothness=2.0, num_workers=3, horizon=48, lipschitz=1.5,
               init_gap=2.0, sigma=0.5)
    sched = LipschitzSmooth(c)
    # cube-root branch is the active one for these constants
    assert sched.gamma(1, 1) == pytest.approx(0.08012497612818936, rel=1e-15)


def test_lipschitz_smooth_drops_noise_branch_at_sigma_zero():
    c = consts(smoothness=2.0, num_workers=3, horizon=48, lipschitz=1.5,
               init_gap=2.0, sigma=0.0)
    assert LipschitzSmooth(c).gamma(1, 1) == pytest.approx(0.08012497612818936, rel=1e-15)


def test_adaptive_convex_values():
    c = consts(smoothness=2.0, num_workers=3, horizon=64, init_distance=1.5, sigma=2.0)
    sched = AdaptiveConvex(c)
    assert sched.cap == pytest.approx(1 / 24, rel=1e-15)
    assert sched.gamma(5, 1) == pytest.approx(1 / 24, rel=1e-15)
    assert sched.gamma(5, 10) == pytest.approx(0.0125, rel=1e-15)
    assert sched.sum_bound == pytest.approx(0.2962962962962963, rel=1e-15)


def test_adaptive_convex_sigma_zero_needs_no_distance():
    c = consts(smoothness=2.0, num_workers=3, sigma=0.0, init_distance=0.0)
    assert AdaptiveConvex(c).cap == pytest.approx(1 / 24, rel=1e-15)


def test_adaptive_strongly_convex_values():
    c = consts(smoothness=2.0, strong_convexity=0.5, num_workers=2, horizon=60,
               init_distance=1.0, sigma=1.0)
    sched = AdaptiveStronglyConvex(c)
    assert sched.cap == pytest.approx(1 / 32, rel=1e-15)
    assert sched.gamma(1, 1) == pytest.approx(1 / 32, rel=1e-15)
    # past the cap crossover the step decays exponentially in the delay
    assert sched.gamma(1, 20) == pytest.approx(0.0033453839282436893, rel=1e-14)
    assert sched.sum_bound == pytest.approx(-3.109060958860994, rel=1e-13)


def test_adaptive_strongly_convex_requirements():
    with pytest.raises(ScheduleError):
        AdaptiveStronglyConvex(consts(strong_convexity=0.0))
    with pytest.raises(ScheduleError):
        AdaptiveStronglyConvex(consts(num_workers=2, horizon=5))


def test_adaptive_nonconvex_values():
    c = consts(smoothness=1.0, num_workers=2, horizon=100, init_gap=0.5, sigma=1.0)
    sched = AdaptiveNonconvex(c)
    assert sched.cap == pytest.approx(0.07071067811865475, rel=1e-15)
    assert sched.gamma(1, 5) == pytest.approx(0.05, rel=1e-15)
    assert sched.sum_bound == pytest.approx(0.7856742013183862, rel=1e-15)


def test_adaptive_heterogeneous_values():
    c = consts(smoothness=1.0, num_workers=2, horizon=100, init_gap=0.5, sigma=1.0)
    sched = AdaptiveHeterogeneous(c)
    # fresh gradients step half as large as the nonconvex rule
    assert sched.gamma(1, 1) == pytest.approx(0.07071067811865475, rel=1e-15)
    assert sched.gamma(1, 3) == pytest.approx(1 / 24, rel=1e-15)
    assert sched.sum_bound == pytest.approx(0.3928371006591931, rel=1e-15)


def test_sigma_zero_drops_gap_requirement_for_nonconvex_rules():
    c = consts(init_gap=0.0, sigma=0.0, smoothness=1.0, num_workers=2)
    assert AdaptiveNonconvex(c).cap == 0.25
    assert AdaptiveHeterogeneous(c).cap == 0.125
    with pytest.raises(ScheduleError):
        AdaptiveNonconvex(consts(init_gap=0.0, sigma=1.0))


@pytest.mark.parametrize("cls", ADAPTIVE)
def test_adaptive_steps_shrink_with_delay(cls):
    sched = cls(consts(horizon=300, num_workers=3))
    gammas = [sched.gamma(7, tau) for tau in range(1, 120)]
    assert all(g > 0 for g in gammas)
    assert all(a >= b for a, b in zip(gammas, gammas[1:]))
    # the rule reads only the delay, never the iteration index
    assert sched.gamma(1, 13) == sched.gamma(299, 13)


@pytest.mark.parametrize("cls", ADAPTIVE + (ConstLipschitz, LipschitzSmooth))
def test_delay_must_be_positive(cls):
    sched = cls(consts(horizon=300, num_workers=3))
    with pytest.raises(ScheduleError):
        sched.gamma(1, 0)


def test_constant_step():
    sched = ConstantStep(consts(), 0.125)
    assert sched.gamma(1, 40) == 0.125
    with pytest.raises(ScheduleError):
        ConstantStep(consts(), 0.0)


def test_make_schedule_dispatch():
    c = consts()
    assert make_schedule("adaptive-convex", c).tag == "adaptive-convex"
    assert make_schedule("constant", c, step=0.1).cap == 0.1
    with pytest.raises(ScheduleError):
        make_schedule("constant", c)
    with pytest.raises(ScheduleError):
        make_schedule("adaptive-convex", c, step=0.1)
    with pytest.raises(ScheduleError):
        make_schedule("polyak", c)


def test_default_output_rules_pinned():
    assert DEFAULT_OUTPUT_RULE == {
        "const-lipschitz": "uniform",
        "lipschitz-smooth": "sampled",
        "adaptive-convex": "weighted",
        "adaptive-strongly-convex": "exp-weighted",
        "adaptive-nonconvex": "sampled",
        "adaptive-heterogeneous": "sampled",
        "constant": "weighted",
    }
    assert set(DEFAULT_OUTPUT_RULE.values()) <= set(OUTPUT_RULES)


def test_output_weights_exact_small_cases():
    np.testing.assert_allclose(output_weights("weighted", [1.0, 3.0]), [0.25, 0.75], rtol=0)
    np.testing.assert_allclose(output_weights("uniform", [9.0, 9.0, 9.0, 9.0]),
                               [0.25] * 4, rtol=0)
    np.testing.assert_allclose(output_weights("sampled", [1.0, 3.0]), [0.25, 0.75], rtol=0)


def test_exp_weights_match_direct_computation():
    gh = np.array([0.5, 1.0])
    w = output_weights("exp-weighted", gh, mu=2.0)
    direct = gh * np.exp(2.0 * np.cumsum(gh))
    np.testing.assert_allclose(w, direct / direct.sum(), rtol=1e-14)
    # mu=0 reduces to stepsize weighting
    np.testing.assert_allclose(output_weights("exp-weighted", gh, mu=0.0),
                               output_weights("weighted", gh), rtol=1e-15)


def test_exp_weights_survive_huge_exponents():
    gh = np.full(1000, 0.1)
    w = output_weights("exp-weighted", gh, mu=50.0)   # exp(5000) territory
    assert np.all(np.isfinite(w))
    assert w.sum() == pytest.approx(1.0, rel=1e-12)
    assert np.argmax(w) == 999


def test_log_weighted_stepsize_sum():
    gh = np.array([0.2, 0.3, 0.1])
    direct = float(np.sum(gh * np.exp(0.7 * np.cumsum(gh))))
    assert log_weighted_stepsize_sum(gh, 0.7) == pytest.approx(math.log(direct), rel=1e-14)
    # geometric-series closed form for a constant schedule, far past overflow
    assert log_weighted_stepsize_sum(np.full(1000, 0.1), 50.0) == pytest.approx(
        4997.704175656455, rel=1e-13)
    with pytest.raises(ScheduleError):
        log_weighted_stepsize_sum([0.1, 0.0], 1.0)


def test_output_weights_validation():
    with pytest.raises(ScheduleError):
        output_weights("weighted", [])
    with pytest.raises(ScheduleError):
        output_weights("weighted", [1.0, -1.0])
    with pytest.raises(ScheduleError):
        output_weights("median", [1.0])


def test_expected_sampled_metric_exact():
    record = SimpleNamespace(gamma_hats=np.array([1.0, 3.0]))
    assert expected_sampled_metric(record, [2.0, 6.0]) == 5.0
    with pytest.raises(ScheduleError):
        expected_sampled_metric(record, [1.0, 2.0, 3.0])


@pytest.fixture(scope="module")
def small_run():
    problem = least_squares(dim=3, num_samples=12, sigma=0.5, seed=2)
    trace = simulate_trace(FixedSpeeds((1.0, 1.7, 2.9)), 40)
    constants = problem.constants_for(np.zeros(3), 3, 40)
    schedule = make_schedule("adaptive-convex", constants)
    return problem, run_async(problem, trace, schedule, np.zeros(3), seed=4,
                              keep_iterates=True)


def test_select_output_matches_running_sums(small_run):
    _, rec = small_run
    np.testing.assert_allclose(select_output("uniform", rec),
                               rec.iterates[1:].mean(axis=0), rtol=1e-12)
    direct = (rec.gamma_hats[:, None] * rec.iterates[1:]).sum(axis=0) / rec.gamma_hats.sum()
    np.testing.assert_allclose(select_output("weighted", rec), direct, rtol=1e-12)


def test_select_output_exp_weighted_uses_schedule_mu(small_run):
    _, rec = small_run
    mu = rec.schedule.constants.strong_convexity
    assert mu > 0
    w = output_weights("exp-weighted", rec.gamma_hats, mu=mu)
    np.testing.assert_allclose(select_output("exp-weighted", rec),
                               w @ rec.iterates[1:], rtol=1e-12)


def test_select_output_sampled_returns_an_iterate(small_run):
    _, rec = small_run
    point = select_output("sampled", rec, np.random.default_rng(0))
    assert any(np.array_equal(point, it) for it in rec.iterates[1:])
    with pytest.raises(ScheduleError):
        select_output("sampled", rec)   # rng is mandatory


def test_select_output_stays_in_iterate_hull(small_run):
    _, rec = small_run
    lo = rec.iterates[1:].min(axis=0) - 1e-12
    hi = rec.iterates[1:].max(axis=0) + 1e-12
    for rule in ("uniform", "weighted", "exp-weighted"):
        point = select_output(rule, rec)
        assert np.all(point >= lo) and np.all(point <= hi), rule


def test_select_output_needs_iterates_for_sampling_rules():
    problem = least_squares(dim=2, num_samples=8, sigma=0.5, seed=3)
    trace = simulate_trace(FixedSpeeds((1.0, 1.3)), 10)
    constants = problem.constants_for(np.zeros(2), 2, 10)
    rec = run_async(problem, trace, make_schedule("adaptive-convex", constants),
                    np.zeros(2), seed=1)
    assert rec.iterates is None
    select_output("uniform", rec)
    select_output("weighted", rec)
    with pytest.raises(ScheduleError):
        select_output("exp-weighted", rec)
