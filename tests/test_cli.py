import csv
import json
import math
import shutil
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from asyncsgd import ArrivalTrace, FixedSpeeds, cli, simulate_trace
from asyncsgd.cli import main


@pytest.fixture(autouse=True)
def clean_env(monkeypatch):
    monkeypatch.delenv("ASYNC_SGD_SEED", raising=False)


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def base_config(**overrides):
    cfg = {
        "seed": 3,
        "horizon": 30,
        "problem": {"kind": "least-squares", "dim": 3, "num_samples": 15, "sigma": 0.5},
        "speed_model": {"kind": "fixed", "seconds": [1.0, 1.5]},
        "schedule": {"kind": "adaptive-convex"},
        "x0": {"kind": "offset", "distance": 1.0},
    }
    cfg.update(overrides)
    return cfg


def run_cli(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


# ---------------------------------------------------------------------------
# simulate


def test_simulate_end_to_end(tmp_path, capsys):
    out_dir = tmp_path / "out"
    cfg = write_config(tmp_path, base_config())
    code, stdout, _ = run_cli(capsys, ["simulate", "--config", cfg, "--out", str(out_dir)])
    assert code == 0
    payload = json.loads(stdout)
    assert payload["schema"] == 1
    assert payload["command"] == "simulate"
    assert payload["horizon"] == 30
    assert payload["schedule"] == "adaptive-convex"
    assert payload["seed"] == 3
    assert len(payload["runs"]) == 1
    assert payload["runs"][0]["output_rule"] == "weighted"
    # the printed payload and the file are the same document
    on_disk = json.loads((out_dir / "summary.json").read_text())
    assert on_disk == payload
    with open(out_dir / "run_000.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 30
    assert {"k", "worker", "tau", "gamma", "gamma_hat"} <= set(rows[0])


def test_simulate_is_reproducible(tmp_path, capsys):
    cfg = write_config(tmp_path, base_config())
    a_dir, b_dir = tmp_path / "a", tmp_path / "b"
    assert run_cli(capsys, ["simulate", "--config", cfg, "--out", str(a_dir)])[0] == 0
    assert run_cli(capsys, ["simulate", "--config", cfg, "--out", str(b_dir)])[0] == 0
    assert (a_dir / "run_000.csv").read_bytes() == (b_dir / "run_000.csv").read_bytes()
    a = json.loads((a_dir / "summary.json").read_text())
    b = json.loads((b_dir / "summary.json").read_text())
    for run in (*a["runs"], *b["runs"]):
        run.pop("csv")
    assert a == b


def test_simulate_horizon_flag_overrides_config(tmp_path, capsys):
    cfg = write_config(tmp_path, base_config())
    code, stdout, _ = run_cli(capsys, ["simulate", "--config", cfg, "--horizon", "12"])
    assert code == 0
    assert json.loads(stdout)["horizon"] == 12


def test_seed_precedence(tmp_path, capsys, monkeypatch):
    cfg = write_config(tmp_path, base_config())
    assert json.loads(run_cli(capsys, ["simulate", "--config", cfg])[1])["seed"] == 3
    assert json.loads(run_cli(capsys, ["simulate", "--config", cfg,
                                       "--seed", "4"])[1])["seed"] == 4
    monkeypatch.setenv("ASYNC_SGD_SEED", "9")
    assert json.loads(run_cli(capsys, ["simulate", "--config", cfg,
                                       "--seed", "4"])[1])["seed"] == 9
    monkeypatch.setenv("ASYNC_SGD_SEED", "not-a-seed")
    code, _, err = run_cli(capsys, ["simulate", "--config", cfg])
    assert code == 2 and "ASYNC_SGD_SEED" in err


def test_repetitions_vary_run_seed(tmp_path, capsys):
    cfg = write_config(tmp_path, base_config(repetitions=3))
    code, stdout, _ = run_cli(capsys, ["simulate", "--config", cfg])
    assert code == 0
    payload = json.loads(stdout)
    assert [r["seed"] for r in payload["runs"]] == [3, 4, 5]
    gaps = [r["final_fgap"] for r in payload["runs"]]
    assert len(set(gaps)) == 3   # different noise per repetition


def test_simulate_diagnostics_column(tmp_path, capsys):
    out_dir = tmp_path / "out"
    cfg = write_config(tmp_path, base_config())
    code, stdout, _ = run_cli(capsys, ["simulate", "--config", cfg,
                                       "--out", str(out_dir), "--diagnostics"])
    assert code == 0
    payload = json.loads(stdout)
    assert payload["runs"][0]["max_identity_residual"] <= 1e-10
    with open(out_dir / "run_000.csv", newline="") as fh:
        assert "vres" in csv.DictReader(fh).fieldnames


def test_simulate_sampled_rule_reports_exact_expectation(tmp_path, capsys):
    cfg = write_config(tmp_path, base_config(output_rule="sampled"))
    code, stdout, _ = run_cli(capsys, ["simulate", "--config", cfg])
    assert code == 0
    run = json.loads(stdout)["runs"][0]
    assert run["output_rule"] == "sampled"
    assert run["expected_sampled_gradnorm2"] > 0


# ---------------------------------------------------------------------------
# config validation


def test_unknown_config_key_is_rejected(tmp_path, capsys):
    cfg = write_config(tmp_path, base_config(tyop=1))
    code, _, err = run_cli(capsys, ["simulate", "--config", cfg])
    assert code == 2 and "tyop" in err


def test_unknown_nested_key_names_its_path(tmp_path, capsys):
    bad = base_config()
    bad["problem"]["rho"] = 2
    cfg = write_config(tmp_path, bad)
    code, _, err = run_cli(capsys, ["simulate", "--config", cfg])
    assert code == 2
    assert "config.problem" in err and "rho" in err


def test_missing_required_key(tmp_path, capsys):
    bad = base_config()
    del bad["schedule"]
    cfg = write_config(tmp_path, bad)
    code, _, err = run_cli(capsys, ["simulate", "--config", cfg])
    assert code == 2 and "schedule" in err


def test_invalid_json_reports_position(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text('{"seed": 3,\n  "horizon": }')
    code, _, err = run_cli(capsys, ["simulate", "--config", str(path)])
    assert code == 2 and "line 2" in err


def test_unknown_schedule_kind(tmp_path, capsys):
    cfg = write_config(tmp_path, base_config(schedule={"kind": "polyak"}))
    code, _, err = run_cli(capsys, ["simulate", "--config", cfg])
    assert code == 2 and "polyak" in err


def test_schedule_overrides_reach_the_rule(tmp_path, capsys):
    # inflating sigma far past the problem's own level forces the noise
    # branch of the cap to bind, shrinking every stepsize
    cfg_plain = write_config(tmp_path, base_config(), name="plain.json")
    cfg_noisy = write_config(
        tmp_path,
        base_config(schedule={"kind": "adaptive-convex", "overrides": {"sigma": 50}}),
        name="noisy.json")
    sum_plain = json.loads(run_cli(capsys, ["simulate", "--config", cfg_plain])[1]
                           )["runs"][0]["stepsize_sum"]
    sum_noisy = json.loads(run_cli(capsys, ["simulate", "--config", cfg_noisy])[1]
                           )["runs"][0]["stepsize_sum"]
    assert sum_noisy < 0.5 * sum_plain


def test_x0_explicit_wrong_length(tmp_path, capsys):
    cfg = write_config(tmp_path, base_config(x0={"kind": "explicit", "values": [0.0]}))
    code, _, err = run_cli(capsys, ["simulate", "--config", cfg])
    assert code == 2 and "x0" in err


def test_x0_offset_needs_minimizer(tmp_path, capsys):
    cfg = write_config(tmp_path, base_config(
        problem={"kind": "bounded-nonconvex", "dim": 3},
        schedule={"kind": "adaptive-nonconvex"}))
    code, _, err = run_cli(capsys, ["simulate", "--config", cfg])
    assert code == 2 and "minimizer" in err


def test_bad_output_rule(tmp_path, capsys):
    cfg = write_config(tmp_path, base_config(output_rule="mode"))
    code, _, err = run_cli(capsys, ["simulate", "--config", cfg])
    assert code == 2 and "mode" in err


# ---------------------------------------------------------------------------
# explicit traces


def test_explicit_worker_list(tmp_path, capsys):
    payload = base_config(
        speed_model={"kind": "explicit", "workers": [1, 2, 1, 2, 1]})
    del payload["horizon"]   # the worker list fixes the horizon itself
    cfg = write_config(tmp_path, payload)
    code, stdout, _ = run_cli(capsys, ["simulate", "--config", cfg])
    assert code == 0
    assert json.loads(stdout)["horizon"] == 5


def test_explicit_worker_list_horizon_mismatch(tmp_path, capsys):
    cfg = write_config(tmp_path, base_config(
        speed_model={"kind": "explicit", "workers": [1, 2, 1]}))
    code, _, err = run_cli(capsys, ["simulate", "--config", cfg])
    assert code == 2 and "horizon" in err


def test_trace_csv_round_trip(tmp_path, capsys):
    trace = simulate_trace(FixedSpeeds((1.0, 2.0)), 25)
    trace_path = tmp_path / "trace.csv"
    trace.write_csv(trace_path)
    base = base_config(speed_model={"kind": "trace-csv", "path": str(trace_path)})
    del base["horizon"]
    cfg = write_config(tmp_path, base)
    code, stdout, _ = run_cli(capsys, ["simulate", "--config", cfg])
    assert code == 0
    assert json.loads(stdout)["horizon"] == 25
    back = ArrivalTrace.read_csv(trace_path)
    assert back.horizon == 25


def test_trace_csv_rows_out_of_order_are_rejected(tmp_path, capsys):
    trace_path = tmp_path / "trace.csv"
    trace_path.write_text("k,worker,tau,time\n5,1,1,1.0\n9,1,1,2.0\n1,1,1,3.0\n")
    base = base_config(speed_model={"kind": "trace-csv", "path": str(trace_path)})
    del base["horizon"]
    code, _, err = run_cli(capsys, ["simulate", "--config", write_config(tmp_path, base)])
    assert code == 2
    assert "row 1" in err and "k is 5" in err


def test_missing_trace_csv_file_is_a_config_error(tmp_path, capsys):
    base = base_config(speed_model={"kind": "trace-csv",
                                    "path": str(tmp_path / "absent.csv")})
    del base["horizon"]
    code, _, err = run_cli(capsys, ["simulate", "--config", write_config(tmp_path, base)])
    assert code == 2
    assert "config.speed_model.path" in err and "Traceback" not in err


def test_missing_problem_csv_file_is_a_config_error(tmp_path, capsys):
    cfg = write_config(tmp_path, base_config(
        problem={"kind": "least-squares", "csv": str(tmp_path / "absent.csv")}))
    code, _, err = run_cli(capsys, ["simulate", "--config", cfg])
    assert code == 2
    assert "config.problem.csv" in err and "Traceback" not in err


@pytest.mark.parametrize("overrides", [
    {"problem": {"kind": "least-squares", "dim": 3, "target_smoothness": 1e308}},
    # the noise caps divide by sigma**2, which underflows to 0 or overflows
    {"problem": {"kind": "heterogeneous-quadratics", "dim": 3, "num_workers": 2,
                 "zeta": 0.5, "sigma": 5e-324},
     "schedule": {"kind": "adaptive-heterogeneous"}},
    {"problem": {"kind": "bounded-nonconvex", "dim": 3, "sigma": 1e308},
     "schedule": {"kind": "adaptive-nonconvex"}, "x0": {"kind": "zeros"}},
    {"speed_model": {"kind": "random", "distribution": "lognormal", "means": [1, 2],
                     "sigma": 1e308}},
    # every worker's second finish time overflows to inf
    {"speed_model": {"kind": "fixed", "seconds": [1e308, 1e308]}},
], ids=["gram-overflow", "tiny-sigma", "huge-sigma", "huge-lognormal-sigma",
        "finish-time-overflow"])
def test_values_outside_the_float_range_are_input_errors(tmp_path, capsys, overrides):
    code, _, err = run_cli(capsys, ["simulate", "--config",
                                    write_config(tmp_path, base_config(**overrides))])
    assert code == 2 and "Traceback" not in err


@pytest.mark.parametrize("overrides", [
    # the noise cap B/(sigma sqrt(K)) underflows to 0
    {"schedule": {"kind": "adaptive-convex", "overrides": {"sigma": 1e308}}},
    # B/(G sqrt(K M)) underflows to 0
    {"schedule": {"kind": "const-lipschitz", "overrides": {"lipschitz": 1e308}}},
], ids=["adaptive-convex-huge-sigma", "const-lipschitz-huge-lipschitz"])
def test_zero_stepsize_is_an_input_error(tmp_path, capsys, overrides):
    code, _, err = run_cli(capsys, ["simulate", "--config",
                                    write_config(tmp_path, base_config(**overrides))])
    assert code == 2
    assert "config.schedule" in err and "Traceback" not in err


@pytest.mark.parametrize("overrides", [
    # 15 x 10^13 floats (1.07 PiB) and a first trace block of 0.6 x 1.05 x
    # 10^14 floats (458 TiB) are both past the 128 TiB user address space, so
    # the allocation fails at once under every overcommit policy
    {"problem": {"kind": "least-squares", "dim": 10**13, "num_samples": 15, "sigma": 0.5}},
    {"horizon": 10**14},
], ids=["huge-dim", "huge-horizon"])
def test_allocation_failure_is_an_input_error(tmp_path, capsys, overrides):
    code, _, err = run_cli(capsys, ["simulate", "--config",
                                    write_config(tmp_path, base_config(**overrides))])
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1 and "Traceback" not in err


@pytest.mark.parametrize("bad", ["nan", "inf"])
def test_non_finite_data_csv_is_rejected(tmp_path, capsys, bad):
    data = tmp_path / "data.csv"
    data.write_text(f"1.0,2.0,0.5\n0.0,{bad},1.0\n3.0,1.0,2.0\n")
    cfg = write_config(tmp_path, base_config(
        problem={"kind": "least-squares", "csv": str(data)}))
    code, _, err = run_cli(capsys, ["simulate", "--config", cfg])
    assert code == 2
    assert "finite" in err and "SVD" not in err and "Traceback" not in err


# ---------------------------------------------------------------------------
# compare


def test_compare_step_accounting(tmp_path, capsys):
    cfg = write_config(tmp_path, {
        "seed": 1,
        "problem": {"kind": "least-squares", "dim": 2, "num_samples": 10, "sigma": 0.5},
        "seconds": [1.0, 1.0, 1.0, 10.0],
        "duration": 100.0,
        "schedule": {"kind": "adaptive-convex"},
        "x0": {"kind": "offset"},
    })
    code, stdout, _ = run_cli(capsys, ["compare", "--config", cfg])
    assert code == 0
    payload = json.loads(stdout)
    assert payload["async_steps"] == 310
    assert payload["sync_rounds"] == 10
    assert payload["ideal_speedup"] == pytest.approx(7.75)
    assert payload["step_speedup"] == pytest.approx(7.75)
    assert payload["async"]["runs"][0]["final_fgap"] >= 0
    assert payload["minibatch"]["runs"][0]["final_fgap"] >= 0


def test_compare_degenerate_budget(tmp_path, capsys):
    cfg = write_config(tmp_path, {
        "problem": {"kind": "least-squares", "dim": 2, "num_samples": 10},
        "seconds": [1.0, 3.0],
        "duration": 2.0,
        "schedule": {"kind": "adaptive-convex"},
    })
    code, stdout, _ = run_cli(capsys, ["compare", "--config", cfg])
    assert code == 0
    payload = json.loads(stdout)
    assert payload["degenerate"] is True
    assert "async" not in payload


# ---------------------------------------------------------------------------
# sweep


def sweep_config(**overrides):
    cfg = {
        "seed": 2,
        "horizons": [6, 12],
        "repetitions": 2,
        "parallel": False,
        "problem": {"kind": "least-squares", "dim": 2, "num_samples": 10, "sigma": 0.5},
        "speed_model": {"kind": "fixed", "seconds": [1.0, 1.4]},
        "schedule": {"kind": "adaptive-convex"},
        "x0": {"kind": "offset"},
    }
    cfg.update(overrides)
    return cfg


def test_sweep_serial(tmp_path, capsys):
    cfg = write_config(tmp_path, sweep_config())
    code, stdout, _ = run_cli(capsys, ["sweep", "--config", cfg])
    assert code == 0
    payload = json.loads(stdout)
    assert len(payload["runs"]) == 4
    assert set(payload["aggregate"]) == {"6", "12"}
    for stats in payload["aggregate"].values():
        assert {"mean_output_fgap", "stderr_output_fgap", "mean_final_fgap"} <= set(stats)


def test_sweep_parallel_matches_serial(tmp_path, capsys):
    serial = write_config(tmp_path, sweep_config(), name="serial.json")
    parallel = write_config(tmp_path, sweep_config(parallel=2), name="parallel.json")
    out_a = json.loads(run_cli(capsys, ["sweep", "--config", serial])[1])
    out_b = json.loads(run_cli(capsys, ["sweep", "--config", parallel])[1])
    assert out_a["runs"] == out_b["runs"]


class FakePool:
    """Stands in for ProcessPoolExecutor: records the pool size, maps serially."""

    sizes: list = []

    def __init__(self, max_workers):
        FakePool.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, *iterables):
        return map(fn, *iterables)


@pytest.mark.parametrize("parallel, cpus, horizons, size", [
    (True, 4, [6, 12, 18], 4),      # min(8, CPUs, jobs)
    (True, 16, [6, 12, 18, 24, 30], 8),
    (1000, 4, [6, 12, 18], 4),      # an explicit count is capped by the CPUs
    (1000, 16, [6, 12], 4),         # ... and by the jobs
    (3, 16, [6, 12, 18], 3),
])
def test_sweep_pool_size(tmp_path, capsys, monkeypatch, parallel, cpus, horizons, size):
    monkeypatch.setattr(cli.concurrent.futures, "ProcessPoolExecutor", FakePool)
    monkeypatch.setattr(cli.os, "cpu_count", lambda: cpus)
    monkeypatch.setattr(FakePool, "sizes", [])
    pooled = write_config(tmp_path, sweep_config(parallel=parallel, horizons=horizons),
                          name="pooled.json")
    serial = write_config(tmp_path, sweep_config(horizons=horizons), name="serial.json")
    code, stdout, _ = run_cli(capsys, ["sweep", "--config", pooled])
    assert code == 0 and FakePool.sizes == [size]
    assert stdout == run_cli(capsys, ["sweep", "--config", serial])[1]


def test_sweep_rejects_bad_horizons(tmp_path, capsys):
    cfg = write_config(tmp_path, sweep_config(horizons=[6, 0]))
    code, _, err = run_cli(capsys, ["sweep", "--config", cfg])
    assert code == 2 and "horizons" in err


BAD_FIELDS = [
    ("simulate", "num_samples",
     {"problem": {"kind": "least-squares", "dim": 3, "num_samples": "ten"}}),
    ("simulate", "target_smoothness",
     {"problem": {"kind": "least-squares", "dim": 3, "target_smoothness": "1"}}),
    ("simulate", "step", {"schedule": {"kind": "constant", "step": "0.1"}}),
    ("simulate", "smoothness",
     {"schedule": {"kind": "adaptive-convex", "overrides": {"smoothness": "x"}}}),
    ("simulate", "sigma", {"problem": {"kind": "bounded-nonconvex", "dim": 3, "sigma": "a"},
                           "schedule": {"kind": "adaptive-nonconvex"},
                           "x0": {"kind": "zeros"}}),
    ("simulate", "workers", {"speed_model": {"kind": "explicit", "workers": [1, "a"]}}),
    ("simulate", "num_workers",
     {"speed_model": {"kind": "explicit", "workers": [1, 2], "num_workers": "3"}}),
    ("simulate", "num_workers", {"speed_model": {"kind": "trace-csv", "num_workers": "3"}}),
    ("simulate", "values", {"x0": {"kind": "explicit", "values": ["a", 1, 2]}}),
    ("simulate", "diagnostics", {"diagnostics": "no"}),
    ("simulate", "keep_iterates", {"keep_iterates": 1}),
    ("simulate", "schedule", {"schedule": {"kind": ["constant"]}}),
    ("simulate", "config.out", {"out": 5}),
    ("sweep", "parallel", {"parallel": -1}),
    ("sweep", "parallel", {"parallel": "2"}),
    ("sweep", "metrics", {"metrics": "no"}),
]


def run_case(tmp_path, capsys, command, overrides):
    """Run `command` on its base config with `overrides` applied; a trace-csv
    speed model without a path gets a valid trace file."""
    cfg = json.loads(json.dumps(overrides))   # a fresh copy per case
    cfg = base_config(**cfg) if command == "simulate" else sweep_config(**cfg)
    speed = cfg["speed_model"]
    if speed["kind"] == "trace-csv" and "path" not in speed:
        speed["path"] = str(tmp_path / "trace.csv")
        simulate_trace(FixedSpeeds((1.0, 2.0)), 30).write_csv(speed["path"])
    if speed["kind"] in ("explicit", "trace-csv"):
        cfg.pop("horizon", None)   # the trace fixes the horizon itself
    return run_cli(capsys, [command, "--config", write_config(tmp_path, cfg)])


@pytest.mark.parametrize("command, key, overrides", BAD_FIELDS,
                         ids=[f"{c}-{k}-{i}" for i, (c, k, _) in enumerate(BAD_FIELDS)])
def test_bad_field_type_is_a_config_error(tmp_path, capsys, command, key, overrides):
    code, _, err = run_case(tmp_path, capsys, command, overrides)
    assert code == 2
    assert key in err and "Traceback" not in err


# keys the chosen kind never reads, and values of a valid type that no kind
# can use: each is a config error naming the key
UNREAD_KEYS = [
    ("simulate", "zeta", {"problem": {"kind": "least-squares", "dim": 3, "zeta": 0.5}}),
    ("simulate", "dim", {"problem": {"kind": "least-squares", "csv": "data.csv", "dim": 3}}),
    ("simulate", "noise", {"problem": {"kind": "heterogeneous-quadratics", "dim": 3,
                                       "num_workers": 2, "zeta": 0.5, "noise": "rows"},
                           "schedule": {"kind": "adaptive-heterogeneous"}}),
    ("simulate", "target_smoothness",
     {"problem": {"kind": "bounded-nonconvex", "dim": 3, "target_smoothness": 2.0},
      "schedule": {"kind": "adaptive-nonconvex"}, "x0": {"kind": "zeros"}}),
    ("simulate", "num_workers",
     {"speed_model": {"kind": "fixed", "seconds": [1, 2], "num_workers": 5}}),
    ("simulate", "means", {"speed_model": {"kind": "fixed", "seconds": [1, 2], "means": [1, 2]}}),
    ("simulate", "distance", {"x0": {"kind": "zeros", "distance": 1.0}}),
    ("simulate", "path", {"speed_model": {"kind": "trace-csv", "path": 0}}),
    ("sweep", "output_rule", {"output_rule": "bogus"}),
]


@pytest.mark.parametrize("command, key, overrides", UNREAD_KEYS,
                         ids=[f"{c}-{k}-{i}" for i, (c, k, _) in enumerate(UNREAD_KEYS)])
def test_key_the_kind_does_not_read_is_a_config_error(tmp_path, capsys, monkeypatch,
                                                      command, key, overrides):
    monkeypatch.chdir(tmp_path)
    np.savetxt("data.csv", np.arange(12.0).reshape(4, 3) % 5, delimiter=",")
    code, _, err = run_case(tmp_path, capsys, command, overrides)
    assert code == 2
    assert key in err and "Traceback" not in err


# ---------------------------------------------------------------------------
# config fuzzer: one key of one section replaced or added, including keys
# that only another kind reads; sweeps stay serial and horizons stay <= 64


FUZZ_KEYS = sorted((
    {key for _, table in [*cli.PROBLEMS.values(), cli.LEAST_SQUARES_CSV,
                          *cli.SPEED_MODELS.values(), *cli.X0_KINDS.values()]
     for key in table}
    | set(cli.SCHEDULE) | set(cli.OVERRIDES) | set(cli.SIMULATE) | set(cli.COMPARE)
    | set(cli.SWEEP) | {"kind"}) - {"parallel"})
FUZZ_SCALARS = st.one_of(
    st.integers(-2, 64),
    st.sampled_from([-1.0, 0.0, 5e-324, 1e-310, 0.5, 1.0, 1e308, math.nan]))
FUZZ_VALUES = st.one_of(
    FUZZ_SCALARS, st.text(max_size=4), st.none(), st.booleans(),
    st.lists(FUZZ_SCALARS, max_size=3),
    st.dictionaries(st.sampled_from(FUZZ_KEYS), FUZZ_SCALARS, max_size=2))


FUZZ_BASES = [
    ("simulate", base_config()),
    ("simulate", base_config(
        problem={"kind": "heterogeneous-quadratics", "dim": 3, "num_workers": 2,
                 "zeta": 0.5, "sigma": 0.3},
        speed_model={"kind": "random", "distribution": "lognormal", "means": [1.0, 2.0]},
        schedule={"kind": "adaptive-heterogeneous"})),
    ("simulate", base_config(
        problem={"kind": "bounded-nonconvex", "dim": 3},
        speed_model={"kind": "straggler", "straggler": 2, "slowdown": 5.0, "num_workers": 2},
        schedule={"kind": "adaptive-nonconvex"}, x0={"kind": "zeros"})),
    ("sweep", sweep_config()),
]


@settings(derandomize=True, max_examples=600, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(base=st.sampled_from(FUZZ_BASES),
       section=st.sampled_from([None, "problem", "speed_model", "schedule", "x0",
                                "overrides"]),
       key=st.sampled_from(FUZZ_KEYS), value=FUZZ_VALUES)
def test_config_fuzz_keeps_the_exit_code_contract(tmp_path, capsys, monkeypatch,
                                                  base, section, key, value):
    monkeypatch.chdir(tmp_path)   # an "out" value writes here
    command, cfg = base[0], json.loads(json.dumps(base[1]))
    if section == "overrides":
        cfg["schedule"]["overrides"] = {key: value}
    else:
        (cfg if section is None else cfg[section])[key] = value
    try:
        code = main([command, "--config", write_config(tmp_path, cfg, name="fuzz.json")])
    except SystemExit as exc:   # argparse's usage error
        assert exc.code == 2
        return
    err = capsys.readouterr().err
    assert code in (0, 1, 2)
    assert code != 1 or "run failed:" in err


# ---------------------------------------------------------------------------
# check and live


def test_check_passes_on_small_grid(capsys):
    code, stdout, _ = run_cli(capsys, ["check", "--workers", "2", "--horizons", "30"])
    assert code == 0
    assert stdout.count("PASS") == 2 and "FAIL" not in stdout
    # the strongly convex rule rejects K = 50 < 3M = 60, so its 5 cases at
    # M = 20 are skipped: 4 x 5 + 3 x 5 runs
    code, stdout, _ = run_cli(capsys, ["check", "--workers", "2,20", "--horizons", "50"])
    assert code == 0
    assert stdout.count("PASS  ") == 2 and stdout.count("[35 runs]") == 2


def test_check_fails_with_injected_bug(capsys):
    code, stdout, _ = run_cli(capsys, ["check", "--workers", "2,5",
                                       "--horizons", "40", "--inject-bug",
                                       "prev-off-by-one"])
    assert code == 1
    assert "FAIL" in stdout and "failed:" in stdout


@pytest.mark.parametrize("argv", [["--horizons", "0"], ["--workers", "a"],
                                  ["--workers", "2,-1"], ["--horizons", ""]])
def test_check_rejects_bad_lists(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(["check", *argv])
    assert exc.value.code == 2
    assert "positive integers" in capsys.readouterr().err


def test_check_with_an_empty_grid_is_a_usage_error(capsys):
    code, _, err = run_cli(capsys, ["check", "--workers", "16", "--horizons", "5"])
    assert code == 2 and "no case" in err


def test_live_subcommand(capsys):
    code, stdout, _ = run_cli(capsys, ["live", "--workers", "2", "--horizon", "60",
                                       "--seed", "1"])
    assert code == 0
    payload = json.loads(stdout)
    assert payload["command"] == "live"
    assert sum(payload["arrivals_per_worker"].values()) == 60


# ---------------------------------------------------------------------------
# installed entry point


def test_console_script_runs(tmp_path):
    cfg = write_config(tmp_path, base_config())
    exe = shutil.which("asyncsgd")
    argv = [exe] if exe else [sys.executable, "-m", "asyncsgd.cli"]
    proc = subprocess.run(argv + ["simulate", "--config", cfg],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["schema"] == 1
