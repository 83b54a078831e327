import codecs
import csv
import json
import math
import resource
import shutil
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from asyncsgd import (ArrivalTrace, FixedSpeeds, LeastSquares, cli, least_squares,
                      make_schedule, run_async, run_minibatch, simulate_trace)
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
    # the run CSV is a reader of the metric columns, so they are filled
    assert all(math.isfinite(float(r[key])) for r in rows for key in ("fgap", "gradnorm2"))


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


def _file_under_a_file(tmp_path):
    (tmp_path / "file.txt").write_text("")
    return str(tmp_path / "file.txt" / "out")


@pytest.mark.parametrize("argv, message", [
    # an integer literal past the float range, and JSON's Infinity, for a number key
    (lambda tmp: ["--config", write_config(tmp, base_config(problem={
        "kind": "least-squares", "dim": 3, "sigma": 10**400}))],
     "config error: config.problem.sigma must be finite, got inf"),
    (lambda tmp: ["--config", write_config(tmp, base_config(problem={
        "kind": "least-squares", "dim": 3, "sigma": math.inf}))],
     "config error: config.problem.sigma must be finite, got inf"),
    (lambda tmp: ["--config", write_config(tmp, base_config()), "--seed", "-1"],
     "config error: seed must be >= 0, got -1"),
    (lambda tmp: ["--config", str(tmp)], "config error: cannot read config "),
    (lambda tmp: ["--config", write_config(tmp, [base_config()])],
     "config error: config {tmp}/config.json must be a JSON object"),
    (lambda tmp: ["--config", write_config(tmp, base_config()), "--out", _file_under_a_file(tmp)],
     "config error: config.out: cannot create '{tmp}/file.txt/out': "),
], ids=["float-past-range", "float-infinity", "negative-seed", "unreadable-config",
        "config-is-a-list", "out-under-a-file"])
def test_rejected_invocation_exits_2_with_one_line(tmp_path, capsys, argv, message):
    code, stdout, err = run_cli(capsys, ["simulate", *argv(tmp_path)])
    assert code == 2 and stdout == ""
    assert err.startswith(message.format(tmp=tmp_path)) and err.count("\n") == 1


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


@pytest.mark.parametrize("speed_model, where", [
    ({"kind": "explicit", "workers": [1, 2, 1, 99999999999999999999999]}, "trace row 4"),
    ({"kind": "trace-csv", "path": "trace.csv"},
     "config.speed_model.path: cannot load trace.csv: trace row 2"),
], ids=["explicit", "trace-csv"])
def test_worker_ids_past_int64_are_input_errors(tmp_path, capsys, monkeypatch, speed_model,
                                               where):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "trace.csv").write_text(
        "k,worker,tau,time\n1,1,1,1.0\n2,99999999999999999999999,2,2.0\n")
    base = base_config(speed_model=speed_model)
    del base["horizon"]
    code, stdout, err = run_cli(capsys, ["simulate", "--config", write_config(tmp_path, base)])
    assert code == 2 and stdout == ""
    assert where in err and "past the int64 range" in err and "Traceback" not in err


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


def test_trace_csv_non_finite_times_are_rejected(tmp_path, capsys):
    trace_path = tmp_path / "trace.csv"
    trace_path.write_text("k,worker,tau,time\n1,1,1,nan\n2,2,2,1.5\n3,1,2,inf\n4,2,2,inf\n")
    base = base_config(speed_model={"kind": "trace-csv", "path": str(trace_path)})
    del base["horizon"]
    code, _, err = run_cli(capsys, ["simulate", "--config", write_config(tmp_path, base)])
    assert code == 2
    assert "row 1" in err and "not finite" in err and "Traceback" not in err


@pytest.mark.parametrize("text, message", [
    ("k,worker,tau,time\n1,1,1," + "1" * 200_000 + "\n",
     "trace csv line 2: field larger than field limit (131072)"),
    ("k,worker,tau,time,worker\n1,1,1,1.0,2\n2,2,2,2.0,1\n",
     "trace csv repeats a column: ['k', 'worker', 'tau', 'time', 'worker']"),
    ("k,worker,tau,time\n1,a,1,1.0\n",
     "trace csv row 1: invalid literal for int() with base 10: 'a'"),
], ids=["oversized-field", "repeated-column", "non-integer-worker"])
def test_malformed_trace_csv_is_an_input_error(tmp_path, capsys, text, message):
    # the csv module's field limit is process-wide, so it stays as it is and
    # a longer field is reported; a repeated column would replay its last copy
    trace_path = tmp_path / "trace.csv"
    trace_path.write_text(text)
    base = base_config(speed_model={"kind": "trace-csv", "path": str(trace_path)})
    del base["horizon"]
    code, stdout, err = run_cli(capsys, ["simulate", "--config", write_config(tmp_path, base)])
    assert code == 2 and stdout == ""
    assert err == f"config error: config.speed_model.path: cannot load {trace_path}: {message}\n"


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


COMPARE_BASE = {"problem": {"kind": "least-squares", "dim": 2, "num_samples": 10},
                "schedule": {"kind": "adaptive-convex"}}


@pytest.mark.parametrize("command, config", [
    ("simulate", base_config(
        problem={"kind": "least-squares", "dim": 3, "target_smoothness": 1e308})),
    # the noise caps divide by sigma**2, which underflows to 0 or overflows
    ("simulate", base_config(
        problem={"kind": "heterogeneous-quadratics", "dim": 3, "num_workers": 2,
                 "zeta": 0.5, "sigma": 5e-324},
        schedule={"kind": "adaptive-heterogeneous"})),
    ("simulate", base_config(
        problem={"kind": "bounded-nonconvex", "dim": 3, "sigma": 1e308},
        schedule={"kind": "adaptive-nonconvex"}, x0={"kind": "zeros"})),
    ("simulate", base_config(
        speed_model={"kind": "random", "distribution": "lognormal", "means": [1, 2],
                     "sigma": 1e308})),
    # every worker's second finish time overflows to inf
    ("simulate", base_config(speed_model={"kind": "fixed", "seconds": [1e308, 1e308]})),
    # the distance to the minimizer and the initial gap overflow to inf
    ("simulate", base_config(x0={"kind": "explicit", "values": [1e200, 1e200, 1e200]})),
    # the fast worker's step count duration / s is inf
    ("compare", {**COMPARE_BASE, "seconds": [1e-10, 3.0], "duration": 1e300}),
    # the ideal speedup s_max / s_min is inf
    ("compare", {**COMPARE_BASE, "seconds": [1e-300, 1e10], "duration": 1e-295}),
], ids=["gram-overflow", "tiny-sigma", "huge-sigma", "huge-lognormal-sigma",
        "finish-time-overflow", "huge-x0", "compare-step-count-overflow",
        "compare-speedup-overflow"])
def test_values_outside_the_float_range_are_input_errors(tmp_path, capsys, command, config):
    code, stdout, err = run_cli(capsys, [command, "--config", write_config(tmp_path, config)])
    assert code == 2 and "Traceback" not in err
    assert stdout == ""


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
    # sizes past numpy's limit of 2**63 - 1 bytes per array, where numpy
    # raises ValueError at once instead of MemoryError
    {"problem": {"kind": "least-squares", "dim": 2**40, "sigma": 0.5}},
    {"horizon": 2**62},
    {"problem": {"kind": "least-squares", "dim": 3, "num_samples": 10**30}},
    {"problem": {"kind": "heterogeneous-quadratics", "dim": 3, "num_workers": 10**30,
                 "zeta": 0.5}, "schedule": {"kind": "adaptive-heterogeneous"}},
], ids=["huge-dim", "huge-horizon", "dim-past-array-limit", "horizon-past-array-limit",
        "num-samples-past-array-limit", "hetero-workers-past-array-limit"])
def test_allocation_failure_is_an_input_error(tmp_path, capsys, overrides):
    code, _, err = run_cli(capsys, ["simulate", "--config",
                                    write_config(tmp_path, base_config(**overrides))])
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1 and "Traceback" not in err


def test_compare_duration_past_the_array_limit_is_an_input_error(tmp_path, capsys):
    cfg = {"problem": {"kind": "least-squares", "dim": 2, "num_samples": 10},
           "seconds": [1.0, 3.0], "duration": 1e300, "schedule": {"kind": "adaptive-convex"}}
    code, _, err = run_cli(capsys, ["compare", "--config", write_config(tmp_path, cfg)])
    assert code == 2
    assert "one array can hold" in err and "Traceback" not in err


def limit_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (2**31, 2**31))


def test_straggler_worker_count_past_the_array_limit_is_an_input_error(tmp_path):
    # in a subprocess with a timeout and a 2 GiB address space: building
    # 10**30 speeds one at a time would run until memory ran out
    cfg = write_config(tmp_path, base_config(speed_model={
        "kind": "straggler", "straggler": 1, "slowdown": 2.0, "num_workers": 10**30}))
    proc = subprocess.run([sys.executable, "-m", "asyncsgd.cli", "simulate", "--config", cfg],
                          capture_output=True, text=True, timeout=20,
                          preexec_fn=limit_address_space)
    assert proc.returncode == 2
    assert "workers are more than one array can hold" in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("num_workers", [10**18, 10**23], ids=["1e18", "1e23"])
@pytest.mark.parametrize("kind", ["explicit", "trace-csv"])
def test_huge_worker_counts_over_a_short_trace_are_input_errors(tmp_path, kind, num_workers):
    # in a subprocess with a timeout and a 2 GiB address space: the replay
    # checks its per-worker arrays against the array limit and makes a
    # worker's generator only when it first draws; one generator per worker
    # made up front would run until memory ran out
    (tmp_path / "trace.csv").write_text(
        "k,worker,tau,time\n1,1,1,1.0\n2,2,2,2.0\n3,1,2,3.0\n4,2,2,4.0\n")
    speed = ({"kind": kind, "workers": [1, 2, 1, 2]} if kind == "explicit"
             else {"kind": kind, "path": str(tmp_path / "trace.csv")})
    base = base_config(speed_model={**speed, "num_workers": num_workers},
                       schedule={"kind": "constant", "step": 0.01})
    del base["horizon"]
    proc = subprocess.run([sys.executable, "-m", "asyncsgd.cli", "simulate", "--config",
                           write_config(tmp_path, base)],
                          capture_output=True, text=True, timeout=20,
                          preexec_fn=limit_address_space)
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr == f"error: {num_workers} workers are more than one array can hold\n"


def test_empty_data_csv_is_an_input_error_without_a_warning(tmp_path, capsys):
    data = tmp_path / "data.csv"
    data.write_text("")
    cfg = write_config(tmp_path, base_config(
        problem={"kind": "least-squares", "csv": str(data)}))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, stdout, err = run_cli(capsys, ["simulate", "--config", cfg])
    assert code == 2 and stdout == ""
    assert err == (f"config error: config.problem.csv: cannot load {data}: "
                   "the data csv has no rows\n")


def test_csv_inputs_may_start_with_a_byte_order_mark(tmp_path, capsys):
    trace_path, data_path = tmp_path / "trace.csv", tmp_path / "data.csv"
    simulate_trace(FixedSpeeds((1.0, 2.0)), 25).write_csv(trace_path)
    data_path.write_text("1.0,2.0,0.5\n0.0,1.0,1.0\n3.0,1.0,2.0\n")
    base = base_config(problem={"kind": "least-squares", "csv": str(data_path)},
                       speed_model={"kind": "trace-csv", "path": str(trace_path)})
    del base["horizon"]
    cfg = write_config(tmp_path, base)
    plain = run_cli(capsys, ["simulate", "--config", cfg])
    assert plain[0] == 0
    for path in (trace_path, data_path):
        path.write_bytes(codecs.BOM_UTF8 + path.read_bytes())
        assert run_cli(capsys, ["simulate", "--config", cfg]) == plain


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


def test_compare_diverged_minibatch_baseline_prints_only_the_failure(tmp_path, capsys):
    # the huge step overflows the baseline's squared norm; that is the
    # divergence being reported, not a warning to print beside it
    cfg = write_config(tmp_path, {
        "problem": {"kind": "least-squares", "dim": 2, "num_samples": 10, "sigma": 0.5},
        "seconds": [1.0, 3.0],
        "duration": 30.0,
        "schedule": {"kind": "adaptive-convex"},
        "minibatch_step": 1e300,
    })
    code, _, err = run_cli(capsys, ["compare", "--config", cfg])
    assert code == 1
    assert err.startswith("run failed: iterates diverged at iteration 1 ")
    assert err.count("\n") == 1


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


def usable_cpus(monkeypatch, count):
    """Lets the sweep see `count` CPUs that the process may run on."""
    monkeypatch.setattr(cli.os, "sched_getaffinity", lambda pid: set(range(count)),
                        raising=False)
    monkeypatch.setattr(cli.os, "cpu_count", lambda: count)


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


# a job is a batch of repetitions that share a trace: with fixed speeds,
# the two repetitions of each horizon
@pytest.mark.parametrize("parallel, cpus, horizons, size", [
    (True, 4, [6, 12, 18, 24, 30], 4),      # min(8, CPUs, jobs)
    (True, 16, list(range(6, 61, 6)), 8),
    (1000, 4, [6, 12, 18, 24, 30], 4),      # an explicit count is capped by the CPUs
    (1000, 16, [6, 12, 18, 24], 4),         # ... and by the jobs
    (3, 16, [6, 12, 18, 24], 3),
])
def test_sweep_pool_size(tmp_path, capsys, monkeypatch, parallel, cpus, horizons, size):
    monkeypatch.setattr(cli.concurrent.futures, "ProcessPoolExecutor", FakePool)
    usable_cpus(monkeypatch, cpus)
    monkeypatch.setattr(FakePool, "sizes", [])
    pooled = write_config(tmp_path, sweep_config(parallel=parallel, horizons=horizons),
                          name="pooled.json")
    serial = write_config(tmp_path, sweep_config(horizons=horizons), name="serial.json")
    code, stdout, _ = run_cli(capsys, ["sweep", "--config", pooled])
    assert code == 0 and FakePool.sizes == [size]
    assert stdout == run_cli(capsys, ["sweep", "--config", serial])[1]


def test_sweep_pool_counts_only_the_cpus_the_process_may_run_on(tmp_path, capsys,
                                                                 monkeypatch):
    # an affinity set of one CPU (taskset, a cpuset) on a machine of 16
    def no_pool(*args, **kwargs):
        raise AssertionError("a sweep on one usable CPU started a process pool")

    monkeypatch.setattr(cli.concurrent.futures, "ProcessPoolExecutor", no_pool)
    monkeypatch.setattr(cli.os, "sched_getaffinity", lambda pid: {0}, raising=False)
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 16)
    pooled = write_config(tmp_path, sweep_config(parallel=True), name="pooled.json")
    serial = write_config(tmp_path, sweep_config(), name="serial.json")
    code, stdout, _ = run_cli(capsys, ["sweep", "--config", pooled])
    assert code == 0 and stdout == run_cli(capsys, ["sweep", "--config", serial])[1]


def test_sweep_final_metrics_do_not_depend_on_the_metric_columns(tmp_path, capsys):
    runs = {}
    for metrics in (True, False):
        cfg = write_config(tmp_path, sweep_config(
            problem={"kind": "least-squares", "dim": 10, "num_samples": 30, "sigma": 0.5},
            horizons=[40, 90], repetitions=4, metrics=metrics))
        code, stdout, _ = run_cli(capsys, ["sweep", "--config", cfg])
        assert code == 0
        runs[metrics] = json.loads(stdout)["runs"]
    for on, off in zip(runs[True], runs[False]):
        for key in ("final_fgap", "final_gradnorm2", "output_fgap"):
            assert on[key] == off[key], key


@pytest.fixture
def oracle_calls(monkeypatch):
    """Counts LeastSquares value and grad calls, the metric oracle's two halves."""
    calls = []
    for name in ("value", "grad"):
        original = getattr(LeastSquares, name)

        def counted(self, x, _original=original):
            calls.append(1)
            return _original(self, x)
        monkeypatch.setattr(LeastSquares, name, counted)
    return calls


@pytest.mark.parametrize("command, config, runs", [
    ("sweep", sweep_config(horizons=[200, 400], output_rule="weighted"), 4),
    ("simulate", base_config(horizon=400), 1),
], ids=["sweep", "simulate"])
def test_metric_columns_only_for_a_reader(tmp_path, capsys, oracle_calls, command, config,
                                          runs):
    # with no run CSV and no sampled output, the printed metrics are a few
    # oracle calls per run, never one per update
    code, _, _ = run_cli(capsys, [command, "--config", write_config(tmp_path, config)])
    assert code == 0
    assert 0 < len(oracle_calls) <= 10 * runs


def test_minibatch_makes_no_metric_calls(oracle_calls):
    problem = least_squares(dim=3, num_samples=12, sigma=0.5, seed=1)
    oracle_calls.clear()
    x_final = run_minibatch(problem, num_workers=3, rounds=50, step=0.05, x0=np.zeros(3))
    assert oracle_calls == [] and x_final.shape == (3,)


def test_run_async_makes_no_metric_calls_by_default(oracle_calls):
    problem = least_squares(dim=3, num_samples=12, sigma=0.5, seed=1)
    trace = simulate_trace(FixedSpeeds((1.0, 1.5)), 50)
    schedule = make_schedule("adaptive-convex", problem.constants_for(np.zeros(3), 2, 50))
    oracle_calls.clear()
    record = run_async(problem, trace, schedule, np.zeros(3), seed=1)
    assert oracle_calls == [] and record.fgaps is None and record.gradnorms2 is None


def test_sweep_rejects_bad_horizons(tmp_path, capsys):
    cfg = write_config(tmp_path, sweep_config(horizons=[6, 0]))
    code, _, err = run_cli(capsys, ["sweep", "--config", cfg])
    assert code == 2 and "horizons" in err



def test_sweep_rejects_duplicate_horizons(tmp_path, capsys):
    # a repeated horizon would run the same seeded jobs twice and count the
    # copies as samples in its aggregate
    cfg = write_config(tmp_path, sweep_config(horizons=[60, 60]))
    code, out, err = run_cli(capsys, ["sweep", "--config", cfg])
    assert code == 2 and out == "" and "config.horizons" in err


class RecordingPool(FakePool):
    """A FakePool that also records each job's horizon and repetitions."""

    jobs: list = []

    def map(self, fn, cmds, horizons, reps):
        RecordingPool.jobs.extend(zip(horizons, reps))
        return map(fn, cmds, horizons, reps)


@pytest.mark.parametrize("speed_model, shared", [
    ({"kind": "fixed", "seconds": [1.0, 1.4]}, True),
    ({"kind": "random", "means": [1.0, 1.4], "seed": 3}, True),
    ({"kind": "random", "means": [1.0, 1.4]}, False),   # seeded by each run's seed
])
def test_sweep_jobs_are_batches_of_repetitions_that_share_a_trace(
        tmp_path, capsys, monkeypatch, speed_model, shared):
    monkeypatch.setattr(cli.concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    usable_cpus(monkeypatch, 4)
    monkeypatch.setattr(RecordingPool, "jobs", [])
    monkeypatch.setattr(cli, "_SEED_BATCH", 2)
    fields = {"speed_model": speed_model, "repetitions": 3}
    pooled = write_config(tmp_path, sweep_config(parallel=True, **fields), name="pooled.json")
    serial = write_config(tmp_path, sweep_config(**fields), name="serial.json")
    code, stdout, _ = run_cli(capsys, ["sweep", "--config", pooled])
    assert code == 0
    # a pool of 4 for 4 or 6 (horizon, batch) pairs: each batch's horizons
    # dealt into 2 jobs, longest first, which are the pairs themselves
    assert RecordingPool.jobs == [([h], reps) for reps in (
        [[0, 1], [2]] if shared else [[0], [1], [2]]) for h in (12, 6)]
    assert stdout == run_cli(capsys, ["sweep", "--config", serial])[1]
    runs = json.loads(stdout)["runs"]
    assert [(r["horizon"], r["rep"], r["seed"]) for r in runs] == [
        (h, rep, 2 + rep) for h in (6, 12) for rep in range(3)]


def test_a_diverging_repetition_stops_after_the_runs_before_it(tmp_path, capsys,
                                                               monkeypatch):
    # repetitions replayed as one batch: when seed 6 diverges, seed 5's run
    # is still summarized and its CSV written, and seed 6's error is the one
    # reported, as when each repetition runs on its own
    replay = cli.run_async

    def diverging(*args, seeds, **kwargs):
        if 6 in seeds:
            raise cli.DivergedError(3, math.inf)
        return replay(*args, seeds=seeds, **kwargs)

    monkeypatch.setattr(cli, "run_async", diverging)
    out = tmp_path / "out"
    cfg = write_config(tmp_path, base_config(seed=5, repetitions=3, out=str(out)))
    code, stdout, err = run_cli(capsys, ["simulate", "--config", cfg])
    assert code == 1 and stdout == ""
    assert err == "run failed: iterates diverged at iteration 3 (norm inf)\n"
    assert sorted(p.name for p in out.iterdir()) == ["run_000.csv"]


def test_a_trace_error_stops_after_the_runs_before_it(tmp_path, capsys, monkeypatch):
    # an unseeded random model gives each repetition a trace of its own,
    # built just before its run: when seed 6's build fails, seed 5's run has
    # written its CSV, as when each repetition runs on its own
    build = cli.scheduler.simulate_trace

    def failing(model, horizon):
        if model.seed == 6:
            raise cli.SpeedModelError("arrival 1 finishes past the float range")
        return build(model, horizon)

    monkeypatch.setattr(cli.scheduler, "simulate_trace", failing)
    out = tmp_path / "out"
    cfg = write_config(tmp_path, base_config(
        seed=5, repetitions=3, out=str(out), speed_model={"kind": "random", "means": [1, 2]}))
    code, stdout, err = run_cli(capsys, ["simulate", "--config", cfg])
    assert code == 2 and stdout == ""
    assert err == "error: arrival 1 finishes past the float range\n"
    assert sorted(p.name for p in out.iterdir()) == ["run_000.csv"]


UNSEEDED = {"kind": "random", "means": [1.0, 1.4]}   # seeded by each run's seed


@pytest.mark.parametrize("command, config, builds", [
    ("sweep", sweep_config(horizons=[6, 12, 18], repetitions=8), 3),
    ("sweep", sweep_config(horizons=[6, 12, 18], repetitions=8, speed_model=UNSEEDED), 24),
    ("simulate", base_config(repetitions=20), 2),   # batches of 16 and 4
    ("simulate", base_config(repetitions=3, speed_model=UNSEEDED), 3),
    ("compare", {**COMPARE_BASE, "seconds": [1.0, 3.0], "duration": 30.0, "repetitions": 3}, 1),
], ids=["sweep-fixed", "sweep-unseeded", "simulate-fixed", "simulate-unseeded", "compare"])
def test_each_batch_builds_its_trace_once(tmp_path, capsys, monkeypatch, command, config,
                                          builds):
    build, calls = cli.scheduler.simulate_trace, []

    def counted(model, horizon):
        calls.append(horizon)
        return build(model, horizon)

    monkeypatch.setattr(cli.scheduler, "simulate_trace", counted)
    code, _, _ = run_cli(capsys, [command, "--config", write_config(tmp_path, config)])
    assert code == 0 and len(calls) == builds


def test_a_diverging_pooled_sweep_fails_as_the_serial_one(tmp_path, capsys, monkeypatch):
    # a run's DivergedError comes back from a pool process pickled, and must
    # keep its iteration and norm there rather than break the pool
    usable_cpus(monkeypatch, 2)
    fields = {"problem": {"kind": "least-squares", "dim": 3, "sigma": 0.5},
              "schedule": {"kind": "constant", "step": 100.0},
              "speed_model": {"kind": "random", "means": [1, 2]},
              "horizons": [200, 400], "repetitions": 2}
    serial, pooled = (run_cli(capsys, ["sweep", "--config", write_config(
        tmp_path, sweep_config(parallel=parallel, **fields), name=f"{parallel}.json")])
        for parallel in (False, 2))
    assert serial[0] == 1 and serial[2].startswith("run failed: iterates diverged at ")
    assert pooled == serial


# each repetition of an unseeded random model is a batch of its own; under
# step 1.5 repetitions 0, 1 and 2 diverge at iterations 146, 136 and 134
DIVERGING_SWEEP = {"seed": 0, "repetitions": 3,
                   "problem": {"kind": "least-squares", "dim": 3, "num_samples": 10,
                               "sigma": 0.5, "seed": 1},
                   "speed_model": {"kind": "random", "means": [1.0, 1.0, 1.0, 1.0]},
                   "schedule": {"kind": "constant", "step": 1.5}, "x0": {"kind": "zeros"}}


@pytest.mark.parametrize("fields, code, err", [
    # at 140 repetition 1 diverges; repetition 0's own job fails first, at 150
    ({**DIVERGING_SWEEP, "horizons": [130, 140, 150]}, 1,
     "run failed: iterates diverged at iteration 136 (norm 1.175e+12)\n"),
    ({**DIVERGING_SWEEP, "horizons": [150, 130, 140]}, 1,
     "run failed: iterates diverged at iteration 146 (norm 1.371e+12)\n"),
    # a schedule that one horizon cannot have, and a trace that one cannot build
    ({"horizons": [6, 1], "speed_model": {"kind": "random", "means": [1.0, 1.4]},
      "repetitions": 3}, 2,
     "config error: config.schedule: adaptive-convex: requires horizon_at_least_num_workers\n"),
    ({"horizons": [1, 3], "speed_model": {"kind": "fixed", "seconds": [1e308]}}, 2,
     "error: arrival 2 finishes past the float range; compute times are too large\n"),
], ids=["diverged-136", "diverged-146", "schedule", "trace"])
def test_a_failing_sweep_reports_the_first_failure_in_horizon_order(
        tmp_path, capsys, monkeypatch, fields, code, err):
    # a job replays a batch at several horizons, but the error reported is
    # the first that one job per (horizon, batch), horizon by horizon, meets
    usable_cpus(monkeypatch, 2)
    for parallel in (False, 2):
        cfg = write_config(tmp_path, sweep_config(parallel=parallel, **fields))
        assert run_cli(capsys, ["sweep", "--config", cfg]) == (code, "", err)


def test_sweep_jobs_deal_horizons_longest_first():
    assert cli._deal([6, 12], 1) == [[12, 6]]
    assert cli._deal([6, 12], 5) == [[12], [6]]
    # seed-sweep's horizons in a pool of two: the longest alone
    assert cli._deal([2048, 4096, 8192], 2) == [[8192], [4096, 2048]]
    assert cli._deal([1, 2, 3, 4, 5], 2) == [[5, 2, 1], [4, 3]]


def test_a_serial_sweep_runs_one_job_per_batch(tmp_path, capsys, monkeypatch):
    jobs, batch = [], cli._sweep_batch

    def recorded(cmd, horizons, reps):
        jobs.append((horizons, reps))
        return batch(cmd, horizons, reps)

    monkeypatch.setattr(cli, "_sweep_batch", recorded)
    cfg = write_config(tmp_path, sweep_config(horizons=[6, 18, 12], repetitions=3,
                                              speed_model=UNSEEDED))
    assert run_cli(capsys, ["sweep", "--config", cfg])[0] == 0
    assert jobs == [([18, 12, 6], [rep]) for rep in range(3)]


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
    st.sampled_from([-1.0, 0.0, 5e-324, 1e-310, 0.5, 1.0, 1e308, math.nan, math.inf]),
    # sizes are drawn small or past the 2**63-byte array limit, never in
    # between, where they would allocate real memory
    st.sampled_from([2**63, -2**63, 2**63 - 1, -(2**63 - 1), 10**400]))
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


# the fields of a fuzzed input file: small counts that build a run, and
# values that break one: not numbers, past int64 or the float range, empty,
# longer than the csv module's field limit, a NUL byte or a stray quote
CSV_FIELDS = st.one_of(
    st.integers(-1, 4).map(str),
    st.sampled_from(["0.5", "1.0", "nan", "inf", "-1e999", "1e999", "a", "", " 1", "1.0.0",
                     str(2**63), str(-2**63 - 1), "9" * 25, "\x00", '"', "1" * 200_000]))
TRACE_HEADERS = st.sampled_from(["k,worker,tau,time", "time,tau,worker,k",
                                 "k,worker,tau,time,extra", "k,worker,tau,time,worker",
                                 "k,worker,tau", "k,worker,tau,time,"])
# a well-formed trace row in most examples, so the later checks are reached
TRACE_ROWS = st.one_of(
    st.tuples(st.integers(1, 4), st.integers(0, 3), st.integers(1, 4), st.integers(1, 4))
    .map(lambda row: f"{row[0]},{row[1]},{row[2]},{row[3]}.0"),
    st.lists(CSV_FIELDS, max_size=5).map(",".join))
DATA_ROWS = st.one_of(
    st.lists(st.integers(-3, 3).map(str), min_size=3, max_size=3).map(",".join),
    st.lists(CSV_FIELDS, max_size=4).map(",".join))


@st.composite
def csv_bytes(draw, header, rows):
    """The bytes of a CSV file: the header, if any, and rows, with line
    breaks of either kind, then maybe a BOM, a truncation, a blank line or a
    byte that is not UTF-8."""
    lines = ([draw(header)] if header is not None else []) + draw(st.lists(rows, max_size=5))
    data = draw(st.sampled_from(["\n", "\r\n"])).join(lines).encode()
    damage = draw(st.sampled_from(["none", "bom", "truncate", "blank", "latin-1"]))
    at = draw(st.integers(0, len(data)))
    if damage == "bom":
        data = codecs.BOM_UTF8 + data
    elif damage == "truncate":
        data = data[:at]
    elif damage == "blank":
        data = data[:at] + b"\n\n" + data[at:]
    elif damage == "latin-1":
        data = data[:at] + b"\xff\xe9" + data[at:]
    return data


@settings(derandomize=True, max_examples=400, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(which=st.sampled_from(["trace", "data"]), data=st.data(),
       num_workers=st.sampled_from([None, 2, 2**63]))
def test_input_file_fuzz_keeps_the_exit_code_contract(tmp_path, capsys, which, data,
                                                      num_workers):
    # no bytes in a trace or data CSV end in a traceback: bad input exits 2
    path = tmp_path / f"{which}.csv"
    if which == "trace":
        path.write_bytes(data.draw(csv_bytes(TRACE_HEADERS, TRACE_ROWS)))
        speed = {"kind": "trace-csv", "path": str(path)}
        if num_workers is not None:
            speed["num_workers"] = num_workers
        cfg = base_config(speed_model=speed, schedule={"kind": "constant", "step": 0.01})
        del cfg["horizon"]
    else:
        path.write_bytes(data.draw(csv_bytes(None, DATA_ROWS)))
        cfg = base_config(problem={"kind": "least-squares", "csv": str(path)})
    code = main(["simulate", "--config", write_config(tmp_path, cfg, name="fuzz.json")])
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


def test_check_rejects_a_negative_base_seed(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["check", "--base-seed", "-1"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "non-negative integer" in err and "Traceback" not in err


def test_check_with_an_empty_grid_is_a_usage_error(capsys):
    code, _, err = run_cli(capsys, ["check", "--workers", "16", "--horizons", "5"])
    assert code == 2 and "no case" in err


@pytest.mark.parametrize("argv", [["--workers", "65"], ["--workers", "0"],
                                  ["--horizon", "0"], ["--workers", "-3"],
                                  ["--horizon", "100001"]])
def test_live_rejects_counts_out_of_range(capsys, argv):
    # argparse rejects these before any thread starts
    with pytest.raises(SystemExit) as exc:
        main(["live", *argv])
    assert exc.value.code == 2
    assert "positive integer" in capsys.readouterr().err


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
