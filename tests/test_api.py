"""The public surface: the names `asyncsgd` exports, and the entry points the
benchmark in perfbench/ drives the package through."""

import importlib.util
import subprocess
import sys
from pathlib import Path

import pytest

import asyncsgd
import asyncsgd.cli
import asyncsgd.invariants

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS_PY = ROOT / "perfbench" / "workloads.py"


def test_exported_names_are_pinned():
    assert sorted(asyncsgd.__all__) == [
        "ArrivalTrace", "BoundedNonconvex", "DiagnosticsError", "DivergedError",
        "FixedSpeeds", "HeterogeneousQuadratics", "LeastSquares", "LedgerError",
        "OUTPUT_RULES", "ProblemConstants", "ProblemError", "RandomSpeeds", "RunRecord",
        "ScheduleError", "SpeedModelError", "StepSchedule", "StragglerSpeeds",
        "VirtualTrack", "bounded_nonconvex", "expected_sampled_metric",
        "heterogeneous_quadratics", "least_squares", "least_squares_from_csv",
        "log_weighted_stepsize_sum", "make_schedule", "output_weights", "run_async",
        "run_live", "run_minibatch", "select_output", "simulate_trace", "speedup_factor",
        "steps_in_time", "trace_from_workers", "track", "worker_streams",
    ]
    for name in asyncsgd.__all__:
        assert getattr(asyncsgd, name) is not None, name


def load_workloads(path=WORKLOADS_PY, name="perfbench_workloads"):
    """perfbench/workloads.py as a module, leaving no bytecode in perfbench/."""
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    written = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    sys.modules[spec.name] = module   # its dataclasses look their module up
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = written
        del sys.modules[spec.name]
    return module


def test_benchmark_workloads_run_clean(tmp_path, monkeypatch):
    monkeypatch.delenv("ASYNC_SGD_SEED", raising=False)
    # perfbench times each check case through check_case, and would time
    # each sweep run through a cli._sweep_job; without one it splits a
    # unit's time evenly. The sweep replays a batch of runs in one call, so
    # a function of that name would report several runs as one
    assert callable(asyncsgd.invariants.check_case)
    assert not hasattr(asyncsgd.cli, "_sweep_job")
    workloads = load_workloads().WORKLOADS
    for name in ("straggler-long", "seed-sweep", "diagnostics-wide", "check-suite"):
        workload = workloads[name](0, str(tmp_path))
        if name == "straggler-long":
            # its checks hold at any horizon; the benchmark's 2e5 + 1 takes seconds
            workload.horizon = 2001
        # the benchmark repeats a unit from one setup, and a repeat whose
        # outputs differ from the first unit's counts as failed
        inputs = workload.setup()
        first = workload.run(inputs)
        for unit in (first, workload.run(inputs)):
            assert unit.failures == [], name
            assert unit.updates > 0 and unit.run_s, name
            assert unit.fingerprint == first.fingerprint, name


def test_benchmark_workloads_run_traced(tmp_path, monkeypatch):
    # the traced benchmark counts a replay's updates and gradient evaluations
    # from what run_async returns; a batch of seeds counts every seed's
    monkeypatch.delenv("ASYNC_SGD_SEED", raising=False)
    tracer_module = load_workloads(ROOT / "perfbench" / "tracer.py", "perfbench_tracer")
    workloads = load_workloads().WORKLOADS
    for name in ("straggler-long", "seed-sweep", "diagnostics-wide", "check-suite"):
        workload = workloads[name](1, str(tmp_path))
        if name == "straggler-long":
            workload.horizon = 2001
        inputs = workload.setup()
        tracer = tracer_module.Tracer()
        with tracer:
            unit = workload.run(inputs)
        assert unit.failures == [], name
        counters = tracer.snapshot()["counters"]
        assert counters["optimizers.updates"] == unit.updates, name
        assert counters["optimizers.grad_evals"] >= unit.updates, name


def load_bench_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "tools" / "bench_pairs.py")
    bench_pairs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench_pairs)
    return bench_pairs


@pytest.mark.parametrize("stdout", ["", 'print(\'{"metrics": {}, "failed": 1}\')'],
                         ids=["no-output", "metrics"])
def test_bench_pairs_stops_on_a_failed_run(tmp_path, stdout):
    # a run that exits 1 is no measurement, whether or not it printed metrics
    bench_pairs = load_bench_pairs()
    (tmp_path / "perfbench").mkdir()
    (tmp_path / "perfbench" / "run.py").write_text(
        f"import sys\n{stdout}\nprint('check failed: residual', file=sys.stderr)\nsys.exit(1)\n")
    with pytest.raises(SystemExit) as failed:
        bench_pairs.run(tmp_path, "diagnostics-wide", 3, 1)
    message = str(failed.value)
    for part in ("exit 1", str(tmp_path), "workload diagnostics-wide", "seed 3", "--trace 1",
                 "check failed: residual"):
        assert part in message


def test_bench_pairs_stops_when_the_parent_is_not_a_git_checkout(tmp_path):
    # the output names the parent by its commit: a tree without one stops
    # the script before its first run, with a message naming the tree
    parent, change = tmp_path / "parent", tmp_path / "change"
    for tree in (parent, change):
        (tree / "perfbench").mkdir(parents=True)
        (tree / "perfbench" / "run.py").write_text(
            "from pathlib import Path\nPath(__file__).with_name('ran').touch()\n")
    (change / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
    out = tmp_path / "BENCH.json"
    with pytest.raises(SystemExit) as stopped:
        load_bench_pairs().main(["--parent", str(parent), "--change", str(change),
                                 "--out", str(out)])
    assert str(parent) in str(stopped.value) and "not a git checkout" in str(stopped.value)
    assert not out.exists()
    assert not any((tree / "perfbench" / "ran").exists() for tree in (parent, change))


@pytest.mark.parametrize("edit", ["perfbench/workloads.py", "BENCHMARK.json",
                                  "perfbench/extra.py"])
def test_bench_pairs_stops_when_the_benchmarks_differ(tmp_path, edit):
    # a pair of trees whose benchmark files differ would measure two
    # benchmarks: the script names the first file that differs and stops
    # before its first run. Bytecode caches are not benchmark files
    parent, change = tmp_path / "parent", tmp_path / "change"
    for tree in (parent, change):
        (tree / "perfbench" / "__pycache__").mkdir(parents=True)
        (tree / "perfbench" / "__pycache__" / "run.pyc").write_bytes(tree.name.encode())
        (tree / "perfbench" / "run.py").write_text(
            "from pathlib import Path\nPath(__file__).with_name('ran').touch()\n")
        (tree / "perfbench" / "workloads.py").write_text("WORKLOADS = {}\n")
        (tree / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
    subprocess.run(["git", "init", "-q"], cwd=parent, check=True)
    subprocess.run(["git", "-c", "user.name=bench", "-c", "user.email=bench@localhost",
                    "commit", "-q", "--allow-empty", "-m", "parent"], cwd=parent, check=True)
    bench_pairs = load_bench_pairs()
    assert bench_pairs.first_difference(parent, change) is None
    with open(change / edit, "a") as fh:
        fh.write("\n")
    out = tmp_path / "BENCH.json"
    with pytest.raises(SystemExit) as stopped:
        bench_pairs.main(["--parent", str(parent), "--change", str(change),
                          "--out", str(out)])
    assert str(stopped.value).startswith(f"{edit} differs between {parent} and {change}")
    assert not out.exists()
    assert not any((tree / "perfbench" / "ran").exists() for tree in (parent, change))


def test_bench_pairs_compares_each_seed_with_its_pair():
    # the parent's runs spread from 10 to 40 over the seeds and the change
    # runs at 0.8 times its pair: the two sides' quartiles overlap, and the
    # paired ratio reads 0.8 on every seed
    parent = [10.0, 20.0, 30.0, 40.0]
    change = [8.0, 16.0, 24.0, 32.0]
    spec = {"run_ms_p90": {"name": "run_ms_p90", "unit": "ms", "better": "lower",
                           "bound": 0.25},
            "updates_per_s": {"name": "updates_per_s", "unit": "1/s", "better": "higher",
                              "bound": 0.25}}

    def results(values):
        return [{"metrics": {name: {"value": v} for name in spec}} for v in values]

    out = load_bench_pairs().compare(results(parent), results(change), spec)
    lower, higher = out["run_ms_p90"], out["updates_per_s"]
    assert (lower["wins"], higher["wins"]) == (4, 0)
    assert lower["ratio_of_medians"] == pytest.approx(0.8)
    assert lower["parent"]["median"] == 25.0 and lower["change"]["median"] == 20.0
    assert (lower["parent"]["q1"], lower["parent"]["q3"]) == (17.5, 32.5)
    paired = lower["paired_ratio"]
    assert paired["values"] == pytest.approx([0.8] * 4)
    for key in ("median", "q1", "q3"):
        assert paired[key] == pytest.approx(0.8)
    assert higher["paired_ratio"] == paired
    # seeds on which the change ran slower and faster than its pair
    out = load_bench_pairs().compare(results(parent), results([12.0, 18.0, 30.0, 44.0]),
                                     spec)
    paired = out["run_ms_p90"]["paired_ratio"]
    assert paired["values"] == pytest.approx([1.2, 0.9, 1.0, 1.1])
    assert (paired["q1"], paired["median"], paired["q3"]) == pytest.approx((0.975, 1.05, 1.125))
    assert out["run_ms_p90"]["wins"] == 1


def test_bench_pairs_counts_each_trees_source_lines(tmp_path):
    # the counts are those of `wc -l src/asyncsgd/*.py`: newlines per file,
    # so a last line without one is not counted, and files outside are not
    trees = {"parent": {"a.py": "x = 1\ny = 2\n", "b.py": "z = 3"},
             "change": {"a.py": "x = 1\n", "c.py": "\n\n\n"}}
    for side, files in trees.items():
        package = tmp_path / side / "src" / "asyncsgd"
        package.mkdir(parents=True)
        for name, text in files.items():
            (package / name).write_text(text)
        (package / "notes.txt").write_text("not\ncounted\n")
        (tmp_path / side / "src" / "other.py").write_text("not counted\n")
    src_lines = load_bench_pairs().src_lines
    assert src_lines(tmp_path / "parent") == {"files": {"a.py": 2, "b.py": 0}, "total": 2}
    assert src_lines(tmp_path / "change") == {"files": {"a.py": 1, "c.py": 3}, "total": 4}
