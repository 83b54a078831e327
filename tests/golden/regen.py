"""The golden corpus: command-line invocations whose exit code, stdout,
stderr and `--out` files must stay byte-identical from one commit to the
next.

Each case runs `asyncsgd.cli.main` in process, in a fresh working directory
that holds the case's input files, with a relative `--out` (summary.json
stores the run CSV's path). `manifest.json` records, per case, the exit code
and the sha256 of stdout, of stderr and of every file the run wrote,
together with the Python, numpy and BLAS versions it was recorded with.

    PYTHONPATH=src python tests/golden/regen.py

rewrites the manifest and prints every case whose record changed. A change
that alters a digest on purpose lists each one, with the reason.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import platform
import tempfile
from pathlib import Path

import numpy as np

from asyncsgd.cli import main

MANIFEST = Path(__file__).with_name("manifest.json")


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}"}


def _trace_csv(workers: list[int]) -> str:
    """A trace file for an arrival order, with delays from their definition."""
    last, rows = {}, ["k,worker,tau,time"]
    for k, m in enumerate(workers, 1):
        rows.append(f"{k},{m},{k - last.get(m, 0)},{0.5 * k!r}")
        last[m] = k
    return "\n".join(rows) + "\n"


def _data_csv(rows: int, features: int) -> str:
    return "".join(",".join(repr(((7 * i + 3 * j) % 11 - 5) / 4.0) for j in range(features + 1))
                   + "\n" for i in range(rows))


LS = {"kind": "least-squares", "dim": 4, "num_samples": 16, "sigma": 0.5}
LS_ROWS = {"kind": "least-squares", "dim": 5, "num_samples": 20, "noise": "rows"}
LS_EXACT = {"kind": "least-squares", "dim": 3, "num_samples": 12, "sigma": 0.0}
NC_ROWS = {"kind": "bounded-nonconvex", "dim": 3, "num_samples": 15}
NC_ADDITIVE = {"kind": "bounded-nonconvex", "dim": 2, "num_samples": 10, "noise": "additive",
               "sigma": 0.4}
HETERO = {"kind": "heterogeneous-quadratics", "dim": 3, "num_workers": 4, "zeta": 0.3,
          "sigma": 0.2}
FIXED = {"kind": "fixed", "seconds": [1.0, 1.3, 1.7, 2.2]}
EXPONENTIAL = {"kind": "random", "distribution": "exponential",
               "means": [1.0, 1.5, 2.0, 2.5, 3.0, 4.0], "seed": 2}
LOGNORMAL = {"kind": "random", "distribution": "lognormal", "sigma": 1.0,
             "means": [1.0, 1.2, 1.4, 1.6, 1.8, 2.0, 2.2, 2.4]}
STRAGGLER = {"kind": "straggler", "straggler": 3, "slowdown": 20.0, "num_workers": 3}
EXPLICIT = {"kind": "explicit", "workers": [1, 2, 3, 1, 1, 2, 3, 3, 1, 2] * 6}
EQUAL_PAIR = {"kind": "fixed", "seconds": [1.0, 1.0]}
OVERFLOW = {"kind": "least-squares", "dim": 3, "num_samples": 10, "sigma": 1.0}


def _config(**fields) -> dict:
    return {"seed": 5, "schedule": {"kind": "adaptive-convex"}, **fields}


SIMULATE = {   # name: (config, also run with --diagnostics)
    "ls-additive-fixed-weighted": (
        _config(problem=LS, speed_model=FIXED, horizon=200), True),
    "ls-rows-exponential-exp-weighted": (
        _config(problem=LS_ROWS, speed_model=EXPONENTIAL, horizon=300,
                schedule={"kind": "adaptive-strongly-convex"}), True),
    "ls-exact-straggler-uniform": (
        _config(problem=LS_EXACT, speed_model=STRAGGLER, horizon=150,
                output_rule="uniform"), True),
    "nonconvex-rows-lognormal-sampled": (
        _config(problem=NC_ROWS, speed_model=LOGNORMAL, horizon=300, repetitions=2,
                schedule={"kind": "adaptive-nonconvex"}), True),
    "nonconvex-additive-lipschitz-smooth": (
        _config(problem=NC_ADDITIVE, speed_model=FIXED, horizon=120,
                schedule={"kind": "lipschitz-smooth"}), False),
    "nonconvex-rows-explicit-const-lipschitz": (
        _config(problem=NC_ROWS, speed_model=EXPLICIT,
                schedule={"kind": "const-lipschitz", "overrides": {"init_distance": 1.0}}),
        False),
    "heterogeneous-fixed-sampled": (
        _config(problem=HETERO, speed_model=FIXED, horizon=160,
                schedule={"kind": "adaptive-heterogeneous"}), True),
    "constant-explicit-x0-weighted": (
        _config(problem=LS, speed_model=FIXED, horizon=100, output_rule="weighted",
                x0={"kind": "explicit", "values": [0.5, -1.0, 2.0, 0.0]},
                schedule={"kind": "constant", "step": 0.05}), False),
    "overrides-offset-x0-repetitions": (
        _config(problem=LS, speed_model=EXPONENTIAL, horizon=90, repetitions=3,
                x0={"kind": "offset", "distance": 2.0},
                schedule={"kind": "adaptive-convex", "overrides": {"smoothness": 3.0}}),
        False),
    "trace-csv-uniform": (
        _config(problem=LS_ROWS, speed_model={"kind": "trace-csv", "path": "trace.csv"},
                output_rule="uniform"), False),
    "data-csv-exp-weighted": (
        _config(problem={"kind": "least-squares", "csv": "data.csv", "sigma": 0.3},
                speed_model=FIXED, horizon=120, output_rule="exp-weighted"), False),
    # runs that span several replay chunks
    "long-rows-weighted": (
        _config(problem=LS_ROWS, speed_model={"kind": "fixed", "seconds": [
            1.0 + 0.1 * m for m in range(12)]}, horizon=5000), False),
    "long-additive-sampled": (
        _config(problem=LS, speed_model=LOGNORMAL, horizon=4500, output_rule="sampled"),
        False),
    "diverging-constant": (
        _config(problem=LS, speed_model=FIXED, horizon=400,
                schedule={"kind": "constant", "step": 50.0}), False),
    # two equal workers: every ready block holds two arrivals
    "ls-additive-equal-pair": (
        _config(problem=LS, speed_model=EQUAL_PAIR, horizon=200), True),
    # the first diverged iterate, at k = 47, is the first arrival of a block
    "diverging-constant-equal-pair": (
        _config(problem=LS, speed_model=EQUAL_PAIR, horizon=400,
                schedule={"kind": "constant", "step": 3.0}), False),
    # a step of 1e160 puts x_1 past the range of its squared norm: one worker
    # replays it on the scalar loop, four on the batched path, and both print
    # one `run failed` line and no warning
    **{f"overflowing-step-{name}": (
        _config(seed=1, problem=OVERFLOW, speed_model={"kind": "fixed", "seconds": seconds},
                horizon=40, schedule={"kind": "constant", "step": 1e160},
                x0={"kind": "offset"}), False)
       for name, seconds in (("one-worker", [1.0]), ("four-workers", [1.0] * 4))},
    # at d = 7, past _FLOAT_DIM (6), the one worker's scalar loop keeps numpy
    # rows, and a step of 1.7e308 puts gamma_1 g_1 itself past the float range
    "overflowing-step-numpy-rows": (
        _config(seed=1, problem={**OVERFLOW, "dim": 7}, speed_model={"kind": "fixed",
                                                                     "seconds": [1.0]},
                horizon=40, schedule={"kind": "constant", "step": 1.7e308},
                x0={"kind": "offset"}), False),
}

SWEEP_BASE = _config(problem=LS, speed_model=FIXED, horizons=[60, 120], repetitions=2,
                     output_rule="sampled", parallel=False)
COMPARE_BASE = _config(problem=LS, seconds=[1.0, 1.5, 2.0], duration=40.0, repetitions=2)
INPUTS = {"trace.csv": _trace_csv([1, 2, 1, 3, 2, 1, 1, 3, 2, 2, 1, 3] * 8),
          "data.csv": _data_csv(18, 3)}


def cases() -> dict:
    """Every case: name -> (argv, files to write into the working directory)."""
    out = {}

    def add(name, argv, config=None, inputs=None):
        files = {**INPUTS, **(inputs or {})}
        if config is not None:
            files["config.json"] = json.dumps(config)
            argv = [argv[0], "--config", "config.json", *argv[1:]]
        out[name] = (argv, files)

    for name, (config, diagnostics) in SIMULATE.items():
        add(f"simulate-{name}", ["simulate", "--out", "out"], config)
        if diagnostics:
            add(f"simulate-{name}-diagnostics", ["simulate", "--out", "out", "--diagnostics"],
                config)
    add("sweep-metrics-on", ["sweep", "--out", "out"], SWEEP_BASE)
    add("sweep-metrics-off", ["sweep", "--out", "out"], {**SWEEP_BASE, "metrics": False})
    # repetitions whose traces differ (a random model seeded by the run seed)
    # and repetitions that share one (a random model with its own seed)
    add("sweep-lognormal-unseeded", ["sweep", "--out", "out"],
        {**SWEEP_BASE, "speed_model": LOGNORMAL, "output_rule": "weighted"})
    add("sweep-seeded-random-sampled", ["sweep", "--out", "out"],
        {**SWEEP_BASE, "speed_model": EXPONENTIAL, "repetitions": 3, "metrics": True})
    add("simulate-fixed-repetitions-csv", ["simulate", "--out", "out"],
        _config(problem=LS, speed_model=FIXED, horizon=140, repetitions=3,
                output_rule="sampled"))
    add("compare-minibatch-step", ["compare", "--out", "out"],
        {**COMPARE_BASE, "minibatch_step": 0.05})
    add("compare-heterogeneous", ["compare", "--out", "out"],
        {**COMPARE_BASE, "problem": {**HETERO, "num_workers": 3},
         "schedule": {"kind": "adaptive-heterogeneous"}})
    add("compare-repetitions", ["compare", "--out", "out"], {**COMPARE_BASE, "repetitions": 3})
    add("check-grid", ["check", "--workers", "1,3", "--horizons", "30,60"])
    add("check-inject-prev-off-by-one",
        ["check", "--workers", "2", "--horizons", "40", "--inject-bug", "prev-off-by-one"])
    add("exit2-unknown-key", ["simulate"], {**SIMULATE["ls-additive-fixed-weighted"][0],
                                            "horizn": 10})
    add("exit2-unknown-schedule", ["simulate"],
        _config(problem=LS, speed_model=FIXED, schedule={"kind": "adaptive-convx"}))
    add("exit2-bad-worker-list", ["check", "--workers", "0"])
    # worker ids past the int64 range, in a trace file and in an explicit order
    add("exit2-trace-csv-worker-past-int64", ["simulate"],
        _config(problem=LS, speed_model={"kind": "trace-csv", "path": "big.csv"}),
        {"big.csv": "k,worker,tau,time\n1,1,1,1.0\n2,99999999999999999999999,2,2.0\n"})
    add("exit2-explicit-worker-past-int64", ["simulate"],
        _config(problem=LS, speed_model={"kind": "explicit",
                                         "workers": [1, 2, 1, 99999999999999999999999]}))
    # more repetitions than the config allows, rejected before any trace is built
    add("exit2-repetitions-past-bound", ["simulate"],
        _config(problem=LS, speed_model=FIXED, horizon=30, repetitions=10**12))
    # a live horizon past its bound, rejected before any thread starts
    add("exit2-live-horizon-past-bound", ["live", "--workers", "2", "--horizon", "100001"])
    return out


def run_case(argv: list[str], files: dict, workdir: Path) -> dict:
    """The exit code and the sha256 of stdout, of stderr (which carries the
    iteration and norm of a diverged run) and of every file the run wrote."""
    workdir = Path(workdir)
    for name, text in files.items():
        (workdir / name).write_text(text)
    stdout, stderr, cwd = io.StringIO(), io.StringIO(), os.getcwd()
    seed = os.environ.pop("ASYNC_SGD_SEED", None)
    os.chdir(workdir)
    try:
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            try:
                code = main(argv)
            except SystemExit as exc:   # argparse rejects its arguments this way
                code = exc.code
    finally:
        os.chdir(cwd)
        if seed is not None:
            os.environ["ASYNC_SGD_SEED"] = seed
    written = sorted(p for p in workdir.rglob("*") if p.is_file() and p.name not in files)
    return {"argv": argv, "exit": code,
            **{name: hashlib.sha256(stream.getvalue().encode()).hexdigest()
               for name, stream in (("stdout", stdout), ("stderr", stderr))},
            "files": {p.relative_to(workdir).as_posix():
                      hashlib.sha256(p.read_bytes()).hexdigest() for p in written}}


def build() -> dict:
    records = {}
    for name, (argv, files) in cases().items():
        with tempfile.TemporaryDirectory() as workdir:
            records[name] = run_case(argv, files, workdir)
    return {"environment": environment(), "cases": records}


if __name__ == "__main__":
    old = json.loads(MANIFEST.read_text())["cases"] if MANIFEST.exists() else {}
    manifest = build()
    for name, record in manifest["cases"].items():
        if old.get(name) != record:
            print(f"{'changed' if name in old else 'new'}: {name}")
    for name in sorted(set(old) - set(manifest["cases"])):
        print(f"removed: {name}")
    MANIFEST.write_text(json.dumps(manifest, indent=1, sort_keys=True) + "\n")
