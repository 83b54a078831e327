"""Command line harness.

Subcommands: simulate (trace replay runs with CSV/JSON outputs), compare
(async vs. synchronous minibatch at equal wall time), sweep (horizon grids,
repetitions in parallel), check (randomized invariant suite: the
virtual-gap identity and the stepsize-sum bounds), live (threaded demo).
Runs are configured by a JSON file; a few flags override config fields. The
ASYNC_SGD_SEED environment variable overrides every other seed source. Exit
codes: 0 success, 1 invariant or run failure, 2 usage or config errors.

Config checking is declarative. Each config section, and each kind of a
section that has kinds, has one table below that lists every key it accepts
with its type and lower bound, and one reader (`_read`) checks a section
against its table. A key its table does not list, including a key that only
another kind reads, is a config error naming its dotted path. Config keys
equal the library's keyword names, so a builder is a table lookup plus a
call. simulate, compare and sweep share one run path: `_read_command` checks
the top level and builds the problem and the start point once, and `_run`
builds each run's schedule, picks its output rule, runs and summarizes.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import dataclasses
import json
import math
import os
import sys

import numpy as np

from . import invariants, problems, scheduler, schedules
from .optimizers import DivergedError, run_async, run_live, run_minibatch
from .problems import ProblemError
from .scheduler import LedgerError, SpeedModelError
from .schedules import ScheduleError, expected_sampled_metric, select_output
from .virtual import INJECTABLE_BUGS, track

SCHEMA_VERSION = 1


class ConfigError(ValueError):
    pass


# ---------------------------------------------------------------------------
# config reader


def _load_config(path) -> dict:
    try:
        with open(path) as fh:
            config = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"config {path} is not valid JSON (line {exc.lineno}, column {exc.colno}): "
            f"{exc.msg}") from exc
    if not isinstance(config, dict):
        raise ConfigError(f"config {path} must be a JSON object")
    return config


_TYPE_NAMES = {int: "an integer", float: "a number", bool: "true or false",
               str: "a string", dict: "a JSON object", bool | int: "true, false or an integer"}


def _check(value, kind, lower, path: str):
    """`value` checked against a table type (see the config tables below)."""
    if isinstance(kind, list):
        if not isinstance(value, list) or not value:
            raise ConfigError(f"{path} must be a non-empty list, got {value!r}")
        return [_check(v, kind[0], lower, f"{path}[{i}]") for i, v in enumerate(value)]
    if isinstance(kind, tuple):
        if not isinstance(value, str) or value not in kind:
            raise ConfigError(f"{path} must be one of {list(kind)}, got {value!r}")
        return value
    if (not isinstance(value, (int, float) if kind is float else kind)
            or isinstance(value, bool) and kind in (int, float)):
        raise ConfigError(f"{path} must be {_TYPE_NAMES[kind]}, got {value!r}")
    if kind is float:
        try:
            value = float(value)
        except OverflowError:   # an integer literal beyond the float range
            value = math.inf
        if not math.isfinite(value):
            raise ConfigError(f"{path} must be finite, got {value}")
    if lower is not None and not isinstance(value, bool) and value < lower:
        raise ConfigError(f"{path} must be >= {lower}, got {value}")
    return value


def _read(cfg, where: str, table: dict, **fallback) -> dict:
    """Check the config section `cfg` against its table and return its values:
    each key the section sets, then each default the table, or else
    `fallback`, gives for a key it leaves out. Raises ConfigError naming the
    dotted path of an unknown, missing, mistyped or out-of-range key."""
    if not isinstance(cfg, dict):
        raise ConfigError(f"{where} must be a JSON object, got {cfg!r}")
    unknown = sorted(set(cfg) - set(table))
    if unknown:
        raise ConfigError(f"{where}: unknown keys {unknown}; known: {sorted(table)}")
    values = {}
    for key, (kind, lower, *default) in table.items():
        if key in cfg:
            values[key] = _check(cfg[key], kind, lower, f"{where}.{key}")
        elif default == [...]:
            raise ConfigError(f"{where}.{key} is required")
        elif default:
            values[key] = default[0]
        elif key in fallback:
            values[key] = fallback[key]
    return values


def _read_kind(cfg, where: str, kinds: dict, **fallback):
    """Read a section whose `kind` picks its (constructor, table) in `kinds`;
    return the constructor and the section's other values."""
    if not isinstance(cfg, dict) or "kind" not in cfg:
        raise ConfigError(f"{where} must be a JSON object with a kind, got {cfg!r}")
    make, table = kinds[_check(cfg["kind"], tuple(kinds), None, f"{where}.kind")]
    return make, _read({k: v for k, v in cfg.items() if k != "kind"}, where, table, **fallback)


def _file_reader(load, where: str):
    """`load(path, ...)` with the path read from the key `where` names,
    reporting a file it cannot load as a config error."""
    def read(**kwargs):
        path = kwargs.pop(where.rpartition(".")[2])
        try:
            return load(path, **kwargs)
        except (OSError, ValueError) as exc:
            raise ConfigError(f"{where}: cannot load {path}: {exc}") from None
    return read


def _explicit_x0(problem, values) -> np.ndarray:
    if len(values) != problem.dim:
        raise ConfigError(f"config.x0.values must be a list of {problem.dim} numbers")
    return np.array(values)


# ---------------------------------------------------------------------------
# config tables
#
# A table maps each key a section (or one kind of it) accepts to
# (type, lower bound) or (type, lower bound, default). A type is int, float
# (any JSON number, read as a finite float), bool, str, dict (a JSON
# object), bool | int, a list [int] or [float] (non-empty, the bound applying
# to each entry), or a tuple of the accepted strings. The default ... marks
# a required key. A key without a default that the config leaves out is not
# passed on, so the library's own default applies; the problem, speed-model
# and start-point seeds fall back to the run seed instead.

PROBLEMS = {   # kind: (constructor, table)
    "least-squares": (problems.least_squares, {
        "dim": (int, 1, ...), "num_samples": (int, 1), "noise": (str, None),
        "sigma": (float, 0.0), "seed": (int, 0), "target_smoothness": (float, None)}),
    "bounded-nonconvex": (problems.bounded_nonconvex, {
        "dim": (int, 1, ...), "num_samples": (int, 1), "noise": (str, None),
        "sigma": (float, 0.0), "seed": (int, 0)}),
    "heterogeneous-quadratics": (problems.heterogeneous_quadratics, {
        "dim": (int, 1, ...), "num_workers": (int, 1, ...), "zeta": (float, 0.0, ...),
        "num_samples": (int, 1), "sigma": (float, 0.0), "seed": (int, 0),
        "target_smoothness": (float, None)}),
}
# a least-squares problem that sets `csv` loads its data from that file
LEAST_SQUARES_CSV = (_file_reader(problems.least_squares_from_csv, "config.problem.csv"), {
    "csv": (str, None, ...), "noise": (str, None), "sigma": (float, 0.0)})

SPEED_MODELS = {   # kind: (speed model or trace constructor, table)
    "fixed": (scheduler.FixedSpeeds, {"seconds": ([float], None, ...)}),
    "random": (scheduler.RandomSpeeds, {
        "distribution": (str, None, "exponential"), "means": ([float], None, ...),
        "sigma": (float, None), "seed": (int, 0)}),
    "straggler": (scheduler.StragglerSpeeds, {
        "base": (float, None, 1.0), "straggler": (int, None, ...),
        "slowdown": (float, None, ...), "num_workers": (int, 1, ...)}),
    "explicit": (scheduler.trace_from_workers, {
        "workers": ([int], None, ...), "num_workers": (int, 1)}),
    "trace-csv": (_file_reader(scheduler.ArrivalTrace.read_csv, "config.speed_model.path"), {
        "path": (str, None, ...), "num_workers": (int, 1)}),
}

X0_KINDS = {   # kind: (constructor taking the problem first, table)
    "zeros": (lambda problem: np.zeros(problem.dim), {}),
    "offset": (problems.offset_start, {"distance": (float, 0.0), "seed": (int, 0)}),
    "explicit": (_explicit_x0, {"values": ([float], None, ...)}),
}

SCHEDULE = {"kind": (str, None, ...), "step": (float, None), "overrides": (dict, None, {})}
OVERRIDES = {f.name: (type(f.default), None)
             for f in dataclasses.fields(schedules.ProblemConstants)}

TOP_LEVEL = {"problem": (dict, None, ...), "schedule": (dict, None, ...),
            "x0": (dict, None), "seed": (int, 0, 0), "repetitions": (int, 1, 1),
            "out": (str, None)}
SIMULATE = {**TOP_LEVEL, "speed_model": (dict, None, ...), "horizon": (int, 1),
            "diagnostics": (bool, None, False), "output_rule": (schedules.OUTPUT_RULES, None)}
COMPARE = {**TOP_LEVEL, "seconds": ([float], None, ...), "duration": (float, 0.0, ...),
           "minibatch_step": (float, None)}
SWEEP = {**TOP_LEVEL, "speed_model": (dict, None, ...), "horizons": ([int], 1, ...),
         "output_rule": (schedules.OUTPUT_RULES, None),
         "parallel": (bool | int, 1, True), "metrics": (bool, None, True)}


# ---------------------------------------------------------------------------
# builders


def resolve_seed(args, config_seed: int = 0) -> int:
    env = os.environ.get("ASYNC_SGD_SEED")
    if env is not None:
        try:
            seed = int(env)
        except ValueError:
            raise ConfigError(f"ASYNC_SGD_SEED must be an integer, got {env!r}") from None
    elif getattr(args, "seed", None) is not None:
        seed = args.seed
    else:
        seed = config_seed
    if seed < 0:
        raise ConfigError(f"seed must be >= 0, got {seed}")
    return seed


def build_problem(cfg: dict, fallback_seed: int):
    kinds = PROBLEMS
    if isinstance(cfg, dict) and cfg.get("kind") == "least-squares" and "csv" in cfg:
        kinds = {"least-squares": LEAST_SQUARES_CSV}
    make, values = _read_kind(cfg, "config.problem", kinds, seed=fallback_seed)
    return make(**values)


def trace_for_run(cfg: dict, horizon: int | None, run_seed: int) -> scheduler.ArrivalTrace:
    make, values = _read_kind(cfg, "config.speed_model", SPEED_MODELS, seed=run_seed)
    made = make(**values)
    if isinstance(made, scheduler.ArrivalTrace):
        if horizon is not None and horizon != made.horizon:
            raise ConfigError(
                f"horizon {horizon} does not match the {cfg['kind']} trace of length "
                f"{made.horizon}")
        return made
    if horizon is None:
        raise ConfigError("config.horizon is required unless the trace is explicit")
    return scheduler.simulate_trace(made, horizon)


def resolve_x0(cfg: dict | None, problem, seed: int) -> np.ndarray:
    make, values = _read_kind({"kind": "zeros"} if cfg is None else cfg, "config.x0",
                              X0_KINDS, seed=seed)
    return make(problem, **values)


def build_schedule(cfg: dict, problem, x0, num_workers: int, horizon: int):
    values = _read(cfg, "config.schedule", SCHEDULE)
    overrides = _read(values["overrides"], "config.schedule.overrides", OVERRIDES)
    constants = dataclasses.replace(problem.constants_for(x0, num_workers, horizon),
                                    **overrides)
    try:
        return schedules.make_schedule(values["kind"], constants, values.get("step"))
    except ScheduleError as exc:
        raise ConfigError(f"config.schedule: {exc}") from exc


def _write_json(payload: dict, out_dir: str | None, name: str) -> None:
    text = json.dumps(payload, indent=2)
    if out_dir:
        with open(os.path.join(out_dir, name), "w") as fh:
            fh.write(text + "\n")
    print(text)


# ---------------------------------------------------------------------------
# the run path shared by simulate, compare and sweep


def _read_command(args, table: dict) -> dict:
    """The command's checked top-level config, with the flags applied, the
    seed resolved, the problem and start point built and --out created."""
    config = _load_config(args.config)
    flags = {"horizon": getattr(args, "horizon", None), "out": args.out,
             "diagnostics": getattr(args, "diagnostics", False) or None}
    config.update({key: value for key, value in flags.items() if value is not None})
    cmd = _read(config, "config", table)
    cmd["seed"] = resolve_seed(args, cmd["seed"])
    cmd["problem"] = build_problem(cmd["problem"], cmd["seed"])
    cmd["x0"] = resolve_x0(cmd.get("x0"), cmd["problem"], cmd["seed"])
    if cmd.get("out"):
        try:
            os.makedirs(cmd["out"], exist_ok=True)
        except (OSError, ValueError) as exc:
            raise ConfigError(f"config.out: cannot create {cmd['out']!r}: {exc}") from None
    return cmd


def _run(cmd: dict, trace, run_seed: int) -> tuple[dict, object]:
    """Replay `trace` with the command's problem, start point and schedule
    config, and summarize the run."""
    problem, x0 = cmd["problem"], cmd["x0"]
    schedule = build_schedule(cmd["schedule"], problem, x0, trace.num_workers, trace.horizon)
    rule = cmd.get("output_rule") or schedule.output_rule
    diagnostics = cmd.get("diagnostics", False)
    # the exp-weighted and sampled outputs are read from the iterate history
    keep = diagnostics or rule in ("exp-weighted", "sampled")
    record = run_async(problem, trace, schedule, x0, seed=run_seed,
                       diagnostics=diagnostics, keep_iterates=keep,
                       metrics=cmd.get("metrics", True))
    fstar = problem.fstar if problem.fstar is not None else 0.0
    summary = {
        "seed": run_seed,
        "final_fgap": float(record.fgaps[-1]) if record.fgaps is not None
        else problem.value(record.x_final) - fstar,
        "final_gradnorm2": float(record.gradnorms2[-1]) if record.gradnorms2 is not None
        else float(np.sum(problem.grad(record.x_final) ** 2)),
        "max_tau": int(np.max(record.taus)),
        "mean_tau": float(np.mean(record.taus)),
        "stepsize_sum": float(np.sum(record.gamma_hats)),
        "output_rule": rule,
    }
    if rule == "sampled":
        rng = np.random.default_rng([run_seed, 999])
        point = select_output(rule, record, rng)
        if record.gradnorms2 is not None:
            summary["expected_sampled_gradnorm2"] = expected_sampled_metric(
                record, record.gradnorms2)
    else:
        point = select_output(rule, record)
    summary["output_fgap"] = problem.value(point) - fstar
    out_grad = problem.grad(point)
    summary["output_gradnorm2"] = float(out_grad @ out_grad)
    if diagnostics:
        summary["max_identity_residual"] = track(record, attach=True).max_rel_residual
    return summary, record


# ---------------------------------------------------------------------------
# simulate


def cmd_simulate(args) -> int:
    cmd = _read_command(args, SIMULATE)
    out_dir = cmd.get("out")
    runs = []
    for rep in range(cmd["repetitions"]):
        run_seed = cmd["seed"] + rep
        trace = trace_for_run(cmd["speed_model"], cmd.get("horizon"), run_seed)
        summary, record = _run(cmd, trace, run_seed)
        summary["rep"] = rep
        if out_dir:
            csv_path = os.path.join(out_dir, f"run_{rep:03d}.csv")
            record.write_csv(csv_path)
            summary["csv"] = csv_path
        runs.append(summary)

    payload = {
        "schema": SCHEMA_VERSION,
        "command": "simulate",
        "seed": cmd["seed"],
        "repetitions": cmd["repetitions"],
        "num_workers": int(record.num_workers),
        "horizon": int(record.horizon),
        "schedule": record.schedule.tag,
        "runs": runs,
        "aggregate": {
            "mean_final_fgap": float(np.mean([r["final_fgap"] for r in runs])),
            "mean_output_fgap": float(np.mean([r["output_fgap"] for r in runs])),
            "mean_output_gradnorm2": float(np.mean([r["output_gradnorm2"] for r in runs])),
        },
    }
    _write_json(payload, out_dir, "summary.json")
    return 0


# ---------------------------------------------------------------------------
# compare


def cmd_compare(args) -> int:
    cmd = _read_command(args, COMPARE)
    seconds = cmd["seconds"]
    async_steps, sync_rounds = scheduler.steps_in_time(seconds, cmd["duration"])
    payload = {
        "schema": SCHEMA_VERSION,
        "command": "compare",
        "seed": cmd["seed"],
        "seconds": seconds,
        "duration": cmd["duration"],
        "num_workers": len(seconds),
        "async_steps": async_steps,
        "sync_rounds": sync_rounds,
        "ideal_speedup": scheduler.speedup_factor(seconds),
        "degenerate": async_steps == 0 or sync_rounds == 0,
    }
    if payload["degenerate"]:
        payload["note"] = ("wall-time budget too small for at least one side; "
                           "no runs executed")
        _write_json(payload, cmd.get("out"), "compare.json")
        return 0
    payload["step_speedup"] = async_steps / (len(seconds) * sync_rounds)

    trace = scheduler.simulate_trace(scheduler.FixedSpeeds(seconds), async_steps)
    async_runs, mini_runs = [], []
    for rep in range(cmd["repetitions"]):
        run_seed = cmd["seed"] + rep
        summary, record = _run(cmd, trace, run_seed)
        async_runs.append(summary)
        # by default the minibatch baseline takes the freshest-gradient stepsize
        step = float(cmd.get("minibatch_step", record.schedule.gamma(1, 1)))
        mini = run_minibatch(cmd["problem"], len(seconds), sync_rounds, step, cmd["x0"],
                             seed=run_seed, seconds=seconds)
        mini_runs.append({
            "seed": run_seed,
            "step": float(step),
            "final_fgap": float(mini.fgaps[-1]),
            "final_gradnorm2": float(mini.gradnorms2[-1]),
        })
    payload["async"] = {
        "runs": async_runs,
        "mean_final_fgap": float(np.mean([r["final_fgap"] for r in async_runs])),
        "mean_output_fgap": float(np.mean([r["output_fgap"] for r in async_runs])),
    }
    payload["minibatch"] = {
        "runs": mini_runs,
        "mean_final_fgap": float(np.mean([r["final_fgap"] for r in mini_runs])),
    }
    _write_json(payload, cmd.get("out"), "compare.json")
    return 0


# ---------------------------------------------------------------------------
# sweep


def _sweep_job(cmd: dict, horizon: int, rep: int) -> dict:
    """One sweep run: repetition `rep` at `horizon`, seeded seed + rep."""
    run_seed = cmd["seed"] + rep
    summary, _ = _run(cmd, trace_for_run(cmd["speed_model"], horizon, run_seed), run_seed)
    summary["horizon"] = horizon
    summary["rep"] = rep
    return summary


def cmd_sweep(args) -> int:
    cmd = _read_command(args, SWEEP)
    horizons, repetitions = cmd["horizons"], cmd["repetitions"]
    jobs = [(horizon, rep) for horizon in horizons for rep in range(repetitions)]
    # parallel: true is a pool of up to 8 processes, an integer an explicit
    # pool size; neither exceeds the CPU count or the number of jobs
    parallel = cmd["parallel"]
    workers = 1 if parallel is False else min(8 if parallel is True else parallel,
                                              os.cpu_count() or 1, len(jobs))
    if workers == 1:
        per_run = [_sweep_job(cmd, h, r) for h, r in jobs]
    else:
        with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
            per_run = list(pool.map(_sweep_job, [cmd] * len(jobs), *zip(*jobs)))

    aggregate = {}
    for horizon in horizons:
        rows = [r for r in per_run if r["horizon"] == horizon]
        gaps = np.array([r["output_fgap"] for r in rows])
        aggregate[str(horizon)] = {
            "mean_output_fgap": float(np.mean(gaps)),
            "stderr_output_fgap": float(np.std(gaps) / math.sqrt(len(gaps))),
            "mean_final_fgap": float(np.mean([r["final_fgap"] for r in rows])),
        }
    payload = {
        "schema": SCHEMA_VERSION,
        "command": "sweep",
        "seed": cmd["seed"],
        "horizons": horizons,
        "repetitions": repetitions,
        "runs": per_run,
        "aggregate": aggregate,
    }
    _write_json(payload, cmd.get("out"), "sweep.json")
    return 0


# ---------------------------------------------------------------------------
# check


def cmd_check(args) -> int:
    report = invariants.run_suite(worker_counts=args.workers, horizons=args.horizons,
                                  base_seed=args.base_seed, inject=args.inject_bug)
    if not report.runs:
        raise ConfigError("check: no case in the grid; every horizon is below its "
                          "worker count")
    lines = [
        ("gap identity", report.identity_ok,
         f"max residual {report.max_identity_residual:.3e} (tol {report.identity_tol:g})"),
        ("stepsize sums", report.sum_bounds_ok,
         f"min margin {min(r.sum_margin for r in report.results):.3e}"),
    ]
    for name, ok, detail in lines:
        print(f"{name:<14} {'PASS' if ok else 'FAIL'}  {detail}  [{report.runs} runs]")
    for failure in report.failures()[:20]:
        print(f"  failed: {failure}")
    return 0 if report.all_ok else 1


# ---------------------------------------------------------------------------
# live


def cmd_live(args) -> int:
    seed = resolve_seed(args)
    problem = problems.least_squares(dim=4, num_samples=40, sigma=0.5, seed=seed)
    x0 = problems.offset_start(problem, 1.0, seed)
    constants = problem.constants_for(x0, args.workers, args.horizon)
    schedule = schedules.make_schedule("adaptive-convex", constants)
    record = run_live(problem, schedule, args.workers, args.horizon, x0, seed=seed)
    counts = {m: int(np.sum(record.workers == m)) for m in range(1, args.workers + 1)}
    payload = {
        "schema": SCHEMA_VERSION,
        "command": "live",
        "seed": seed,
        "num_workers": args.workers,
        "horizon": args.horizon,
        "arrivals_per_worker": counts,
        "max_tau": int(np.max(record.taus)),
        "final_fgap": float(record.fgaps[-1]),
    }
    _write_json(payload, None, "live.json")
    return 0


# ---------------------------------------------------------------------------
# parser


def _positive_ints(text: str) -> tuple[int, ...]:
    """argparse type: a comma-separated list of positive integers."""
    try:
        values = tuple(int(v) for v in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated positive integers, got {text!r}") from None
    if any(v < 1 for v in values):
        raise argparse.ArgumentTypeError(f"values must be positive integers, got {text!r}")
    return values


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="asyncsgd",
        description="Simulate and analyze SGD under arbitrary gradient delays.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, config_required=True):
        if config_required:
            p.add_argument("--config", required=True, help="JSON config file")
        p.add_argument("--seed", type=int, default=None,
                       help="override config seed (ASYNC_SGD_SEED wins over both)")
        p.add_argument("--out", default=None, help="output directory override")

    p = sub.add_parser("simulate", help="replay traces through the delayed-update loop")
    add_common(p)
    p.add_argument("--horizon", type=int, default=None, help="override config horizon")
    p.add_argument("--diagnostics", action="store_true",
                   help="track virtual iterates and export the residual column")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("compare", help="async vs. minibatch at equal wall time")
    add_common(p)
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("sweep", help="horizon grid with parallel repetitions")
    add_common(p)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("check", help="run the randomized invariant suite")
    p.add_argument("--workers", type=_positive_ints, default=(1, 2, 5, 16),
                   help="comma-separated worker counts (default 1,2,5,16)")
    p.add_argument("--horizons", type=_positive_ints, default=(50, 500),
                   help="comma-separated horizons (default 50,500)")
    p.add_argument("--base-seed", type=int, default=0)
    p.add_argument("--inject-bug", default=None, choices=INJECTABLE_BUGS,
                   help="corrupt the bookkeeping on purpose; the suite must fail")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("live", help="threaded demo run on a small problem")
    p.add_argument("--workers", type=int, default=4)
    p.add_argument("--horizon", type=int, default=200)
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=cmd_live)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (ProblemError, ScheduleError, SpeedModelError, LedgerError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except DivergedError as exc:
        print(f"run failed: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
