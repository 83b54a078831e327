"""Command line harness.

Subcommands: simulate (trace replay runs with CSV/JSON outputs), compare
(async vs. synchronous minibatch at equal wall time), sweep (horizon grids,
repetitions in parallel), check (randomized invariant suite), live (threaded
demo). Runs are configured by a JSON file; a few flags override config
fields. The ASYNC_SGD_SEED environment variable overrides every other seed
source. Exit codes: 0 success, 1 invariant or run failure, 2 usage or
config errors.
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
from .ledger import LedgerError
from .optimizers import DivergedError, run_async, run_live, run_minibatch
from .problems import ProblemError
from .scheduler import SpeedModelError
from .schedules import (DEFAULT_OUTPUT_RULE, ScheduleError, expected_sampled_metric,
                        select_output)
from .virtual import track

SCHEMA_VERSION = 1


class ConfigError(ValueError):
    pass


# ---------------------------------------------------------------------------
# config plumbing


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


def _check_keys(obj: dict, where: str, required=(), optional=()) -> None:
    if not isinstance(obj, dict):
        raise ConfigError(f"{where} must be a JSON object")
    unknown = sorted(set(obj) - set(required) - set(optional))
    if unknown:
        raise ConfigError(f"{where}: unknown keys {unknown}")
    missing = sorted(set(required) - set(obj))
    if missing:
        raise ConfigError(f"{where}: missing required keys {missing}")


def _as_int(obj, key, where, default=None, minimum=None):
    if key not in obj:
        if default is None:
            raise ConfigError(f"{where}.{key} is required")
        return default
    v = obj[key]
    if isinstance(v, bool) or not isinstance(v, int):
        raise ConfigError(f"{where}.{key} must be an integer, got {v!r}")
    if minimum is not None and v < minimum:
        raise ConfigError(f"{where}.{key} must be >= {minimum}, got {v}")
    return v


def _as_float(obj, key, where, default=None, minimum=None):
    if key not in obj:
        if default is None:
            raise ConfigError(f"{where}.{key} is required")
        return default
    v = obj[key]
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise ConfigError(f"{where}.{key} must be a number, got {v!r}")
    v = float(v)
    if not math.isfinite(v):
        raise ConfigError(f"{where}.{key} must be finite")
    if minimum is not None and v < minimum:
        raise ConfigError(f"{where}.{key} must be >= {minimum}, got {v}")
    return v


def _as_number_list(obj, key, where):
    v = obj.get(key)
    if (not isinstance(v, list) or not v
            or any(isinstance(s, bool) or not isinstance(s, (int, float)) for s in v)):
        raise ConfigError(f"{where}.{key} must be a non-empty list of numbers")
    return [float(s) for s in v]


def resolve_seed(args, config: dict) -> int:
    env = os.environ.get("ASYNC_SGD_SEED")
    if env is not None:
        try:
            seed = int(env)
        except ValueError:
            raise ConfigError(f"ASYNC_SGD_SEED must be an integer, got {env!r}") from None
    elif getattr(args, "seed", None) is not None:
        seed = args.seed
    else:
        seed = _as_int(config, "seed", "config", default=0)
    if seed < 0:
        raise ConfigError(f"seed must be >= 0, got {seed}")
    return seed


# ---------------------------------------------------------------------------
# builders


def build_problem(cfg: dict, fallback_seed: int):
    _check_keys(cfg, "config.problem", required=("kind",),
                optional=("dim", "num_samples", "noise", "sigma", "seed", "zeta",
                          "num_workers", "target_smoothness", "csv"))
    kind = cfg["kind"]
    seed = _as_int(cfg, "seed", "config.problem", default=fallback_seed, minimum=0)
    if kind == "least-squares":
        if "csv" in cfg:
            sigma = _as_float(cfg, "sigma", "config.problem", default=1.0, minimum=0.0)
            try:
                return problems.least_squares_from_csv(
                    cfg["csv"], noise=cfg.get("noise", "additive"), sigma=sigma)
            except (OSError, ValueError) as exc:
                raise ConfigError(f"config.problem.csv: cannot load {cfg['csv']}: {exc}") from None
        return problems.least_squares(
            dim=_as_int(cfg, "dim", "config.problem", minimum=1),
            num_samples=cfg.get("num_samples"),
            noise=cfg.get("noise", "additive"),
            sigma=_as_float(cfg, "sigma", "config.problem", default=1.0, minimum=0.0),
            seed=seed,
            target_smoothness=cfg.get("target_smoothness"))
    if kind == "bounded-nonconvex":
        return problems.bounded_nonconvex(
            dim=_as_int(cfg, "dim", "config.problem", minimum=1),
            num_samples=cfg.get("num_samples"),
            noise=cfg.get("noise", "rows"),
            sigma=cfg.get("sigma"),
            seed=seed)
    if kind == "heterogeneous-quadratics":
        return problems.heterogeneous_quadratics(
            dim=_as_int(cfg, "dim", "config.problem", minimum=1),
            num_workers=_as_int(cfg, "num_workers", "config.problem", minimum=1),
            zeta=_as_float(cfg, "zeta", "config.problem", minimum=0.0),
            num_samples=cfg.get("num_samples"),
            sigma=_as_float(cfg, "sigma", "config.problem", default=0.0, minimum=0.0),
            seed=seed,
            target_smoothness=cfg.get("target_smoothness"))
    raise ConfigError(
        f"config.problem.kind: unknown kind {kind!r}; known: "
        "['least-squares', 'bounded-nonconvex', 'heterogeneous-quadratics']")


def trace_for_run(cfg: dict, horizon: int | None, run_seed: int) -> scheduler.ArrivalTrace:
    _check_keys(cfg, "config.speed_model", required=("kind",),
                optional=("seconds", "distribution", "means", "sigma", "seed", "base",
                          "straggler", "slowdown", "num_workers", "workers", "path"))
    kind = cfg["kind"]
    if kind == "explicit":
        workers = cfg.get("workers")
        if not isinstance(workers, list) or not workers:
            raise ConfigError("config.speed_model.workers must be a non-empty list")
        trace = scheduler.trace_from_workers(workers, cfg.get("num_workers"))
        if horizon is not None and horizon != trace.horizon:
            raise ConfigError(
                f"horizon {horizon} does not match explicit worker list of "
                f"length {trace.horizon}")
        return trace
    if kind == "trace-csv":
        if "path" not in cfg:
            raise ConfigError("config.speed_model.path is required for trace-csv")
        try:
            trace = scheduler.ArrivalTrace.read_csv(cfg["path"], cfg.get("num_workers"))
        except OSError as exc:
            raise ConfigError(f"config.speed_model.path: cannot read {cfg['path']}: {exc}") from None
        if horizon is not None and horizon != trace.horizon:
            raise ConfigError(
                f"horizon {horizon} does not match trace of length {trace.horizon}")
        return trace
    if horizon is None:
        raise ConfigError("config.horizon is required unless the trace is explicit")
    seed = _as_int(cfg, "seed", "config.speed_model", default=run_seed, minimum=0)
    if kind == "fixed":
        model = scheduler.FixedSpeeds(tuple(_as_number_list(cfg, "seconds", "config.speed_model")))
    elif kind == "random":
        model = scheduler.RandomSpeeds(
            distribution=cfg.get("distribution", "exponential"),
            means=tuple(_as_number_list(cfg, "means", "config.speed_model")),
            sigma=_as_float(cfg, "sigma", "config.speed_model", default=1.0),
            seed=seed)
    elif kind == "straggler":
        model = scheduler.StragglerSpeeds(
            base=_as_float(cfg, "base", "config.speed_model", default=1.0),
            straggler=_as_int(cfg, "straggler", "config.speed_model"),
            slowdown=_as_float(cfg, "slowdown", "config.speed_model"),
            num_workers=_as_int(cfg, "num_workers", "config.speed_model", minimum=1))
    else:
        raise ConfigError(
            f"config.speed_model.kind: unknown kind {kind!r}; known: "
            "['fixed', 'random', 'straggler', 'explicit', 'trace-csv']")
    return scheduler.simulate_trace(model, horizon)


def resolve_x0(cfg: dict | None, problem, seed: int) -> np.ndarray:
    if cfg is None:
        cfg = {"kind": "zeros"}
    _check_keys(cfg, "config.x0", required=("kind",),
                optional=("distance", "seed", "values"))
    kind = cfg["kind"]
    if kind == "zeros":
        return np.zeros(problem.dim)
    if kind == "offset":
        if problem.xstar is None:
            raise ConfigError("config.x0: offset start needs a problem with a known minimizer")
        distance = _as_float(cfg, "distance", "config.x0", default=1.0, minimum=0.0)
        rng = np.random.default_rng([_as_int(cfg, "seed", "config.x0", default=seed, minimum=0), 11])
        step = rng.standard_normal(problem.dim)
        return problem.xstar + distance * step / np.linalg.norm(step)
    if kind == "explicit":
        values = cfg.get("values")
        if not isinstance(values, list) or len(values) != problem.dim:
            raise ConfigError(f"config.x0.values must be a list of {problem.dim} numbers")
        return np.array([float(v) for v in values])
    raise ConfigError(f"config.x0.kind: unknown kind {kind!r}; known: "
                      "['zeros', 'offset', 'explicit']")


def build_schedule(cfg: dict, problem, x0, num_workers: int, horizon: int):
    _check_keys(cfg, "config.schedule", required=("kind",), optional=("step", "overrides"))
    constants = problem.constants_for(x0, num_workers, horizon)
    overrides = cfg.get("overrides", {})
    if overrides:
        valid = {f.name for f in dataclasses.fields(schedules.ProblemConstants)}
        _check_keys(overrides, "config.schedule.overrides", optional=tuple(valid))
        constants = dataclasses.replace(constants, **{
            k: (int(v) if k in ("num_workers", "horizon") else float(v))
            for k, v in overrides.items()})
    step = cfg.get("step")
    try:
        return schedules.make_schedule(cfg["kind"], constants, step)
    except ScheduleError as exc:
        raise ConfigError(f"config.schedule: {exc}") from exc


def _write_json(payload: dict, out_dir: str | None, name: str, quiet: bool = False) -> None:
    text = json.dumps(payload, indent=2)
    if out_dir:
        os.makedirs(out_dir, exist_ok=True)
        with open(os.path.join(out_dir, name), "w") as fh:
            fh.write(text + "\n")
    if not quiet:
        print(text)


# ---------------------------------------------------------------------------
# simulate


def _run_once(problem, trace, schedule, x0, run_seed: int, *, diagnostics: bool,
              keep_iterates: bool, rule: str, metrics: bool = True) -> tuple[dict, object]:
    record = run_async(problem, trace, schedule, x0, seed=run_seed,
                       diagnostics=diagnostics, keep_iterates=keep_iterates,
                       metrics=metrics)
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


def cmd_simulate(args) -> int:
    config = _load_config(args.config)
    _check_keys(config, "config",
                required=("problem", "speed_model", "schedule"),
                optional=("seed", "horizon", "repetitions", "x0", "diagnostics",
                          "keep_iterates", "output_rule", "out"))
    seed = resolve_seed(args, config)
    horizon = args.horizon if args.horizon is not None else config.get("horizon")
    if horizon is not None and (isinstance(horizon, bool) or not isinstance(horizon, int)
                                or horizon < 1):
        raise ConfigError(f"horizon must be a positive integer, got {horizon!r}")
    repetitions = _as_int(config, "repetitions", "config", default=1, minimum=1)
    diagnostics = bool(config.get("diagnostics", False)) or args.diagnostics
    out_dir = args.out if args.out is not None else config.get("out")

    problem = build_problem(config["problem"], seed)
    x0 = resolve_x0(config.get("x0"), problem, seed)
    rule = config.get("output_rule")
    if rule is not None and rule not in schedules.OUTPUT_RULES:
        raise ConfigError(f"config.output_rule: unknown rule {rule!r}; "
                          f"known: {list(schedules.OUTPUT_RULES)}")

    runs = []
    for rep in range(repetitions):
        run_seed = seed + rep
        trace = trace_for_run(config["speed_model"], horizon, run_seed)
        schedule = build_schedule(config["schedule"], problem, x0,
                                  trace.num_workers, trace.horizon)
        the_rule = rule or DEFAULT_OUTPUT_RULE[schedule.tag]
        keep = (bool(config.get("keep_iterates", False)) or diagnostics
                or the_rule in ("exp-weighted", "sampled"))
        summary, record = _run_once(problem, trace, schedule, x0, run_seed,
                                    diagnostics=diagnostics, keep_iterates=keep,
                                    rule=the_rule)
        summary["rep"] = rep
        if out_dir:
            os.makedirs(out_dir, exist_ok=True)
            csv_path = os.path.join(out_dir, f"run_{rep:03d}.csv")
            record.write_csv(csv_path)
            summary["csv"] = csv_path
        runs.append(summary)

    payload = {
        "schema": SCHEMA_VERSION,
        "command": "simulate",
        "seed": seed,
        "repetitions": repetitions,
        "num_workers": int(runs and record.num_workers or 0),
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
    config = _load_config(args.config)
    _check_keys(config, "config",
                required=("problem", "seconds", "duration", "schedule"),
                optional=("seed", "x0", "minibatch_step", "repetitions", "out"))
    seed = resolve_seed(args, config)
    seconds = _as_number_list(config, "seconds", "config")
    duration = _as_float(config, "duration", "config", minimum=0.0)
    repetitions = _as_int(config, "repetitions", "config", default=1, minimum=1)
    out_dir = args.out if args.out is not None else config.get("out")

    async_steps, sync_rounds = scheduler.steps_in_time(seconds, duration)
    payload = {
        "schema": SCHEMA_VERSION,
        "command": "compare",
        "seed": seed,
        "seconds": seconds,
        "duration": duration,
        "num_workers": len(seconds),
        "async_steps": async_steps,
        "sync_rounds": sync_rounds,
        "ideal_speedup": scheduler.speedup_factor(seconds),
        "degenerate": async_steps == 0 or sync_rounds == 0,
    }
    if payload["degenerate"]:
        payload["note"] = ("wall-time budget too small for at least one side; "
                           "no runs executed")
        _write_json(payload, out_dir, "compare.json")
        return 0
    payload["step_speedup"] = async_steps / (len(seconds) * sync_rounds)

    problem = build_problem(config["problem"], seed)
    x0 = resolve_x0(config.get("x0"), problem, seed)
    fstar = problem.fstar if problem.fstar is not None else 0.0
    async_runs, mini_runs = [], []
    for rep in range(repetitions):
        run_seed = seed + rep
        trace = scheduler.simulate_trace(scheduler.FixedSpeeds(tuple(seconds)), async_steps)
        schedule = build_schedule(config["schedule"], problem, x0,
                                  len(seconds), async_steps)
        rule = DEFAULT_OUTPUT_RULE[schedule.tag]
        summary, _ = _run_once(problem, trace, schedule, x0, run_seed,
                               diagnostics=False,
                               keep_iterates=rule in ("exp-weighted", "sampled"),
                               rule=rule)
        async_runs.append(summary)
        step = config.get("minibatch_step")
        if step is None:
            step = schedule.gamma(1, 1)   # freshest-gradient stepsize
        mini = run_minibatch(problem, len(seconds), sync_rounds, float(step), x0,
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
    _write_json(payload, out_dir, "compare.json")
    return 0


# ---------------------------------------------------------------------------
# sweep


def _sweep_job(config: dict, horizon: int, rep: int) -> dict:
    seed = _as_int(config, "seed", "config", default=0) + rep
    problem = build_problem(config["problem"], _as_int(config, "seed", "config", default=0))
    x0 = resolve_x0(config.get("x0"), problem, _as_int(config, "seed", "config", default=0))
    trace = trace_for_run(config["speed_model"], horizon, seed)
    schedule = build_schedule(config["schedule"], problem, x0,
                              trace.num_workers, horizon)
    rule = config.get("output_rule") or DEFAULT_OUTPUT_RULE[schedule.tag]
    summary, _ = _run_once(problem, trace, schedule, x0, seed,
                           diagnostics=False,
                           keep_iterates=rule in ("exp-weighted", "sampled"),
                           rule=rule, metrics=bool(config.get("metrics", True)))
    summary["horizon"] = horizon
    summary["rep"] = rep
    return summary


def cmd_sweep(args) -> int:
    config = _load_config(args.config)
    _check_keys(config, "config",
                required=("problem", "speed_model", "schedule", "horizons"),
                optional=("seed", "repetitions", "x0", "output_rule", "out",
                          "parallel", "metrics"))
    seed = resolve_seed(args, config)
    config = dict(config, seed=seed)
    horizons = config["horizons"]
    if (not isinstance(horizons, list) or not horizons
            or any(isinstance(k, bool) or not isinstance(k, int) or k < 1 for k in horizons)):
        raise ConfigError("config.horizons must be a non-empty list of positive integers")
    repetitions = _as_int(config, "repetitions", "config", default=1, minimum=1)
    out_dir = args.out if args.out is not None else config.get("out")
    parallel = config.get("parallel", True)

    jobs = [(horizon, rep) for horizon in horizons for rep in range(repetitions)]
    if parallel in (False, 1) or len(jobs) == 1:
        per_run = [_sweep_job(config, h, r) for h, r in jobs]
    else:
        workers = parallel if isinstance(parallel, int) else min(8, os.cpu_count() or 1)
        with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
            per_run = list(pool.map(_sweep_job, *zip(*[(config, h, r) for h, r in jobs])))

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
        "seed": seed,
        "horizons": horizons,
        "repetitions": repetitions,
        "runs": per_run,
        "aggregate": aggregate,
    }
    _write_json(payload, out_dir, "sweep.json")
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
        ("delay budget", report.budget_ok,
         f"min slack {min(r.budget_slack for r in report.results)}"),
        ("long delays", report.long_delay_ok, "count cap on every prefix"),
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
    seed = resolve_seed(args, {})
    problem = problems.least_squares(dim=4, num_samples=40, sigma=0.5, seed=seed)
    rng = np.random.default_rng([seed, 11])
    step = rng.standard_normal(problem.dim)
    x0 = problem.xstar + step / np.linalg.norm(step)
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
    p.add_argument("--inject-bug", default=None, choices=["prev-off-by-one"],
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
    except (ProblemError, ScheduleError, SpeedModelError, LedgerError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except DivergedError as exc:
        print(f"run failed: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
