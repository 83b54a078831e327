"""Command line harness.

Subcommands: simulate (trace replay runs with CSV/JSON outputs), compare
(async vs. synchronous minibatch at equal wall time), sweep (horizon grids
with repetitions), check (randomized invariant suite: the
virtual-gap identity and the stepsize-sum bounds), live (threaded demo).
Runs are configured by a JSON file; a few flags override config fields. The
ASYNC_SGD_SEED environment variable overrides every other seed source. Exit
codes: 0 success, 1 invariant or run failure, 2 usage or config errors.

Config checking is declarative. Each config section, and each kind of a
section that has kinds, has one table below that lists every key it accepts
with its type and bounds, and one reader (`_read`) checks a section
against its table. A key its table does not list, including a key that only
another kind reads, is a config error naming its dotted path. Config keys
equal the library's keyword names, so a builder is a table lookup plus a
call. simulate, compare and sweep share one run path: `_read_command` checks
the top level and builds the problem and the start point once, and each job,
one batch of repetitions (see `_batches`) at one or more horizons, runs
through `_job`, which builds the trace the batch shares at each horizon,
replays them once for every repetition and summarizes each run. A sweep
deals each batch's horizons into jobs (see `_deal`). The outputs equal
those of one run per repetition and horizon, byte for byte, and so does the
error of a failing sweep.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import dataclasses
import itertools
import json
import math
import os
import sys

import numpy as np

from . import invariants, problems, scheduler, schedules
from .optimizers import _SEED_BATCH, DivergedError, run_async, run_live, run_minibatch
from .problems import ProblemError, point_metrics
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


def _check(value, kind, bound, path: str):
    """`value` checked against a table type and bound (see the config tables
    below)."""
    if isinstance(kind, list):
        if not isinstance(value, list) or not value:
            raise ConfigError(f"{path} must be a non-empty list, got {value!r}")
        return [_check(v, kind[0], bound, f"{path}[{i}]") for i, v in enumerate(value)]
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
    lower, upper = bound if isinstance(bound, tuple) else (bound, None)
    if isinstance(value, bool):
        return value
    if lower is not None and value < lower:
        raise ConfigError(f"{path} must be >= {lower}, got {value}")
    if upper is not None and value > upper:
        raise ConfigError(f"{path} must be <= {upper}, got {value}")
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
    for key, (kind, bound, *default) in table.items():
        if key in cfg:
            values[key] = _check(cfg[key], kind, bound, f"{where}.{key}")
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
# (type, bound) or (type, bound, default). A bound is a lower bound, or a
# (lower, upper) pair, and None for none. A type is int, float
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
            "x0": (dict, None), "seed": (int, 0, 0), "repetitions": (int, (1, 10_000), 1),
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


def _trace_inputs(cmd: dict, rep: int):
    """The checked (constructor, values) that repetition `rep`'s trace is
    built from. The values hold the run seed only if the speed model reads
    it, and a trace is a function of these inputs and its horizon, so
    repetitions with equal inputs replay equal traces."""
    return _read_kind(cmd["speed_model"], "config.speed_model", SPEED_MODELS,
                      seed=cmd["seed"] + rep)


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


def _payload(command: str, seed: int, **fields) -> dict:
    """A command's JSON output: the schema version, the command and its
    seed, then `fields` in order."""
    return {"schema": SCHEMA_VERSION, "command": command, "seed": seed, **fields}


def _means(rows: list[dict], *keys: str) -> dict:
    """mean_<key>, the mean of `key` over `rows`, for each key in order."""
    return {f"mean_{key}": float(np.mean([r[key] for r in rows])) for key in keys}


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


def _final_metrics(problem, x) -> dict:
    """The objective gap and squared gradient norm at a run's last iterate `x`,
    equal bit for bit to the last entries of its metric columns."""
    return dict(zip(("final_fgap", "final_gradnorm2"), point_metrics(problem, x)))


def _batches(cmd: dict, reps) -> list[list]:
    """Each maximal run of consecutive repetitions whose traces are built
    from equal inputs, and so are equal, in at most _SEED_BATCH repetitions."""
    runs = [list(run) for _, run in itertools.groupby(reps, lambda rep: _trace_inputs(cmd, rep))]
    return [run[i:i + _SEED_BATCH] for run in runs for i in range(0, len(run), _SEED_BATCH)]


def _csv_path(out_dir: str, rep: int) -> str:
    return os.path.join(out_dir, f"run_{rep:03d}.csv")


def _run_inputs(cmd: dict, horizon: int | None, rep: int):
    """The trace that repetition `rep` replays at `horizon`, checked against
    the horizon, and the schedule built for it."""
    make, values = _trace_inputs(cmd, rep)
    trace = make(**values)
    if not isinstance(trace, scheduler.ArrivalTrace):
        if horizon is None:
            raise ConfigError("config.horizon is required unless the trace is explicit")
        trace = scheduler.simulate_trace(trace, horizon)
    elif horizon is not None and horizon != trace.horizon:
        raise ConfigError(f"horizon {horizon} does not match the {cmd['speed_model']['kind']} "
                          f"trace of length {trace.horizon}")
    schedule = build_schedule(cmd["schedule"], cmd["problem"], cmd["x0"], trace.num_workers,
                              trace.horizon)
    return trace, schedule


def _job(cmd: dict, horizons: list, reps: list, out_dir: str | None = None):
    """Build the trace that the repetitions `reps` share at each of
    `horizons`, each a prefix of the longest, replay them all once for every
    repetition, seeded seed + rep, and yield (rep, summary, record) for
    each, horizon by horizon and in order, writing its run CSV into
    `out_dir`, if given. The per-step metric columns are computed only for
    their readers: the CSV, and a sampled output's expected gradient norm
    unless `metrics` is false. A diverging batch at one horizon is replayed
    one repetition at a time, so what is written and raised is what one run
    per repetition writes and raises."""
    traces, scheds = map(list, zip(*(_run_inputs(cmd, horizon, reps[0])
                                     for horizon in horizons)))
    problem, x0 = cmd["problem"], cmd["x0"]
    rule = cmd.get("output_rule") or scheds[0].output_rule
    diagnostics = cmd.get("diagnostics", False)
    keep = diagnostics or rule in schedules.HISTORY_RULES
    metrics = bool(out_dir) or (rule == "sampled" and cmd.get("metrics", True))

    def replay(batch: list):   # (rep, record) by horizon, then repetition
        return [run for records in run_async(problem, traces, scheds, x0,
                                             seeds=[cmd["seed"] + rep for rep in batch],
                                             diagnostics=diagnostics, keep_iterates=keep,
                                             metrics=metrics)
                for run in zip(batch, records)]

    try:
        runs = replay(reps)
    except DivergedError:
        if len(horizons) > 1 or len(reps) == 1:
            raise
        runs = (run for rep in reps for run in replay([rep]))   # each replayed in turn
    for rep, record in runs:
        csv_path = _csv_path(out_dir, rep) if out_dir else None
        yield rep, _summarize(problem, record, cmd["seed"] + rep, rule, diagnostics,
                              csv_path), record


def _summarize(problem, record, run_seed: int, rule: str, diagnostics: bool,
               csv_path: str | None) -> dict:
    """One run's summary; writes its run CSV to `csv_path`, if given."""
    summary = {
        "seed": run_seed,
        **_final_metrics(problem, record.x_final),
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
    summary["output_fgap"], summary["output_gradnorm2"] = point_metrics(problem, point)
    if diagnostics:
        virtual = track(record)
        summary["max_identity_residual"] = virtual.max_rel_residual
    if csv_path is not None:
        record.write_csv(csv_path, virtual.rel_residuals if diagnostics else None)
    return summary


# ---------------------------------------------------------------------------
# simulate


def cmd_simulate(args) -> int:
    cmd = _read_command(args, SIMULATE)
    out_dir = cmd.get("out")
    runs = []
    for reps in _batches(cmd, range(cmd["repetitions"])):
        for rep, summary, record in _job(cmd, [cmd.get("horizon")], reps, out_dir):
            summary["rep"] = rep
            if out_dir:
                summary["csv"] = _csv_path(out_dir, rep)
            runs.append(summary)

    payload = _payload(
        "simulate", cmd["seed"],
        repetitions=cmd["repetitions"],
        num_workers=int(record.num_workers),
        horizon=int(record.horizon),
        schedule=record.schedule.tag,
        runs=runs,
        aggregate=_means(runs, "final_fgap", "output_fgap", "output_gradnorm2"),
    )
    _write_json(payload, out_dir, "summary.json")
    return 0


# ---------------------------------------------------------------------------
# compare


def cmd_compare(args) -> int:
    cmd = _read_command(args, COMPARE)
    seconds = cmd["seconds"]
    async_steps, sync_rounds = scheduler.steps_in_time(seconds, cmd["duration"])
    payload = _payload(
        "compare", cmd["seed"],
        seconds=seconds,
        duration=cmd["duration"],
        num_workers=len(seconds),
        async_steps=async_steps,
        sync_rounds=sync_rounds,
        ideal_speedup=scheduler.speedup_factor(seconds),
        degenerate=async_steps == 0 or sync_rounds == 0,
    )
    if payload["degenerate"]:
        payload["note"] = ("wall-time budget too small for at least one side; "
                           "no runs executed")
        _write_json(payload, cmd.get("out"), "compare.json")
        return 0
    payload["step_speedup"] = async_steps / (len(seconds) * sync_rounds)

    cmd["speed_model"] = {"kind": "fixed", "seconds": seconds}   # the trace every run replays
    async_runs, mini_runs = [], []
    for reps in _batches(cmd, range(cmd["repetitions"])):
        for rep, summary, record in _job(cmd, [async_steps], reps):
            async_runs.append(summary)
            # by default the minibatch baseline takes the freshest-gradient stepsize
            step = float(cmd.get("minibatch_step", record.schedule.gamma(1)))
            run_seed = cmd["seed"] + rep
            x_final = run_minibatch(cmd["problem"], len(seconds), sync_rounds, step,
                                    cmd["x0"], seed=run_seed)
            mini_runs.append({"seed": run_seed, "step": float(step),
                              **_final_metrics(cmd["problem"], x_final)})
    payload["async"] = {
        "runs": async_runs,
        **_means(async_runs, "final_fgap", "output_fgap"),
    }
    payload["minibatch"] = {
        "runs": mini_runs,
        **_means(mini_runs, "final_fgap"),
    }
    _write_json(payload, cmd.get("out"), "compare.json")
    return 0


# ---------------------------------------------------------------------------
# sweep


# what main reports as a failed run or as bad input, with its exit code
_FAILURES = (ConfigError, ProblemError, ScheduleError, SpeedModelError, LedgerError,
             MemoryError, DivergedError)


def _sweep_batch(cmd: dict, horizons: list, reps: list) -> list:
    """The sweep runs of the job (horizons, reps), one entry per horizon: its
    summaries, each ending in its horizon and repetition, or else the error
    that the horizon's runs raise when replayed without the others. A pool
    process returns only these."""
    try:
        runs = [{**summary, "horizon": record.horizon, "rep": rep}
                for rep, summary, record in _job(cmd, horizons, reps)]
    except _FAILURES as exc:   # held as a value, for cmd_sweep to raise in order
        if len(horizons) == 1:
            return [exc]
        return [outcome for horizon in horizons for outcome in _sweep_batch(cmd, [horizon], reps)]
    return [[run for run in runs if run["horizon"] == horizon] for horizon in horizons]


def _deal(horizons: list, parts: int) -> list[list]:
    """The horizons dealt into min(len(horizons), parts) jobs: longest
    first, each into the first job whose horizons add up to the least."""
    jobs = [[] for _ in range(min(len(horizons), parts))]
    for horizon in sorted(horizons, reverse=True):
        min(jobs, key=sum).append(horizon)
    return jobs


def cmd_sweep(args) -> int:
    cmd = _read_command(args, SWEEP)
    horizons, repetitions = cmd["horizons"], cmd["repetitions"]
    if len(set(horizons)) != len(horizons):
        raise ConfigError(f"config.horizons must not repeat a horizon, got {horizons}")
    # parallel: true is a pool of up to 8 processes, an integer an explicit
    # pool size; neither exceeds the CPUs the process may run on (its
    # affinity set where the platform has one, which taskset and cpusets
    # narrow) or the number of (horizon, batch) pairs. A job is one batch of
    # repetitions that share a trace, at the horizons dealt to it: one job
    # per batch in a single process, and enough jobs per batch to keep a
    # pool busy
    groups = _batches(cmd, range(repetitions))
    parallel, workers = cmd["parallel"], 1
    if parallel is not False:
        cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
                else os.cpu_count() or 1)
        workers = min(8 if parallel is True else parallel, cpus, len(horizons) * len(groups))
    parts = -(-workers // len(groups))
    jobs = [(part, reps) for reps in groups for part in _deal(horizons, parts)]
    if workers == 1:
        results = [_sweep_batch(cmd, part, reps) for part, reps in jobs]
    else:
        with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_sweep_batch, [cmd] * len(jobs), *zip(*jobs)))
    outcomes = {(horizon, reps[0]): outcome for (part, reps), result in zip(jobs, results)
                for horizon, outcome in zip(part, result)}
    # horizon by horizon, as one job per (horizon, batch) would run: the
    # first failure in that order is the one reported
    per_run = []
    for horizon in horizons:
        for reps in groups:
            outcome = outcomes[horizon, reps[0]]
            if isinstance(outcome, Exception):
                raise outcome
            per_run += outcome

    aggregate = {}
    for horizon in horizons:
        rows = [r for r in per_run if r["horizon"] == horizon]
        gaps = np.array([r["output_fgap"] for r in rows])
        aggregate[str(horizon)] = {
            "mean_output_fgap": float(np.mean(gaps)),
            "stderr_output_fgap": float(np.std(gaps) / math.sqrt(len(gaps))),
            "mean_final_fgap": float(np.mean([r["final_fgap"] for r in rows])),
        }
    payload = _payload(
        "sweep", cmd["seed"],
        horizons=horizons,
        repetitions=repetitions,
        runs=per_run,
        aggregate=aggregate,
    )
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
         f"max residual {report.max_identity_residual:.3e} (tol {invariants.IDENTITY_TOL:g})"),
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
    payload = _payload(
        "live", seed,
        num_workers=args.workers,
        horizon=args.horizon,
        arrivals_per_worker=counts,
        max_tau=int(np.max(record.taus)),
        final_fgap=_final_metrics(problem, record.x_final)["final_fgap"],
    )
    _write_json(payload, None, "live.json")
    return 0


# ---------------------------------------------------------------------------
# parser


def _count(text: str, lower: int = 1, upper: float = math.inf) -> int:
    """argparse type: an integer from `lower` to `upper`, written in digits only."""
    if not (text.isdecimal() and lower <= int(text) <= upper):
        bound = "" if upper == math.inf else f" no larger than {upper}"
        raise argparse.ArgumentTypeError(
            f"expected a {'positive' if lower else 'non-negative'} integer{bound}, got {text!r}")
    return int(text)


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

    def add_common(p):
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
    p.add_argument("--base-seed", type=lambda text: _count(text, 0), default=0)
    p.add_argument("--inject-bug", default=None, choices=INJECTABLE_BUGS,
                   help="corrupt the bookkeeping on purpose; the suite must fail")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("live", help="threaded demo run on a small problem")
    # one thread per worker; 64 is the most workers any workload or test runs
    p.add_argument("--workers", type=lambda text: _count(text, upper=64), default=4)
    # run_live keeps every arrival in lists: 10**5 arrivals take a few seconds,
    # and an unbounded horizon grows them until memory runs out
    p.add_argument("--horizon", type=lambda text: _count(text, upper=10**5), default=200)
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
