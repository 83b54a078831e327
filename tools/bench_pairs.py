"""Run the benchmark on two source trees in alternating pairs and write the
comparison as a BENCH_<n>.json file.

    python3 tools/bench_pairs.py --parent ../parent-checkout --change . \
        --out BENCH_11.json

The parent tree must be a git checkout (a clone, not an archive export),
as the output records its commit, and the two trees must hold the same
BENCHMARK.json and perfbench/, or the pairs would measure two benchmarks;
the script stops before its first run otherwise. Both trees are run with
their own `perfbench/run.py` on every workload in BENCHMARK.json, one
workload and one seed at a time, end to end (`--trace 0`), for seeds
1..PAIRS: seed s runs the parent first when s is odd and the change first
when it is even. Medians and quartiles (linear interpolation) are over the
seeds, and `wins` counts the seeds on which the change was better. Next to the ratio of the two medians, `paired_ratio`
summarizes change/parent per seed: each pair ran back to back, so the
ratio cancels the drift that moves one tree's unpaired medians between
minutes. Every workload also gets one traced run (`--trace 1`,
seed 1) per tree, for the per-layer metrics. `src_lines` records each
tree's `wc -l src/asyncsgd/*.py`, and its code lines by `tokenize`, per file
and in total.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import subprocess
import sys
import tokenize
from pathlib import Path

import numpy as np

PAIRS = 10        # alternating parent/change runs per workload
SECONDS = 20.0    # run length of each run, as in BENCH_7.json

METHOD = ("Each workload ran once per seed on the parent and once on the change, back to "
          "back, alternating which tree went first (parent first on odd seeds). Times are "
          "the benchmark's reference-host seconds. Medians and quartiles (linear "
          "interpolation) are over the seeds; 'wins' counts the seeds on which the change "
          "was better, and 'paired_ratio' summarizes change/parent seed by seed.")


def run(tree: Path, workload: str, seed: int, trace: int):
    """One benchmark run: its environment line and its final JSON object."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(SECONDS), "--trace", str(trace)],
        cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        # perfbench exits 1 on a failed output check or a unit whose
        # fingerprint differs from the first; such a run is no measurement
        raise SystemExit(f"benchmark run failed (exit {proc.returncode}) in {tree}: "
                         f"workload {workload}, seed {seed}, --trace {trace}\n"
                         f"{proc.stderr.strip()}")
    env = next((json.loads(line.split(":", 1)[1]) for line in lines
                if line.startswith("environment:")), None)
    return env, json.loads(lines[-1])


def benchmark_files(tree: Path) -> dict:
    """BENCHMARK.json and every file under perfbench/ (bytecode caches aside),
    by path relative to the tree: their bytes, or None for a missing one."""
    paths = [tree / "BENCHMARK.json",
             *(p for p in (tree / "perfbench").rglob("*")
               if p.is_file() and "__pycache__" not in p.parts)]
    return {p.relative_to(tree).as_posix(): p.read_bytes() if p.exists() else None
            for p in paths}


def first_difference(parent: Path, change: Path) -> str | None:
    """The first benchmark file, in path order, that differs between the
    trees or exists in only one of them; None if they hold the same."""
    ours, theirs = benchmark_files(parent), benchmark_files(change)
    return next((name for name in sorted(ours.keys() | theirs.keys())
                 if ours.get(name) != theirs.get(name)), None)


# tokens that hold no code: layout, comments and the end of the file
_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
           tokenize.ENDMARKER}


def code_lines(text: str) -> int:
    """The lines of Python source that hold a token other than a comment or
    a docstring, every line of a multi-line token counted. A docstring is
    here any string that makes up a whole statement."""
    tokens = [t for t in tokenize.generate_tokens(io.StringIO(text).readline)
              if t.type not in _LAYOUT or t.type == tokenize.NEWLINE]
    lines = set()
    for before, token, after in zip([None, *tokens], tokens, [*tokens[1:], None]):
        alone = before is None or before.type == tokenize.NEWLINE
        if token.type != tokenize.NEWLINE and not (
                token.type == tokenize.STRING and alone and after.type == tokenize.NEWLINE):
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines)


def src_lines(tree: Path) -> dict:
    """What `wc -l src/asyncsgd/*.py` counts in a tree, newlines per file and
    their total, and under "code" the same for `code_lines`."""
    paths = sorted((tree / "src" / "asyncsgd").glob("*.py"))
    files = {p.name: p.read_bytes().count(b"\n") for p in paths}
    code = {p.name: code_lines(p.read_text(encoding="utf-8")) for p in paths}
    return {"files": files, "total": sum(files.values()),
            "code": {"files": code, "total": sum(code.values())}}


def summary(values: list[float]) -> dict:
    q1, median, q3 = np.percentile(values, [25, 50, 75])
    return {"median": float(median), "q1": float(q1), "q3": float(q3), "values": values}


def compare(parent: list[dict], change: list[dict], spec: dict) -> dict:
    """Per metric: both sides' summaries, the change's wins, the ratio of
    medians and the summary of the per-seed ratios change/parent."""
    out = {}
    for name, bounds in spec.items():
        p = [r["metrics"][name]["value"] for r in parent]
        c = [r["metrics"][name]["value"] for r in change]
        higher = bounds["better"] == "higher"
        wins = sum((b > a) if higher else (b < a) for a, b in zip(p, c))
        out[name] = {"unit": bounds["unit"], "better": bounds["better"],
                     "bound": bounds["bound"], "wins": wins,
                     "ratio_of_medians": float(np.median(c) / np.median(p)),
                     "paired_ratio": summary([b / a if a else math.nan
                                              for a, b in zip(p, c)]),
                     "parent": summary(p), "change": summary(c)}
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path, required=True, help="parent source tree")
    parser.add_argument("--change", type=Path, required=True, help="changed source tree")
    parser.add_argument("--out", type=Path, required=True, help="BENCH json to write")
    args = parser.parse_args(argv)
    bench = json.loads((args.change / "BENCHMARK.json").read_text())
    spec = {m["name"]: m for m in bench["end_to_end"]}
    names = [w["name"] for w in bench["workloads"]]
    parent_rev = subprocess.run(["git", "rev-parse", "--short", "HEAD"], cwd=args.parent,
                                capture_output=True, text=True).stdout.strip()
    if not parent_rev:
        # the output names the parent by its commit; a copy without one
        # (an archive export, say) would leave that field empty
        raise SystemExit(f"{args.parent} is not a git checkout: clone the parent commit, "
                         "so that its revision can be recorded")
    differs = first_difference(args.parent, args.change)
    if differs is not None:
        raise SystemExit(f"{differs} differs between {args.parent} and {args.change}: "
                         "the pairs would measure two benchmarks")
    seeds = list(range(1, PAIRS + 1))
    envs, workloads, traced = [], {}, {}
    for name in names:
        results = {"parent": [], "change": []}
        for seed in seeds:
            order = ("parent", "change") if seed % 2 else ("change", "parent")
            for side in order:
                env, result = run(getattr(args, side), name, seed, 0)
                if env not in envs:
                    envs.append(env)
                results[side].append(result)
                print(f"{name} seed {seed} {side}: "
                      f"{result['metrics']['updates_per_s']['value']:.4g} updates/s",
                      flush=True)
        workloads[name] = {
            "seeds": seeds,
            "failed": {side: sum(r["failed"] for r in rs) for side, rs in results.items()},
            "attempted": {side: sum(r["attempted"] for r in rs)
                          for side, rs in results.items()},
            "metrics": compare(results["parent"], results["change"], spec),
        }
    for name in names:
        traced[name] = {"seed": 1, **{
            side: {key: value["value"] for key, value in
                   run(getattr(args, side), name, 1, 1)[1]["metrics"].items()}
            for side in ("parent", "change")}}
    payload = {"command": "python3 perfbench/run.py --workload <name> --seed <seed> "
                          f"--seconds {SECONDS:g} --trace <0|1>",
               "environment": envs, "parent": parent_rev, "method": METHOD,
               "src_lines": {side: src_lines(getattr(args, side))
                             for side in ("parent", "change")},
               "workloads": workloads, "traced": traced}
    args.out.write_text(json.dumps(payload, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
