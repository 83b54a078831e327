"""Run the benchmark on two source trees in alternating pairs and write the
comparison as a BENCH_<n>.json file.

    python3 tools/bench_pairs.py --parent ../parent-checkout --change . \
        --out BENCH_11.json

Both trees are run with their own `perfbench/run.py` on every workload in
BENCHMARK.json, one workload and one seed at a time, end to end
(`--trace 0`), for seeds 1..PAIRS: seed s runs the parent first when s is
odd and the change first when it is even. Medians and quartiles (linear
interpolation) are over the seeds, and `wins` counts the seeds on which the
change was better. Every workload also gets one traced run (`--trace 1`,
seed 1) per tree, for the per-layer metrics.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

import numpy as np

PAIRS = 10        # alternating parent/change runs per workload
SECONDS = 20.0    # run length of each run, as in BENCH_7.json

METHOD = ("Each workload ran once per seed on the parent and once on the change, back to "
          "back, alternating which tree went first (parent first on odd seeds). Times are "
          "the benchmark's reference-host seconds. Medians and quartiles (linear "
          "interpolation) are over the seeds; 'wins' counts the seeds on which the change "
          "was better.")


def run(tree: Path, workload: str, seed: int, trace: int):
    """One benchmark run: its environment line and its final JSON object."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(SECONDS), "--trace", str(trace)],
        cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode == 2 or not lines:
        raise SystemExit(f"benchmark failed in {tree}: {proc.stderr.strip()}")
    env = next((json.loads(line.split(":", 1)[1]) for line in lines
                if line.startswith("environment:")), None)
    return env, json.loads(lines[-1])


def summary(values: list[float]) -> dict:
    q1, median, q3 = np.percentile(values, [25, 50, 75])
    return {"median": float(median), "q1": float(q1), "q3": float(q3), "values": values}


def compare(parent: list[dict], change: list[dict], spec: dict) -> dict:
    """Per metric: both sides' summaries, the change's wins and the ratio of medians."""
    out = {}
    for name, bounds in spec.items():
        p = [r["metrics"][name]["value"] for r in parent]
        c = [r["metrics"][name]["value"] for r in change]
        higher = bounds["better"] == "higher"
        wins = sum((b > a) if higher else (b < a) for a, b in zip(p, c))
        out[name] = {"unit": bounds["unit"], "better": bounds["better"],
                     "bound": bounds["bound"], "wins": wins,
                     "ratio_of_medians": float(np.median(c) / np.median(p)),
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
               "workloads": workloads, "traced": traced}
    args.out.write_text(json.dumps(payload, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
