"""Time the single-run scalar loop on Python floats and on numpy rows, per
dimension.

    python3 tools/scalar_dim.py --pairs 7
    python3 tools/scalar_dim.py --problem bounded-nonconvex --dims 2,8 --horizon 20000
    python3 tools/scalar_dim.py --dims 2,8,16 --src ../other-checkout/src

For each d, one worker replays K arrivals of the chosen problem, so every
ready block is one arrival long and the whole run goes through `run_async`'s
scalar loop. The problems: least squares with additive noise (sigma 1) and
the heterogeneous quadratics (one worker, so no dissimilarity, sigma 1),
which both have their own step oracle, and the bounded nonconvex problem
with row noise, which takes the default one, built on `sample_grad`. The
run is timed with `optimizers._FLOAT_DIM` set so that the loop keeps its
iterate as Python floats, through the step oracle, and set so that it keeps
it as a numpy row, alternating which goes first, for --pairs pairs after
one untimed warm-up of each. Both loops must give the same final iterate
bit for bit, or the script stops. It prints, per d, each loop's median time
per arrival and the median of the float/numpy ratios taken pair by pair.
`_FLOAT_DIM` belongs at the largest d at which the float loop still wins.
The package is imported from --src, by default the `src/` next to this
script.
"""

from __future__ import annotations

import argparse
import statistics
import sys
import time
from pathlib import Path

import numpy as np

DIMS = (1, 2, 4, 8, 12, 16, 32, 50)

# --problem: (builder of a one-worker problem of dimension d, schedule tag)
PROBLEMS = {
    "least-squares": (lambda asyncsgd, d: asyncsgd.least_squares(dim=d, sigma=1.0, seed=0),
                      "adaptive-convex"),
    "heterogeneous-quadratics": (
        lambda asyncsgd, d: asyncsgd.heterogeneous_quadratics(d, 1, 0.0, sigma=1.0, seed=0),
        "adaptive-heterogeneous"),
    "bounded-nonconvex": (lambda asyncsgd, d: asyncsgd.bounded_nonconvex(dim=d, seed=0),
                          "adaptive-nonconvex"),
}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--dims", default=",".join(map(str, DIMS)),
                        help="comma-separated dimensions")
    parser.add_argument("--problem", choices=sorted(PROBLEMS), default="least-squares",
                        help="the objective replayed (default least-squares)")
    parser.add_argument("--horizon", type=int, default=20000, help="arrivals per run")
    parser.add_argument("--pairs", type=int, default=7, help="timed float/numpy pairs per d")
    parser.add_argument("--src", default=str(Path(__file__).resolve().parent.parent / "src"),
                        help="directory the asyncsgd package is imported from")
    args = parser.parse_args()

    sys.path.insert(0, args.src)
    import asyncsgd
    from asyncsgd import optimizers
    from asyncsgd.problems import offset_start

    loops = {"float": sys.maxsize, "numpy": 0}   # the _FLOAT_DIM each loop runs under
    kept = optimizers._FLOAT_DIM
    print(f"source: {args.src}")
    print(f"{args.problem}, one worker, K = {args.horizon}, {args.pairs} pairs; "
          f"_FLOAT_DIM is {kept} in this source")
    print(f"{'d':>4} {'float us':>9} {'numpy us':>9} {'float/numpy':>12}")
    build, tag = PROBLEMS[args.problem]
    try:
        for dim in map(int, args.dims.split(",")):
            problem = build(asyncsgd, dim)
            # a unit away from the minimizer, where the problem knows it
            x0 = np.full(dim, 0.5) if problem.xstar is None else offset_start(problem)
            trace = asyncsgd.simulate_trace(asyncsgd.FixedSpeeds((1.0,)), args.horizon)
            schedule = asyncsgd.make_schedule(
                tag, problem.constants_for(x0, 1, args.horizon))

            def run(loop: str):
                optimizers._FLOAT_DIM = loops[loop]
                start = time.perf_counter()
                record = asyncsgd.run_async(problem, trace, schedule, x0, seed=1)
                return time.perf_counter() - start, record.x_final.tobytes()

            if run("float")[1] != run("numpy")[1]:   # warm-up
                raise SystemExit(f"d = {dim}: the two loops end at different iterates")
            times = {"float": [], "numpy": []}
            for pair in range(args.pairs):
                for loop in ("float", "numpy") if pair % 2 == 0 else ("numpy", "float"):
                    times[loop].append(run(loop)[0])
            per_arrival = {loop: statistics.median(t) / args.horizon * 1e6
                           for loop, t in times.items()}
            ratio = statistics.median(f / n for f, n in zip(times["float"], times["numpy"]))
            print(f"{dim:>4} {per_arrival['float']:>9.2f} {per_arrival['numpy']:>9.2f} "
                  f"{ratio:>12.3f}")
    finally:
        optimizers._FLOAT_DIM = kept
    return 0


if __name__ == "__main__":
    sys.exit(main())
