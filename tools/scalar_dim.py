"""Time the single-run scalar loop on Python floats and on the numpy form,
per dimension, or the float loop against the batched path, per block length.

    python3 tools/scalar_dim.py --pairs 7
    python3 tools/scalar_dim.py --problem bounded-nonconvex --dims 2,8 --horizon 20000
    python3 tools/scalar_dim.py --dims 2,8,16 --src ../other-checkout/src
    python3 tools/scalar_dim.py --blocks 3,4,5,6,7,8,9 --dims 2,4,6

For each d, one worker replays K arrivals of the chosen problem, so every
ready block is one arrival long and the whole run goes through `run_async`'s
scalar loop. The problems: least squares with additive noise (sigma 1) and
the heterogeneous quadratics (one worker, so no dissimilarity, sigma 1),
which both have their own step oracle, and the bounded nonconvex problem
with row noise, which takes the default one, built on `sample_grad`. The
run is timed with `problems._FLOAT_DIM` set so that the scalar run is the
problem's step oracle, which keeps its iterate as Python floats, and set so
that it is the numpy form (see `problems.scalar_step`; both are compiled
runs, one call per run of arrivals), alternating which goes first, for
--pairs pairs after one untimed warm-up of each. Both loops must give the
same final iterate bit for bit, or the script stops. It prints, per d, each
loop's median time per arrival and the median of the float/numpy ratios
taken pair by pair, with their quartiles. The float loop may win well past
`_FLOAT_DIM` on single arrivals (through d = 16 on both problems in one
run); `_FLOAT_DIM` stays at 6 because past it the float loop would also
take blocks of 3-6 arrivals, where it loses to the batched path, and that
would need a block limit that falls with d.

With --blocks, M equal workers replay K arrivals for each M listed, so every
ready block is M arrivals long, at each d of --dims (which should be at most
`_FLOAT_DIM`), with diagnostics off and on. The run is timed with
`problems._FLOAT_BLOCK` and `_SCALAR_BLOCK` set so that the float loop
takes every block and set so that the batched path does, in pairs as above,
and must end at the same iterate, gradient store included. It prints each
path's median time per arrival and the float/batched ratio with its
quartiles. The longest block the float loop still wins at, by the mean
ratio over the d and diagnostics rows, is where `_FLOAT_BLOCK` belongs for
the problems with their own step oracle; for bounded nonconvex, on the
default oracle, the float loop takes the blocks of up to `_SCALAR_BLOCK`
arrivals. Where the quartiles of the ratios at a block length lie on both
sides of 1, the runs place the limit only to within about one block length.

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
BLOCK_DIMS = (2, 4, 6)

# --problem: (builder of an M-worker problem of dimension d, schedule tag)
PROBLEMS = {
    "least-squares": (lambda asyncsgd, d, m: asyncsgd.least_squares(dim=d, sigma=1.0, seed=0),
                      "adaptive-convex"),
    "heterogeneous-quadratics": (
        lambda asyncsgd, d, m: asyncsgd.heterogeneous_quadratics(d, m, 0.0, sigma=1.0, seed=0),
        "adaptive-heterogeneous"),
    "bounded-nonconvex": (lambda asyncsgd, d, m: asyncsgd.bounded_nonconvex(dim=d, seed=0),
                          "adaptive-nonconvex"),
}


def _pairs(run, loops: dict, pairs: int, horizon: int):
    """Time run(loop) for both loops in `pairs` alternating pairs, after one
    untimed run of each that must give the same result. Returns each loop's
    median time per arrival in us and the median and quartiles (linear
    interpolation) of the first/second ratios taken pair by pair, or None if
    the results differ."""
    first, second = loops
    if run(first)[1] != run(second)[1]:   # warm-up
        return None
    times = {first: [], second: []}
    for pair in range(pairs):
        for loop in (first, second) if pair % 2 == 0 else (second, first):
            times[loop].append(run(loop)[0])
    per_arrival = {loop: statistics.median(t) / horizon * 1e6 for loop, t in times.items()}
    ratios = [a / b for a, b in zip(times[first], times[second])]
    return per_arrival, np.percentile(ratios, [50, 25, 75]).tolist()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--dims", default=None,
                        help=f"comma-separated dimensions (default {','.join(map(str, DIMS))}, "
                             f"or {','.join(map(str, BLOCK_DIMS))} with --blocks)")
    parser.add_argument("--blocks", default=None,
                        help="comma-separated worker counts M: time the float loop against "
                             "the batched path on blocks of M arrivals instead")
    parser.add_argument("--problem", choices=sorted(PROBLEMS), default="least-squares",
                        help="the objective replayed (default least-squares)")
    parser.add_argument("--horizon", type=int, default=20000, help="arrivals per run")
    parser.add_argument("--pairs", type=int, default=7, help="timed pairs per measurement")
    parser.add_argument("--src", default=str(Path(__file__).resolve().parent.parent / "src"),
                        help="directory the asyncsgd package is imported from")
    args = parser.parse_args(argv)
    dims = args.dims or ",".join(map(str, DIMS if args.blocks is None else BLOCK_DIMS))

    sys.path.insert(0, args.src)
    import asyncsgd
    from asyncsgd import problems
    from asyncsgd.problems import offset_start

    build, tag = PROBLEMS[args.problem]
    # the values each loop runs under: _FLOAT_DIM per d, or both block limits
    # per M (up to _FLOAT_DIM, the default oracle's is _SCALAR_BLOCK)
    names, loops = ((("_FLOAT_DIM",), {"float": sys.maxsize, "numpy": 0})
                    if args.blocks is None else
                    (("_FLOAT_BLOCK", "_SCALAR_BLOCK"), {"float": sys.maxsize, "batched": 0}))
    kept = {name: getattr(problems, name) for name in names}
    print(f"source: {args.src}")
    print(f"{args.problem}, K = {args.horizon}, {args.pairs} pairs; _FLOAT_DIM is "
          f"{problems._FLOAT_DIM}, _FLOAT_BLOCK {problems._FLOAT_BLOCK} and _SCALAR_BLOCK "
          f"{problems._SCALAR_BLOCK} in this source")
    ratio_name = "/".join(loops)
    if args.blocks is None:
        print(f"{'d':>4} {'float us':>9} {'numpy us':>9} {ratio_name:>12} {'q1':>6} {'q3':>6}")
    else:
        print(f"{'d':>4} {'diag':>5} {'M':>4} {'float us':>9} {'batched us':>11} "
              f"{ratio_name:>14} {'q1':>6} {'q3':>6}")
    shapes = ([(d, 1, False) for d in map(int, dims.split(","))] if args.blocks is None else
              [(d, m, diag) for d in map(int, dims.split(",")) for diag in (False, True)
               for m in map(int, args.blocks.split(","))])
    try:
        for dim, m_count, diagnostics in shapes:
            if args.blocks is not None and dim > problems._FLOAT_DIM:
                raise SystemExit(f"d = {dim} is past _FLOAT_DIM, where no block takes "
                                 "the float loop")
            problem = build(asyncsgd, dim, m_count)
            # a unit away from the minimizer, where the problem knows it
            x0 = np.full(dim, 0.5) if problem.xstar is None else offset_start(problem)
            trace = asyncsgd.simulate_trace(asyncsgd.FixedSpeeds((1.0,) * m_count),
                                            args.horizon)
            schedule = asyncsgd.make_schedule(
                tag, problem.constants_for(x0, m_count, args.horizon))

            def run(loop: str):
                for name in names:
                    setattr(problems, name, loops[loop])
                start = time.perf_counter()
                record = asyncsgd.run_async(problem, trace, schedule, x0, seed=1,
                                            diagnostics=diagnostics)
                elapsed = time.perf_counter() - start
                store = b"" if record.gradients is None else record.gradients.tobytes()
                return elapsed, record.x_final.tobytes() + store

            timed = _pairs(run, loops, args.pairs, args.horizon)
            if timed is None:
                raise SystemExit(f"d = {dim}, M = {m_count}: the two paths end differently")
            per_arrival, (ratio, low, high) = timed
            first, second = (per_arrival[loop] for loop in loops)
            quartiles = f"{low:>6.3f} {high:>6.3f}"
            if args.blocks is None:
                print(f"{dim:>4} {first:>9.2f} {second:>9.2f} {ratio:>12.3f} {quartiles}")
            else:
                print(f"{dim:>4} {'on' if diagnostics else 'off':>5} {m_count:>4} "
                      f"{first:>9.2f} {second:>11.2f} {ratio:>14.3f} {quartiles}")
    finally:
        for name, value in kept.items():
            setattr(problems, name, value)
    return 0


if __name__ == "__main__":
    sys.exit(main())
