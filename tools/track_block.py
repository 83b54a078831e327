"""Time the virtual-iterate tracker per block size, at the diagnostics-wide
and check-suite shapes.

    python3 tools/track_block.py --pairs 7
    python3 tools/track_block.py --blocks 128,256 --shape diagnostics-wide
    python3 tools/track_block.py --src ../other-checkout/src

`virtual.track` walks the horizon in blocks of `virtual._BLOCK` iterations.
The shapes:

- diagnostics-wide: one record of d = 50 row-sampling least squares, 64
  lognormal workers and K = 5,000, as the benchmark workload replays it;
- check-suite: the 40 records of least squares at d = 4 over the default
  `check` grid's worker counts (1, 2, 5, 16), horizons (50, 500) and five
  speed models, seed 1, which one suite pass tracks per schedule tag.

Each record is replayed once with diagnostics. Then, per block size,
`track` runs on every record of the shape with `virtual._BLOCK` set to
that size, once untimed as a warm-up and then in --pairs timed rounds,
the sizes in order on even rounds and reversed on odd ones. Every size
must give the tracks of the first size bit for bit, or the script stops.
It prints, per shape and size, the median time of one pass over the
shape's records, in ms, and the tracemalloc peak of that pass above its
start, in total and less the tracks it returns (what
`test_tracker_and_store_memory` bounds by 1 MiB at the diagnostics-wide
shape). The package is imported from --src, by default the `src/` next to
this script.
"""

from __future__ import annotations

import argparse
import statistics
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np

BLOCKS = (128, 256, 512, 1024, 5000)
SHAPES = ("diagnostics-wide", "check-suite")


def records(asyncsgd, offset_start, invariants, shape: str) -> list:
    """The diagnostics-mode run records a shape's tracker pass reads."""
    if shape == "diagnostics-wide":
        problem = asyncsgd.least_squares(dim=50, num_samples=500, noise="rows", seed=1)
        model = asyncsgd.RandomSpeeds("lognormal", tuple(np.linspace(1.0, 2.0, 64)),
                                      sigma=1.0, seed=1)
        cases = [(problem, model, 64, 5000)]
    else:
        problem = asyncsgd.least_squares(dim=4, num_samples=24, sigma=1.0, seed=1)
        cases = [(problem, invariants.make_speed_model(kind, m, 1), m, k)
                 for kind in invariants.SPEED_KINDS for m in (1, 2, 5, 16)
                 for k in (50, 500)]
    out = []
    for problem, model, m_count, horizon in cases:
        x0 = offset_start(problem, 1.0, 1)
        schedule = asyncsgd.make_schedule(
            "adaptive-convex", problem.constants_for(x0, m_count, horizon))
        trace = asyncsgd.simulate_trace(model, horizon)
        out.append(asyncsgd.run_async(problem, trace, schedule, x0, seed=1, diagnostics=True))
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--blocks", default=",".join(map(str, BLOCKS)),
                        help="comma-separated block sizes")
    parser.add_argument("--shape", choices=SHAPES + ("both",), default="both",
                        help="the records tracked (default both)")
    parser.add_argument("--pairs", type=int, default=7, help="timed rounds per shape")
    parser.add_argument("--src", default=str(Path(__file__).resolve().parent.parent / "src"),
                        help="directory the asyncsgd package is imported from")
    args = parser.parse_args()

    sys.path.insert(0, args.src)
    import asyncsgd
    from asyncsgd import invariants, virtual
    from asyncsgd.problems import offset_start

    blocks = [int(b) for b in args.blocks.split(",")]
    kept = virtual._BLOCK
    print(f"source: {args.src}")
    print(f"{args.pairs} rounds per shape; _BLOCK is {kept} in this source")
    print(f"{'shape':<17} {'block':>6} {'ms':>8} {'peak MiB':>9} {'- tracks':>9}")
    try:
        for shape in SHAPES if args.shape == "both" else (args.shape,):
            recs = records(asyncsgd, offset_start, invariants, shape)

            def run(block: int):
                virtual._BLOCK = block
                start = time.perf_counter()
                tracks = [virtual.track(r) for r in recs]
                return time.perf_counter() - start, tracks

            def digest(tracks) -> bytes:
                return b"".join(a.tobytes() for t in tracks
                                for a in (t.virtual_iterates, t.gaps, t.rel_residuals))

            want = digest(run(blocks[0])[1])
            peaks = {}
            for block in blocks:   # warm-up, bit check and memory pass
                if digest(run(block)[1]) != want:
                    raise SystemExit(f"{shape}: block {block} differs from block {blocks[0]}")
                tracemalloc.start()
                try:
                    base = tracemalloc.get_traced_memory()[0]
                    tracks = run(block)[1]
                    peak = tracemalloc.get_traced_memory()[1] - base
                finally:
                    tracemalloc.stop()
                outputs = sum(a.nbytes for t in tracks
                              for a in (t.virtual_iterates, t.gaps, t.rel_residuals))
                peaks[block] = (peak, peak - outputs)
                del tracks
            times = {block: [] for block in blocks}
            for rnd in range(args.pairs):
                for block in blocks if rnd % 2 == 0 else blocks[::-1]:
                    times[block].append(run(block)[0])
            for block in blocks:
                peak, scratch = peaks[block]
                print(f"{shape:<17} {block:>6} {statistics.median(times[block]) * 1e3:>8.2f} "
                      f"{peak / 2**20:>9.3f} {scratch / 2**20:>9.3f}")
    finally:
        virtual._BLOCK = kept
    return 0


if __name__ == "__main__":
    sys.exit(main())
