"""Time the batched replay's two row-wise steps per row width and length,
and print where each crossover falls.

    python3 tools/batch_width.py
    python3 tools/batch_width.py --widths 8,64,128,240 --update-lengths 2,7,13
    python3 tools/batch_width.py --src ../other-checkout/src

The two steps, each timed in its column-wise and its row-wise form:

- a running sum (`optimizers._running_sum`): np.add.accumulate over a
  chunk's rows against one np.add.reduce, at --sum-lengths rows a chunk
  (85, 128 and 256 are seed-sweep's chunks of 24, 16 and 8 points; 1,024 a
  single run's);
- a ready block's update (`optimizers._update`): np.subtract.accumulate over
  the block against one np.subtract per row, at --update-lengths arrivals a
  block (seed-sweep's blocks average 5.6 arrivals, diagnostics-wide's
  12.4).

Each form is the package's own function, run with `optimizers._SUM_WIDTH`
or `_UPDATE_WIDTH` set so that it takes that form. It takes a block whose
first row, of normal values, is the running sum so far or the iterate the
ready block starts from, and whose other rows are normal values of
magnitudes 1e-8 to 1e8 with one value in twenty -0.0, so that the order of
the additions shows in the bits. Both forms must give the same
result bit for bit, or the script stops. The block is restored before each
call, outside the timed window. Each measurement takes --rounds rounds of
--number calls of each form, alternating which goes first, and prints each
form's median time per call in us and the median of the row/column ratios
taken round by round. A one-value row is not timed for the sum: np.add.reduce
sums it pairwise, so its bits differ.

Last, per step, the smallest listed width from which the mean ratio over
the lengths stays below 1 at every listed width: where `_SUM_WIDTH` and
`_UPDATE_WIDTH` belong. The package is imported from --src, by default the
`src/` next to this script; the constants are restored on exit.
"""

from __future__ import annotations

import argparse
import statistics
import sys
import time
from pathlib import Path

import numpy as np

WIDTHS = (2, 4, 6, 8, 12, 16, 32, 50, 64, 96, 128, 160, 200, 240, 300)
SUM_LENGTHS = (85, 128, 256, 1024)
UPDATE_LENGTHS = (2, 4, 7, 13, 30)


def block(rng: np.random.Generator, length: int, width: int) -> np.ndarray:
    """A running sum or an iterate, of normal values, then `length` rows of
    values whose sums depend on the order they are added in, and some -0.0
    (never in the first row: a running sum is never -0.0)."""
    values = rng.standard_normal((length + 1, width))
    values[1:] *= 10.0 ** rng.integers(-8, 9, (length, width))
    values[1:][rng.random((length, width)) < 0.05] = -0.0
    return values


def measure(call, data: np.ndarray, setting: dict, rounds: int, number: int):
    """call(work, form) for both forms on a copy `work` of data, restored
    before each call. Returns each form's output, its median time per call
    in us, and the median of the row/column ratios taken round by round."""
    work = np.empty_like(data)
    outputs, times = {}, {form: [] for form in setting}
    for form in setting:   # warm-up and bit check
        np.copyto(work, data)
        outputs[form] = np.array(call(work, setting[form]))
    for rnd in range(rounds):
        for form in setting if rnd % 2 == 0 else list(setting)[::-1]:
            elapsed = 0.0
            for _ in range(number):
                np.copyto(work, data)
                start = time.perf_counter()
                call(work, setting[form])
                elapsed += time.perf_counter() - start
            times[form].append(elapsed / number)
    per_call = {form: statistics.median(t) * 1e6 for form, t in times.items()}
    ratio = statistics.median(r / c for r, c in zip(times["row"], times["column"]))
    return outputs, per_call, ratio


def crossover(ratios: dict) -> int | None:
    """The smallest width from which the mean ratio over the lengths stays
    below 1 at every listed width, or None if the widest does not win."""
    widths = sorted(ratios)
    means = {w: statistics.mean(ratios[w]) for w in widths}
    place = None
    for w in reversed(widths):
        if means[w] >= 1:
            break
        place = w
    return place


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--widths", default=",".join(map(str, WIDTHS)),
                        help="comma-separated values per row")
    parser.add_argument("--sum-lengths", default=",".join(map(str, SUM_LENGTHS)),
                        help="comma-separated rows per running sum")
    parser.add_argument("--update-lengths", default=",".join(map(str, UPDATE_LENGTHS)),
                        help="comma-separated arrivals per ready block")
    parser.add_argument("--rounds", type=int, default=5, help="timed rounds per measurement")
    parser.add_argument("--number", type=int, default=40, help="calls per form and round")
    parser.add_argument("--seed", type=int, default=0, help="seed of the random blocks")
    parser.add_argument("--src", default=str(Path(__file__).resolve().parent.parent / "src"),
                        help="directory the asyncsgd package is imported from")
    args = parser.parse_args(argv)

    sys.path.insert(0, args.src)
    from asyncsgd import optimizers

    widths = [int(w) for w in args.widths.split(",")]
    rng = np.random.default_rng(args.seed)
    kept = {name: getattr(optimizers, name) for name in ("_SUM_WIDTH", "_UPDATE_WIDTH")}
    print(f"source: {args.src}")
    print(f"{args.rounds} rounds of {args.number} calls; _SUM_WIDTH is {kept['_SUM_WIDTH']} "
          f"and _UPDATE_WIDTH {kept['_UPDATE_WIDTH']} in this source")
    print(f"{'step':<7} {'width':>6} {'length':>7} {'column us':>10} {'row us':>9} "
          f"{'row/column':>11}")

    # each takes the block, its first row being the sum so far or the iterate
    # the ready block starts from
    def running_sum(work, limit):
        optimizers._SUM_WIDTH = limit
        return optimizers._running_sum(work[0], work[1:])

    def update(work, limit):
        optimizers._UPDATE_WIDTH = limit
        optimizers._update(work)
        return work

    steps = (("sum", "_SUM_WIDTH", running_sum, args.sum_lengths),
             ("update", "_UPDATE_WIDTH", update, args.update_lengths))
    setting = {"column": sys.maxsize, "row": 0}
    places = {}
    try:
        for step, name, call, lengths in steps:
            ratios = {}
            for width in widths:
                if step == "sum" and width < 2:
                    continue   # np.add.reduce sums a one-value row pairwise
                for length in map(int, lengths.split(",")):
                    data = block(rng, length, width)
                    outputs, per_call, ratio = measure(call, data, setting,
                                                       args.rounds, args.number)
                    if outputs["row"].tobytes() != outputs["column"].tobytes():
                        raise SystemExit(f"{step} at width {width}, length {length}: the "
                                         "two forms differ")
                    ratios.setdefault(width, []).append(ratio)
                    print(f"{step:<7} {width:>6} {length:>7} {per_call['column']:>10.2f} "
                          f"{per_call['row']:>9.2f} {ratio:>11.3f}")
            places[name] = crossover(ratios)
    finally:
        for name, value in kept.items():
            setattr(optimizers, name, value)
    for name, place in places.items():
        print(f"{name}: " + (f"the row form wins from {place} values per row" if place
                             else "the row form does not win at the widest width"))
    return 0


if __name__ == "__main__":
    sys.exit(main())
