"""Time one `asyncsgd sweep` config serially and on a process pool.

    python3 tools/sweep_pool.py --shape three-horizons --pairs 7
    python3 tools/sweep_pool.py --config my_sweep.json --src ../other-checkout/src

The sweep runs in this process through `asyncsgd.cli.main`, once with
`parallel: false` and once with the config's own `parallel` (`true` unless
it sets one), alternating which goes first, for --pairs pairs after one
untimed warm-up of each. It prints each side's median and quartiles of
wall time and the median of the pooled/serial ratios taken pair by pair.
Both sides must print the same output, or the script stops. The package is
imported from --src, by default the `src/` next to this script, so two
checkouts can be timed with the same script.

The shapes are the two that decide whether a sweep pool pays:
- three-horizons: 8 fixed-speed workers, d = 10, horizons 32,768, 65,536
  and 131,072, 8 repetitions that share one trace per horizon (one batch);
- one-run-batches: an unseeded random model, so each of 16 repetitions is a
  batch of its own, at seed-sweep's horizons 2,048, 4,096 and 8,192.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import statistics
import sys
import tempfile
import time
from pathlib import Path

BASE = {
    "seed": 1,
    "problem": {"kind": "least-squares", "dim": 10, "num_samples": 40, "sigma": 1.0},
    "schedule": {"kind": "adaptive-convex"},
    "output_rule": "weighted",
    "metrics": True,
}
SHAPES = {
    "three-horizons": {
        **BASE,
        "speed_model": {"kind": "fixed",
                        "seconds": [1.0 + i / 7 for i in range(8)]},
        "horizons": [32768, 65536, 131072],
        "repetitions": 8,
    },
    "one-run-batches": {
        **BASE,
        "speed_model": {"kind": "random", "distribution": "exponential",
                        "means": [1.0 + i / 7 for i in range(8)]},
        "horizons": [2048, 4096, 8192],
        "repetitions": 16,
    },
}


def quartiles(values: list[float]) -> tuple[float, float, float]:
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    source = parser.add_mutually_exclusive_group()
    source.add_argument("--shape", choices=sorted(SHAPES), default="three-horizons")
    source.add_argument("--config", help="a sweep config file instead of a built-in shape")
    parser.add_argument("--pairs", type=int, default=7, help="timed serial/pooled pairs")
    parser.add_argument("--src", default=str(Path(__file__).resolve().parent.parent / "src"),
                        help="directory the asyncsgd package is imported from")
    args = parser.parse_args()

    sys.path.insert(0, args.src)
    import asyncsgd.cli

    if args.config:
        with open(args.config) as fh:
            config = json.load(fh)
    else:
        config = SHAPES[args.shape]
    pooled_setting = config.get("parallel", True)

    with tempfile.TemporaryDirectory() as tmp:
        paths = {}
        for side, parallel in (("serial", False), ("pooled", pooled_setting)):
            paths[side] = Path(tmp, f"{side}.json")
            paths[side].write_text(json.dumps({**config, "parallel": parallel}))

        def run(side: str) -> tuple[float, str]:
            out = io.StringIO()
            start = time.perf_counter()
            with contextlib.redirect_stdout(out):
                code = asyncsgd.cli.main(["sweep", "--config", str(paths[side])])
            elapsed = time.perf_counter() - start
            if code != 0:
                raise SystemExit(f"the {side} sweep exited {code}")
            return elapsed, out.getvalue()

        outputs = {side: run(side)[1] for side in ("serial", "pooled")}   # warm-up
        if outputs["serial"] != outputs["pooled"]:
            raise SystemExit("the serial and pooled sweeps printed different outputs")
        times = {"serial": [], "pooled": []}
        for pair in range(args.pairs):
            order = ("serial", "pooled") if pair % 2 == 0 else ("pooled", "serial")
            for side in order:
                times[side].append(run(side)[0])

    print(f"source: {args.src}")
    print(f"shape: {args.config or args.shape}, horizons {config['horizons']}, "
          f"{config['repetitions']} repetitions, pooled parallel={pooled_setting}, "
          f"{args.pairs} pairs")
    for side, values in times.items():
        q1, q2, q3 = quartiles(values)
        print(f"{side:<7} median {q2:.3f} s  (quartiles {q1:.3f}-{q3:.3f} s)")
    ratios = [p / s for p, s in zip(times["pooled"], times["serial"])]
    print(f"pooled/serial, pair by pair: median {statistics.median(ratios):.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
