"""Run-to-run spread of the end-to-end metrics.

Usage::

    python3 perfbench/spread.py --workload NAME [--workload NAME ...]
        [--seeds 1-10] [--seconds S] [--trace 0|1]

Runs ``perfbench/run.py`` once per seed, one run at a time, and prints
for every end-to-end metric its median and the distance between the
first and third quartile (``statistics.quantiles(n=4)``) as a share of
the median, next to the metric's bound.  A spread above a third of the
bound is marked, because it leaves too little room to tell a
regression from noise.  With ``--trace 1`` it does the same for the
per-layer metrics, which have no bound: the served workload's counters
are not exact, and this is their spread.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", action="append", required=True)
    ap.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    ap.add_argument("--seconds", type=float, default=None)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    seconds = args.seconds or spec["run_seconds"]
    worst = 0.0
    for workload in args.workload:
        metrics = spec["per_layer"] if args.trace else spec["end_to_end"]
        values: dict[str, list[float]] = {m["name"]: [] for m in metrics}
        for seed in args.seeds:
            out = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(seconds), "--trace", str(args.trace)],
                cwd=ROOT, capture_output=True, text=True, timeout=600,
            )
            result = json.loads(out.stdout.strip().splitlines()[-1])
            if out.returncode or not result["correct"]:
                print(f"{workload} seed {seed}: exit {out.returncode}, {result['failed']} failed")
                return 1
            for name, m in result["metrics"].items():
                values[name].append(m["value"])
        print(f"\n{workload}: seeds {args.seeds[0]}-{args.seeds[-1]}, {seconds:g} s")
        for m in metrics:
            v = values[m["name"]]
            q1, med, q3 = statistics.quantiles(v, n=4)
            spread = (q3 - q1) / med if med else 0.0
            bound = m.get("bound")
            if bound is None:
                print(f"  {m['name']:34s} median {med:16.4f} {m['unit']:6s} spread {spread:6.3f}")
                continue
            mark = "  <-- over a third of the bound" if spread > bound / 3 else ""
            if m["name"] != "setup_s":
                worst = max(worst, spread / bound)
            print(f"  {m['name']:16s} median {med:14.4f} {m['unit']:6s} "
                  f"spread {spread:6.3f}  bound {bound:.2f}{mark}")
            print("      " + " ".join(f"{x:.4g}" for x in v))
    print(f"\nworst spread / bound (setup_s excluded): {worst:.2f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
