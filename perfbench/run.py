"""Run one workload with one seed and print one result.

Usage::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Workload sizes are read from the
``key=value`` tokens in the workload's ``why`` in ``BENCHMARK.json``.
``--trace 0`` prints every end-to-end metric; ``--trace 1`` runs the
workload twice for half the time each, untraced and then with every
layer wrapped (see ``layers.py``), and prints every per-layer metric,
the tracing overhead and the exact counters.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.  Any wrong result exits with status 1.  Each run's full
record -- machine and run context, metrics, counters, failure reasons --
is written under ``.perfbench_out/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from common import OUT, ROOT, fresh_dir, machine_context, require_source  # noqa: E402
from ledger import (  # noqa: E402
    EXACT_COUNTERS,
    LAYER_TARGETS,
    MISMATCH_METRIC,
    layer_metrics,
)

#: set-up repetitions in an untraced run; setup_s is their median
SETUPS = 3


def load_spec() -> dict:
    path = os.path.join(ROOT, "BENCHMARK.json")
    with open(path) as f:
        return json.load(f)


def workload_params(spec: dict, name: str) -> dict:
    for w in spec["workloads"]:
        if w["name"] == name:
            return {
                k: float(v) if "." in v else int(v)
                for k, v in re.findall(r"([a-z_]+)=([0-9.]+)", w["why"])
            }
    raise SystemExit(f"perfbench: unknown workload {name!r}")


def runner(name: str):
    if name == "served-mixed-sharded":
        from served import served_mixed

        return served_mixed
    from embedded import churn_wal, read_zipf

    return {"embed-read-zipf": read_zipf, "embed-churn-wal": churn_wal}[name]


def exact_counters(run: dict) -> dict:
    if run["exact"] is None:  # served, or exact_ops not reached
        counters = run["window"]["counters"]
    else:
        counters = run["exact"]
    return {metric: counters[key] for metric, key in EXACT_COUNTERS.items()}


def counter_mismatches(workload: str, seed: int, runs: list[dict]) -> list[str]:
    """Compare the exact counters of ``runs`` with each other and with
    the last run of this workload and seed in this checkout."""
    exact = [r["exact"] for r in runs if r["exact"] is not None]
    if not exact:
        return []
    path = os.path.join(OUT, "exact", f"{workload}-seed{seed}.json")
    if os.path.exists(path):
        with open(path) as f:
            exact.insert(0, json.load(f))
    else:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as f:
            json.dump(exact[0], f)
    return sorted({k for e in exact[1:] for k in e if e[k] != exact[0][k]})


def traced(workload: str, params: dict, seed: int, seconds: float) -> tuple[dict, dict]:
    """Untraced then traced half-length runs; returns the per-layer
    metrics and the traced run."""
    run = runner(workload)
    # half-length runs have too few quiet samples for a p99; only their
    # ops_s is used
    plain = run(params, seed, seconds / 2, setups=1, latencies=False)
    tr = run(params, seed, seconds / 2, setups=1, latencies=False,
             spans_dir=fresh_dir("spans", workload))
    prof = tr["profile"]
    metrics = layer_metrics(
        tr["window"], prof, client_prof=tr["client_profile"], served=tr.get("served")
    )
    metrics["trace.overhead_pct"] = (
        (plain["e2e"]["ops_s"] - tr["e2e"]["ops_s"]) / plain["e2e"]["ops_s"] * 100
    )
    metrics.update(exact_counters(tr))
    mismatched = counter_mismatches(workload, seed, [plain, tr])
    metrics[MISMATCH_METRIC] = len(mismatched)
    tr["mismatched"] = mismatched
    tr["fails"].attempted += plain["fails"].attempted
    tr["fails"].failed += plain["fails"].failed
    tr["fails"].reasons += plain["fails"].reasons
    return metrics, tr


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    require_source()
    spec = load_spec()
    params = workload_params(spec, args.workload)
    if args.trace:
        values, run = traced(args.workload, params, args.seed, args.seconds)
        wanted = spec["per_layer"]
    else:
        run = runner(args.workload)(params, args.seed, args.seconds, setups=SETUPS)
        values = run["e2e"]
        mismatched = counter_mismatches(args.workload, args.seed, [run])
        run["mismatched"] = mismatched
        wanted = spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    fails = run["fails"]
    context = {
        **machine_context(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "params": params,
        **run["context"],
    }
    for name, m in metrics.items():
        line = f"{args.workload:22s} {name:34s} {m['value']:16.4f} {m['unit']:6s}"
        if args.trace and name in LAYER_TARGETS:
            line += " -> moves %s on %s" % LAYER_TARGETS[name]
        print(line)
    if run["mismatched"]:
        print(f"FLAG exact counters differ from an earlier run of this seed: {run['mismatched']}")
    for reason in fails.reasons:
        print(f"FAIL {reason}")
    record = {
        "context": context,
        "metrics": metrics,
        "e2e": run["e2e"],
        "counters": run["window"]["counters"],
        "exact": run["exact"],
        "mismatched": run["mismatched"],
        "attempted": fails.attempted,
        "failed": fails.failed,
        "failure_reasons": fails.reasons,
    }
    os.makedirs(os.path.join(OUT, "results"), exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}-{stamp}-{os.getpid()}.json"
    with open(os.path.join(OUT, "results", name), "w") as f:
        json.dump(record, f, indent=1, default=str)
    print("context: " + json.dumps(context, default=str))
    correct = fails.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": fails.attempted,
        "failed": fails.failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
