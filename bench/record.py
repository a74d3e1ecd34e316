"""Record a baseline: every workload on several seeds, plus two traced runs.

    python3 bench/record.py --seeds 1,2,3,4,5,6,7,8,9,10 --out baseline.json

For each workload it runs ``run.py --trace 0`` once per seed and reports,
per end-to-end metric, the median, the quartiles and the spread (distance
between the quartiles as a share of the median), with the items timed in
each run.  It then runs ``run.py --trace 1`` twice on the first seed,
checks that every count repeats exactly, and records the per-layer
numbers with the tracing overhead: the traced items_per_s against the
median untraced one.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
RUN = HERE / "run.py"
WORKLOADS = ("ratfunc", "purity", "cli-small")


def run(workload, seed, seconds, trace):
    cmd = [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=HERE.parent,
                         check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def summary(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med,
            "values": values}


def record(workload, seeds, seconds):
    runs = []
    for seed in seeds:
        res = run(workload, seed, seconds, 0)
        runs.append(res)
        print(workload, seed, json.dumps({k: round(v["value"], 4)
                                          for k, v in res["metrics"].items()}),
              file=sys.stderr, flush=True)
    names = list(runs[0]["metrics"])
    e2e = {n: dict(summary([r["metrics"][n]["value"] for r in runs]),
                   unit=runs[0]["metrics"][n]["unit"]) for n in names}
    traced = [run(workload, seeds[0], seconds, 1) for _ in range(2)]
    layers = {n: m for n, m in traced[0]["metrics"].items()}
    counts = [n for n, m in layers.items() if m["unit"] in ("count", "ratio")]
    repeat = all(traced[0]["metrics"][n] == traced[1]["metrics"][n] for n in counts)
    traced_ips = statistics.median(t["metrics"]["trace.items_per_s"]["value"] for t in traced)
    return {
        "end_to_end": e2e,
        "items_timed": [r["attempted"] for r in runs],
        "failed": [r["failed"] for r in runs],
        "correct": all(r["correct"] for r in runs),
        "per_layer": layers,
        "traced_items": traced[0]["attempted"],
        "counts_repeat": repeat,
        "tracing_overhead": 1 - traced_ips / e2e["items_per_s"]["median"],
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--seeds", default="1,2,3,4,5,6,7,8,9,10")
    ap.add_argument("--seconds", type=int, default=35)
    ap.add_argument("--label", default="", help="what was measured, e.g. a commit")
    ap.add_argument("--out", required=True)
    args = ap.parse_args()
    seeds = [int(s) for s in args.seeds.split(",")]
    result = {
        "label": args.label,
        "date": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "seeds": seeds,
        "seconds": args.seconds,
        "workloads": {w: record(w, seeds, args.seconds) for w in WORKLOADS},
    }
    with open(args.out, "w") as fh:
        json.dump(result, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
