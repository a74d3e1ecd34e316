"""hodgekit benchmark: three seeded exact-arithmetic workloads.

    python3 bench/run.py --workload {ratfunc,purity,cli-small} --seed N \\
        --seconds S --trace {0,1}
    python3 bench/run.py --workload all ...     # every workload, one after another

One process, one thread, a closed loop with one client: each item starts
when the previous one has been checked.  Inputs come from ``gen`` (stdlib
only, seeded); answers are checked by ``check`` (stdlib only).

With ``--trace 0`` the run loops for ``--seconds`` of wall time and reports
the end-to-end metrics:
  items_per_s   verified items per second of timed time (the sum of the
                per-item timed regions; generating and checking are outside)
  item_p50_ms   median item latency
  item_p90_ms   90th-percentile latency; at least 100 items are timed
  setup_s       median of five samples, spread over the run, of the time
                from spawning a fresh process to its first timed item:
                interpreter start, import, generating (and for purity
                decoding) the set-up pool, and the warm-up items
  peak_rss_mb   peak resident set size of this process when its first
                MIN_ITEMS timed items are done, so that the figure does
                not grow with the number of items a faster program fits
                into the run
Times are scaled to a reference machine speed by ``calib`` (the unscaled
values are printed too).  Outside ``metrics`` it prints ``fail_frac``, the
number of items timed, and the checker's self-check: each warm-up answer
is also checked against a corrupted expectation, which must be counted as
a failure.

With ``--trace 1`` it installs ``tracer.Tracer`` and runs a fixed item list
(not a time budget), so that the per-layer counters repeat exactly for a
seed; the spans are written to ``.bench_out/``.

The last line of stdout is one JSON object: correct, attempted, failed,
metrics.  Without ``src/hodgekit`` beside ``bench/`` it exits 2 and prints
no result.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
from itertools import islice
from pathlib import Path

START = time.perf_counter()
HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

import calib  # noqa: E402  (bench/ is sys.path[0])
import check  # noqa: E402
import gen  # noqa: E402

WORKLOADS = ("ratfunc", "purity", "cli-small")
# items generated (and, for purity, decoded) during set-up; more are made
# between timed items, untimed, if a run outgrows the pool
POOL = {"ratfunc": 20, "purity": 120, "cli-small": 46}
# untimed warm-up items, drawn from a stream of their own
WARMUP = {"ratfunc": 2, "purity": 10, "cli-small": 23}
# length of the fixed item list of a traced run: whole schedule cycles,
# enough of them that its mix matches an untraced run's
TRACED = {"ratfunc": 200, "purity": 800, "cli-small": 690}
MIN_ITEMS = 100         # so that ten or more items lie beyond the p90;
                        # peak_rss_mb is read when this many are done
SETUP_PROBES = 5
HARD_STOP_S = 150       # the loop ends here even if MIN_ITEMS is not reached
WARMUP_SEED = 0         # warm-up items are the same for every seed

END_TO_END = (("items_per_s", "1/s"), ("item_p50_ms", "ms"), ("item_p90_ms", "ms"),
              ("setup_s", "s"), ("peak_rss_mb", "MB"))


def import_hodgekit():
    """Import the hodgekit under this checkout's src/, or exit 2."""
    if not (SRC / "hodgekit" / "__init__.py").is_file():
        sys.stderr.write(f"bench: no hodgekit sources under {SRC}\n")
        sys.exit(2)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import hodgekit.cli
    import hodgekit.jsonio  # noqa: F401
    if Path(hodgekit.__file__).resolve().parent != SRC / "hodgekit":
        sys.stderr.write(f"bench: imported hodgekit from {hodgekit.__file__}\n")
        sys.exit(2)
    return hodgekit


class Session:
    """One workload's items, prepared, plus the code that runs and checks one."""

    def __init__(self, workload, seed, pool):
        self.hk = import_hodgekit()
        warm = list(islice(gen.stream(workload, WARMUP_SEED, "warmup"), WARMUP[workload]))
        self.stream = gen.stream(workload, seed, exclude={gen.request_key(i) for i in warm})
        self.pool = self._more(pool)
        self.warm = [(item, self.prepare(item)) for item in warm]

    def _more(self, count):
        return [(item, self.prepare(item)) for item in islice(self.stream, count)]

    def items(self):
        """The pool, then further items prepared on demand (untimed)."""
        yield from self.pool
        while True:
            yield from self._more(16)

    def prepare(self, item):
        """Decode what the timed region needs: wire JSON for library calls."""
        if "argv" in item:
            return item["argv"]
        jsonio, wire = self.hk.jsonio, item["wire"]
        if item["kind"].startswith("rees_p1"):
            return (jsonio.filtration_from_json(wire["F"]),
                    jsonio.filtration_from_json(wire["Fbar"]))
        return jsonio.bundle_from_json(wire)

    def run(self, item, prepared):
        """Time one item; return (answer or None, seconds, error text)."""
        hk, out = self.hk, io.StringIO()
        t0 = time.perf_counter()
        try:
            if "argv" in item:
                with contextlib.redirect_stdout(out):
                    code = hk.cli.main(prepared)
            elif item["kind"].startswith("rees_p1"):
                answer = hk.rees.rees_p1(*prepared)[1].splitting
            else:
                answer = hk.birkhoff.splitting_type(prepared)
        except Exception:  # noqa: BLE001 - an item that raises is a failed item
            return None, time.perf_counter() - t0, traceback.format_exc(limit=3)
        dt = time.perf_counter() - t0
        if "argv" not in item:
            return list(answer), dt, None
        if code != 0:
            return None, dt, f"exit {code}: {out.getvalue()[:300]}"
        try:
            return json.loads(out.getvalue()), dt, None
        except json.JSONDecodeError as ex:
            return None, dt, f"output is not JSON: {ex}"

    @staticmethod
    def judge(item, answer, err, quiet=False):
        """True if the item ran and its answer is the expected one."""
        ok = err is None and check.check(item, answer)
        if not ok and not quiet:
            sys.stderr.write(f"bench: {item['kind']} failed: {err or 'wrong answer'}\n")
        return ok

    def attempt(self, item, prepared):
        """Run and check one item; return (ok, seconds)."""
        answer, dt, err = self.run(item, prepared)
        return self.judge(item, answer, err), dt

    def warm_up(self):
        """Run the warm-up items, untimed, and self-check the checker on
        them: each answer is judged once against its item and once against
        a corrupted copy, which must be counted as failed.  Return (warm-up
        items failed, corrupted copies counted as failed)."""
        failed = caught = 0
        for item, prepared in self.warm:
            answer, _, err = self.run(item, prepared)
            failed += not self.judge(item, answer, err)
            caught += not self.judge(check.corrupt(item), answer, err, quiet=True)
        return failed, caught


def setup_child(workload, seed):
    """Child side of a setup_s sample: set up, warm up, say so, exit."""
    Session(workload, seed, POOL[workload]).warm_up()
    print("ready", flush=True)


def probe_setup(workload, seed):
    """Wall time from spawning a fresh process to its first timed item."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
           "--seed", str(seed), "--setup-probe"]
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, cwd=ROOT, text=True) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        proc.stdout.read()
        if proc.wait(timeout=60) != 0 or line.strip() != "ready":
            sys.stderr.write("bench: set-up probe failed\n")
            sys.exit(2)
    return elapsed


def timed_loop(session, seconds, cycle, probe):
    """Run items for ``seconds`` of wall time and at least MIN_ITEMS items,
    stopping on a whole number of schedule cycles so that every run has
    the same mix of strata.

    ``probe`` (a set-up sample) runs SETUP_PROBES times, spread evenly over
    the loop, so that set-up and items are sampled under the same machine
    conditions.
    """
    lat, failed, setup, rss = [], 0, [], None
    clock = calib.Clock()
    t_start = time.perf_counter()
    for item, prepared in session.items():
        elapsed = time.perf_counter() - t_start
        if len(setup) < SETUP_PROBES and elapsed >= len(setup) * seconds / SETUP_PROBES:
            setup.append(probe())
        ok, dt = session.attempt(item, prepared)
        clock.tick(dt)
        lat.append(dt)
        failed += not ok
        if len(lat) == MIN_ITEMS:
            rss = peak_rss_mb()
        done = (time.perf_counter() - t_start >= seconds and len(lat) >= MIN_ITEMS
                and len(setup) == SETUP_PROBES)
        if (done and len(lat) % cycle == 0) or time.perf_counter() - START >= HARD_STOP_S:
            break
    return lat, failed, setup, rss or peak_rss_mb(), clock


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def run_untraced(workload, seed, seconds):
    session = Session(workload, seed, POOL[workload])  # compiles bytecode once
    warm_failed, caught = session.warm_up()
    lat, failed, setup, rss, clock = timed_loop(session, seconds, len(gen.SCHEDULES[workload]),
                                           lambda: probe_setup(workload, seed))
    raw = {
        "items_per_s": (len(lat) - failed) / sum(lat),
        "item_p50_ms": 1000 * statistics.median(lat),
        "item_p90_ms": 1000 * statistics.quantiles(lat, n=10, method="inclusive")[8],
        "setup_s": statistics.median(setup),
    }
    scale = clock.scale
    metrics = {name: v / scale if name == "items_per_s" else v * scale
               for name, v in raw.items()}
    metrics["peak_rss_mb"] = rss
    for name, unit in END_TO_END:
        extra = f" (unscaled {raw[name]:.6g})" if name in raw else ""
        print(f"{workload} {name} {metrics[name]:.6g} {unit}{extra}")
    print(f"{workload} fail_frac {failed / len(lat):.6g} ratio ({failed} of {len(lat)} items)")
    warm = len(session.warm)
    print(f"{workload} self-check fail_frac {caught / warm:.6g} ratio ({caught} of {warm} "
          f"corrupted expectations counted as failed; want all), "
          f"{warm_failed} warm-up items failed")
    print(f"{workload} calibration kernel {1000 * statistics.fmean(clock.samples):.4g} ms "
          f"mean of {len(clock.samples)}, scale {scale:.4g}")
    ok = failed == 0 and warm_failed == 0 and caught == warm
    return {"correct": ok, "attempted": len(lat), "failed": failed,
            "metrics": {name: {"value": metrics[name], "unit": unit}
                        for name, unit in END_TO_END}}


def run_traced(workload, seed):
    import tracer as tracing
    import_hodgekit()
    tracer = tracing.Tracer()
    tracer.install()
    tracer.item = "setup"
    session = Session(workload, seed, TRACED[workload])
    lat, failed = [], 0
    clock = calib.Clock()
    for k, (item, prepared) in enumerate(session.pool):
        tracer.item = k
        ok, dt = session.attempt(item, prepared)
        tracer.item = None
        clock.tick(dt)
        lat.append(dt)
        failed += not ok
    metrics = tracer.metrics((len(lat) - failed) / sum(lat), clock.scale)
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    tracer.dump(out_dir / f"trace-{workload}-seed{seed}.json")
    for name, m in metrics.items():
        print(f"{workload} {name} {m['value']:.6g} {m['unit']}")
    return {"correct": failed == 0, "attempted": len(lat), "failed": failed,
            "metrics": metrics}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=35)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    if args.setup_probe:
        return setup_child(args.workload, args.seed)
    if len(names) > 1:
        return run_all(args)
    if args.trace:
        result = run_traced(args.workload, args.seed)
    else:
        result = run_untraced(args.workload, args.seed, args.seconds)
    print(json.dumps(result))
    return 0


def run_all(args):
    """Each workload in a fresh process; one summary line per workload."""
    results = {}
    for w in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", w,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
        lines = proc.stdout.strip().splitlines()
        sys.stdout.write("".join(line + "\n" for line in lines[:-1]))
        if proc.returncode != 0 or not lines:
            return proc.returncode or 2
        results[w] = json.loads(lines[-1])
    print(json.dumps({"correct": all(r["correct"] for r in results.values()),
                      "attempted": sum(r["attempted"] for r in results.values()),
                      "failed": sum(r["failed"] for r in results.values()),
                      "workloads": results}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
