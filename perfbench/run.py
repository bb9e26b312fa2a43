"""Benchmark of multicurve: three seeded closed-loop workloads, one client each.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload NAME --seed N --seconds S --steadiness K

Run from the root of a checkout; multicurve is imported from its src/.

--trace 0 measures the end-to-end metrics.  Set-up is measured SETUP_SAMPLES
times (worker processes that set up and stop, around the timed worker), and
the median is reported.  The timed worker runs whole rounds for S seconds
and at least 100 queries, and checks every answer.

--trace 1 runs the workload's fixed trace rounds twice, in an untraced and
in a traced worker, and reports per-layer counts and self times (counts
repeat exactly for a seed) plus the tracing overhead.

--steadiness K runs K untraced runs with seeds N..N+K-1 and prints, per
metric, the median, the quartiles and the spreads, and per run the
quantiles next to p50 and p90.

The last line of standard output is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
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

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
sys.path.insert(0, HERE)

from tracing import PER_LAYER  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

END_TO_END = (
    ("queries_per_s", "1/s"),
    ("query_p50_ms", "ms"),
    ("query_p90_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)
SETUP_SAMPLES = 3
RUN_BUDGET_S = 175.0  # a run ends, or fails, within this
CLIFF = 0.5           # (p55 - p45) / p50 or (p95 - p85) / p90 above this: the percentile sits on a cost jump


class BenchError(Exception):
    pass


def spawn(workload: str, seed: int, mode: str, seconds: float, deadline: float) -> dict:
    """Start one worker, wait for it, return its JSON result."""
    launched = time.monotonic()
    cmd = [sys.executable, WORKER, "--workload", workload, "--seed", str(seed), "--mode", mode,
           "--seconds", str(seconds), "--launched", repr(launched)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=max(1.0, deadline - launched))
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{mode} worker did not finish within the run budget") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{mode} worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(lines[-1])


# -- run stamp -------------------------------------------------------------


def git_sha() -> str:
    """HEAD of the checkout, read from .git without running git; 'unknown' if absent."""
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head, encoding="utf-8") as fh:
            ref = fh.read().strip()
        if ref.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", ref[5:]), encoding="utf-8") as fh:
                return fh.read().strip()
        return ref
    except OSError:
        return "unknown"


def calibrate() -> float:
    """Seconds for a fixed loop of Python and numpy work that never calls multicurve.

    A diagnostic only: it tells a slow host phase from a regression.
    """
    a = (np.arange(160 * 160, dtype=np.int64).reshape(160, 160) * 7919) % 65521
    start = time.perf_counter()
    acc = 0
    for i in range(150_000):
        acc = (acc * 31 + i) % 1_000_003
    for _ in range(20):
        a = (a @ a) % 65521
    return time.perf_counter() - start


def stamp(seed: int) -> dict:
    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "seed": seed,
        "loadavg_start": os.getloadavg(),
        "calibration_start_s": calibrate(),
    }


# -- one run ---------------------------------------------------------------


def run_untraced(workload: str, seed: int, seconds: float) -> dict:
    # Set-up samples are taken before and after the timed worker, whose own
    # set-up is one of them, so that they fall in different host phases.
    deadline = time.monotonic() + RUN_BUDGET_S
    before = (SETUP_SAMPLES - 1) // 2
    setups = [spawn(workload, seed, "setup", 0, deadline) for _ in range(before)]
    timed = spawn(workload, seed, "timed", seconds, deadline)
    setups.append(timed)
    setups += [spawn(workload, seed, "setup", 0, deadline) for _ in range(SETUP_SAMPLES - 1 - before)]
    lat = timed["latency_ms"]
    return {
        "metrics": {
            "queries_per_s": timed["attempted"] / timed["elapsed_s"],
            "query_p50_ms": lat["p50"],
            "query_p90_ms": lat["p90"],
            "setup_s": statistics.median(s["setup"]["setup_s"] for s in setups),
            "peak_rss_mb": timed["peak_rss_mb"],
        },
        "attempted": timed["attempted"],
        "failed": timed["failed"],
        "warmup_failed": sum(s["warmup_failed"] for s in setups),
        "failures": timed["failures"],
        "latency_ms": lat,
        "rounds": timed["rounds"],
        "elapsed_s": timed["elapsed_s"],
        "setup_samples_s": [s["setup"]["setup_s"] for s in setups],
    }


def run_traced(workload: str, seed: int) -> dict:
    deadline = time.monotonic() + RUN_BUDGET_S
    plain = spawn(workload, seed, "rounds", 0, deadline)
    traced = spawn(workload, seed, "traced", 0, deadline)
    if plain["attempted"] != traced["attempted"]:
        raise BenchError("traced and untraced workers ran different queries")
    metrics = dict(traced["per_layer"])
    metrics["trace.overhead_frac"] = traced["elapsed_s"] / plain["elapsed_s"] - 1
    return {
        "metrics": {m: metrics[m] for m, _ in PER_LAYER},
        "attempted": traced["attempted"] + plain["attempted"],
        "failed": traced["failed"] + plain["failed"],
        "warmup_failed": traced["warmup_failed"] + plain["warmup_failed"],
        "failures": traced["failures"] + plain["failures"],
        "report": traced["report"],
        "latency_ms": traced["latency_ms"],
    }


def is_correct(res: dict) -> bool:
    return res["failed"] == 0 and res["warmup_failed"] == 0


def cliff(lat: dict) -> dict:
    return {
        "p50": (lat["p55"] - lat["p45"]) / lat["p50"],
        "p90": (lat["p95"] - lat["p85"]) / lat["p90"],
    }


def print_run(workload: str, trace: bool, st: dict, res: dict) -> None:
    print(f"# multicurve benchmark  workload={workload} trace={int(trace)}")
    print("# stamp " + json.dumps(st))
    if not trace:
        lat = res["latency_ms"]
        c = cliff(lat)
        print(f"# {res['attempted']} queries in {res['rounds']} rounds, {res['elapsed_s']:.2f} s; "
              f"{lat['beyond_p90']} samples beyond p90")
        print("# latency ms  p45 {p45:.2f}  p50 {p50:.2f}  p55 {p55:.2f} | p85 {p85:.2f}  p90 {p90:.2f}  "
              "p95 {p95:.2f}".format(**lat)
              + f"  | spread around p50 {c['p50']:.2f}, around p90 {c['p90']:.2f}")
        print("# setup samples s  " + "  ".join(f"{v:.3f}" for v in res["setup_samples_s"]))
        units = dict(END_TO_END)
    else:
        print(res["report"])
        units = dict(PER_LAYER)
    for name, value in res["metrics"].items():
        print(f"{name:<56} {value:>14.6g} {units[name]}")
    print(f"{'failed_frac':<56} {res['failed'] / res['attempted']:>14.6g} ratio "
          f"({res['failed']} failed of {res['attempted']} attempted; "
          f"{res['warmup_failed']} failed warm-up queries)")
    for msg in res["failures"]:
        print(f"# FAILED {msg}")


def steadiness(workload: str, seed: int, seconds: float, k: int) -> dict:
    runs = []
    for i in range(k):
        res = run_untraced(workload, seed + i, seconds)
        lat, c = res["latency_ms"], cliff(res["latency_ms"])
        print(f"# seed {seed + i}: " + "  ".join(f"{m} {v:.4g}" for m, v in res["metrics"].items())
              + f"  | p45/p55 {lat['p45']:.1f}/{lat['p55']:.1f} p85/p95 {lat['p85']:.1f}/{lat['p95']:.1f}"
              f"  beyond_p90 {lat['beyond_p90']}  failed {res['failed']}/{res['attempted']}", flush=True)
        if lat["beyond_p90"] < 10:
            print(f"#   fewer than 10 samples beyond p90 ({lat['beyond_p90']})")
        for name, spread in c.items():
            if spread > CLIFF:
                print(f"#   {name} sits on a cost jump: neighbour spread {spread:.2f}")
        runs.append(res)
    print(f"{'metric':<16} {'median':>10} {'q1':>10} {'q3':>10} {'iqr/med':>8} {'range/med':>9}")
    summary = {}
    for name, _unit in END_TO_END:
        vals = [r["metrics"][name] for r in runs]
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
        summary[name] = {"median": med, "q1": q1, "q3": q3, "iqr_frac": (q3 - q1) / med,
                         "range_frac": (max(vals) - min(vals)) / med}
        s = summary[name]
        print(f"{name:<16} {med:>10.4g} {q1:>10.4g} {q3:>10.4g} {s['iqr_frac']:>8.3f} {s['range_frac']:>9.3f}")
    return {"correct": all(is_correct(r) for r in runs),
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "metrics": {name: {"value": summary[name]["median"], "unit": unit} for name, unit in END_TO_END}}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--steadiness", type=int, default=0, metavar="K")
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "multicurve", "__init__.py")):
        print(f"error: no multicurve sources under {ROOT}/src; run from a full checkout", file=sys.stderr)
        return 2
    try:
        if args.steadiness:
            result = steadiness(args.workload, args.seed, args.seconds, args.steadiness)
            print(json.dumps(result))
            return 0
        st = stamp(args.seed)
        res = (run_traced(args.workload, args.seed) if args.trace
               else run_untraced(args.workload, args.seed, args.seconds))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    st["loadavg_end"] = os.getloadavg()
    st["calibration_end_s"] = calibrate()
    print_run(args.workload, bool(args.trace), st, res)
    units = dict(PER_LAYER if args.trace else END_TO_END)
    print(json.dumps({
        "correct": is_correct(res),
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in res["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
