"""One benchmark worker process: set up, then run queries, then report.

    python3 perfbench/worker.py --workload NAME --seed N --mode MODE
        [--seconds S] --launched T

MODE is `setup` (set up and stop), `timed` (closed loop for S seconds and
at least MIN_QUERIES queries, whole rounds only), `rounds` (the workload's
fixed trace rounds, untraced) or `traced` (the same rounds with spans).
T is the parent's time.monotonic() just before it started this process, so
setup time covers interpreter start.  The last stdout line is a JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
MIN_QUERIES = 100
PREGEN_ROUNDS = 16  # rounds whose inputs are generated during setup
QUANTILES = (45, 50, 55, 85, 90, 95)


def import_library():
    """Import multicurve from this checkout's src/, never from elsewhere."""
    sys.path.insert(0, SRC)
    import multicurve
    import multicurve.cli  # noqa: F401  (imports every layer)

    if not os.path.abspath(multicurve.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"multicurve was imported from {multicurve.__file__}, not from {SRC}")


def latency_summary(latencies: list[float]) -> dict:
    ms = [1000 * v for v in latencies]
    cuts = statistics.quantiles(ms, n=100, method="inclusive")
    out = {f"p{q}": cuts[q - 1] for q in QUANTILES}
    out["beyond_p90"] = sum(1 for v in ms if v > out["p90"])
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", choices=("setup", "timed", "rounds", "traced"), required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--launched", type=float, required=True)
    args = ap.parse_args(argv)

    import_library()
    t_import = time.monotonic()

    from workloads import WARMUP, WORKLOADS, Session

    cls = WORKLOADS[args.workload]
    work = cls(args.seed)
    warm = cls(args.seed, WARMUP)
    work.prepare(PREGEN_ROUNDS)
    warm.prepare(1)
    t_inputs = time.monotonic()

    warmup = Session()
    warmup.run(warm.queries(0))
    t_ready = time.monotonic()
    result = {
        "setup": {
            "setup_s": t_ready - args.launched,
            "import_s": t_import - args.launched,
            "inputs_s": t_inputs - t_import,
            "warmup_s": t_ready - t_inputs,
        },
        "warmup_failed": warmup.failed,
        "failures": list(warmup.failures),
    }
    if args.mode != "setup":
        tracer = None
        if args.mode == "traced":
            from tracing import Tracer

            tracer = Tracer()
            tracer.install()
        session = Session(tracer)
        clock = time.perf_counter
        start = clock()
        rounds = 0
        if args.mode == "timed":
            while clock() - start < args.seconds or session.attempted < MIN_QUERIES:
                session.run(work.queries(rounds))
                rounds += 1
        else:
            for rounds in range(1, cls.trace_rounds + 1):
                session.run(work.queries(rounds - 1))
        elapsed = clock() - start
        if tracer is not None:
            tracer.uninstall()
            result["per_layer"] = tracer.metrics(result["setup"])
            result["report"] = tracer.report()
        result.update({
            "rounds": rounds,
            "elapsed_s": elapsed,
            "attempted": session.attempted,
            "failed": session.failed,
            "failures": result["failures"] + session.failures,
            "latency_ms": latency_summary(session.latencies),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        })
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
