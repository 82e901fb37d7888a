"""Run one benchmark workload and print its metrics as the last line of stdout.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout: the program is imported from its
``src/`` directory and nowhere else. A run sets up its inputs several times
(``setup_s`` is their median), runs one warm-up round, then repeats whole
rounds until ``--seconds`` have passed. Times are in reference seconds (see
``pace.py``). ``--trace 0`` prints the end-to-end
metrics; ``--trace 1`` alternates untraced and traced rounds and prints the
per-layer numbers of the traced ones, per round, with the tracing overhead.
Work files go to ``.perfbench-runs/`` under the checkout and are removed at
the end; a traced run leaves its spans there as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import time

import pace

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SETUPS = 5

# One thread for numpy's BLAS (used by the reference forward only); the
# program itself runs at its default of one evaluation thread.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("DERS_THREADS", None)


def _import_program():
    src = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(src, "ders")):
        sys.exit(f"perfbench: no ders package under {src}; run from a source checkout")
    sys.path.insert(0, src)
    import ders

    if not os.path.abspath(ders.__file__).startswith(src + os.sep):
        sys.exit(f"perfbench: imported ders from {ders.__file__}, not from {src}")


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _metric(value, unit):
    return {"value": value, "unit": unit}


def _cost(rounds) -> dict:
    """Each timed call's median over ``rounds``, in reference seconds."""
    return {key: pace.median_paced((r.call_s[key], r.reference_s[key]) for r in rounds) for key in rounds[0].call_s}


def _fastest(rounds) -> dict:
    """Each timed call's fastest repeat over ``rounds``, in wall seconds."""
    return {key: min(r.call_s[key] for r in rounds) for key in rounds[0].call_s}


def main(argv=None) -> int:
    args = _parse(argv)
    _import_program()
    import spans
    import workloads

    if args.workload not in workloads.WORKLOADS:
        sys.exit(f"perfbench: unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
    runs_dir = os.path.join(ROOT, ".perfbench-runs")
    workdir = os.path.join(runs_dir, f"{args.workload}-seed{args.seed}-pid{os.getpid()}")
    tracer = spans.Tracer()
    workload = workloads.WORKLOADS[args.workload](args.seed, workdir, tracer)
    try:
        setup_s, setup_digests = [], set()
        for i in range(SETUPS):
            out = os.path.join(workdir, f"setup{i}")
            reference_s = pace.reference_loop()
            t0 = time.perf_counter()
            produced = workload.setup(out)
            setup_s.append((time.perf_counter() - t0, reference_s))
            setup_digests.add(tuple(workloads.digest(os.path.join(out, f)) for f in produced))
        workload.prepare(out)
        if args.trace:
            spans.install(tracer)

        rounds = [workload.round()]  # warm-up: checked and counted, not timed
        timed, traced = [], []
        start = time.perf_counter()
        while time.perf_counter() - start < args.seconds or not timed or (args.trace and not traced):
            trace_this = bool(args.trace) and len(timed) > len(traced)
            tracer.active = trace_this
            rnd = workload.round()
            tracer.active = False
            rounds.append(rnd)
            (traced if trace_this else timed).append(rnd)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(r.ops for r in rounds)
    failed = sum(r.failed for r in rounds)
    for message in [m for r in rounds for m in r.messages][:20]:
        print(f"perfbench: {message}", file=sys.stderr)
    correct = failed == 0 and len(setup_digests) == 1
    if len(setup_digests) != 1:
        print("perfbench: repeated set-ups produced different artifacts", file=sys.stderr)

    if args.trace:
        overhead = sum(_cost(traced).values()) - sum(_cost(timed).values())
        metrics = {name: _metric(v, unit) for name, (v, unit) in spans.layer_metrics(tracer, len(traced)).items()}
        metrics["trace.overhead_s"] = _metric(overhead, "s")
        tracer.dump(os.path.join(runs_dir, f"trace-{args.workload}-seed{args.seed}.json"))
    else:
        cost = _cost(timed)
        metrics = {
            "setup_s": _metric(pace.median_paced(setup_s), "s"),
            "run_s": _metric(sum(cost.values()), "s"),
            "rows_per_s": _metric(timed[0].rows / sum(cost[key] for key in timed[0].rate_keys), "rows/s"),
            "peak_rss_mb": _metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
        # Wall-clock figures of the same run, for comparison.
        best = _fastest(timed)
        references = [ref for r in timed for ref in r.reference_s.values()]
        detail = {
            "rounds": len(timed),
            "wall_setup_s": statistics.median(s for s, _ in setup_s),
            "fastest_run_s": sum(best.values()),
            "median_run_s": statistics.median(r.wall_s for r in timed),
            "reference_loop_s": {"fastest": min(references), "median": statistics.median(references)},
        }
        # CLI stages are keyed by name, served requests by their index.
        detail["call_s"] = {key: s for key, s in cost.items() if isinstance(key, str)}
        latencies = sorted(s * 1e3 for r in timed for key, s in r.call_s.items() if isinstance(key, int))
        if latencies:
            q = statistics.quantiles(latencies, n=100)
            detail.update(requests=len(latencies), p50_ms=statistics.median(latencies), p99_ms=q[98])
        print(json.dumps({"detail": detail}), file=sys.stderr)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
