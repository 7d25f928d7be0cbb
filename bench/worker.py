"""One benchmark process: set up a workload, then run it (timed or traced).

Started by run.py, never by hand.  Protocol on stdout: the line ``READY`` when
set-up is done (just before the first timed op), then, for the run and
trace roles, one JSON line with the raw results.

Roles:
  setup   set up and exit (run.py times several set-ups and reports the median);
  run     closed loop of whole rounds until --seconds of op time are spent;
  trace   a fixed op list twice, untraced then traced, for per-layer numbers.
"""

import argparse
import json
import os
import resource
import statistics
import sys
import time

import speed
import tracing
from workloads import ROOT, WORKLOADS, CliCold

# Rounds in one traced pass: roughly 3-10 s of untraced op time at this commit.
TRACE_ROUNDS = {"cli_cold": 1, "curve_sweep": 1, "critical_points": 10, "postbuckle": 1}
SPANS_DIR = os.path.join(ROOT, ".bench_out")
WALL_CAP = 1.5  # most wall-clock op time a run may take, in units of --seconds


def _run_op(workload, op, traced, tracer=None):
    """Time one op (traced if a tracer is given) with speed samples around it;
    check its output outside the timed and traced region.
    Returns (wall-clock seconds, reference seconds, failure or None)."""
    interval = speed.Interval()
    if tracer is not None:
        tracer.op_id, tracer.active = op["_id"], True
    try:
        result, error = workload.run(op, traced), None
    except Exception as exc:  # an op that raises is a failed op, not a crashed benchmark
        result, error = None, f"{type(exc).__name__}: {exc}"
    finally:
        if tracer is not None:
            tracer.active = False
        raw, ref = interval.stop()
    if error is None:
        try:
            errors = workload.check(op, result)
        except Exception as exc:  # output the checks cannot even read
            errors = [f"check raised {type(exc).__name__}: {exc}"]
    else:
        errors = [error]
    failure = {"op": workload.describe(op), "errors": errors} if errors else None
    return raw, ref, failure


def timed_loop(workload, seconds):
    raw_latencies, latencies, failures = [], [], []
    busy, rounds = 0.0, 0
    while True:
        for op in workload.round(rounds):
            raw, ref, failure = _run_op(workload, op, traced=False)
            raw_latencies.append(raw)
            latencies.append(ref)
            busy += ref
            if failure:
                failures.append(failure)
        rounds += 1
        # whole rounds only, so every run does the same mix of op kinds; counted
        # in reference seconds, so the machine's speed does not change the count,
        # except that a very slow phase may not stretch the run past WALL_CAP
        if busy + 0.5 * busy / rounds >= seconds or sum(raw_latencies) >= WALL_CAP * seconds:
            break
    usage = resource.RUSAGE_SELF if workload.in_process else resource.RUSAGE_CHILDREN
    rss_mb = resource.getrusage(usage).ru_maxrss / 1024.0
    return {"latencies": latencies, "raw_latencies": raw_latencies, "failures": failures,
            "rounds": rounds, "peak_rss_mb": rss_mb}


def trace_passes(workload, imports):
    ops = [op for r in range(TRACE_ROUNDS[workload.name]) for op in workload.round(r)]
    for i, op in enumerate(ops):
        op["_id"] = i
    failures = []

    def one_pass(traced, tracer=None):
        total = 0.0
        for op in ops:
            _raw, ref, failure = _run_op(workload, op, traced, tracer)
            total += ref
            if failure:
                failures.append(failure)
        return total

    untraced = one_pass(False)
    stats = tracing.LayerStats()
    tag = f"{workload.name}-seed{workload.seed}-{os.getpid()}"
    if workload.in_process:
        tracer = tracing.Tracer()
        tracer.install()
        traced = one_pass(True, tracer)
        tracer.uninstall()
        dump = tracer.dump()
        stats.add(dump)
        dumps = [dump]
    else:
        traced = one_pass(True)
        dumps = []
        for path in workload.span_files:
            with open(path, encoding="ascii") as fh:
                dumps.append(json.load(fh))
            os.unlink(path)
        for dump in dumps:
            stats.add(dump)
        imports = {
            "import.nanorod_s": statistics.median(d["import"]["nanorod_s"] for d in dumps),
            "import.modules_loaded": statistics.median(d["import"]["modules_loaded"] for d in dumps),
        }
    tracing.write_jsonl(os.path.join(SPANS_DIR, f"spans-{tag}.jsonl"),
                        ({"op": s[4], "name": s[0], "start": s[1], "end": s[2],
                          "parent": s[3], "failed": s[5]} for d in dumps for s in d["spans"]))
    metrics = stats.metrics()
    metrics.update(imports)
    metrics["trace.untraced_s"] = untraced
    metrics["trace.traced_s"] = traced
    metrics["trace.overhead_ratio"] = traced / untraced - 1.0
    return {"metrics": metrics, "ops": len(ops), "attempted": 2 * len(ops), "failures": failures}


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--role", required=True, choices=("setup", "run", "trace"))
    parser.add_argument("--ops", type=int, default=None, help="truncate every round to N ops")
    args = parser.parse_args()

    imports = {}
    cls = WORKLOADS[args.workload]
    if cls is CliCold:
        workload = CliCold(args.seed, args.ops, env=dict(os.environ), spans_dir=SPANS_DIR)
    else:
        before = len(sys.modules)
        t0 = time.perf_counter()
        import nanorod  # noqa: F401  (timed: the import every in-process user pays)

        imports = {"import.nanorod_s": time.perf_counter() - t0,
                   "import.modules_loaded": len(sys.modules) - before}
        workload = cls(args.seed, args.ops)
    workload.setup()
    print("READY", flush=True)
    if args.role == "setup":
        return
    if args.role == "run":
        result = timed_loop(workload, args.seconds)
    else:
        os.makedirs(SPANS_DIR, exist_ok=True)
        result = trace_passes(workload, imports)
    print(json.dumps(result), flush=True)


if __name__ == "__main__":
    main()
