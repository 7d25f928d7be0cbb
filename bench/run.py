"""Benchmark of the nanorod toolkit.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from ./src.  With
--trace 0 it prints every end-to-end metric of the workload; with --trace 1
every per-layer metric and the tracing overhead.  Human-readable lines come
first; the last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.  Workloads, metrics and seeds are described
in README.md next to this file.
"""

import argparse
import json
import os
import platform
import select
import statistics
import subprocess
import sys
import time
from importlib import metadata

import speed
from tracing import LAYER_METRICS

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
WORKER = os.path.join(BENCH_DIR, "worker.py")
WORKLOAD_NAMES = ("cli_cold", "curve_sweep", "critical_points", "postbuckle")
SETUPS = 3            # set-ups per run; setup_s is their median
DEADLINE_S = 170.0    # a run that is not done by then is abandoned without a result

# The tail percentile of each workload, fixed so that runs compare: the highest
# one with at least ten samples beyond it at a 22 s run at this commit
# (cli_cold 27 ops, curve_sweep 48, critical_points ~1300, postbuckle 96).
TAIL_PERCENTILE = {"cli_cold": 60, "curve_sweep": 75, "critical_points": 99, "postbuckle": 89}

END_TO_END = (("setup_s", "s"), ("ops_per_s", "1/s"), ("op_p50_s", "s"),
              ("op_tail_s", "s"), ("peak_rss_mb", "MB"))
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
HOST_NOTE = ("whole-machine tracing and cache control are not available on a shared "
             "host; only the benchmark's own processes are measured")


class BenchError(Exception):
    pass


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    env["PYTHONHASHSEED"] = "0"
    for var in THREAD_VARS:
        env[var] = "1"
    return env


def _read_line(proc, deadline):
    remaining = deadline - time.monotonic()
    if remaining <= 0 or not select.select([proc.stdout], [], [], remaining)[0]:
        raise BenchError("worker did not answer before the deadline")
    line = proc.stdout.readline()
    if not line:
        raise BenchError(f"worker exited with code {proc.wait()} before answering")
    return line.decode().strip()


def run_worker(args, role, deadline):
    """Start one worker; return ((wall-clock, reference) seconds from spawn
    to READY, result or None)."""
    cmd = [sys.executable, WORKER, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--role", role]
    if args.ops:
        cmd += ["--ops", str(args.ops)]
    interval = speed.Interval()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE)
    try:
        if _read_line(proc, deadline) != "READY":
            raise BenchError("worker broke the READY protocol")
        setup = interval.stop()
        result = json.loads(_read_line(proc, deadline)) if role != "setup" else None
        code = proc.wait(timeout=max(deadline - time.monotonic(), 1.0))
        if code != 0:
            raise BenchError(f"worker exited with code {code}")
        return setup, result
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()


def tail(latencies, percentile):
    """Nearest-rank percentile, and how many samples lie beyond it."""
    ordered = sorted(latencies)
    rank = max(1, -(-percentile * len(ordered) // 100))
    return ordered[rank - 1], len(ordered) - rank


def machine_facts(args):
    commit = None
    head = os.path.join(ROOT, ".git", "HEAD")
    if os.path.exists(head):
        proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    versions = {}
    for package in ("numpy", "scipy"):
        try:
            versions[package] = metadata.version(package)
        except metadata.PackageNotFoundError:
            versions[package] = None
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "nproc": os.cpu_count(),
        "python": platform.python_version(), **versions, "git_commit": commit,
        "threads": {var: "1" for var in THREAD_VARS}, "note": HOST_NOTE,
    }


def end_to_end(args, deadline):
    setups = []
    for i in range(SETUPS):
        setup, result = run_worker(args, "setup" if i < SETUPS - 1 else "run", deadline)
        setups.append(setup)
    lat, raw = result["latencies"], result["raw_latencies"]
    pct = TAIL_PERCENTILE[args.workload]
    tail_s, beyond = tail(lat, pct)
    metrics = {
        "setup_s": statistics.median(ref for _raw, ref in setups),
        "ops_per_s": len(lat) / sum(lat),
        "op_p50_s": statistics.median(lat),
        "op_tail_s": tail_s,
        "peak_rss_mb": result["peak_rss_mb"],
    }
    failed = len(result["failures"])
    print(f"samples {len(lat)} ops in {result['rounds']} rounds, {sum(raw):.3f} s of wall-clock "
          f"op time; setup_s is the median of {SETUPS} set-ups")
    print(f"op_tail_s is p{pct} ({beyond} samples beyond it)")
    print("times are reference seconds (see speed.py); wall-clock: "
          f"setup_s {statistics.median(r for r, _ref in setups):.6g}, "
          f"ops_per_s {len(raw) / sum(raw):.6g}, op_p50_s {statistics.median(raw):.6g}, "
          f"op_tail_s {tail(raw, pct)[0]:.6g}")
    print(f"failed_ratio {failed}/{len(lat)} = {failed / len(lat):.6g}")
    return metrics, len(lat), result["failures"]


def per_layer(args, deadline):
    _setup_s, result = run_worker(args, "trace", deadline)
    metrics = result["metrics"]
    print(f"traced {result['ops']} ops twice; tracing overhead "
          f"{metrics['trace.traced_s'] - metrics['trace.untraced_s']:+.4f} s "
          f"({100.0 * metrics['trace.overhead_ratio']:+.2f}%) over {metrics['trace.untraced_s']:.4f} s")
    return metrics, result["attempted"], result["failures"]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--ops", type=int, default=None,
                        help="truncate every round to N ops (self-test only)")
    args = parser.parse_args()
    deadline = time.monotonic() + DEADLINE_S

    if not os.path.isfile(os.path.join(ROOT, "src", "nanorod", "__init__.py")):
        print(f"bench: no program to measure: {os.path.join('src', 'nanorod')} is missing",
              file=sys.stderr)
        return 2
    # one core for the benchmark and everything it starts, so that the speed
    # calibration loop and the op it brackets run on the same core
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    facts = machine_facts(args)
    facts["pinned_cpu"] = cpu
    try:
        if args.trace:
            metrics, attempted, failures = per_layer(args, deadline)
        else:
            metrics, attempted, failures = end_to_end(args, deadline)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 3

    units = dict(END_TO_END) if not args.trace else {n: u for n, u, _b in LAYER_METRICS}
    for name in units:
        value = metrics[name]
        shown = "null (hook target missing)" if value is None else repr(value)
        print(f"{name:45s} {shown} {units[name]}")
    for failure in failures:
        print(f"FAILED op {json.dumps(failure['op'])}: {'; '.join(failure['errors'])}")
    print(json.dumps({"machine": facts}))
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
