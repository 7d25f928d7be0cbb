"""Self-test of the benchmark; run from the root of a checkout:

    python3 bench/selftest.py

For every workload, at a tiny size, it checks that
  * an untraced run reports every end-to-end metric named in BENCHMARK.json,
    with its unit, and that all outputs pass their checks;
  * a traced run reports every per-layer metric named in BENCHMARK.json;
  * the per-layer counts (calls, failures, bytes) of two traced runs with the
    same seed are identical.
It also checks that the benchmark refuses, without a result line, to run
where the program is missing.  Exits 0 when everything holds.
"""

import json
import os
import shutil
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
TINY_OPS = {"cli_cold": 2, "curve_sweep": 1, "critical_points": 4, "postbuckle": 2}
SEED = 7


def run(args, cwd=ROOT):
    proc = subprocess.run([sys.executable, os.path.join("bench", "run.py")] + args,
                          cwd=cwd, capture_output=True, text=True, timeout=300)
    return proc.returncode, proc.stdout, proc.stderr


def result_of(args):
    code, out, err = run(args)
    if code != 0:
        raise AssertionError(f"run.py {' '.join(args)} exited {code}: {err.strip()[-300:]}")
    return json.loads(out.strip().splitlines()[-1])


def check_metrics(result, specs, label):
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{label}: result keys {sorted(result)}")
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        problems.append(f"{label}: correct={result['correct']} failed={result['failed']} "
                        f"attempted={result['attempted']}")
    for spec in specs:
        got = result["metrics"].get(spec["name"])
        if got is None or got.get("unit") != spec["unit"] or not isinstance(got.get("value"), (int, float)):
            problems.append(f"{label}: metric {spec['name']} missing or malformed: {got}")
    extra = set(result["metrics"]) - {s["name"] for s in specs}
    if extra:
        problems.append(f"{label}: metrics not in BENCHMARK.json: {sorted(extra)}")
    return problems


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        base = ["--workload", workload, "--seed", str(SEED), "--seconds", "1",
                "--ops", str(TINY_OPS[workload])]
        problems += check_metrics(result_of(base + ["--trace", "0"]), spec["end_to_end"],
                                  f"{workload} untraced")
        first = result_of(base + ["--trace", "1"])
        second = result_of(base + ["--trace", "1"])
        problems += check_metrics(first, spec["per_layer"], f"{workload} traced")
        for metric in spec["per_layer"]:
            if metric["unit"] in ("count", "bytes"):
                a = first["metrics"][metric["name"]]["value"]
                b = second["metrics"][metric["name"]]["value"]
                if a != b:
                    problems.append(f"{workload}: {metric['name']} {a} then {b} with the same seed")
        print(f"{workload}: checked", flush=True)

    # without the program the benchmark must fail and print no result
    bare = os.path.join(ROOT, ".bench_out", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH_DIR, os.path.join(bare, "bench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    code, out, _err = run(["--workload", "critical_points", "--seed", "1", "--seconds", "1",
                           "--trace", "0"], cwd=bare)
    if code == 0 or '"correct"' in out:
        problems.append(f"bare directory: exit {code}, stdout {out[-200:]!r}")
    shutil.rmtree(bare)

    for problem in problems:
        print("FAIL", problem)
    print("selftest:", "FAILED" if problems else "all checks passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
