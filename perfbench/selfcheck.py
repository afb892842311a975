#!/usr/bin/env python3
"""Self-checks of the benchmark itself.

    python3 perfbench/selfcheck.py [--workloads W1,W2] [--seed 7]
    python3 perfbench/selfcheck.py --write-benchmark-json

1. ``BENCHMARK.json`` matches :mod:`catalog` (``--write-benchmark-json``
   regenerates it from there).
2. Determinism: one seed gives equal inputs twice, and two traced runs
   of it report exactly equal deterministic per-layer counts.
3. Held-out seed: the next seed gives different synthetic inputs (or a
   different order, where the seed only orders) and passes every
   correctness check.

Reports every failure and exits non-zero if there was any.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import catalog  # noqa: E402
import inputs  # noqa: E402

BENCHMARK_JSON = os.path.join(ROOT, "BENCHMARK.json")
#: per-layer metrics that must repeat exactly for one seed
DETERMINISTIC = [m.name for m in catalog.PER_LAYER
                 if m.unit in ("count", "bytes", "ratio")
                 and m.layer != "trace"]


def input_digest(workload: str, seed: int):
    if workload == "service-mix":
        return [(r.key, r.repeat) for r in inputs.service_mix(seed)]
    return [(p.key, sorted(p.params.items()))
            for p in inputs.SIM_WORKLOADS[workload](seed)]


def traced_run(workload: str, seed: int) -> dict:
    command = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
               workload, "--seed", str(seed), "--seconds", "1",
               "--trace", "1"]
    done = subprocess.run(command, cwd=ROOT, capture_output=True,
                          text=True, timeout=600)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(command)} exited "
                           f"{done.returncode}: {done.stderr[-2000:]}")
    return json.loads(lines[-1])


def check_workload(workload: str, seed: int) -> list:
    problems = []
    if input_digest(workload, seed) != input_digest(workload, seed):
        problems.append("same seed gave different inputs")
    if input_digest(workload, seed) == input_digest(workload, seed + 1):
        problems.append("a second seed gave the same inputs")
    first, second, held_out = (traced_run(workload, s)
                               for s in (seed, seed, seed + 1))
    for name in DETERMINISTIC:
        a, b = (r["metrics"][name]["value"] for r in (first, second))
        if a != b:
            problems.append(f"{name} differs across runs of seed {seed}: "
                            f"{a} != {b}")
    for label, result in (("seed", first), ("repeat", second),
                          ("held-out seed", held_out)):
        if not result["correct"] or result["failed"]:
            problems.append(f"{label} run failed {result['failed']} of "
                            f"{result['attempted']} operations")
    return problems


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads",
                        default=",".join(w.name for w in catalog.WORKLOADS))
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--write-benchmark-json", action="store_true")
    args = parser.parse_args()
    expected = catalog.benchmark_json()
    if args.write_benchmark_json:
        with open(BENCHMARK_JSON, "w", encoding="utf-8") as handle:
            json.dump(expected, handle, indent=2)
            handle.write("\n")
        return 0
    failed = False
    with open(BENCHMARK_JSON, encoding="utf-8") as handle:
        if json.load(handle) != expected:
            print("BENCHMARK.json differs from perfbench/catalog.py")
            failed = True
    for workload in args.workloads.split(","):
        problems = check_workload(workload, args.seed)
        print(f"{workload}: {'ok' if not problems else 'FAILED'}")
        for problem in problems:
            print(f"  {problem}")
        failed = failed or bool(problems)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
