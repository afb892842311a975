"""The benchmark logic behind ``perfbench/run.py``.

A run repeats whole passes over the workload's seeded points or requests
until ``--seconds`` is used up (always at least one pass), checks every
result, prints a human-readable table, and prints as its last line one
JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--trace 0``
reports the end-to-end metrics; ``--trace 1`` alternates untraced and
traced passes and reports the per-layer metrics, and writes the spans
as a Chrome trace under ``perfbench/out/``.  ``--workload all`` runs
the four workloads one after another in this process.  The exit code is
0 only when every check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

import catalog
import inputs
import service
import simpoints
import spans

HERE = os.path.dirname(os.path.abspath(__file__))
RUN = os.path.join(HERE, "run.py")
OUT = os.path.join(HERE, "out")
REFERENCE = os.path.join(HERE, "reference.json")
#: fresh-process set-ups per run; setup_s is their median
SETUP_REPEATS = 3
WORKLOAD_NAMES = ("suite-small", "gpu-compute", "cpu-produce", "service-mix")


@dataclass
class Pass:
    """One pass over a workload's operations."""

    traced: bool
    wall: float
    #: latencies of the operations that ran a simulation
    op_seconds: List[float]
    #: operations completed, simulated or not
    ops: int
    attempted: int
    failed: int
    layers: Dict[str, float] = field(default_factory=dict)


@dataclass
class Outcome:
    passes: List[Pass]
    problems: List[Tuple[str, str]]
    layers: Dict[str, float]
    detail: Dict[str, float] = field(default_factory=dict)


def drive(seconds: float, trace: bool,
          one_pass: Callable[[int, bool], Pass]) -> List[Pass]:
    """Run passes until *seconds* are used; a pass is started while at
    least half of it still fits.  Traced runs alternate untraced and
    traced passes and make at least one of each."""
    passes: List[Pass] = []
    start = time.perf_counter()
    while True:
        passes.append(one_pass(len(passes), trace and len(passes) % 2 == 1))
        if trace and len(passes) < 2:
            continue
        if time.perf_counter() - start + passes[-1].wall / 2 >= seconds:
            return passes


def median_layers(passes: List[Pass]) -> Dict[str, float]:
    """Per-layer metrics: median over traced passes (counts repeat
    exactly, so their median is their value), plus tracing overhead."""
    traced = [p for p in passes if p.traced]
    layers = {name: statistics.median(p.layers[name] for p in traced)
              for name in traced[0].layers}
    untraced = statistics.median(p.wall for p in passes if not p.traced)
    layers["trace.overhead_frac"] = (
        statistics.median(p.wall for p in traced) / untraced - 1.0)
    return layers


# ----------------------------------------------------------------------
# simulation workloads
# ----------------------------------------------------------------------

def sim_pass(points, reference, golden: bool, workload: str,
             recorder, problems: List[Tuple[str, str]], index: int,
             traced: bool) -> Pass:
    runs, op_seconds, failed_keys = [], [], set()
    start = time.perf_counter()
    for point in points:
        try:
            if traced:
                run = simpoints.run_point_traced(point, recorder,
                                                 f"p{index}.{point.key}")
            else:
                run = simpoints.run_point(point)
        except Exception as exc:  # counted as a failed operation
            problems.append((f"p{index}.{point.key}", repr(exc)))
            failed_keys.add(point.key)
            continue
        runs.append(run)
        op_seconds.append(run.seconds)
    wall = time.perf_counter() - start
    found = (simpoints.check_against(reference, runs, golden)
             + simpoints.check_pairs(workload, runs))
    problems.extend((f"p{index}.{key}", why) for key, why in found)
    failed_keys.update(key for key, _why in found)
    layers: Dict[str, float] = {}
    if traced:
        counts: Dict[str, float] = {}
        seconds: Dict[str, float] = {}
        for run in runs:
            simpoints.add_into(counts, run.counts)
            simpoints.add_into(seconds, run.layer_seconds)
        layers = simpoints.layer_metrics(counts, seconds)
    return Pass(traced, wall, op_seconds, len(runs), len(points),
                len(failed_keys), layers)


def load_reference(section: str) -> Dict[str, Dict]:
    with open(REFERENCE, encoding="utf-8") as handle:
        return dict(json.load(handle)[section])


def run_simulation(workload: str, seed: int, seconds: float,
                   recorder) -> Outcome:
    points = inputs.SIM_WORKLOADS[workload](seed)
    golden = workload == "suite-small"
    reference = load_reference(workload) if golden else {}
    problems: List[Tuple[str, str]] = []
    passes = drive(seconds, recorder is not None,
                   lambda index, traced: sim_pass(
                       points, reference, golden, workload, recorder,
                       problems, index, traced))
    layers = median_layers(passes) if recorder is not None else {}
    if layers:
        layers.update(dict.fromkeys(SERVICE_COUNTS, 0.0))
    return Outcome(passes, problems, layers)


# ----------------------------------------------------------------------
# service-mix
# ----------------------------------------------------------------------

#: per-layer metrics only service-mix exercises (zero elsewhere)
SERVICE_COUNTS = ("harness.cache_hit_ratio", "harness.cache_puts",
                  "serve.simulations_run", "serve.dedup_hits")


def run_service_mix(seed: int, seconds: float, recorder) -> Outcome:
    stream = inputs.service_mix(seed)
    reference = load_reference("service-mix")
    problems: List[Tuple[str, str]] = []
    service_passes = []
    os.makedirs(OUT, exist_ok=True)

    def one_pass(index: int, traced: bool) -> Pass:
        result = service.run_pass(stream, OUT,
                                  recorder if traced else None, f"p{index}")
        service_passes.append(result)
        found = service.check_pass(result, reference)
        problems.extend((f"p{index}.request{i}", why) for i, why in found)
        failed = {i for i, _why in found}
        # a pass-level count mismatch fails every request of the pass
        failed_ops = len(result.runs) if -1 in failed else len(failed)
        done = [run for run in result.runs if run.error is None]
        return Pass(traced, result.wall,
                    [run.seconds for run in done if not run.request.repeat],
                    len(done), len(result.runs), failed_ops)

    passes = drive(seconds, recorder is not None, one_pass)
    split = service.latency_split(
        [sp for sp, p in zip(service_passes, passes) if not p.traced])
    detail = {}
    for kind, values in split.items():
        if values:
            detail[f"{kind}_result_s_p50"] = statistics.median(values)
            detail[f"{kind}_result_s_p90"] = quantile(values, 0.9)
            detail[f"{kind}_result_n"] = len(values)
    layers: Dict[str, float] = {}
    if recorder is not None:
        # simulator layers: the distinct points replayed in-process and
        # traced, each checked bit-identical to the service's answer
        sim_points = inputs.service_sim_points()
        replay = sim_pass(sim_points, reference, True, "service-mix",
                          recorder, problems, len(passes), True)
        layers = dict(replay.layers)
        layers.update(median_layers(passes))
        previous = (service_passes[-2].samples
                    if len(service_passes) > 1 else {})
        served = service.serve_metrics(service_passes[-1], previous,
                                       recorder)
        for name in SERVICE_COUNTS:
            layers[name] = served.pop(name)
        detail.update(served)
        passes[-1].attempted += replay.attempted
        passes[-1].failed += replay.failed
    return Outcome(passes, problems, layers, detail)


# ----------------------------------------------------------------------
# set-up, memory, reporting
# ----------------------------------------------------------------------

def setup_once(workload: str, seed: int) -> None:
    """Everything before the first timed operation of a fresh process."""
    if workload == "service-mix":
        inputs.service_mix(seed)
        os.makedirs(OUT, exist_ok=True)
        service.start_and_stop(OUT)
    else:
        inputs.SIM_WORKLOADS[workload](seed)


def measure_setup(workload: str, seed: int) -> float:
    """Median wall time of SETUP_REPEATS fresh-process set-ups."""
    samples = []
    command = [sys.executable, RUN, "--workload",
               workload, "--seed", str(seed), "--setup-only"]
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        subprocess.run(command, check=True, timeout=120,
                       stdout=subprocess.DEVNULL)
        samples.append(time.perf_counter() - start)
    return statistics.median(samples)


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0  # Linux reports KiB


def quantile(values: List[float], q: float) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def end_to_end(outcome: Outcome, setup_s: float) -> Dict[str, float]:
    plain = [p for p in outcome.passes if not p.traced]
    return {
        "setup_s": setup_s,
        "wall_s": statistics.median(p.wall for p in plain),
        "op_s_geomean": statistics.geometric_mean(
            s for p in plain for s in p.op_seconds),
        "ops_per_s": sum(p.ops for p in plain) / sum(p.wall for p in plain),
        "peak_rss_mb": peak_rss_mb(),
    }


def print_table(title: str, values: Dict[str, float],
                units: Dict[str, str]) -> None:
    print(title)
    for name, value in values.items():
        print(f"  {name:<34} {value:>16.6g} {units.get(name, '')}")


def run_workload(workload: str, seed: int, seconds: float,
                 trace: bool) -> Dict:
    """Run one workload, print its tables; returns the result object."""
    setup_s = measure_setup(workload, seed)
    setup_once(workload, seed)
    recorder = spans.SpanRecorder() if trace else None
    if workload == "service-mix":
        outcome = run_service_mix(seed, seconds, recorder)
    else:
        outcome = run_simulation(workload, seed, seconds, recorder)
    attempted = sum(p.attempted for p in outcome.passes)
    failed = sum(p.failed for p in outcome.passes)
    metrics_e2e = end_to_end(outcome, setup_s)
    plain = [p for p in outcome.passes if not p.traced]
    detail = dict(outcome.detail)
    op_seconds = [s for p in plain for s in p.op_seconds]
    detail.update(passes=len(plain), simulated_ops=len(op_seconds),
                  op_s_p50=statistics.median(op_seconds),
                  op_s_p90=quantile(op_seconds, 0.9),
                  failed_frac=failed / attempted if attempted else 1.0)
    units = {m.name: m.unit for m in (catalog.END_TO_END + catalog.PER_LAYER
                                      + catalog.SERVICE_DETAIL)}
    print(f"== {workload} (seed {seed}, {seconds:g} s, trace "
          f"{'on' if trace else 'off'}) ==")
    print_table("end-to-end (untraced passes):", metrics_e2e, units)
    print_table("detail:", detail, units)
    if trace:
        print_table("per-layer (traced passes):", outcome.layers, units)
        os.makedirs(OUT, exist_ok=True)
        path = os.path.join(OUT, f"trace-{workload}-seed{seed}.json")
        recorder.write_chrome_trace(path, {
            "workload": workload, "seed": seed,
            "per_layer": outcome.layers, "detail": detail})
        print(f"chrome trace: {os.path.relpath(path)}")
    for key, why in outcome.problems:
        print(f"FAILED {key}: {why}")
    chosen = catalog.PER_LAYER if trace else catalog.END_TO_END
    values = outcome.layers if trace else metrics_e2e
    return {
        "correct": not outcome.problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m.name: {"value": values[m.name], "unit": m.unit}
                    for m in chosen},
    }


def parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        default=catalog.RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    if args.setup_only:
        setup_once(args.workload, args.seed)
        return 0
    workloads = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    results = {}
    for workload in workloads:
        results[workload] = run_workload(
            workload, args.seed, args.seconds, bool(args.trace))
    if len(results) == 1:
        final = results[args.workload]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}/{name}": value for w, r in results.items()
                        for name, value in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0 if final["correct"] else 1
