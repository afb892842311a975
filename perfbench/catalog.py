"""What the benchmark measures, and why: workloads and metrics.

``BENCHMARK.json`` at the repository root is generated from this file
(``python3 perfbench/selfcheck.py --write-benchmark-json``) and checked
against it by ``selfcheck.py``; this file also records what the JSON
schema has no room for - each workload's generator parameters and seed
use, and each metric's layer and the end-to-end metric it should move.

Model validity: the modelled Table I machine is unvalidated against
silicon.  The only reference for its simulated numbers is the paper's
reported gem5-gpu results in EXPERIMENTS.md.  Modelled caches start
empty on every point; nothing is warmed before statistics start.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

COMMAND = ["python3", "perfbench/run.py"]
PATHS = ["perfbench"]
RUN_SECONDS = 20


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    generator: str
    seed_use: str


WORKLOADS: List[Workload] = [
    Workload(
        "suite-small",
        "the 44 Fig. 4 points (22 Table II codes x ccsm/direct_store, "
        "small input) run serially: the headline figure and every "
        "simulator layer in its real mix",
        "inputs.suite_small: TABLE2 codes x (ccsm, direct_store), "
        "input_size=small, default SystemConfig, result cache off",
        "orders the points only; Table II generators use the fixed "
        "BuildContext.seed"),
    Workload(
        "gpu-compute",
        "GPU-only SyntheticSpecs of 96-224 KiB: SM issue, coalescer, TLB "
        "and GPU caches do the work while CPU stores and forwarding idle",
        "inputs.gpu_compute: 5 specs, (footprint, reuse) at (96 KiB, 21) "
        "(128, 16) (160, 13) (192, 11) (224, 9) with footprint +-2%, "
        "compute_per_line 16-64, warps_per_sm 4-8, producer_fraction 0; "
        "each under both modes",
        "draws every spec's dials"),
    Workload(
        "cpu-produce",
        "CPU-produced 1-4 MiB buffers around the 2 MiB GPU L2: the pull "
        "path (Hammer, MSHR, DRAM, crossbar) against the forward path",
        "inputs.cpu_produce: 3 specs at ~1.25/2/3 MiB (+-2%) with "
        "producer_fraction ~0.9/0.7/0.55 (+-2%), gen_cycles 4-12, "
        "compute 0, reuse 1; each under both modes",
        "draws every spec's dials and the point order"),
    Workload(
        "service-mix",
        "2 closed-loop clients on an in-process job server: the only "
        "workload where serve and harness do most of the work",
        "inputs.service_mix: LV PT HT MT BP CH x both modes x gpu.l2_size "
        "{default, 1 MiB, 4 MiB} = 36 points once each plus 24 repeats "
        "of returned points, on a fresh temporary ResultCache, at most "
        "nproc (2) pool workers",
        "orders the requests and picks the repeats"),
]


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    layer: str
    moves: str  # the end-to-end metric and workload it should move
    bound: Optional[float] = None  # end-to-end metrics only


SIMS = "suite-small, gpu-compute, cpu-produce"

END_TO_END: List[Metric] = [
    Metric("setup_s", "s", "lower", "harness",
           "median of fresh-process set-ups: imports, input generation, "
           "server start on service-mix", 0.25),
    Metric("wall_s", "s", "lower", "harness",
           "median host seconds of one pass over the workload's points "
           "or requests", 0.25),
    Metric("op_s_geomean", "s", "lower", "harness",
           "geometric mean of host seconds per simulated operation: a "
           "point (build, run, collect), or a cold submit->result request "
           "on service-mix", 0.25),
    Metric("ops_per_s", "1/s", "higher", "harness",
           "operations completed per host second (jobs_per_s on "
           "service-mix)", 0.25),
    Metric("peak_rss_mb", "MB", "lower", "harness",
           "peak resident memory of the benchmark process or its "
           "largest worker", 0.1),
]

PER_LAYER: List[Metric] = [
    Metric("workloads.build_s", "s", "lower", "workloads",
           "op_s_geomean on gpu-compute and suite-small"),
    Metric("workloads.ops", "count", "lower", "workloads",
           "op_s_geomean on gpu-compute and suite-small"),
    Metric("core.system_build_s", "s", "lower", "core",
           "op_s_geomean on suite-small"),
    Metric("engine.events_fired", "count", "lower", "engine",
           f"wall_s on {SIMS} (SM run-ahead must cut it on gpu-compute)"),
    Metric("engine.drain_s", "s", "lower", "engine", f"wall_s on {SIMS}"),
    Metric("engine.ns_per_event", "ns", "lower", "engine",
           f"wall_s on {SIMS}"),
    Metric("engine.queue_s", "s", "lower", "engine", f"wall_s on {SIMS}"),
    Metric("gpu.mem_instructions", "count", "lower", "gpu",
           "wall_s on gpu-compute"),
    Metric("gpu.l1_hit_ratio", "ratio", "higher", "gpu",
           "wall_s on gpu-compute"),
    Metric("gpu.coalescer_s", "s", "lower", "gpu", "wall_s on gpu-compute"),
    Metric("vm.translations", "count", "lower", "vm",
           "wall_s on gpu-compute"),
    Metric("vm.tlb_miss_ratio", "ratio", "lower", "vm",
           "wall_s on gpu-compute"),
    Metric("vm.tlb_s", "s", "lower", "vm", "wall_s on gpu-compute"),
    Metric("mem.gpu_l2_accesses", "count", "lower", "mem",
           "wall_s on gpu-compute"),
    Metric("mem.gpu_l2_miss_ratio", "ratio", "lower", "mem",
           "wall_s on gpu-compute"),
    Metric("mem.gpu_l2_first_touch_hits", "count", "higher", "mem",
           "wall_s on cpu-produce (direct_store points)"),
    Metric("mem.dram_accesses", "count", "lower", "mem",
           "wall_s on cpu-produce"),
    Metric("mem.dram_row_hit_ratio", "ratio", "higher", "mem",
           "wall_s on cpu-produce"),
    Metric("mem.cache_s", "s", "lower", "mem", "wall_s on gpu-compute"),
    Metric("mem.mshr_s", "s", "lower", "mem", "wall_s on cpu-produce"),
    Metric("mem.dram_s", "s", "lower", "mem", "wall_s on cpu-produce"),
    Metric("coherence.requests", "count", "lower", "coherence",
           "wall_s on cpu-produce (ccsm points)"),
    Metric("coherence.probes_sent", "count", "lower", "coherence",
           "wall_s on cpu-produce (ccsm points)"),
    Metric("coherence.remote_stores", "count", "lower", "coherence",
           "wall_s on cpu-produce (ccsm points)"),
    Metric("coherence.protocol_s", "s", "lower", "coherence",
           "wall_s on cpu-produce (ccsm points)"),
    Metric("interconnect.xbar_messages", "count", "lower", "interconnect",
           "wall_s on cpu-produce"),
    Metric("interconnect.xbar_bytes", "bytes", "lower", "interconnect",
           "wall_s on cpu-produce"),
    Metric("interconnect.ds_forwarded_stores", "count", "lower",
           "interconnect", "wall_s on cpu-produce (direct_store points)"),
    Metric("interconnect.network_s", "s", "lower", "interconnect",
           "wall_s on cpu-produce"),
    Metric("cpu.stores", "count", "lower", "cpu", "wall_s on cpu-produce"),
    Metric("cpu.l1d_miss_ratio", "ratio", "lower", "cpu",
           "wall_s on cpu-produce"),
    Metric("cpu.store_buffer_stall_events", "count", "lower", "cpu",
           "wall_s on cpu-produce"),
    Metric("harness.cache_hit_ratio", "ratio", "higher", "harness",
           "wall_s on service-mix (warm requests)"),
    Metric("harness.cache_puts", "count", "lower", "harness",
           "op_s_geomean on service-mix (cold requests)"),
    Metric("serve.simulations_run", "count", "lower", "serve",
           "op_s_geomean on service-mix (cold requests)"),
    Metric("serve.dedup_hits", "count", "higher", "serve",
           "wall_s on service-mix (warm requests)"),
    Metric("trace.overhead_frac", "ratio", "lower", "trace",
           "none: traced wall_s over untraced wall_s, minus 1"),
    Metric("trace.unattributed_frac", "ratio", "lower", "trace",
           "none: engine-section self time (SM issue, CPU core, dispatch) "
           "as a share of engine.drain_s"),
]

#: service-mix only: printed in the per-layer table and kept in the trace
#: file, but outside the JSON result because no other workload has them
SERVICE_DETAIL: List[Metric] = [
    Metric("serve.job_wall_s_p50", "s", "lower", "serve",
           "cold_result_s_p50 on service-mix"),
    Metric("serve.http_request_s_p50", "s", "lower", "serve",
           "warm_result_s_p50 on service-mix"),
    Metric("serve.submit_s_p50", "s", "lower", "serve",
           "warm_result_s_p50 on service-mix"),
    Metric("serve.wait_s_p50", "s", "lower", "serve",
           "cold_result_s_p50 on service-mix"),
]


def benchmark_json() -> Dict:
    """The contents of ``BENCHMARK.json``."""
    return {
        "command": COMMAND,
        "paths": PATHS,
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in WORKLOADS],
        "end_to_end": [{"name": m.name, "unit": m.unit, "better": m.better,
                        "bound": m.bound} for m in END_TO_END],
        "per_layer": [{"name": m.name, "unit": m.unit, "better": m.better}
                      for m in PER_LAYER],
    }
