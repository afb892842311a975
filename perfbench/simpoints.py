"""Simulated points: run, observe from outside, count and check.

A point is built, run and collected exactly as the harness does it
(a fresh :class:`IntegratedSystem` per point, caches empty at start).
The traced variant adds spans around the layer entry points the
benchmark can reach from outside - the workload's ``build_phases``, the
``IntegratedSystem`` constructor and ``Simulator.run`` - and reads the
program's section profiler for host time inside the event loop.
"""

from __future__ import annotations

import gc
import hashlib
import json
import time
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Tuple

from repro.core.metrics import RunResult
from repro.core.system import IntegratedSystem
from repro.serve.jobs import build_config
from repro.utils.profiler import PROFILER
from repro.workloads.trace import CpuPhase, KernelLaunch, OpKind

from inputs import SimPoint
from spans import UNATTRIBUTED_SECTION, SpanRecorder, profiler_layer_seconds

MEMORY_KINDS = (OpKind.LOAD, OpKind.STORE)
#: benchmark span -> per-layer metric it feeds
SPAN_LAYER = {
    "core.IntegratedSystem": "core.system_build_s",
    "workloads.build_phases": "workloads.build_s",
    "engine.Simulator.run": "engine.drain_s",
}


def digest(payload) -> str:
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:20]


def fingerprint(result: RunResult) -> Dict:
    """The reference record of one point: ticks plus stats/result digests."""
    return {"total_ticks": result.total_ticks,
            "stats": digest(result.stats),
            "result": digest(result.to_dict())}


def result_counts(result: RunResult) -> Dict[str, float]:
    """Deterministic per-layer work counts of one run, from its
    ``RunResult`` and ``stats`` (ratios are formed over pass totals)."""
    stats = result.stats

    def stat(*names: str) -> float:
        return sum(stats.get(name, 0.0) for name in names)

    return {
        "engine.events_fired": result.events_fired,
        "gpu.l1_hits": result.gpu_l1.hits,
        "gpu.l1_accesses": result.gpu_l1.accesses,
        "vm.translations": stat("cpu.mmu.translations",
                                "gpu.mmu.translations"),
        "vm.tlb_misses": stat("cpu.tlb.misses", "gpu.tlb.misses"),
        "vm.tlb_lookups": stat("cpu.tlb.misses", "gpu.tlb.misses",
                               "cpu.tlb.hits", "gpu.tlb.hits"),
        "mem.gpu_l2_accesses": result.gpu_l2.accesses,
        "mem.gpu_l2_misses": result.gpu_l2.misses,
        "mem.gpu_l2_first_touch_hits": result.gpu_l2.first_touch_hits,
        "mem.dram_accesses": result.dram_reads + result.dram_writes,
        "mem.dram_row_hits": stat("dram.row_hits"),
        "mem.dram_row_lookups": stat("dram.row_hits", "dram.row_misses",
                                     "dram.row_empty"),
        "coherence.requests": stat("hammer.gets_requests",
                                   "hammer.getx_requests",
                                   "hammer.upgrades",
                                   "hammer.uncached_loads"),
        "coherence.probes_sent": stat("hammer.probes_sent"),
        "coherence.remote_stores": stat("hammer.remote_stores"),
        "interconnect.xbar_messages": result.network_messages,
        "interconnect.xbar_bytes": result.network_bytes,
        "interconnect.ds_forwarded_stores": result.ds_forwarded_stores,
        "cpu.stores": result.cpu_stores,
        "cpu.l1d_misses": result.cpu_l1d.misses,
        "cpu.l1d_accesses": result.cpu_l1d.accesses,
        "cpu.store_buffer_stall_events": stat(
            "cpu.core.store_buffer_stall_events"),
    }


def add_into(total: Dict[str, float], part: Dict[str, float]) -> None:
    for key, value in part.items():
        total[key] = total.get(key, 0.0) + value


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(counts: Dict[str, float], seconds: Dict[str, float]
                  ) -> Dict[str, float]:
    """Per-layer metrics of one pass from its summed counts and spans."""
    drain = seconds.get("engine.drain_s", 0.0)
    events = counts.get("engine.events_fired", 0.0)
    metrics = {
        "workloads.build_s": seconds.get("workloads.build_s", 0.0),
        "workloads.ops": counts.get("workloads.ops", 0.0),
        "core.system_build_s": seconds.get("core.system_build_s", 0.0),
        "engine.events_fired": events,
        "engine.drain_s": drain,
        "engine.ns_per_event": _ratio(drain * 1e9, events),
        "engine.queue_s": seconds.get("engine.queue_s", 0.0),
        "gpu.mem_instructions": counts.get("gpu.mem_instructions", 0.0),
        "gpu.l1_hit_ratio": _ratio(counts["gpu.l1_hits"],
                                   counts["gpu.l1_accesses"]),
        "gpu.coalescer_s": seconds.get("gpu.coalescer_s", 0.0),
        "vm.translations": counts["vm.translations"],
        "vm.tlb_miss_ratio": _ratio(counts["vm.tlb_misses"],
                                    counts["vm.tlb_lookups"]),
        "vm.tlb_s": seconds.get("vm.tlb_s", 0.0),
        "mem.gpu_l2_accesses": counts["mem.gpu_l2_accesses"],
        "mem.gpu_l2_miss_ratio": _ratio(counts["mem.gpu_l2_misses"],
                                        counts["mem.gpu_l2_accesses"]),
        "mem.gpu_l2_first_touch_hits":
            counts["mem.gpu_l2_first_touch_hits"],
        "mem.dram_accesses": counts["mem.dram_accesses"],
        "mem.dram_row_hit_ratio": _ratio(counts["mem.dram_row_hits"],
                                         counts["mem.dram_row_lookups"]),
        "mem.cache_s": seconds.get("mem.cache_s", 0.0),
        "mem.mshr_s": seconds.get("mem.mshr_s", 0.0),
        "mem.dram_s": seconds.get("mem.dram_s", 0.0),
        "coherence.requests": counts["coherence.requests"],
        "coherence.probes_sent": counts["coherence.probes_sent"],
        "coherence.remote_stores": counts["coherence.remote_stores"],
        "coherence.protocol_s": seconds.get("coherence.protocol_s", 0.0),
        "interconnect.xbar_messages": counts["interconnect.xbar_messages"],
        "interconnect.xbar_bytes": counts["interconnect.xbar_bytes"],
        "interconnect.ds_forwarded_stores":
            counts["interconnect.ds_forwarded_stores"],
        "interconnect.network_s":
            seconds.get("interconnect.network_s", 0.0),
        "cpu.stores": counts["cpu.stores"],
        "cpu.l1d_miss_ratio": _ratio(counts["cpu.l1d_misses"],
                                     counts["cpu.l1d_accesses"]),
        "cpu.store_buffer_stall_events":
            counts["cpu.store_buffer_stall_events"],
        "trace.unattributed_frac": _ratio(
            seconds.get("unattributed_s", 0.0), drain),
    }
    return metrics


class _ObservedWorkload:
    """Delegates to a workload and spans its ``build_phases``."""

    def __init__(self, inner, recorder: SpanRecorder) -> None:
        self.inner = inner
        self.code = inner.code
        self.input_size = inner.input_size
        self.recorder = recorder
        self.phases: List[object] = []

    def build_phases(self, ctx):
        with self.recorder.span("workloads.build_phases"):
            self.phases = self.inner.build_phases(ctx)
        return self.phases

    def op_counts(self) -> Dict[str, float]:
        ops = memory = 0
        for phase in self.phases:
            if isinstance(phase, CpuPhase):
                ops += len(phase.ops)
            elif isinstance(phase, KernelLaunch):
                for warp in phase.warps:
                    ops += len(warp.ops)
                    memory += sum(1 for op in warp.ops
                                  if op.kind in MEMORY_KINDS)
        return {"workloads.ops": ops, "gpu.mem_instructions": memory}


@dataclass
class PointRun:
    point: SimPoint
    result: RunResult
    seconds: float
    counts: Dict[str, float] = field(default_factory=dict)
    layer_seconds: Dict[str, float] = field(default_factory=dict)


def run_point(point: SimPoint) -> PointRun:
    """Untraced: build the system, run the point, collect its result.

    The point's own garbage (the system is full of reference cycles) is
    collected inside its timing, so neither its cost nor its memory
    lands on whichever point happens to run next.
    """
    start = time.perf_counter()
    result = _run(point)
    gc.collect()
    return PointRun(point, result, time.perf_counter() - start)


def _run(point: SimPoint) -> RunResult:
    system = IntegratedSystem(build_config(point.config), point.mode)
    return system.run(point.make())


def run_point_traced(point: SimPoint, recorder: SpanRecorder,
                     run_id: str) -> PointRun:
    """Traced: the same calls, with spans and the section profiler on."""
    PROFILER.reset()
    PROFILER.enable()
    try:
        with recorder.span("point", run_id) as whole:
            with recorder.span("core.IntegratedSystem"):
                system = IntegratedSystem(build_config(point.config),
                                          point.mode)
            workload = _ObservedWorkload(point.make(), recorder)
            drain = system.simulator.run

            def traced_drain():
                with recorder.span("engine.Simulator.run"):
                    return drain()

            system.simulator.run = traced_drain
            with recorder.span("core.IntegratedSystem.run"):
                result = system.run(workload)
            op_counts = workload.op_counts()
            del system, workload
            gc.collect()
        sections = dict(PROFILER.self_seconds)
    finally:
        PROFILER.disable()
        PROFILER.reset()
    seconds = profiler_layer_seconds(sections)
    seconds["unattributed_s"] = sections.get(UNATTRIBUTED_SECTION, 0.0)
    for span in recorder.spans_of(run_id):
        layer = SPAN_LAYER.get(span.name)
        if layer is not None:
            seconds[layer] = seconds.get(layer, 0.0) + span.seconds
    counts = result_counts(result)
    counts.update(op_counts)
    return PointRun(point, result, whole.seconds, counts, seconds)


# ----------------------------------------------------------------------
# correctness
# ----------------------------------------------------------------------

def check_against(reference: Dict[str, Dict], runs: Iterable[PointRun],
                  golden: bool) -> List[Tuple[str, str]]:
    """Mismatches against recorded references.  A key missing from a
    *golden* reference is a failure; otherwise the first record of a
    key becomes its reference for later passes."""
    problems = []
    for run in runs:
        record = fingerprint(run.result)
        if golden and run.point.key not in reference:
            problems.append((run.point.key, "no golden reference"))
            continue
        expected = reference.setdefault(run.point.key, record)
        if expected != record:
            problems.append((run.point.key,
                             f"reference {expected} != measured {record}"))
    return problems


def check_pairs(workload: str, runs: List[PointRun]
                ) -> List[Tuple[str, str]]:
    """The per-workload claims over the two modes of each group."""
    by_group: Dict[str, Dict[str, RunResult]] = {}
    for run in runs:
        by_group.setdefault(run.point.group, {})[run.point.mode.value] = \
            run.result
    problems = []
    for group, modes in sorted(by_group.items()):
        ccsm, ds = modes.get("ccsm"), modes.get("direct_store")
        if ccsm is None or ds is None:
            continue
        failures = []
        if workload == "gpu-compute":
            if ccsm.total_ticks != ds.total_ticks:
                failures.append(f"modes differ: ccsm {ccsm.total_ticks} "
                                f"vs direct_store {ds.total_ticks} ticks")
            if ds.cpu_stores or ds.ds_forwarded_stores:
                failures.append("CPU stored data with producer_fraction=0")
        else:
            if ds.total_ticks > ccsm.total_ticks:
                failures.append(f"direct store hurt: {ds.total_ticks} > "
                                f"{ccsm.total_ticks} ticks")
            if ccsm.ds_forwarded_stores:
                failures.append("CCSM forwarded stores")
        if workload == "cpu-produce" and (
                ds.ds_forwarded_stores != ds.cpu_stores
                or not ds.cpu_stores):
            failures.append(f"{ds.ds_forwarded_stores} of {ds.cpu_stores} "
                            f"CPU stores forwarded")
        for failure in failures:
            problems.append((f"{group}/ccsm", failure))
            problems.append((f"{group}/direct_store", failure))
    return problems
