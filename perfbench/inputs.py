"""Seeded inputs for the four benchmark workloads.

Each generator takes the benchmark seed and returns only what the
program is handed: Table II codes, :class:`SyntheticSpec` dials, or
service request payloads.  The same seed gives the same inputs.

The synthetic generators draw each spec around a fixed design point (a
2% jitter of its size, plus free occupancy, arithmetic intensity and
generation cost), so every seed exercises the same layers with nearly
the same amount of simulated work, which keeps host times comparable
across seeds, while still handing the program inputs it has not seen.
"""

from __future__ import annotations

import random
from dataclasses import asdict, dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.core.protocol_mode import CoherenceMode
from repro.workloads.base import Workload
from repro.workloads.suite import TABLE2, get_workload
from repro.workloads.synthetic import SyntheticProducerConsumer, SyntheticSpec

KIB = 1024
MIB = 1024 * KIB
MODES = (CoherenceMode.CCSM, CoherenceMode.DIRECT_STORE)

#: gpu-compute: (footprint KiB, reuse) design points; footprint x reuse
#: stays near 2 MiB so every spec streams about the same data
GPU_POINTS = ((96, 21), (128, 16), (160, 13), (192, 11), (224, 9))
#: cpu-produce: (footprint MiB, producer fraction) design points that
#: sit below, on and above the 2 MiB GPU L2
CPU_POINTS = ((1.25, 0.9), (2.0, 0.7), (3.0, 0.55))
#: relative jitter of each design point's footprint and producer fraction
JITTER = 0.02

#: service-mix: cheap Table II codes x modes x these config overrides
SERVICE_CODES = ("LV", "PT", "HT", "MT", "BP", "CH")
SERVICE_CONFIGS: Tuple[Optional[Dict[str, Any]], ...] = (
    None, {"gpu": {"l2_size": 1 * MIB}}, {"gpu": {"l2_size": 4 * MIB}})
#: repeats per pass, each of a point whose first request has returned
SERVICE_REPEATS = 24


@dataclass(frozen=True)
class SimPoint:
    """One simulated (workload, mode) point."""

    key: str  # stable id, e.g. "KM/ccsm" or "s2/direct_store"
    group: str  # the code or spec id the two modes share
    mode: CoherenceMode
    make: Callable[[], Workload] = field(compare=False)
    params: Dict[str, Any] = field(default_factory=dict, compare=False)
    #: SystemConfig overrides in the service's payload form (None: default)
    config: Optional[Dict[str, Any]] = field(default=None, compare=False)


def _pair(group: str, make: Callable[[], Workload],
          params: Dict[str, Any]) -> List[SimPoint]:
    return [SimPoint(f"{group}/{mode.value}", group, mode, make, params)
            for mode in MODES]


def _jitter(rng: random.Random, value: float) -> float:
    return value * rng.uniform(1.0 - JITTER, 1.0 + JITTER)


def _synthetic(spec: SyntheticSpec) -> Callable[[], Workload]:
    return lambda: SyntheticProducerConsumer(spec)


def suite_small(seed: int) -> List[SimPoint]:
    """The 44 Fig. 4 points; the seed only orders them."""
    points: List[SimPoint] = []
    for row in TABLE2:
        points.extend(_pair(row.code,
                            lambda code=row.code: get_workload(code, "small"),
                            {"code": row.code, "input_size": "small"}))
    random.Random(seed).shuffle(points)
    return points


def gpu_compute(seed: int) -> List[SimPoint]:
    """GPU-only specs: the CPU produces nothing, data fits the SM L1s."""
    rng = random.Random(seed)
    points: List[SimPoint] = []
    for index, (kib, reuse) in enumerate(GPU_POINTS):
        spec = SyntheticSpec(
            footprint_bytes=4 * KIB * round(_jitter(rng, kib) / 4),
            compute_per_line=rng.randint(16, 64),
            reuse=reuse,
            warps_per_sm=rng.randint(4, 8),
            producer_fraction=0.0)
        points.extend(_pair(f"g{index}", _synthetic(spec), asdict(spec)))
    rng.shuffle(points)
    return points


def cpu_produce(seed: int) -> List[SimPoint]:
    """CPU-produced buffers of 1-4 MiB streamed once by the GPU."""
    rng = random.Random(seed)
    points: List[SimPoint] = []
    for index, (mib, fraction) in enumerate(CPU_POINTS):
        spec = SyntheticSpec(
            footprint_bytes=32 * KIB * round(_jitter(rng, mib) * 32),
            compute_per_line=0,
            reuse=1,
            producer_fraction=round(_jitter(rng, fraction), 3),
            gen_cycles=rng.randint(4, 12))
        points.extend(_pair(f"c{index}", _synthetic(spec), asdict(spec)))
    rng.shuffle(points)
    return points


@dataclass(frozen=True)
class Request:
    """One service request; *repeat* marks a point already returned."""

    payload: Dict[str, Any]
    key: str
    repeat: bool


def service_key(code: str, mode: str,
                config: Optional[Dict[str, Any]]) -> str:
    l2 = (config or {}).get("gpu", {}).get("l2_size")
    return f"{code}/{mode}" + (f"/l2={l2 // KIB}K" if l2 else "")


def service_points() -> List[Tuple[str, Dict[str, Any]]]:
    """Every distinct (key, payload) the service-mix stream draws from."""
    points = []
    for code in SERVICE_CODES:
        for mode in MODES:
            for config in SERVICE_CONFIGS:
                payload: Dict[str, Any] = {"code": code,
                                           "input_size": "small",
                                           "mode": mode.value}
                if config is not None:
                    payload["config"] = config
                points.append((service_key(code, mode.value, config),
                               payload))
    return points


def service_mix(seed: int) -> List[Request]:
    """Each distinct point once, in seeded order, with SERVICE_REPEATS
    repeats inserted at least two requests after their first request."""
    rng = random.Random(seed)
    firsts = service_points()
    rng.shuffle(firsts)
    slots = set(rng.sample(range(2, len(firsts)), SERVICE_REPEATS))
    stream: List[Request] = []
    for index, (key, payload) in enumerate(firsts):
        if index in slots:
            old_key, old_payload = rng.choice(firsts[:index - 1])
            stream.append(Request(old_payload, old_key, True))
        stream.append(Request(payload, key, False))
    return stream


def service_sim_points() -> List[SimPoint]:
    """The service-mix points as in-process points (same config build)."""
    return [SimPoint(key, key, CoherenceMode(payload["mode"]),
                     lambda code=payload["code"]: get_workload(code, "small"),
                     payload, payload.get("config"))
            for key, payload in service_points()]


SIM_WORKLOADS: Dict[str, Callable[[int], List[SimPoint]]] = {
    "suite-small": suite_small,
    "gpu-compute": gpu_compute,
    "cpu-produce": cpu_produce,
}
