"""Golden ticks: the simulator's timing semantics pinned to a file.

KM, FW, LV and MT at the small input, under every
:class:`CoherenceMode`, must reproduce the committed ``total_ticks``,
``events_fired`` and a digest of the sorted statistics dump exactly.
One extra point runs VA under CCSM with the GPU next-line prefetcher
on.  Any change to the event loop, the coherence request path, the warp
memory pipeline or the memory models that moves one simulated tick or
one counter fails here.

Observation is pure: KM and FW with the tracer and the profiler both
enabled must reproduce their plain golden entries.

A change that is *meant* to move simulated behaviour regenerates the
file and says why in its description::

    PYTHONPATH=src python tests/test_golden_ticks.py --write
"""

import hashlib
import json
import sys
from pathlib import Path

import pytest

from repro.core.config import SystemConfig
from repro.core.protocol_mode import CoherenceMode
from repro.harness.runner import run_benchmark
from repro.telemetry import TRACER, TelemetrySettings
from repro.utils.profiler import PROFILER

GOLDEN_PATH = Path(__file__).resolve().parent / "data" / "golden_ticks.json"
CODES = ("KM", "FW", "LV", "MT")
OBSERVED_CODES = ("KM", "FW")
INPUT_SIZE = "small"
#: the prefetch point: code, mode and GPU next-line prefetch degree
PREFETCH_POINT = ("VA", CoherenceMode.CCSM, 2)


def stats_digest(stats) -> str:
    """sha256 over the stats dump with sorted keys and compact separators."""
    text = json.dumps(stats, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def observe(code: str, mode: CoherenceMode, prefetch_degree: int = 0,
            telemetry=None) -> dict:
    config = SystemConfig(track_values=False)
    config.gpu.prefetch_degree = prefetch_degree
    result = run_benchmark(code, INPUT_SIZE, mode, config, telemetry)
    return {"total_ticks": result.total_ticks,
            "events_fired": result.events_fired,
            "stats": stats_digest(result.stats)}


def point_key(code: str, mode: CoherenceMode,
              prefetch_degree: int = 0) -> str:
    key = f"{code}/{INPUT_SIZE}/{mode.value}"
    return f"{key}/prefetch{prefetch_degree}" if prefetch_degree else key


def load_golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text())


@pytest.mark.parametrize("mode", list(CoherenceMode), ids=lambda m: m.value)
@pytest.mark.parametrize("code", CODES)
def test_point_matches_golden(code, mode):
    want = load_golden()[point_key(code, mode)]
    assert observe(code, mode) == want


def test_prefetch_point_matches_golden():
    want = load_golden()[point_key(*PREFETCH_POINT)]
    assert observe(*PREFETCH_POINT) == want


@pytest.fixture
def observers():
    """The process-global tracer and profiler on, then off and empty."""
    TRACER.disable()
    TRACER.clear()
    PROFILER.reset()
    PROFILER.enable()
    try:
        yield
    finally:
        PROFILER.disable()
        PROFILER.reset()
        TRACER.disable()
        TRACER.clear()


@pytest.mark.parametrize("mode", list(CoherenceMode), ids=lambda m: m.value)
@pytest.mark.parametrize("code", OBSERVED_CODES)
def test_observed_point_matches_plain_golden(code, mode, observers):
    want = load_golden()[point_key(code, mode)]
    got = observe(code, mode, telemetry=TelemetrySettings(trace=True))
    assert got == want
    # both observers really watched the warp memory path
    assert any(event.category == "warp" for event in TRACER.events)
    assert PROFILER.calls.get("coalescer", 0) > 0


def write_golden() -> None:
    golden = {point_key(code, mode): observe(code, mode)
              for code in CODES for mode in CoherenceMode}
    golden[point_key(*PREFETCH_POINT)] = observe(*PREFETCH_POINT)
    GOLDEN_PATH.parent.mkdir(parents=True, exist_ok=True)
    GOLDEN_PATH.write_text(json.dumps(golden, indent=1, sort_keys=True)
                           + "\n")
    print(f"wrote {len(golden)} points to {GOLDEN_PATH}")


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_golden_ticks.py "
                 "--write")
    write_golden()
