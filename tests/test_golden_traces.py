"""Golden traces: what every Table II workload asks the GPU to do.

For each of the 22 Table II codes at the small input, under CCSM and
direct store, the built warp traces must reproduce the committed
digests exactly.  Each warp's op stream is hashed as a sequence of
``(kind name, cycles, lines, lanes, value)`` tuples read through
``warp.ops``; a kernel's digest is the sha256 over its warps' digests in
launch order.  Any change to a trace builder, the precompiled coalesced
lines, or the trace representation that moves one lane address, line,
cycle count or store value fails here.

A change that is *meant* to move the traces regenerates the file and
says why in its description::

    PYTHONPATH=src python tests/test_golden_traces.py --write
"""

import hashlib
import json
import sys
from pathlib import Path

import pytest

from repro.core.config import SystemConfig
from repro.core.protocol_mode import CoherenceMode
from repro.core.system import IntegratedSystem
from repro.workloads.suite import benchmark_codes, get_workload
from repro.workloads.trace import KernelLaunch

GOLDEN_PATH = Path(__file__).resolve().parent / "data" / "golden_traces.json"
INPUT_SIZE = "small"
MODES = (CoherenceMode.CCSM, CoherenceMode.DIRECT_STORE)


def _plain(lanes):
    """Lane addresses as Python ints, converted in one call for arrays."""
    return lanes.tolist() if hasattr(lanes, "tolist") else lanes


def warp_digest(warp) -> bytes:
    """sha256 over one warp's ops as plain tuples, in program order."""
    stream = [(op.kind.name, op.cycles, tuple(op.lines or ()),
               tuple(map(int, _plain(op.addresses))), op.value)
              for op in warp.ops]
    return hashlib.sha256(repr(stream).encode("ascii")).digest()


def observe(code: str, mode: CoherenceMode) -> dict:
    system = IntegratedSystem(SystemConfig(track_values=False), mode)
    phases = get_workload(code, INPUT_SIZE).build_phases(
        system.build_context())
    kernels = []
    ops = 0
    for phase in phases:
        if not isinstance(phase, KernelLaunch):
            continue
        digest = hashlib.sha256()
        for warp in phase.warps:
            digest.update(warp_digest(warp))
            ops += len(warp.ops)
        kernels.append(digest.hexdigest())
    return {"ops": ops, "kernels": kernels}


def point_key(code: str, mode: CoherenceMode) -> str:
    return f"{code}/{INPUT_SIZE}/{mode.value}"


def load_golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text())


@pytest.mark.parametrize("mode", MODES, ids=lambda m: m.value)
@pytest.mark.parametrize("code", benchmark_codes())
def test_trace_matches_golden(code, mode):
    want = load_golden()[point_key(code, mode)]
    assert observe(code, mode) == want


def write_golden() -> None:
    golden = {point_key(code, mode): observe(code, mode)
              for code in benchmark_codes() for mode in MODES}
    GOLDEN_PATH.parent.mkdir(parents=True, exist_ok=True)
    GOLDEN_PATH.write_text(json.dumps(golden, indent=1, sort_keys=True)
                           + "\n")
    print(f"wrote {len(golden)} points to {GOLDEN_PATH}")


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_golden_traces.py "
                 "--write")
    write_golden()
