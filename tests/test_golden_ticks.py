"""Golden ticks: the simulator's timing semantics pinned to a file.

KM and FW at the small input, under every :class:`CoherenceMode`, must
reproduce the committed ``total_ticks``, ``events_fired`` and a digest of
the sorted statistics dump exactly.  Any change to the event loop, the
coherence request path or the memory models that moves one simulated
tick or one counter fails here.

A change that is *meant* to move simulated behaviour regenerates the
file and says why in its description::

    PYTHONPATH=src python tests/test_golden_ticks.py --write
"""

import hashlib
import json
import sys
from pathlib import Path

import pytest

from repro.core.protocol_mode import CoherenceMode
from repro.harness.runner import run_benchmark

GOLDEN_PATH = Path(__file__).resolve().parent / "data" / "golden_ticks.json"
CODES = ("KM", "FW")
INPUT_SIZE = "small"


def stats_digest(stats) -> str:
    """sha256 over the stats dump with sorted keys and compact separators."""
    text = json.dumps(stats, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def observe(code: str, mode: CoherenceMode) -> dict:
    result = run_benchmark(code, INPUT_SIZE, mode)
    return {"total_ticks": result.total_ticks,
            "events_fired": result.events_fired,
            "stats": stats_digest(result.stats)}


def point_key(code: str, mode: CoherenceMode) -> str:
    return f"{code}/{INPUT_SIZE}/{mode.value}"


def load_golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text())


@pytest.mark.parametrize("mode", list(CoherenceMode), ids=lambda m: m.value)
@pytest.mark.parametrize("code", CODES)
def test_point_matches_golden(code, mode):
    want = load_golden()[point_key(code, mode)]
    assert observe(code, mode) == want


def write_golden() -> None:
    golden = {point_key(code, mode): observe(code, mode)
              for code in CODES for mode in CoherenceMode}
    GOLDEN_PATH.parent.mkdir(parents=True, exist_ok=True)
    GOLDEN_PATH.write_text(json.dumps(golden, indent=1, sort_keys=True)
                           + "\n")
    print(f"wrote {len(golden)} points to {GOLDEN_PATH}")


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_golden_ticks.py "
                 "--write")
    write_golden()
