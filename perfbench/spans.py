"""In-memory span recorder for the traced benchmark run.

A span is one timed call into a layer: name, start, end, parent span and
run id.  Every span of one simulated point or one service request shares
a run id.  Spans stay in memory while the run goes on and are written
out once, at the end, as Chrome trace-event JSON (``chrome://tracing``,
Perfetto).

Host time *inside* ``Simulator.run`` comes from one source only: the
program's own section profiler (``repro.utils.profiler.PROFILER``).  Its
sections are renamed onto the module names under ``src/repro/`` by
:data:`SECTION_LAYER`.  The ``engine`` section's self time also holds SM
warp issue and the CPU core, which have no section of their own, so it
is reported as unattributed instead of being split by guesswork.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional

#: profiler section -> per-layer metric it feeds (None: unattributed)
SECTION_LAYER: Dict[str, Optional[str]] = {
    "trace_build": None,  # measured by the workloads.build_s span instead
    "engine": None,
    "engine_batch": "engine.queue_s",
    "coalescer": "gpu.coalescer_s",
    "tlb": "vm.tlb_s",
    "cache": "mem.cache_s",
    "mshr": "mem.mshr_s",
    "dram": "mem.dram_s",
    "protocol": "coherence.protocol_s",
    "protocol_table": "coherence.protocol_s",
    "network": "interconnect.network_s",
}

#: the profiler section whose self time is reported as unattributed
UNATTRIBUTED_SECTION = "engine"


def profiler_layer_seconds(self_seconds: Dict[str, float]
                           ) -> Dict[str, float]:
    """Fold profiler self times into per-layer seconds.

    Raises ``KeyError`` for a section this map does not know, so a new
    section in the program cannot silently drop out of the table.
    """
    layers: Dict[str, float] = {}
    for section, seconds in self_seconds.items():
        layer = SECTION_LAYER[section]
        if layer is not None:
            layers[layer] = layers.get(layer, 0.0) + seconds
    return layers


@dataclass
class Span:
    span_id: int
    name: str
    run_id: str
    parent: Optional[int]
    thread: int
    start: float
    end: float = 0.0

    @property
    def seconds(self) -> float:
        return self.end - self.start


class SpanRecorder:
    """Thread-safe, in-memory span store for one benchmark process."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()
        self.origin = time.perf_counter()

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, run_id: Optional[str] = None
             ) -> Iterator[Span]:
        """Time the body; the innermost open span of this thread is the
        parent, and its run id is inherited when *run_id* is omitted."""
        stack = self._stack()
        parent = stack[-1] if stack else None
        if run_id is None:
            run_id = parent.run_id if parent is not None else ""
        with self._lock:
            span = Span(next(self._ids), name, run_id,
                        parent.span_id if parent is not None else None,
                        threading.get_ident(), 0.0)
        stack.append(span)
        span.start = time.perf_counter()
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            stack.pop()
            with self._lock:
                self.spans.append(span)

    def self_seconds(self) -> Dict[int, float]:
        """Span id -> duration minus the time its child spans cover."""
        with self._lock:
            spans = list(self.spans)
        own = {span.span_id: span.seconds for span in spans}
        for span in spans:
            if span.parent is not None and span.parent in own:
                own[span.parent] -= span.seconds
        return own

    def spans_of(self, run_id: str) -> List[Span]:
        """Every closed span of one run id."""
        with self._lock:
            return [s for s in self.spans if s.run_id == run_id]

    def write_chrome_trace(self, path: str, metadata: Dict) -> None:
        """Write every span as a Chrome trace "complete" event."""
        own = self.self_seconds()
        threads: Dict[int, int] = {}
        events = []
        with self._lock:
            spans = sorted(self.spans, key=lambda s: s.start)
        for span in spans:
            tid = threads.setdefault(span.thread, len(threads) + 1)
            events.append({
                "name": span.name, "ph": "X", "pid": 1, "tid": tid,
                "ts": (span.start - self.origin) * 1e6,
                "dur": span.seconds * 1e6,
                "args": {"run_id": span.run_id, "span_id": span.span_id,
                         "parent": span.parent,
                         "self_s": own[span.span_id]},
            })
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms",
                       "otherData": metadata}, handle)
