"""Per-component wall-time profiler for the simulator host process.

Attributes host (wall) time to named sections — coalescer, TLB, cache,
protocol (the Hammer walk), protocol_table (the table-driven probe
pass), mshr (in-flight/merge checks), dram (bank/row
timing), network (crossbar link booking), engine, trace build — so a
perf change's win is measurable inside the simulator, not only as a
whole run's wall time.

Sections nest: time spent inside an inner section is attributed to the
inner section only (*self time*), so the report's seconds column sums to
the total profiled time instead of double-counting.  The profiler is
opt-in (``--profile`` on the CLI, or ``REPRO_PROFILE=1`` in the
environment); hot paths guard their ``start``/``stop`` calls behind
``PROFILER.enabled`` so a disabled profiler costs one attribute read.

Usage::

    from repro.utils.profiler import PROFILER

    prof = PROFILER
    if prof.enabled:
        prof.start("coalescer")
    lines = coalescer.coalesce_op(op)
    if prof.enabled:
        prof.stop()

or, off the hot path, ``with PROFILER.section("trace_build"): ...``.
"""

from __future__ import annotations

import os
import time
from contextlib import contextmanager
from typing import Dict, Iterator, List

#: environment variable that enables profiling for every run in a process
PROFILE_ENV = "REPRO_PROFILE"


class Profiler:
    """A stack-based section timer with self-time attribution."""

    def __init__(self) -> None:
        self.enabled = False
        #: per-section exclusive (self) seconds
        self.self_seconds: Dict[str, float] = {}
        #: per-section entry counts
        self.calls: Dict[str, int] = {}
        # stack entries are [name, start_time, child_seconds]
        self._stack: List[list] = []

    # ------------------------------------------------------------------

    def enable(self) -> None:
        self.enabled = True

    def disable(self) -> None:
        self.enabled = False

    def reset(self) -> None:
        """Drop all recorded times (the enabled flag is untouched)."""
        self.self_seconds.clear()
        self.calls.clear()
        self._stack.clear()

    # ------------------------------------------------------------------

    def start(self, name: str) -> None:
        """Enter section *name*; no-op while disabled."""
        if not self.enabled:
            return
        self._stack.append([name, time.perf_counter(), 0.0])

    def stop(self) -> None:
        """Leave the innermost open section; no-op while disabled."""
        if not self.enabled or not self._stack:
            return
        name, started, child = self._stack.pop()
        elapsed = time.perf_counter() - started
        self.self_seconds[name] = (self.self_seconds.get(name, 0.0)
                                   + elapsed - child)
        self.calls[name] = self.calls.get(name, 0) + 1
        if self._stack:
            self._stack[-1][2] += elapsed

    @contextmanager
    def section(self, name: str) -> Iterator[None]:
        """``with PROFILER.section("trace_build"): ...``"""
        self.start(name)
        try:
            yield
        finally:
            self.stop()

    # ------------------------------------------------------------------

    @property
    def total_seconds(self) -> float:
        return sum(self.self_seconds.values())

    def report(self) -> str:
        """A fixed-width table of sections, sorted by self time."""
        total = self.total_seconds
        rows = sorted(self.self_seconds.items(), key=lambda kv: -kv[1])
        lines = [f"{'section':<14} {'calls':>12} {'self s':>10} {'%':>7}"]
        lines.append("-" * len(lines[0]))
        for name, seconds in rows:
            share = (seconds / total * 100.0) if total else 0.0
            lines.append(f"{name:<14} {self.calls.get(name, 0):>12,} "
                         f"{seconds:>10.3f} {share:>6.1f}%")
        lines.append("-" * len(lines[0]))
        lines.append(f"{'total':<14} {'':>12} {total:>10.3f}")
        return "\n".join(lines)


#: the process-wide profiler instance every component shares
PROFILER = Profiler()

if os.environ.get(PROFILE_ENV, "") not in ("", "0"):
    PROFILER.enable()
