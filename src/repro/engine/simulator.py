"""The simulation run loop.

:meth:`Simulator.run` pops one event at a time and fires it; an
interval sampler, when attached, interleaves with the same per-event
loop (:meth:`Simulator._run_sampled`), and :meth:`Simulator.run_until`
drains up to a tick.  Event and tick budgets trip on exactly the event
that exceeds them.
"""

from __future__ import annotations

import gc
from typing import Optional

from repro.engine.event import EventQueue
from repro.utils.profiler import PROFILER


class SimulationLimitError(RuntimeError):
    """Raised when a run exceeds its event or tick budget.

    A budget overrun almost always means a component deadlocked and is
    rescheduling itself forever, so we fail loudly instead of spinning.
    """


class Simulator:
    """Drives an :class:`~repro.engine.event.EventQueue` to exhaustion.

    The simulator is intentionally minimal: components schedule events
    against :attr:`queue`; :meth:`run` fires them in order until the queue
    drains or a budget trips.
    """

    def __init__(self, max_events: int = 200_000_000,
                 max_ticks: Optional[int] = None) -> None:
        self.queue = EventQueue()
        self.max_events = max_events
        self.max_ticks = max_ticks
        self.events_fired = 0
        #: optional IntervalSampler driven inline from the run loop.
        #: When ``None`` the loop is byte-for-byte the seed hot path.
        self.sampler = None

    @property
    def now(self) -> int:
        """Current simulation tick."""
        return self.queue.current_tick

    def run(self) -> int:
        """Fire events until the queue is empty; return the final tick.

        When profiling is enabled, the whole event loop is attributed to
        the ``engine`` section; sections opened by event callbacks
        (coalescer, TLB, cache, protocol) subtract themselves from the
        engine's self time.
        """
        loop = self._run if self.sampler is None else self._run_sampled
        # The loop allocates heavily (heap entries, closures, results)
        # but the cyclic collector never finds anything load-bearing to
        # free mid-run — its periodic scans are pure pause time, ~15% of
        # the loop on event-heavy benchmarks.  Suspend it for the run;
        # refcounting still reclaims the bulk of the garbage immediately.
        gc_was_enabled = gc.isenabled()
        if gc_was_enabled:
            gc.disable()
        try:
            prof = PROFILER
            if not prof.enabled:
                return loop()
            prof.start("engine")
            try:
                return loop()
            finally:
                prof.stop()
        finally:
            if gc_was_enabled:
                gc.enable()

    def _run(self) -> int:
        """The event loop: one heap pop per event.

        The loop binds everything it touches to locals — each iteration
        is a handful of bytecodes around the callback, which matters when
        a benchmark fires tens of millions of events.  ``events_fired``
        is synchronised back on every exit path.
        """
        queue = self.queue
        pop_entry = queue.pop_entry
        max_events = self.max_events
        max_ticks = self.max_ticks
        fired = self.events_fired
        try:
            if max_ticks is None:
                while True:
                    entry = pop_entry()
                    if entry is None:
                        return queue.current_tick
                    fired += 1
                    if fired > max_events:
                        raise SimulationLimitError(
                            f"event budget exceeded ({max_events}); "
                            "likely a scheduling livelock")
                    entry[3]()
            while True:
                entry = pop_entry()
                if entry is None:
                    return queue.current_tick
                if entry[0] > max_ticks:
                    raise SimulationLimitError(
                        f"tick budget exceeded: {entry[0]} > {max_ticks}")
                fired += 1
                if fired > max_events:
                    raise SimulationLimitError(
                        f"event budget exceeded ({max_events}); "
                        "likely a scheduling livelock")
                entry[3]()
        finally:
            self.events_fired = fired

    def _run_sampled(self) -> int:
        """Event loop with inline interval sampling.

        Samples are taken between events — the sampler posts nothing on
        the queue — so the event sequence, every tick, and every
        component statistic are identical to the unsampled loop.  Each
        boundary crossed before the next event's tick is sampled first,
        giving the boundary sample a view of counters covering exactly
        ``[boundary - interval, boundary)``.
        """
        queue = self.queue
        peek = queue.peek_tick
        pop_entry = queue.pop_entry
        sampler = self.sampler
        max_events = self.max_events
        max_ticks = self.max_ticks
        fired = self.events_fired
        try:
            while True:
                next_tick = peek()
                if next_tick is None:
                    return queue.current_tick
                if next_tick >= sampler.next_tick:
                    sampler.advance_to(next_tick)
                if max_ticks is not None and next_tick > max_ticks:
                    raise SimulationLimitError(
                        f"tick budget exceeded: {next_tick} > {max_ticks}")
                entry = pop_entry()
                assert entry is not None
                fired += 1
                if fired > max_events:
                    raise SimulationLimitError(
                        f"event budget exceeded ({max_events}); "
                        "likely a scheduling livelock")
                entry[3]()
        finally:
            self.events_fired = fired

    def run_until(self, tick: int) -> int:
        """Fire events up to and including *tick*; return the current tick."""
        queue = self.queue
        peek = queue.peek_tick
        pop_entry = queue.pop_entry
        max_events = self.max_events
        fired = self.events_fired
        try:
            while True:
                next_tick = peek()
                if next_tick is None or next_tick > tick:
                    return queue.current_tick
                entry = pop_entry()
                assert entry is not None
                fired += 1
                if fired > max_events:
                    raise SimulationLimitError(
                        f"event budget exceeded ({max_events})")
                entry[3]()
        finally:
            self.events_fired = fired
