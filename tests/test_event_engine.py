"""Event-lifecycle and run-loop tests.

Three kinds of coverage for :class:`EventQueue` and the simulator's
run loop:

* the :class:`Event` single-use contract (schedule → cancel →
  re-schedule must raise, not corrupt the queue's accounting);
* fixed-seed property-style tests driving the queue through random
  interleavings of schedule / post / cancel / compaction, drained by
  :meth:`Simulator.run`, against a naive sorted-list reference model;
* same-tick cancellation and the exact event/tick at which each
  budget trips.
"""

import itertools
import random

import pytest

from repro.engine.event import Event, EventQueue
from repro.engine.simulator import SimulationLimitError, Simulator

# a single queue implementation; the id keeps the test names stable
QUEUE_CLASSES = [EventQueue]
QUEUE_IDS = ["python-heap"]


# ----------------------------------------------------------------------
# the Event lifecycle contract
# ----------------------------------------------------------------------


@pytest.mark.parametrize("queue_class", QUEUE_CLASSES, ids=QUEUE_IDS)
class TestEventContract:
    def test_rescheduling_a_fired_event_raises(self, queue_class):
        queue = queue_class()
        event = queue.schedule_at(5, lambda: None)
        assert queue.pop_entry() is not None
        assert event.fired
        with pytest.raises(ValueError, match="fired"):
            queue.schedule(event)

    def test_scheduling_a_cancelled_event_raises(self, queue_class):
        queue = queue_class()
        event = Event(5, lambda: None)
        event.cancel()
        with pytest.raises(ValueError, match="cancelled"):
            queue.schedule(event)

    def test_rescheduling_a_queued_event_raises(self, queue_class):
        queue = queue_class()
        event = queue.schedule_at(5, lambda: None)
        with pytest.raises(ValueError, match="already scheduled"):
            queue.schedule(event)

    def test_rescheduling_a_cancelled_queued_event_raises(self, queue_class):
        # the regression that motivated the contract: schedule → cancel →
        # schedule again used to corrupt the live/dead accounting
        queue = queue_class()
        event = queue.schedule_at(5, lambda: None)
        event.cancel()
        with pytest.raises(ValueError):
            queue.schedule(event)
        assert len(queue) == 0
        assert queue.pop_entry() is None

    def test_cancel_then_fresh_event_is_the_supported_reschedule(
            self, queue_class):
        queue = queue_class()
        fired = []
        first = queue.schedule_at(5, lambda: fired.append("old"))
        first.cancel()
        queue.schedule_at(3, lambda: fired.append("new"))
        while queue.pop_entry() is not None:
            pass
        assert queue.current_tick == 3

    def test_cancel_after_fire_is_a_silent_noop(self, queue_class):
        queue = queue_class()
        event = queue.schedule_at(5, lambda: None)
        queue.pop_entry()
        event.cancel()  # must not raise or skew the live count
        assert len(queue) == 0

    def test_past_tick_schedule_raises(self, queue_class):
        queue = queue_class()
        queue.post_at(10, lambda: None)
        queue.pop_entry()
        assert queue.current_tick == 10
        with pytest.raises(ValueError, match="past"):
            queue.schedule_at(9, lambda: None)
        with pytest.raises(ValueError, match="past"):
            queue.post_at(9, lambda: None)
        with pytest.raises(ValueError, match="negative delay"):
            queue.post_after(-1, lambda: None)


# ----------------------------------------------------------------------
# property-style: random interleavings vs a naive reference model
# ----------------------------------------------------------------------


class NaiveQueue:
    """Reference model: a plain list sorted at drain time.

    Mirrors the queue API surface the property test uses; every insert
    consumes one sequence number, exactly like the real queue, so the
    expected fire order is ``sorted by (tick, seq)`` minus cancellations.
    """

    def __init__(self):
        self.cells = []
        self._seq = itertools.count()

    def add(self, tick, label):
        cell = {"tick": tick, "seq": next(self._seq), "label": label,
                "cancelled": False}
        self.cells.append(cell)
        return cell

    def fire_order(self):
        live = [cell for cell in self.cells if not cell["cancelled"]]
        live.sort(key=lambda cell: (cell["tick"], cell["seq"]))
        return [cell["label"] for cell in live]


def _drain_per_event(queue):
    """Drain *queue* through the simulator's run loop."""
    sim = Simulator()
    sim.queue = queue
    sim.run()


@pytest.mark.parametrize("queue_class", QUEUE_CLASSES, ids=QUEUE_IDS)
@pytest.mark.parametrize("drain", [_drain_per_event], ids=["per-event"])
@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_random_interleaving_matches_reference(queue_class, drain, seed):
    rng = random.Random(seed)
    queue = queue_class()
    reference = NaiveQueue()
    fired = []
    handles = []  # (event, reference_cell) pairs still cancellable

    for step in range(600):
        roll = rng.random()
        if roll < 0.35:
            tick = rng.randrange(0, 40)
            label = f"e{step}"
            event = queue.schedule_at(
                tick, lambda label=label: fired.append(label), name=label)
            handles.append((event, reference.add(tick, label)))
        elif roll < 0.60:
            tick = rng.randrange(0, 40)
            label = f"p{step}"
            queue.post_at(tick, lambda label=label: fired.append(label))
            reference.add(tick, label)
        elif roll < 0.70:
            delay = rng.randrange(0, 40)
            label = f"d{step}"
            queue.post_after(delay, lambda label=label: fired.append(label))
            reference.add(delay, label)  # current_tick is 0 pre-drain
        elif handles:
            # cancel a random pending event (repeat cancels included) —
            # heavy enough to trip compaction (>64 dead, dead > live)
            event, cell = handles[rng.randrange(len(handles))]
            event.cancel()
            cell["cancelled"] = True

    drain(queue)
    assert fired == reference.fire_order()
    assert len(queue) == 0
    assert queue.pop_entry() is None


@pytest.mark.parametrize("queue_class", QUEUE_CLASSES, ids=QUEUE_IDS)
def test_compaction_is_triggered_and_preserves_order(queue_class):
    queue = queue_class()
    fired = []
    victims = [queue.schedule_at(tick, lambda: fired.append("victim"))
               for tick in range(200)]
    queue.post_at(500, lambda: fired.append("survivor"))
    for victim in victims:
        victim.cancel()  # 200 dead vs 1 live: compaction must kick in
    assert len(queue) == 1
    assert queue.peek_tick() == 500
    _drain_per_event(queue)
    assert fired == ["survivor"]


# ----------------------------------------------------------------------
# same-tick cancellation and budgets
# ----------------------------------------------------------------------


def test_same_tick_cancellation_is_honoured():
    # cancelling an already-fired same-tick event is a no-op
    queue = EventQueue()
    fired = []
    b = queue.schedule_at(5, lambda: fired.append("b"), name="b")
    queue.schedule_at(5, lambda: (b.cancel(), fired.append("a")), name="a")
    _drain_per_event(queue)
    assert fired == ["b", "a"]

    # A (tick 5, earlier seq) cancels B (tick 5, later seq): B is already
    # due when A runs, and must still be skipped
    queue = EventQueue()
    fired = []
    queue.post_at(5, lambda: (victim.cancel(), fired.append("a")))
    victim = queue.schedule_at(5, lambda: fired.append("b"), name="b")
    _drain_per_event(queue)
    assert fired == ["a"]


def _budget_workload(queue):
    """A chain of 20 one-per-tick events."""
    fired = []

    def step(i):
        fired.append(i)
        if i < 19:
            queue.post_after(1, lambda: step(i + 1))

    queue.post_at(0, lambda: step(0))
    return fired


def test_event_budget_trips_on_the_first_event_over_budget():
    sim = Simulator(max_events=7)
    fired = _budget_workload(sim.queue)
    with pytest.raises(SimulationLimitError,
                       match=r"event budget exceeded \(7\)"):
        sim.run()
    # seven events fire; the eighth, at tick 7, is counted and refused
    assert fired == list(range(7))
    assert sim.events_fired == 8
    assert sim.now == 7


def test_tick_budget_trips_on_the_first_event_past_the_budget():
    sim = Simulator(max_ticks=10)
    fired = _budget_workload(sim.queue)
    with pytest.raises(SimulationLimitError,
                       match=r"tick budget exceeded: 11 > 10"):
        sim.run()
    # ticks 0..10 fire; the event at tick 11 is refused before it runs
    assert fired == list(range(11))
    assert sim.events_fired == 11
    assert sim.now == 11
