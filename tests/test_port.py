"""Tests for the event-driven coherent port (MSHR merge / park / accept)."""

import hashlib
import json
import random

import pytest

from repro.coherence.hammer import CoherentAgent, HammerSystem
from repro.coherence.port import CoherentPort
from repro.engine.clock import ClockDomain
from repro.engine.simulator import Simulator
from repro.interconnect.network import Crossbar
from repro.mem.cache import SetAssociativeCache
from repro.mem.dram import DramConfig, DramModel
from repro.mem.memimage import MemoryImage


def build():
    clock = ClockDomain("mem", 1e9)
    network = Crossbar("net", clock, ["cpu", "memctrl"])
    dram = DramModel(DramConfig(size_bytes=16 * 1024 * 1024))
    system = HammerSystem(network, dram, MemoryImage(), clock)
    agent = CoherentAgent("cpu", SetAssociativeCache("c", 8 * 1024, 4),
                          clock, 10)
    system.add_agent(agent)
    sim = Simulator()
    port = CoherentPort("cpu.port", "cpu", system, sim.queue, num_mshrs=2)
    return system, sim, port


class TestBasicCompletion:
    def test_load_callback_fires(self):
        _system, sim, port = build()
        results = []
        port.load(0x1000, results.append)
        sim.run()
        assert len(results) == 1
        assert not results[0].hit

    def test_hit_completes_quickly(self):
        _system, sim, port = build()
        results = []
        port.load(0x1000, results.append)
        sim.run()
        port.load(0x1000, results.append)
        sim.run()
        assert results[1].hit

    def test_store_value_lands(self):
        system, sim, port = build()
        done = []
        port.store(0x2000, 42, done.append)
        sim.run()
        line = system.agents["cpu"].cache.probe(0x2000)
        assert line.data[0] == 42


class TestMerging:
    def test_same_line_requests_merge(self):
        system, sim, port = build()
        results = []
        port.load(0x1000, results.append)
        port.load(0x1004, results.append)  # same line, still in flight
        sim.run()
        assert len(results) == 2
        assert port.mshrs.stats.counter("merges").value == 1
        # only one actual fetch happened
        assert system.stats.counter("gets_requests").value == 1

    def test_merged_request_sees_resident_line(self):
        _system, sim, port = build()
        results = []
        port.load(0x1000, results.append)
        port.load(0x1004, results.append)
        sim.run()
        assert results[1].hit  # replayed after the fill


class TestParkOnFull:
    def test_excess_requests_park_and_complete(self):
        system, sim, port = build()  # 2 MSHRs
        results = []
        for index in range(5):
            port.load(0x1000 + index * 128, results.append)
        sim.run()
        assert len(results) == 5
        # each distinct line was fetched exactly once
        assert system.stats.counter("gets_requests").value == 5

    def test_acceptance_deferred_until_unparked(self):
        _system, sim, port = build()
        accepted = []
        for index in range(4):
            port.store(0x1000 + index * 128, index,
                       lambda _r: None,
                       on_accept=lambda index=index: accepted.append(index))
        # nothing has run yet
        assert accepted == []
        sim.run()
        assert sorted(accepted) == [0, 1, 2, 3]


# ----------------------------------------------------------------------
# pinned random mixes: merges, MSHR-full parking and bank conflicts
# ----------------------------------------------------------------------

LINE = 128


def build_pair(num_mshrs, banks):
    """A CPU and a GPU agent, each behind its own port, on small DRAM."""
    clock = ClockDomain("mem", 1e9)
    network = Crossbar("net", clock, ["cpu", "gpu0", "memctrl"])
    dram = DramModel(DramConfig(size_bytes=16 * 1024 * 1024,
                                ranks_per_channel=1,
                                banks_per_rank=banks))
    system = HammerSystem(network, dram, MemoryImage(), clock)
    system.add_agent(CoherentAgent(
        "cpu", SetAssociativeCache("cpu.l2", 4 * 1024, 2), clock, 10))
    system.add_agent(CoherentAgent(
        "gpu0", SetAssociativeCache("gpu0.l2", 4 * 1024, 2), clock, 8))
    sim = Simulator()
    ports = {name: CoherentPort(f"{name}.port", name, system, sim.queue,
                                num_mshrs=num_mshrs)
             for name in ("cpu", "gpu0")}
    return system, sim, ports


def run_trial(seed, num_mshrs, banks, n_ops=240):
    """One fixed-seed random run; returns every observable output.

    Returns ``(log, final tick, events fired, stats, peak parked)``.
    The log holds one entry per completion callback (label, fire tick,
    ready tick, hit flag, value, data source) and one per store
    acceptance (label, tick).
    """
    rng = random.Random(seed)
    system, sim, ports = build_pair(num_mshrs, banks)
    log = []
    # a small pool of lines makes same-line races routine; the stride
    # spreads the pool across DRAM rows and banks so revisits conflict
    lines = [index * (2048 + LINE) for index in range(12)]
    tick = 0
    # peak MSHR-full parking depth, sampled whenever any callback fires
    parked = [0]

    def make_cb(label):
        def callback(result):
            depth = max(len(port._waiting) for port in ports.values())
            if depth > parked[0]:
                parked[0] = depth
            log.append((label, sim.queue.current_tick, result.ready_tick,
                        result.hit, result.value, result.source))
        return callback

    for step in range(n_ops):
        # zero-increment rolls cluster several issues on one tick:
        # that is what exercises in-flight merges and MSHR-full parking
        tick += rng.randrange(0, 3)
        port = ports[rng.choice(("cpu", "gpu0"))]
        address = rng.choice(lines) + rng.randrange(0, LINE // 4) * 4
        roll = rng.random()
        if roll < 0.20:
            # a coalesced multi-line batch (distinct lines, as the
            # coalescer guarantees), possibly racing in-flight lines
            chosen = rng.sample(lines, rng.randrange(2, 5))
            requests = [(line + 4 * index, make_cb(f"b{step}.{index}"))
                        for index, line in enumerate(chosen)]
            sim.queue.post_at(
                tick,
                lambda port=port, requests=requests:
                port.load_batch(requests))
        elif roll < 0.55:
            sim.queue.post_at(
                tick,
                lambda port=port, address=address, cb=make_cb(f"l{step}"):
                port.load(address, cb))
        else:
            value = rng.randrange(1 << 16)
            on_accept = None
            if rng.random() < 0.5:
                def on_accept(label=f"a{step}"):
                    log.append((label, sim.queue.current_tick))
            sim.queue.post_at(
                tick,
                lambda port=port, address=address, value=value,
                cb=make_cb(f"s{step}"), on_accept=on_accept:
                port.store(address, value, cb, on_accept=on_accept))
    sim.run()

    stats = {}
    stats.update(system.stats.dump())
    stats.update(system.dram.stats.dump())
    stats.update(system.network.stats.dump())
    for port in ports.values():
        stats.update(port.mshrs.stats.dump())
    for agent in system.agents.values():
        stats.update(agent.cache.stats.dump())
    return log, sim.now, sim.events_fired, stats, parked[0]


def digest(payload) -> str:
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:20]


#: (final tick, events fired, log digest, stats digest) per shape/seed
PINNED_MIXES = {
    (2, 2, 0): (1076500, 626, "ecddb3afd192872b9c89",
                "116078207d10ee91a673"),
    (2, 2, 1): (882500, 631, "6b8dc7657bb459e1afd7",
                "756b7f59926dcba52d16"),
    (2, 2, 2): (824000, 634, "4f3fa7807b80bc38ffba",
                "beb2cbb99c6aeb99ddad"),
    (4, 2, 0): (472750, 626, "58861531e1640b9ba37a",
                "1194262893b0322e6ec8"),
    (4, 2, 1): (454000, 631, "47ec8df15fa9bdf181fe",
                "eceb85468c70144a4c41"),
    (4, 2, 2): (484002, 634, "bcfa033a18ac0a6fa10b",
                "60a2c2bd9ca1d70a6726"),
    (16, 8, 0): (238000, 626, "986ba573707d94d087ea",
                "b36ea852024058c1f12d"),
    (16, 8, 1): (240002, 631, "5117880f89ce074c5ebc",
                "acda13fb3a94e813127c"),
    (16, 8, 2): (238000, 634, "ab98a2bf162d9476c871",
                "909c83f78f4abb02a7ca"),
}


#: (completion log, final tick, events fired) of the park-and-drain case
PINNED_PARK_AND_DRAIN = (
    [
        (0, 70000, False),
        (1, 88000, False),
        (2, 126000, False),
        (3, 144000, False),
        (4, 182000, False),
        (5, 200000, False),
        (6, 238000, False),
        (7, 256000, False),
    ],
    256000, 8)


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("num_mshrs,banks",
                         [(2, 2), (4, 2), (16, 8)],
                         ids=["tiny-mshr", "small-mshr", "roomy"])
def test_random_mix_matches_pinned_outputs(seed, num_mshrs, banks):
    log, now, events, stats, _parked = run_trial(seed, num_mshrs, banks)
    assert (now, events, digest(log), digest(stats)) \
        == PINNED_MIXES[(num_mshrs, banks, seed)]


def test_stress_shape_reaches_the_rare_paths():
    """The tiny shape must really merge, park on a full file and conflict."""
    _log, _now, _events, stats, parked = run_trial(0, 2, 2)
    merges = (stats["cpu.port.mshr.merges"]
              + stats["gpu0.port.mshr.merges"])
    conflicts = stats["dram.row_misses"]
    assert merges > 0, "no pending-line races were generated"
    assert parked > 0, "the MSHR files never filled"
    assert conflicts > 0, "no DRAM bank/row conflicts were generated"


def test_park_and_drain_matches_pinned_log():
    """Directed MSHR-full case: 8 distinct lines through 2 entries.

    Six loads park and drain through ``_drain_waiting`` as entries
    retire; the completion order and ticks are pinned.
    """
    _system, sim, ports = build_pair(num_mshrs=2, banks=2)
    log = []
    for index in range(8):
        ports["cpu"].load(
            index * LINE,
            lambda result, index=index:
            log.append((index, sim.queue.current_tick, result.hit)))
    sim.run()
    assert (log, sim.now, sim.events_fired) == PINNED_PARK_AND_DRAIN
