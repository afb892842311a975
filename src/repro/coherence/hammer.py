"""The Hammer broadcast-coherence engine with the direct-store extension.

Topology (paper Fig. 2, right): coherent agents — the CPU-side cache and
the GPU L2 slices — exchange messages over a crossbar whose ordering
point is the memory controller.  A miss walks the protocol:

1. requestor → memory controller: GETS/GETX;
2. memory controller broadcasts probes to every other agent that could
   hold the line (Hammer has no directory — it asks everyone);
3. probed agents ack, or supply data if they own the line; in parallel
   the controller speculatively reads DRAM;
4. the requestor collects every response; the *latest* arrival is when
   its fill completes (Hammer must wait for all acks).

The direct-store extension adds :meth:`HammerSystem.remote_store`: the
CPU-side store is forwarded over the **dedicated network** to the owning
GPU L2 slice, with the Fig. 3 transitions (always-to-I at the CPU,
I→MM at the GPU L2) taken from the declarative protocol table.

Timing is transaction-walk style: each hop returns an arrival tick and
holds link/bank occupancy, so contention is modelled without simulating
individual flits.  State changes are applied at walk time; per-line
serialization is guaranteed by the callers (controllers merge concurrent
same-line requests in their MSHRs before calling the engine).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro.coherence.protocol_table import (
    LOAD_TRANSITIONS,
    PROBE_GETS_TRANSITIONS,
    PROBE_GETX_TRANSITIONS,
    REMOTE_STORE_ARRIVE_TRANSITIONS,
    REMOTE_STORE_LOCAL_TRANSITIONS,
    REPLACEMENT_TRANSITIONS,
    STORE_TRANSITIONS,
    Action,
    ProtocolEvent,
    ProtocolViolationError,
    next_state,
)
from repro.coherence.states import HammerState
from repro.engine.clock import ClockDomain
from repro.interconnect.direct_network import DirectStoreNetwork
from repro.interconnect.message import MessageClass
from repro.interconnect.network import Network
from repro.mem.cache import SetAssociativeCache
from repro.mem.cacheline import CacheLine
from repro.mem.memimage import MemoryImage
from repro.mem.dram import DramModel
from repro.telemetry.tracer import TRACER
from repro.utils.profiler import PROFILER
from repro.utils.statistics import StatsRegistry

#: node name of the memory controller / ordering point
MEMCTRL = "memctrl"


@dataclass(slots=True)
class AccessResult:
    """Outcome of one coherent access."""

    ready_tick: int
    value: Optional[int]
    hit: bool
    #: where the data came from: "local", "owner", or "memory"
    source: str


class CoherentAgent:
    """One coherence participant: a cache plus its controller's identity.

    Args:
        name: network node name.
        cache: the tag/data array whose line states are
            :class:`~repro.coherence.states.HammerState` values.
        clock: the agent's clock domain (tag latency is in its cycles).
        tag_latency_cycles: lookup/snoop latency.
        may_cache: predicate over line addresses — GPU L2 slices only
            cache their interleaved share; the CPU-side agent refuses
            direct-store lines.
        on_back_invalidate: callback fired when a probe or flush removes
            a line, so non-coherent upper levels (CPU L1, GPU L1s) can
            maintain inclusion.
    """

    def __init__(self, name: str, cache: SetAssociativeCache,
                 clock: ClockDomain, tag_latency_cycles: int,
                 may_cache: Optional[Callable[[int], bool]] = None,
                 on_back_invalidate: Optional[Callable[[int], None]] = None,
                 ) -> None:
        self.name = name
        self.cache = cache
        self.clock = clock
        self.tag_latency_cycles = tag_latency_cycles
        self.may_cache = may_cache or (lambda _line_address: True)
        #: which lines this agent is probed for.  Defaults to
        #: ``may_cache``; the CPU-side agent overrides it to "all lines":
        #: Hammer is a broadcast protocol, so GPU misses on direct-store
        #: lines still probe the CPU (which acks from I) even though the
        #: CPU can never *allocate* them.  GPU slices keep the structural
        #: filter — address interleaving routes requests, no probe needed.
        self.probe_filter: Callable[[int], bool] = (
            may_cache or (lambda _line_address: True))
        self.on_back_invalidate = on_back_invalidate
        #: fired with the line address before a probe reads this agent's
        #: line — a write-back upper level flushes newer data down here
        self.on_probe: Optional[Callable[[int], None]] = None
        #: lookup/snoop latency in ticks; the clock is fixed-frequency,
        #: so this is a plain attribute, not a per-access conversion
        self.tag_ticks = clock.cycles_to_ticks(tag_latency_cycles)

    def __repr__(self) -> str:
        return f"CoherentAgent({self.name})"


class HammerSystem:
    """The protocol engine shared by every coherent agent.

    Args:
        network: the conventional coherence crossbar (must contain every
            agent plus :data:`MEMCTRL`).
        dram: memory timing model.
        image: functional memory, or ``None`` to disable value tracking.
        mem_clock: memory-controller clock domain.
        memctrl_latency_cycles: controller occupancy per request.
        broadcast_enabled: ``False`` in standalone direct-store mode
            (§III-H): misses fetch straight from memory with no probes.
    """

    def __init__(self, network: Network, dram: DramModel,
                 image: Optional[MemoryImage], mem_clock: ClockDomain,
                 memctrl_latency_cycles: int = 4,
                 broadcast_enabled: bool = True) -> None:
        self.network = network
        self.dram = dram
        self.image = image
        self.mem_clock = mem_clock
        self.memctrl_latency_cycles = memctrl_latency_cycles
        self._memctrl_ticks = mem_clock.cycles_to_ticks(
            memctrl_latency_cycles)
        self.broadcast_enabled = broadcast_enabled
        self.agents: Dict[str, CoherentAgent] = {}
        self.ds_network: Optional[DirectStoreNetwork] = None
        #: optional ProtocolTracer; observation only, never affects timing
        self.tracer = None
        self.line_size = network.line_size
        self.stats = StatsRegistry("hammer")
        self._gets = self.stats.counter("gets_requests")
        self._getx = self.stats.counter("getx_requests")
        self._upgrades = self.stats.counter("upgrades")
        self._probes = self.stats.counter("probes_sent")
        self._owner_transfers = self.stats.counter(
            "owner_transfers", "fills supplied by another cache")
        self._memory_fetches = self.stats.counter("memory_fetches")
        self._writebacks = self.stats.counter("writebacks")
        self._remote_stores = self.stats.counter(
            "remote_stores", "direct-store forwards")
        self._ds_dram_bypass = self.stats.counter(
            "ds_dram_bypass", "forwards written to DRAM (L2 set full)")
        self._prefetches = self.stats.counter(
            "prefetches", "speculative fills (prefetch baseline)")
        self._uncached_loads = self.stats.counter("uncached_loads")

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------

    def add_agent(self, agent: CoherentAgent) -> None:
        if agent.name in self.agents:
            raise ValueError(f"duplicate agent {agent.name!r}")
        self.agents[agent.name] = agent

    def attach_direct_network(self, ds_network: DirectStoreNetwork) -> None:
        """Wire up the dedicated CPU→GPU-L2 network (§III-G)."""
        self.ds_network = ds_network

    # ------------------------------------------------------------------
    # demand accesses
    # ------------------------------------------------------------------

    def load(self, agent_name: str, address: int, now: int) -> AccessResult:
        """Coherent load at *agent_name*; returns value + completion tick."""
        agent = self.agents[agent_name]
        line_address = agent.cache.layout.line_address(address)
        t_tags = now + agent.tag_ticks
        line = agent.cache.lookup(address)
        if line is not None:
            # table sanity: LOAD must be legal in this state
            if line.state not in LOAD_TRANSITIONS:
                raise ProtocolViolationError(line.state, ProtocolEvent.LOAD,
                                             agent_name)
            return AccessResult(t_tags, self._read_word(line, address),
                                True, "local")
        ready, payload, source = self._fetch(
            agent, line_address, exclusive=False, now=t_tags)
        filled = agent.cache.probe(address)
        assert filled is not None
        return AccessResult(ready, self._read_word(filled, address),
                            False, source)

    def store(self, agent_name: str, address: int, value: Optional[int],
              now: int) -> AccessResult:
        """Coherent store at *agent_name*."""
        agent = self.agents[agent_name]
        line_address = agent.cache.layout.line_address(address)
        t_tags = now + agent.tag_ticks
        line = agent.cache.lookup(address)
        if line is not None:
            state = line.state
            transition = STORE_TRANSITIONS.get(state)
            if transition is None:
                raise ProtocolViolationError(state, ProtocolEvent.STORE,
                                             agent_name)
            new_state, action = transition
            if action is Action.NONE:            # MM
                self._write_word(line, address, value)
                return AccessResult(t_tags, value, True, "local")
            if action is Action.SILENT_UPGRADE:  # M -> MM, no traffic
                line.state = new_state
                self._write_word(line, address, value)
                self._trace(agent_name, line_address, "Store(silent)",
                            state, new_state, t_tags)
                return AccessResult(t_tags, value, True, "local")
            if action is Action.ISSUE_GETX:      # S/O: invalidate others
                ready = self._upgrade(agent, line_address, t_tags)
                line.state = HammerState.MM
                self._write_word(line, address, value)
                self._trace(agent_name, line_address, "Store(upgrade)",
                            state, HammerState.MM, ready)
                return AccessResult(ready, value, True, "local")
            raise ProtocolViolationError(state, ProtocolEvent.STORE,
                                         f"unexpected action {action}")
        ready, _payload, source = self._fetch(
            agent, line_address, exclusive=True, now=t_tags)
        filled = agent.cache.probe(address)
        assert filled is not None
        self._write_word(filled, address, value)
        return AccessResult(ready, value, False, source)

    def prefetch(self, agent_name: str, address: int, now: int) -> bool:
        """Speculatively fill *address* at *agent_name* (shared state).

        Used by the prefetching baseline the paper compares against.
        No demand statistics are recorded; a line already resident is
        left untouched.  Returns ``True`` when a fetch was issued.
        """
        agent = self.agents[agent_name]
        line_address = agent.cache.layout.line_address(address)
        if not agent.may_cache(line_address):
            return False
        if agent.cache.probe(line_address) is not None:
            return False
        self._prefetches.increment()
        self._fetch(agent, line_address, exclusive=False,
                    now=now + agent.tag_ticks)
        return True

    def uncached_load(self, agent_name: str, address: int,
                      now: int) -> AccessResult:
        """CPU-side read of a direct-store line (never allocates locally).

        The reserved window "can never be cached on the CPU side (so
        accesses from the CPU will always miss)" — the read is serviced
        by the home GPU L2 slice, falling back to memory.
        """
        agent = self.agents[agent_name]
        self._uncached_loads.increment()
        line_address = address & ~(self.line_size - 1)
        if TRACER.enabled:
            TRACER.instant("direct_store", "uncached_load", now,
                           track=agent_name, args={"line": line_address})
        t0 = now + agent.tag_ticks
        # self-snoop: window lines are never CPU-cached by construction,
        # but the operation stays total — a locally cached line (only
        # reachable through direct engine use) is served in place
        local = agent.cache.probe(line_address)
        if local is not None:
            return AccessResult(t0, self._read_word(local, address),
                                True, "local")
        t_mc = self._to_memctrl(agent.name, MessageClass.REQUEST,
                                line_address, t0)
        # Consult the home slice directly: the GPU L2 is where window
        # data lives, with or without the broadcast fabric (in the
        # standalone §III-H mode this read IS the only CPU-to-GPU pull
        # mechanism, so it must not depend on broadcast_enabled).
        homes = [candidate for candidate in self.agents.values()
                 if candidate is not agent
                 and candidate.may_cache(line_address)]
        for target in homes:
            probe_line = target.cache.probe(line_address)
            if probe_line is not None and probe_line.state.is_owner:
                t_probe = self._send(MEMCTRL, target.name,
                                     MessageClass.REQUEST, line_address, t_mc)
                t_data = self._send(target.name, agent.name,
                                    MessageClass.DATA, line_address,
                                    t_probe + target.tag_ticks)
                value = self._read_word(probe_line, address)
                return AccessResult(t_data, value, False, "owner")
        dram_ready = self.dram.access(line_address, t_mc)
        t_data = self._send(MEMCTRL, agent.name, MessageClass.DATA,
                            line_address, dram_ready)
        value = None
        if self.image is not None:
            value = self.image.read_word(address)
        return AccessResult(t_data, value, False, "memory")

    # ------------------------------------------------------------------
    # the direct-store extension
    # ------------------------------------------------------------------

    def remote_store(self, src_name: str, slice_name: str, address: int,
                     value: Optional[int], now: int,
                     extra_words: Optional[List[Tuple[int, Optional[int]]]]
                     = None) -> AccessResult:
        """Forward a CPU store to the GPU L2 over the dedicated network.

        Implements both halves of the Fig. 3 extension: the CPU-side
        always-to-I transitions, then the I→MM install (or MM merge) at
        the receiving slice.  *extra_words* carries additional same-line
        (address, value) pairs write-combined by the store buffer; a
        multi-word burst travels as a full data message rather than the
        16-byte single-word forward.
        """
        ds_network = self.ds_network
        if ds_network is None:
            raise RuntimeError("direct-store network is not attached")
        src = self.agents[src_name]
        dst = self.agents[slice_name]
        line_address = address & ~(self.line_size - 1)
        self._remote_stores.value += 1
        words = [(address, value)]
        if extra_words:
            words.extend(extra_words)

        # --- CPU side: Fig. 3 bold transitions -------------------------
        if src.on_probe is not None:
            src.on_probe(line_address)
        local = src.cache.probe(line_address)
        if local is not None:
            transition = REMOTE_STORE_LOCAL_TRANSITIONS.get(local.state)
            if transition is None:
                raise ProtocolViolationError(
                    local.state, ProtocolEvent.REMOTE_STORE_LOCAL, src_name)
            _state_after, action = transition
            if action is Action.FLUSH_THEN_FORWARD:
                # "it gets exclusive permission to the cache block": the
                # local copy (dirty or not) leaves the CPU before the
                # forward, so the GPU-side install is the only copy.
                victim = src.cache.invalidate(line_address)
                assert victim is not None
                if victim.dirty:
                    self._writeback(src.name, line_address, victim, now)
                if src.on_back_invalidate is not None:
                    src.on_back_invalidate(line_address)
                self._trace(src_name, line_address, "RemoteStoreLocal",
                            victim.state, HammerState.I, now)
            # FORWARD_STORE from I needs no local work
        elif HammerState.I not in REMOTE_STORE_LOCAL_TRANSITIONS:
            raise ProtocolViolationError(
                HammerState.I, ProtocolEvent.REMOTE_STORE_LOCAL, src_name)

        # --- the dedicated network hop ---------------------------------
        msg_class = (MessageClass.STORE_FORWARD if len(words) == 1
                     else MessageClass.DATA)
        arrival = ds_network.forward_raw(slice_name, msg_class,
                                         line_address, now)

        # --- GPU L2 side: I -> MM install / MM merge --------------------
        t_done = arrival + dst.tag_ticks
        existing = dst.cache.probe(line_address)
        if existing is not None:
            transition = REMOTE_STORE_ARRIVE_TRANSITIONS.get(existing.state)
            if transition is None:
                raise ProtocolViolationError(
                    existing.state, ProtocolEvent.REMOTE_STORE_ARRIVE,
                    slice_name)
            _state_after, action = transition
            assert action in (Action.MERGE_STORE, Action.INSTALL_MM)
            old_state = existing.state
            existing.state = HammerState.MM
            image = self.image
            if image is not None:
                data = existing.data
                for word_address, word_value in words:
                    if word_value is not None:
                        if data is None:
                            data = existing.data = {}
                        data[image.word_offset_in_line(word_address)] = \
                            word_value
            existing.dirty = True
            if TRACER.enabled or self.tracer is not None:
                self._trace(slice_name, line_address, "RemoteStoreArrive",
                            old_state, HammerState.MM, t_done)
            return AccessResult(t_done, value, True, "local")
        if HammerState.I not in REMOTE_STORE_ARRIVE_TRANSITIONS:
            raise ProtocolViolationError(
                HammerState.I, ProtocolEvent.REMOTE_STORE_ARRIVE, slice_name)
        if not dst.cache.has_free_way(line_address):
            # §III-A: "If the GPU L2 cache is full, the system then
            # writes data to DRAM."  Bypassing a full set instead of
            # evicting keeps pushed-but-unread lines resident — without
            # this, a streaming producer larger than the L2 would evict
            # its own earlier pushes and poison the consume phase.
            self._ds_dram_bypass.increment()
            if TRACER.enabled:
                TRACER.instant("direct_store", "dram_bypass", t_done,
                               track=slice_name,
                               args={"line": line_address})
            if self.image is not None:
                for word_address, word_value in words:
                    if word_value is not None:
                        self.image.write_word(word_address, word_value)
            self.dram.post_write(line_address, t_done)
            return AccessResult(t_done, value, False, "memory")
        payload = None
        if self.image is not None:
            payload = self.image.read_line(line_address)
        victim = dst.cache.fill(line_address, HammerState.MM, t_done,
                                payload, dirty=True)
        if victim is not None:
            self._handle_victim(dst, victim[0], victim[1], t_done)
        filled = dst.cache.probe(line_address)
        assert filled is not None
        for word_address, word_value in words:
            self._write_word(filled, word_address, word_value)
        self._trace(slice_name, line_address, "RemoteStoreArrive",
                    HammerState.I, HammerState.MM, t_done)
        return AccessResult(t_done, value, False, "local")

    # ------------------------------------------------------------------
    # protocol walks
    # ------------------------------------------------------------------

    def _fetch(self, agent: CoherentAgent, line_address: int,
               exclusive: bool, now: int) -> Tuple[int, object, str]:
        """Miss handling: GETS/GETX walk; fills the line; returns
        (ready_tick, payload, source)."""
        if not agent.may_cache(line_address):
            raise ProtocolViolationError(
                HammerState.I,
                ProtocolEvent.STORE if exclusive else ProtocolEvent.LOAD,
                f"{agent.name} may not cache line {line_address:#x}")
        (self._getx if exclusive else self._gets).value += 1
        t_mc = self._to_memctrl(
            agent.name, MessageClass.REQUEST, line_address, now)

        if exclusive:
            probe_event = ProtocolEvent.PROBE_GETX
            probe_row = PROBE_GETX_TRANSITIONS
        else:
            probe_event = ProtocolEvent.PROBE_GETS
            probe_row = PROBE_GETS_TRANSITIONS
        response_ticks: List[int] = []
        owner_payload = None
        owner_dirty = False
        owner_found = False
        sharers_found = False

        prof = PROFILER
        profiling = prof.enabled
        if profiling:
            prof.start("protocol_table")
        for target in self._probe_targets(agent, line_address):
            t_probe = self._send(MEMCTRL, target.name, MessageClass.REQUEST,
                                 line_address, t_mc)
            self._probes.value += 1
            t_snooped = t_probe + target.tag_ticks
            if target.on_probe is not None:
                target.on_probe(line_address)
            probe_line = target.cache.probe(line_address)
            if probe_line is None:
                response_ticks.append(self._send(
                    target.name, agent.name, MessageClass.RESPONSE,
                    line_address, t_snooped))
                continue
            state = probe_line.state
            transition = probe_row.get(state)
            if transition is None:
                raise ProtocolViolationError(state, probe_event, target.name)
            new_state, action = transition
            if action is Action.SUPPLY_DATA:
                owner_found = True
                owner_dirty = probe_line.dirty
                if probe_line.data is not None:
                    owner_payload = dict(probe_line.data)
                if exclusive:
                    removed = target.cache.invalidate(line_address)
                    assert removed is not None
                    if target.on_back_invalidate is not None:
                        target.on_back_invalidate(line_address)
                    self._trace(target.name, line_address, "ProbeGETX",
                                state, HammerState.I, t_snooped)
                else:
                    probe_line.state = new_state  # MM/M -> O
                    self._trace(target.name, line_address, "ProbeGETS",
                                state, new_state, t_snooped)
                response_ticks.append(self._send(
                    target.name, agent.name, MessageClass.DATA,
                    line_address, t_snooped))
            else:  # SEND_ACK (I stays I; S acks, invalidating on GETX)
                if state is HammerState.S:
                    sharers_found = True
                    if exclusive:
                        target.cache.invalidate(line_address)
                        if target.on_back_invalidate is not None:
                            target.on_back_invalidate(line_address)
                        self._trace(target.name, line_address,
                                    "ProbeGETX", state, HammerState.I,
                                    t_snooped)
                response_ticks.append(self._send(
                    target.name, agent.name, MessageClass.RESPONSE,
                    line_address, t_snooped))
        if profiling:
            prof.stop()

        if owner_found:
            self._owner_transfers.value += 1
            payload = owner_payload
            source = "owner"
        else:
            # speculative memory fetch (Hammer always reads memory)
            self._memory_fetches.value += 1
            dram_ready = self.dram.access(line_address, t_mc)
            response_ticks.append(self._send(
                MEMCTRL, agent.name, MessageClass.DATA, line_address,
                dram_ready))
            payload = (self.image.read_line(line_address)
                       if self.image is not None else None)
            source = "memory"

        ready = max(response_ticks) if response_ticks else t_mc
        if exclusive:
            fill_state = HammerState.MM
            dirty = owner_dirty
        elif owner_found or sharers_found:
            fill_state = HammerState.S
            dirty = False
        else:
            fill_state = HammerState.M  # exclusive-clean grant
            dirty = False
        victim = agent.cache.fill(line_address, fill_state, ready,
                                  payload, dirty)
        if victim is not None:
            self._handle_victim(agent, victim[0], victim[1], ready)
        self._trace(agent.name, line_address,
                    "Store(fill)" if exclusive else "Load(fill)",
                    HammerState.I, fill_state, ready)
        return ready, payload, source

    def _upgrade(self, agent: CoherentAgent, line_address: int,
                 now: int) -> int:
        """S/O → MM: invalidate every other copy, keep local data."""
        self._upgrades.value += 1
        t_mc = self._to_memctrl(agent.name, MessageClass.REQUEST,
                                line_address, now)
        response_ticks = [t_mc]
        for target in self._probe_targets(agent, line_address):
            t_probe = self._send(MEMCTRL, target.name, MessageClass.REQUEST,
                                 line_address, t_mc)
            self._probes.value += 1
            t_snooped = t_probe + target.tag_ticks
            if target.on_probe is not None:
                target.on_probe(line_address)
            probe_line = target.cache.probe(line_address)
            if probe_line is not None:
                if probe_line.state not in PROBE_GETX_TRANSITIONS:
                    raise ProtocolViolationError(
                        probe_line.state, ProtocolEvent.PROBE_GETX,
                        target.name)
                target.cache.invalidate(line_address)
                if target.on_back_invalidate is not None:
                    target.on_back_invalidate(line_address)
            response_ticks.append(self._send(
                target.name, agent.name, MessageClass.RESPONSE,
                line_address, t_snooped))
        return max(response_ticks)

    def evict(self, agent_name: str, address: int, now: int) -> None:
        """Explicit eviction (cache flush); applies Fig. 3 replacement."""
        agent = self.agents[agent_name]
        line_address = agent.cache.layout.line_address(address)
        if agent.on_probe is not None:
            agent.on_probe(line_address)
        victim = agent.cache.invalidate(line_address)
        if victim is None:
            return
        if victim.state not in REPLACEMENT_TRANSITIONS:
            raise ProtocolViolationError(victim.state,
                                         ProtocolEvent.REPLACEMENT,
                                         agent_name)
        self._handle_victim(agent, line_address, victim, now)
        if agent.on_back_invalidate is not None:
            agent.on_back_invalidate(line_address)

    # ------------------------------------------------------------------
    # helpers
    # ------------------------------------------------------------------

    def _probe_targets(self, requestor: CoherentAgent,
                       line_address: int) -> List[CoherentAgent]:
        """Agents that must be probed for *line_address*.

        Hammer broadcasts to everyone; we skip agents whose interleaving
        provably excludes the line (GPU slices for other slices' lines,
        the CPU agent for direct-store lines) — those probes would be
        no-ops in hardware too.  With broadcasting disabled (standalone
        direct store, §III-H) nothing is probed.
        """
        if not self.broadcast_enabled:
            return []
        return [agent for agent in self.agents.values()
                if agent is not requestor
                and agent.probe_filter(line_address)]

    def _handle_victim(self, agent: CoherentAgent, line_address: int,
                       victim: CacheLine, now: int) -> None:
        """Apply the replacement action for an evicted line."""
        state = victim.state
        if state is None:
            return
        transition = REPLACEMENT_TRANSITIONS.get(state)
        if transition is None:
            raise ProtocolViolationError(state, ProtocolEvent.REPLACEMENT,
                                         agent.name)
        _next, action = transition
        self._trace(agent.name, line_address, "Replacement", state,
                    HammerState.I, now)
        if action is Action.WRITEBACK_DATA and victim.dirty:
            self._writeback(agent.name, line_address, victim, now)
        elif action is Action.WRITEBACK_DATA:
            # owned-but-clean: a PUTS-style notice suffices
            self._send(agent.name, MEMCTRL, MessageClass.RESPONSE,
                       line_address, now)
        elif action is Action.SEND_PUTS:
            self._send(agent.name, MEMCTRL, MessageClass.RESPONSE,
                       line_address, now)
        if agent.on_back_invalidate is not None:
            agent.on_back_invalidate(line_address)

    def _writeback(self, src_name: str, line_address: int,
                   victim: CacheLine, now: int) -> None:
        """Dirty eviction: PUTX with data to the memory controller."""
        self._writebacks.value += 1
        arrival = self._send(src_name, MEMCTRL, MessageClass.WRITEBACK,
                             line_address, now)
        self.dram.post_write(line_address, arrival)
        if self.image is not None and victim.data is not None:
            self.image.write_line(line_address, victim.data)

    def _to_memctrl(self, src: str, msg_class: MessageClass,
                    line_address: int, now: int) -> int:
        """Send to the ordering point; include controller occupancy."""
        arrival = self._send(src, MEMCTRL, msg_class, line_address, now)
        return arrival + self._memctrl_ticks

    def _trace(self, agent: str, line_address: int, event: str,
               old_state, new_state, tick: int) -> None:
        if TRACER.enabled:
            TRACER.instant(
                "coherence", event, tick, track=agent,
                args={"line": line_address,
                      "from": (old_state.value
                               if isinstance(old_state, HammerState)
                               else "-"),
                      "to": (new_state.value
                             if isinstance(new_state, HammerState)
                             else "-")})
        if self.tracer is not None:
            self.tracer.record(
                tick, agent, line_address, event,
                old_state.value if isinstance(old_state, HammerState)
                else "-",
                new_state.value if isinstance(new_state, HammerState)
                else "-")

    def _send(self, src: str, dst: str, msg_class: MessageClass,
              line_address: int, now: int) -> int:
        return self.network.send_raw(src, dst, msg_class, line_address, now)

    def _read_word(self, line: CacheLine, address: int) -> Optional[int]:
        if self.image is None or line.data is None:
            return None
        offset = self.image.word_offset_in_line(address)
        return line.data.get(offset, 0)

    def _write_word(self, line: CacheLine, address: int,
                    value: Optional[int]) -> None:
        if self.image is not None and value is not None:
            offset = self.image.word_offset_in_line(address)
            if line.data is None:
                line.data = {}
            line.data[offset] = value
        line.dirty = True

    # ------------------------------------------------------------------
    # invariants
    # ------------------------------------------------------------------

    def check_invariants(self) -> None:
        """Assert the protocol's safety properties over all cached state.

        * at most one owner (MM/M/O) per line;
        * an exclusive holder (MM/M) excludes every other valid copy;
        * with value tracking: every shared copy's words agree with the
          owner's (or memory's, when no owner exists).

        Raises ``AssertionError`` with a descriptive message on the
        first violation.
        """
        holders: Dict[int, List[Tuple[str, CacheLine]]] = {}
        for agent in self.agents.values():
            for line_address, line in agent.cache.resident_lines():
                holders.setdefault(line_address, []).append(
                    (agent.name, line))
        for line_address, copies in holders.items():
            owners = [(name, line) for name, line in copies
                      if isinstance(line.state, HammerState)
                      and line.state.is_owner]
            assert len(owners) <= 1, (
                f"line {line_address:#x} has multiple owners: "
                f"{[(n, l.state) for n, l in owners]}")
            exclusives = [name for name, line in copies
                          if isinstance(line.state, HammerState)
                          and line.state.is_exclusive]
            if exclusives:
                assert len(copies) == 1, (
                    f"line {line_address:#x} exclusive at {exclusives[0]} "
                    f"but also cached at "
                    f"{[n for n, _ in copies if n != exclusives[0]]}")
            if self.image is not None and owners:
                _owner_name, owner_line = owners[0]
                if owner_line.data is None:
                    continue
                for name, line in copies:
                    if line is owner_line or line.data is None:
                        continue
                    assert line.data == owner_line.data, (
                        f"line {line_address:#x}: copy at {name} diverges "
                        f"from owner")
