"""The coherence interconnect.

:class:`Crossbar` models the conventional network of Fig. 2 (right): each
node (CPU L2, GPU L2 slices, memory controller) owns an ingress and an
egress link into a central switch.  A message pays

    egress serialization + switch hop + ingress serialization

and contends for both endpoints' links, so heavy coherence traffic
(e.g. the GPU's huge request count, paper §II) backs up realistically.
"""

from __future__ import annotations

from typing import Dict, List

from repro.engine.clock import ClockDomain
from repro.interconnect.link import Link
from repro.interconnect.message import MessageClass
from repro.telemetry.tracer import TRACER
from repro.utils.profiler import PROFILER
from repro.utils.statistics import StatsRegistry


class Network:
    """Base class: a named network's message and byte counters."""

    def __init__(self, name: str, clock: ClockDomain,
                 line_size: int = 128) -> None:
        self.name = name
        self.clock = clock
        self.line_size = line_size
        self.stats = StatsRegistry(name)
        self._messages = self.stats.counter("messages")
        self._bytes = self.stats.counter("bytes")

    @property
    def total_messages(self) -> int:
        return self._messages.value

    @property
    def total_bytes(self) -> int:
        return self._bytes.value


#: the virtual networks every node connects to
VIRTUAL_NETWORKS = ("req", "resp", "data")


class Crossbar(Network):
    """Input/output-buffered crossbar with per-node, per-vnet links."""

    def __init__(self, name: str, clock: ClockDomain, node_names: List[str],
                 hop_latency_cycles: int = 8, bytes_per_cycle: int = 32,
                 line_size: int = 128) -> None:
        super().__init__(name, clock, line_size)
        self.hop_latency_cycles = hop_latency_cycles
        #: egress[node][vnet] / ingress[node][vnet]
        self._egress: Dict[str, Dict[str, Link]] = {}
        self._ingress: Dict[str, Dict[str, Link]] = {}
        for node in node_names:
            self.add_node(node, bytes_per_cycle)
        self._bytes_per_cycle = bytes_per_cycle
        #: per-class (wire size, vnet, trace label), computed once —
        #: ``send_raw`` must not re-derive them per message
        self._wire = {
            msg_class: (msg_class.size_bytes(line_size),
                        msg_class.virtual_network,
                        msg_class.name.lower())
            for msg_class in MessageClass}

    def add_node(self, node: str, bytes_per_cycle: int = 32) -> None:
        """Attach *node* to the crossbar (one link pair per vnet)."""
        if node in self._egress:
            raise ValueError(f"{self.name}: duplicate node {node!r}")
        # Hop latency is split across the two links; the switch itself is
        # folded into the egress link's latency.
        half = self.hop_latency_cycles // 2
        self._egress[node] = {
            vnet: Link(f"{self.name}.{node}.{vnet}.out", self.clock,
                       self.hop_latency_cycles - half, bytes_per_cycle)
            for vnet in VIRTUAL_NETWORKS}
        self._ingress[node] = {
            vnet: Link(f"{self.name}.{node}.{vnet}.in", self.clock, half,
                       bytes_per_cycle)
            for vnet in VIRTUAL_NETWORKS}

    @property
    def nodes(self) -> List[str]:
        return list(self._egress)

    def send_raw(self, src: str, dst: str, msg_class, line_address: int,
                 now_tick: int) -> int:
        """Route src→dst through the switch; return the arrival tick.

        A message is only its fields: the protocol engine sends millions
        of control messages whose content is src/dst/class/line, so
        nothing is allocated per message.
        """
        egress = self._egress.get(src)
        if egress is None:
            raise KeyError(f"{self.name}: unknown source {src!r}")
        ingress = self._ingress.get(dst)
        if ingress is None:
            raise KeyError(f"{self.name}: unknown dest {dst!r}")
        size, vnet, label = self._wire[msg_class]
        prof = PROFILER
        profiling = prof.enabled
        if profiling:
            prof.start("network")
        self._messages.value += 1
        self._bytes.value += size
        at_switch = egress[vnet].send(size, now_tick)
        arrival = ingress[vnet].send(size, at_switch)
        if profiling:
            prof.stop()
        if TRACER.enabled:
            TRACER.span(
                "network", label, now_tick, arrival, track=self.name,
                args={"src": src, "dst": dst,
                      "line": line_address, "bytes": size})
        return arrival

    def link_queue_delay(self, node: str) -> int:
        """Total queueing delay accumulated at *node*'s links (ticks)."""
        total = 0
        for links in (self._egress[node], self._ingress[node]):
            for link in links.values():
                total += link.total_queue_delay_ticks
        return total

    def reset(self) -> None:
        """Clear all link occupancy."""
        for links in self._egress.values():
            for link in links.values():
                link.reset()
        for links in self._ingress.values():
            for link in links.values():
                link.reset()
