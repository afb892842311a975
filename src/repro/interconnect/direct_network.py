"""The dedicated direct-store network (paper §III-G).

A set of point-to-point links from the CPU's L1 cache controller straight
to each GPU L2 slice — the dotted line in Fig. 2 (right).  Forwarded
stores bypass the CPU L2, the coherence crossbar, and the broadcast
machinery entirely; they pay only this network's latency.

The paper specifies that the new network "will have exactly the same
characteristics as the network used in many cache coherence systems", so
the default latency/bandwidth match the coherence crossbar's per-hop
numbers; both are sweepable (see ``benchmarks/test_ablation_network.py``).
"""

from __future__ import annotations

from typing import Dict, List

from repro.engine.clock import ClockDomain
from repro.interconnect.link import Link
from repro.interconnect.message import MessageClass
from repro.interconnect.network import Network
from repro.telemetry.tracer import TRACER


class DirectStoreNetwork(Network):
    """Point-to-point CPU-L1 → GPU-L2-slice links."""

    def __init__(self, name: str, clock: ClockDomain, source: str,
                 slice_names: List[str], latency_cycles: int = 8,
                 bytes_per_cycle: int = 32, line_size: int = 128) -> None:
        super().__init__(name, clock, line_size)
        self.source = source
        self.latency_cycles = latency_cycles
        self._links: Dict[str, Link] = {
            slice_name: Link(f"{name}.{source}->{slice_name}", clock,
                             latency_cycles, bytes_per_cycle)
            for slice_name in slice_names
        }
        self._forwarded = self.stats.counter(
            "forwarded_stores", "stores pushed to the GPU L2")
        #: per-class wire size, computed once for :meth:`forward_raw`
        self._wire = {msg_class: msg_class.size_bytes(line_size)
                      for msg_class in MessageClass}

    @property
    def slice_names(self) -> List[str]:
        return list(self._links)

    def forward_raw(self, dst: str, msg_class: MessageClass,
                    line_address: int, now_tick: int) -> int:
        """Forward one store from the source to slice *dst*.

        *msg_class* is STORE_FORWARD for a single word or DATA for a
        full-line burst; either counts as one forwarded store.  Returns
        the arrival tick at the slice.
        """
        link = self._links.get(dst)
        if link is None:
            raise KeyError(f"{self.name}: unknown slice {dst!r}")
        size = self._wire[msg_class]
        self._messages.value += 1
        self._bytes.value += size
        self._forwarded.value += 1
        arrival = link.send(size, now_tick)
        if TRACER.enabled:
            TRACER.span(
                "direct_store", "forward", now_tick, arrival,
                track=self.name,
                args={"dst": dst, "line": line_address})
        return arrival

    @property
    def forwarded_stores(self) -> int:
        return self._forwarded.value

    def reset(self) -> None:
        for link in self._links.values():
            link.reset()
