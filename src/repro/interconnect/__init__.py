"""On-chip interconnect models.

Two networks exist in the simulated system (paper Fig. 2, right):

* the conventional coherence interconnect — a crossbar joining the CPU
  cache hierarchy, the GPU L2 slices, and the memory controller
  (:class:`~repro.interconnect.network.Crossbar`); and
* the *dedicated direct-store network* connecting the CPU L1 controller
  straight to the GPU L2 slices
  (:class:`~repro.interconnect.direct_network.DirectStoreNetwork`), the
  dotted line in Fig. 2.

Both are latency + bandwidth models: ``Crossbar.send_raw`` and
``DirectStoreNetwork.forward_raw`` return the arrival tick and hold link
occupancy so back-to-back messages serialize.
"""

from repro.interconnect.direct_network import DirectStoreNetwork
from repro.interconnect.link import Link
from repro.interconnect.message import MessageClass
from repro.interconnect.network import Crossbar, Network

__all__ = [
    "DirectStoreNetwork",
    "Link",
    "MessageClass",
    "Crossbar",
    "Network",
]
