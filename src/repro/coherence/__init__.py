"""The AMD Hammer coherence protocol and the direct-store extension.

The protocol follows the paper's Fig. 3: five stable states

* ``MM`` — exclusive and (potentially) locally modified (conventional M),
* ``M``  — exclusive but clean (conventional E; stores not allowed),
* ``O``  — owned: this node supplies data, sharers may exist,
* ``S``  — shared read-only copy,
* ``I``  — invalid,

a broadcast fabric with the memory controller as the ordering point, and
the two direct-store additions:

* at the CPU-side controller a *remote store* forwards data over the
  dedicated network and always ends in ``I`` (from ``I`` it never
  allocates; from ``S``/``M``/``MM`` the local copy is invalidated after
  exclusive permission is obtained);
* at the GPU L2 an arriving remote store installs the line ``I → MM``
  (the blue dashed transition in Fig. 3).

The legal-transition specification lives in
:mod:`repro.coherence.protocol_table` as data, so tests can check the
engine against the specification directly.
"""

from repro.coherence.hammer import AccessResult, CoherentAgent, HammerSystem
from repro.coherence.protocol_table import (
    PROTOCOL_TABLE,
    ProtocolEvent,
    ProtocolViolationError,
    next_state,
)
from repro.coherence.states import HammerState
from repro.coherence.tracer import ProtocolTracer, TransitionEvent

__all__ = [
    "ProtocolTracer",
    "TransitionEvent",
    "AccessResult",
    "CoherentAgent",
    "HammerSystem",
    "PROTOCOL_TABLE",
    "ProtocolEvent",
    "ProtocolViolationError",
    "next_state",
    "HammerState",
]
