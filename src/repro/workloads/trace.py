"""Trace format shared by the CPU and GPU models.

A workload is a list of *phases*, executed in order:

* :class:`CpuPhase` — the CPU produce (or post-process) phase: a
  sequence of loads, stores, and compute bubbles executed by the
  in-order core;
* :class:`KernelLaunch` — a GPU kernel: a set of
  :class:`WarpProgram` traces distributed round-robin over the SMs, each
  a sequence of (coalescable) vector memory ops, compute bubbles, and
  shared-memory (scratchpad) ops.

Addresses in traces are *virtual*; the CPU MMU and GPU MMU translate
them at execution time, which is what lets the same trace run under
CCSM (heap addresses) and direct store (reserved-window addresses) —
the workload builder simply asks the allocator for the buffer bases.

A :class:`WarpProgram` stores its ops as parallel per-op columns (kind
code, cycles, precompiled lines, store value, lanes) that the trace
builders in :mod:`repro.workloads.patterns` fill directly and the SM
reads directly; no per-op object survives the build.  A memory op's
*precompiled* line tuple is the exact first-lane-order output of
:meth:`repro.gpu.coalescer.Coalescer.coalesce`, computed once at build
time so the SM's issue path only records statistics.  :class:`WarpOp`
is the value type for authoring ops by hand and for inspecting a
program (``program.ops``).
"""

from __future__ import annotations

import collections.abc
from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable, Iterator, List, Optional, Sequence, Tuple, Union


class OpKind(Enum):
    """Operation flavours appearing in traces."""

    LOAD = "load"
    STORE = "store"
    COMPUTE = "compute"
    SHMEM = "shmem"  # GPU software-managed shared memory access


@dataclass(slots=True)
class CpuOp:
    """One in-order CPU operation."""

    kind: OpKind
    address: int = 0
    value: Optional[int] = None
    cycles: int = 0

    @staticmethod
    def load(address: int) -> "CpuOp":
        return CpuOp(OpKind.LOAD, address=address)

    @staticmethod
    def store(address: int, value: Optional[int] = None) -> "CpuOp":
        return CpuOp(OpKind.STORE, address=address, value=value)

    @staticmethod
    def compute(cycles: int) -> "CpuOp":
        return CpuOp(OpKind.COMPUTE, cycles=cycles)


@dataclass(slots=True)
class WarpOp:
    """One warp-wide GPU operation, for authoring and inspection.

    For memory ops, *addresses* holds the per-lane byte addresses of one
    vector instruction; the coalescer merges them into line requests.
    When *lines* is set it is the precompiled coalesce result for line
    size *lines_size* — distinct line addresses in first-lane order.
    :meth:`WarpProgram.append` stores an op as column entries.
    """

    kind: OpKind
    addresses: Sequence[int] = ()
    value: Optional[int] = None
    cycles: int = 0
    #: precompiled coalesced line addresses (first-lane order), or None
    lines: Optional[List[int]] = None
    #: the line size *lines* was computed for (0 = not precompiled)
    lines_size: int = 0

    @staticmethod
    def load(addresses: Sequence[int]) -> "WarpOp":
        return WarpOp(OpKind.LOAD, addresses=tuple(addresses))

    @staticmethod
    def store(addresses: Sequence[int],
              value: Optional[int] = None) -> "WarpOp":
        return WarpOp(OpKind.STORE, addresses=tuple(addresses), value=value)

    @staticmethod
    def compute(cycles: int) -> "WarpOp":
        return WarpOp(OpKind.COMPUTE, cycles=cycles)

    @staticmethod
    def shmem(cycles: int) -> "WarpOp":
        """A burst of shared-memory (scratchpad) work costing *cycles*."""
        return WarpOp(OpKind.SHMEM, cycles=cycles)


#: integer kind codes of a :class:`WarpProgram`'s ``kinds`` column; the
#: fixed-latency kinds come first so ``code <= OP_SHMEM`` tests for them
OP_COMPUTE, OP_SHMEM, OP_LOAD, OP_STORE = range(4)
#: kind code -> :class:`OpKind`
OP_KINDS = (OpKind.COMPUTE, OpKind.SHMEM, OpKind.LOAD, OpKind.STORE)
_OP_CODES = {kind: code for code, kind in enumerate(OP_KINDS)}


def coalesce_addresses(lane_addresses: Sequence[int],
                       line_size: int) -> List[int]:
    """Reference coalescing: distinct line addresses, first-lane order.

    This is the semantic contract the coalescer (lane loop or NumPy
    batch) and the precompiled line lists must reproduce exactly.
    """
    line_mask = ~(line_size - 1)
    return list(dict.fromkeys(int(address) & line_mask
                              for address in lane_addresses))


class WarpProgram:
    """The op trace of one warp, as parallel per-op columns.

    * ``kinds`` — :data:`OP_COMPUTE`/:data:`OP_SHMEM`/:data:`OP_LOAD`/
      :data:`OP_STORE` codes;
    * ``cycles`` — the cost of a compute or shmem op;
    * ``lines`` — a memory op's precompiled coalesced line tuple, valid
      for ``line_size``; ``None`` when not compiled and for non-memory
      ops;
    * ``values`` — a store's value (``None`` elsewhere);
    * ``lanes`` — per-lane byte addresses: a ``range`` for a coalesced
      row, a tuple otherwise, ``()`` for non-memory ops.

    Builders fill the columns directly and may share immutable entries
    (line tuples, lane ranges) between ops and programs.  ``line_size``
    is the geometry of every non-``None`` ``lines`` entry (0: none yet).
    ``ops`` is a read-only :class:`WarpOp` view, built on access.
    """

    __slots__ = ("kinds", "cycles", "lines", "values", "lanes",
                 "line_size")

    def __init__(self, ops: Iterable[WarpOp] = (),
                 line_size: int = 0) -> None:
        self.kinds: List[int] = []
        self.cycles: List[int] = []
        self.lines: List[Optional[Tuple[int, ...]]] = []
        self.values: List[Optional[int]] = []
        self.lanes: List[Sequence[int]] = []
        self.line_size = line_size
        self.extend(ops)

    def __len__(self) -> int:
        return len(self.kinds)

    @property
    def ops(self) -> "WarpOpsView":
        return WarpOpsView(self)

    def _adopt_line_size(self, line_size: int) -> bool:
        """Whether lines compiled for *line_size* can be kept here."""
        if not self.line_size:
            self.line_size = line_size
        return line_size == self.line_size

    def append(self, op: WarpOp) -> None:
        """Append one op as column entries."""
        code = _OP_CODES.get(op.kind)
        if code is None:
            raise ValueError(f"{op.kind} is not a warp op kind")
        lines = None
        if (code >= OP_LOAD and op.lines is not None and op.lines_size
                and self._adopt_line_size(op.lines_size)):
            lines = tuple(op.lines)
        self.kinds.append(code)
        self.cycles.append(op.cycles)
        self.lines.append(lines)
        self.values.append(op.value)
        self.lanes.append(op.addresses)

    def extend(self, source: Union["WarpProgram", Iterable[WarpOp]],
               start: int = 0, stop: Optional[int] = None) -> None:
        """Append another program's ops ``[start:stop]``, or WarpOps."""
        if not isinstance(source, WarpProgram):
            for op in source:
                self.append(op)
            return
        window = slice(start, stop)
        lines = source.lines[window]
        if source.line_size and not self._adopt_line_size(source.line_size):
            lines = [None] * len(lines)  # another geometry: recompile
        self.kinds.extend(source.kinds[window])
        self.cycles.extend(source.cycles[window])
        self.lines.extend(lines)
        self.values.extend(source.values[window])
        self.lanes.extend(source.lanes[window])

    def precompile(self, line_size: int) -> None:
        """Precompute coalesced lines for every memory op (idempotent)."""
        recompute = line_size != self.line_size
        lines, lanes = self.lines, self.lanes
        for index, code in enumerate(self.kinds):
            if code >= OP_LOAD and (recompute or lines[index] is None):
                lines[index] = tuple(
                    coalesce_addresses(lanes[index], line_size))
        self.line_size = line_size


class WarpOpsView(collections.abc.Sequence):
    """Read-only :class:`WarpOp` sequence over a program's columns."""

    __slots__ = ("_program",)

    def __init__(self, program: WarpProgram) -> None:
        self._program = program

    def __len__(self) -> int:
        return len(self._program)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[position]
                    for position in range(*index.indices(len(self)))]
        program = self._program
        lines = program.lines[index]
        return WarpOp(OP_KINDS[program.kinds[index]], program.lanes[index],
                      program.values[index], program.cycles[index],
                      None if lines is None else list(lines),
                      0 if lines is None else program.line_size)

    def __iter__(self) -> Iterator[WarpOp]:
        return map(self.__getitem__, range(len(self)))


@dataclass
class CpuPhase:
    """A CPU execution phase."""

    name: str
    ops: List[CpuOp] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.ops)


@dataclass
class KernelLaunch:
    """A GPU kernel launch: warps plus launch semantics.

    GPU L1 caches are flash-invalidated when the kernel starts (the
    software coherence convention the paper's baseline uses).
    """

    name: str
    warps: List[WarpProgram] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.warps)


#: A phase is either a CPU phase or a kernel launch.
Phase = object


def precompile_phases(phases: Sequence[object], line_size: int) -> None:
    """Precompile coalesced lines for every kernel in a phase list.

    Called by the system before execution
    (:meth:`repro.workloads.base.Workload.build_phases`) so kernels
    built by hand — without the pattern helpers — still skip the
    per-lane coalescing loop at issue time.
    """
    for phase in phases:
        if isinstance(phase, KernelLaunch):
            for warp in phase.warps:
                warp.precompile(line_size)
