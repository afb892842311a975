"""Reusable access-pattern builders for the benchmark trace generators.

Every Table II benchmark decomposes into a handful of structural
ingredients — a CPU produce loop, coalesced streams, strided
(divergence-heavy) sweeps, broadcast reads of shared tables, irregular
gathers over graph adjacency, scratchpad compute — and these helpers
build those ingredients so the per-benchmark generators stay short and
declarative.

Conventions:

* word size is 4 bytes; a 128-byte line holds 32 words — one fully
  coalesced warp access;
* the CPU produce loop issues one store per 32 bytes (a vectorised
  store), the granularity at which a producer core fills cache lines;
* GPU ops are emitted per warp; callers distribute warps over SMs via
  the kernel launch.

The GPU builders fill :class:`~repro.workloads.trace.WarpProgram`
columns directly, with every memory op's coalesced line tuple
precompiled so the SM never walks lanes in Python at issue time.  A
coalesced row's lanes are a ``range`` and its line tuple is shared by
every sweep over the same buffer in one build (:func:`line_rows`);
divergent and gather rows keep their lane addresses as tuples, with
NumPy used only while computing them.
"""

from __future__ import annotations

import functools
import random
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.workloads.trace import (
    OP_COMPUTE,
    OP_LOAD,
    OP_SHMEM,
    OP_STORE,
    CpuOp,
    OpKind,
    WarpProgram,
    coalesce_addresses,
)

WORD = 4
#: CPU produce-granularity: one trace store covers 32 bytes
CPU_STORE_BYTES = 32


# ----------------------------------------------------------------------
# CPU-side patterns
# ----------------------------------------------------------------------

def cpu_produce(base: int, nbytes: int, value_seed: int = 1,
                gen_cycles: int = 10) -> List[CpuOp]:
    """CPU writes a buffer front to back (the produce phase).

    One store per :data:`CPU_STORE_BYTES`; *gen_cycles* rides on each
    store as issue delay, modelling the per-element generation work
    (random init, parsing, arithmetic) every real produce loop does.
    """
    return [CpuOp(OpKind.STORE, base + offset, value_seed + offset,
                  gen_cycles)
            for offset in range(0, nbytes, CPU_STORE_BYTES)]


def cpu_consume(base: int, nbytes: int,
                stride_bytes: int = 4096) -> List[CpuOp]:
    """CPU samples a result buffer (checksum-style verification)."""
    return [CpuOp.load(base + offset)
            for offset in range(0, nbytes, stride_bytes)]


# ----------------------------------------------------------------------
# GPU-side patterns
# ----------------------------------------------------------------------

@functools.lru_cache(maxsize=16)
def line_rows(base: int, num_lines: int, lanes: int, line_size: int
              ) -> Tuple[Tuple[Tuple[int, ...], ...], Tuple[range, ...]]:
    """(coalesced lines, lane range) of each row of a per-line sweep.

    Row *i* is one fully-coalesced warp access starting at line *i*:
    lanes ``range(start, start + lanes * WORD, WORD)``.  Memoised, so
    every sweep over one buffer in a build (reuse, passes, load and
    store sides) shares the same line tuples and lane ranges;
    :meth:`repro.workloads.base.Workload.build_phases` clears the memo
    when its build is done.
    """
    span = lanes * WORD
    starts = range(base, base + num_lines * line_size, line_size)
    rows = tuple(range(start, start + span, WORD) for start in starts)
    if base % line_size == 0 and span <= line_size:
        lines = tuple((start,) for start in starts)
    else:
        lines = tuple(tuple(coalesce_addresses(row, line_size))
                      for row in rows)
    return lines, rows


def _emit(program: WarpProgram, kind: int, value: Optional[int],
          lines: Sequence[Tuple[int, ...]], lanes: Sequence[Sequence[int]],
          extras: Sequence[Tuple[int, int]] = ()) -> None:
    """Append one memory op per row, each followed by *extras*.

    *extras* are ``(kind code, cycles)`` fixed-latency entries (compute
    or shmem) issued after every memory op, in order.
    """
    rows = len(lines)
    width = 1 + len(extras)
    program.kinds += [kind, *(code for code, _ in extras)] * rows
    program.cycles += [0, *(cycles for _, cycles in extras)] * rows
    program.values += [value, *(None for _ in extras)] * rows
    line_column: List[Optional[Tuple[int, ...]]] = [None] * (rows * width)
    line_column[::width] = lines
    program.lines += line_column
    lane_column: List[Sequence[int]] = [()] * (rows * width)
    lane_column[::width] = lanes
    program.lanes += lane_column


def _extras(compute: int = 0, shmem: int = 0) -> List[Tuple[int, int]]:
    """The non-zero compute/shmem entries that follow each access."""
    return [(code, cycles)
            for code, cycles in ((OP_COMPUTE, compute), (OP_SHMEM, shmem))
            if cycles]


def stream_warps(base: int, nbytes: int, num_warps: int,
                 lanes: int = 32, line_size: int = 128,
                 is_store: bool = False, value: Optional[int] = None,
                 compute_per_line: int = 0,
                 shmem_per_line: int = 0,
                 reuse: int = 1) -> List[WarpProgram]:
    """Coalesced streaming: warps stripe across the buffer's lines.

    Warp *w* touches lines ``w, w+W, w+2W, …`` — the canonical grid-stride
    loop, fully coalesced.  *reuse* > 1 repeats the whole sweep (iterative
    kernels re-reading their input).
    """
    num_lines = max(1, nbytes // line_size)
    lines, rows = line_rows(base, num_lines, lanes, line_size)
    kind = OP_STORE if is_store else OP_LOAD
    value = value if is_store else None
    extras = _extras(compute_per_line, shmem_per_line)
    programs = []
    for warp in range(num_warps):
        program = WarpProgram(line_size=line_size)
        for _iteration in range(reuse):
            _emit(program, kind, value, lines[warp::num_warps],
                  rows[warp::num_warps], extras)
        programs.append(program)
    return programs


def coalesce_rows(matrix: "np.ndarray", line_size: int) -> List[List[int]]:
    """Per-row coalescing of an (ops, lanes) address matrix.

    One vectorized pass masks every lane to its line and classifies rows
    that collapse to a single line (the fully-coalesced common case);
    only divergent rows pay a per-row dedup.  Row order and within-row
    first-lane order match :func:`coalesce_addresses`.
    """
    lines = matrix & ~(line_size - 1)
    firsts = lines[:, 0].tolist()
    uniform = (lines == lines[:, :1]).all(axis=1)
    if bool(uniform.all()):
        return [[first] for first in firsts]
    out: List[List[int]] = []
    rows = lines.tolist()
    for index, is_uniform in enumerate(uniform.tolist()):
        if is_uniform:
            out.append([firsts[index]])
        else:
            out.append(list(dict.fromkeys(rows[index])))
    return out


def strided_warps(base: int, nbytes: int, num_warps: int,
                  stride_lines: int, lanes: int = 32,
                  line_size: int = 128, is_store: bool = False,
                  value: Optional[int] = None,
                  compute_per_access: int = 0) -> List[WarpProgram]:
    """Divergent access: each lane of a warp touches a *different* line.

    Models column-major / transposed traversal: one warp instruction
    fans out into up to 32 transactions (matrix transpose's read or
    write side, NW's column walks).
    """
    num_lines = max(1, nbytes // line_size)
    programs = [WarpProgram(line_size=line_size) for _ in range(num_warps)]
    accesses = max(1, num_lines // lanes)
    flat = np.arange(accesses * lanes, dtype=np.int64)
    line_indices = (flat * stride_lines % num_lines).reshape(accesses,
                                                             lanes)
    matrix = base + line_indices * line_size
    lines_per_row = coalesce_rows(matrix, line_size)
    kind = OP_STORE if is_store else OP_LOAD
    value = value if is_store else None
    extras = _extras(compute_per_access)
    for group, row in enumerate(matrix.tolist()):
        lane_addresses = tuple(row)
        lines = tuple(lines_per_row[group])
        if lines == lane_addresses:
            lines = lane_addresses  # every lane on its own line: share
        _emit(programs[group % num_warps], kind, value, (lines,),
              (lane_addresses,), extras)
    return programs


def broadcast_warps(base: int, nbytes: int, num_warps: int,
                    lanes: int = 32, line_size: int = 128,
                    repeats: int = 1,
                    compute_per_line: int = 0) -> List[WarpProgram]:
    """Every warp reads the *same* region (shared tables, centroids).

    The first warp to touch a line misses; the other ``num_warps - 1``
    hit in the L2 (or their own L1), producing the high access count /
    low miss count signature of GA, KM, and LV.
    """
    num_lines = max(1, nbytes // line_size)
    lines, rows = line_rows(base, num_lines, lanes, line_size)
    sweep = WarpProgram(line_size=line_size)
    _emit(sweep, OP_LOAD, None, lines, rows, _extras(compute_per_line))
    programs = []
    for _warp in range(num_warps):
        program = WarpProgram(line_size=line_size)
        for _repeat in range(repeats):
            program.extend(sweep)
        programs.append(program)
    return programs


def gather_warps(base: int, nbytes: int, num_warps: int,
                 indices: Sequence[int], lanes: int = 32,
                 line_size: int = 128,
                 compute_per_access: int = 0) -> List[WarpProgram]:
    """Irregular gather: lane addresses come from an index list.

    *indices* are element indices into the buffer (graph neighbour ids);
    consecutive lanes take consecutive indices, so coalescing quality is
    whatever the index stream provides — exactly how Pannotia kernels
    read node data through edge lists.
    """
    elements = max(1, nbytes // WORD)
    programs = [WarpProgram(line_size=line_size) for _ in range(num_warps)]
    flat = base + (np.asarray(indices, dtype=np.int64) % elements) * WORD
    # one bulk conversion each; per-group work is then pure list slicing
    addresses = flat.tolist()
    masked = (flat & ~(line_size - 1)).tolist()
    extras = _extras(compute_per_access)
    for group_start in range(0, len(indices), lanes):
        group_end = group_start + lanes
        lines = tuple(dict.fromkeys(masked[group_start:group_end]))
        _emit(programs[(group_start // lanes) % num_warps], OP_LOAD, None,
              (lines,), (tuple(addresses[group_start:group_end]),),
              extras)
    return programs


def shmem_compute_warps(num_warps: int, bursts: int,
                        cycles_per_burst: int) -> List[WarpProgram]:
    """Pure scratchpad compute (the inner loops of tiled kernels)."""
    programs = [WarpProgram() for _ in range(num_warps)]
    for program in programs:
        program.kinds += [OP_SHMEM] * bursts
        program.cycles += [cycles_per_burst] * bursts
        program.lines += [None] * bursts
        program.values += [None] * bursts
        program.lanes += [()] * bursts
    return programs


def merge_warp_programs(*groups: List[WarpProgram]) -> List[WarpProgram]:
    """Concatenate per-warp op lists position-wise.

    All groups must have the same warp count; warp *i*'s ops from each
    group run in sequence — the way a real kernel interleaves its
    load / compute / store stages per thread block.
    """
    lengths = {len(group) for group in groups}
    if len(lengths) != 1:
        raise ValueError(
            f"cannot merge warp groups of differing sizes {sorted(lengths)}")
    merged = [WarpProgram() for _ in range(lengths.pop())]
    for group in groups:
        for target, source in zip(merged, group):
            target.extend(source)
    return merged


def interleave_warp_programs(*groups: List[WarpProgram]
                             ) -> List[WarpProgram]:
    """Interleave groups op by op (load-compute-store pipelining)."""
    lengths = {len(group) for group in groups}
    if len(lengths) != 1:
        raise ValueError("warp-group sizes differ")
    merged = [WarpProgram() for _ in range(lengths.pop())]
    for warp_index, target in enumerate(merged):
        sources = [group[warp_index] for group in groups]
        for position in range(max(len(source) for source in sources)):
            for source in sources:
                if position < len(source):
                    target.extend(source, position, position + 1)
    return merged


def random_indices(count: int, universe: int, seed: int) -> List[int]:
    """Deterministic irregular index stream."""
    rng = random.Random(seed)
    return [rng.randrange(max(1, universe)) for _ in range(count)]
