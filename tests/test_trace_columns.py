"""Columnar warp traces: the column API, sharing and retained memory.

A :class:`WarpProgram` keeps its ops as parallel columns that the trace
builders fill directly.  These tests pin the authoring API (append,
extend, the read-only ``ops`` view), the line-size bookkeeping that
lets the SM fall back to the coalescer, the sharing of line tuples and
lane ranges between sweeps of one buffer, and the memory a built trace
retains.  What the traces contain is pinned by
``tests/test_golden_traces.py``.
"""

import gc
import tracemalloc

import pytest

from repro.core.config import SystemConfig
from repro.core.protocol_mode import CoherenceMode
from repro.core.system import IntegratedSystem
from repro.workloads.base import Workload
from repro.workloads.misc import BitonicSort
from repro.workloads.patterns import (
    interleave_warp_programs,
    line_rows,
    merge_warp_programs,
    stream_warps,
)
from repro.workloads.suite import get_workload
from repro.workloads.trace import (
    OP_COMPUTE,
    OP_LOAD,
    OP_SHMEM,
    OP_STORE,
    KernelLaunch,
    OpKind,
    WarpOp,
    WarpProgram,
    coalesce_addresses,
    precompile_phases,
)

#: BitonicSort("small") retained 44.2 MiB and added 203,031 GC-tracked
#: objects when every warp op was a WarpOp over a NumPy row view
BS_RETAINED_BYTES_MAX = 10 * 1024 * 1024
BS_TRACKED_OBJECTS_MAX = 25_000


def build_context():
    system = IntegratedSystem(SystemConfig(track_values=False),
                              CoherenceMode.CCSM)
    return system.build_context()


def kernels(phases):
    return [phase for phase in phases if isinstance(phase, KernelLaunch)]


class TestColumns:
    def test_append_stores_columns_and_view_round_trips(self):
        ops = [WarpOp.load([0x1000, 0x1004]), WarpOp.compute(7),
               WarpOp.shmem(3), WarpOp.store([0x2000], 9)]
        program = WarpProgram(ops)
        assert program.kinds == [OP_LOAD, OP_COMPUTE, OP_SHMEM, OP_STORE]
        assert program.cycles == [0, 7, 3, 0]
        assert program.values == [None, None, None, 9]
        assert program.lines == [None] * 4
        assert list(program.ops) == ops
        assert program.ops[-1] == ops[-1]
        assert program.ops[1:3] == ops[1:3]
        assert len(program.ops) == len(program) == 4

    def test_ops_view_is_read_only(self):
        program = WarpProgram([WarpOp.compute(1)])
        with pytest.raises(AttributeError):
            program.ops.append(WarpOp.compute(2))
        with pytest.raises(TypeError):
            program.ops[0] = WarpOp.compute(2)

    def test_append_keeps_precompiled_lines_of_one_geometry(self):
        at_128 = WarpOp(OpKind.LOAD, addresses=(0x0, 0x80), lines=[0x0, 0x80],
                        lines_size=128)
        at_64 = WarpOp(OpKind.LOAD, addresses=(0x0, 0x40), lines=[0x0, 0x40],
                       lines_size=64)
        program = WarpProgram([at_128, at_64])
        assert program.line_size == 128
        assert program.lines == [(0x0, 0x80), None]
        program.precompile(128)
        assert program.lines[1] == (0x0,)

    def test_precompile_for_another_geometry_recomputes_from_lanes(self):
        program = stream_warps(0x4000, 1024, 2, lanes=32, line_size=128)[0]
        program.precompile(64)
        assert program.line_size == 64
        for lanes, lines in zip(program.lanes, program.lines):
            assert list(lines) == coalesce_addresses(lanes, 64)

    def test_extend_drops_lines_of_another_geometry(self):
        target = stream_warps(0x4000, 512, 1, line_size=128)[0]
        source = stream_warps(0x8000, 512, 1, line_size=64)[0]
        target.extend(source)
        assert target.line_size == 128
        assert target.lines[-len(source):] == [None] * len(source)
        target.precompile(128)
        assert list(target.lines[-1]) == coalesce_addresses(
            target.lanes[-1], 128)

    def test_extend_window_and_empty_program_adopts_geometry(self):
        source = stream_warps(0x4000, 1024, 1, line_size=128,
                              compute_per_line=2)[0]
        target = WarpProgram()
        target.extend(source, 2, 4)
        assert target.line_size == 128
        assert target.kinds == source.kinds[2:4]
        assert target.lines == source.lines[2:4]

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            WarpProgram().append(WarpOp(kind="load"))

    def test_stream_rows_share_line_tuples_and_lane_ranges(self):
        line_rows.cache_clear()
        load, = stream_warps(0x10000, 4096, 1)
        store, = stream_warps(0x10000, 4096, 1, is_store=True, value=1)
        assert all(a is b for a, b in zip(load.lines, store.lines))
        assert all(a is b for a, b in zip(load.lanes, store.lanes))
        assert load.lanes[0] == range(0x10000, 0x10080, 4)
        line_rows.cache_clear()

    def test_merge_and_interleave_use_columns(self):
        a = stream_warps(0x1000, 512, 1)
        b = stream_warps(0x2000, 512, 1, is_store=True, value=3)
        merged, = merge_warp_programs(a, b)
        assert merged.kinds == [OP_LOAD] * 4 + [OP_STORE] * 4
        woven, = interleave_warp_programs(a, b)
        assert woven.kinds == [OP_LOAD, OP_STORE] * 4
        assert woven.values == [None, 3] * 4
        assert woven.lines[::2] == a[0].lines


class _StreamKernel(Workload):
    """One streaming kernel; optionally compiled for another line size."""

    code = "XX"
    name = "stream-kernel"

    def __init__(self, compiled_line_size=None):
        super().__init__("small")
        self.compiled_line_size = compiled_line_size

    def build(self, ctx):
        base = ctx.alloc("buf", 64 * 1024, True)
        warps = stream_warps(base, 16 * 1024, 8, ctx.lanes_per_warp,
                             ctx.line_size, compute_per_line=2)
        store = stream_warps(base, 4096, 8, ctx.lanes_per_warp,
                             ctx.line_size, is_store=True, value=5)
        return [KernelLaunch("k", merge_warp_programs(warps, store))]

    def build_phases(self, ctx):
        phases = self.build(ctx)
        precompile_phases(phases, self.compiled_line_size or ctx.line_size)
        return phases


class TestLineSizeMismatch:
    def test_sm_coalesces_programs_compiled_for_another_line_size(
            self, tiny_config):
        results = []
        for compiled in (None, 64):
            system = IntegratedSystem(tiny_config, CoherenceMode.CCSM)
            results.append(system.run(_StreamKernel(compiled)))
        precompiled, mismatched = results
        assert mismatched.total_ticks == precompiled.total_ticks
        assert mismatched.stats == precompiled.stats


class TestBuiltTraces:
    @pytest.mark.parametrize("code", ["BS", "BF", "MT", "LV"])
    def test_no_op_objects_or_arrays_in_columns(self, code):
        phases = get_workload(code, "small").build_phases(build_context())
        for kernel in kernels(phases):
            for warp in kernel.warps:
                for column in (warp.kinds, warp.cycles, warp.lines,
                               warp.values, warp.lanes):
                    assert type(column) is list
                    assert len(column) == len(warp)
                assert {type(lanes) for lanes in warp.lanes} <= {range, tuple}
                assert {type(lines) for lines in warp.lines} <= {
                    tuple, type(None)}

    def test_bitonic_sort_trace_memory(self):
        ctx = build_context()
        workload = BitonicSort("small")
        gc.collect()
        tracked_before = len(gc.get_objects())
        tracing = tracemalloc.is_tracing()
        if not tracing:
            tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            phases = workload.build_phases(ctx)
            gc.collect()
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            if not tracing:
                tracemalloc.stop()
        tracked = len(gc.get_objects()) - tracked_before
        assert sum(len(warp) for kernel in kernels(phases)
                   for warp in kernel.warps) == 110_592
        assert retained <= BS_RETAINED_BYTES_MAX, retained
        assert tracked <= BS_TRACKED_OBJECTS_MAX, tracked
