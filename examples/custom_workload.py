#!/usr/bin/env python
"""Build a custom producer-consumer workload against the public API.

The paper's intro motivates integrated CPU-GPU systems with exactly this
pattern: the CPU produces a buffer, the GPU consumes it.  This example
writes that workload from scratch — allocation through the build
context, a CPU produce phase, a GPU kernel of hand-rolled warp programs
— and shows the value-tracking oracle confirming that every GPU load
observed the CPU's data under both protocols.

    python examples/custom_workload.py
"""

from repro import CoherenceMode, IntegratedSystem, SystemConfig
from repro.workloads.base import Workload
from repro.workloads.trace import (
    CpuOp,
    CpuPhase,
    KernelLaunch,
    WarpOp,
    WarpProgram,
)


class Histogram256(Workload):
    """CPU produces a sample buffer; GPU builds a 256-bin histogram.

    Structure: the samples stream once (coalesced, CPU-produced —
    direct store territory), the bins are GPU-written with heavy reuse.
    """

    code = "HG"
    name = "histogram"
    uses_shared_memory = False

    def __init__(self, samples=8 * 1024):
        super().__init__("small")
        self.sample_bytes = samples * 4

    def build(self, ctx):
        samples = ctx.alloc("hg.samples", self.sample_bytes, True)
        bins = ctx.alloc("hg.bins", 256 * 4, True)

        produce = CpuPhase("hg.produce", [
            CpuOp.store(samples + offset, offset % 251)
            for offset in range(0, self.sample_bytes, 32)])

        warps = 4 * ctx.num_sms
        programs = [WarpProgram() for _ in range(warps)]
        num_lines = self.sample_bytes // ctx.line_size
        for index in range(num_lines):
            warp = programs[index % warps]
            line_base = samples + index * ctx.line_size
            warp.append(WarpOp.load(
                [line_base + lane * 4 for lane in range(ctx.lanes_per_warp)]))
            warp.append(WarpOp.compute(4))  # binning arithmetic
        # each warp flushes its private sub-histogram at the end
        for warp in programs:
            warp.append(WarpOp.store(
                [bins + lane * 4 for lane in range(ctx.lanes_per_warp)],
                value=1))

        consume = CpuPhase("hg.readback", [
            CpuOp.load(bins + offset) for offset in range(0, 1024, 128)])
        return [produce, KernelLaunch("hg.binning", programs), consume]


def main() -> None:
    results = {}
    for mode in (CoherenceMode.CCSM, CoherenceMode.DIRECT_STORE):
        config = SystemConfig()  # value tracking on: we want the oracle
        system = IntegratedSystem(config, mode, record_gpu_loads=True)
        workload = Histogram256()
        results[mode] = system.run(workload)

        observed = {}
        for sm in system.sms:
            observed.update(dict(sm.loaded_values))
        mismatches = sum(
            1 for address, value in observed.items()
            if value != (address - min(observed)) % 251
            and (address - min(observed)) % 32 == 0)
        print(f"[{mode.value}] ticks={results[mode].total_ticks:,}  "
              f"GPU L2 miss rate={results[mode].gpu_l2_miss_rate:.1%}  "
              f"loads checked={len(observed):,}  mismatches={mismatches}")
        system.check_invariants()
        assert mismatches == 0, "the GPU read a value the CPU never wrote"

    speedup = results[CoherenceMode.DIRECT_STORE].speedup_over(
        results[CoherenceMode.CCSM])
    print(f"\ndirect store speedup on the custom workload: "
          f"{(speedup - 1) * 100:+.1f}%")
    print("(a pure communication-bound microbenchmark — this is the "
          "upper bound of the\n benefit; the Table II applications "
          "dilute it with produce and compute time)")


if __name__ == "__main__":
    main()
