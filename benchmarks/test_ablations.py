"""Ablation benches for the design choices DESIGN.md calls out.

Each ablation flips one architectural knob and quantifies its effect on
a paper-level metric:

* SPI width (single vs quad) on offload efficiency;
* TCDM bank count on cluster contention;
* hardware loops and each OR10N ISA feature on architectural speedup;
* the HW synchronizer's few-cycle barrier vs a software barrier on the
  OpenMP overhead;
* the analytic timing model against the cycle-level cluster.
"""

import pytest

from repro.core.offload import OffloadCostModel
from repro.isa.costs import or10n_costs
from repro.isa.cortexm import CortexM4Target
from repro.isa.vop import OpKind
from repro.isa.or10n import Or10nTarget
from repro.isa.report import LoweredReport
from repro.isa.target import Target
from repro.kernels.matmul import MatmulKernel
from repro.kernels.registry import all_kernels
from repro.link.spi import SpiLink, SpiMode
from repro.pulp.binary import KernelBinary
from repro.pulp.cluster import Cluster
from repro.pulp.timing import ContentionModel, op_stream_from_report
from repro.runtime.omp import DeviceOpenMp
from repro.runtime.overheads import OmpOverheads
from repro.units import mhz

from .conftest import save_result


def test_ablation_spi_width(benchmark, results_dir):
    """Quad SPI buys ~4x link bandwidth; how much offload efficiency?"""
    program = MatmulKernel("char").build_program()
    binary = KernelBinary.from_program(program)
    omp = DeviceOpenMp(Or10nTarget(), 4)
    execution = omp.execute(program)
    activity = execution.activity()

    def efficiency(mode):
        model = OffloadCostModel(link=SpiLink(mode))
        timing = model.offload_timing(
            binary_bytes=binary.image_bytes,
            input_bytes=program.input_bytes,
            output_bytes=program.output_bytes,
            compute_cycles=execution.wall_cycles,
            pulp_frequency=mhz(150), pulp_voltage=0.65,
            activity=activity, host_frequency=mhz(16), iterations=32)
        return timing.efficiency

    single, quad = benchmark(
        lambda: (efficiency(SpiMode.SINGLE), efficiency(SpiMode.QUAD)))
    save_result(results_dir, "ablation_spi_width",
                f"matmul offload efficiency at host 16 MHz, 32 iterations:\n"
                f"  single SPI: {single:.1%}\n  quad SPI:   {quad:.1%}")
    assert quad > single
    assert quad > 1.5 * single


def test_ablation_tcdm_banks(benchmark, results_dir):
    """Word-interleaved banking: contention vs bank count (DES)."""

    def run_with_banks(banks):
        cluster = Cluster(banks=banks)
        streams = []
        for core in range(4):
            report = LoweredReport("x", cycles=3000.0, memory_accesses=1800.0)
            streams.append(op_stream_from_report(report, core_index=core,
                                                 pattern="random"))
        return cluster.run(streams).wall_cycles / 3000.0

    factors = benchmark(lambda: {b: run_with_banks(b) for b in (2, 4, 8, 16)})
    lines = ["TCDM bank-count ablation (4 cores, 60% memory intensity):"]
    for banks, factor in factors.items():
        lines.append(f"  {banks:2d} banks: {factor:.3f}x slowdown")
    save_result(results_dir, "ablation_tcdm_banks", "\n".join(lines))
    assert factors[2] > factors[8]
    assert factors[16] < 1.2


def test_ablation_or10n_features(benchmark, results_dir):
    """Per-feature breakdown of the OR10N architectural speedup."""
    program = MatmulKernel("char").build_program()
    m4_cycles = CortexM4Target().lower(program).cycles

    variants = {
        "full OR10N": or10n_costs(),
        "no hardware loops": or10n_costs().with_overrides(hardware_loops=0),
        "no post-increment": or10n_costs().with_overrides(addr_folded=False),
        "no SIMD": or10n_costs().with_overrides(simd={}),
        "2-cycle MAC": or10n_costs().with_overrides(
            op_cycles={**dict(or10n_costs().op_cycles), OpKind.MAC: 2.0}),
    }

    def compute():
        return {name: m4_cycles / Target(costs).lower(program).cycles
                for name, costs in variants.items()}

    speedups = benchmark(compute)
    lines = ["architectural speedup of matmul (char) vs Cortex-M4:"]
    for name, value in speedups.items():
        lines.append(f"  {name:20s} {value:.2f}x")
    save_result(results_dir, "ablation_or10n_features", "\n".join(lines))
    full = speedups["full OR10N"]
    for name, value in speedups.items():
        if name != "full OR10N":
            assert value < full, name


def test_ablation_barrier_cost(benchmark, results_dir):
    """HW synchronizer (~100-cycle barriers) vs a software barrier
    (~1k cycles) on the mean OpenMP runtime overhead."""

    def mean_overhead(barrier_cycles):
        overheads = OmpOverheads(barrier=barrier_cycles)
        omp = DeviceOpenMp(Or10nTarget(), 4, overheads=overheads)
        fractions = [omp.execute(k.build_program()).overhead_fraction
                     for k in all_kernels()]
        return sum(fractions) / len(fractions)

    hw, sw = benchmark(lambda: (mean_overhead(100.0), mean_overhead(1200.0)))
    save_result(results_dir, "ablation_barrier_cost",
                f"mean OpenMP runtime overhead across the 10 benchmarks:\n"
                f"  HW synchronizer barrier (100 cy): {hw:.2%}\n"
                f"  software barrier (1200 cy):       {sw:.2%}")
    assert sw > hw


def test_cycle_breakdown(benchmark, results_dir):
    """Where each target spends its cycles (mechanism drill-down)."""
    from repro.experiments import cycle_breakdown

    rows = benchmark(cycle_breakdown.run)
    text = "\n\n".join(cycle_breakdown.render(rows, target=t)
                       for t in ("or10n", "cortex-m4"))
    save_result(results_dir, "cycle_breakdown", text)
    by_key = {(r.kernel, r.target): r for r in rows}
    # hog's software 64-bit arithmetic dominates OR10N only.
    assert by_key[("hog", "or10n")].share("wide64") > 0.35
    assert by_key[("hog", "cortex-m4")].share("wide64") < \
        by_key[("hog", "or10n")].share("wide64")


def test_ablation_analytic_vs_des(benchmark, results_dir):
    """Cross-validation: the analytic contention model against the
    cycle-level cluster across the intensity range."""

    def compare():
        rows = []
        for intensity in (0.2, 0.4, 0.6, 0.8):
            cycles = 3000.0
            streams = []
            for core in range(4):
                report = LoweredReport("x", cycles=cycles,
                                       memory_accesses=cycles * intensity)
                streams.append(op_stream_from_report(
                    report, core_index=core, pattern="random"))
            des = Cluster().run(streams).wall_cycles / cycles
            analytic = ContentionModel().stall_factor(4, intensity)
            rows.append((intensity, des, analytic))
        return rows

    rows = benchmark(compare)
    lines = ["analytic vs discrete-event contention factor (4 cores):",
             "  intensity   DES     analytic"]
    for intensity, des, analytic in rows:
        lines.append(f"  {intensity:9.1f}   {des:.3f}   {analytic:.3f}")
    save_result(results_dir, "ablation_analytic_vs_des", "\n".join(lines))
    for intensity, des, analytic in rows:
        assert des == pytest.approx(analytic, abs=0.07)
