"""Tests for the kernel registry and cross-kernel invariants."""

import pytest

from repro.errors import KernelError
from repro.kernels import BENCHMARK_NAMES, all_kernels, kernel_by_name
from repro.kernels.registry import PAPER_TABLE1
from repro.pulp.binary import KernelBinary


class TestRegistry:
    def test_ten_benchmarks(self):
        assert len(BENCHMARK_NAMES) == 10
        assert len(all_kernels()) == 10

    def test_table_order(self):
        assert BENCHMARK_NAMES[0] == "matmul"
        assert BENCHMARK_NAMES[-1] == "hog"

    def test_lookup(self):
        kernel = kernel_by_name("svm (RBF)")
        assert kernel.name == "svm (RBF)"

    def test_unknown_rejected(self):
        with pytest.raises(KernelError):
            kernel_by_name("fft")

    def test_fresh_instances(self):
        assert kernel_by_name("cnn") is not kernel_by_name("cnn")

    def test_paper_values_for_all(self):
        assert set(PAPER_TABLE1) == set(BENCHMARK_NAMES)

    def test_class_and_name_identify_distinct_programs(self):
        # The work memo keys programs, inputs and outputs on the kernel
        # identity; for the benchmarks that is (class, name).
        kernels = [kernel_by_name(name) for name in BENCHMARK_NAMES]
        pairs = {(type(k), k.name) for k in kernels}
        assert len(pairs) == len(BENCHMARK_NAMES)
        assert len({k.identity for k in kernels}) == len(BENCHMARK_NAMES)
        programs = [k.build_program() for k in kernels]
        assert len(set(programs)) == len(BENCHMARK_NAMES)
        for name in BENCHMARK_NAMES:
            assert kernel_by_name(name).build_program() \
                == programs[BENCHMARK_NAMES.index(name)]

    def test_identity_spells_unnamed_parameters(self):
        from repro.kernels.matmul import MatmulKernel
        from repro.kernels.svm import SvmKernel

        assert MatmulKernel("char", n=16).identity \
            != MatmulKernel("char").identity
        assert SvmKernel("linear", dimensions=32).identity \
            != SvmKernel("linear").identity


class TestCrossKernelInvariants:
    @pytest.fixture(scope="class")
    def programs(self):
        return {k.name: (k, k.build_program()) for k in all_kernels()}

    def test_names_match_programs(self, programs):
        for name, (kernel, program) in programs.items():
            assert program.name == name

    def test_serialized_io_matches_declared(self, programs):
        for name, (kernel, program) in programs.items():
            inputs = kernel.generate_inputs(0)
            assert len(kernel.serialize_inputs(inputs)) == \
                program.input_bytes, name
            outputs = kernel.compute(inputs)
            assert len(kernel.serialize_outputs(outputs)) == \
                program.output_bytes, name

    def test_risc_ops_within_10pct_except_hog(self, programs,
                                              baseline_target):
        for name, (kernel, program) in programs.items():
            measured = baseline_target.risc_ops(program)
            paper = PAPER_TABLE1[name][3]
            if name == "hog":
                assert 0.6 < measured / paper < 1.1, name
            else:
                assert measured == pytest.approx(paper, rel=0.10), name

    def test_binary_sizes_within_25pct(self, programs):
        for name, (kernel, program) in programs.items():
            binary = KernelBinary.from_program(program)
            paper = PAPER_TABLE1[name][2] * 1024
            assert binary.image_bytes == pytest.approx(paper, rel=0.25), name

    def test_io_sizes_match_paper(self, programs):
        for name, (kernel, program) in programs.items():
            paper_in = PAPER_TABLE1[name][0] * 1024
            paper_out = PAPER_TABLE1[name][1]
            assert program.input_bytes == pytest.approx(paper_in, rel=0.05), name
            assert program.output_bytes == pytest.approx(paper_out, rel=0.05), name

    def test_every_kernel_has_a_parallel_loop(self, programs):
        for name, (kernel, program) in programs.items():
            assert program.parallel_loops(), name

    def test_working_sets_fit_tcdm(self, programs):
        for name, (kernel, program) in programs.items():
            assert program.buffer_bytes <= 48 * 1024, name

    def test_all_deterministic(self):
        for kernel in all_kernels():
            first = kernel.run(11).output_payload
            second = kernel_by_name(kernel.name).run(11).output_payload
            assert first == second, kernel.name

    def test_different_seeds_differ(self):
        for kernel in all_kernels():
            a = kernel.run(0).output_payload
            b = kernel.run(1).output_payload
            assert a != b, kernel.name
