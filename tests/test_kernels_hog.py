"""Tests for the HOG kernel."""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import KernelError
from repro.isa.cortexm import CortexM3Target, CortexM4Target
from repro.isa.or10n import Or10nTarget
from repro.isa.vop import OpKind
from repro.kernels.hog import (
    _PI_Q16,
    BINS,
    BLOCKS,
    CELL,
    CELLS,
    CLIP_Q16,
    EPSILON_Q16,
    HogKernel,
    gaussian_window_q15,
)
from repro.kernels.fixmath import Q16_ONE, rsqrt_q16


@pytest.fixture(scope="module")
def hog_pair():
    kernel = HogKernel()
    inputs = kernel.generate_inputs(5)
    return kernel, inputs, kernel.compute(inputs), kernel.reference(inputs)


class TestGaussianWindow:
    def test_shape_and_peak(self):
        window = gaussian_window_q15()
        assert window.shape == (16, 16)
        peak = np.unravel_index(window.argmax(), window.shape)
        assert peak in ((7, 7), (7, 8), (8, 7), (8, 8))

    def test_symmetric(self):
        window = gaussian_window_q15()
        assert np.array_equal(window, window[::-1, :])
        assert np.array_equal(window, window[:, ::-1])


class TestFunctional:
    def test_descriptor_shape_and_dtype(self, hog_pair):
        _, _, fixed, _ = hog_pair
        descriptor = fixed["descriptor"]
        assert descriptor.shape == (CELLS, CELLS, 4, BINS)
        assert descriptor.dtype == np.int32

    def test_matches_float_reference(self, hog_pair):
        _, _, fixed, ref = hog_pair
        out = fixed["descriptor"] / Q16_ONE
        expected = ref["descriptor"]
        correlation = np.corrcoef(out.ravel(), expected.ravel())[0, 1]
        assert correlation > 0.99
        assert np.abs(out - expected).mean() < 0.01

    def test_values_clipped_and_nonnegative(self, hog_pair):
        _, _, fixed, _ = hog_pair
        descriptor = fixed["descriptor"]
        assert descriptor.min() >= 0
        assert descriptor.max() <= CLIP_Q16

    def test_flat_image_gives_zero_descriptor(self):
        kernel = HogKernel()
        flat = {"image": np.full((128, 128), 100, dtype=np.uint8)}
        descriptor = kernel.compute(flat)["descriptor"]
        assert not descriptor.any()

    def test_horizontal_edge_energizes_vertical_gradient_bin(self):
        kernel = HogKernel()
        image = np.zeros((128, 128), dtype=np.uint8)
        image[64:, :] = 200  # strong horizontal edge -> vertical gradient
        descriptor = kernel.compute({"image": image})["descriptor"]
        # The gradient direction is pi/2: bin index BINS // 2.
        edge_cells = descriptor[7:9, 4:12]
        strongest_bin = edge_cells.sum(axis=(0, 1, 2)).argmax()
        assert strongest_bin == pytest.approx(BINS // 2, abs=1)

    def test_output_size_is_36kb(self, hog_pair):
        kernel, inputs, fixed, _ = hog_pair
        payload = kernel.serialize_outputs(fixed)
        assert len(payload) == CELLS * CELLS * 4 * BINS * 4 == 36864

    def test_rejects_wrong_dtype(self):
        kernel = HogKernel()
        with pytest.raises(KernelError):
            kernel.compute({"image": np.zeros((128, 128), dtype=np.int16)})

    def test_rejects_wrong_shape(self):
        kernel = HogKernel()
        with pytest.raises(KernelError):
            kernel.compute({"image": np.zeros((64, 64), dtype=np.uint8)})


#: sha256 of the Q16.16 descriptor bytes for ``generate_inputs(seed)``.
#: The float-reference comparison above has a tolerance, so a reordering
#: that flips one LSB would pass it; these pins would not.
DESCRIPTOR_SHA256 = {
    0: "129ebbd4e653cad5fac0f8cd2a1108c0b0de30347da55eeaab35b51ab1cd6f02",
    1: "2c03b910a42c297f91fbe27cca41d1ab1ddfdbac280e59d5b4933b702c442424",
    2: "7eb9bb5eba47e20eb0223dff6c8642fd28e9b1f3a135a1841c04d9b099bcb207",
    3: "218fb3d4713630ca853672f01828e295ef9e0e982892bb53c3a875191d369430",
    4: "73f0812550f252099454feb217745d209f8acfbdb6062dd7374f4bd4eda333f6",
}


@pytest.mark.parametrize("seed", sorted(DESCRIPTOR_SHA256))
def test_descriptor_is_bit_exact(seed):
    kernel = HogKernel()
    descriptor = kernel.compute(kernel.generate_inputs(seed))["descriptor"]
    digest = hashlib.sha256(descriptor.tobytes()).hexdigest()
    assert digest == DESCRIPTOR_SHA256[seed]


def _per_block_compute(kernel, image):
    """The per-block form of ``HogKernel.compute``: one histogram and one
    single-element ``rsqrt_q16`` per block, kept as the reference for the
    batched path."""
    magnitude, angle = kernel._gradients(image)
    side = 2 * CELL
    w_low, w_high = kernel._spatial_weights_q16(side)
    wy = np.stack([w_low, w_high])
    wx = np.stack([w_low, w_high])
    descriptor = np.zeros((CELLS, CELLS, 4, BINS), dtype=np.int64)
    filled = np.zeros((CELLS, CELLS, 4), dtype=bool)
    for block_y in range(BLOCKS):
        for block_x in range(BLOCKS):
            y0, x0 = block_y * CELL, block_x * CELL
            mag = magnitude[y0:y0 + side, x0:x0 + side]
            ang = angle[y0:y0 + side, x0:x0 + side]
            folded = np.where(ang < 0, ang + _PI_Q16, ang)
            folded = np.where(folded >= _PI_Q16, folded - _PI_Q16, folded)
            t = (folded * BINS << 16) // _PI_Q16
            bin_low = (t >> 16) % BINS
            frac = t & (Q16_ONE - 1)
            weighted = (mag * kernel._window) >> 15
            histogram = np.zeros((4, BINS), dtype=np.int64)
            for bins, contribution in (
                    (bin_low, (weighted * (Q16_ONE - frac)) >> 16),
                    ((bin_low + 1) % BINS, (weighted * frac) >> 16)):
                for cell_y in range(2):
                    for cell_x in range(2):
                        spatial = (wy[cell_y][:, None]
                                   * wx[cell_x][None, :]) >> 16
                        value = (contribution * spatial) >> 16
                        np.add.at(histogram[2 * cell_y + cell_x],
                                  bins.ravel(), value.ravel())
            energy = ((histogram * histogram) >> 16).sum() + EPSILON_Q16
            norm = rsqrt_q16(np.array([energy]))[0]
            normalized = np.minimum((histogram * norm) >> 16, CLIP_Q16)
            for slot in range(4):
                cy, cx = block_y + slot // 2, block_x + slot % 2
                descriptor[cy, cx, 3 - slot] = normalized[slot]
                filled[cy, cx, 3 - slot] = True
    kernel._fill_boundary(descriptor, filled)
    return descriptor.astype(np.int32)


@settings(max_examples=8, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 255))
def test_batched_blocks_equal_per_block_reference(seed, contrast):
    rng = np.random.default_rng(seed)
    # Random contrast covers low-energy blocks (near the epsilon) as well
    # as saturated ones.
    image = (rng.integers(0, 256, size=(128, 128)) * contrast // 255)
    image = {"image": image.astype(np.uint8)}
    kernel = HogKernel()
    assert np.array_equal(kernel.compute(image)["descriptor"],
                          _per_block_compute(kernel, image["image"]))


class TestProgram:
    def test_table1_sizes(self):
        program = HogKernel().build_program()
        assert program.input_bytes == 16384
        assert program.output_bytes == 36864

    def test_risc_ops_order_of_magnitude(self, baseline_target):
        # Known deviation (EXPERIMENTS.md): we reach ~24M of the paper's
        # 31M; the shape requirement is hog >> every other kernel.
        ops = baseline_target.risc_ops(HogKernel().build_program())
        assert 20e6 < ops < 32e6

    def test_architectural_slowdown_vs_m4(self):
        # The paper's signature hog result: OR10N is *slower* than the
        # M4 (software 64-bit vs native UMLAL) and on par with the M3.
        program = HogKernel().build_program()
        or10n = Or10nTarget().lower(program).cycles
        m4 = CortexM4Target().lower(program).cycles
        m3 = CortexM3Target().lower(program).cycles
        assert m4 / or10n < 1.0
        assert m3 / or10n == pytest.approx(1.0, abs=0.1)

    def test_wide_ops_dominate(self, baseline_target):
        program = HogKernel().build_program()
        counts = program.dynamic_op_counts()
        wide = sum(counts.get(kind, 0) for kind in
                   (OpKind.MUL64, OpKind.ADD64, OpKind.SHIFT64, OpKind.MAC64))
        assert wide > 0.3 * sum(counts.values())

    def test_three_parallel_phases(self):
        program = HogKernel().build_program()
        assert len(program.parallel_loops()) == 3

    def test_blocks_phase_squares(self):
        program = HogKernel().build_program()
        blocks = [loop for loop in program.parallel_loops()
                  if loop.name == "blocks"]
        assert blocks[0].trips == BLOCKS
