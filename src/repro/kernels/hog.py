"""Histogram of Oriented Gradients feature descriptor.

A fixed-point port of the VLFeat/Dalal-Triggs HOG pipeline on a 128x128
8-bit image, cell size 8, 2x2-cell blocks, 9 unsigned orientation bins:

1. **gradients** — central differences, then CORDIC vectoring (24
   iterations, on software 64-bit words) gives magnitude and angle in
   Q16.16;
2. **blocks** — every 2x2-cell block (15x15 of them, 16x16 pixels each)
   re-accumulates its Gaussian-weighted cell histograms with bilinear
   orientation interpolation, the accumulators being the paper's
   "SW-emulated 64-bit variables";
3. **normalization** — per block: L2 energy, Newton reciprocal square
   root, scaling and the 0.2 clipping of Dalal-Triggs;
4. **descriptor** — each cell emits the four block-normalized copies of
   its 9 bins (36 values), 16x16x36 Q16.16 words = the 36 kB output of
   Table I (boundary cells replicate their nearest available copy).

HOG "has the interesting property of needing a very high dynamic range,
and is thus ill-suited to fixed-point implementation; to ensure accuracy
is kept at an acceptable level, we had to employ 32-bit fixed-point
numbers and SW-emulated 64-bit variables for accumulation" — the source
of its architectural *slowdown* in Figure 4, which this kernel's
MUL64/ADD64-heavy IR reproduces.
"""

from __future__ import annotations

import math
from typing import Tuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from repro.errors import KernelError
from repro.isa.program import Block, Loop, Program
from repro.isa.vop import DType, OpKind, VOp, addr, alu, load, store
from repro.kernels.base import Arrays, Kernel
from repro.kernels.fixmath import (
    CORDIC_ITERATIONS,
    Q15_ONE,
    Q16_ONE,
    cordic_vectoring,
    rsqrt_q16,
)

IMAGE = 128
CELL = 8
BINS = 9
CELLS = IMAGE // CELL              # 16
BLOCKS = CELLS - 1                 # 15
BLOCK_PIXELS = (2 * CELL) ** 2     # 256
DESCRIPTOR_DIMS = 4 * BINS         # 36
#: Dalal-Triggs clipping threshold (0.2) in Q16.16.
CLIP_Q16 = int(0.2 * Q16_ONE)
#: Normalization epsilon in Q16.16.
EPSILON_Q16 = 1 << 8

_PI_Q16 = int(round(math.pi * Q16_ONE))


def gaussian_window_q15() -> np.ndarray:
    """16x16 Gaussian block window, sigma = half block width, Q1.15."""
    side = 2 * CELL
    center = (side - 1) / 2.0
    sigma = side / 2.0
    ys, xs = np.mgrid[0:side, 0:side]
    window = np.exp(-((ys - center) ** 2 + (xs - center) ** 2)
                    / (2 * sigma ** 2))
    return np.round(window * Q15_ONE).astype(np.int64)


class HogKernel(Kernel):
    """HOG feature extraction in 32-bit fixed point."""

    name = "hog"
    description = "Histogram of Oriented Gradients feature descriptor"
    field = "vision"

    def __init__(self):
        self._window = gaussian_window_q15()

    # -- functional path ---------------------------------------------------------

    def generate_inputs(self, seed: int = 0) -> Arrays:
        rng = np.random.default_rng(seed)
        base = rng.integers(0, 256, size=(IMAGE, IMAGE))
        # Low-pass the noise a little so gradients have structure.
        smooth = (base
                  + np.roll(base, 1, axis=0) + np.roll(base, -1, axis=0)
                  + np.roll(base, 1, axis=1) + np.roll(base, -1, axis=1)) // 5
        return {"image": smooth.astype(np.uint8)}

    def _gradients(self, image: np.ndarray
                   ) -> Tuple[np.ndarray, np.ndarray]:
        """Magnitude and angle (Q16.16) per pixel, zero at the border.

        The angle comes from CORDIC vectoring; the magnitude from an
        integer Newton square root of the 64-bit squared norm (the
        CORDIC gain-correction path loses too much precision at the
        dynamic range HOG needs — this is the paper's "SW-emulated
        64-bit" hotspot).
        """
        img = image.astype(np.int64)
        dx = np.zeros_like(img)
        dy = np.zeros_like(img)
        dx[:, 1:-1] = img[:, 2:] - img[:, :-2]
        dy[1:-1, :] = img[2:, :] - img[:-2, :]
        _, angle = cordic_vectoring(dx << 16, dy << 16, CORDIC_ITERATIONS)
        norm_q16 = (dx * dx + dy * dy) << 16
        positive = norm_q16 > 0
        magnitude = np.zeros_like(norm_q16)
        if np.any(positive):
            values = norm_q16[positive]
            # sqrt(v) = v * rsqrt(v), all Q16.16 Newton arithmetic.
            magnitude[positive] = (values * rsqrt_q16(values, iterations=5)) >> 16
        border = np.zeros_like(img, dtype=bool)
        border[0, :] = border[-1, :] = True
        border[:, 0] = border[:, -1] = True
        magnitude = np.where(border, 0, magnitude)
        angle = np.where(border, 0, angle)
        return magnitude, angle

    @staticmethod
    def _spatial_weights_q16(side: int) -> Tuple[np.ndarray, np.ndarray]:
        """Per-coordinate bilinear weights towards the low cell (Q16.16).

        Cell centers sit at 3.5 and 11.5 pixels inside the 16-pixel
        block; weight ramps linearly between them and clamps outside
        (Dalal-Triggs per-block trilinear interpolation).
        """
        position_q16 = (np.arange(side, dtype=np.int64) << 16) + (1 << 15)
        low_center = (7 << 16) >> 1          # 3.5 in Q16.16
        t = (position_q16 - low_center) >> 3  # divide by the 8-pixel pitch
        w_high = np.clip(t, 0, Q16_ONE)
        w_low = Q16_ONE - w_high
        return w_low, w_high

    def _block_histograms(self, magnitude: np.ndarray,
                          angle: np.ndarray) -> np.ndarray:
        """Gaussian-weighted, trilinearly interpolated 2x2x9 histogram of
        every block, ``[block_y, block_x, cell, bin]`` (software 64-bit
        accumulators).

        A pixel's orientation bin and fraction do not depend on the block
        it is counted in, and its Gaussian and spatial weights depend only
        on its position inside the block, so each is computed once over
        overlapping block views.  All arithmetic is integer: the order of
        accumulation cannot change a sum.
        """
        side = 2 * CELL
        # Fold angle into [0, pi) (unsigned orientations).
        folded = np.where(angle < 0, angle + _PI_Q16, angle)
        folded = np.where(folded >= _PI_Q16, folded - _PI_Q16, folded)
        # t = angle * BINS / pi in Q16.16.
        t = (folded * BINS << 16) // _PI_Q16

        def blocks(plane: np.ndarray) -> np.ndarray:
            """[block_y, block_x, pixel_y, pixel_x] view of *plane*."""
            return sliding_window_view(plane, (side, side))[::CELL, ::CELL]

        bin_low = blocks((t >> 16) % BINS)
        frac = blocks(t & (Q16_ONE - 1))
        weighted = (blocks(magnitude) * self._window) >> 15
        orientation_parts = (
            (bin_low, (weighted * (Q16_ONE - frac)) >> 16),
            ((bin_low + 1) % BINS, (weighted * frac) >> 16),
        )
        w_low, w_high = self._spatial_weights_q16(side)
        wy = np.stack([w_low, w_high])   # [cell_y, pixel_y]
        wx = np.stack([w_low, w_high])
        # Flat index of (block, cell 0, bin 0), broadcast over pixels.
        block_base = (np.arange(BLOCKS * BLOCKS, dtype=np.int64)
                      * (4 * BINS)).reshape(BLOCKS, BLOCKS, 1, 1)
        histograms = np.zeros(BLOCKS * BLOCKS * 4 * BINS, dtype=np.int64)
        for bins, contribution in orientation_parts:
            for cell_y in range(2):
                for cell_x in range(2):
                    cell = 2 * cell_y + cell_x
                    spatial = (wy[cell_y][:, None] * wx[cell_x][None, :]) >> 16
                    value = (contribution * spatial) >> 16
                    index = block_base + cell * BINS + bins
                    np.add.at(histograms, index.ravel(), value.ravel())
        return histograms.reshape(BLOCKS, BLOCKS, 4, BINS)

    def compute(self, inputs: Arrays) -> Arrays:
        image = inputs["image"]
        self._check_shape(image, (IMAGE, IMAGE), "image")
        if image.dtype != np.uint8:
            raise KernelError("hog expects a uint8 image")
        magnitude, angle = self._gradients(image)
        histograms = self._block_histograms(magnitude, angle)
        # Per-block normalization, all blocks in one rsqrt call (the
        # integer arithmetic is elementwise, so batching is exact).
        energy = ((histograms * histograms) >> 16).sum(axis=(2, 3)) \
            + EPSILON_Q16
        norm = rsqrt_q16(energy)[:, :, None, None]
        normalized = np.minimum((histograms * norm) >> 16, CLIP_Q16)
        # descriptor[cy, cx, slot, bin]; slot = cell position in block.
        descriptor = np.zeros((CELLS, CELLS, 4, BINS), dtype=np.int64)
        filled = np.zeros((CELLS, CELLS, 4), dtype=bool)
        for slot in range(4):
            dy, dx = slot // 2, slot % 2
            # The cell's position inside its block indexes the
            # descriptor slot (top-left block -> slot 3, etc).
            descriptor[dy:dy + BLOCKS, dx:dx + BLOCKS, 3 - slot] = \
                normalized[:, :, slot]
            filled[dy:dy + BLOCKS, dx:dx + BLOCKS, 3 - slot] = True
        self._fill_boundary(descriptor, filled)
        return {"descriptor": descriptor.astype(np.int32)}

    @staticmethod
    def _fill_boundary(descriptor: np.ndarray, filled: np.ndarray) -> None:
        """Boundary cells belong to fewer than four blocks; replicate the
        nearest available normalized copy into the empty slots."""
        for cy in range(CELLS):
            for cx in range(CELLS):
                available = [s for s in range(4) if filled[cy, cx, s]]
                if not available:
                    continue
                source = descriptor[cy, cx, available[0]]
                for slot in range(4):
                    if not filled[cy, cx, slot]:
                        descriptor[cy, cx, slot] = source

    def reference(self, inputs: Arrays) -> Arrays:
        """Floating-point HOG with the same block structure."""
        image = inputs["image"].astype(np.float64)
        dx = np.zeros_like(image)
        dy = np.zeros_like(image)
        dx[:, 1:-1] = image[:, 2:] - image[:, :-2]
        dy[1:-1, :] = image[2:, :] - image[:-2, :]
        magnitude = np.hypot(dx, dy)
        angle = np.arctan2(dy, dx)
        magnitude[0, :] = magnitude[-1, :] = 0
        magnitude[:, 0] = magnitude[:, -1] = 0
        window = gaussian_window_q15() / Q15_ONE
        descriptor = np.zeros((CELLS, CELLS, 4, BINS))
        filled = np.zeros((CELLS, CELLS, 4), dtype=bool)
        side = 2 * CELL
        positions = np.arange(side) + 0.5
        w_high_1d = np.clip((positions - 3.5) / 8.0, 0.0, 1.0)
        w_low_1d = 1.0 - w_high_1d
        wy = np.stack([w_low_1d, w_high_1d])
        wx = np.stack([w_low_1d, w_high_1d])
        for block_y in range(BLOCKS):
            for block_x in range(BLOCKS):
                y0, x0 = block_y * CELL, block_x * CELL
                mag = magnitude[y0:y0 + side, x0:x0 + side] * window
                ang = angle[y0:y0 + side, x0:x0 + side] % math.pi
                t = ang * BINS / math.pi
                bin_low = np.floor(t).astype(int) % BINS
                frac = t - np.floor(t)
                histogram = np.zeros((4, BINS))
                for bins, contribution in ((bin_low, mag * (1 - frac)),
                                           ((bin_low + 1) % BINS, mag * frac)):
                    for cell_y in range(2):
                        for cell_x in range(2):
                            spatial = wy[cell_y][:, None] * wx[cell_x][None, :]
                            np.add.at(histogram[2 * cell_y + cell_x],
                                      bins.ravel(),
                                      (contribution * spatial).ravel())
                energy = (histogram ** 2).sum() + EPSILON_Q16 / Q16_ONE
                normalized = np.minimum(histogram / math.sqrt(energy), 0.2)
                for slot in range(4):
                    cy = block_y + slot // 2
                    cx = block_x + slot % 2
                    descriptor[cy, cx, 3 - slot] = normalized[slot]
                    filled[cy, cx, 3 - slot] = True
        for cy in range(CELLS):
            for cx in range(CELLS):
                available = [s for s in range(4) if filled[cy, cx, s]]
                if available:
                    for slot in range(4):
                        if not filled[cy, cx, slot]:
                            descriptor[cy, cx, slot] = \
                                descriptor[cy, cx, available[0]]
        return {"descriptor": descriptor}

    # -- marshalling ---------------------------------------------------------------

    def serialize_inputs(self, inputs: Arrays) -> bytes:
        return inputs["image"].tobytes()

    def serialize_outputs(self, outputs: Arrays) -> bytes:
        return outputs["descriptor"].tobytes()

    # -- architectural path -----------------------------------------------------------

    def build_program(self) -> Program:
        # Phase 1: gradients + CORDIC per pixel (parallel rows).
        cordic_iteration = Block([
            VOp(OpKind.SHIFT64, DType.I32, count=2),
            VOp(OpKind.ADD64, DType.I32, count=3),   # x, y, angle updates
            alu(OpKind.CMP, DType.I32),
            alu(OpKind.SELECT, DType.I32),
            load(DType.I32),                         # angle table
            addr(),
        ])
        newton_iteration = Block([
            # y = y * (3 - v*y*y) / 2 on software 64-bit words.
            VOp(OpKind.MUL64, DType.I32, count=2),
            VOp(OpKind.SHIFT64, DType.I32, count=2),
            VOp(OpKind.ADD64, DType.I32),
        ])
        pixel_gradient = [
            Block([
                load(DType.I8, count=4),
                alu(OpKind.SUB, DType.I32, count=2),
                VOp(OpKind.SHIFT64, DType.I32, count=2),   # promote to Q16.16
                addr(count=2),
            ]),
            Loop(CORDIC_ITERATIONS, [cordic_iteration], name="cordic"),
            # Magnitude: 64-bit squared norm + Newton reciprocal sqrt.
            Block([
                VOp(OpKind.MUL64, DType.I32, count=2),     # dx^2, dy^2
                VOp(OpKind.ADD64, DType.I32),
                alu(OpKind.CMP, DType.I32),                # rsqrt seed
                alu(OpKind.SHIFT, DType.I32, count=2),
            ]),
            Loop(5, [newton_iteration], name="newton-sqrt"),
            Block([
                VOp(OpKind.MUL64, DType.I32),              # v * rsqrt(v)
                VOp(OpKind.SHIFT64, DType.I32),
                store(DType.I32, count=2),                 # mag, angle
                addr(count=2),
            ]),
        ]
        # The device loop runs over every pixel (borders are computed
        # with clamped neighbours and later masked), parallel over rows.
        gradients = Loop(IMAGE, [Loop(IMAGE, pixel_gradient,
                                      name="grad-cols")],
                         parallelizable=True, name="gradients")
        # Phase 2: block histogramming (parallel over block rows).
        pixel_binning = Block([
            load(DType.I32, count=2),                      # mag, angle
            load(DType.I16),                               # gaussian weight
            alu(OpKind.CMP, DType.I32), alu(OpKind.SELECT, DType.I32),
            alu(OpKind.ADD, DType.I32),                    # angle fold
            VOp(OpKind.MUL64, DType.I32, count=2),         # t, weighted mag
            VOp(OpKind.SHIFT64, DType.I32, count=2),
            alu(OpKind.SUB, DType.I32, count=3),           # 1-frac, 1-wy, 1-wx
            # Spatial bilinear weights (wy, wx per coordinate).
            VOp(OpKind.MUL64, DType.I32, count=2),
            VOp(OpKind.SHIFT64, DType.I32, count=2),
            alu(OpKind.MINMAX, DType.I32, count=2),        # clamp to [0, 1]
            # 2 orientation x 4 spatial contributions, each a Q16.16
            # multiply chain plus a software 64-bit accumulate.
            VOp(OpKind.MUL64, DType.I32, count=8),
            VOp(OpKind.SHIFT64, DType.I32, count=8),
            VOp(OpKind.ADD64, DType.I32, count=8),
            load(DType.I32, count=8), store(DType.I32, count=8),
            addr(count=5),
        ])
        blocks = Loop(BLOCKS, [
            Loop(BLOCKS, [
                Block([alu(OpKind.MOVE, DType.I32, count=8)]),
                Loop(BLOCK_PIXELS, [pixel_binning], name="block-pixels"),
                # Normalization: energy, rsqrt, scale + clip 36 values.
                Loop(DESCRIPTOR_DIMS, [Block([
                    load(DType.I32),
                    VOp(OpKind.MAC64, DType.I32),
                    addr(),
                ])], name="energy"),
                Block([
                    # 4 Newton iterations of rsqrt on 64-bit words.
                    VOp(OpKind.MUL64, DType.I32, count=8),
                    VOp(OpKind.SHIFT64, DType.I32, count=8),
                    VOp(OpKind.ADD64, DType.I32, count=4),
                    alu(OpKind.MOVE, DType.I32, count=6),
                ]),
                Loop(DESCRIPTOR_DIMS, [Block([
                    load(DType.I32),
                    VOp(OpKind.MUL64, DType.I32),
                    VOp(OpKind.SHIFT64, DType.I32),
                    alu(OpKind.MINMAX, DType.I32),
                    store(DType.I32),
                    addr(count=2),
                ])], name="scale"),
            ], name="block-cols"),
        ], parallelizable=True, name="blocks")
        # Phase 3: boundary replication (parallel over cell rows).
        boundary = Loop(CELLS, [Loop(CELLS * BINS, [Block([
            load(DType.I32), store(DType.I32), addr(count=2),
        ])], name="copy")], parallelizable=True, name="boundary")
        output_bytes = CELLS * CELLS * DESCRIPTOR_DIMS * 4
        # The device implementation is strip-mined: gradients and blocks
        # are processed in 16-row strips so the working set stays small
        # and the descriptor can overwrite the input region (the 64 kB L2
        # cannot hold binary + input + full gradient planes + output at
        # once — see OffloadManager's overlapped layout).
        strip_workspace = 2 * IMAGE * (2 * CELL) * 4 + BLOCKS * 4 * BINS * 8
        return Program(
            name=self.name,
            body=[gradients, blocks, boundary],
            input_bytes=IMAGE * IMAGE,
            output_bytes=output_bytes,
            const_bytes=(2 * CELL) ** 2 * 2        # gaussian window
            + CORDIC_ITERATIONS * 4                 # angle table
            + 20 * 1024,                            # atan/orientation LUTs
            buffer_bytes=strip_workspace,
        )
