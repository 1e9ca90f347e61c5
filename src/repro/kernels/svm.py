"""Support Vector Machine classifier kernels (linear / polynomial / RBF).

A C port of the libsvm decision function on 16-bit fixed-point data, as
the paper describes ("the svm kernels are based on a C porting of libsvm;
they work on 16-bit fixed-point data").  The embedded configuration is a
16-class one-vs-rest classifier with a *shared* compacted support set —
the shape used by the classroom-occupancy application line the paper's
benchmarks come from — so the expensive part, the ``ntest x nsv`` kernel
evaluations over ``d``-dimensional Q1.15 vectors, is computed once and
reused by every class.

Decision function per class ``c`` and test vector ``x``::

    f_c(x) = sum_i alpha[c, i] * K(sv_i, x) - rho[c]

with ``K`` one of ``linear`` (dot), ``poly`` ((gamma*dot + coef0)^3) or
``rbf`` (exp(-gamma * ||sv - x||^2)).
"""

from __future__ import annotations

import numpy as np

from repro.errors import KernelError
from repro.isa.program import Block, Loop, Program
from repro.isa.vop import DType, OpKind, VOp, addr, alu, load, store
from repro.kernels.base import Arrays, Kernel
from repro.kernels.fixmath import Q15_ONE, cube_q15, exp_neg_q

_KERNELS = ("linear", "poly", "RBF")


class SvmKernel(Kernel):
    """Multi-class SVM decision over Q1.15 feature vectors."""

    field = "learning / vision"

    #: gamma in Q1.15 (0.25) shared by poly and RBF.
    GAMMA_Q15 = Q15_ONE // 4
    #: coef0 in Q1.15 (0.125) for the polynomial kernel.
    COEF0_Q15 = Q15_ONE // 8

    def __init__(self, kernel: str = "linear", dimensions: int = 144,
                 support_vectors: int = 20, test_vectors: int = 24,
                 classes: int = 16):
        if kernel not in _KERNELS:
            raise KernelError(f"unknown SVM kernel {kernel!r}")
        if min(dimensions, support_vectors, test_vectors, classes) < 1:
            raise KernelError("all SVM dimensions must be positive")
        self.kernel = kernel
        self.dimensions = int(dimensions)
        self.support_vectors = int(support_vectors)
        self.test_vectors = int(test_vectors)
        self.classes = int(classes)
        self.name = f"svm ({kernel})"
        self.description = {
            "linear": "Support Vector Machine classifier (linear kernel)",
            "poly": "Support Vector Machine classifier (polynomial kernel)",
            "RBF": "Support Vector Machine classifier (radial basis function kernel)",
        }[kernel]

    @property
    def identity(self) -> tuple:
        return (type(self), self.name, self.dimensions, self.support_vectors,
                self.test_vectors, self.classes)

    # -- functional path ---------------------------------------------------------

    def generate_inputs(self, seed: int = 0) -> Arrays:
        rng = np.random.default_rng(seed)
        # Model: part of the binary; test vectors: the marshalled input.
        sv = rng.integers(-Q15_ONE // 2, Q15_ONE // 2,
                          size=(self.support_vectors, self.dimensions)
                          ).astype(np.int16)
        alpha = rng.integers(-Q15_ONE // 4, Q15_ONE // 4,
                             size=(self.classes, self.support_vectors)
                             ).astype(np.int16)
        rho = rng.integers(-Q15_ONE // 8, Q15_ONE // 8,
                           size=self.classes).astype(np.int16)
        x = rng.integers(-Q15_ONE // 2, Q15_ONE // 2,
                         size=(self.test_vectors, self.dimensions)
                         ).astype(np.int16)
        return {"sv": sv, "alpha": alpha, "rho": rho, "x": x}

    def _kernel_matrix_q15(self, sv: np.ndarray, x: np.ndarray) -> np.ndarray:
        """K[t, i] in Q1.15 (int64)."""
        sv64 = sv.astype(np.int64)
        x64 = x.astype(np.int64)
        if self.kernel == "linear" or self.kernel == "poly":
            # Per-product renormalized dot (each product shifted before
            # accumulation), then scaled by 1/d to stay in Q1.15 range.
            products = (x64[:, None, :] * sv64[None, :, :]) >> 15
            dots_q15 = products.sum(axis=2) // self.dimensions
            if self.kernel == "linear":
                return dots_q15
            scaled = (self.GAMMA_Q15 * dots_q15) >> 15
            shifted = scaled + self.COEF0_Q15
            return cube_q15(shifted)
        # RBF: squared distances, renormalized per term and scaled by 1/d.
        diffs = x64[:, None, :] - sv64[None, :, :]
        squares = (diffs * diffs) >> 15
        distance_q15 = squares.sum(axis=2) // self.dimensions
        exponent_q16 = (self.GAMMA_Q15 * distance_q15) >> 14  # Q16.16
        return exp_neg_q(exponent_q16)

    def compute(self, inputs: Arrays) -> Arrays:
        sv = inputs["sv"]
        alpha = inputs["alpha"]
        rho = inputs["rho"]
        x = inputs["x"]
        self._check_shape(sv, (self.support_vectors, self.dimensions), "sv")
        self._check_shape(alpha, (self.classes, self.support_vectors), "alpha")
        self._check_shape(x, (self.test_vectors, self.dimensions), "x")
        kernel_q15 = self._kernel_matrix_q15(sv, x)
        # decisions[t, c] = sum_i alpha[c, i] * K[t, i] - rho[c], Q16.16.
        decisions_q30 = kernel_q15 @ alpha.astype(np.int64).T
        decisions_q16 = (decisions_q30 >> 14) - (rho.astype(np.int64) << 1)
        labels = np.argmax(decisions_q16, axis=1).astype(np.int32)
        return {
            "decisions": decisions_q16.astype(np.int32),
            "labels": labels,
        }

    def reference(self, inputs: Arrays) -> Arrays:
        sv = inputs["sv"].astype(np.float64) / Q15_ONE
        alpha = inputs["alpha"].astype(np.float64) / Q15_ONE
        rho = inputs["rho"].astype(np.float64) / Q15_ONE
        x = inputs["x"].astype(np.float64) / Q15_ONE
        gamma = self.GAMMA_Q15 / Q15_ONE
        coef0 = self.COEF0_Q15 / Q15_ONE
        if self.kernel == "linear":
            kernel = (x @ sv.T) / self.dimensions
        elif self.kernel == "poly":
            kernel = (gamma * (x @ sv.T) / self.dimensions + coef0) ** 3
        else:
            distances = ((x[:, None, :] - sv[None, :, :]) ** 2).sum(axis=2)
            kernel = np.exp(-gamma * distances / self.dimensions)
        decisions = kernel @ alpha.T - rho[None, :]
        return {
            "decisions": decisions,
            "labels": np.argmax(decisions, axis=1).astype(np.int32),
        }

    # -- marshalling ---------------------------------------------------------------

    def serialize_inputs(self, inputs: Arrays) -> bytes:
        # Only the test vectors travel: the model ships inside the binary.
        return inputs["x"].tobytes()

    def serialize_outputs(self, outputs: Arrays) -> bytes:
        return outputs["decisions"].tobytes() + outputs["labels"].tobytes()

    # -- architectural path -----------------------------------------------------------

    def model_bytes(self) -> int:
        """Bytes of the model constants shipped in the binary."""
        sv = self.support_vectors * self.dimensions * 2
        alpha = self.classes * self.support_vectors * 2
        rho = self.classes * 2
        # The libsvm port ships its generic fixed-point math tables
        # (pow/log for poly, plus exp for RBF) with every kernel build.
        math_tables = 1920
        exp_table = 514 if self.kernel == "RBF" else 0
        return sv + alpha + rho + math_tables + exp_table

    def build_program(self) -> Program:
        d = self.dimensions
        nsv = self.support_vectors
        # Inner dot/distance loop over the d dimensions (Q1.15, so every
        # product pays the renormalizing shift — the very reason the
        # paper's fixed-point kernels cannot use the fused MAC or SIMD).
        if self.kernel == "RBF":
            dot_ops = [
                load(DType.I16), load(DType.I16),
                alu(OpKind.SUB, DType.I16),
                alu(OpKind.MUL, DType.I16), alu(OpKind.SHIFT, DType.I32),
                alu(OpKind.ADD, DType.I32),
                addr(count=2),
            ]
        else:
            dot_ops = [
                load(DType.I16), load(DType.I16),
                alu(OpKind.MUL, DType.I16), alu(OpKind.SHIFT, DType.I32),
                alu(OpKind.ADD, DType.I32),
                addr(count=2),
            ]
        dot_loop = Loop(d, [Block(dot_ops)], name="dims")
        # Post-dot kernel evaluation.
        if self.kernel == "linear":
            post = Block([alu(OpKind.SHIFT, DType.I32),
                          store(DType.I32), addr()])
        elif self.kernel == "poly":
            # Generic fixed pow() path of the libsvm port: log/exp tables.
            post = Block([
                alu(OpKind.MUL, DType.I32, count=4),
                alu(OpKind.SHIFT, DType.I32, count=4),
                alu(OpKind.ADD, DType.I32, count=3),
                VOp(OpKind.LOAD, DType.I16, count=4),
                alu(OpKind.SELECT, DType.I32, count=2),
                alu(OpKind.MOVE, DType.I32, count=38),
                store(DType.I32), addr(),
            ])
        else:
            # Range reduction + exp LUT + interpolation.
            post = Block([
                alu(OpKind.MUL, DType.I32, count=3),
                alu(OpKind.SHIFT, DType.I32, count=4),
                alu(OpKind.ADD, DType.I32, count=3),
                VOp(OpKind.LOAD, DType.I16, count=2),
                alu(OpKind.SUB, DType.I32, count=2),
                alu(OpKind.SELECT, DType.I32, count=2),
                alu(OpKind.MOVE, DType.I32, count=60),
                store(DType.I32), addr(),
            ])
        sv_loop = Loop(nsv, [Block([alu(OpKind.MOVE, DType.I32)]),
                             dot_loop, post], name="sv")
        class_loop = Loop(self.classes, [
            Block([alu(OpKind.MOVE, DType.I32)]),
            Loop(nsv, [Block([
                load(DType.I16), load(DType.I32),
                alu(OpKind.MUL, DType.I32), alu(OpKind.ADD, DType.I32),
                addr(count=2),
            ])], name="acc"),
            Block([alu(OpKind.SUB, DType.I32), alu(OpKind.SHIFT, DType.I32),
                   store(DType.I32), addr()]),
        ], name="classes")
        argmax = Loop(self.classes, [Block([
            load(DType.I32), alu(OpKind.CMP, DType.I32),
            alu(OpKind.SELECT, DType.I32, count=2), addr(),
        ])], name="argmax")
        test_loop = Loop(self.test_vectors,
                         [sv_loop, class_loop, argmax,
                          Block([store(DType.I32), addr()])],
                         parallelizable=True, name="tests")
        return Program(
            name=self.name,
            body=[test_loop],
            input_bytes=self.test_vectors * d * 2,
            output_bytes=self.test_vectors * (self.classes + 1) * 4,
            const_bytes=self.model_bytes(),
            buffer_bytes=self.test_vectors * d * 2
            + self.test_vectors * (self.classes + 1) * 4
            + nsv * 4,
        )
