"""Strassen fast matrix multiplication on char data.

One level of the Strassen recursion over 64x64 int8 matrices: ten
submatrix additions feed seven half-size products (classic inner-product
multiplies, char SIMD-friendly), recombined with eight more additions.
In exact integer arithmetic the result equals the classic product, so the
functional output is validated against :class:`MatmulKernel` directly.

Parallelization follows the paper's OpenMP structure: the seven products
form one collapsed parallel-for over product output rows; the addition
passes are parallel loops over rows.
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.errors import KernelError
from repro.isa.program import Block, Loop, Program
from repro.isa.vop import DType, OpKind, addr, alu, load, mac, store
from repro.kernels.base import Arrays, Kernel
from repro.kernels.matmul import _saturate


def strassen_multiply(a: np.ndarray, b: np.ndarray, threshold: int = 32) -> np.ndarray:
    """Exact integer Strassen recursion (int64 arithmetic)."""
    n = a.shape[0]
    if n <= threshold or n % 2:
        return a @ b
    h = n // 2
    a11, a12, a21, a22 = a[:h, :h], a[:h, h:], a[h:, :h], a[h:, h:]
    b11, b12, b21, b22 = b[:h, :h], b[:h, h:], b[h:, :h], b[h:, h:]
    p1 = strassen_multiply(a11 + a22, b11 + b22, threshold)
    p2 = strassen_multiply(a21 + a22, b11, threshold)
    p3 = strassen_multiply(a11, b12 - b22, threshold)
    p4 = strassen_multiply(a22, b21 - b11, threshold)
    p5 = strassen_multiply(a11 + a12, b22, threshold)
    p6 = strassen_multiply(a21 - a11, b11 + b12, threshold)
    p7 = strassen_multiply(a12 - a22, b21 + b22, threshold)
    c = np.empty((n, n), dtype=np.int64)
    c[:h, :h] = p1 + p4 - p5 + p7
    c[:h, h:] = p3 + p5
    c[h:, :h] = p2 + p4
    c[h:, h:] = p1 - p2 + p3 + p6
    return c


class StrassenKernel(Kernel):
    """Strassen algorithm for fast matrix multiplication (char data)."""

    name = "strassen"
    description = "Strassen algorithm for fast matrix multiplication"
    field = "linear algebra"

    #: Output rescale, matching matmul (char).
    SHIFT = 7

    def __init__(self, n: int = 64, threshold: int = 32):
        if n < 2 or n % 2:
            raise KernelError(f"strassen needs an even size, got {n}")
        if threshold < 1:
            raise KernelError(f"invalid threshold {threshold}")
        self.n = int(n)
        self.threshold = int(threshold)

    @property
    def identity(self) -> tuple:
        return (type(self), self.name, self.n, self.threshold)

    # -- functional path ---------------------------------------------------------

    def generate_inputs(self, seed: int = 0) -> Arrays:
        rng = np.random.default_rng(seed)
        shape = (self.n, self.n)
        a = rng.integers(-128, 128, size=shape).astype(np.int8)
        b = rng.integers(-128, 128, size=shape).astype(np.int8)
        return {"a": a, "b": b}

    def compute(self, inputs: Arrays) -> Arrays:
        a = inputs["a"]
        b = inputs["b"]
        self._check_shape(a, (self.n, self.n), "a")
        self._check_shape(b, (self.n, self.n), "b")
        acc = strassen_multiply(a.astype(np.int64), b.astype(np.int64),
                                self.threshold)
        rescaled = (acc + (1 << (self.SHIFT - 1))) >> self.SHIFT
        return {"c": _saturate(rescaled, np.int8)}

    def reference(self, inputs: Arrays) -> Arrays:
        a = inputs["a"].astype(np.float64)
        b = inputs["b"].astype(np.float64)
        return {"c": (a @ b) / (1 << self.SHIFT)}

    # -- marshalling ---------------------------------------------------------------

    def serialize_inputs(self, inputs: Arrays) -> bytes:
        return inputs["a"].tobytes() + inputs["b"].tobytes()

    def serialize_outputs(self, outputs: Arrays) -> bytes:
        return outputs["c"].tobytes()

    # -- architectural path -----------------------------------------------------------

    def build_program(self) -> Program:
        h = self.n // 2
        body: List = []
        # Ten submatrix additions/subtractions feeding the products.
        body.append(self._add_pass(rows=h, columns=h, passes=10,
                                   name="pre-adds"))
        # The seven half-size products, collapsed into one parallel-for
        # over all product output rows (``collapse(2)`` in the OpenMP
        # source): rows are independent across products, and the
        # collapsed space balances perfectly on four cores.
        body.append(self._products(h))
        # Eight recombination additions.
        body.append(self._add_pass(rows=h, columns=h, passes=8,
                                   name="combine"))
        in_bytes = 2 * self.n * self.n
        out_bytes = self.n * self.n
        return Program(
            name=self.name,
            body=body,
            input_bytes=in_bytes,
            output_bytes=out_bytes,
            const_bytes=3584,       # embedded golden checksum block
            buffer_bytes=in_bytes + out_bytes + 7 * h * h,
        )

    def _add_pass(self, rows: int, columns: int, passes: int,
                  name: str) -> Loop:
        """`passes` element-wise matrix additions, parallel over rows."""
        inner = Loop(columns, [Block([
            load(DType.I8), load(DType.I8),
            alu(OpKind.ADD, DType.I8),
            store(DType.I8),
            addr(count=2),
        ])], vectorizable=True, simd_dtype=DType.I8, name=f"{name}-cols")
        return Loop(rows * passes, [inner], parallelizable=True, name=name)

    def _products(self, n: int) -> Loop:
        """All 7 classic char matmuls of size n, as one collapsed
        parallel-for over the 7 * n output rows."""
        k_loop = Loop(n, [Block([
            load(DType.I8), load(DType.I8),
            mac(DType.I8),
            addr(count=3),
        ])], name="k")
        j_loop = Loop(n, [
            Block([alu(OpKind.MOVE, DType.I32)]),
            k_loop,
            Block([
                # Scalar shifts of the 32-bit accumulators, then one
                # packed saturating store (vectorizable on OR10N).
                alu(OpKind.SHIFT, DType.I32, vector=False),
                alu(OpKind.SELECT, DType.I32),
                store(DType.I8),
                addr(),
            ]),
        ], vectorizable=True, simd_dtype=DType.I8, name="j")
        return Loop(7 * n, [j_loop], parallelizable=True, name="products")
