"""Kernel abstract base class.

A kernel binds together everything the system needs to offload and
evaluate one benchmark: input generation, the functional fixed-point
computation, a floating-point reference, the loop-nest IR program, and
the serialized input/output marshalling used by the offload path.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Dict

import numpy as np

from repro.errors import KernelError
from repro.isa.program import Program

Arrays = Dict[str, np.ndarray]


@dataclass(frozen=True)
class KernelResult:
    """Functional outputs plus marshalling metadata."""

    outputs: Arrays
    output_payload: bytes

    @property
    def output_bytes(self) -> int:
        """Serialized output size."""
        return len(self.output_payload)


class Kernel(abc.ABC):
    """One benchmark kernel.

    Identity contract: for every registered benchmark, the kernel class
    and :attr:`name` together determine :meth:`build_program`, and
    (class, name, seed) determines :meth:`generate_inputs`.  A kernel
    whose constructor takes parameters the name does not spell (matrix
    size, SVM dimensions) adds them to :attr:`identity`.  The work memo
    of :class:`~repro.core.system.HeterogeneousSystem` keys a kernel's
    program, inputs and outputs on :attr:`identity`, so two kernels with
    equal identities must do the same work.
    """

    #: Paper name, e.g. ``"matmul (fixed)"``; with the class, it names
    #: the kernel's program and (with a seed) its inputs.
    name: str = ""
    #: One-line description (Table I column 2).
    description: str = ""
    #: Application field (Table I column 3).
    field: str = ""

    @property
    def identity(self) -> tuple:
        """(class, name) plus every constructor parameter the name does
        not spell: the value that names this kernel's work."""
        return (type(self), self.name)

    # -- functional path ---------------------------------------------------------

    @abc.abstractmethod
    def generate_inputs(self, seed: int = 0) -> Arrays:
        """Deterministic synthetic inputs for *seed*."""

    @abc.abstractmethod
    def compute(self, inputs: Arrays) -> Arrays:
        """The fixed-point computation the accelerator would run."""

    @abc.abstractmethod
    def reference(self, inputs: Arrays) -> Arrays:
        """Floating-point reference for accuracy validation."""

    def run(self, seed: int = 0) -> KernelResult:
        """Generate inputs, compute, and serialize the outputs."""
        inputs = self.generate_inputs(seed)
        outputs = self.compute(inputs)
        return KernelResult(outputs=outputs,
                            output_payload=self.serialize_outputs(outputs))

    # -- marshalling ---------------------------------------------------------------

    @abc.abstractmethod
    def serialize_inputs(self, inputs: Arrays) -> bytes:
        """Input payload as marshalled over the link (``map(to:)``)."""

    @abc.abstractmethod
    def serialize_outputs(self, outputs: Arrays) -> bytes:
        """Output payload as marshalled back (``map(from:)``)."""

    # -- architectural path -----------------------------------------------------------

    @abc.abstractmethod
    def build_program(self) -> Program:
        """The loop-nest IR of the kernel."""

    # -- shared helpers -----------------------------------------------------------------

    def _check_shape(self, array: np.ndarray, shape, label: str) -> None:
        if tuple(array.shape) != tuple(shape):
            raise KernelError(
                f"{self.name}: {label} has shape {array.shape}, expected {shape}")

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.name!r}>"
