"""A work memo: deterministic work, computed once per key.

Much of an offload depends only on the kernel — its program, binary
image, inputs and outputs, its OpenMP execution — while the price
varies with host clock, budget, link and cluster size.  A
:class:`WorkMemo` lets every :class:`~repro.core.system.HeterogeneousSystem`
that shares it compute each such piece once.

Every key is a tuple of *values* (a tag string first, then kernel
identities, programs, devices, floats), never an ``id()``: an id is
reused once its object is freed, so an identity key could hand one
kernel's work to another.  Keys hold their objects, so objects that
compare by identity (classes, catalog devices) stay alive as long as
the memo does.

The memo has one owner and that owner's lifetime: a system makes a
private one, an :class:`~repro.dse.engine.ExplorationEngine` shares one
across every configuration it evaluates, and each process-pool worker
has its own for the life of its executor.  Nothing is process-wide.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Hashable, TypeVar

T = TypeVar("T")


class WorkMemo:
    """Values of deterministic work, keyed by value."""

    __slots__ = ("_values",)

    def __init__(self):
        self._values: Dict[Hashable, Any] = {}

    def get(self, key: Hashable, make: Callable[[], T]) -> T:
        """The value stored under *key*, made by ``make()`` on first use.

        A ``make`` that raises stores nothing, so the next call retries.
        """
        values = self._values
        try:
            return values[key]
        except KeyError:
            value = values[key] = make()
            return value
