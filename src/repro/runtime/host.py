"""Host-side OpenMP ``target`` construct.

"#pragma omp target ... allows to outline a block of code which needs to
be compiled for the target accelerator and the map clause allows to
specify data items from the host program that need to be made visible to
the accelerator.  In this way, we provide a distinction between program
and data offloads and hide the low-level details of the data exchange
primitives behind higher level abstractions."

A :class:`TargetRegion` is that outline: the kernel binary to run plus
named ``map`` clauses.  Its :meth:`to_frames` hands the offload manager
the exact wire-protocol frames the low-level primitives would issue.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.errors import OffloadError
from repro.link.protocol import Command, Frame
from repro.pulp.binary import KernelBinary
from repro.pulp.l2 import L2Memory


class MapDirection(enum.Enum):
    """OpenMP v4.0 map directions."""

    TO = "to"          #: host -> accelerator before the region
    FROM = "from"      #: accelerator -> host after the region
    TOFROM = "tofrom"  #: both


@dataclass(frozen=True)
class MapClause:
    """One ``map(direction: name[0:size])`` clause."""

    name: str
    direction: MapDirection
    data: bytes = b""
    size: Optional[int] = None

    def __post_init__(self) -> None:
        if self.direction in (MapDirection.TO, MapDirection.TOFROM):
            if not self.data:
                raise OffloadError(
                    f"map({self.direction.value}: {self.name}) needs host data")
        if self.direction is MapDirection.FROM and self.size is None:
            raise OffloadError(
                f"map(from: {self.name}) needs an explicit size")

    @property
    def transfer_to_bytes(self) -> int:
        """Bytes moved host -> accelerator for this clause."""
        if self.direction in (MapDirection.TO, MapDirection.TOFROM):
            return len(self.data)
        return 0

    @property
    def transfer_from_bytes(self) -> int:
        """Bytes moved accelerator -> host for this clause."""
        if self.direction is MapDirection.FROM:
            return int(self.size)
        if self.direction is MapDirection.TOFROM:
            return len(self.data)
        return 0


@dataclass
class TargetRegion:
    """An ``omp target`` region: binary + map clauses + placement."""

    binary: KernelBinary
    maps: List[MapClause] = field(default_factory=list)
    addresses: Dict[str, int] = field(default_factory=dict)
    overlapped: bool = False

    #: Working buffers live in the cluster TCDM, not in L2.
    TCDM_CAPACITY = 48 * 1024

    def place(self, l2: L2Memory) -> None:
        """Lay the region out in accelerator L2: binary image first, then
        one marshalling buffer per map clause.  The kernel's *working*
        buffers (``binary.buffer_bytes``) live in the cluster's TCDM, so
        they only get a capacity check here.

        When the flat layout does not fit the 64 kB L2 (hog: binary +
        input + output exceed it), the layout falls back to *overlapping*
        the output buffers over the input region — legal because the
        kernel consumes its input strip-wise before the descriptor
        overwrites it, and because transfers in the two directions happen
        in disjoint phases of the offload.
        """
        from repro.errors import SimulationError

        if self.binary.buffer_bytes > self.TCDM_CAPACITY:
            raise OffloadError(
                f"{self.binary.name}: working set {self.binary.buffer_bytes} B "
                f"exceeds the {self.TCDM_CAPACITY} B TCDM")
        l2.reset_allocator()
        try:
            self._place_flat(l2)
            self.overlapped = False
        except SimulationError:
            self._place_overlapped(l2)
            self.overlapped = True

    def _place_flat(self, l2: L2Memory) -> None:
        self.addresses = {
            "__binary__": l2.allocate(self.binary.image_bytes, align=16)}
        for clause in self.maps:
            size = len(clause.data) if clause.data else int(clause.size or 0)
            self.addresses[clause.name] = l2.allocate(size, align=4)

    def _place_overlapped(self, l2: L2Memory) -> None:
        l2.reset_allocator()
        self.addresses = {
            "__binary__": l2.allocate(self.binary.image_bytes, align=16)}
        to_sizes = [len(c.data) for c in self.maps
                    if c.direction in (MapDirection.TO, MapDirection.TOFROM)]
        from_sizes = [int(c.size or len(c.data)) for c in self.maps
                      if c.direction in (MapDirection.FROM, MapDirection.TOFROM)]
        shared = l2.allocate(max(sum(to_sizes), sum(from_sizes)), align=4)
        to_cursor = shared
        from_cursor = shared
        for clause in self.maps:
            if clause.direction is MapDirection.TO:
                self.addresses[clause.name] = to_cursor
                to_cursor += len(clause.data)
            elif clause.direction is MapDirection.FROM:
                self.addresses[clause.name] = from_cursor
                from_cursor += int(clause.size)
            else:  # TOFROM keeps one slot serving both directions
                self.addresses[clause.name] = to_cursor
                to_cursor += len(clause.data)
                from_cursor += len(clause.data)

    def to_frames(self, include_binary: bool = True,
                  image: Optional[bytes] = None
                  ) -> Tuple[List[Frame], List[Frame]]:
        """The (pre-region, post-region) frame sequences.

        Pre: optional LOAD_BINARY, WRITE_DATA per ``to`` clause, START.
        Post: READ_DATA per ``from`` clause.  *image* is the binary's
        ``to_bytes()`` when the caller already holds it.
        """
        if not self.addresses:
            raise OffloadError("TargetRegion.place() must run before to_frames()")
        pre: List[Frame] = []
        if include_binary:
            pre.append(Frame(Command.LOAD_BINARY,
                             self.addresses["__binary__"],
                             self.binary.to_bytes() if image is None
                             else image))
        for clause in self.maps:
            if clause.transfer_to_bytes:
                pre.append(Frame(Command.WRITE_DATA,
                                 self.addresses[clause.name], clause.data))
        pre.append(Frame(Command.START, self.addresses["__binary__"]))
        post: List[Frame] = []
        for clause in self.maps:
            length = clause.transfer_from_bytes
            if length:
                post.append(Frame(Command.READ_DATA,
                                  self.addresses[clause.name],
                                  length.to_bytes(4, "little")))
        return pre, post

    @property
    def bytes_to_device(self) -> int:
        """Input payload bytes per region execution (excluding binary)."""
        return sum(c.transfer_to_bytes for c in self.maps)

    @property
    def bytes_from_device(self) -> int:
        """Output payload bytes per region execution."""
        return sum(c.transfer_from_bytes for c in self.maps)
