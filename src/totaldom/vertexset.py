"""Word-packed vertex sets.

A ``VertexSet`` is an immutable subset of ``{0, ..., capacity-1}`` stored as a
single Python int used as a bitmask. Capacity is capped at 64 so that every
set operation in the solver hot path stays a single-word integer operation.
``members`` walks the set bits of a mask of any width, for the sets here, the
graph's edges and the labeled scan's bitmaps. The BFS frontiers of ``graph``
and the branch-and-bound loops keep that walk inline: on their masks of a few
members, starting a generator costs more than the walk.
"""

from __future__ import annotations

from typing import Iterable, Iterator

from .errors import OutOfRange

MAX_CAPACITY = 64


def members(mask: int) -> Iterator[int]:
    """The set bits of ``mask``, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class VertexSet:
    """Immutable fixed-capacity set of vertex indices."""

    __slots__ = ("mask", "capacity")

    def __init__(self, capacity: int, mask: int = 0):
        if not 0 <= capacity <= MAX_CAPACITY:
            raise OutOfRange(f"capacity {capacity} outside 0..{MAX_CAPACITY}")
        if mask < 0 or mask >> capacity:
            raise OutOfRange("mask contains members beyond capacity")
        self.mask = mask
        self.capacity = capacity

    @classmethod
    def from_members(cls, capacity: int, members: Iterable[int]) -> "VertexSet":
        mask = 0
        for v in members:
            if not 0 <= v < capacity:
                raise OutOfRange(f"vertex {v} outside 0..{capacity - 1}")
            mask |= 1 << v
        return cls(capacity, mask)

    @classmethod
    def full(cls, capacity: int) -> "VertexSet":
        return cls(capacity, (1 << capacity) - 1)

    def _check_compatible(self, other: "VertexSet") -> None:
        if self.capacity != other.capacity:
            raise ValueError(
                f"capacity mismatch: {self.capacity} vs {other.capacity}"
            )

    def union(self, other: "VertexSet") -> "VertexSet":
        self._check_compatible(other)
        return VertexSet(self.capacity, self.mask | other.mask)

    def intersection(self, other: "VertexSet") -> "VertexSet":
        self._check_compatible(other)
        return VertexSet(self.capacity, self.mask & other.mask)

    def difference(self, other: "VertexSet") -> "VertexSet":
        self._check_compatible(other)
        return VertexSet(self.capacity, self.mask & ~other.mask)

    def complement(self) -> "VertexSet":
        return VertexSet(self.capacity, ~self.mask & ((1 << self.capacity) - 1))

    def is_subset_of(self, other: "VertexSet") -> bool:
        self._check_compatible(other)
        return self.mask & ~other.mask == 0

    __or__ = union
    __and__ = intersection
    __sub__ = difference
    __invert__ = complement
    __le__ = is_subset_of

    def __contains__(self, v: int) -> bool:
        return 0 <= v < self.capacity and self.mask >> v & 1 == 1

    def __iter__(self) -> Iterator[int]:
        return members(self.mask)

    def __len__(self) -> int:
        return self.mask.bit_count()

    def __bool__(self) -> bool:
        return self.mask != 0

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, VertexSet)
            and self.capacity == other.capacity
            and self.mask == other.mask
        )

    def __hash__(self) -> int:
        return hash((self.capacity, self.mask))

    def __repr__(self) -> str:
        return f"VertexSet({self.capacity}, {{{', '.join(map(str, self))}}})"
