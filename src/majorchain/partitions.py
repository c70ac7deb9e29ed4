"""Exact arithmetic on integer partitions.

A partition is a non-increasing sequence of nonnegative integers, identified
up to trailing zeros: (3, 1), (3, 1, 0) and (3, 1, 0, 0) denote the same
value.  :class:`Partition` stores the canonical form (zeros stripped) and
reads 0 for any index past the stored parts, so the binary operations below
never pad their inputs explicitly.

All values are immutable and all functions are pure.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence
from itertools import accumulate
from operator import add, le

from .errors import DominanceViolation, NotAPartition, _int_argument

# The annotation of every argument coerced by ``as_partition``; a string, so
# that nothing here imports ``typing``.
PartitionLike = "Partition | Sequence[int]"


class Partition:
    """Immutable non-increasing sequence of nonnegative integers."""

    __slots__ = ("_parts",)

    def __init__(self, parts: Iterable[int] = ()):
        data = tuple(parts)
        # Plain ints pass one lean loop.  At the first part that does not, _check_parts runs the
        # full check, which names the first fault or, for ints of a subclass, accepts them all.
        previous = data[0] if data else 0
        for value in data:
            if value.__class__ is not int or value < 0 or value > previous:
                _check_parts(data)
                break
            previous = value
        end = len(data)
        while end and data[end - 1] == 0:
            end -= 1
        self._parts = data[:end]

    @property
    def parts(self) -> tuple[int, ...]:
        return self._parts

    def pad(self, length: int) -> tuple[int, ...]:
        """The parts zero-padded (or already long enough) to ``length``."""
        if length <= len(self._parts):
            return self._parts
        return self._parts + (0,) * (length - len(self._parts))

    def __len__(self) -> int:
        return len(self._parts)

    def __getitem__(self, index: int) -> int:
        # Out-of-range reads are 0 by the trailing-zeros convention.
        if index < 0:
            raise IndexError("negative partition index")
        return self._parts[index] if index < len(self._parts) else 0

    def __iter__(self) -> Iterator[int]:
        return iter(self._parts)

    def __bool__(self) -> bool:
        return bool(self._parts)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Partition):
            return self._parts == other._parts
        return NotImplemented

    def __lt__(self, other: object) -> bool:
        if isinstance(other, Partition):
            return self._parts < other._parts
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._parts)

    def __repr__(self) -> str:
        return f"Partition({self._parts!r})"


def _check_parts(data: tuple) -> None:
    """Raise :class:`NotAPartition` at the first part that is not a nonnegative
    integer (``bool`` excluded) at most the part before it."""
    for pos, value in enumerate(data):
        if isinstance(value, bool) or not isinstance(value, int):
            raise NotAPartition(f"parts[{pos}]={value!r} is not an integer")
        if value < 0:
            raise NotAPartition(f"parts[{pos}]={value} is negative")
        if pos and data[pos - 1] < value:
            raise NotAPartition(
                f"parts[{pos}]={value} exceeds parts[{pos - 1}]={data[pos - 1]}"
            )


def as_partition(value: PartitionLike) -> Partition:
    """Coerce a raw sequence into a :class:`Partition` (validating it)."""
    return value if isinstance(value, Partition) else Partition(value)


def weight(a: PartitionLike) -> int:
    """Total number of boxes: the sum of all parts."""
    return sum(as_partition(a).parts)


def dual(a: PartitionLike) -> Partition:
    """Conjugate partition: entry i counts the parts that are > i.

    Transposes the Young diagram; the result has ``a[0]`` parts and its
    first part is the number of nonzero parts of ``a``.
    """
    a = as_partition(a)
    if not a:
        return a
    counts = [0] * a[0]
    for part in a:
        for i in range(part):
            counts[i] += 1
    return Partition(counts)


def union(a: PartitionLike, b: PartitionLike) -> Partition:
    """Multiset union: the nonzero parts of both, sorted non-increasing."""
    a, b = as_partition(a), as_partition(b)
    return Partition(sorted(a.parts + b.parts, reverse=True))


def plus(a: PartitionLike, b: PartitionLike) -> Partition:
    """Componentwise sum after padding to the longer length."""
    a, b = as_partition(a).parts, as_partition(b).parts
    if len(a) < len(b):
        a, b = b, a
    return Partition(map(add, a, b + (0,) * (len(a) - len(b))))


def diff_sorted(a: PartitionLike, b: PartitionLike) -> Partition:
    """The multiset {a_i - b_i}, sorted non-increasing.

    Requires ``a[i] >= b[i]`` for every i (after padding); raises
    :class:`DominanceViolation` otherwise.
    """
    a, b = as_partition(a), as_partition(b)
    n = max(len(a), len(b))
    diffs = []
    for i in range(n):
        if a[i] < b[i]:
            raise DominanceViolation(
                f"position {i}: {a[i]} < {b[i]}; componentwise order required"
            )
        diffs.append(a[i] - b[i])
    return Partition(sorted(diffs, reverse=True))


def scaled(a: PartitionLike, factor: int) -> Partition:
    """Each part multiplied by a nonnegative integer ``factor``."""
    _int_argument("factor", factor)
    a = as_partition(a)
    return Partition(part * factor for part in a.parts)


def majorizes(a: PartitionLike, b: PartitionLike) -> bool:
    """True when ``a`` is majorized by ``b`` (dominance order, equal totals).

    Holds iff the totals agree and every prefix sum of ``a`` is at most the
    matching prefix sum of ``b``.  Unequal totals give False, not an error.
    With equal totals the prefix sums past the shorter partition need no
    check: if ``a`` is longer, its later sums stay at most the shared total,
    which ``b``'s sums have reached; if ``b`` is longer, ``a``'s sum at its
    own last part already is that total, which ``b``'s sum there falls short
    of.
    """
    a, b = as_partition(a).parts, as_partition(b).parts
    return sum(a) == sum(b) and all(map(le, accumulate(a), accumulate(b)))
