"""Independent reference for the splitting problem, on plain integer tuples.

Shares no code with majorchain: it enumerates every candidate in ascending
lexicographic order (pairs in order, positions left to right, values
ascending) and tests the conclusion conditions by their definitions, so the
first candidate that passes is the lexicographically smallest certificate.
Only suitable for small instances; the benchmark calls it on the
criterion-4 grid and on generator instances of at most 3 pairs.
"""

from __future__ import annotations

from typing import Sequence

Parts = tuple[int, ...]


def at(parts: Sequence[int], j: int) -> int:
    return parts[j] if j < len(parts) else 0


def strip(parts: Sequence[int]) -> Parts:
    """Canonical form: trailing zeros removed."""
    end = len(parts)
    while end and parts[end - 1] == 0:
        end -= 1
    return tuple(parts[:end])


def dominated(small: Sequence[int], big: Sequence[int]) -> bool:
    """True when the multiset ``small`` is majorized by the partition ``big``."""
    small = sorted(small, reverse=True)
    run_s = run_b = 0
    for j in range(max(len(small), len(big))):
        run_s += at(small, j)
        run_b += at(big, j)
        if run_s > run_b:
            return False
    return run_s == run_b


def splitting_holds(
    pairs: Sequence[tuple[Parts, Parts]], A: Parts, B: Parts, fs: Sequence[Parts], w: int = 1
) -> bool:
    """The conclusion conditions, with every gap scaled by ``w``."""
    if len(fs) != len(pairs):
        return False
    lower, upper = [], []
    for (d, t), f in zip(pairs, fs):
        for j in range(max(len(d), len(t), len(f))):
            if not at(d, j) >= at(f, j) >= at(t, j):
                return False
            lower.append(w * (at(f, j) - at(t, j)))
            upper.append(w * (at(d, j) - at(f, j)))
    return dominated(lower, A) and dominated(upper, B)


def lex_smallest_splitting(
    pairs: Sequence[tuple[Parts, Parts]], A: Parts, B: Parts
) -> tuple[Parts, ...] | None:
    """The lexicographically smallest certificate, or None when there is none."""
    slots = [(i, j) for i, (d, _) in enumerate(pairs) for j in range(len(d))]
    values = [[0] * len(d) for d, _ in pairs]

    def walk(index: int) -> bool:
        if index == len(slots):
            return splitting_holds(pairs, A, B, [strip(v) for v in values])
        i, j = slots[index]
        d, t = pairs[i]
        top = min(d[j], values[i][j - 1]) if j else d[j]
        for value in range(at(t, j), top + 1):
            values[i][j] = value
            if walk(index + 1):
                return True
        return False

    if walk(0):
        return tuple(strip(v) for v in values)
    return None
