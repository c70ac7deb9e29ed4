"""The verifier layer against routes written out here, apart from the library.

The pooled gaps of the premise and of the splitting conclusion are compared
with a k-fold union of ``diff_sorted`` results, and the weighted solver's input
check with the componentwise order it needs.
"""

import random

import pytest

from majorchain import (
    DominanceViolation,
    FCertificate,
    LemmaInstance,
    Partition,
    check_lemma_conclusion,
    diff_sorted,
    solve_scaled_k1,
    union,
)


def kfold_pool(pairs):
    """(hi^1-lo^1) u ... u (hi^k-lo^k), one union at a time."""
    pooled = Partition()
    for hi, lo in pairs:
        pooled = union(pooled, diff_sorted(hi, lo))
    return pooled


def random_partition(rng, max_len, max_part):
    return Partition(
        sorted((rng.randint(0, max_part) for _ in range(rng.randint(0, max_len))), reverse=True)
    )


def random_instance(rng):
    pairs = []
    for _ in range(rng.randint(0, 4)):
        d = random_partition(rng, 5, 6)
        pairs.append((d, random_between(rng, d, Partition())))
    return LemmaInstance(tuple(pairs), random_partition(rng, 4, 8), random_partition(rng, 4, 8))


def random_between(rng, d, t):
    """A partition f with t <= f <= d componentwise."""
    parts = []
    for j, value in enumerate(d):
        parts.append(rng.randint(t[j], min([value] + parts[-1:])))
    return Partition(parts)


def test_gap_union_equals_the_kfold_union():
    rng = random.Random(6061)
    for _ in range(2000):
        inst = random_instance(rng)
        assert inst.gap_union() == kfold_pool(inst.pairs)


def test_conclusion_pools_equal_the_kfold_union():
    rng = random.Random(6062)
    for _ in range(2000):
        inst = random_instance(rng)
        fs = tuple(random_between(rng, d, t) for d, t in inst.pairs)
        bounds, lower, upper = check_lemma_conclusion(inst, FCertificate(fs))
        assert bounds.holds is True
        assert lower.left == kfold_pool(zip(fs, (t for _, t in inst.pairs)))
        assert upper.left == kfold_pool(zip((d for d, _ in inst.pairs), fs))
        assert (lower.right, upper.right) == (inst.A, inst.B)


@pytest.mark.parametrize("w", [1, 2, 3])
def test_scaled_solver_rejects_t_above_d(w):
    with pytest.raises(DominanceViolation):
        solve_scaled_k1((2, 1), (2, 2), (1,), (), w)
