import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from majorchain import (
    DominanceViolation,
    NotAPartition,
    Partition,
    diff_sorted,
    dual,
    majorizes,
    plus,
    scaled,
    union,
    weight,
)

from helpers import dual_by_counting, unit_transfer


class Small(int):
    """An int subclass: a valid part, though not of the exact type int."""


partitions = st.builds(
    lambda values: Partition(sorted(values, reverse=True)),
    st.lists(st.integers(0, 20), max_size=12),
)


class TestConstruction:
    def test_trailing_zeros_identified(self):
        assert Partition([3, 1]) == Partition([3, 1, 0, 0])
        assert Partition([]) == Partition([0, 0])

    def test_indexing_past_the_end_reads_zero(self):
        p = Partition([3, 1])
        assert p[0] == 3 and p[1] == 1 and p[2] == 0 and p[100] == 0

    def test_negative_index_rejected(self):
        with pytest.raises(IndexError):
            Partition([3, 1])[-1]

    def test_pad(self):
        assert Partition([2]).pad(3) == (2, 0, 0)
        assert Partition([2, 1]).pad(1) == (2, 1)

    @pytest.mark.parametrize(
        "bad", [[1, 2], [-1], [2, -1], [1.5], [True], [2, 1, 2]]
    )
    def test_invalid_sequences_rejected(self, bad):
        with pytest.raises(NotAPartition):
            Partition(bad)

    @pytest.mark.parametrize(
        "bad, message",
        [
            ([3, 1.5, -1], "parts[1]=1.5 is not an integer"),
            ([3, 2, True], "parts[2]=True is not an integer"),
            ([2, -1, 5], "parts[1]=-1 is negative"),
            ([4, 2, 3, -1], "parts[2]=3 exceeds parts[1]=2"),
            ([Small(3), 4], "parts[1]=4 exceeds parts[0]=3"),
        ],
    )
    def test_the_first_fault_is_named(self, bad, message):
        with pytest.raises(NotAPartition) as raised:
            Partition(bad)
        assert str(raised.value) == message

    def test_ints_of_a_subclass_of_int_are_parts(self):
        p = Partition([Small(3), 2, Small(2), 0])
        assert p == Partition([3, 2, 2]) and len(p) == 3


class TestExamples:
    def test_dual(self):
        assert dual(Partition()) == Partition()
        assert dual(Partition([2, 2])) == Partition([2, 2])
        for parts in [(3, 1), (5, 2, 2, 1), (4,), (1, 1, 1)]:
            p = Partition(parts)
            assert dual(p).parts == dual_by_counting(p)
        assert dual(Partition([3, 1])) == Partition([2, 1, 1])

    def test_weight(self):
        assert weight(Partition()) == 0
        assert weight(Partition([3, 1])) == 4
        assert weight(Partition([5, 5, 5])) == 15

    def test_union(self):
        assert union(Partition([2, 1]), Partition()) == Partition([2, 1])
        merged = sorted((3, 1) + (2, 2), reverse=True)
        assert union(Partition([3, 1]), Partition([2, 2])).parts == tuple(merged)
        assert union(Partition([1]), Partition([1])) == Partition([1, 1])

    def test_plus(self):
        assert plus(Partition([2, 1]), Partition()) == Partition([2, 1])
        assert plus(Partition([2, 1]), Partition([1, 1])) == Partition([3, 2])
        left = dual(union(Partition([3, 1]), Partition([2, 2])))
        right = plus(dual(Partition([3, 1])), dual(Partition([2, 2])))
        assert left == right == Partition([4, 3, 1])

    def test_diff_sorted(self):
        assert diff_sorted(Partition([2, 1]), Partition([2, 1])) == Partition()
        # Componentwise order holds, differences (2, 0) sort and trim to (2).
        assert diff_sorted(Partition([3, 1]), Partition([1, 1])) == Partition([2])
        assert diff_sorted(Partition([2, 2]), Partition([1])) == Partition([2, 1])

    def test_diff_sorted_requires_componentwise_order(self):
        with pytest.raises(DominanceViolation):
            diff_sorted(Partition([3, 1]), Partition([2, 2]))

    def test_majorizes(self):
        assert majorizes(Partition([1, 1]), Partition([2]))
        assert not majorizes(Partition([2]), Partition([1, 1]))
        assert majorizes(Partition([1, 1, 1]), Partition([1, 1, 1]))
        # Unequal totals are False, not an error.
        assert not majorizes(Partition([1]), Partition([1, 1]))

    def test_scaled(self):
        assert scaled(Partition([2, 1]), 3) == Partition([6, 3])
        assert scaled(Partition([2, 1]), 0) == Partition()
        with pytest.raises(ValueError):
            scaled(Partition([1]), -1)


class TestLaws:
    @given(partitions)
    def test_dual_involution(self, a):
        assert dual(dual(a)) == a

    @given(partitions, partitions)
    def test_dual_union_identity(self, a, b):
        assert dual(union(a, b)) == plus(dual(a), dual(b))

    @given(partitions)
    def test_dual_shape(self, a):
        assert dual(a)[0] == len(a)
        if a:
            assert len(dual(a)) == a[0]

    @given(partitions, partitions)
    def test_dual_reverses_dominance(self, a, b):
        assert majorizes(a, b) == majorizes(dual(b), dual(a))

    @given(partitions, st.integers(0, 6), st.integers(0, 6), st.randoms())
    @settings(max_examples=200)
    def test_transitivity_along_transfer_chains(self, c, steps_b, steps_a, rng):
        b = c
        for _ in range(steps_b):
            b = unit_transfer(rng, b)
        a = b
        for _ in range(steps_a):
            a = unit_transfer(rng, a)
        assert majorizes(b, c) and majorizes(a, b)
        assert majorizes(a, c)

    @given(partitions, partitions)
    def test_diff_plus_weight_consistency(self, b, gap):
        a = plus(b, gap)
        assert weight(diff_sorted(a, b)) == weight(a) - weight(b)

    @given(partitions, partitions)
    def test_outputs_are_canonical(self, a, b):
        for result in (union(a, b), plus(a, b), dual(a)):
            assert not result.parts or result.parts[-1] > 0


def naive_majorizes(a, b):
    """The definition read literally: equal totals and every prefix sum of a at most b's."""
    a, b = list(a.parts), list(b.parts)
    n = max(len(a), len(b))
    a += [0] * (n - len(a))
    b += [0] * (n - len(b))
    if sum(a) != sum(b):
        return False
    return all(sum(a[: r + 1]) <= sum(b[: r + 1]) for r in range(n))


def naive_plus(a, b):
    """Componentwise sum, each input read as 0 past its end, then trailing zeros dropped."""
    n = max(len(a.parts), len(b.parts))
    sums = [
        (a.parts[i] if i < len(a.parts) else 0) + (b.parts[i] if i < len(b.parts) else 0)
        for i in range(n)
    ]
    while sums and sums[-1] == 0:
        sums.pop()
    return tuple(sums)


class TestAgainstTheNaiveDefinitions:
    def test_majorizes_and_plus_on_seeded_pairs(self):
        rng = random.Random(23)
        verdicts = {True: 0, False: 0}
        unequal = {"lengths": 0, "totals": 0}
        for _ in range(20000):
            a, b = (
                Partition(
                    sorted((rng.randint(1, 5) for _ in range(rng.randint(0, 6))), reverse=True)
                )
                for _ in range(2)
            )
            if rng.random() < 0.5:
                # Equal totals, where the prefix sums decide: unit transfers give an a that b
                # majorizes, and half the time the pair is swapped.
                a = b
                for _ in range(rng.randint(0, 3)):
                    a = unit_transfer(rng, a)
                a, b = (a, b) if rng.random() < 0.5 else (b, a)
            unequal["lengths"] += len(a) != len(b)
            unequal["totals"] += weight(a) != weight(b)
            verdict = majorizes(a, b)
            assert verdict == naive_majorizes(a, b), (a, b)
            verdicts[verdict] += 1
            assert plus(a, b).parts == naive_plus(a, b), (a, b)
        assert min(verdicts.values()) > 1000 and min(unequal.values()) > 1000

    @pytest.mark.parametrize(
        "a, b, expected",
        [
            ((2, 1, 1), (2, 2), True),  # a longer, equal totals
            ((2, 2), (2, 1, 1), False),  # b longer: a's sum at its last part is the whole total
            ((3,), (1, 1, 1), False),
            ((1, 1, 1), (3,), True),
            ((1, 1), (2, 1), False),  # a's prefix sums never exceed b's, but the totals differ
            ((2, 1), (1, 1), False),
            ((), (), True),
            ((), (1,), False),
        ],
    )
    def test_majorizes_edge_cases(self, a, b, expected):
        a, b = Partition(a), Partition(b)
        assert majorizes(a, b) == naive_majorizes(a, b) == expected

    def test_plus_of_unequal_lengths(self):
        assert plus(Partition([3, 1]), Partition([2, 2, 2])).parts == (5, 3, 2)
        assert plus(Partition(), Partition([4])).parts == (4,)
        assert plus(Partition(), Partition()).parts == ()


def test_bulk_randomized_laws_stay_fast():
    rng = random.Random(7)
    for _ in range(2000):
        length = rng.randint(0, 12)
        a = Partition(sorted((rng.randint(0, 20) for _ in range(length)), reverse=True))
        assert dual(dual(a)) == a


def test_ordering_against_a_non_partition_raises_type_error():
    with pytest.raises(TypeError):
        Partition([2, 1]) < (2, 1)
    assert Partition([1]) < Partition([2])
