import random

import pytest

from majorchain import (
    Factor,
    IndexOutOfRange,
    InterlaceViolation,
    LengthMismatch,
    LengthOverflow,
    NotAPartition,
    Partition,
    PolyChain,
    chain_validate,
    dual,
    interlace_check,
    pi_degree,
    scaled,
    sigma_degree_sequence,
    sigma_identity_rhs,
    weight,
)

from helpers import pi_degree_by_products, random_interlaced_pair

X = Factor("x")


class Small(int):
    """An int subclass: a valid exponent, though not of the exact type int."""


def chain(*exponents, factor=X):
    return PolyChain(len(exponents), {factor: exponents})


class TestFactor:
    def test_degree_must_be_positive(self):
        with pytest.raises(ValueError):
            Factor("x", 0)

    def test_label_must_be_nonempty(self):
        with pytest.raises(ValueError):
            Factor("", 1)


class TestPolyChain:
    def test_vector_length_must_match(self):
        with pytest.raises(LengthMismatch):
            PolyChain(2, {X: (1,)})

    def test_exponents_must_be_nonnegative_integers(self):
        with pytest.raises(ValueError):
            PolyChain(1, {X: (-1,)})
        with pytest.raises(ValueError):
            PolyChain(1, {X: (True,)})

    @pytest.mark.parametrize(
        "vector, shown",
        [
            ((0, 1.0, -1), "position 2 must be a nonnegative integer, got 1.0"),
            ((0, 2, -1), "position 3 must be a nonnegative integer, got -1"),
            ((Small(1), False), "position 2 must be a nonnegative integer, got False"),
        ],
    )
    def test_the_first_bad_exponent_is_named(self, vector, shown):
        with pytest.raises(ValueError) as raised:
            PolyChain(3, {X: vector + (5,) * (3 - len(vector))})
        assert str(raised.value) == f"factor 'x': exponent at {shown}"

    def test_ints_of_a_subclass_of_int_are_exponents(self):
        assert PolyChain(2, {X: (Small(1), 2)}) == chain(1, 2)

    def test_duplicate_labels_rejected(self):
        with pytest.raises(ValueError):
            PolyChain(1, [(Factor("x"), (1,)), (Factor("x", 2), (1,))])

    def test_position_conventions(self):
        c = chain(0, 1, 2)
        assert c.exponent("x", 1) == 0 and c.exponent("x", 3) == 2
        assert c.exponent("x", 0) == 0 and c.exponent("x", -5) == 0
        with pytest.raises(IndexOutOfRange):
            c.exponent("x", 4)

    def test_absent_factor_reads_zero(self):
        c = chain(0, 1, 2)
        assert c.exponent("y", 2) == 0
        assert c.exponent_vector("y") == (0, 0, 0)
        assert c.factor_partition("y") == Partition()

    def test_factor_partition_reverses_exponents(self):
        assert chain(0, 1, 2).factor_partition("x") == Partition([2, 1])

    def test_factor_partition_needs_a_valid_chain(self):
        with pytest.raises(NotAPartition):
            chain(1, 0).factor_partition("x")

    def test_from_partitions_inverts_factor_partition(self):
        rng = random.Random(5)
        for _ in range(50):
            length = rng.randint(0, 5)
            first = rng.randint(0, length)
            parts = Partition(
                sorted((rng.randint(1, 4) for _ in range(first)), reverse=True)
            )
            built = PolyChain.from_partitions(length, {X: parts})
            assert built.factor_partition("x") == parts

    def test_from_partitions_overflow(self):
        with pytest.raises(LengthOverflow):
            PolyChain.from_partitions(2, {X: Partition([1, 1, 1])})

    def test_equality_and_order_independence(self):
        y = Factor("y")
        a = PolyChain(1, [(X, (1,)), (y, (2,))])
        b = PolyChain(1, [(y, (2,)), (X, (1,))])
        assert a == b and hash(a) == hash(b)


class TestChainValidate:
    def test_empty_chain(self):
        assert chain_validate(PolyChain(0))

    def test_monotone(self):
        assert chain_validate(chain(0, 1, 2))

    def test_divisibility_failure(self):
        assert not chain_validate(chain(1, 0))


class TestInterlace:
    def test_sandwich_holds(self):
        assert interlace_check(chain(1), chain(0, 1, 2), 2)

    def test_reflexive_at_gap_zero(self):
        c = chain(0, 1, 2)
        assert interlace_check(c, c, 0)

    def test_sandwich_fails(self):
        assert not interlace_check(chain(2), chain(0, 1, 1), 2)

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            interlace_check(chain(1), chain(0, 1, 2), 1)

    def test_foreign_factor_in_inner_chain(self):
        inner = PolyChain(1, {Factor("y"): (1,)})
        assert not interlace_check(inner, chain(0, 1, 2), 2)

    def test_degree_disagreement_is_an_error_in_degree_functions(self):
        inner = PolyChain(1, {Factor("x", 2): (1,)})
        outer = chain(0, 1, 2)
        with pytest.raises(ValueError):
            pi_degree(0, inner, outer)


class TestDegreeSequence:
    def test_pi_values_of_the_running_pair(self):
        delta, epsilon = chain(1), chain(0, 1, 2)
        assert [pi_degree(i, delta, epsilon) for i in (0, 1, 2)] == [1, 1, 3]

    def test_pi_agrees_with_symbolic_products(self):
        rng = random.Random(11)
        for _ in range(150):
            x, y = rng.randint(0, 3), rng.randint(0, 3)
            delta, epsilon = random_interlaced_pair(
                rng, k=rng.randint(1, 2), x=x, y=y, max_exp=3, max_degree=3
            )
            for i in range(y + 1):
                assert pi_degree(i, delta, epsilon) == pi_degree_by_products(
                    i, delta, epsilon
                )

    def test_pi_shift_out_of_range(self):
        delta, epsilon = chain(1), chain(0, 1, 2)
        with pytest.raises(IndexOutOfRange):
            pi_degree(3, delta, epsilon)
        with pytest.raises(IndexOutOfRange):
            pi_degree(-1, delta, epsilon)

    def test_sigma_of_the_running_pair(self):
        assert sigma_degree_sequence(chain(1), chain(0, 1, 2), 2) == Partition([2])

    def test_sigma_of_equal_chains_is_empty(self):
        c = chain(0, 2, 2)
        assert sigma_degree_sequence(c, c, 0) == Partition()

    def test_sigma_requires_the_sandwich(self):
        with pytest.raises(InterlaceViolation):
            sigma_degree_sequence(chain(2), chain(0, 1, 1), 2)

    def test_sigma_telescopes(self):
        rng = random.Random(23)
        for _ in range(100):
            x, y = rng.randint(0, 3), rng.randint(0, 3)
            delta, epsilon = random_interlaced_pair(
                rng, k=rng.randint(1, 2), x=x, y=y, max_exp=3, max_degree=2
            )
            total = weight(sigma_degree_sequence(delta, epsilon, y))
            assert total == pi_degree(y, delta, epsilon) - pi_degree(0, delta, epsilon)


class TestFactorLocalForm:
    def test_running_pair(self):
        delta, epsilon = chain(1), chain(0, 1, 2)
        inner = dual(delta.factor_partition("x"))
        outer = dual(epsilon.factor_partition("x"))
        assert inner == Partition([1]) and outer == Partition([2, 1])
        assert sigma_identity_rhs(delta, epsilon, 2) == Partition([2])

    def test_equal_chains_give_empty(self):
        c = chain(0, 1, 1)
        assert sigma_identity_rhs(c, c, 0) == Partition()

    def test_degree_weighting_scales_the_term(self):
        heavy = Factor("x", 2)
        delta = PolyChain(1, {heavy: (1,)})
        epsilon = PolyChain(3, {heavy: (0, 1, 2)})
        assert sigma_identity_rhs(delta, epsilon, 2) == Partition([4])
        assert sigma_identity_rhs(delta, epsilon, 2) == scaled(
            sigma_identity_rhs(chain(1), chain(0, 1, 2), 2), 2
        )

    def test_requires_the_sandwich(self):
        # Unguarded, the first pair gives a meaningless Partition([1, 1]) and
        # the second a DominanceViolation from the partition layer.
        for delta, epsilon, y in ((chain(0), chain(1, 1), 1), (chain(1), chain(0), 0)):
            with pytest.raises(InterlaceViolation):
                sigma_identity_rhs(delta, epsilon, y)

    def test_matches_degree_sequence_on_random_pairs(self):
        rng = random.Random(37)
        for _ in range(300):
            x, y = rng.randint(0, 4), rng.randint(0, 3)
            delta, epsilon = random_interlaced_pair(
                rng, k=rng.randint(1, 3), x=x, y=y, max_exp=4, max_degree=3
            )
            assert sigma_degree_sequence(delta, epsilon, y) == sigma_identity_rhs(
                delta, epsilon, y
            )


def test_interlace_rejects_a_negative_gap():
    with pytest.raises(LengthMismatch):
        interlace_check(chain(1), chain(0, 1, 2), -2)
