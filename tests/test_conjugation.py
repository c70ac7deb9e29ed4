"""The translation's direct conjugation maps against the public route.

``instances._conjugate_rows`` and ``instances._chain_of_conjugates`` read
conjugates straight off exponent vectors.  The public route builds each
factor partition, conjugates it with ``dual`` and embeds it with
``PolyChain.from_partitions``; both must give the same values, and the
same ``LengthOverflow`` message where a partition does not fit.
"""

import random

import pytest

from majorchain import (
    Factor,
    GeneratorConfig,
    InstanceGenerator,
    LemmaInstance,
    LengthOverflow,
    Partition,
    PolyChain,
    dual,
    lemma_to_theorem,
)
from majorchain.instances import _chain_of_conjugates, _conjugate_rows

FACTORS = tuple(Factor(label) for label in ("a", "b", "c", "d"))


def random_partition(rng, max_len, max_part):
    parts = [rng.randint(0, max_part) for _ in range(rng.randint(0, max_len))]
    return Partition(sorted(parts, reverse=True))


def random_chain(rng, length):
    """A valid chain over a random subset of FACTORS, with non-decreasing vectors."""
    present = [factor for factor in FACTORS if rng.random() < 0.7]
    return PolyChain(
        length,
        {factor: sorted(rng.randint(0, 6) for _ in range(length)) for factor in present},
    )


def public_rows(chain, factors):
    return tuple(dual(chain.factor_partition(factor.label)) for factor in factors)


def public_chain(length, factors, partitions):
    return PolyChain.from_partitions(
        length, {factor: dual(part) for factor, part in zip(factors, partitions)}
    )


class TestRows:
    def test_seeded_chains_match_the_public_route(self):
        rng = random.Random(2301)
        for _ in range(3000):
            chain = random_chain(rng, rng.randint(0, 7))
            # Absent factors read as all-zero vectors and give empty rows.
            assert _conjugate_rows(chain, FACTORS) == public_rows(chain, FACTORS)

    def test_length_zero_chain(self):
        chain = PolyChain(0, {FACTORS[0]: ()})
        assert _conjugate_rows(chain, FACTORS[:2]) == (Partition(), Partition())

    def test_a_worked_row(self):
        # Exponents (0, 1, 1, 3) read backwards are the partition (3, 1, 1); its conjugate is
        # (3, 1, 1): three parts above 0, one above 1, one above 2.
        chain = PolyChain(4, {FACTORS[0]: (0, 1, 1, 3)})
        assert _conjugate_rows(chain, FACTORS[:1]) == (Partition([3, 1, 1]),)


class TestChain:
    def test_seeded_partitions_match_the_public_route(self):
        rng = random.Random(2302)
        for _ in range(3000):
            length = rng.randint(0, 7)
            partitions = [random_partition(rng, 5, length) for _ in FACTORS]
            assert _chain_of_conjugates(length, FACTORS, partitions) == public_chain(
                length, FACTORS, partitions
            )

    def test_empty_partitions_and_length_zero(self):
        empty = [Partition()] * len(FACTORS)
        for length in (0, 1, 3):
            assert _chain_of_conjugates(length, FACTORS, empty) == public_chain(
                length, FACTORS, empty
            )

    def test_a_worked_embedding(self):
        # f = (3, 1) in a length-4 chain: position q gets #{parts of f above 4 - q}.
        chain = _chain_of_conjugates(4, FACTORS[:1], [Partition([3, 1])])
        assert chain.exponent_vector("a") == (0, 1, 1, 2)

    def test_overflow_raises_the_public_message(self):
        rng = random.Random(2303)
        seen = 0
        for _ in range(500):
            length = rng.randint(0, 4)
            partitions = [random_partition(rng, 3, length + 2) for _ in FACTORS]
            try:
                expected = public_chain(length, FACTORS, partitions)
            except LengthOverflow as exc:
                seen += 1
                with pytest.raises(LengthOverflow) as raised:
                    _chain_of_conjugates(length, FACTORS, partitions)
                assert str(raised.value) == str(exc)
            else:
                assert _chain_of_conjugates(length, FACTORS, partitions) == expected
        assert seen > 100

    def test_round_trip(self):
        rng = random.Random(2304)
        for _ in range(500):
            length = rng.randint(0, 7)
            chain = random_chain(rng, length)
            rows = _conjugate_rows(chain, chain.factors)
            assert _chain_of_conjugates(length, chain.factors, rows) == chain


class TestSharedFactors:
    def test_translated_instances_share_their_fresh_factors(self):
        small = LemmaInstance([((1,), ())], (1,), ())
        generator = InstanceGenerator(GeneratorConfig(seed=5, k=3, s=2))
        large = generator.lemma_instance()
        x, y = lemma_to_theorem(small), lemma_to_theorem(large)
        assert x.factors[0] is y.factors[0]
        z = lemma_to_theorem(generator.lemma_instance())
        for i in range(3):
            assert y.factors[i] is z.factors[i]
        assert [factor.label for factor in z.factors] == ["e1", "e2", "e3"]
        assert all(factor.degree == 1 for factor in z.factors)

    def test_more_pairs_than_ever_before_extend_the_shared_factors(self):
        wide = LemmaInstance([((1,), ())] * 12, (1,) * 12, ())
        theorem = lemma_to_theorem(wide)
        assert sorted(factor.label for factor in theorem.factors) == sorted(
            f"e{i}" for i in range(1, 13)
        )
        assert lemma_to_theorem(LemmaInstance([((1,), ())], (1,), ())).factors[0] is next(
            factor for factor in theorem.factors if factor.label == "e1"
        )
