"""Label-indexed chain storage: lookups, canonical order and the one-pass σ."""

import pytest

from majorchain import (
    Factor,
    PolyChain,
    interlace_check,
    pi_degree,
    sigma_degree_sequence,
    sigma_identity_rhs,
)

from helpers import pi_degree_by_products

X = Factor("x")
Z = Factor("z", 2)


def outer_only_pair():
    """A sandwiched pair whose outer chain has a factor the inner one lacks."""
    inner = PolyChain(2, {X: (1, 2)})
    outer = PolyChain(5, {X: (0, 1, 2, 2, 3), Z: (0, 0, 1, 1, 3)})
    return inner, outer, 3


def test_factor_only_in_the_outer_chain():
    inner, outer, y = outer_only_pair()
    assert interlace_check(inner, outer, y)
    for i in range(y + 1):
        assert pi_degree(i, inner, outer) == pi_degree_by_products(i, inner, outer)
    assert sigma_degree_sequence(inner, outer, y) == sigma_identity_rhs(inner, outer, y)


def test_sigma_rejects_a_factor_degree_disagreement():
    inner = PolyChain(1, {Factor("x", 2): (1,)})
    outer = PolyChain(3, {X: (0, 1, 2)})
    assert interlace_check(inner, outer, 2)
    with pytest.raises(ValueError):
        sigma_degree_sequence(inner, outer, 2)


def test_repr_matches_the_documented_form():
    assert repr(PolyChain(2, {X: (0, 2)})) == "PolyChain(length=2, {x:[0, 2]})"


def test_labels_and_factors_come_back_sorted():
    rows = [(Factor("z"), (1,)), (Factor("a", 3), (0,)), (Factor("m", 2), (2,))]
    chain = PolyChain(1, rows)
    assert chain.labels == ("a", "m", "z")
    assert chain.factors == (Factor("a", 3), Factor("m", 2), Factor("z"))
    assert repr(chain) == "PolyChain(length=1, {a:[0], m:[2], z:[1]})"


def test_absent_label_on_an_empty_chain_reads_the_empty_vector():
    assert PolyChain(0).exponent_vector("x") == ()
    assert PolyChain(0, {X: ()}).exponent_vector("y") == ()


def test_insertion_order_does_not_change_equality_or_hash():
    rows = [(X, (0, 1)), (Z, (1, 1)), (Factor("a"), (0, 0))]
    chains = [
        PolyChain(2, rows),
        PolyChain(2, list(reversed(rows))),
        PolyChain(2, dict([rows[1], rows[2], rows[0]])),
    ]
    assert all(chain == chains[0] for chain in chains)
    assert len({hash(chain) for chain in chains}) == 1
