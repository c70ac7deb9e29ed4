"""Argument-validity rules: the integer rule at every site, and rules no other test reaches.

Every library entry point that takes a scalar integer argument checks it
with one rule: a ``bool`` is not an integer, and the value must reach the
site's floor.  The table below has one row per site, with the exception
type that site raises.
"""

import pytest

from majorchain import (
    Factor,
    GeneratorConfig,
    InputError,
    LemmaInstance,
    LengthMismatch,
    Partition,
    PolyChain,
    TheoremInstance,
    interlace_check,
    scaled,
    search_trace_hash,
    solve_lemma,
    solve_scaled_k1,
)
from majorchain import jsonio
from majorchain.cli import cli_dispatch

X = Factor("x")
ONE = Partition([1])
LEMMA = LemmaInstance(((ONE, Partition()),), ONE, Partition())


def _empty_theorem(m, p):
    return TheoremInstance(PolyChain(0), PolyChain(0), Partition(), Partition(), m=m, p=p)


# (site, call with the value, floor, exception type)
SITES = [
    ("solve-budget", lambda v: solve_lemma(LEMMA, budget=v), 0, ValueError),
    ("solve-workers", lambda v: solve_lemma(LEMMA, workers=v), 1, ValueError),
    ("trace-budget", lambda v: search_trace_hash(LEMMA, budget=v), 0, ValueError),
    ("scaled-weight", lambda v: solve_scaled_k1(ONE, (), ONE, (), v), 1, ValueError),
    ("theorem-m", lambda v: _empty_theorem(v, 0), 0, ValueError),
    ("theorem-p", lambda v: _empty_theorem(0, v), 0, ValueError),
    ("factor-degree", lambda v: Factor("x", v), 1, ValueError),
    ("chain-length", lambda v: PolyChain(v), 0, ValueError),
    ("interlace-gap", lambda v: interlace_check(PolyChain(0), PolyChain(0), v), 0, LengthMismatch),
    ("partition-scale", lambda v: scaled(Partition([2, 1]), v), 0, ValueError),
    ("generator-k", lambda v: GeneratorConfig(seed=0, k=v), 1, ValueError),
    ("generator-s", lambda v: GeneratorConfig(seed=0, s=v), 1, ValueError),
    ("generator-max-part", lambda v: GeneratorConfig(seed=0, max_part=v), 0, ValueError),
    ("generator-transfers", lambda v: GeneratorConfig(seed=0, max_transfer_steps=v), 0, ValueError),
]


@pytest.mark.parametrize("site, call, floor, error", SITES, ids=[row[0] for row in SITES])
def test_integer_argument_rule(site, call, floor, error):
    for bad in (True, 1.5, floor - 1):
        with pytest.raises(error):
            call(bad)
    call(floor)


def test_theorem_indices_m_and_p_are_required():
    with pytest.raises(TypeError):
        TheoremInstance(PolyChain(0), PolyChain(0), Partition(), Partition())


class TestTheoremInstanceRules:
    def test_more_column_indices_than_m(self):
        with pytest.raises(ValueError, match="column indices"):
            TheoremInstance(PolyChain(0), PolyChain(1), Partition([1, 1]), Partition(), m=1, p=0)

    def test_more_row_indices_than_p(self):
        with pytest.raises(ValueError, match="row indices"):
            TheoremInstance(PolyChain(0), PolyChain(1), Partition(), Partition([1, 1]), m=0, p=1)

    def test_inner_chain_must_be_a_divisibility_chain(self):
        with pytest.raises(ValueError, match="inner chain is not a divisibility chain"):
            TheoremInstance(
                PolyChain(2, {X: (2, 1)}),
                PolyChain(3, {X: (2, 2, 2)}),
                Partition(),
                Partition([0]),
                m=0,
                p=1,
            )

    def test_degree_disagreement_is_the_chain_layer_rule(self):
        with pytest.raises(ValueError, match="degree 2 in one chain and 1 in the other"):
            TheoremInstance(
                PolyChain(1, {Factor("x", 2): (1,)}),
                PolyChain(3, {X: (0, 1, 2)}),
                Partition([0]),
                Partition([0]),
                m=1,
                p=1,
            )


def test_certificate_needs_fs_or_beta():
    with pytest.raises(InputError, match="'fs' or 'beta'"):
        jsonio.parse_certificate({"gamma": []})


def test_budget_zero_exits_3_on_an_instance_that_needs_a_node(capsys, tmp_path):
    path = tmp_path / "lemma.json"
    path.write_text(jsonio.dumps(jsonio.lemma_instance_to_obj(LEMMA)), encoding="utf-8")
    argv = ["solve", "--mode", "lemma", "--instance", str(path), "--budget", "0"]
    assert cli_dispatch(argv) == 3
    assert jsonio.load_json(capsys.readouterr().out)["outcome"] == "aborted"


def test_repro_counterexample_at_budget_zero_needs_no_node(capsys):
    # With w = 2, A's first prefix sum floor-divided by w is 0, so the lower-prefix bound
    # caps the root window at f = 0 and the upper-prefix bound raises it to 1: it is empty.
    assert cli_dispatch(["repro-counterexample", "--budget", "0"]) == 0
    report = jsonio.load_json(capsys.readouterr().out)
    assert (report["outcome"], report["nodes"]) == ("none", 0)
