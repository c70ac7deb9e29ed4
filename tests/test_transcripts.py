"""The full JSON transcripts of the verifiers: names, verdicts, compared objects and notes.

``check`` prints these transcripts, so every field here is part of the CLI's
output bytes.
"""

from majorchain import (
    BetaCertificate,
    FCertificate,
    Factor,
    LemmaInstance,
    PolyChain,
    TheoremInstance,
    check_lemma_conclusion,
    check_lemma_premise,
    check_theorem_conclusion,
    check_theorem_premises,
)
from majorchain.jsonio import transcript_to_obj

X = Factor("x")

# Two pairs with gaps (2, 2) and (1,), pooled (2, 2, 1) under A+B = (3, 2).
TWO_PAIRS = LemmaInstance((((2, 2), ()), ((1,), ())), (2, 1), (1, 1))
TWO_PAIRS_OBJ = [[[2, 2], []], [[1], []]]
# One pair d=(2, 2), t=(); f=(2,) makes the lower gaps (2) and the upper gaps (2).
LOWER_TIGHT = LemmaInstance((((2, 2), ()),), (1, 1), (2,))
UPPER_TIGHT = LemmaInstance((((2, 2), ()),), (2,), (1, 1))


def chain(*exponents):
    """The JSON form of a one-factor chain in x."""
    return {
        "length": len(exponents),
        "factors": [{"label": "x", "degree": 1, "exponents": list(exponents)}],
    }


def check(name, holds, left, right, note=""):
    return {"name": name, "holds": holds, "left": left, "right": right, "note": note}


def skipped(name, what):
    return check(name, None, None, None, f"skipped: the {what} condition failed")


def lemma_transcript(inst, *fs):
    return transcript_to_obj(check_lemma_conclusion(inst, FCertificate(fs)))


def theorem_transcript(inst, *beta):
    certificate = BetaCertificate(PolyChain(len(beta), {X: beta}))
    return transcript_to_obj(check_theorem_conclusion(inst, certificate))


class TestLemmaConclusion:
    def test_all_pass(self):
        assert lemma_transcript(TWO_PAIRS, (1, 1), (1,)) == [
            check("bounds(t<=f<=d)", True, [[1, 1], [1]], TWO_PAIRS_OBJ),
            check("lower-gaps-vs-A", True, [1, 1, 1], [2, 1]),
            check("upper-gaps-vs-B", True, [1, 1], [1, 1]),
        ]

    def test_bounds_fail(self):
        assert lemma_transcript(TWO_PAIRS, (1, 1), (2,)) == [
            check(
                "bounds(t<=f<=d)",
                False,
                [[1, 1], [2]],
                TWO_PAIRS_OBJ,
                "pair 1, position 0: need 1 >= 2 >= 0",
            ),
            skipped("lower-gaps-vs-A", "bounds"),
            skipped("upper-gaps-vs-B", "bounds"),
        ]

    def test_lower_fails(self):
        assert lemma_transcript(LOWER_TIGHT, (2,)) == [
            check("bounds(t<=f<=d)", True, [[2]], [[[2, 2], []]]),
            check("lower-gaps-vs-A", False, [2], [1, 1]),
            check("upper-gaps-vs-B", True, [2], [2]),
        ]

    def test_upper_fails(self):
        assert lemma_transcript(UPPER_TIGHT, (2,)) == [
            check("bounds(t<=f<=d)", True, [[2]], [[[2, 2], []]]),
            check("lower-gaps-vs-A", True, [2], [2]),
            check("upper-gaps-vs-B", False, [2], [1, 1]),
        ]


class TestLemmaPremise:
    def test_holds(self):
        assert transcript_to_obj(check_lemma_premise(TWO_PAIRS)) == [
            check("pooled-gaps-vs-A+B", True, [2, 2, 1], [3, 2])
        ]

    def test_fails_on_unequal_totals(self):
        inst = LemmaInstance((((2,), ()),), (1,), ())
        assert transcript_to_obj(check_lemma_premise(inst)) == [
            check("pooled-gaps-vs-A+B", False, [2], [1])
        ]


class TestTheoremPremises:
    def test_interlace_fails(self):
        inst = TheoremInstance(
            PolyChain(1, {X: (2,)}), PolyChain(3, {X: (0, 1, 1)}), (0,), (0,), m=1, p=1
        )
        assert transcript_to_obj(check_theorem_premises(inst)) == [
            check("alpha-gamma-interlace", False, chain(2), chain(0, 1, 1)),
            skipped("indices-vs-sigma(alpha,gamma)", "interlace"),
        ]

    def test_all_pass(self):
        inst = TheoremInstance(
            PolyChain(1, {X: (1,)}), PolyChain(3, {X: (0, 1, 2)}), (0,), (0,), m=1, p=1
        )
        assert transcript_to_obj(check_theorem_premises(inst)) == [
            check("alpha-gamma-interlace", True, chain(1), chain(0, 1, 2)),
            check("indices-vs-sigma(alpha,gamma)", True, [1, 1], [2]),
        ]


class TestTheoremConclusion:
    # Inner chain (x), outer chain (1, x^2, x^3), one column and one row index 0:
    # the inner sandwich needs b1 <= 1 <= b2, the outer one b1 <= 2 <= b2 <= 3.
    INST = TheoremInstance(
        PolyChain(1, {X: (1,)}), PolyChain(3, {X: (0, 2, 3)}), (0,), (0,), m=1, p=1
    )

    def test_beta_is_not_a_chain(self):
        not_chain = "skipped: the chain is not a divisibility chain"
        assert theorem_transcript(self.INST, 2, 0) == [
            check("beta-chain-valid", False, chain(2, 0), None),
            check("beta-alpha-interlace", None, chain(1), chain(2, 0), not_chain),
            check("beta-gamma-interlace", None, chain(2, 0), chain(0, 2, 3), not_chain),
            skipped("column-indices-vs-sigma(alpha,beta)", "inner interlace"),
            skipped("row-indices-vs-sigma(beta,gamma)", "outer interlace"),
        ]

    def test_inner_sandwich_fails(self):
        assert theorem_transcript(self.INST, 2, 2) == [
            check("beta-chain-valid", True, chain(2, 2), None),
            check("beta-alpha-interlace", False, chain(1), chain(2, 2)),
            check("beta-gamma-interlace", True, chain(2, 2), chain(0, 2, 3)),
            skipped("column-indices-vs-sigma(alpha,beta)", "inner interlace"),
            check("row-indices-vs-sigma(beta,gamma)", True, [1], [1]),
        ]

    def test_outer_sandwich_fails(self):
        assert theorem_transcript(self.INST, 1, 4) == [
            check("beta-chain-valid", True, chain(1, 4), None),
            check("beta-alpha-interlace", True, chain(1), chain(1, 4)),
            check("beta-gamma-interlace", False, chain(1, 4), chain(0, 2, 3)),
            check("column-indices-vs-sigma(alpha,beta)", False, [1], [4]),
            skipped("row-indices-vs-sigma(beta,gamma)", "outer interlace"),
        ]
