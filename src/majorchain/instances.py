"""The two equivalent existence problems and the maps between them.

The chain-completion form: given an inner chain ``alpha`` of length n, an
outer chain ``gamma`` of length n+m+p sandwiching it, and completion indices
``c`` (m column indices) and ``r`` (p row indices), find a middle chain
``beta`` of length n+m that is sandwiched between the two and whose
lcm-degree sequences against ``alpha`` and against ``gamma`` majorize the
shifted index partitions.

The partition-splitting form: given pairs (d^i, t^i) with t^i <= d^i
componentwise and partitions A and B such that the pooled gaps
(d^1-t^1) u ... u (d^k-t^k) are majorized by A+B, find intermediate
partitions f^i with t^i <= f^i <= d^i whose lower gaps pool under A and
whose upper gaps pool under B.

Each form translates into the other, and certificates transport across the
translation: a middle chain corresponds to the list of conjugates of its
factor partitions, and vice versa.  The verifiers here check premises and
conclusions of both forms, producing transcripts that list every condition
with the two objects it compares.

The translation reads conjugates straight off exponent vectors, with no
intermediate factor partition.  A valid chain's exponent vector v of length
L is non-decreasing, and it is the factor partition read upwards, so entry
i of that partition's conjugate, the number of parts above i, is
L - bisect_right(v, i) for i below v's last entry.  The other way, a
partition f gets exponent #{parts of f above L - q} at chain position q:
part j of f's conjugate counts the parts above j - 1 and sits at position
L + 1 - j.  The index partitions c and r are read the same way off A and B.
The public route (``dual``, ``PolyChain.factor_partition`` and
``PolyChain.from_partitions``) gives the same values and stays as the
reference that the tests compare these maps with.

Each condition has one implementation here, which the solvers reuse:
``_pooled`` builds every pooled-gap multiset from a list of gaps, which
``LemmaInstance.gap_union`` and ``_splitting_checks`` collect in their own
pass over the pairs, ``_splitting_checks`` is the splitting conclusion
(with the gaps scaled by a weight, 1 for the lemma itself) and
``_sigma_condition`` is every indices-versus-degree-sequence condition of
the chain-completion form.
"""

from __future__ import annotations

from bisect import bisect_right
from collections.abc import Iterable
from functools import cached_property
from operator import ge, lt, sub

from .chains import (
    Factor,
    PolyChain,
    _merged_degrees,
    _sigma_of_sandwich,
    chain_validate,
    interlace_check,
)
from .errors import (
    ConclusionViolation,
    DominanceViolation,
    LengthMismatch,
    LengthOverflow,
    NonLinearFactor,
    PremiseViolation,
    _int_argument,
    _Value,
)
from .partitions import Partition, as_partition, majorizes, plus, union


def _shifted_indices(indices: Partition, count: int) -> Partition:
    """(c_1+1, ..., c_count+1): each index plus one, zero-padded to count."""
    return Partition(indices[i] + 1 for i in range(count))


class TheoremInstance(_Value, fields=("alpha", "gamma", "c", "r", "m", "p")):
    """Data of the chain-completion form.

    ``m`` and ``p`` are stored explicitly because ``c`` and ``r`` are kept
    canonical (trailing zeros stripped): an all-zero index list would
    otherwise lose its length.
    """

    def __init__(
        self, alpha: PolyChain, gamma: PolyChain, c: Partition, r: Partition, m: int, p: int
    ):
        c = as_partition(c)
        r = as_partition(r)
        _int_argument("m", m)
        _int_argument("p", p)
        if len(c) > m:
            raise ValueError(f"{len(c)} column indices do not fit m={m}")
        if len(r) > p:
            raise ValueError(f"{len(r)} row indices do not fit p={p}")
        if gamma.length != alpha.length + m + p:
            raise LengthMismatch(
                f"outer chain length {gamma.length} != {alpha.length} + {m} + {p}"
            )
        if not chain_validate(alpha):
            raise ValueError("the inner chain is not a divisibility chain")
        if not chain_validate(gamma):
            raise ValueError("the outer chain is not a divisibility chain")
        _merged_degrees(alpha, gamma)
        outer = set(gamma.labels)
        for label in alpha.labels:
            if label not in outer:
                raise ValueError(
                    f"factor {label!r} of the inner chain is missing from the outer chain"
                )
        self.__dict__.update(alpha=alpha, gamma=gamma, c=c, r=r, m=m, p=p)

    @property
    def n(self) -> int:
        return self.alpha.length

    @cached_property
    def c_plus(self) -> Partition:
        return _shifted_indices(self.c, self.m)

    @cached_property
    def r_plus(self) -> Partition:
        return _shifted_indices(self.r, self.p)

    @property
    def factors(self) -> tuple[Factor, ...]:
        """All factors of the instance, in the canonical (label) order."""
        return self.gamma.factors

    @cached_property
    def premise_holds(self) -> bool:
        """Whether both chain-completion premises hold (see check_theorem_premises)."""
        return _verdict(check_theorem_premises(self))

    def canonical_key(self):
        rows = sorted(
            (
                self.gamma.factor_partition(f.label).parts,
                self.alpha.factor_partition(f.label).parts,
                f.degree,
            )
            for f in self.gamma.factors
        )
        return (self.n, self.m, self.p, self.c.parts, self.r.parts, tuple(rows))

    def equivalent(self, other: "TheoremInstance") -> bool:
        """Equality up to a degree-preserving relabeling of the factors."""
        return isinstance(other, TheoremInstance) and self.canonical_key() == other.canonical_key()


class LemmaInstance(_Value, fields=("pairs", "A", "B")):
    """Data of the partition-splitting form: k pairs (d^i, t^i) plus A and B."""

    def __init__(self, pairs: Iterable[tuple[Partition, Partition]], A: Partition, B: Partition):
        normalized = []
        for index, (d, t) in enumerate(pairs):
            d, t = as_partition(d), as_partition(t)
            # t has no more parts than d and no part above d's, or the first violation is named.
            if len(t.parts) > len(d.parts) or any(map(lt, d.parts, t.parts)):
                j = next(j for j in range(len(t)) if d[j] < t[j])
                raise DominanceViolation(f"pair {index}, position {j}: d={d[j]} < t={t[j]}")
            normalized.append((d, t))
        self.__dict__.update(pairs=tuple(normalized), A=as_partition(A), B=as_partition(B))

    @property
    def k(self) -> int:
        return len(self.pairs)

    @property
    def s(self) -> int:
        """Common padded length of the pairs (0 when every pair is empty)."""
        return max((len(d) for d, _ in self.pairs), default=0)

    def gap_union(self) -> Partition:
        """The pooled gaps (d^1-t^1) u ... u (d^k-t^k)."""
        gaps = []
        for d, t in self.pairs:
            d = d.parts  # t <= d, so t has no more parts than d
            gaps += map(sub, d, t.pad(len(d)))
        return _pooled(gaps, 1)

    @cached_property
    def premise_holds(self) -> bool:
        """Whether the pooled gaps are majorized by A+B (see check_lemma_premise)."""
        return _verdict(check_lemma_premise(self))

    def canonical_key(self):
        rows = sorted((d.parts, t.parts) for d, t in self.pairs)
        return (self.A.parts, self.B.parts, tuple(rows))

    def equivalent(self, other: "LemmaInstance") -> bool:
        """Equality up to reordering of the pairs."""
        return isinstance(other, LemmaInstance) and self.canonical_key() == other.canonical_key()


class BetaCertificate(_Value, fields=("beta",)):
    """A candidate middle chain for the chain-completion form."""

    def __init__(self, beta: PolyChain):
        self.__dict__["beta"] = beta


class FCertificate(_Value, fields=("fs",)):
    """Candidate intermediate partitions, one per pair.

    When produced from or fed to a :class:`TheoremInstance`, entry i
    corresponds to the i-th factor in the instance's canonical factor order.
    """

    def __init__(self, fs: Iterable[Partition]):
        self.__dict__["fs"] = tuple(map(as_partition, fs))


class ConditionCheck(_Value, fields=("name", "holds", "left", "right", "note")):
    """One verified condition: a name, a verdict, and the compared objects.

    ``holds`` is None when the condition could not be evaluated because a
    prerequisite condition already failed (explained in ``note``).
    """

    def __init__(
        self,
        name: str,
        holds: bool | None,
        left: object = None,
        right: object = None,
        note: str = "",
    ):
        self.__dict__.update(name=name, holds=holds, left=left, right=right, note=note)


def _verdict(checks: Iterable[ConditionCheck]) -> bool:
    return all([check.holds is True for check in checks])


def _majorized(name: str, left: Partition, right: Partition) -> ConditionCheck:
    return ConditionCheck(name, majorizes(left, right), left, right)


def _pooled(gaps: list[int], w: int) -> Partition:
    """The gaps, each scaled by ``w``, sorted once into a partition (sorts ``gaps`` in place)."""
    gaps.sort(reverse=True)
    return Partition(gaps if w == 1 else [w * gap for gap in gaps])


def _sigma_condition(name, sandwiched, indices, delta, epsilon, y, sandwich_name):
    """``indices`` against sigma(delta, epsilon), which exists only for a sandwiched pair."""
    if not sandwiched:
        return ConditionCheck(name, None, note=f"skipped: the {sandwich_name} condition failed")
    return _majorized(name, indices, _sigma_of_sandwich(delta, epsilon, y))


def check_theorem_premises(inst: TheoremInstance) -> list[ConditionCheck]:
    """Transcript of the two premises of the chain-completion form."""
    alpha, gamma, y = inst.alpha, inst.gamma, inst.m + inst.p
    sandwich = interlace_check(alpha, gamma, y)
    indices = union(inst.c_plus, inst.r_plus)
    return [
        ConditionCheck("alpha-gamma-interlace", sandwich, alpha, gamma),
        _sigma_condition(
            "indices-vs-sigma(alpha,gamma)", sandwich, indices, alpha, gamma, y, "interlace"
        ),
    ]


def verify_theorem_premises(inst: TheoremInstance) -> bool:
    return inst.premise_holds


def check_theorem_conclusion(
    inst: TheoremInstance, certificate: BetaCertificate
) -> list[ConditionCheck]:
    """Transcript of the four conclusion conditions for a middle chain.

    The two degree-sequence conditions are only evaluable when the
    corresponding interlace condition holds; they are reported as skipped
    otherwise.
    """
    beta, alpha, gamma = certificate.beta, inst.alpha, inst.gamma
    if beta.length != inst.n + inst.m:
        raise LengthMismatch(f"middle chain length {beta.length} != {inst.n} + {inst.m}")
    valid = chain_validate(beta)
    inner = valid and interlace_check(alpha, beta, inst.m)
    outer = valid and interlace_check(beta, gamma, inst.p)
    skip = "" if valid else "skipped: the chain is not a divisibility chain"
    return [
        ConditionCheck("beta-chain-valid", valid, beta, None),
        ConditionCheck("beta-alpha-interlace", inner if valid else None, alpha, beta, note=skip),
        ConditionCheck("beta-gamma-interlace", outer if valid else None, beta, gamma, note=skip),
        _sigma_condition(
            "column-indices-vs-sigma(alpha,beta)",
            inner, inst.c_plus, alpha, beta, inst.m, "inner interlace",
        ),
        _sigma_condition(
            "row-indices-vs-sigma(beta,gamma)",
            outer, inst.r_plus, beta, gamma, inst.p, "outer interlace",
        ),
    ]


def verify_theorem_conclusion(inst: TheoremInstance, certificate: BetaCertificate) -> bool:
    return _verdict(check_theorem_conclusion(inst, certificate))


def check_lemma_premise(inst: LemmaInstance) -> list[ConditionCheck]:
    return [_majorized("pooled-gaps-vs-A+B", inst.gap_union(), plus(inst.A, inst.B))]


def verify_lemma_premise(inst: LemmaInstance) -> bool:
    return inst.premise_holds


def _splitting_checks(pairs, fs, A: Partition, B: Partition, w: int) -> list[ConditionCheck]:
    """The three splitting conditions, with every gap scaled by ``w``.

    t^i <= f^i <= d^i, the lower gaps w*(f^i-t^i) pool under A and the upper
    gaps w*(d^i-f^i) pool under B.  With w=1 this is the splitting conclusion.
    One pass over the pairs tests each pair's bounds on its padded parts
    inside C builtins and collects its lower and upper gaps.  Only a pair
    that fails is walked position by position, for the note naming the
    first position where d^i >= f^i >= t^i does not hold.
    """
    if len(fs) != len(pairs):
        raise LengthMismatch(f"{len(fs)} candidate partitions for {len(pairs)} pairs")
    lower_gaps: list[int] = []
    upper_gaps: list[int] = []
    for index, ((d, t), f) in enumerate(zip(pairs, fs)):
        hi = d.parts
        n = len(hi)
        mid, lo = f.pad(n), t.pad(n)  # t <= d, so t has no more parts than d
        if len(mid) > n or not all(map(ge, hi, mid)) or not all(map(ge, mid, lo)):
            note = next(
                f"pair {index}, position {j}: need {d[j]} >= {f[j]} >= {t[j]}"
                for j in range(len(mid))
                if not d[j] >= f[j] >= t[j]
            )
            skip = "skipped: the bounds condition failed"
            return [
                ConditionCheck("bounds(t<=f<=d)", False, tuple(fs), pairs, note=note),
                ConditionCheck("lower-gaps-vs-A", None, note=skip),
                ConditionCheck("upper-gaps-vs-B", None, note=skip),
            ]
        lower_gaps += map(sub, mid, lo)
        upper_gaps += map(sub, hi, mid)
    lower = _pooled(lower_gaps, w)
    upper = _pooled(upper_gaps, w)
    return [
        ConditionCheck("bounds(t<=f<=d)", True, tuple(fs), pairs),
        _majorized("lower-gaps-vs-A", lower, A),
        _majorized("upper-gaps-vs-B", upper, B),
    ]


def check_lemma_conclusion(inst: LemmaInstance, certificate: FCertificate) -> list[ConditionCheck]:
    """Transcript of the three conclusion conditions for a splitting."""
    return _splitting_checks(inst.pairs, certificate.fs, inst.A, inst.B, 1)


def verify_lemma_conclusion(inst: LemmaInstance, certificate: FCertificate) -> bool:
    return _verdict(check_lemma_conclusion(inst, certificate))


def _require_translatable(inst: TheoremInstance, scope: str) -> None:
    """Raise unless every factor has degree 1 and then the premises hold.

    The precondition of the translation and of the direct chain search;
    ``scope`` ends the :class:`NonLinearFactor` message.
    """
    for factor in inst.factors:
        if factor.degree != 1:
            raise NonLinearFactor(f"factor {factor.label!r} has degree {factor.degree}; {scope}")
    if not verify_theorem_premises(inst):
        raise PremiseViolation("the chain-completion premises do not hold")


def _conjugate(ascending) -> list[int]:
    """Parts of the conjugate of the partition whose parts, read upwards, are ``ascending``.

    Entry i counts the parts above i: all of them but the ones at most i.
    """
    count = len(ascending)
    return [count - bisect_right(ascending, i) for i in range(ascending[-1] if ascending else 0)]


def _conjugate_rows(chain: PolyChain, factors) -> tuple[Partition, ...]:
    """Chain to splitting form: its factor partitions' conjugates, in ``factors`` order.

    The chain must be valid (see :func:`chain_validate`), so that each
    exponent vector is its factor partition read upwards.
    """
    return tuple(Partition(_conjugate(chain.exponent_vector(factor.label))) for factor in factors)


def _chain_of_conjugates(length: int, factors, partitions) -> PolyChain:
    """Inverse of :func:`_conjugate_rows`: ``factors[i]`` gets ``partitions[i]``'s conjugate.

    A partition whose first part exceeds ``length`` has a conjugate with
    more parts than the chain has positions; that raises
    :class:`LengthOverflow`, as :meth:`PolyChain.from_partitions` does.
    """
    exponents = []
    for factor, partition in zip(factors, partitions):
        parts = partition.parts
        if parts and parts[0] > length:
            raise LengthOverflow(
                f"factor {factor.label!r}: partition with {parts[0]} parts "
                f"does not fit a length-{length} chain"
            )
        ascending = parts[::-1]
        count = len(parts)
        vector = [count - bisect_right(ascending, length - q) for q in range(1, length + 1)]
        exponents.append((factor, vector))
    return PolyChain(length, exponents)


# The fresh degree-1 factors e1, e2, ... of every translated instance.  Factor is an immutable
# value compared by its fields, so sharing the objects is not visible to callers.  Threads that
# extend the tuple at once can at worst replace it with equal factors, never with wrong ones.
_fresh_factors: tuple[Factor, ...] = ()


def _fresh(k: int) -> tuple[Factor, ...]:
    """The first ``k`` shared fresh factors, made on first need."""
    global _fresh_factors
    known = _fresh_factors
    if len(known) < k:
        known += tuple(Factor(f"e{i}") for i in range(len(known) + 1, k + 1))
        _fresh_factors = known
    return known[:k]


def theorem_to_lemma(inst: TheoremInstance) -> LemmaInstance:
    """Translate a chain-completion instance into a partition-splitting one.

    One pair per factor (canonical order): d^i and t^i are the conjugates of
    the factor partitions of the outer and inner chains; A and B are the
    conjugates of the shifted column and row indices.  Defined only when the
    premises hold and every factor has degree 1.  The result's first part of
    A is m and of B is p, and its premise holds whenever the input's did.
    """
    _require_translatable(inst, "the translation requires degree-1 factors")
    factors = inst.factors
    pairs = tuple(zip(_conjugate_rows(inst.gamma, factors), _conjugate_rows(inst.alpha, factors)))
    A = Partition(_conjugate(inst.c_plus.parts[::-1]))
    B = Partition(_conjugate(inst.r_plus.parts[::-1]))
    return LemmaInstance(pairs, A, B)


def lemma_to_theorem(inst: LemmaInstance) -> TheoremInstance:
    """Translate a partition-splitting instance into a chain-completion one.

    m and p are the first parts of A and B; the shifted indices are the
    conjugates of A and B; the inner chain has length max over i of t^i_1
    and one fresh degree-1 factor per pair carrying the conjugates of t^i
    and d^i.  The fresh factors are e1, e2, ..., the same objects in every
    translated instance.  The premises of the result hold whenever the
    input's premise did; a failing premise raises :class:`PremiseViolation`
    since the resulting instance would fail its own premises too.
    """
    if not inst.premise_holds:
        raise PremiseViolation("the pooled gaps are not majorized by A+B")
    m = inst.A[0]
    p = inst.B[0]
    # Entry i of A's conjugate less one counts the parts of A above i other than its first.
    c = Partition(_conjugate(inst.A.parts[:0:-1]))
    r = Partition(_conjugate(inst.B.parts[:0:-1]))
    n = max((t[0] for _, t in inst.pairs), default=0)
    factors = _fresh(inst.k)
    alpha = _chain_of_conjugates(n, factors, [t for _, t in inst.pairs])
    gamma = _chain_of_conjugates(n + m + p, factors, [d for d, _ in inst.pairs])
    return TheoremInstance(alpha, gamma, c, r, m=m, p=p)


def f_to_beta(inst: TheoremInstance, certificate: FCertificate) -> BetaCertificate:
    """Assemble the middle chain whose factor partitions conjugate the f^i.

    Entry i of the certificate corresponds to the i-th factor of the
    instance in canonical order.  For a certificate that verifies against
    ``theorem_to_lemma(inst)`` the result verifies against ``inst``; an f^i
    whose conjugate does not fit the middle chain (first part beyond n+m)
    makes :func:`_chain_of_conjugates` raise
    :class:`~majorchain.errors.LengthOverflow`, with the message
    :meth:`PolyChain.from_partitions` gives, which cannot happen for
    verified input.
    """
    fs = certificate.fs
    if len(fs) != len(inst.factors):
        raise LengthMismatch(f"{len(fs)} partitions for {len(inst.factors)} factors")
    return BetaCertificate(_chain_of_conjugates(inst.n + inst.m, inst.factors, fs))


def beta_to_f(inst: TheoremInstance, certificate: BetaCertificate) -> FCertificate:
    """Read the splitting certificate out of a verified middle chain.

    Requires ``verify_theorem_conclusion(inst, certificate)``; raises
    :class:`ConclusionViolation` otherwise.  The result verifies against
    ``theorem_to_lemma(inst)``.
    """
    if not verify_theorem_conclusion(inst, certificate):
        raise ConclusionViolation("the middle chain does not verify against the instance")
    return FCertificate(_conjugate_rows(certificate.beta, inst.factors))
