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
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable

from .chains import (
    Factor,
    PolyChain,
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
)
from .partitions import Partition, as_partition, diff_sorted, dual, majorizes, plus, union


def _shifted_indices(indices: Partition, count: int) -> Partition:
    """(c_1+1, ..., c_count+1): each index plus one, zero-padded to count."""
    return Partition(indices[i] + 1 for i in range(count))


@dataclass(frozen=True)
class TheoremInstance:
    """Data of the chain-completion form.

    ``m`` and ``p`` are stored explicitly because ``c`` and ``r`` are kept
    canonical (trailing zeros stripped): an all-zero index list would
    otherwise lose its length.
    """

    alpha: PolyChain
    gamma: PolyChain
    c: Partition
    r: Partition
    m: int = None  # type: ignore[assignment]  # defaults to len(c)
    p: int = None  # type: ignore[assignment]  # defaults to len(r)

    def __post_init__(self):
        object.__setattr__(self, "c", as_partition(self.c))
        object.__setattr__(self, "r", as_partition(self.r))
        if self.m is None:
            object.__setattr__(self, "m", len(self.c))
        if self.p is None:
            object.__setattr__(self, "p", len(self.r))
        for name in ("m", "p"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, int) or value < 0:
                raise ValueError(f"{name} must be a nonnegative integer, got {value!r}")
        if len(self.c) > self.m:
            raise ValueError(f"{len(self.c)} column indices do not fit m={self.m}")
        if len(self.r) > self.p:
            raise ValueError(f"{len(self.r)} row indices do not fit p={self.p}")
        if self.gamma.length != self.alpha.length + self.m + self.p:
            raise LengthMismatch(
                f"outer chain length {self.gamma.length} != "
                f"{self.alpha.length} + {self.m} + {self.p}"
            )
        if not chain_validate(self.alpha):
            raise ValueError("the inner chain is not a divisibility chain")
        if not chain_validate(self.gamma):
            raise ValueError("the outer chain is not a divisibility chain")
        gamma_degrees = {f.label: f.degree for f in self.gamma.factors}
        for factor in self.alpha.factors:
            if factor.label not in gamma_degrees:
                raise ValueError(
                    f"factor {factor.label!r} of the inner chain is missing from the outer chain"
                )
            if gamma_degrees[factor.label] != factor.degree:
                raise ValueError(
                    f"factor {factor.label!r} has inconsistent degrees across the chains"
                )

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


@dataclass(frozen=True)
class LemmaInstance:
    """Data of the partition-splitting form: k pairs (d^i, t^i) plus A and B."""

    pairs: tuple[tuple[Partition, Partition], ...]
    A: Partition
    B: Partition

    def __post_init__(self):
        normalized = []
        for index, (d, t) in enumerate(self.pairs):
            d, t = as_partition(d), as_partition(t)
            for j in range(max(len(d), len(t))):
                if d[j] < t[j]:
                    raise DominanceViolation(
                        f"pair {index}, position {j}: d={d[j]} < t={t[j]}"
                    )
            normalized.append((d, t))
        object.__setattr__(self, "pairs", tuple(normalized))
        object.__setattr__(self, "A", as_partition(self.A))
        object.__setattr__(self, "B", as_partition(self.B))

    @property
    def k(self) -> int:
        return len(self.pairs)

    @property
    def s(self) -> int:
        """Common padded length of the pairs (0 when every pair is empty)."""
        return max((len(d) for d, _ in self.pairs), default=0)

    def gap_union(self) -> Partition:
        """The pooled gaps (d^1-t^1) u ... u (d^k-t^k)."""
        pooled = Partition()
        for d, t in self.pairs:
            pooled = union(pooled, diff_sorted(d, t))
        return pooled

    @cached_property
    def premise_holds(self) -> bool:
        """Whether the pooled gaps are majorized by A+B."""
        return majorizes(self.gap_union(), plus(self.A, self.B))

    def canonical_key(self):
        rows = sorted((d.parts, t.parts) for d, t in self.pairs)
        return (self.A.parts, self.B.parts, tuple(rows))

    def equivalent(self, other: "LemmaInstance") -> bool:
        """Equality up to reordering of the pairs."""
        return isinstance(other, LemmaInstance) and self.canonical_key() == other.canonical_key()


@dataclass(frozen=True)
class BetaCertificate:
    """A candidate middle chain for the chain-completion form."""

    beta: PolyChain


@dataclass(frozen=True)
class FCertificate:
    """Candidate intermediate partitions, one per pair.

    When produced from or fed to a :class:`TheoremInstance`, entry i
    corresponds to the i-th factor in the instance's canonical factor order.
    """

    fs: tuple[Partition, ...]

    def __post_init__(self):
        object.__setattr__(self, "fs", tuple(as_partition(f) for f in self.fs))


@dataclass(frozen=True)
class ConditionCheck:
    """One verified condition: a name, a verdict, and the compared objects.

    ``holds`` is None when the condition could not be evaluated because a
    prerequisite condition already failed (explained in ``note``).
    """

    name: str
    holds: bool | None
    left: object = None
    right: object = None
    note: str = ""


def _verdict(checks: Iterable[ConditionCheck]) -> bool:
    return all(check.holds is True for check in checks)


def check_theorem_premises(inst: TheoremInstance) -> list[ConditionCheck]:
    """Transcript of the two premises of the chain-completion form."""
    sandwich = interlace_check(inst.alpha, inst.gamma, inst.m + inst.p)
    checks = [
        ConditionCheck("alpha-gamma-interlace", sandwich, inst.alpha, inst.gamma)
    ]
    if sandwich:
        degrees = _sigma_of_sandwich(inst.alpha, inst.gamma, inst.m + inst.p)
        indices = union(inst.c_plus, inst.r_plus)
        checks.append(
            ConditionCheck(
                "indices-vs-sigma(alpha,gamma)",
                majorizes(indices, degrees),
                indices,
                degrees,
            )
        )
    else:
        checks.append(
            ConditionCheck(
                "indices-vs-sigma(alpha,gamma)",
                None,
                note="skipped: the interlace condition failed",
            )
        )
    return checks


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
    beta = certificate.beta
    if beta.length != inst.n + inst.m:
        raise LengthMismatch(
            f"middle chain length {beta.length} != {inst.n} + {inst.m}"
        )
    valid = chain_validate(beta)
    checks = [ConditionCheck("beta-chain-valid", valid, beta, None)]
    inner = valid and interlace_check(inst.alpha, beta, inst.m)
    checks.append(
        ConditionCheck(
            "beta-alpha-interlace",
            inner if valid else None,
            inst.alpha,
            beta,
            note="" if valid else "skipped: the chain is not a divisibility chain",
        )
    )
    outer = valid and interlace_check(beta, inst.gamma, inst.p)
    checks.append(
        ConditionCheck(
            "beta-gamma-interlace",
            outer if valid else None,
            beta,
            inst.gamma,
            note="" if valid else "skipped: the chain is not a divisibility chain",
        )
    )
    if inner:
        degrees = _sigma_of_sandwich(inst.alpha, beta, inst.m)
        checks.append(
            ConditionCheck(
                "column-indices-vs-sigma(alpha,beta)",
                majorizes(inst.c_plus, degrees),
                inst.c_plus,
                degrees,
            )
        )
    else:
        checks.append(
            ConditionCheck(
                "column-indices-vs-sigma(alpha,beta)",
                None,
                note="skipped: the inner interlace condition failed",
            )
        )
    if outer:
        degrees = _sigma_of_sandwich(beta, inst.gamma, inst.p)
        checks.append(
            ConditionCheck(
                "row-indices-vs-sigma(beta,gamma)",
                majorizes(inst.r_plus, degrees),
                inst.r_plus,
                degrees,
            )
        )
    else:
        checks.append(
            ConditionCheck(
                "row-indices-vs-sigma(beta,gamma)",
                None,
                note="skipped: the outer interlace condition failed",
            )
        )
    return checks


def verify_theorem_conclusion(inst: TheoremInstance, certificate: BetaCertificate) -> bool:
    return _verdict(check_theorem_conclusion(inst, certificate))


def check_lemma_premise(inst: LemmaInstance) -> list[ConditionCheck]:
    pooled = inst.gap_union()
    bound = plus(inst.A, inst.B)
    return [
        ConditionCheck("pooled-gaps-vs-A+B", majorizes(pooled, bound), pooled, bound)
    ]


def verify_lemma_premise(inst: LemmaInstance) -> bool:
    return inst.premise_holds


def check_lemma_conclusion(
    inst: LemmaInstance, certificate: FCertificate
) -> list[ConditionCheck]:
    """Transcript of the three conclusion conditions for a splitting."""
    fs = certificate.fs
    if len(fs) != inst.k:
        raise LengthMismatch(f"{len(fs)} candidate partitions for {inst.k} pairs")
    bounds_note = ""
    in_bounds = True
    for index, ((d, t), f) in enumerate(zip(inst.pairs, fs)):
        for j in range(max(len(d), len(t), len(f))):
            if not d[j] >= f[j] >= t[j]:
                in_bounds = False
                bounds_note = (
                    f"pair {index}, position {j}: need {d[j]} >= {f[j]} >= {t[j]}"
                )
                break
        if not in_bounds:
            break
    checks = [
        ConditionCheck("bounds(t<=f<=d)", in_bounds, tuple(fs), inst.pairs, note=bounds_note)
    ]
    if in_bounds:
        lower = Partition()
        upper = Partition()
        for (d, t), f in zip(inst.pairs, fs):
            lower = union(lower, diff_sorted(f, t))
            upper = union(upper, diff_sorted(d, f))
        checks.append(
            ConditionCheck("lower-gaps-vs-A", majorizes(lower, inst.A), lower, inst.A)
        )
        checks.append(
            ConditionCheck("upper-gaps-vs-B", majorizes(upper, inst.B), upper, inst.B)
        )
    else:
        note = "skipped: the bounds condition failed"
        checks.append(ConditionCheck("lower-gaps-vs-A", None, note=note))
        checks.append(ConditionCheck("upper-gaps-vs-B", None, note=note))
    return checks


def verify_lemma_conclusion(inst: LemmaInstance, certificate: FCertificate) -> bool:
    return _verdict(check_lemma_conclusion(inst, certificate))


def theorem_to_lemma(inst: TheoremInstance) -> LemmaInstance:
    """Translate a chain-completion instance into a partition-splitting one.

    One pair per factor (canonical order): d^i and t^i are the conjugates of
    the factor partitions of the outer and inner chains; A and B are the
    conjugates of the shifted column and row indices.  Defined only when the
    premises hold and every factor has degree 1.  The result's first part of
    A is m and of B is p, and its premise holds whenever the input's did.
    """
    for factor in inst.factors:
        if factor.degree != 1:
            raise NonLinearFactor(
                f"factor {factor.label!r} has degree {factor.degree}; the "
                "translation requires degree-1 factors"
            )
    if not verify_theorem_premises(inst):
        raise PremiseViolation("the chain-completion premises do not hold")
    pairs = tuple(
        (
            dual(inst.gamma.factor_partition(factor.label)),
            dual(inst.alpha.factor_partition(factor.label)),
        )
        for factor in inst.factors
    )
    return LemmaInstance(pairs, dual(inst.c_plus), dual(inst.r_plus))


def lemma_to_theorem(inst: LemmaInstance) -> TheoremInstance:
    """Translate a partition-splitting instance into a chain-completion one.

    m and p are the first parts of A and B; the shifted indices are the
    conjugates of A and B; the inner chain has length max over i of t^i_1
    and one fresh degree-1 factor per pair carrying the conjugates of t^i
    and d^i.  The premises of the result hold whenever the input's premise
    did; a failing premise raises :class:`PremiseViolation` since the
    resulting instance would fail its own premises too.
    """
    if not inst.premise_holds:
        raise PremiseViolation("the pooled gaps are not majorized by A+B")
    m = inst.A[0]
    p = inst.B[0]
    c = Partition(part - 1 for part in dual(inst.A).parts)
    r = Partition(part - 1 for part in dual(inst.B).parts)
    n = max((t[0] for _, t in inst.pairs), default=0)
    factors = [Factor(f"e{i + 1}") for i in range(inst.k)]
    alpha = PolyChain.from_partitions(
        n, {factor: dual(t) for factor, (_, t) in zip(factors, inst.pairs)}
    )
    gamma = PolyChain.from_partitions(
        n + m + p, {factor: dual(d) for factor, (d, _) in zip(factors, inst.pairs)}
    )
    return TheoremInstance(alpha, gamma, c, r, m=m, p=p)


def f_to_beta(inst: TheoremInstance, certificate: FCertificate) -> BetaCertificate:
    """Assemble the middle chain whose factor partitions conjugate the f^i.

    Entry i of the certificate corresponds to the i-th factor of the
    instance in canonical order.  For a certificate that verifies against
    ``theorem_to_lemma(inst)`` the result verifies against ``inst``; an f^i
    whose conjugate does not fit the middle chain (first part beyond n+m)
    raises :class:`LengthOverflow`, which cannot happen for verified input.
    """
    fs = certificate.fs
    if len(fs) != len(inst.factors):
        raise LengthMismatch(f"{len(fs)} partitions for {len(inst.factors)} factors")
    rows = {}
    for factor, f in zip(inst.factors, fs):
        b = dual(f)
        if len(b) > inst.n + inst.m:
            raise LengthOverflow(
                f"factor {factor.label!r}: conjugate has {len(b)} parts, more than "
                f"the middle chain length {inst.n + inst.m}"
            )
        rows[factor] = b
    return BetaCertificate(PolyChain.from_partitions(inst.n + inst.m, rows))


def beta_to_f(inst: TheoremInstance, certificate: BetaCertificate) -> FCertificate:
    """Read the splitting certificate out of a verified middle chain.

    Requires ``verify_theorem_conclusion(inst, certificate)``; raises
    :class:`ConclusionViolation` otherwise.  The result verifies against
    ``theorem_to_lemma(inst)``.
    """
    if not verify_theorem_conclusion(inst, certificate):
        raise ConclusionViolation("the middle chain does not verify against the instance")
    return FCertificate(
        tuple(
            dual(certificate.beta.factor_partition(factor.label))
            for factor in inst.factors
        )
    )
