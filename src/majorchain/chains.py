"""Divisibility chains of homogeneous polynomials, kept as factor exponents.

A chain of length L is a sequence p_1 | p_2 | ... | p_L of homogeneous
polynomials in two variables.  Nothing matters here beyond which irreducible
factors divide each entry and to what power, so a :class:`PolyChain` stores
one exponent vector per :class:`Factor` and no coefficients at all.
Divisibility of entries becomes "each exponent vector is non-decreasing",
lcm becomes a componentwise max, and the degree of an entry is the
degree-weighted sum of its exponents.

Position conventions, used by every function below:

* positions 1..L hold the stored exponents;
* positions <= 0 read as the constant polynomial 1 (exponent 0 everywhere);
* positions >= L+1 stand for the zero polynomial, whose degree is infinite.
  Reading an exponent there raises :class:`IndexOutOfRange`: the quantities
  computed in this module are index-safe whenever their preconditions hold,
  so such a read is a caller bug, not a value.

Reading a factor's exponents from position L down to position 1 yields a
partition (the elementary-divisor partition of that factor), which is how
chains and partitions are converted into each other.

Storage is indexed by factor label: a chain keeps a dict from label to
exponent vector next to the label-sorted tuple of its factors, so reading a
factor's exponents is one lookup, not a scan over the factors.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping, Sequence
from operator import ge, gt, le, lt

from .errors import (
    IndexOutOfRange,
    InterlaceViolation,
    LengthMismatch,
    LengthOverflow,
    NotAPartition,
    _int_argument,
    _Value,
)
from .partitions import Partition, as_partition, diff_sorted, dual, plus, scaled


class Factor(_Value, fields=("label", "degree")):
    """An irreducible factor: an opaque label plus its polynomial degree.

    Factors order by (label, degree).
    """

    def __init__(self, label: str, degree: int = 1):
        if not isinstance(label, str) or not label:
            raise ValueError("factor label must be a nonempty string")
        _int_argument("factor degree", degree, minimum=1)
        self.__dict__.update(label=label, degree=degree)

    def _compare(self, other, op):
        if other.__class__ is self.__class__:
            return op(self._key(self), other._key(other))
        return NotImplemented

    def __lt__(self, other):
        return self._compare(other, lt)

    def __le__(self, other):
        return self._compare(other, le)

    def __gt__(self, other):
        return self._compare(other, gt)

    def __ge__(self, other):
        return self._compare(other, ge)


class PolyChain:
    """Immutable chain: a length and one exponent vector per factor.

    The vectors are held in a dict keyed by factor label, in label order,
    beside the label-sorted tuple of factors; both orders are the canonical
    one, whatever order the input came in.  The constructor checks shapes
    (vector lengths, nonnegative entries, unique labels) but not the
    divisibility invariant; :func:`chain_validate` checks that, so a library
    caller can build a non-monotone candidate and see the verifier's
    ``beta-chain-valid`` condition fail.  Chains read from files never get
    that far: :func:`majorchain.jsonio.parse_chain` rejects non-monotone
    exponents as malformed input, so ``check --certificate`` exits 2 on them.
    """

    __slots__ = ("_length", "_factors", "_vectors")

    def __init__(
        self,
        length: int,
        exponents: Mapping[Factor, Sequence[int]] | Iterable[tuple[Factor, Sequence[int]]] = (),
    ):
        _int_argument("chain length", length)
        items = exponents.items() if isinstance(exponents, Mapping) else exponents
        factors = []
        vectors = {}
        for factor, vector in items:
            if not isinstance(factor, Factor):
                raise ValueError(f"expected a Factor, got {factor!r}")
            if factor.label in vectors:
                raise ValueError(f"duplicate factor label {factor.label!r}")
            vec = tuple(vector)
            if len(vec) != length:
                raise LengthMismatch(
                    f"factor {factor.label!r}: {len(vec)} exponents for a length-{length} chain"
                )
            # As in Partition: plain ints pass one lean loop, anything else the full check.
            for e in vec:
                if e.__class__ is not int or e < 0:
                    _check_exponents(factor, vec)
                    break
            factors.append(factor)
            vectors[factor.label] = vec
        factors.sort(key=lambda factor: factor.label)
        self._length = length
        self._factors = tuple(factors)
        self._vectors = {factor.label: vectors[factor.label] for factor in factors}

    @property
    def length(self) -> int:
        return self._length

    @property
    def factors(self) -> tuple[Factor, ...]:
        """The factors, sorted by label. This order is the canonical one."""
        return self._factors

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(self._vectors)

    def exponent_vector(self, label: str) -> tuple[int, ...]:
        """Exponents at positions 1..L; all zeros for an absent factor."""
        vec = self._vectors.get(label)
        return (0,) * self._length if vec is None else vec

    def exponent(self, label: str, position: int) -> int:
        """Exponent of ``label`` at a 1-based ``position``.

        Positions <= 0 read 0 (the constant 1); positions past the end
        raise, since they stand for the zero polynomial.
        """
        if position > self._length:
            raise IndexOutOfRange(
                f"position {position} of a length-{self._length} chain is the "
                "zero polynomial (infinite degree)"
            )
        if position <= 0:
            return 0
        return self.exponent_vector(label)[position - 1]

    def factor_partition(self, label: str) -> Partition:
        """The factor's exponents read from the last position down to the first."""
        vec = self.exponent_vector(label)
        try:
            return Partition(reversed(vec))
        except NotAPartition as exc:
            raise NotAPartition(
                f"factor {label!r}: exponents are not non-decreasing ({exc})"
            ) from exc

    @classmethod
    def from_partitions(
        cls, length: int, assignments: Mapping[Factor, "Partition | Sequence[int]"]
    ) -> "PolyChain":
        """Build the chain whose factor partitions are the given ones.

        Part j of a factor's partition becomes its exponent at position
        length+1-j.  A partition with more parts than the chain has
        positions cannot be embedded and raises :class:`LengthOverflow`.
        """
        exponents = {}
        for factor, given in assignments.items():
            partition = as_partition(given)
            if len(partition) > length:
                raise LengthOverflow(
                    f"factor {factor.label!r}: partition with {len(partition)} parts "
                    f"does not fit a length-{length} chain"
                )
            exponents[factor] = tuple(partition[length - i] for i in range(1, length + 1))
        return cls(length, exponents)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, PolyChain):
            return (
                self._length == other._length
                and self._factors == other._factors
                and self._vectors == other._vectors
            )
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self._length, self._factors, tuple(self._vectors.values())))

    def __repr__(self) -> str:
        table = ", ".join(f"{label}:{list(vec)}" for label, vec in self._vectors.items())
        return f"PolyChain(length={self._length}, {{{table}}})"


def _check_exponents(factor: Factor, vec: tuple) -> None:
    """Raise ValueError at the first exponent that is not a nonnegative int (``bool`` excluded)."""
    for pos, e in enumerate(vec):
        if isinstance(e, bool) or not isinstance(e, int) or e < 0:
            raise ValueError(
                f"factor {factor.label!r}: exponent at position {pos + 1} "
                f"must be a nonnegative integer, got {e!r}"
            )


def chain_validate(chain: PolyChain) -> bool:
    """True iff every factor's exponent vector is non-decreasing.

    That is exactly the condition for each chain entry to divide the next.
    """
    for vec in chain._vectors.values():
        if any(map(gt, vec, vec[1:])):
            return False
    return True


def _merged_degrees(delta: PolyChain, epsilon: PolyChain) -> dict[str, int]:
    """Each label's degree over both chains; ValueError if the chains disagree on one."""
    degrees: dict[str, int] = {}
    for chain in (epsilon, delta):
        for factor in chain.factors:
            known = degrees.get(factor.label)
            if known is not None and known != factor.degree:
                raise ValueError(
                    f"factor {factor.label!r} has degree {factor.degree} in one "
                    f"chain and {known} in the other"
                )
            degrees[factor.label] = factor.degree
    return degrees


def interlace_check(delta: PolyChain, epsilon: PolyChain, y: int) -> bool:
    """Divisibility sandwich between a chain and one longer by ``y``.

    True iff for every factor and every position i = 1..len(delta) the
    exponents satisfy  epsilon(i) <= delta(i) <= epsilon(i+y), i.e. each
    epsilon entry divides the matching delta entry, which divides the
    epsilon entry y further along.
    """
    _int_argument("gap", y, error=LengthMismatch)
    if epsilon.length != delta.length + y:
        raise LengthMismatch(
            f"expected the outer chain to have length {delta.length} + {y}, "
            f"got {epsilon.length}"
        )
    for label in delta._vectors.keys() | epsilon._vectors.keys():
        dvec = delta.exponent_vector(label)
        evec = epsilon.exponent_vector(label)
        for i in range(delta.length):
            if not evec[i] <= dvec[i] <= evec[i + y]:
                return False
    return True


def _lcm_degrees(delta: PolyChain, epsilon: PolyChain, shifts: range) -> list[int]:
    """pi_degree(i, delta, epsilon) for each i in ``shifts``, in one pass.

    The merged factor degrees and each label's pair of vectors are fetched
    once for all shifts.  At shift i, positions j <= i pair epsilon(j) with
    the constant 1, so they contribute epsilon's exponents alone; the rest
    pair delta(j-i) with epsilon(j).
    """
    delta_zeros = (0,) * delta.length
    epsilon_zeros = (0,) * epsilon.length
    totals = [0] * len(shifts)
    for label, degree in _merged_degrees(delta, epsilon).items():
        dvec = delta._vectors.get(label, delta_zeros)
        evec = epsilon._vectors.get(label, epsilon_zeros)
        for slot, i in enumerate(shifts):
            total = sum(evec[:i])
            for d_exp, e_exp in zip(dvec, evec[i:]):
                total += d_exp if d_exp >= e_exp else e_exp
            totals[slot] += degree * total
    return totals


def pi_degree(i: int, delta: PolyChain, epsilon: PolyChain) -> int:
    """Degree of the i-th lcm product of the pair.

    The product runs over positions j = 1..len(delta)+i of
    lcm(delta entry j-i, epsilon entry j); on exponents the lcm is a
    componentwise max and the degree a degree-weighted sum.  Requires the
    sandwich (:func:`interlace_check`) to hold and 0 <= i <= y; every index
    touched is then in range, so the result is always finite.
    """
    y = epsilon.length - delta.length
    if y < 0:
        raise LengthMismatch(
            f"outer chain (length {epsilon.length}) is shorter than the inner "
            f"one (length {delta.length})"
        )
    if isinstance(i, bool) or not isinstance(i, int) or i < 0 or i > y:
        raise IndexOutOfRange(f"shift {i!r} outside 0..{y}")
    return _lcm_degrees(delta, epsilon, range(i, i + 1))[0]


def _require_sandwich(delta: PolyChain, epsilon: PolyChain, y: int) -> None:
    """Raise :class:`InterlaceViolation` unless the pair is sandwiched (see interlace_check)."""
    if not interlace_check(delta, epsilon, y):
        raise InterlaceViolation(
            "the divisibility sandwich does not hold; the degree sequence is "
            "undefined for this pair"
        )


def sigma_degree_sequence(delta: PolyChain, epsilon: PolyChain, y: int) -> Partition:
    """Degrees of the successive lcm-product quotients, largest shift first.

    Returns (d_y, d_{y-1}, ..., d_1) where d_i = pi_degree(i) - pi_degree(i-1).
    Under the sandwich precondition this sequence is non-increasing; if it is
    not, a precondition was violated upstream and :class:`NotAPartition` is
    raised.  Calling this on a pair that fails :func:`interlace_check` is an
    error, not a defined value.

    Cost: the sandwich check, then one pass over the k merged factors that
    computes all y+1 lcm-product degrees, O(x+y) per factor and shift, so
    O(k*y*(x+y)) for inner length x.
    """
    _require_sandwich(delta, epsilon, y)
    return _sigma_of_sandwich(delta, epsilon, y)


def _sigma_of_sandwich(delta: PolyChain, epsilon: PolyChain, y: int) -> Partition:
    """:func:`sigma_degree_sequence` for a pair whose sandwich the caller has checked."""
    pis = _lcm_degrees(delta, epsilon, range(y + 1))
    steps = [pis[i] - pis[i - 1] for i in range(y, 0, -1)]
    try:
        return Partition(steps)
    except NotAPartition as exc:
        raise NotAPartition(f"degree increments {steps} are not a partition ({exc})") from exc


def sigma_identity_rhs(delta: PolyChain, epsilon: PolyChain, y: int) -> Partition:
    """The factor-local form of the degree sequence.

    Sums, over all factors, degree(factor) times the conjugate of the sorted
    gap between the conjugated factor partitions of the outer and inner
    chains.  For sandwiched pairs this equals
    :func:`sigma_degree_sequence`; it is computed along a completely
    different route, which is the point of keeping both.  Like
    :func:`sigma_degree_sequence` it raises :class:`InterlaceViolation` on a
    pair that fails :func:`interlace_check`.
    """
    _require_sandwich(delta, epsilon, y)
    total = Partition()
    for label, degree in sorted(_merged_degrees(delta, epsilon).items()):
        inner = dual(delta.factor_partition(label))
        outer = dual(epsilon.factor_partition(label))
        term = dual(diff_sorted(outer, inner))
        total = plus(total, scaled(term, degree))
    return total
