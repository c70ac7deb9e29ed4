"""Bounded exhaustive searches that certify existence.

Both searches are depth-first over a fixed position order with candidate
values tried in ascending order, so the first complete solution reached is
the lexicographically smallest one (positions concatenated, compared as
integer tuples).  Pruning only ever cuts subtrees that provably contain no
solution, which keeps that property; a NoSolution verdict therefore means
the whole (pruned) space was exhausted.

Each search is one recursive descent from the first position under one
node counter.  Work is measured in nodes, one per candidate value tried at
a position, so reports are machine independent.  When the node budget would
be exceeded the search stops with an ``aborted`` outcome and ``nodes`` equal
to the budget.  The splitting search has two monotone cuts that skip the
rest of a position's window; at the first position they skip only the
value that triggered them, so every value in the root window is tried and
costs one node and one trace entry.  Node counts are part of a solve's
output and the trace hash pins the explored tree, so this root-window rule
keeps both equal to those of a search that runs one sub-search per
first-position value.

The direct chain search also clamps each position's window by mass: every
solution has sum deg*|beta_f| == |c+| + sum deg*|alpha_f|, because under the
inner sandwich |sigma(alpha, beta)| = sum deg*(|beta_f| - |alpha_f|) and
majorization needs it to equal |c+|.  A search that recurses deeper than the
interpreter allows raises :class:`~majorchain.errors.SearchTooDeep` naming
its number of positions.

Every found certificate is passed through a verifier of
:mod:`majorchain.instances` before being reported; the two splitting solvers
share one body that uses the one splitting check there, with their weight.
A disagreement would be an engine bug and raises RuntimeError.
"""

from __future__ import annotations

import hashlib
from bisect import insort
from dataclasses import dataclass
from itertools import accumulate
from math import prod

from .chains import PolyChain
from .errors import NonLinearFactor, PremiseViolation, SearchTooDeep
from .instances import (
    BetaCertificate,
    FCertificate,
    LemmaInstance,
    TheoremInstance,
    _splitting_checks,
    _verdict,
    f_to_beta,
    theorem_to_lemma,
    verify_theorem_conclusion,
    verify_theorem_premises,
)
from .partitions import Partition, weight

FOUND = "found"
NO_SOLUTION = "none"
ABORTED = "aborted"

DEFAULT_BUDGET = 1_000_000


@dataclass(frozen=True)
class SolveReport:
    """Outcome of one search.

    ``nodes`` counts candidate assignments actually tried; ``space_size``
    is the raw number of value combinations in the unpruned search box,
    recorded so aborted reports still convey how large the task was.
    """

    outcome: str
    certificate: FCertificate | BetaCertificate | None
    nodes: int
    budget: int
    space_size: int

    @property
    def found(self) -> bool:
        return self.outcome == FOUND


class _BudgetHit(Exception):
    pass


def _run(search, budget: int, workers: int, trace=None):
    """Validate the arguments and run the one depth-first search.

    Returns ``(outcome, solution, nodes)``.  ``workers`` is validated and
    otherwise ignored: the search is sequential.  With no positions the
    search is just the leaf test, which costs 0 nodes.  The module docstring
    gives the root-window rule that keeps node counts and traces fixed.
    """
    if isinstance(budget, bool) or not isinstance(budget, int) or budget < 0:
        raise ValueError(f"budget must be a nonnegative integer, got {budget!r}")
    if isinstance(workers, bool) or not isinstance(workers, int) or workers < 1:
        raise ValueError(f"workers must be a positive integer, got {workers!r}")
    try:
        return search.run(budget, trace)
    except RecursionError:
        raise SearchTooDeep(
            f"the search has {search.num_positions} positions, more than the "
            "interpreter's recursion limit allows"
        ) from None


def _sums_after(values) -> list[int]:
    """``sums[i] == sum(values[i + 1:])`` for each i, in one backward pass."""
    sums = list(accumulate(reversed(values), initial=0))
    sums.reverse()
    return sums[1:]


class _SplitSearch:
    """DFS over candidate splittings f^i with t^i <= f^i <= d^i.

    Constraints checked incrementally, with ``w`` scaling every gap:
    the scaled lower gaps must pool to exactly |A| without any sorted
    prefix exceeding A's, and symmetrically for the upper gaps and B.
    Bounds on each candidate value come from the remaining mass on both
    sides; subtrees whose remaining positions cannot close the mass gap
    are cut.
    """

    def __init__(self, inst: LemmaInstance, w: int):
        self.w = w
        # t <= d componentwise, so d's length covers both.
        self.pair_data = [(d.parts, t.pad(len(d))) for d, t in inst.pairs]
        self.positions = [
            (i, j)
            for i, (d, _) in enumerate(self.pair_data)
            for j in range(len(d))
        ]
        self.num_positions = len(self.positions)
        pair_gaps = [[dv - tv for dv, tv in zip(d, t)] for d, t in self.pair_data]
        gaps = [gap for row in pair_gaps for gap in row]
        # Gaps available strictly after each pair and each position, ignoring caps.
        self.after_pair = _sums_after([sum(row) for row in pair_gaps])
        self.rest_after = _sums_after(gaps)
        self.total_a = weight(inst.A)
        self.total_b = weight(inst.B)
        self.pre_a = list(accumulate(inst.A.parts))
        self.pre_b = list(accumulate(inst.B.parts))
        self.space_size = prod(gap + 1 for gap in gaps)

    def _solution_from(self, assigned) -> tuple[Partition, ...]:
        return tuple(Partition(values) for values in assigned)

    def _value_bounds(self, d, t, j, cap_prev, ca, cb):
        w = self.w
        hi = d[j] if d[j] < cap_prev else cap_prev
        allow_a = (self.total_a - w * ca) // w
        if t[j] + allow_a < hi:
            hi = t[j] + allow_a
        lo = t[j]
        allow_b = (self.total_b - w * cb) // w
        if d[j] - allow_b > lo:
            lo = d[j] - allow_b
        return lo, hi

    def run(self, cap: int, trace=None):
        w = self.w
        positions = self.positions
        pair_data = self.pair_data
        rest_after = self.rest_after
        after_pair = self.after_pair
        total_a, total_b = self.total_a, self.total_b
        pre_a, pre_b = self.pre_a, self.pre_b
        len_a, len_b = len(pre_a), len(pre_b)

        assigned = [list(t) for _, t in pair_data]
        lower_gaps: list[int] = []  # committed scaled gaps, ascending
        upper_gaps: list[int] = []
        nodes = 0

        def prefix_ok(values, pre, length, total) -> bool:
            run = 0
            rank = 0
            for value in reversed(values):
                run += value
                rank += 1
                if run > (pre[rank - 1] if rank <= length else total):
                    return False
            return True

        def descend(pos_idx: int, ca: int, cb: int) -> bool:
            nonlocal nodes
            if pos_idx == self.num_positions:
                return w * ca == total_a and w * cb == total_b
            i, j = positions[pos_idx]
            d, t = pair_data[i]
            cap_prev = assigned[i][j - 1] if j else d[j]
            lo, hi = self._value_bounds(d, t, j, cap_prev, ca, cb)
            rest = rest_after[pos_idx]
            for value in range(lo, hi + 1):
                if nodes >= cap:
                    raise _BudgetHit
                nodes += 1
                if trace is not None:
                    trace.update(b"%d:%d;" % (pos_idx, value))
                gap_lower = value - t[j]
                gap_upper = d[j] - value
                ca2 = ca + gap_lower
                cb2 = cb + gap_upper
                if w * (cb2 + rest) < total_b:
                    # The root tries its whole window, so node counts and traces stay put.
                    if pos_idx == 0:
                        continue
                    break  # larger values shrink the upper side further
                gain = 0
                for u in range(j + 1, len(d)):
                    top = d[u] if d[u] < value else value
                    gain += top - t[u]
                if w * (ca2 + gain + after_pair[i]) < total_a:
                    continue  # larger values can still reach the lower total
                scaled_lower = w * gap_lower
                scaled_upper = w * gap_upper
                if gap_lower:
                    insort(lower_gaps, scaled_lower)
                    if not prefix_ok(lower_gaps, pre_a, len_a, total_a):
                        lower_gaps.remove(scaled_lower)
                        # As above, the root tries its whole window.
                        if pos_idx == 0:
                            continue
                        break  # larger values make this prefix worse
                if gap_upper:
                    insort(upper_gaps, scaled_upper)
                    if not prefix_ok(upper_gaps, pre_b, len_b, total_b):
                        upper_gaps.remove(scaled_upper)
                        if gap_lower:
                            lower_gaps.remove(scaled_lower)
                        continue  # larger values shrink this gap
                assigned[i][j] = value
                if descend(pos_idx + 1, ca2, cb2):
                    return True
                if gap_lower:
                    lower_gaps.remove(scaled_lower)
                if gap_upper:
                    upper_gaps.remove(scaled_upper)
            return False

        try:
            if descend(0, 0, 0):
                return FOUND, self._solution_from(assigned), nodes
            return NO_SOLUTION, None, nodes
        except _BudgetHit:
            return ABORTED, None, nodes


class _ChainSearch:
    """DFS over candidate middle chains inside the outer chain's bounds.

    Candidate exponents at each position range over the window allowed by
    the outer chain (condition: the chain must sit between gamma shifted by
    0 and by p), narrowed by the inner chain's sandwich and by the already
    chosen previous exponent of the same factor.

    The window is then clamped by mass.  Under the inner sandwich the lcm
    products give pi_0(alpha, beta) = sum deg*|alpha_f| and pi_m(alpha, beta)
    = sum deg*|beta_f|, so |sigma(alpha, beta)| = sum deg*(|beta_f| -
    |alpha_f|), and c+ can be majorized by sigma(alpha, beta) only if that
    equals |c+|.  Every solution therefore has sum deg*|beta_f| == |c+| +
    sum deg*|alpha_f|, the ``target``, and a value is tried only if the
    later positions' windows can still bring the mass to it.  The cut reads
    chain quantities only; every complete candidate is still checked with
    the full conclusion verifier.
    """

    def __init__(self, inst: TheoremInstance):
        self.inst = inst
        self.factors = inst.factors
        n, m, p = inst.n, inst.m, inst.p
        self.chain_length = n + m
        self.positions = [
            (fi, q)
            for fi in range(len(self.factors))
            for q in range(1, self.chain_length + 1)
        ]
        self.num_positions = len(self.positions)
        self.bounds = []
        size = 1
        for fi, q in self.positions:
            label = self.factors[fi].label
            gamma_lo = inst.gamma.exponent(label, q)
            gamma_hi = inst.gamma.exponent(label, q + p)
            alpha_lo = inst.alpha.exponent(label, q - m) if q - m >= 1 else 0
            alpha_hi = inst.alpha.exponent(label, q) if q <= n else None
            lo = max(gamma_lo, alpha_lo)
            hi = gamma_hi if alpha_hi is None or gamma_hi <= alpha_hi else alpha_hi
            self.bounds.append((lo, hi))
            size *= max(gamma_hi - gamma_lo + 1, 0)
        self.space_size = size
        self.degrees = [self.factors[fi].degree for fi, _ in self.positions]
        self.target = weight(inst.c_plus) + sum(
            factor.degree * sum(inst.alpha.exponent_vector(factor.label))
            for factor in self.factors
        )
        # Least and most mass the positions after each one can add.
        self.low_after = _sums_after([deg * lo for deg, (lo, _) in zip(self.degrees, self.bounds)])
        self.high_after = _sums_after([deg * hi for deg, (_, hi) in zip(self.degrees, self.bounds)])

    def _certificate_from(self, assigned) -> BetaCertificate:
        chain = PolyChain(
            self.chain_length,
            {factor: tuple(vec) for factor, vec in zip(self.factors, assigned)},
        )
        return BetaCertificate(chain)

    def run(self, cap: int, trace=None):
        positions = self.positions
        bounds = self.bounds
        degrees = self.degrees
        target = self.target
        low_after, high_after = self.low_after, self.high_after
        assigned = [[0] * self.chain_length for _ in self.factors]
        nodes = 0

        def descend(pos_idx: int, mass: int) -> bool:
            nonlocal nodes
            if pos_idx == self.num_positions:
                return verify_theorem_conclusion(
                    self.inst, self._certificate_from(assigned)
                )
            fi, q = positions[pos_idx]
            lo, hi = bounds[pos_idx]
            if q >= 2 and assigned[fi][q - 2] > lo:
                lo = assigned[fi][q - 2]
            deg = degrees[pos_idx]
            need = target - mass
            top = (need - low_after[pos_idx]) // deg
            if top < hi:
                hi = top
            bottom = -((high_after[pos_idx] - need) // deg)  # ceiling division
            if bottom > lo:
                lo = bottom
            for value in range(lo, hi + 1):
                if nodes >= cap:
                    raise _BudgetHit
                nodes += 1
                if trace is not None:
                    trace.update(b"%d:%d;" % (pos_idx, value))
                assigned[fi][q - 1] = value
                if descend(pos_idx + 1, mass + deg * value):
                    return True
            return False

        try:
            if descend(0, 0):
                return FOUND, self._certificate_from(assigned), nodes
            return NO_SOLUTION, None, nodes
        except _BudgetHit:
            return ABORTED, None, nodes


def _solve_splitting(
    inst: LemmaInstance, w: int, budget: int, workers: int, trace=None
) -> SolveReport:
    """Search for a splitting with every gap scaled by ``w`` and verify it."""
    search = _SplitSearch(inst, w)
    outcome, solution, nodes = _run(search, budget, workers, trace)
    certificate = None
    if outcome == FOUND:
        certificate = FCertificate(solution)
        if not _verdict(_splitting_checks(inst.pairs, solution, inst.A, inst.B, w)):
            raise RuntimeError("internal error: a found splitting failed verification")
    return SolveReport(outcome, certificate, nodes, budget, search.space_size)


def solve_lemma(
    inst: LemmaInstance,
    budget: int = DEFAULT_BUDGET,
    workers: int = 1,
    trace=None,
) -> SolveReport:
    """Search for a splitting certificate of a partition-splitting instance.

    Runs whether or not the instance's premise holds; a NoSolution verdict
    on a premise-satisfying instance is significant (the existence statement
    says it cannot happen), which callers should treat as a tripwire.
    """
    return _solve_splitting(inst, 1, budget, workers, trace)


def solve_scaled_k1(
    d,
    t,
    A,
    B,
    w: int,
    budget: int = DEFAULT_BUDGET,
    workers: int = 1,
) -> SolveReport:
    """Single-pair splitting search with every gap scaled by ``w``.

    Finds f with t <= f <= d such that w*(f-t) pools under A and w*(d-f)
    pools under B.  It runs the body of :func:`solve_lemma` on the
    single-pair instance ``((d, t),), A, B``, so with w=1 it is exactly
    that case; with w>=2 it probes the scaled variant of the splitting
    statement, which is not a theorem, so NoSolution is an ordinary outcome
    here rather than a tripwire.
    """
    if isinstance(w, bool) or not isinstance(w, int) or w < 1:
        raise ValueError(f"weight must be a positive integer, got {w!r}")
    # The instance checks t <= d componentwise (DominanceViolation otherwise).
    return _solve_splitting(LemmaInstance(((d, t),), A, B), w, budget, workers)


def solve_theorem(
    inst: TheoremInstance,
    budget: int = DEFAULT_BUDGET,
    workers: int = 1,
) -> SolveReport:
    """Search for a middle chain by translating and splitting.

    Translates the instance, runs :func:`solve_lemma`, and transports the
    found splitting back to a middle chain, which is verified against the
    instance.  Raises PremiseViolation (or NonLinearFactor) when the
    translation is not defined.
    """
    translated = theorem_to_lemma(inst)
    report = solve_lemma(translated, budget, workers)
    if report.outcome != FOUND:
        return SolveReport(report.outcome, None, report.nodes, budget, report.space_size)
    beta = f_to_beta(inst, report.certificate)
    if not verify_theorem_conclusion(inst, beta):
        raise RuntimeError("internal error: transported certificate failed verification")
    return SolveReport(FOUND, beta, report.nodes, budget, report.space_size)


def solve_theorem_direct(
    inst: TheoremInstance,
    budget: int = DEFAULT_BUDGET,
    workers: int = 1,
) -> SolveReport:
    """Search for a middle chain by direct enumeration.

    Independent cross-check for :func:`solve_theorem`: enumerates candidate
    chains inside the outer chain's exponent bounds and tests the conclusion
    conditions directly, touching none of the translation machinery.  The
    two searches must agree on existence; their certificates may differ.
    """
    for factor in inst.factors:
        if factor.degree != 1:
            raise NonLinearFactor(
                f"factor {factor.label!r} has degree {factor.degree}; the "
                "cross-check covers the degree-1 regime only"
            )
    if not verify_theorem_premises(inst):
        raise PremiseViolation("the chain-completion premises do not hold")
    search = _ChainSearch(inst)
    outcome, certificate, nodes = _run(search, budget, workers)
    return SolveReport(outcome, certificate, nodes, budget, search.space_size)


def search_trace_hash(inst: LemmaInstance, budget: int = DEFAULT_BUDGET) -> str:
    """SHA-256 over the node stream of the sequential splitting search.

    Reruns the (deterministic) search with tracing enabled; used when
    serializing a tripwire report so the exact explored tree is pinned.
    """
    digest = hashlib.sha256()
    solve_lemma(inst, budget=budget, workers=1, trace=digest)
    return digest.hexdigest()
