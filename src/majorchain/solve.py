"""Bounded exhaustive searches that certify existence.

Both searches are depth-first over a fixed position order with candidate
values tried in ascending order, so the first complete solution reached is
the lexicographically smallest one (positions concatenated, compared as
integer tuples).  Pruning only ever cuts subtrees that provably contain no
solution, which keeps that property; a NoSolution verdict therefore means
the whole (pruned) space was exhausted.

Each search is one loop under one node counter.  A stack holds one frame
per committed position, and backtracking pops a frame and undoes that
position, so how many positions a search can have is bounded by memory,
not by the interpreter's recursion limit.  Work is measured in nodes, one
per candidate value tried at a position, so reports are machine
independent.  When the node budget would be exceeded the search stops with
an ``aborted`` outcome and ``nodes`` equal to the budget.  The splitting
search first tests both gap totals, for 0 nodes: its scaled gaps pool to
w*G, where G is the sum of all gaps, so it needs w*G == |A| + |B| and w
dividing |A|.  Both searches then test mass only as bounds of each
position's window, and the splitting search its two prefix checks too
(see ``_SplitSearch``), so every value tried is committed and can still
bring the totals to what a solution needs.

The splitting search remembers the sub-searches it has exhausted.
Majorization sees only the multiset of gaps, not which pair gave which
gap, and a pair's first part is bounded by nothing of the earlier pairs
but the lower gap total ca.  A later gap meets the committed lower gaps L
only through the top-r sums they leave free.  With P(r) A's r-th prefix
sum floor-divided by w, let R(j) be the least of |A|/w - ca and of
P(k + j) - top_k(L) over k <= |L| with k + j <= len(A).  If L passes its
own prefix checks, L plus later gaps X passes every later check exactly
when top_j(X) <= R(j) for every j.  The cap changes no verdict, since the
window keeps every later gap total within |A|/w - ca; ranks past len(A)
are never checked, and X has no more parts than positions to come, so R
is kept up to the smaller of the two.  R never decreases, and it ends
where it reaches its cap.  The upper side is the same against B, capped
by what the lower gaps leave of the gaps to come.  So once the search
enters a pair's first part, what follows depends only on that position,
on ca and on the two residual bounds, and a memo miss computes each
side's bounds from that side's committed gaps (``_bounds``).
A memo holds each such state whose sub-search was exhausted; entering a
state with the same position, ca and bounds again backs up at once, for no
node.  Only exhausted sub-searches are stored, since one that finds a
splitting or aborts ends the search.  So the search tries the values of the
search without the memo, in the same order, less the whole sub-searches its
hits skip: outcomes and certificates are that search's, and ``nodes``, the
values tried, is at most its count.  Past ``_MEMO_BYTES`` the caches that
make keys cheap are dropped first (see ``_Memo``), and then whole pair
memos are cleared, deepest pair first, down to half of it, since the states
nearest the root save the most.  A trace lists the values tried, so its
hash and ``nodes`` depend on this policy.

The direct chain search also clamps each position's window by mass: every
solution has sum deg*|beta_f| == |c+| + sum deg*|alpha_f|, because under the
inner sandwich |sigma(alpha, beta)| = sum deg*(|beta_f| - |alpha_f|) and
majorization needs it to equal |c+|.

``_run`` builds every report.  Each public solver verifies the certificate
it reports exactly once, with a verifier of :mod:`majorchain.instances`:
the splitting solvers run the one splitting check, ``solve_theorem`` checks
only the chain it transports, and the direct search reports the leaf it
verified.  A found certificate that fails would be an engine bug and raises
RuntimeError.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from itertools import accumulate, repeat
from math import prod
from operator import add, sub

from .chains import PolyChain
from .errors import _int_argument, _Value
from .instances import (
    BetaCertificate,
    FCertificate,
    LemmaInstance,
    TheoremInstance,
    _require_translatable,
    _splitting_checks,
    _verdict,
    f_to_beta,
    theorem_to_lemma,
    verify_theorem_conclusion,
)
from .partitions import Partition, weight

FOUND = "found"
NO_SOLUTION = "none"
ABORTED = "aborted"

DEFAULT_BUDGET = 1_000_000

# Bytes the splitting search's memo may hold, counting each entry's lengths plus about 100 bytes
# of dict slot and headers (see _Memo); past them its caches and the deepest pairs' memos go.
_MEMO_BYTES = 4 << 20


class SolveReport(_Value, fields=("outcome", "certificate", "nodes", "budget", "space_size")):
    """Outcome of one search.

    ``nodes`` is the number of candidate values the search tried, and
    ``budget`` caps it, so it bounds the search's work.  ``space_size``
    is the raw number of value combinations in the unpruned search box,
    recorded so aborted reports still convey how large the task was.
    """

    def __init__(
        self,
        outcome: str,
        certificate: FCertificate | BetaCertificate | None,
        nodes: int,
        budget: int,
        space_size: int,
    ):
        self.__dict__.update(
            outcome=outcome,
            certificate=certificate,
            nodes=nodes,
            budget=budget,
            space_size=space_size,
        )

    @property
    def found(self) -> bool:
        return self.outcome == FOUND


def _run(search, budget: int, workers: int) -> SolveReport:
    """Validate the arguments, run the one depth-first search and report it.

    Every :class:`SolveReport` is built here from the search's ``(outcome,
    certificate, nodes)``.  ``workers`` is validated and otherwise ignored:
    the search is sequential.  A search with no positions, or a splitting
    search whose gap totals fail, decides at once for 0 nodes.
    """
    _int_argument("budget", budget)
    _int_argument("workers", workers, minimum=1)
    outcome, certificate, nodes = search.run(budget)
    return SolveReport(outcome, certificate, nodes, budget, search.space_size)


def _sums_after(values) -> list[int]:
    """``sums[i] == sum(values[i + 1:])`` for each i, in one backward pass."""
    sums = list(accumulate(reversed(values), initial=0))
    sums.reverse()
    return sums[1:]


def _room(pre, gaps) -> int:
    """The largest g whose addition keeps the top-r sums of ascending ``gaps`` within ``pre``.

    Adding g makes top_r max(top_r, top_(r-1) + g), so where ``gaps`` fit, that is the least
    pre[k] - top_k(gaps) over k <= len(gaps), k < len(pre): R(1) of the module docstring, uncapped.
    """
    return min(map(sub, pre, accumulate(reversed(gaps), initial=0))) if gaps else pre[0]


def _bounds(pre, gaps, width, room) -> list[int]:
    """One side's residual bounds R(1..width) from its ascending committed ``gaps``.

    R(j) is the least of ``room`` and of pre[k + j - 1] - top_k(gaps) over k <= len(gaps) with
    k + j <= len(pre), for j up to len(pre).  It never decreases, so it ends at the first rank
    where it reaches ``room``.
    """
    tops = list(accumulate(reversed(gaps), initial=0))
    out = []
    for j in range(min(width, len(pre))):
        bound = min(map(sub, pre[j:], tops))
        if bound >= room:
            break
        out.append(bound)
    return out


def _lower_reach(v, j, neg_d, sums):
    """v less the shortfall sum(max(0, d[u] - v) for u > j) of d's parts after the j-th.

    d is non-increasing, so its negated parts ``neg_d`` ascend and ``bisect`` finds the later
    parts above v; ``sums`` are d's prefix sums.  It grows by at least 1 per unit of v, so a
    position's lower-mass test, ``_lower_reach(v, ...) >= goal``, only gets easier as v grows.
    """
    end = bisect_left(neg_d, -v, j + 1)  # d[j + 1:end] are the parts above v
    return v - (sums[end] - sums[j + 1] - (end - j - 1) * v)


class _Memo:
    """Exhausted sub-searches of one splitting search, keyed by the state at a pair's first part.

    ``entries[i]`` holds the keys of the states at pair i's first part whose sub-search was
    exhausted, as a dict whose values are unused, since a set grows fourfold at a time, which
    can take it past the bound that the charges below keep.  The key holds ca and the lower
    and upper residual bounds (see the module docstring).  A key is made only where it is
    looked up, in a pair whose memo holds an entry, or stored.  A side's bounds depend only on
    that side's committed gaps, so ``caches[i]`` maps pair i's committed lower (upper) gaps to
    their bounds, and a miss computes them from those gaps with :func:`_bounds`.

    Gaps, bounds and keys are ``bytes`` while |A|//w, |B|//w and len(A), which bound every
    value and the lower bounds' length, fit in a byte, and tuples otherwise.  Each entry is
    charged its lengths times ``unit`` (1 for bytes, 32 for a tuple's pointer and int) plus
    100 bytes of dict slot and headers.  Past ``_MEMO_BYTES`` every cache is dropped, since
    it only saves time, and if more than half of it is still held, whole pairs' entries are
    cleared, deepest pair first, down to half of it, since the states nearest the root save
    the most.
    """

    def __init__(self, search):
        self.search = search
        pairs = len(search.floors)
        self.entries = [{} for _ in range(pairs)]
        self.caches = [None] * pairs
        self.charged = [0] * pairs  # bytes of each pair's entries
        self.cached = 0  # bytes of all the caches
        self.held = 0
        narrow = max(search.limit_a, search.limit_b, len(search.pre_a)) < 256
        self.pack, self.unit = (bytes, 1) if narrow else (tuple, 32)

    def look_up(self, i, pos, ca, lower_gaps, upper_gaps):
        """Key of the state entering pair i: None where its pair has none, False where stored."""
        if not self.entries[i]:
            return None
        key = self.key(i, pos, ca, lower_gaps, upper_gaps)
        return False if key in self.entries[i] else key

    def key(self, i, pos, ca, lower_gaps, upper_gaps):
        """Key of the state at pair i's first part, at position ``pos``."""
        search, pack = self.search, self.pack
        caches = self.caches[i]
        if caches is None:
            caches = self.caches[i] = {}, {}
        lower_cache, upper_cache = caches
        lower_key = pack(lower_gaps)
        upper_key = pack(upper_gaps)
        lower = lower_cache.get(lower_key)
        upper = upper_cache.get(upper_key)
        if lower is None or upper is None:
            later = len(search.steps) - pos
            # The upper gaps from pos on take what the lower ones leave of those positions' gaps.
            _, _, dj, tj, rest, _, _ = search.steps[pos]
            room_a = search.limit_a - ca
            room_b = dj - tj + rest - room_a
            size = 0
            if lower is None:
                lower = pack(_bounds(search.pre_a, lower_gaps, later, room_a))
                lower_cache[lower_key] = lower
                size += self.unit * (len(lower_key) + len(lower)) + 100
            if upper is None:
                upper = pack(_bounds(search.pre_b, upper_gaps, later, room_b))
                upper_cache[upper_key] = upper
                size += self.unit * (len(upper_key) + len(upper)) + 100
            self.cached += size
            self._charge(size)
        if pack is bytes:
            return b"%c%c%b%b" % (ca, len(lower), lower, upper)
        return (ca, len(lower), *lower, *upper)

    def store(self, i, key) -> None:
        self.entries[i][key] = None
        size = self.unit * len(key) + 100
        self.charged[i] += size
        self._charge(size)

    def _charge(self, size: int) -> None:
        self.held += size
        if self.held > _MEMO_BYTES:
            self.held -= self.cached
            self.cached = 0
            self.caches = [None] * len(self.caches)
            if self.held <= _MEMO_BYTES // 2:
                return
            for k in reversed(range(len(self.entries))):
                self.held -= self.charged[k]
                self.charged[k] = 0
                self.entries[k].clear()
                if self.held <= _MEMO_BYTES // 2:
                    break


class _SplitSearch:
    """DFS over candidate splittings f^i with t^i <= f^i <= d^i.

    Every gap is scaled by ``w``: the scaled lower gaps f - t must pool to
    exactly |A| with no sorted prefix above A's, and the scaled upper gaps
    d - f likewise against B.  ``run`` first tests the totals (see the
    module docstring), so past it the lower gaps must total |A|/w and the
    upper ones what they leave of all the gaps.  With no positions the
    gaps total 0, so that test alone finds f = () exactly when |A| = |B| = 0.

    With ca the unscaled lower gaps committed so far and ``rest`` the gap
    total of the positions after position (i, j) of pair (d, t), the window
    is one statement about the lower gap v - t[j]: ca plus it is at most
    |A|/w, and at least |A|/w less what the later positions can add.  So v
    runs up to hi = min(d[j], the pair's previous value, top), with top =
    t[j] + |A|/w - ca, from max(t[j], top - rest), raised to the least value
    whose lower gaps can still reach |A|/w: a later position u of the same
    pair adds at most min(d[u], v) - t[u], because f is a partition.
    :func:`_lower_reach` gives that test in closed form.  It only gets
    easier as v grows, so the entry value is tested first, and only if it
    fails does a binary search over the rest of the window find the least
    value that passes.  At the last position ``rest`` is 0 and the pair has
    no later parts, so v = top: every leaf the search reaches is a
    splitting.

    The prefix checks bound the window too: the sorted lower gaps' top-r
    sums S must be at most ``pre_a[r - 1]``, as w*S <= P exactly when S <=
    P//w for A's r-th prefix sum P (ranks past len(A) sum to at most
    |A|/w).  One more gap keeps that exactly when it is at most the
    committed gaps' :func:`_room`, so A's room caps hi at t[j] plus it, and
    B's raises the bottom to d[j] less it, since v - t[j] grows with v and
    d[j] - v shrinks.  Every value tried is committed, for one node.  A
    memo hit at a pair's first part (see the module docstring) tries no
    value there and backs up at once, for no node.

    :func:`search_trace_hash` passes a ``trace`` (a hashlib object), and
    ``run`` feeds it ``b"<position>:<value>;"`` for every node.
    """

    def __init__(self, inst: LemmaInstance, w: int, trace=None):
        self.w = w
        self.trace = trace
        A, B = inst.A.parts, inst.B.parts
        self.total_a, self.total_b = sum(A), sum(B)
        pre_a, pre_b = list(accumulate(A)), list(accumulate(B))
        if w != 1:
            pre_a = [prefix // w for prefix in pre_a]
            pre_b = [prefix // w for prefix in pre_b]
        self.pre_a, self.pre_b = pre_a, pre_b
        self.limit_a, self.limit_b = self.total_a // w, self.total_b // w
        # One pass per pair: its floor t (padded: t <= d componentwise, so d's length covers
        # both), its gaps, and two tables its steps share: d negated (ascending, so bisect needs
        # no costly key) and its prefix sums.
        self.floors = floors = []
        gaps = []
        tables = []
        for d, t in inst.pairs:
            d = d.parts
            t = t.pad(len(d))
            floors.append(t)
            gaps += map(sub, d, t)
            tables.append((d, t, [-part for part in d], list(accumulate(d, initial=0))))
        self.gap_total = sum(gaps)
        self.space_size = prod(map(add, gaps, repeat(1)))
        # One step per position: pair, index, d[j], t[j], later gaps and its pair's two tables.
        rest_after = iter(_sums_after(gaps))
        self.steps = [
            (i, j, dv, tv, next(rest_after), neg_d, sums)
            for i, (d, t, neg_d, sums) in enumerate(tables)
            for j, (dv, tv) in enumerate(zip(d, t))
        ]

    def run(self, cap: int):
        w = self.w
        trace = self.trace
        steps = self.steps
        num_positions = len(steps)
        # The scaled gaps pool to w*G, and the scaled lower ones to a multiple of w.
        if w * self.gap_total != self.total_a + self.total_b or self.total_a % w:
            return NO_SOLUTION, None, 0
        limit_a, pre_a, pre_b = self.limit_a, self.pre_a, self.pre_b
        assigned = [list(t) for t in self.floors]
        lower_gaps: list[int] = []  # committed gaps, ascending
        upper_gaps: list[int] = []
        memo = None  # made at the first store, since nothing can be looked up before it
        # Key of each first part being searched, None until made; False where nothing is stored.
        opened = [False] * num_positions
        # One frame per committed position: its value, window top, ca before it, and gaps.
        stack = []
        nodes = pos_idx = ca = 0
        value = None  # None until the window of the position just entered is computed
        # Past the last position its window has fixed both totals.
        while pos_idx < num_positions:
            i, j, dj, tj, rest, neg_d, sums = steps[pos_idx]
            values = assigned[i]
            if value is None:
                # The lower gap v - t[j] brings ca to at most |A|/w, and to at least |A|/w less
                # what the later positions can add.
                top = tj + limit_a - ca
                hi = values[j - 1] if j and values[j - 1] < dj else dj
                if top < hi:
                    hi = top
                goal = top - rest
                value = goal if goal > tj else tj
                if not j:
                    key = None
                    if memo is not None:
                        key = memo.look_up(i, pos_idx, ca, lower_gaps, upper_gaps)
                    opened[pos_idx] = key
                    if key is False:  # exhausted before: back up at once, for no node
                        value = hi + 1
                if tj < hi and value <= hi:  # the lower gap v - t[j] grows with v: cap hi
                    end = tj + _room(pre_a, lower_gaps)
                    if end < hi:
                        hi = end
                if value < dj and value <= hi:  # the upper gap d[j] - v shrinks: raise v
                    start = dj - _room(pre_b, upper_gaps)
                    if start > value:
                        value = start
                # Later positions of this pair add less than ``rest`` where they sit above v.
                if value <= hi and _lower_reach(value, j, neg_d, sums) < goal:
                    # Start at the least value that passes, or at hi + 1 if none does.
                    low, high = value + 1, hi + 1
                    while low < high:
                        mid = (low + high) // 2
                        if _lower_reach(mid, j, neg_d, sums) < goal:
                            low = mid + 1
                        else:
                            high = mid
                    value = low
            if value > hi:
                # The window is exhausted: undo the previous position and try its next value.
                if not stack:
                    return NO_SOLUTION, None, nodes
                key = opened[pos_idx]
                if key is not False:
                    if memo is None:
                        memo = _Memo(self)
                    if key is None:
                        key = memo.key(i, pos_idx, ca, lower_gaps, upper_gaps)
                    memo.store(i, key)
                value, hi, ca, gap_lower, gap_upper = stack.pop()
                if gap_lower:
                    lower_gaps.remove(gap_lower)
                if gap_upper:
                    upper_gaps.remove(gap_upper)
                pos_idx -= 1
                value += 1
                continue
            if nodes >= cap:
                return ABORTED, None, nodes
            nodes += 1
            if trace is not None:
                trace.update(b"%d:%d;" % (pos_idx, value))
            gap_lower = value - tj
            gap_upper = dj - value
            if gap_lower:
                insort(lower_gaps, gap_lower)
            if gap_upper:
                insort(upper_gaps, gap_upper)
            values[j] = value
            stack.append((value, hi, ca, gap_lower, gap_upper))
            ca += gap_lower
            pos_idx += 1
            value = None
        return FOUND, FCertificate(map(Partition, assigned)), nodes


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
        windows = []
        size = 1
        for fi, factor in enumerate(self.factors):
            # gamma(q) and gamma(q+p) sit at indices q-1 and q+p-1 <= n+m+p-1 of gamma's vector;
            # alpha(q-m) reads 0 (the constant 1) for q <= m, and alpha(q) exists only for q <= n.
            gamma_vec = inst.gamma.exponent_vector(factor.label)
            alpha_vec = inst.alpha.exponent_vector(factor.label)
            for q in range(1, self.chain_length + 1):
                gamma_lo = gamma_vec[q - 1]
                gamma_hi = gamma_vec[q + p - 1]
                alpha_lo = alpha_vec[q - m - 1] if q > m else 0
                alpha_hi = alpha_vec[q - 1] if q <= n else None
                lo = max(gamma_lo, alpha_lo)
                hi = gamma_hi if alpha_hi is None or gamma_hi <= alpha_hi else alpha_hi
                windows.append((fi, q, factor.degree, lo, hi))
                size *= gamma_hi - gamma_lo + 1
        self.space_size = size
        target = weight(inst.c_plus) + sum(
            factor.degree * sum(inst.alpha.exponent_vector(factor.label))
            for factor in self.factors
        )
        # One step per position: (fi, q, degree, lo, hi, room, excess).  room is target minus
        # the least mass the later positions add, excess their most mass minus target.
        low_after = _sums_after([deg * lo for _, _, deg, lo, _ in windows])
        high_after = _sums_after([deg * hi for _, _, deg, _, hi in windows])
        self.steps = [
            (*window, target - low, high - target)
            for window, low, high in zip(windows, low_after, high_after)
        ]

    def run(self, cap: int):
        steps = self.steps
        num_positions = len(steps)
        assigned = [[0] * self.chain_length for _ in self.factors]
        stack = []  # one frame per committed position: its value, window top and mass before it
        nodes = pos_idx = mass = 0
        value = None  # None until the window of the position just entered is computed
        while True:
            if pos_idx == num_positions:
                leaf = BetaCertificate(
                    PolyChain(self.chain_length, dict(zip(self.factors, map(tuple, assigned))))
                )
                if verify_theorem_conclusion(self.inst, leaf):
                    return FOUND, leaf, nodes
            else:
                fi, q, deg, lo, ceiling, room, excess = steps[pos_idx]
                if value is None:
                    hi = ceiling
                    if q >= 2 and assigned[fi][q - 2] > lo:
                        lo = assigned[fi][q - 2]
                    top = (room - mass) // deg
                    if top < hi:
                        hi = top
                    bottom = -((excess + mass) // deg)  # ceiling division
                    if bottom > lo:
                        lo = bottom
                    value = lo
                if value <= hi:
                    if nodes >= cap:
                        return ABORTED, None, nodes
                    nodes += 1
                    assigned[fi][q - 1] = value
                    stack.append((value, hi, mass))
                    mass += deg * value
                    pos_idx += 1
                    value = None
                    continue
            # A failed leaf or an exhausted window: undo the previous position, try its next value.
            if not stack:
                return NO_SOLUTION, None, nodes
            value, hi, mass = stack.pop()
            pos_idx -= 1
            value += 1


def _solve_splitting(inst: LemmaInstance, w: int, budget: int, workers: int) -> SolveReport:
    """Search for a splitting with every gap scaled by ``w`` and verify it."""
    report = _run(_SplitSearch(inst, w), budget, workers)
    if report.found and not _verdict(
        _splitting_checks(inst.pairs, report.certificate.fs, inst.A, inst.B, w)
    ):
        raise RuntimeError("internal error: a found splitting failed verification")
    return report


def solve_lemma(
    inst: LemmaInstance,
    budget: int = DEFAULT_BUDGET,
    workers: int = 1,
) -> SolveReport:
    """Search for a splitting certificate of a partition-splitting instance.

    Runs whether or not the instance's premise holds; a NoSolution verdict
    on a premise-satisfying instance is significant (the existence statement
    says it cannot happen), which callers should treat as a tripwire.
    """
    return _solve_splitting(inst, 1, budget, workers)


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
    _int_argument("weight", w, minimum=1)
    # The instance checks t <= d componentwise (DominanceViolation otherwise).
    return _solve_splitting(LemmaInstance(((d, t),), A, B), w, budget, workers)


def solve_theorem(
    inst: TheoremInstance,
    budget: int = DEFAULT_BUDGET,
    workers: int = 1,
) -> SolveReport:
    """Search for a middle chain by translating and splitting.

    Translates the instance, runs the splitting search, and transports the
    found splitting back to a middle chain.  Only that chain is verified,
    against the instance: a splitting passes the splitting verifier exactly
    when its transported chain passes the conclusion verifier.  Raises
    PremiseViolation (or NonLinearFactor) when the translation is undefined.
    """
    report = _run(_SplitSearch(theorem_to_lemma(inst), 1), budget, workers)
    if not report.found:
        return report
    beta = f_to_beta(inst, report.certificate)
    if not verify_theorem_conclusion(inst, beta):
        raise RuntimeError("internal error: transported certificate failed verification")
    return SolveReport(FOUND, beta, report.nodes, report.budget, report.space_size)


def solve_theorem_direct(
    inst: TheoremInstance,
    budget: int = DEFAULT_BUDGET,
    workers: int = 1,
) -> SolveReport:
    """Search for a middle chain by direct enumeration.

    Independent cross-check for :func:`solve_theorem`: enumerates candidate
    chains inside the outer chain's exponent bounds and tests the conclusion
    conditions directly.  It shares only the precondition with the
    translation (every factor has degree 1, then the premises hold; raises
    NonLinearFactor or PremiseViolation otherwise) and none of its
    machinery.  The two searches must agree on existence; their certificates
    may differ.
    """
    _require_translatable(inst, "the cross-check covers the degree-1 regime only")
    return _run(_ChainSearch(inst), budget, workers)


def search_trace_hash(inst: LemmaInstance, budget: int = DEFAULT_BUDGET) -> str:
    """SHA-256 over the node stream of the sequential splitting search.

    Reruns the (deterministic) search for its trace alone, unverified; used
    when serializing a tripwire report so the exact explored tree is pinned.
    It is the search that solved, memo included, so it costs what the solve
    cost and holds one entry per node.
    """
    import hashlib  # only this trace needs it, and it is costly to load

    digest = hashlib.sha256()
    _run(_SplitSearch(inst, 1, digest), budget, 1)
    return digest.hexdigest()
