"""The splitting search explores one fixed tree.

The golden digest pins, for about 3,000 seeded random instances (empty pairs
included) and 600 generated ones: the outcome, certificate, node count and
space size of ``solve_lemma`` at several budgets, the search trace hash at
the default budget and at budget 7, and, for single-pair instances, the
scaled search with w = 2 and 3.  Any change to the order, the pruning or the
budget handling of the search changes the digest.

The search first tests both gap totals: with G the sum of all gaps, it
needs w*G == |A| + |B| and w dividing |A|, and decides any other instance
as ``none`` for 0 nodes, which the oracles confirm on a seeded sample.
Past that test mass and both prefix checks are bounds of each window, not
per-node cuts, so no node is a value that cannot reach both totals or that
breaks a prefix check: the room that bounds a gap is checked against
brute-force top-r sums, the memo's residual bounds against their
definition, and every value of replayed traces against both
prefix tables.  The other tests check every search step and the lower
reach it yields against brute-force sums, that the search's set-up allocates O(positions) however large or many the parts are, and,
for every deep-corpus instance, the outcome and certificate recorded in
the corpus file and the node count pinned here, at most the recorded one.
The memo of exhausted sub-searches must only skip them: the values a
search tries are those of a search whose memo never hits, less whole
sub-searches below a pair's first part, with the same outcome and
certificate, and a hit costs no node and no trace entry, so a report at any
budget is either aborted there or the whole one.  That holds also when the
memo is cleared at its memory bound, and the memo keeps to that bound
with bytes keys and with tuple keys;
clearing drops the deepest pairs' memos first, so a search that fills it
often stays fast.  Its key is the position, the lower gap total and each
side's residual bounds, so states whose committed gaps differ can share one
entry.
"""

import hashlib
import random
import signal
import tracemalloc
from itertools import accumulate
from pathlib import Path

from majorchain import (
    ABORTED,
    FOUND,
    NO_SOLUTION,
    GeneratorConfig,
    InstanceGenerator,
    LemmaInstance,
    Partition,
    jsonio,
    search_trace_hash,
    solve_lemma,
    solve_scaled_k1,
    weight,
)
from majorchain import solve
from majorchain.solve import _bounds, _lower_reach, _room, _SplitSearch

from helpers import oracle_lemma_solutions, oracle_scaled_solutions

BUDGETS = (0, 1, 2, 5, 50, 10**6)

# sha256 of the records below, recorded with both gap totals tested at the root and mass and
# both prefix checks as bounds of the window, and ``nodes`` the values tried.  Each search
# keeps the memo, so a node count or trace hash leaves out the sub-search of each state whose
# position, lower total and residual bounds are those of an exhausted one.
GOLDEN = "3c57fdf9da156bc05c9726dec2248532873c0f1bcdc4d577aaeeb0b7c80914ed"

# sha256 of (outcome, certificate, nodes) over the gap-256 instances below, recorded from the
# search without the memo, with both gap totals tested at the root and both prefix checks as
# bounds of the window.  No memo hit skips a value here, so ``nodes`` as the values tried gives
# the same digest.
WIDE_GAPS = "9df9fb479428ba381f4a882b5d263b40a8dc9d4cfec088f6737d4bdd09eb51a3"

# Values tried on the 120 deep-corpus instances, in the corpus file's order.  The file records
# the counts of a search that tried values which could no longer reach a mass total and counted
# the sub-searches its memo skips; each of these is at most the recorded one, and more than 200.
CORPUS_NODES = (
    1357, 3942, 3018, 3675, 3323, 2753, 1238, 6919, 3448, 1542,
    3154, 2889, 1674, 2965, 5176, 5197, 3952, 5146, 2164, 1594,
    2906, 4846, 5993, 4373, 1822, 5458, 3509, 3377, 1392, 2210,
    1402, 1892, 5623, 2209, 3953, 7022, 4201, 3177, 4308, 2120,
    6044, 1564, 1966, 1364, 6218, 4660, 3631, 1888, 1472, 7893,
    2696, 7637, 2585, 7729, 3391, 3082, 3388, 5200, 2601, 4979,
    7508, 3877, 5284, 2267, 2429, 3923, 1722, 9541, 2091, 3230,
    4536, 2379, 6933, 3578, 3799, 6826, 2367, 2615, 3979, 2441,
    6267, 901, 2406, 3855, 6213, 3938, 6507, 3885, 2338, 2632,
    1391, 2343, 3784, 1712, 4336, 4692, 5671, 2686, 4224, 3797,
    3775, 2708, 2820, 4204, 2087, 2207, 3518, 4373, 9108, 6406,
    5207, 7182, 1888, 4145, 1545, 4522, 1907, 10440, 3559, 3180,
)


def random_partition(rng, max_len, max_part):
    return sorted((rng.randint(0, max_part) for _ in range(rng.randint(0, max_len))), reverse=True)


def random_instance(rng, pair_counts=(1, 3)):
    """Random pairs; half the time A and B pool the gaps of a random f, so a splitting exists."""
    pairs = []
    for _ in range(rng.randint(*pair_counts)):
        d = random_partition(rng, 5, 6)
        t = []
        for part in d:
            t.append(min(rng.randint(0, part), t[-1] if t else part))
        while t and t[-1] == 0:
            t.pop()
        pairs.append((d, t))
    if rng.random() < 0.5:
        A = random_partition(rng, 5, 6)
        B = random_partition(rng, 5, 6)
    else:
        lower, upper = [], []
        for d, t in pairs:
            f = []
            for j, part in enumerate(d):
                low = t[j] if j < len(t) else 0
                f.append(rng.randint(low, min(part, f[-1] if f else part)))
            lower += [fv - (t[j] if j < len(t) else 0) for j, fv in enumerate(f)]
            upper += [dv - fv for dv, fv in zip(d, f)]
        A = sorted((g for g in lower if g), reverse=True)
        B = sorted((g for g in upper if g), reverse=True)
    return LemmaInstance(
        tuple((Partition(d), Partition(t)) for d, t in pairs), Partition(A), Partition(B)
    )


def instances():
    rng = random.Random(20261018)
    for _ in range(3000):
        yield random_instance(rng)
    for seed in range(300):
        config = GeneratorConfig(seed=seed, k=1 + seed % 3, s=2 + seed % 3, max_part=3 + seed % 2)
        stream = InstanceGenerator(config)
        yield stream.lemma_instance()
        yield stream.lemma_instance()


def parts(partitions):
    return tuple(f.parts for f in partitions)


def report_record(report):
    certificate = None if report.certificate is None else parts(report.certificate.fs)
    return (report.outcome, certificate, report.nodes, report.space_size)


def record(inst):
    out = [parts(p for pair in inst.pairs for p in pair), inst.A.parts, inst.B.parts]
    out += [report_record(solve_lemma(inst, budget=budget)) for budget in BUDGETS]
    out += [search_trace_hash(inst), search_trace_hash(inst, budget=7)]
    if len(inst.pairs) == 1:
        (d, t), = inst.pairs
        out += [
            report_record(solve_scaled_k1(d, t, inst.A, inst.B, w, budget=budget))
            for w in (2, 3)
            for budget in (2, 10**6)
        ]
    return repr(out).encode()


def test_explored_tree_is_pinned():
    digest = hashlib.sha256()
    for inst in instances():
        digest.update(record(inst))
        digest.update(b"\n")
    assert digest.hexdigest() == GOLDEN


def near_miss(rng, w):
    """A small instance whose A and B pool w times a splitting's gaps, then one unit moved.

    The unit goes into or out of A or B, which breaks w*G == |A| + |B|, or from B to A, which
    keeps the sum and, for w >= 2, breaks w dividing |A|.
    """
    pairs = []
    lower, upper = [], []
    for _ in range(1 if w > 1 else rng.randint(1, 2)):
        d = random_partition(rng, 3, 4)
        t = []
        for part in d:
            t.append(min(rng.randint(0, part), t[-1] if t else part))
        f = []
        for dv, tv in zip(d, t):
            f.append(rng.randint(tv, min(dv, f[-1] if f else dv)))
        lower += [w * (fv - tv) for fv, tv in zip(f, t)]
        upper += [w * (dv - fv) for dv, fv in zip(d, f)]
        pairs.append((Partition(d), Partition(t)))
    sides = [[g for g in lower if g], [g for g in upper if g]]
    move = rng.choice(("in", "out", "across"))
    if move == "across":
        if sides[1]:
            sides[1][rng.randrange(len(sides[1]))] -= 1
            sides[0].append(1)
    else:
        side = sides[rng.randrange(2)]
        if move == "in" or not side:
            side.append(1)
        else:
            side[rng.randrange(len(side))] -= 1
    A, B = (Partition(sorted((g for g in side if g), reverse=True)) for side in sides)
    return tuple(pairs), A, B


def test_the_totals_test_rejects_only_instances_without_a_splitting():
    # Every instance the root test rejects is "none" for 0 nodes, and the oracles, which
    # enumerate every candidate splitting, find none either: at w = 1 over 1-2 pairs, and for
    # the scaled search at w = 2 and 3 over one pair, where a unit moved from B to A breaks only
    # the divisibility half.
    rng = random.Random(20261027)
    rejected = {1: 0, 2: 0, 3: 0}
    across = 0
    for _ in range(1200):
        w = rng.choice((1, 2, 3))
        pairs, A, B = near_miss(rng, w)
        gaps = sum(weight(d) - weight(t) for d, t in pairs)
        if w * gaps == weight(A) + weight(B) and weight(A) % w == 0:
            continue
        rejected[w] += 1
        across += w * gaps == weight(A) + weight(B)
        if w == 1:
            inst = LemmaInstance(pairs, A, B)
            report, solutions = solve_lemma(inst), oracle_lemma_solutions(inst)
        else:
            (d, t), = pairs
            report = solve_scaled_k1(d, t, A, B, w)
            solutions = oracle_scaled_solutions(d, t, A, B, w)
        assert solutions == []
        assert (report.outcome, report.certificate, report.nodes) == (NO_SOLUTION, None, 0)
    assert min(rejected.values()) > 200 and across > 100


def test_a_side_total_that_w_does_not_divide_is_none_for_no_nodes():
    # 2 * G = 12 = |A| + |B|, but |A| = 5 is odd, so no scaled lower gaps pool to it.
    report = solve_scaled_k1(
        Partition([2, 2, 2]), Partition([]), Partition([3, 2]), Partition([3, 2, 2]), 2
    )
    assert (report.outcome, report.certificate, report.nodes) == (NO_SOLUTION, None, 0)


def brute_shortfall(d, j, v):
    return sum(max(0, d[u] - v) for u in range(j + 1, len(d)))


def test_shortfall_rows_match_brute_force():
    rng = random.Random(7)
    for _ in range(400):
        inst = random_instance(rng)
        search = _SplitSearch(inst, 1)
        search.run(10**6)
        expected_steps = [
            (i, j) for i, (d, _) in enumerate(inst.pairs) for j in range(len(d))
        ]
        assert [step[:2] for step in search.steps] == expected_steps
        gaps = [dv - tv for d, t in inst.pairs for dv, tv in zip(d.parts, t.pad(len(d)))]
        tables = {}
        for pos, (i, j, dj, tj, rest, neg_d, sums) in enumerate(search.steps):
            d, t = inst.pairs[i]
            assert (dj, tj, rest) == (d.parts[j], t.pad(len(d))[j], sum(gaps[pos + 1:]))
            assert neg_d == [-part for part in d.parts]
            assert sums == [sum(d.parts[:r]) for r in range(len(d) + 1)]
            # Every step of a pair shares the pair's two tables.
            first = tables.setdefault(i, (neg_d, sums))
            assert first[0] is neg_d and first[1] is sums
            # The search's closed form, for every value up to past d[0].
            for v in range(d.parts[0] + 2):
                assert _lower_reach(v, j, neg_d, sums) == v - brute_shortfall(d.parts, j, v)


def test_huge_parts_cost_no_set_up():
    big = 10**12
    inst = LemmaInstance(
        ((Partition([big, big]), Partition([])),), Partition([big]), Partition([big])
    )
    outcome, _, nodes = _SplitSearch(inst, 1).run(1000)
    assert (outcome, nodes) == (FOUND, 2)
    # 5,000 positions: the set-up keeps one negated d and its prefix sums, not one per position.
    units = Partition([1] * 5000)
    inst = LemmaInstance(((units, Partition([])),), units, Partition([]))
    tracemalloc.start()
    try:
        _SplitSearch(inst, 1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20


def corpus_records():
    corpus = Path(__file__).resolve().parents[1] / "bench" / "deep_corpus.json"
    return jsonio.load_json(corpus.read_text(encoding="utf-8"))["instances"]


def check_corpus_reports(exact=True):
    """Every corpus solve has the recorded outcome and certificate, and the pinned node count.

    Where not ``exact``, as with a memo cleared at its bound, which then repeats sub-searches it
    had skipped, a solve may try more values than pinned, but no more than the file records.
    """
    records = corpus_records()
    assert len(records) == len(CORPUS_NODES) == 120
    for index, (record, nodes) in enumerate(zip(records, CORPUS_NODES)):
        report = solve_lemma(jsonio.parse_lemma_instance(record["instance"]))
        certificate = report.certificate and [list(f.parts) for f in report.certificate.fs]
        assert (report.outcome, certificate) == (
            record["outcome"],
            record["certificate"],
        ), f"corpus instance {index}"
        if exact:
            assert report.nodes == nodes, f"corpus instance {index}"
        assert 200 < nodes <= report.nodes <= record["nodes"], f"corpus instance {index}"


def test_deep_corpus_node_counts_are_the_recorded_ones():
    check_corpus_reports()


def test_a_memo_hit_costs_no_budget():
    # The search ends with a memo hit, which backs up for no node, so a budget of exactly the
    # values tried gives the whole report.
    inst = LemmaInstance(
        (
            (Partition([3, 1]), Partition([1])),
            (Partition([2]), Partition([])),
            (Partition([3, 2]), Partition([])),
            (Partition([1]), Partition([1])),
        ),
        Partition([2]),
        Partition([3, 1, 1, 1, 1, 1]),
    )
    for budget, expected in ((10**6, ("none", 19)), (19, ("none", 19)), (18, ("aborted", 18))):
        report = solve_lemma(inst, budget=budget)
        assert (report.outcome, report.nodes) == expected, budget


def test_a_full_memo_keeps_the_pairs_nearest_the_root():
    # n = 90 single-part pairs whose gaps total |A| + |B|: the search fills the memo several
    # times before it finds a splitting.  Clearing every pair's memo, or the pairs nearest the
    # root first, passes the default budget of values, after about 7 s of CPU.
    inst = LemmaInstance(
        tuple((Partition([2]), Partition([])) for _ in range(90)),
        Partition([2] * 30 + [1] * 59),
        Partition([2] * 15 + [1] * 31),
    )

    def out_of_time(signum, frame):
        raise TimeoutError("the search took more than 5 s of CPU")

    previous = signal.signal(signal.SIGPROF, out_of_time)
    signal.setitimer(signal.ITIMER_PROF, 5)
    try:
        report = solve_lemma(inst)
    finally:
        signal.setitimer(signal.ITIMER_PROF, 0)
        signal.signal(signal.SIGPROF, previous)
    assert (report.outcome, report.nodes) == ("found", 82802)


def test_the_budget_bounds_the_values_tried():
    # 60 single-part pairs, premise true: the memo skips most of the search without it, which
    # tries about 4.1e12 values before it finds a splitting.
    inst = LemmaInstance(
        tuple((Partition([2]), Partition([])) for _ in range(60)),
        Partition([1] * 59),
        Partition([2] * 30 + [1]),
    )
    report = solve_lemma(inst)
    assert (report.outcome, report.nodes) == ("found", 1771)


def test_gaps_past_a_byte_change_no_report():
    # A first pair d = (300) commits an upper gap of 256 or more, which a bytes key cannot hold,
    # so the memo keys by text.
    rng = random.Random(11)
    digest = hashlib.sha256()
    for _ in range(200):
        inst = random_instance(rng)
        wide = LemmaInstance(
            ((Partition([300]), Partition([])), *inst.pairs),
            inst.A,
            Partition([300, *inst.B.parts]),
        )
        for budget in (50, 10**6):
            report = solve_lemma(wide, budget=budget)
            certificate = report.certificate and parts(report.certificate.fs)
            digest.update(repr((report.outcome, certificate, report.nodes)).encode())
    assert digest.hexdigest() == WIDE_GAPS


def test_corpus_budget_sweep_is_exact():
    rng = random.Random(20261019)
    records = corpus_records()
    for record, n in rng.sample(list(zip(records, CORPUS_NODES)), 3):
        inst = jsonio.parse_lemma_instance(record["instance"])
        for budget in sorted({0, 1, n - 1, n, n + 1, *rng.sample(range(n), 4)}):
            report = solve_lemma(inst, budget=budget)
            if budget < n:
                assert (report.outcome, report.nodes) == (ABORTED, budget)
            else:
                certificate = report.certificate and [list(f.parts) for f in report.certificate.fs]
                assert (report.outcome, certificate, report.nodes) == (
                    record["outcome"],
                    record["certificate"],
                    n,
                ), budget


def test_a_memo_cleared_at_its_bound_keeps_every_corpus_certificate(monkeypatch):
    monkeypatch.setattr(solve, "_MEMO_BYTES", 1024)
    check_corpus_reports(exact=False)


def traced_peak(inst, budget):
    tracemalloc.start()
    try:
        report = solve_lemma(inst, budget=budget)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return report_record(report), peak


def test_the_memo_keeps_to_its_memory_bound(monkeypatch):
    # 120 single-part pairs; A and B pool a splitting but for one unit moved from B to A.  Scaled
    # by 300, the totals pass a byte, so the keys are tuples, charged 32 bytes per element.
    ds = [1 + i % 4 for i in range(120)]
    lower = [(7 * i) % (d + 1) for i, d in enumerate(ds)]
    A = sorted((g for g in lower if g), reverse=True)
    B = sorted((d - g for d, g in zip(ds, lower) if d - g), reverse=True)
    A[0] += 1
    B[-1] -= 1
    bound = 128 * 2**10
    # The search's own tables and stack, and the entry stored after a clear.
    margin = 64 * 2**10
    for scale, pack in ((1, bytes), (300, tuple)):
        inst = LemmaInstance(
            tuple((Partition([scale * d]), Partition([])) for d in ds),
            Partition([scale * part for part in A]),
            Partition([scale * part for part in B]),
        )
        assert solve._Memo(_SplitSearch(inst, 1)).pack is pack
        # 5,000 values let the unbounded memo grow well past bound + margin, to about 1.2 MB
        # with bytes keys and 2 MB with tuples.
        unbounded, unbounded_peak = traced_peak(inst, 5000)
        assert unbounded_peak > bound + margin  # so the bound below holds the peak down
        with monkeypatch.context() as patch:
            patch.setattr(solve, "_MEMO_BYTES", bound)
            bounded, bounded_peak = traced_peak(inst, 5000)
        assert bounded == unbounded
        assert bounded_peak < bound + margin, pack


class RecordedTrace(list):
    """A trace that keeps its entries."""

    update = list.append


def traced_values(inst):
    """Report record and (position, value) entries of the traced search at the default budget."""
    search = _SplitSearch(inst, 1, RecordedTrace())
    outcome, certificate, nodes = search.run(solve.DEFAULT_BUDGET)
    entries = [tuple(map(int, entry[:-1].split(b":"))) for entry in search.trace]
    assert len(entries) == nodes  # one entry per value tried, and none for a memo hit
    return (outcome, certificate and parts(certificate.fs), nodes), entries


def skipped_sub_searches(whole, kept, first_parts):
    """Entries of ``whole`` that ``kept`` leaves out, or None unless they are whole sub-searches.

    Both are (position, value) streams.  Where ``kept`` backed up from a pair's first part p at
    once, ``whole`` enters p right after committing position p - 1 and tries values at p and
    deeper until it backs up past p.
    """
    skipped = k = 0
    for entry in [*kept, None]:
        while k < len(whole) and whole[k] != entry:
            p = whole[k][0]
            if p not in first_parts or not k or whole[k - 1][0] != p - 1:
                return None
            while k < len(whole) and whole[k][0] >= p:
                k += 1
                skipped += 1
        if entry is not None and k == len(whole):
            return None
        k += 1
    return skipped


def test_the_memo_skips_only_exhausted_sub_searches(monkeypatch):
    # 300 instances of 3-6 pairs, against the search without memo hits: with a bound of 0 bytes
    # every store clears the whole memo, so nothing is ever found in it.  The memo search tries
    # the same values less whole sub-searches below pairs' first parts, and ends with the same
    # outcome and certificate.  At budgets 0, 1, 7, n - 1, n and 10**6, where n is the values
    # it tries, it aborts with nodes == budget below n and gives its whole report from n on.
    rng = random.Random(20261020)
    cases = [random_instance(rng, (3, 6)) for _ in range(300)]
    with monkeypatch.context() as patch:
        patch.setattr(solve, "_MEMO_BYTES", 0)
        whole = [traced_values(inst) for inst in cases]
    skipped = 0
    for inst, (whole_record, whole_entries) in zip(cases, whole):
        record, entries = traced_values(inst)
        assert record[:2] == whole_record[:2]
        search = _SplitSearch(inst, 1)
        first_parts = {pos for pos, step in enumerate(search.steps) if not step[1]}
        left_out = skipped_sub_searches(whole_entries, entries, first_parts)
        assert left_out == whole_record[2] - record[2], (inst, entries, whole_entries)
        skipped += left_out
        n, space_size = record[2], search.space_size
        full = report_record(solve_lemma(inst))
        assert full == (*record, space_size)
        for budget in sorted({0, 1, 7, max(n - 1, 0), n, 10**6}):
            expected = full if budget >= n else (ABORTED, None, budget, space_size)
            assert report_record(solve_lemma(inst, budget=budget)) == expected, budget
    # The memo does stand in for sub-searches here.
    assert skipped > 1000


def test_equal_residual_bounds_share_a_memo_entry():
    # Position 2 opens the third pair, d = t = (3).  After 0:0;1:1 the upper gaps are {2, 2},
    # after 0:1;1:0 they are {3, 1}: different multisets with the same totals (ca = 1, four upper
    # units), and against B's prefix sums 3, 5, 6 both leave room for two more units at the top
    # rank and three at the top two, so the second state is a memo hit.  The first state's
    # sub-search tries 2:3, and then the lower gaps have reached |A| = 1, so the last pair's
    # upper gap would be 3, past that room: the hit skips that 1 value, and the trace ends.
    inst = LemmaInstance(
        (
            (Partition([2]), Partition([])),
            (Partition([3]), Partition([])),
            (Partition([3]), Partition([3])),
            (Partition([4]), Partition([1])),
        ),
        Partition([1]),
        Partition([3, 2, 1, 1]),
    )
    trace = b"0:0;1:0;2:3;1:1;2:3;0:1;1:0;"
    report = solve_lemma(inst)
    assert (report.outcome, report.nodes) == ("none", 7)
    assert search_trace_hash(inst) == hashlib.sha256(trace).hexdigest()


def brute_fits(pre, gaps):
    """Every top-r sum of ``gaps`` is at most pre[r - 1], for each rank r the table has."""
    top = sorted(gaps, reverse=True)
    return all(sum(top[:r]) <= pre[r - 1] for r in range(1, min(len(top), len(pre)) + 1))


def test_the_prefix_room_is_the_largest_gap_that_fits():
    # Non-decreasing tables, zeros included: prefix sums of a partition floor-divided by w = 1, 2
    # or 3, and tables with any steps of 0 or more.  For committed gaps that fit the table, a
    # further gap g fits exactly when g <= _room.
    rng = random.Random(20261033)
    binding = {"no gaps": 0, "rank 1": 0, "a deeper rank": 0}
    for _ in range(3000):
        if rng.random() < 0.5:
            w = rng.choice((1, 2, 3))
            pre = [prefix // w for prefix in accumulate(random_partition(rng, 6, 6) or [0])]
        else:
            pre = list(accumulate(rng.randint(0, 4) for _ in range(rng.randint(1, 6))))
        gaps = []
        for _ in range(rng.randint(0, 6)):
            gap = rng.randint(1, 4)
            if brute_fits(pre, gaps + [gap]):
                gaps.append(gap)
        gaps.sort()
        room = _room(pre, gaps)
        assert room >= 0
        for g in range(room + 3):
            assert brute_fits(pre, gaps + [g]) == (g <= room), (pre, gaps, g)
        binding["no gaps" if not gaps else "rank 1" if room == pre[0] else "a deeper rank"] += 1
    assert min(binding.values()) > 200, binding


def brute_bounds(pre, gaps, width, room):
    """R(j) = min(room, pre[k + j - 1] - top_k(gaps)) over k <= len(gaps), k + j <= len(pre)."""
    top = [0, *accumulate(sorted(gaps, reverse=True))]
    out = []
    for j in range(1, min(width, len(pre)) + 1):
        bound = min(
            [room] + [pre[k + j - 1] - top[k] for k in range(len(gaps) + 1) if k + j <= len(pre)]
        )
        if bound == room:
            break
        out.append(bound)
    return out


def test_residual_bounds_match_their_definition():
    # Partition prefix tables floor-divided by w = 1, 2 or 3, committed gaps that fit them, drawn
    # as for the prefix room, widths up to past len(pre), and rooms around the table's values.
    rng = random.Random(20261037)
    kinds = {"past the table": 0, "room binds": 0, "room free": 0}
    for _ in range(3000):
        w = rng.choice((1, 2, 3))
        pre = [prefix // w for prefix in accumulate(random_partition(rng, 6, 6) or [0])]
        gaps = []
        for _ in range(rng.randint(0, 6)):
            gap = rng.randint(1, 4)
            if brute_fits(pre, gaps + [gap]):
                gaps.append(gap)
        gaps.sort()
        width = rng.randint(1, len(pre) + 3)
        room = rng.randint(0, pre[-1] + 2)
        bounds = _bounds(pre, gaps, width, room)
        assert bounds == brute_bounds(pre, gaps, width, room), (pre, gaps, width, room)
        # Uncapped and at full width, rank 1 is the prefix room.
        assert _bounds(pre, gaps, len(pre), pre[-1] + 1)[0] == _room(pre, gaps)
        if width > len(pre):
            kinds["past the table"] += 1
        kinds["room binds" if len(bounds) < min(width, len(pre)) else "room free"] += 1
    assert min(kinds.values()) > 200, kinds


def test_every_value_the_search_tries_fits_both_prefix_tables():
    # Replay each traced search: "p:v;" tries v at position p on top of the values last tried
    # at positions 0 to p - 1, which the search committed.  Both checks bound the window, so
    # every value tried keeps the lower gaps within A's table and the upper ones within B's.
    rng = random.Random(20261034)
    tried = 0
    for _ in range(500):
        inst = random_instance(rng)
        for w in (1, 2, 3) if len(inst.pairs) == 1 else (1,):
            search = _SplitSearch(inst, w, RecordedTrace())
            search.run(10**6)
            values = []
            for entry in search.trace:
                pos, value = map(int, entry[:-1].split(b":"))
                del values[pos:]
                values.append(value)
                steps = search.steps[: len(values)]
                lower = [v - step[3] for v, step in zip(values, steps)]
                upper = [step[2] - v for v, step in zip(values, steps)]
                assert brute_fits(search.pre_a, lower), (inst, w, entry)
                assert brute_fits(search.pre_b, upper), (inst, w, entry)
                tried += 1
    assert tried > 1000
