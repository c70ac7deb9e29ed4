"""The one-pass splitting verifier and search set-up against their per-position forms.

``reference_checks`` is the splitting verifier written position by position:
it walks every position of every pair for the bounds note and pools each
side's gaps in its own pass.  ``reference_tables`` builds the splitting
search's tables the same way, one table per pass.  The library does each in
one pass per pair; these tests require the same transcripts, field by field,
and the same tables on seeded instances and certificates whose faults sit at
the first, a middle and the last pair and position.
"""

import random
from itertools import accumulate
from math import prod

import pytest

from majorchain import (
    ConditionCheck,
    FCertificate,
    LemmaInstance,
    LengthMismatch,
    Partition,
    majorizes,
)
from majorchain.instances import _splitting_checks
from majorchain.solve import _SplitSearch

from helpers import random_partition


def reference_pooled(pairs, w):
    gaps = []
    for hi, lo in pairs:
        hi = hi.parts
        gaps += [h - lo[j] for j, h in enumerate(hi)]
    gaps.sort(reverse=True)
    return Partition(w * gap for gap in gaps)


def reference_checks(pairs, fs, A, B, w):
    if len(fs) != len(pairs):
        raise LengthMismatch(f"{len(fs)} candidate partitions for {len(pairs)} pairs")
    bounds_note = next(
        (
            f"pair {index}, position {j}: need {d[j]} >= {f[j]} >= {t[j]}"
            for index, ((d, t), f) in enumerate(zip(pairs, fs))
            for j in range(max(len(d), len(t), len(f)))
            if not d[j] >= f[j] >= t[j]
        ),
        "",
    )
    bounds = ConditionCheck("bounds(t<=f<=d)", not bounds_note, tuple(fs), pairs, note=bounds_note)
    if bounds_note:
        skip = "skipped: the bounds condition failed"
        return [
            bounds,
            ConditionCheck("lower-gaps-vs-A", None, note=skip),
            ConditionCheck("upper-gaps-vs-B", None, note=skip),
        ]
    lower = reference_pooled(((f, t) for (_, t), f in zip(pairs, fs)), w)
    upper = reference_pooled(((d, f) for (d, _), f in zip(pairs, fs)), w)
    return [
        bounds,
        ConditionCheck("lower-gaps-vs-A", majorizes(lower, A), lower, A),
        ConditionCheck("upper-gaps-vs-B", majorizes(upper, B), upper, B),
    ]


def reference_tables(inst, w):
    pairs = [(d.parts, t.pad(len(d))) for d, t in inst.pairs]
    gaps = [dv - tv for d, t in pairs for dv, tv in zip(d, t)]
    steps = []
    for i, (d, t) in enumerate(pairs):
        neg_d = [-part for part in d]
        sums = list(accumulate(d, initial=0))
        for j in range(len(d)):
            position = len(steps)
            steps.append((i, j, d[j], t[j], sum(gaps[position + 1 :]), neg_d, sums))
    total_a, total_b = sum(inst.A), sum(inst.B)
    return {
        "floors": [t for _, t in pairs],
        "total_a": total_a,
        "total_b": total_b,
        "pre_a": [prefix // w for prefix in accumulate(inst.A.parts)],
        "pre_b": [prefix // w for prefix in accumulate(inst.B.parts)],
        "limit_a": total_a // w,
        "limit_b": total_b // w,
        "gap_total": sum(gaps),
        "space_size": prod(gap + 1 for gap in gaps),
        "steps": steps,
    }


def between(rng, d, t):
    """A partition f with t <= f <= d, drawn position by position."""
    parts = []
    for j in range(len(d)):
        ceiling = d[j] if not j else min(d[j], parts[-1])
        parts.append(rng.randint(t[j], ceiling))
    return Partition(parts)


def random_pair(rng):
    d = random_partition(rng, 5, 6)
    return d, between(rng, d, Partition())


def random_instance(rng):
    pairs = [random_pair(rng) for _ in range(rng.randint(0, 4))]
    if pairs and rng.random() < 0.3:
        pairs[rng.randrange(len(pairs))] = (Partition(), Partition())
    A = Partition() if rng.random() < 0.15 else random_partition(rng, 5, 9)
    B = Partition() if rng.random() < 0.15 else random_partition(rng, 5, 9)
    return LemmaInstance(pairs, A, B)


def longer_than_d(rng, d, t):
    """f with an extra part past d's last, which must be at most f's own last part."""
    f = list(between(rng, d, t).pad(len(d)))
    last = f[-1] if f else rng.randint(1, 4)
    extra = rng.randint(1, max(last, 1))
    if f and not last:
        f = [max(part, extra) for part in f]
    return Partition(f + [extra] * rng.randint(1, 2))


def above_d(rng, d, t, j):
    """f with f[j] = d[j] + 1, the earlier parts raised to keep f a partition."""
    f = list(between(rng, d, t).pad(len(d)))
    f[j] = d[j] + 1
    return Partition([max(part, f[j]) if u < j else part for u, part in enumerate(f)])


def below_t(rng, d, t, j):
    """f with f[j] = t[j] - 1, the later parts lowered to keep f a partition."""
    f = list(between(rng, d, t).pad(len(d)))
    f[j] = t[j] - 1
    return Partition([min(part, f[j]) if u > j else part for u, part in enumerate(f)])


def faulty(rng, fault, d, t, where):
    """The certificate part of one pair with ``fault`` at the first, a middle or the last position."""
    if fault == "longer":
        return longer_than_d(rng, d, t)
    if fault == "above":
        spots = list(range(len(d)))
    else:
        spots = [j for j in range(len(d)) if t[j]]
    if not spots:
        return None
    index = {"first": 0, "middle": len(spots) // 2, "last": len(spots) - 1}[where]
    make = above_d if fault == "above" else below_t
    return make(rng, d, t, spots[index])


def assert_same_transcript(got, expected):
    assert len(got) == len(expected)
    for check, reference in zip(got, expected):
        assert check.name == reference.name
        assert check.holds is reference.holds
        assert check.left == reference.left
        assert check.right == reference.right
        assert check.note == reference.note


@pytest.mark.parametrize("w", [1, 2, 3])
def test_valid_splittings_give_the_reference_transcript(w):
    rng = random.Random(3200 + w)
    verdicts = set()
    for _ in range(400):
        inst = random_instance(rng)
        fs = FCertificate(between(rng, d, t) for d, t in inst.pairs).fs
        got = _splitting_checks(inst.pairs, fs, inst.A, inst.B, w)
        assert_same_transcript(got, reference_checks(inst.pairs, fs, inst.A, inst.B, w))
        verdicts.add(tuple(check.holds for check in got))
    # Both majorization conditions are seen to pass and to fail.
    assert {(True, True, True), (True, False, False)} <= verdicts


@pytest.mark.parametrize("w", [1, 2, 3])
@pytest.mark.parametrize("fault", ["longer", "above", "below"])
@pytest.mark.parametrize("where", ["first", "middle", "last"])
def test_a_bounds_fault_gives_the_reference_note(w, fault, where):
    rng = random.Random(f"{w}-{fault}-{where}")
    made = 0
    while made < 60:
        inst = random_instance(rng)
        if not inst.pairs:
            continue
        k = len(inst.pairs)
        target = {"first": 0, "middle": k // 2, "last": k - 1}[where]
        d, t = inst.pairs[target]
        wrong = faulty(rng, fault, d, t, where)
        if wrong is None:
            continue
        fs = [between(rng, d2, t2) for d2, t2 in inst.pairs]
        fs[target] = wrong
        if rng.random() < 0.3:
            # A later pair may fail too: the note names the first failure.
            later = rng.randrange(target, k)
            fs[later] = longer_than_d(rng, *inst.pairs[later])
        fs = tuple(fs)
        got = _splitting_checks(inst.pairs, fs, inst.A, inst.B, w)
        expected = reference_checks(inst.pairs, fs, inst.A, inst.B, w)
        assert got[0].holds is False
        assert got[0].note.startswith(f"pair {target}, position ")
        assert_same_transcript(got, expected)
        made += 1


def test_a_wrong_number_of_partitions_raises_the_reference_error():
    inst = LemmaInstance([(Partition([2, 1]), Partition([1]))], Partition([1]), Partition([1]))
    for fs in [(), (Partition([1]), Partition([1]))]:
        with pytest.raises(LengthMismatch) as got:
            _splitting_checks(inst.pairs, fs, inst.A, inst.B, 1)
        with pytest.raises(LengthMismatch) as expected:
            reference_checks(inst.pairs, fs, inst.A, inst.B, 1)
        assert str(got.value) == str(expected.value)


@pytest.mark.parametrize("w", [1, 2, 3])
def test_search_tables_match_the_reference(w):
    rng = random.Random(3210 + w)
    for _ in range(400):
        inst = random_instance(rng)
        search = _SplitSearch(inst, w)
        expected = reference_tables(inst, w)
        for name, value in expected.items():
            assert getattr(search, name) == value, name
        # The steps of one pair share its two tables: one neg_d and one sums object.
        for i in range(len(inst.pairs)):
            steps = [step for step in search.steps if step[0] == i]
            assert len({id(step[5]) for step in steps}) <= 1
            assert len({id(step[6]) for step in steps}) <= 1
        assert len({id(step[5]) for step in search.steps}) == len({step[0] for step in search.steps})
