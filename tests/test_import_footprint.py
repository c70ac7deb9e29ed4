"""The import path stays lean, and the records still behave as frozen values.

``import majorchain``, ``majorchain.cli`` and ``majorchain.jsonio`` load
none of ``dataclasses``, ``inspect``, ``hashlib``, ``pathlib``, ``typing``,
``random`` or ``majorchain.generator``, and neither does a solve: the eight
records are plain classes on ``errors._Value``, ``hashlib`` loads on the
first trace hash, and the sampler (with ``random``) on the first use of one
of its names, which the package still exports.  The record tests pin what
the frozen dataclasses used to give: equality and hashing by field values,
no assignment or deletion, the ``Name(field=value, ...)`` repr and
``Factor``'s ordering, with ``cached_property`` still caching.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import majorchain
import majorchain.instances
from majorchain import (
    BetaCertificate,
    ConditionCheck,
    FCertificate,
    Factor,
    GeneratorConfig,
    LemmaInstance,
    Partition,
    PolyChain,
    SolveReport,
    TheoremInstance,
)

SRC = Path(__file__).resolve().parents[1] / "src"
HEAVY = (
    "dataclasses", "inspect", "hashlib", "pathlib", "typing", "random", "majorchain.generator"
)

PROBE = f"""
import json, sys
import majorchain, majorchain.cli, majorchain.jsonio
loaded = lambda: sorted(name for name in {HEAVY!r} if name in sys.modules)
after_import = loaded()
inst = majorchain.LemmaInstance([((2, 1), (1,))], (1,), (1,))
majorchain.solve_lemma(inst)
after_solve = loaded()
majorchain.search_trace_hash(inst)
print(json.dumps([after_import, after_solve, loaded()]))
"""


def test_the_import_path_loads_none_of_the_heavy_modules():
    # -S keeps site's own imports out, so only the package's show.
    done = subprocess.run(
        [sys.executable, "-S", "-c", PROBE],
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True,
        text=True,
        timeout=60,
        check=True,
    )
    after_import, after_solve, after_trace = json.loads(done.stdout)
    assert after_import == []
    assert after_solve == []
    assert after_trace == ["hashlib"]


def test_the_sampler_names_still_come_from_the_package():
    for name in majorchain.__all__:
        getattr(majorchain, name)
    assert majorchain.GeneratorConfig is majorchain.generator.GeneratorConfig
    with pytest.raises(AttributeError, match="no attribute 'missing'"):
        majorchain.missing


X = Factor("x")


def chain_pair():
    alpha = PolyChain(1, {X: (1,)})
    gamma = PolyChain(3, {X: (0, 1, 2)})
    return alpha, gamma


def lemma_args(B):
    return ([((2, 1), (1,))], (1,), B)


# Each record, its fields in order, and two argument lists that build records
# differing in one field that is not the first (the only one for one-field records).
RECORDS = [
    (Factor, ("label", "degree"), ("x", 1), ("x", 2)),
    (
        TheoremInstance,
        ("alpha", "gamma", "c", "r", "m", "p"),
        (*chain_pair(), Partition([0]), Partition([0]), 1, 1),
        (*chain_pair(), Partition([1]), Partition([0]), 1, 1),
    ),
    (LemmaInstance, ("pairs", "A", "B"), lemma_args((1,)), lemma_args((2,))),
    (BetaCertificate, ("beta",), (chain_pair()[0],), (chain_pair()[1],)),
    (FCertificate, ("fs",), (((2, 1),),), (((2,),),)),
    (
        ConditionCheck,
        ("name", "holds", "left", "right", "note"),
        ("c", True, Partition([1]), Partition([1]), ""),
        ("c", True, Partition([1]), Partition([1]), "skipped"),
    ),
    (
        SolveReport,
        ("outcome", "certificate", "nodes", "budget", "space_size"),
        ("found", FCertificate([(1,)]), 3, 10, 4),
        ("found", FCertificate([(1,)]), 3, 10, 5),
    ),
    (
        GeneratorConfig,
        ("seed", "k", "s", "max_part", "max_transfer_steps", "mode"),
        (1,),
        (1, 2, 3, 3, 4, "theorem"),
    ),
]
IDS = [cls.__name__ for cls, *_ in RECORDS]


@pytest.mark.parametrize("cls, fields, args, other_args", RECORDS, ids=IDS)
class TestRecords:
    def test_equality_and_hash_are_by_value(self, cls, fields, args, other_args):
        first, again, other = cls(*args), cls(*args), cls(*other_args)
        assert first is not again
        assert first == again and hash(first) == hash(again)
        assert first != other
        assert first != tuple(getattr(first, name) for name in fields)

    def test_fields_cannot_be_assigned_or_deleted(self, cls, fields, args, other_args):
        record = cls(*args)
        for name in (*fields, "unknown"):
            with pytest.raises(AttributeError, match="cannot assign to field"):
                setattr(record, name, None)
            with pytest.raises(AttributeError, match="cannot delete field"):
                delattr(record, name)
        assert record == cls(*args)

    def test_repr_names_every_field_in_order(self, cls, fields, args, other_args):
        record = cls(*args)
        shown = ", ".join(f"{name}={getattr(record, name)!r}" for name in fields)
        assert repr(record) == f"{cls.__name__}({shown})"


def test_repr_examples():
    assert repr(Factor("x", 2)) == "Factor(label='x', degree=2)"
    assert repr(SolveReport("none", None, 0, 5, 1)) == (
        "SolveReport(outcome='none', certificate=None, nodes=0, budget=5, space_size=1)"
    )


def test_factors_order_by_label_then_degree():
    a1, a2, b1 = Factor("a"), Factor("a", 2), Factor("b")
    assert sorted([b1, a2, a1]) == [a1, a2, b1]
    assert a1 < a2 < b1 and a1 <= a1 and b1 > a2 and a2 >= a2
    assert not a2 < a1 and not a1 > a2
    with pytest.raises(TypeError):
        a1 < ("a", 1)


def counting(monkeypatch, name):
    calls = []
    real = getattr(majorchain.instances, name)

    def wrapper(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(majorchain.instances, name, wrapper)
    return calls


def test_cached_properties_compute_once(monkeypatch):
    premise_calls = counting(monkeypatch, "check_lemma_premise")
    shift_calls = counting(monkeypatch, "_shifted_indices")
    lemma = LemmaInstance(*lemma_args((1,)))
    theorem = TheoremInstance(*chain_pair(), Partition([0]), Partition([0]), m=1, p=1)
    assert lemma.premise_holds is lemma.premise_holds is True
    assert theorem.c_plus is theorem.c_plus
    assert len(premise_calls) == 1 and len(shift_calls) == 1
    # A cached value is not a field: the record still equals a fresh one.
    assert lemma == LemmaInstance(*lemma_args((1,)))
    assert theorem == TheoremInstance(*chain_pair(), Partition([0]), Partition([0]), m=1, p=1)
