"""Every ``cli_dispatch`` call ends in a documented exit code.

Hypothesis draws bounded documents, both in the shape of each input form
(lemma and theorem instances, chain pairs, certificates) and free-form JSON
or text, and runs ``check`` (with and without a certificate), ``solve``
(with and without ``--weight``), ``translate`` and ``identity`` on them.
Part values stay at most 8, partitions at most 4 parts, chains at most 3
long and budgets at most 200, so every call is small.  Huge part values are
left out: the CLI does not yet bound the work they cause (ROADMAP item 5).
"""

import contextlib
import io
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from majorchain.cli import cli_dispatch

MODES = ("lemma", "theorem")
LABELS = ("x", "y")


def partitions(max_part=8, max_size=4):
    return st.lists(st.integers(0, max_part), max_size=max_size).map(
        lambda parts: sorted(parts, reverse=True)
    )


# Loose documents: each field may break the schema (unsorted or negative
# parts, empty labels, zero degrees, lengths that do not fit).
LOOSE_PARTITIONS = st.lists(st.integers(-1, 8), max_size=4)


def loose_chains(length):
    factor = st.fixed_dictionaries(
        {
            "label": st.sampled_from(LABELS + ("",)),
            "degree": st.integers(0, 3),
            "exponents": st.lists(st.integers(0, 8), min_size=length, max_size=length).map(
                sorted
            ),
        }
    )
    return st.fixed_dictionaries(
        {"length": st.just(length), "factors": st.lists(factor, max_size=2)}
    )


LOOSE_CHAINS = st.integers(0, 3).flatmap(loose_chains)

KEYS = st.sampled_from(
    ("pairs", "A", "B", "d", "t", "fs", "beta", "alpha", "gamma", "c", "r", "m", "p", "n",
     "delta", "epsilon", "length", "factors", "label", "degree", "exponents")
)

# Free-form JSON with the schema's keys, so the parsers meet wrong shapes.
JUNK = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-2, 8)
    | st.floats(-2, 8, allow_nan=False)
    | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(KEYS, inner, max_size=4),
    max_leaves=12,
)

LOOSE = st.one_of(
    st.fixed_dictionaries(
        {
            "pairs": st.lists(
                st.fixed_dictionaries({"d": LOOSE_PARTITIONS, "t": LOOSE_PARTITIONS}),
                max_size=3,
            ),
            "A": LOOSE_PARTITIONS,
            "B": LOOSE_PARTITIONS,
        }
    ),
    st.fixed_dictionaries(
        {
            "alpha": LOOSE_CHAINS,
            "gamma": LOOSE_CHAINS,
            "c": LOOSE_PARTITIONS,
            "r": LOOSE_PARTITIONS,
            "m": st.integers(-1, 3),
            "p": st.integers(-1, 3),
        },
        optional={"n": st.integers(0, 3)},
    ),
    st.fixed_dictionaries({"delta": LOOSE_CHAINS, "epsilon": LOOSE_CHAINS}),
    JUNK.map(json.dumps),
    st.text(max_size=20),
)


# Well-formed documents, which reach the verifiers and the solvers.
@st.composite
def between(draw, d, t):
    """A partition f with t <= f <= d part by part."""
    f = []
    for j, top in enumerate(d):
        low = t[j] if j < len(t) else 0
        f.append(draw(st.integers(low, min([top] + f[-1:]))))
    return f


@st.composite
def lemmas(draw):
    pairs = []
    for _ in range(draw(st.integers(0, 3))):
        d = draw(partitions())
        t = draw(between(d, []))[: draw(st.integers(0, len(d)))]
        pairs.append({"d": d, "t": t})
    return {"pairs": pairs, "A": draw(partitions()), "B": draw(partitions())}


@st.composite
def chains(draw, degrees, length):
    """A chain of the given length whose factors have the given degrees."""
    rows = [
        {
            "label": label,
            "degree": degree,
            "exponents": sorted(
                draw(st.lists(st.integers(0, 8), min_size=length, max_size=length))
            ),
        }
        for label, degree in degrees.items()
    ]
    return {"length": length, "factors": rows}


@st.composite
def theorems(draw):
    total = draw(st.integers(0, 3))
    n = draw(st.integers(0, total))
    m = draw(st.integers(0, total - n))
    degrees = draw(st.dictionaries(st.sampled_from(LABELS), st.integers(1, 3)))
    return {
        "alpha": draw(chains(degrees, n)),
        "gamma": draw(chains(degrees, total)),
        "c": draw(partitions(max_size=m)),
        "r": draw(partitions(max_size=total - n - m)),
        "m": m,
        "p": total - n - m,
    }


@st.composite
def certificates(draw, mode, instance):
    """A certificate shaped for ``instance`` if it is well formed, else junk."""
    if instance is None or draw(st.booleans()):
        return draw(JUNK.map(json.dumps))
    if mode == "lemma":
        return {"fs": [draw(between(pair["d"], pair["t"])) for pair in instance["pairs"]]}
    degrees = {row["label"]: row["degree"] for row in instance["alpha"]["factors"]}
    length = instance["alpha"]["length"] + instance["m"]
    return {"beta": draw(chains(degrees, length))}


WELL_FORMED = {
    "lemma": lemmas(),
    "theorem": theorems(),
    "identity": theorems().map(lambda inst: {"delta": inst["alpha"], "epsilon": inst["gamma"]}),
}


@st.composite
def calls(draw):
    """One argv, with the documents its ``{instance}`` and ``{certificate}`` name."""
    command = draw(st.sampled_from(("check", "solve", "translate", "identity")))
    mode = draw(st.sampled_from(MODES))
    argv = [command, "--instance", "{instance}"]
    well_formed = draw(st.booleans())
    if well_formed:
        instance = draw(WELL_FORMED[command if command == "identity" else mode])
    else:
        instance = draw(LOOSE)
    files = {"instance": instance}
    if command != "identity":
        argv += ["--mode", mode]
    if command == "check" and draw(st.booleans()):
        argv += ["--certificate", "{certificate}"]
        files["certificate"] = draw(certificates(mode, instance if well_formed else None))
    if command == "solve":
        argv += ["--budget", str(draw(st.integers(0, 200))), "--report-dir", "{dir}"]
        if draw(st.booleans()):
            argv += ["--weight", str(draw(st.integers(-1, 3)))]
    return argv, files


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@settings(derandomize=True, deadline=None, max_examples=1000)
@given(calls())
def test_every_call_ends_in_a_documented_exit_code(workdir, call):
    argv, documents = call
    names = {"dir": str(workdir)}
    for name, document in documents.items():
        path = workdir / f"{name}.json"
        text = document if isinstance(document, str) else json.dumps(document)
        path.write_text(text, encoding="utf-8")
        names[name] = str(path)
    argv = [arg.format(**names) for arg in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli_dispatch(argv)
    assert code in range(5), (argv, documents, err.getvalue())
    if out.getvalue():
        json.loads(out.getvalue())
