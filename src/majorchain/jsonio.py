"""JSON wire formats, with path-precise parse errors.

Formats (all UTF-8 JSON, no comments):

* partition: array of nonnegative integers, non-increasing;
* chain: {"length": L, "factors": [{"label", "degree", "exponents"}]};
* splitting instance: {"pairs": [{"d", "t"}], "A", "B"};
* completion instance: {"alpha", "gamma", "c", "r", "m", "p", "n"};
* certificates: {"fs": [partition]} or {"beta": chain};
* solve report: {"outcome", "certificate", "nodes", "budget", "space_size"},
  where ``nodes`` is at most ``budget`` and equal to it when the outcome is
  ``"aborted"``, since a search aborts only once its nodes reach the budget,
  and a ``space_size`` of more than 4,300 decimal digits is a string, its
  lowercase hexadecimal form with a ``0x`` prefix (see below);
* transcript: [{"name", "holds", "left", "right", "note"}];
* identity pair (``majorchain identity``): {"delta": chain, "epsilon": chain};
* contradiction artifact: {"instance", "report", "trace_sha256"}.

Parsers reject out-of-schema values with an :class:`InputError` whose
message names the JSON path of the offending element.  Parts, chain
exponents and factor degrees are capped at the signed 64-bit maximum:
anything larger is a parse error, never a silent wrap, and the sums and
products of them that a command prints stay far below the limit on
printing integers described next.  Malformed text, text nested too deeply
for the parser, and an integer literal with more digits than that limit
allows, are an :class:`InputError` too.  A partition, and a
chain factor's exponents, are first checked whole with C builtins: every
item of class ``int``, each adjacent pair in order, and both ends within
0..``MAX_PART``.  Only an array that fails that check walks the
per-element checks, which name the first fault and its path, so a valid
array builds no path strings.

:func:`dumps` writes text equal to ``json.dumps(obj, indent=2)`` plus a
newline, but by its own small recursive writer over exactly the wire
formats' types: dicts with ``str`` keys, lists, tuples, strings, ints,
bools and None (any other value is a ``TypeError``).  With an indent,
CPython's ``json`` runs its pure-Python encoder, which took a fifth to a
quarter of a short command's time.  The writer escapes strings with the C
function ``json`` itself uses and writes a list of plain ints with one
``join``, at about half that encoder's cost.

CPython converts an integer to or from decimal text only up to 4,300
digits by default, and ``json`` obeys that limit both ways.  A search's
``space_size`` can pass it (2^n for n unit positions passes it at about
14,300), so a report writes such a value in hexadecimal, which has no
limit, and reads it back.  Every smaller value stays a JSON integer, and
the parser takes the hexadecimal form only for a value past the limit, so
each value has one form whatever the interpreter's limit is set to.
"""

from __future__ import annotations

import json
import sys
from json.encoder import encode_basestring_ascii as _quote
from operator import ge, le

from .chains import Factor, PolyChain
from .errors import InputError, MajorchainError
from .instances import (
    BetaCertificate,
    ConditionCheck,
    FCertificate,
    LemmaInstance,
    TheoremInstance,
)
from .partitions import Partition
from .solve import ABORTED, FOUND, NO_SOLUTION, SolveReport, search_trace_hash

MAX_PART = 2**63 - 1
MAX_CHAIN_LENGTH = 2**20
# The least integer of 4,301 decimal digits: a space_size from here up is written in hex.
_HEX_SPACE_SIZE = 10**4300
_HEX_DIGITS = frozenset("0123456789abcdef")

_OUTCOMES = (FOUND, NO_SOLUTION, ABORTED)
# Tested with ``issuperset(map(type, values))``: every value is of class int, so no bool.
_INT_ONLY = frozenset((int,))


def load_json(text: str) -> object:
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(
            f"malformed JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}",
            path="",
        ) from exc
    except RecursionError as exc:
        raise InputError("JSON nested too deeply to parse", path="") from exc
    except ValueError as exc:  # an integer literal past the interpreter's digit limit
        raise InputError(
            f"an integer literal has more than {sys.get_int_max_str_digits()} digits,"
            " the interpreter's limit for integer string conversion",
            path="",
        ) from exc


def dumps(obj: object) -> str:
    """``obj`` as JSON text, as ``json.dumps(obj, indent=2)`` writes it, plus a newline."""
    return _encode(obj, "\n") + "\n"


def _encode(value: object, newline: str) -> str:
    """One wire value; ``newline`` is a line break and the indent of the value's own line."""
    if isinstance(value, str):
        return _quote(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        inner = newline + "  "
        if _INT_ONLY.issuperset(map(type, value)):
            items = map(int.__repr__, value)
        else:
            items = [_encode(item, inner) for item in value]
        return "[" + inner + ("," + inner).join(items) + newline + "]"
    if isinstance(value, dict):
        if not value:
            return "{}"
        inner = newline + "  "
        items = []
        for key, item in value.items():
            if not isinstance(key, str):
                raise TypeError(f"keys must be str, not {type(key).__name__}")
            items.append(_quote(key) + ": " + _encode(item, inner))
        return "{" + inner + ("," + inner).join(items) + newline + "}"
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _require_int(value: object, path: str, minimum: int = 0, maximum: int | None = None) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise InputError(f"expected an integer, got {value!r}", path)
    if value < minimum:
        raise InputError(f"{value} is below the minimum {minimum}", path)
    if maximum is not None and value > maximum:
        raise InputError(f"{value} exceeds the maximum {maximum}", path)
    return value


def _require_list(value: object, path: str) -> list:
    if not isinstance(value, list):
        raise InputError(f"expected an array, got {type(value).__name__}", path)
    return value


def _require_object(value: object, path: str, keys: tuple[str, ...]) -> dict:
    if not isinstance(value, dict):
        raise InputError(f"expected an object, got {type(value).__name__}", path)
    for key in keys:
        if key not in value:
            raise InputError(f"missing key {key!r}", path)
    return value


def partition_to_obj(partition: Partition) -> list[int]:
    return list(partition.parts)


def parse_partition(obj: object, path: str = "$") -> Partition:
    items = _require_list(obj, path)
    if items and not (
        _INT_ONLY.issuperset(map(type, items))
        and all(map(ge, items, items[1:]))
        and 0 <= items[-1]
        and items[0] <= MAX_PART
    ):
        previous = None
        for index, value in enumerate(items):
            here = f"{path}[{index}]"
            _require_int(value, here, minimum=0, maximum=MAX_PART)
            if previous is not None and value > previous:
                raise InputError(f"{value} exceeds the previous part {previous}", here)
            previous = value
    return Partition(items)


def chain_to_obj(chain: PolyChain) -> dict:
    return {
        "length": chain.length,
        "factors": [
            {
                "label": factor.label,
                "degree": factor.degree,
                "exponents": list(chain.exponent_vector(factor.label)),
            }
            for factor in chain.factors
        ],
    }


def parse_chain(obj: object, path: str = "$") -> PolyChain:
    data = _require_object(obj, path, ("length", "factors"))
    length = _require_int(data["length"], f"{path}.length", maximum=MAX_CHAIN_LENGTH)
    rows = {}
    labels = set()
    for index, entry in enumerate(_require_list(data["factors"], f"{path}.factors")):
        here = f"{path}.factors[{index}]"
        record = _require_object(entry, here, ("label", "degree", "exponents"))
        label = record["label"]
        if not isinstance(label, str) or not label:
            raise InputError("label must be a nonempty string", f"{here}.label")
        if label in labels:
            raise InputError(f"duplicate label {label!r}", f"{here}.label")
        labels.add(label)
        degree = _require_int(record["degree"], f"{here}.degree", minimum=1, maximum=MAX_PART)
        exponents = _require_list(record["exponents"], f"{here}.exponents")
        if len(exponents) != length:
            raise InputError(
                f"{len(exponents)} exponents for a length-{length} chain",
                f"{here}.exponents",
            )
        if exponents and not (
            _INT_ONLY.issuperset(map(type, exponents))
            and all(map(le, exponents, exponents[1:]))
            and 0 <= exponents[0]
            and exponents[-1] <= MAX_PART
        ):
            previous = None
            for pos, value in enumerate(exponents):
                spot = f"{here}.exponents[{pos}]"
                _require_int(value, spot, minimum=0, maximum=MAX_PART)
                if previous is not None and value < previous:
                    raise InputError(
                        f"{value} is below the previous exponent {previous}; "
                        "chain entries must divide their successors",
                        spot,
                    )
                previous = value
        rows[Factor(label, degree)] = tuple(exponents)
    return PolyChain(length, rows)


def lemma_instance_to_obj(inst: LemmaInstance) -> dict:
    return {
        "pairs": [
            {"d": partition_to_obj(d), "t": partition_to_obj(t)} for d, t in inst.pairs
        ],
        "A": partition_to_obj(inst.A),
        "B": partition_to_obj(inst.B),
    }


def parse_lemma_instance(obj: object, path: str = "$") -> LemmaInstance:
    data = _require_object(obj, path, ("pairs", "A", "B"))
    pairs = []
    for index, entry in enumerate(_require_list(data["pairs"], f"{path}.pairs")):
        here = f"{path}.pairs[{index}]"
        record = _require_object(entry, here, ("d", "t"))
        pairs.append(
            (parse_partition(record["d"], f"{here}.d"), parse_partition(record["t"], f"{here}.t"))
        )
    A = parse_partition(data["A"], f"{path}.A")
    B = parse_partition(data["B"], f"{path}.B")
    try:
        return LemmaInstance(tuple(pairs), A, B)
    except MajorchainError as exc:
        raise InputError(str(exc), path) from exc


def theorem_instance_to_obj(inst: TheoremInstance) -> dict:
    return {
        "alpha": chain_to_obj(inst.alpha),
        "gamma": chain_to_obj(inst.gamma),
        "c": partition_to_obj(inst.c),
        "r": partition_to_obj(inst.r),
        "m": inst.m,
        "p": inst.p,
        "n": inst.n,
    }


def parse_theorem_instance(obj: object, path: str = "$") -> TheoremInstance:
    data = _require_object(obj, path, ("alpha", "gamma", "c", "r", "m", "p"))
    alpha = parse_chain(data["alpha"], f"{path}.alpha")
    gamma = parse_chain(data["gamma"], f"{path}.gamma")
    c = parse_partition(data["c"], f"{path}.c")
    r = parse_partition(data["r"], f"{path}.r")
    m = _require_int(data["m"], f"{path}.m")
    p = _require_int(data["p"], f"{path}.p")
    if "n" in data:
        n = _require_int(data["n"], f"{path}.n")
        if n != alpha.length:
            raise InputError(
                f"n={n} disagrees with the inner chain length {alpha.length}",
                f"{path}.n",
            )
    try:
        return TheoremInstance(alpha, gamma, c, r, m=m, p=p)
    except (MajorchainError, ValueError) as exc:
        raise InputError(str(exc), path) from exc


def instance_to_obj(inst: LemmaInstance | TheoremInstance) -> dict:
    if isinstance(inst, LemmaInstance):
        return lemma_instance_to_obj(inst)
    return theorem_instance_to_obj(inst)


def parse_f_certificate(obj: object, path: str = "$") -> FCertificate:
    data = _require_object(obj, path, ("fs",))
    return FCertificate(
        tuple(
            parse_partition(entry, f"{path}.fs[{index}]")
            for index, entry in enumerate(_require_list(data["fs"], f"{path}.fs"))
        )
    )


def parse_beta_certificate(obj: object, path: str = "$") -> BetaCertificate:
    data = _require_object(obj, path, ("beta",))
    return BetaCertificate(parse_chain(data["beta"], f"{path}.beta"))


def certificate_to_obj(certificate: FCertificate | BetaCertificate | None):
    if certificate is None:
        return None
    if isinstance(certificate, FCertificate):
        return {"fs": [partition_to_obj(f) for f in certificate.fs]}
    return {"beta": chain_to_obj(certificate.beta)}


def parse_certificate(obj: object, path: str = "$") -> FCertificate | BetaCertificate | None:
    if obj is None:
        return None
    data = _require_object(obj, path, ())
    if "fs" in data:
        return parse_f_certificate(data, path)
    if "beta" in data:
        return parse_beta_certificate(data, path)
    raise InputError("expected a certificate with 'fs' or 'beta'", path)


def solve_report_to_obj(report: SolveReport) -> dict:
    return {
        "outcome": report.outcome,
        "certificate": certificate_to_obj(report.certificate),
        "nodes": report.nodes,
        "budget": report.budget,
        "space_size": (
            report.space_size if report.space_size < _HEX_SPACE_SIZE else hex(report.space_size)
        ),
    }


def _parse_space_size(value: object, path: str) -> int:
    """An integer, or the ``0x`` form of one with more than 4,300 decimal digits."""
    if not isinstance(value, str):
        return _require_int(value, path)
    digits = value[2:]
    canonical = value.startswith("0x") and digits[:1] not in ("", "0")
    if not (canonical and _HEX_DIGITS.issuperset(digits)):
        raise InputError(
            "expected an integer or a lowercase hexadecimal string with a '0x' prefix", path
        )
    size = int(digits, 16)
    if size < _HEX_SPACE_SIZE:
        raise InputError("a value of at most 4300 decimal digits must be a JSON integer", path)
    return size


def parse_solve_report(obj: object, path: str = "$") -> SolveReport:
    data = _require_object(obj, path, ("outcome", "certificate", "nodes", "budget", "space_size"))
    outcome = data["outcome"]
    if outcome not in _OUTCOMES:
        raise InputError(f"outcome must be one of {_OUTCOMES}", f"{path}.outcome")
    certificate = parse_certificate(data["certificate"], f"{path}.certificate")
    if (certificate is None) == (outcome == FOUND):
        rule = "must not be null" if outcome == FOUND else "must be null"
        raise InputError(f"{rule} when the outcome is {outcome!r}", f"{path}.certificate")
    budget = _require_int(data["budget"], f"{path}.budget")
    minimum = budget if outcome == ABORTED else 0
    nodes = _require_int(data["nodes"], f"{path}.nodes", minimum=minimum, maximum=budget)
    space_size = _parse_space_size(data["space_size"], f"{path}.space_size")
    return SolveReport(outcome, certificate, nodes, budget, space_size)


def _compared_to_obj(value: object):
    if value is None:
        return None
    if isinstance(value, Partition):
        return partition_to_obj(value)
    if isinstance(value, PolyChain):
        return chain_to_obj(value)
    if isinstance(value, tuple):
        return [_compared_to_obj(item) for item in value]
    return value


def transcript_to_obj(checks: list[ConditionCheck]) -> list[dict]:
    return [
        {
            "name": check.name,
            "holds": check.holds,
            "left": _compared_to_obj(check.left),
            "right": _compared_to_obj(check.right),
            "note": check.note,
        }
        for check in checks
    ]


def write_contradiction_report(inst: LemmaInstance, report: SolveReport, directory="."):
    """Serialize a premise-satisfying NoSolution as a bug-report artifact.

    That verdict contradicts the existence statement the solver certifies,
    so it is recorded with the instance and a hash of the search's trace
    (the values it tried) for reproduction; rerunning the search for that
    hash, memo included, costs what the solve cost.  ``directory`` is a string or path
    object; returns the :class:`pathlib.Path` written.
    """
    from pathlib import Path  # only this rare path needs it

    trace = search_trace_hash(inst, budget=report.budget)
    payload = {
        "instance": lemma_instance_to_obj(inst),
        "report": solve_report_to_obj(report),
        "trace_sha256": trace,
    }
    target = Path(directory) / f"contradiction-{trace[:16]}.json"
    target.write_text(dumps(payload), encoding="utf-8")
    return target
