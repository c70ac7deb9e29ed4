"""Mutation gate: every listed mutant must make the fast test suites fail within 60 s.

Each of the 61 mutants is one exact text edit to one file under ``src/``:
a search cut or clamp dropped or tightened, the splitting search's root
totals test dropped, or kept without its divisibility half or without
the factor w, either prefix bound dropped, the lower one a unit high or
the upper one a unit low, their room of no committed gaps read from the
table's second part or computed without rank 1, its lower-mass clamp
skipped or its binary search one value high, its closed-form shortfall
off by one part in its count or by one in its bisect's threshold, one
bound of the direct search's static window dropped, the splitting
search's prefix table of A left unscaled, the splitting backtrack
keeping the popped lower gap, the splitting
search's memo keyed without the upper bounds (as bytes or as a tuple) or
without the lower total, its upper room derived one unit off, its
residual bounds computed one rank off or kept at their room,
counting a node for a hit or cleared from the root pair down, the direct backtrack not
restoring the mass, each verifier condition forced true, the
splitting verifier's one-pass bounds test without its length test or
either of its halves, its pooled gaps left unscaled by w, the totals
test of ``majorizes`` dropped, the translation's conjugate counting the
parts equal to i as above i (``bisect_right`` at i - 1, which is
``bisect_left`` at i on integers) or its embedding of a conjugate into a
chain one position off, a condition of the CLI's contradiction
tripwire dropped, an exception class no longer caught, the CLI's
direct dispatch ignoring the arguments a subcommand's parser leaves, the
JSON parsers' one-pass array check without its order test (in each
parser), without its ``MAX_PART`` end or admitting bools, the JSON
writer not growing the indent of a nested value, the
integer-argument rule made to accept bools, the records' equality narrowed
to their first field and their assignment guard dropped, the sampler's
unit transfer allowed between equal parts.  For each one the
script copies ``src/``, ``tests/``, ``demos/``, ``bench/`` (the tests read
its deep corpus) and ``pyproject.toml`` into a temporary directory, applies
the edit there (never to the working tree) and runs every ``tests/``
module except ``test_acceptance.py`` and ``test_mutant_list.py`` with
``pytest -x``, the modules most likely to fail first.
(``test_mutant_list.py`` checks this list against the source, so it
would fail on every mutated copy.)  It prints each mutant with the first
failing test and the seconds that took.

Run it by hand from the repository root::

    python tools/mutants.py

Exit codes: 0 when every mutant is killed within 60 s; 1 when a mutant
survives or its run is still going at 60 s (the run is stopped there); 2,
before any suite runs, when a mutant's text no longer occurs exactly once
in its file, or when the unmutated copy does not pass, since then no
mutant result would mean anything.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
COPIED = ("src", "tests", "demos", "bench", "pyproject.toml")
SKIPPED_MODULES = {"test_acceptance.py", "test_mutant_list.py"}
# Modules that kill most mutants, run first so a kill comes early; the rest follow by name.
# The splitting-search kernel takes about 20 s, so it runs after the quick modules that kill the
# direct-search, verifier, CLI and JSON mutants.
FIRST_MODULES = (
    "test_import_footprint.py",
    "test_argument_rules.py",
    "test_split_parity.py",
    "test_solve.py",
    "test_chain_kernel.py",
    "test_single_search_path.py",
    "test_instances.py",
    "test_transcripts.py",
    "test_verifier_layer.py",
    "test_partitions.py",
    "test_conjugation.py",
    "test_cli.py",
    "test_jsonio.py",
    "test_split_kernel.py",
)
# The unmutated copy runs the whole suite; a mutant run is stopped at the gate.
BASELINE_TIMEOUT_S = 600
GATE_S = 60

SOLVE = "src/majorchain/solve.py"
INSTANCES = "src/majorchain/instances.py"
ERRORS = "src/majorchain/errors.py"
CLI = "src/majorchain/cli.py"
JSONIO = "src/majorchain/jsonio.py"

# (name, file, text, replacement): ``text`` must occur exactly once in ``file``.
MUTANTS = (
    (
        "split-totals-test-dropped",
        SOLVE,
        "        if w * self.gap_total != self.total_a + self.total_b or self.total_a % w:\n"
        "            return NO_SOLUTION, None, 0\n",
        "",
    ),
    (
        "split-totals-test-drops-divisibility",
        SOLVE,
        "if w * self.gap_total != self.total_a + self.total_b or self.total_a % w:",
        "if w * self.gap_total != self.total_a + self.total_b:",
    ),
    (
        "split-totals-test-unscaled",
        SOLVE,
        "if w * self.gap_total != ",
        "if self.gap_total != ",
    ),
    (
        "split-lower-mass-clamp-skipped",
        SOLVE,
        "if value <= hi and _lower_reach(value, j, neg_d, sums) < goal:",
        "if False:",
    ),
    (
        "split-lower-mass-search-one-value-high",
        SOLVE,
        "                    value = low\n",
        "                    value = low + 1\n",
    ),
    (
        "split-shortfall-count-off-by-one",
        SOLVE,
        "(end - j - 1) * v)",
        "(end - j) * v)",
    ),
    (
        "split-shortfall-bisect-skips-parts-one-above",
        SOLVE,
        "bisect_left(neg_d, -v, j + 1)",
        "bisect_left(neg_d, -v - 1, j + 1)",
    ),
    (
        "split-lower-prefix-cut-dropped",
        SOLVE,
        "if tj < hi and value <= hi:",
        "if False:",
    ),
    (
        "split-lower-prefix-bound-one-high",
        SOLVE,
        "end = tj + _room(pre_a, lower_gaps)\n",
        "end = tj + _room(pre_a, lower_gaps) + 1\n",
    ),
    (
        "split-prefix-table-unscaled",
        SOLVE,
        "            pre_a = [prefix // w for prefix in pre_a]\n",
        "",
    ),
    (
        "split-upper-prefix-cut-dropped",
        SOLVE,
        "if value < dj and value <= hi:",
        "if False:",
    ),
    (
        "split-upper-prefix-bound-one-low",
        SOLVE,
        "start = dj - _room(pre_b, upper_gaps)\n",
        "start = dj - _room(pre_b, upper_gaps) - 1\n",
    ),
    (
        "split-prefix-room-of-no-gaps-reads-the-second-part",
        SOLVE,
        " if gaps else pre[0]\n",
        " if gaps else pre[1]\n",
    ),
    (
        "split-prefix-room-skips-rank-one",
        SOLVE,
        "return min(map(sub, pre, accumulate(reversed(gaps), initial=0)))",
        "return min(map(sub, pre, accumulate(reversed(gaps))))",
    ),
    (
        "split-backtrack-keeps-popped-lower-gap",
        SOLVE,
        "                if gap_lower:\n                    lower_gaps.remove(gap_lower)\n",
        "",
    ),
    (
        "split-memo-key-drops-upper-bounds",
        SOLVE,
        'b"%c%c%b%b" % (ca, len(lower), lower, upper)',
        'b"%c%c%b" % (ca, len(lower), lower)',
    ),
    (
        "split-memo-key-drops-the-lower-total",
        SOLVE,
        'b"%c%c%b%b" % (ca, len(lower), lower, upper)',
        'b"%c%b%b" % (len(lower), lower, upper)',
    ),
    (
        "split-memo-tuple-key-drops-upper-bounds",
        SOLVE,
        "return (ca, len(lower), *lower, *upper)",
        "return (ca, len(lower), *lower)",
    ),
    (
        "split-memo-upper-room-off-by-one",
        SOLVE,
        "            room_b = dj - tj + rest - room_a\n",
        "            room_b = dj - tj + rest - room_a - 1\n",
    ),
    (
        "split-memo-bounds-one-rank-off",
        SOLVE,
        "bound = min(map(sub, pre[j:], tops))",
        "bound = min(map(sub, pre[j + 1:], tops))",
    ),
    (
        "split-memo-bounds-kept-at-the-room",
        SOLVE,
        "if bound >= room:",
        "if bound > room:",
    ),
    (
        "split-memo-hit-counts-a-node",
        SOLVE,
        "                        value = hi + 1\n",
        "                        value = hi + 1\n                        nodes += 1\n",
    ),
    (
        "split-memo-evicts-from-the-root",
        SOLVE,
        "for k in reversed(range(len(self.entries))):",
        "for k in range(len(self.entries)):",
    ),
    (
        "chain-top-clamp-dropped",
        SOLVE,
        "                    if top < hi:\n                        hi = top\n",
        "",
    ),
    (
        "chain-top-clamp-tightened",
        SOLVE,
        "                    top = (room - mass) // deg\n",
        "                    top = (room - mass) // deg - 1\n",
    ),
    (
        "chain-bottom-clamp-dropped",
        SOLVE,
        "                    if bottom > lo:\n                        lo = bottom\n",
        "",
    ),
    (
        "chain-previous-exponent-floor-dropped",
        SOLVE,
        "                    if q >= 2 and assigned[fi][q - 2] > lo:\n"
        "                        lo = assigned[fi][q - 2]\n",
        "",
    ),
    (
        "chain-backtrack-keeps-mass",
        SOLVE,
        "            value, hi, mass = stack.pop()\n",
        "            value, hi, _ = stack.pop()\n",
    ),
    (
        "chain-inner-floor-dropped",
        SOLVE,
        "                lo = max(gamma_lo, alpha_lo)\n",
        "                lo = gamma_lo\n",
    ),
    (
        "chain-outer-floor-dropped",
        SOLVE,
        "                lo = max(gamma_lo, alpha_lo)\n",
        "                lo = alpha_lo\n",
    ),
    (
        "chain-inner-ceiling-dropped",
        SOLVE,
        "                hi = gamma_hi if alpha_hi is None or gamma_hi <= alpha_hi else alpha_hi\n",
        "                hi = gamma_hi\n",
    ),
    (
        "verifier-lower-gaps-forced-true",
        INSTANCES,
        '        _majorized("lower-gaps-vs-A", lower, A),\n',
        '        ConditionCheck("lower-gaps-vs-A", True, lower, A),\n',
    ),
    (
        "verifier-upper-gaps-forced-true",
        INSTANCES,
        '        _majorized("upper-gaps-vs-B", upper, B),\n',
        '        ConditionCheck("upper-gaps-vs-B", True, upper, B),\n',
    ),
    (
        "verifier-bounds-forced-true",
        INSTANCES,
        "if len(mid) > n or not all(map(ge, hi, mid)) or not all(map(ge, mid, lo)):",
        "if False:",
    ),
    (
        "verifier-bounds-length-test-dropped",
        INSTANCES,
        "if len(mid) > n or not all(map(ge, hi, mid)) or",
        "if not all(map(ge, hi, mid)) or",
    ),
    (
        "verifier-bounds-upper-half-dropped",
        INSTANCES,
        " or not all(map(ge, hi, mid)) or ",
        " or ",
    ),
    (
        "verifier-bounds-lower-half-dropped",
        INSTANCES,
        " or not all(map(ge, mid, lo)):",
        ":",
    ),
    (
        "verifier-gaps-unscaled",
        INSTANCES,
        "    return Partition(gaps if w == 1 else [w * gap for gap in gaps])\n",
        "    return Partition(gaps)\n",
    ),
    (
        "verifier-lemma-premise-forced-true",
        INSTANCES,
        '    return [_majorized("pooled-gaps-vs-A+B", inst.gap_union(), plus(inst.A, inst.B))]\n',
        '    return [ConditionCheck("pooled-gaps-vs-A+B", True, inst.gap_union(), plus(inst.A, inst.B))]\n',
    ),
    (
        "verifier-premise-sandwich-forced-true",
        INSTANCES,
        "    sandwich = interlace_check(alpha, gamma, y)\n",
        "    sandwich = True\n",
    ),
    (
        "verifier-sigma-majorization-forced-true",
        INSTANCES,
        "    return _majorized(name, indices, _sigma_of_sandwich(delta, epsilon, y))\n",
        "    return ConditionCheck(name, True, indices, _sigma_of_sandwich(delta, epsilon, y))\n",
    ),
    (
        "verifier-chain-valid-forced-true",
        INSTANCES,
        "    valid = chain_validate(beta)\n",
        "    valid = True\n",
    ),
    (
        "verifier-inner-interlace-forced-true",
        INSTANCES,
        "    inner = valid and interlace_check(alpha, beta, inst.m)\n",
        "    inner = valid\n",
    ),
    (
        "verifier-outer-interlace-forced-true",
        INSTANCES,
        "    outer = valid and interlace_check(beta, gamma, inst.p)\n",
        "    outer = valid\n",
    ),
    (
        "majorizes-totals-test-dropped",
        "src/majorchain/partitions.py",
        "    return sum(a) == sum(b) and all(map(le, accumulate(a), accumulate(b)))\n",
        "    return all(map(le, accumulate(a), accumulate(b)))\n",
    ),
    (
        "conjugate-bisect-left",
        INSTANCES,
        "    return [count - bisect_right(ascending, i) for i in range(ascending[-1] if ascending else 0)]\n",
        "    return [count - bisect_right(ascending, i - 1) for i in range(ascending[-1] if ascending else 0)]\n",
    ),
    (
        "conjugate-embedding-one-position-off",
        INSTANCES,
        "bisect_right(ascending, length - q) for q in range(1, length + 1)]\n",
        "bisect_right(ascending, length - q + 1) for q in range(1, length + 1)]\n",
    ),
    (
        "cli-tripwire-premise-test-dropped",
        CLI,
        "    if args.weight is not None or not inst.premise_holds:\n",
        "    if args.weight is not None:\n",
    ),
    (
        "cli-tripwire-on-weighted-none",
        CLI,
        "    if args.weight is not None or not inst.premise_holds:\n",
        "    if not inst.premise_holds:\n",
    ),
    (
        "cli-dispatch-valueerror-not-caught",
        CLI,
        "    except (MajorchainError, ValueError) as exc:\n",
        "    except MajorchainError as exc:\n",
    ),
    (
        "cli-dispatch-memoryerror-not-caught",
        CLI,
        "    except MemoryError:\n",
        "    except ZeroDivisionError:\n",
    ),
    (
        "cli-dispatch-ignores-leftover-arguments",
        CLI,
        "            if extras:\n",
        "            if False:\n",
    ),
    (
        "parse-partition-one-pass-order-test-dropped",
        JSONIO,
        "        and all(map(ge, items, items[1:]))\n",
        "",
    ),
    (
        "parse-chain-one-pass-order-test-dropped",
        JSONIO,
        "            and all(map(le, exponents, exponents[1:]))\n",
        "",
    ),
    (
        "parse-partition-one-pass-cap-dropped",
        JSONIO,
        "        and items[0] <= MAX_PART\n",
        "",
    ),
    (
        "parse-partition-one-pass-admits-bools",
        JSONIO,
        "_INT_ONLY.issuperset(map(type, items))",
        "all(isinstance(value, int) for value in items)",
    ),
    (
        "writer-nested-indent-not-grown",
        JSONIO,
        '        inner = newline + "  "\n        if _INT_ONLY',
        "        inner = newline\n        if _INT_ONLY",
    ),
    (
        "int-argument-accepts-bools",
        ERRORS,
        "isinstance(value, bool) or ",
        "",
    ),
    (
        "value-eq-first-field-only",
        ERRORS,
        "            return self._key(self) == other._key(other)\n",
        "            return self._key(self)[0] == other._key(other)[0]\n",
    ),
    (
        "value-setattr-allowed",
        ERRORS,
        '        raise AttributeError(f"cannot assign to field {name!r}")\n',
        "        object.__setattr__(self, name, value)\n",
    ),
    (
        "generator-transfer-between-equal-parts",
        "src/majorchain/generator.py",
        "for v, target in enumerate(slots) if source > target]\n",
        "for v, target in enumerate(slots) if source >= target]\n",
    ),
)


def suite_modules(tests: Path) -> list[str]:
    present = sorted(path.name for path in tests.glob("test_*.py"))
    ordered = [name for name in FIRST_MODULES if name in present]
    ordered += [name for name in present if name not in ordered and name not in SKIPPED_MODULES]
    return [f"tests/{name}" for name in ordered]


def copy_tree(target: Path) -> None:
    ignore = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
    for name in COPIED:
        source = ROOT / name
        if source.is_dir():
            shutil.copytree(source, target / name, ignore=ignore)
        else:
            shutil.copy2(source, target / name)


def stale_mutants() -> list[str]:
    """Mutants whose text does not occur exactly once in the working tree's file."""
    stale = []
    for name, file, text, _ in MUTANTS:
        count = (ROOT / file).read_text(encoding="utf-8").count(text)
        if count != 1:
            stale.append(f"{name}: the text occurs {count} times in {file}, not once")
    return stale


def first_failure(output: str) -> str:
    for line in output.splitlines():
        if line.startswith(("FAILED ", "ERROR ")):
            return line.split(" ", 1)[1].split(" - ", 1)[0]
    return "(no test named; see the pytest output)"


def run_suite(target: Path, timeout: float) -> tuple[int | None, str, float]:
    """Exit code (None on timeout), output and seconds of one ``pytest -x`` run."""
    env = dict(os.environ, PYTHONPATH=str(target / "src"), PYTHONDONTWRITEBYTECODE="1")
    argv = [sys.executable, "-m", "pytest", "-x", "-q", "-rfE", "-p", "no:cacheprovider"]
    start = time.perf_counter()
    try:
        done = subprocess.run(
            argv + suite_modules(target / "tests"),
            cwd=target,
            env=env,
            capture_output=True,
            text=True,
            timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        return None, "", time.perf_counter() - start
    return done.returncode, done.stdout + done.stderr, time.perf_counter() - start


def run_one(
    timeout: float, file: str | None = None, text: str = "", replacement: str = ""
) -> tuple[int | None, str, float]:
    with tempfile.TemporaryDirectory(prefix="majorchain-mutant-") as tmp:
        target = Path(tmp)
        copy_tree(target)
        if file is not None:
            path = target / file
            source = path.read_text(encoding="utf-8")
            path.write_text(source.replace(text, replacement), encoding="utf-8")
        return run_suite(target, timeout)


def main() -> int:
    stale = stale_mutants()
    if stale:
        print("\n".join(stale))
        print("the mutant list is out of step with src/; no suite was run")
        return 2

    code, output, seconds = run_one(BASELINE_TIMEOUT_S)
    if code != 0:
        print(output)
        print(f"the unmutated copy does not pass ({seconds:.1f} s); no mutant result would mean anything")
        return 2
    print(f"unmutated copy passes in {seconds:.1f} s")

    failed = []
    width = max(len(name) for name, *_ in MUTANTS)
    for name, file, text, replacement in MUTANTS:
        code, output, seconds = run_one(GATE_S, file, text, replacement)
        if code is None:
            verdict = f"NOT KILLED within the {GATE_S} s gate"
            failed.append(name)
        elif code == 0:
            verdict = "SURVIVED"
            failed.append(name)
        else:
            verdict = f"killed by {first_failure(output)}"
        print(f"{name:<{width}}  {seconds:5.1f} s  {verdict}", flush=True)
    print(f"{len(MUTANTS) - len(failed)} of {len(MUTANTS)} mutants killed within {GATE_S} s")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
