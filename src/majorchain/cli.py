"""Command-line interface.

Subcommands: ``check`` (verify premises, or a certificate against an
instance), ``solve`` (search for a certificate), ``translate`` (map an
instance to the other form), ``identity`` (compare the two routes to the
lcm-degree sequence of a chain pair), ``gen`` (emit a seeded random
instance) and ``repro-counterexample`` (run the weighted splitting variant
on the instance that falsifies it).

Exit codes, mutually exclusive:

* 0: success (verified, found, translated, identity holds, reproduced);
* 1: verification failed or nothing found;
* 2: malformed input (including a certificate whose shape does not fit the
  instance given to ``check``: a wrong number of partitions, reported at
  ``$.fs``, or a middle chain of the wrong length, at ``$.beta.length``), an
  ``identity`` pair that is not sandwiched, input too large to process (a
  ``MemoryError``, such as ``identity`` on exponents near 2^62), or input a
  solver cannot handle (``--weight`` outside single-pair splitting
  instances, or a chain-completion instance with a factor of degree 2 or
  more given to ``translate``, or to ``solve`` when its premises hold: the
  translation needs degree-1 factors);
* 3: node budget exceeded;
* 4: contradiction tripwire: a premise-satisfying instance with no
  solution, which the existence theorem rules out.  A bug-report artifact
  is written to ``--report-dir`` (the working directory by default); when
  it cannot be written, the stderr line says why and the code is still 4.

The argument parsers are built once per process, on the first dispatch,
and reused by every later ``cli_dispatch`` call, which hands argv to the
named subcommand's parser directly; see ``_build_parser`` and
``cli_dispatch``.
"""

from __future__ import annotations

import argparse
import functools
import sys

from . import jsonio
from .errors import (
    ConclusionViolation,
    InputError,
    LengthMismatch,
    MajorchainError,
    PremiseViolation,
)
from .instances import (
    _verdict,
    check_lemma_conclusion,
    check_lemma_premise,
    check_theorem_conclusion,
    check_theorem_premises,
    lemma_to_theorem,
    theorem_to_lemma,
)
from .partitions import Partition
from .chains import sigma_degree_sequence, sigma_identity_rhs
from .solve import (
    ABORTED,
    DEFAULT_BUDGET,
    FOUND,
    NO_SOLUTION,
    solve_lemma,
    solve_scaled_k1,
    solve_theorem,
)

EXIT_OK = 0
EXIT_FAILED = 1
EXIT_INPUT = 2
EXIT_BUDGET = 3
EXIT_CONTRADICTION = 4

# Exit codes that a solve outcome fixes alone; what ``none`` means depends on
# the command.
_SOLVE_EXIT = {FOUND: EXIT_OK, ABORTED: EXIT_BUDGET}


def _read_json(path: str):
    try:
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc.strerror or exc}", path="") from exc
    except UnicodeDecodeError as exc:
        raise InputError(
            f"cannot read {path}: not UTF-8 text (byte {exc.start}: {exc.reason})", path=""
        ) from exc
    return jsonio.load_json(text)


def _emit(obj) -> None:
    sys.stdout.write(jsonio.dumps(obj))


def _cmd_check(args) -> int:
    data = _read_json(args.instance)
    if args.mode == "lemma":
        inst = jsonio.parse_lemma_instance(data)
        if args.certificate is None:
            checks = check_lemma_premise(inst)
        else:
            certificate = jsonio.parse_f_certificate(_read_json(args.certificate))
            try:
                checks = check_lemma_conclusion(inst, certificate)
            except LengthMismatch as exc:
                raise InputError(str(exc), "$.fs") from exc
    else:
        inst = jsonio.parse_theorem_instance(data)
        if args.certificate is None:
            checks = check_theorem_premises(inst)
        else:
            certificate = jsonio.parse_beta_certificate(_read_json(args.certificate))
            try:
                checks = check_theorem_conclusion(inst, certificate)
            except LengthMismatch as exc:
                raise InputError(str(exc), "$.beta.length") from exc
    verified = _verdict(checks)
    _emit({"verified": verified, "checks": jsonio.transcript_to_obj(checks)})
    return EXIT_OK if verified else EXIT_FAILED


def _cmd_solve(args) -> int:
    data = _read_json(args.instance)
    if args.mode == "lemma":
        inst = jsonio.parse_lemma_instance(data)
        missing = "the premise holds but no splitting exists"
        if args.weight is None:
            report = solve_lemma(inst, budget=args.budget, workers=args.workers)
        elif inst.k != 1:
            raise InputError(
                f"the weighted solver handles exactly one pair, got {inst.k}",
                path="$.pairs",
            )
        else:
            d, t = inst.pairs[0]
            report = solve_scaled_k1(
                d, t, inst.A, inst.B, args.weight, budget=args.budget, workers=args.workers
            )
    else:
        inst = jsonio.parse_theorem_instance(data)
        missing = "the premises hold but no middle chain exists"
        if args.weight is not None:
            raise InputError("--weight applies to single-pair lemma instances only", path="")
        if not inst.premise_holds:
            _emit(
                {
                    "error": "premises do not hold",
                    "checks": jsonio.transcript_to_obj(check_theorem_premises(inst)),
                }
            )
            return EXIT_FAILED
        report = solve_theorem(inst, budget=args.budget, workers=args.workers)
    _emit(jsonio.solve_report_to_obj(report))
    if report.outcome in _SOLVE_EXIT:
        return _SOLVE_EXIT[report.outcome]
    # ``none`` contradicts the existence theorem only for an unweighted search whose
    # premise holds; the weighted variant is not a theorem.
    if args.weight is not None or not inst.premise_holds:
        return EXIT_FAILED
    splitting = inst if args.mode == "lemma" else theorem_to_lemma(inst)
    try:
        artifact = jsonio.write_contradiction_report(splitting, report, args.report_dir)
    except OSError as exc:
        where = f"report could not be written to {args.report_dir}: {exc.strerror or exc}"
    else:
        where = f"report written to {artifact}"
    sys.stderr.write(f"contradiction: {missing}; {where}\n")
    return EXIT_CONTRADICTION


def _cmd_translate(args) -> int:
    data = _read_json(args.instance)
    if args.mode == "theorem":
        translated = theorem_to_lemma(jsonio.parse_theorem_instance(data))
    else:
        translated = lemma_to_theorem(jsonio.parse_lemma_instance(data))
    _emit(jsonio.instance_to_obj(translated))
    return EXIT_OK


def _cmd_identity(args) -> int:
    data = _read_json(args.instance)
    if not isinstance(data, dict) or "delta" not in data or "epsilon" not in data:
        raise InputError("expected an object with 'delta' and 'epsilon' chains", path="$")
    delta = jsonio.parse_chain(data["delta"], "$.delta")
    epsilon = jsonio.parse_chain(data["epsilon"], "$.epsilon")
    y = epsilon.length - delta.length
    if y < 0:
        raise InputError(
            "the epsilon chain must be at least as long as the delta chain", path="$"
        )
    lhs = sigma_degree_sequence(delta, epsilon, y)
    rhs = sigma_identity_rhs(delta, epsilon, y)
    _emit(
        {
            "degree_sequence": jsonio.partition_to_obj(lhs),
            "factor_local_form": jsonio.partition_to_obj(rhs),
            "match": lhs == rhs,
        }
    )
    return EXIT_OK if lhs == rhs else EXIT_FAILED


def _cmd_gen(args) -> int:
    from .generator import GeneratorConfig, InstanceGenerator  # only gen needs the sampler

    config = GeneratorConfig(
        seed=args.seed,
        k=args.k,
        s=args.s,
        max_part=args.max_part,
        max_transfer_steps=args.transfers,
        mode=args.mode,
    )
    _emit(jsonio.instance_to_obj(InstanceGenerator(config).instance()))
    return EXIT_OK


def _cmd_repro_counterexample(args) -> int:
    d = Partition((1, 1))
    t = Partition()
    A = Partition((1, 1))
    B = Partition((1, 1))
    report = solve_scaled_k1(d, t, A, B, w=2, budget=args.budget)
    _emit(jsonio.solve_report_to_obj(report))
    if report.outcome == ABORTED:
        return EXIT_BUDGET
    return EXIT_OK if report.outcome == NO_SOLUTION else EXIT_FAILED


@functools.cache
def _build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """Return the process's one parser and its subcommand parsers by name, built on the first call.

    Building them costs about 15 times as much as parsing one argv, so
    in-process callers of ``cli_dispatch`` would otherwise pay mostly for
    argparse.  Reuse is safe: parsing fills a fresh ``Namespace`` on each
    call and leaves the parsers unchanged; the handlers they name look up
    module globals when they run; and help and usage text is formatted when
    printed, to the ``sys.stdout`` or ``sys.stderr`` of that moment, under
    the fixed ``prog``.
    """
    parser = argparse.ArgumentParser(
        prog="majorchain",
        description="Verify, solve, translate and generate chain-completion "
        "and partition-splitting instances.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_mode(p):
        p.add_argument(
            "--mode",
            choices=("lemma", "theorem"),
            required=True,
            help="which instance form the input file holds",
        )

    p_check = sub.add_parser("check", help="verify premises, or a certificate")
    p_check.add_argument("--instance", required=True, metavar="FILE")
    p_check.add_argument("--certificate", metavar="FILE")
    add_mode(p_check)
    p_check.set_defaults(handler=_cmd_check)

    p_solve = sub.add_parser("solve", help="search for a certificate")
    p_solve.add_argument("--instance", required=True, metavar="FILE")
    add_mode(p_solve)
    p_solve.add_argument("--budget", type=int, default=DEFAULT_BUDGET, metavar="N")
    p_solve.add_argument(
        "--workers",
        type=int,
        default=1,
        metavar="N",
        help="accepted and validated (a positive integer); the search is sequential",
    )
    p_solve.add_argument(
        "--weight",
        type=int,
        metavar="W",
        help="scale the gaps by W (single-pair lemma instances only)",
    )
    p_solve.add_argument("--report-dir", default=".", metavar="DIR")
    p_solve.set_defaults(handler=_cmd_solve)

    p_translate = sub.add_parser("translate", help="map an instance to the other form")
    p_translate.add_argument("--instance", required=True, metavar="FILE")
    add_mode(p_translate)
    p_translate.set_defaults(handler=_cmd_translate)

    p_identity = sub.add_parser(
        "identity", help="compare both routes to the lcm-degree sequence"
    )
    p_identity.add_argument("--instance", required=True, metavar="FILE")
    p_identity.set_defaults(handler=_cmd_identity)

    p_gen = sub.add_parser("gen", help="emit a seeded random instance")
    p_gen.add_argument("--seed", type=int, required=True, metavar="N")
    p_gen.add_argument(
        "--mode", choices=("lemma", "theorem"), default="lemma", metavar="MODE"
    )
    p_gen.add_argument("--k", type=int, default=2)
    p_gen.add_argument("--s", type=int, default=3)
    p_gen.add_argument("--max-part", type=int, default=3, dest="max_part")
    p_gen.add_argument("--transfers", type=int, default=4)
    p_gen.set_defaults(handler=_cmd_gen)

    p_repro = sub.add_parser(
        "repro-counterexample",
        help="run the weighted splitting variant on the instance that falsifies it",
    )
    p_repro.add_argument("--budget", type=int, default=DEFAULT_BUDGET, metavar="N")
    p_repro.set_defaults(handler=_cmd_repro_counterexample)

    return parser, sub.choices


def cli_dispatch(argv=None) -> int:
    """Parse arguments, run the subcommand, and return the exit code.

    An argv that starts with a subcommand name goes straight to that
    subcommand's parser, and arguments it does not know are reported by the
    top-level parser, as argparse's own subcommand dispatch does, with the
    same output.  That skips argparse's top-level scan of the whole argv,
    which cost more than the subcommand's parse.  Any other argv (``-h``, an
    empty argv, an unknown command) goes to the top-level parser.
    """
    parser, commands = _build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    command = commands.get(argv[0]) if argv else None
    try:
        if command is None:
            args = parser.parse_args(argv)
        else:
            args, extras = command.parse_known_args(argv[1:])
            if extras:
                parser.error(f"unrecognized arguments: {' '.join(extras)}")
    except SystemExit as exc:
        # argparse exits 2 on bad usage, matching the input-error code.
        return EXIT_INPUT if exc.code else EXIT_OK
    try:
        return args.handler(args)
    except InputError as exc:
        sys.stderr.write(f"input error: {exc}\n")
        return EXIT_INPUT
    except MemoryError:
        # Until input size is bounded before any work, an input too large to process is malformed.
        sys.stderr.write("input error: the input is too large to process (out of memory)\n")
        return EXIT_INPUT
    except (PremiseViolation, ConclusionViolation) as exc:
        sys.stderr.write(f"verification failed: {exc}\n")
        return EXIT_FAILED
    except (MajorchainError, ValueError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_INPUT


def main() -> None:
    sys.exit(cli_dispatch())


if __name__ == "__main__":
    main()
