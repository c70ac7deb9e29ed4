"""The four benchmark workloads, each a list of ops over majorchain's public API.

A workload builds its inputs from the seed at set-up, then the runner calls
``run`` on one op at a time (the timed part: only the calls into the library)
and ``check`` on its result (untimed: verification against an independent
reference or a recorded answer).  ``check`` returns None when the op is
correct and a one-line reason otherwise.

Every call into the library that ``run`` or ``check`` makes sits in a span
named ``layer.function``; with tracing off the spans cost one no-op ``with``.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from pathlib import Path

import oracle

CORPUS = Path(__file__).with_name("deep_corpus.json")


def plain_lemma(inst) -> tuple:
    """A splitting instance as integer tuples, for the oracle."""
    return (tuple((d.parts, t.parts) for d, t in inst.pairs), inst.A.parts, inst.B.parts)


def lemma_positions(inst) -> int:
    """Positions the splitting search assigns: one per part of each d."""
    return sum(len(d) for d, _ in inst.pairs)


def theorem_positions(inst) -> int:
    """Positions of the splitting search that ``solve_theorem`` runs.

    Pair i of the translated instance has d = the conjugate of the outer
    chain's factor partition, whose length is that factor's top exponent.
    """
    if inst.gamma.length == 0:
        return 0
    return sum(inst.gamma.exponent(f.label, inst.gamma.length) for f in inst.factors)


def note_search(span, report, positions) -> None:
    """Record a search's nodes, and its positions when it found a certificate."""
    if report.found:
        span.note(nodes=report.nodes, positions=positions)
    else:
        span.note(nodes=report.nodes)


def all_hold(checks) -> bool:
    return all(check.holds is True for check in checks)


class Workload:
    """Inputs built from a seed, plus the op and its check."""

    name = ""
    warmup = 10  # ops run once at set-up, untimed
    trace_ops: int | None = None  # ops in the fixed pass of a traced run; None: all

    def __init__(self, mc, seed: int, tracer, workdir: Path):
        self.mc = mc
        self.tracer = tracer
        self.workdir = workdir
        self.expected: dict[tuple, tuple | None] = {}
        self.ops = self.build(random.Random(seed))

    def build(self, rng: random.Random) -> list:
        raise NotImplementedError

    def warmup_ops(self) -> list:
        return self.ops[: self.warmup]

    def run(self, op):
        raise NotImplementedError

    def check(self, op, result) -> str | None:
        raise NotImplementedError

    def subject(self, op) -> tuple:
        """(lemma instance, its theorem form or None, a certificate or None)."""
        raise NotImplementedError

    def lex_smallest(self, inst) -> tuple | None:
        """The oracle's lexicographically smallest certificate, computed once."""
        key = plain_lemma(inst)
        if key not in self.expected:
            self.expected[key] = oracle.lex_smallest_splitting(*key)
        return self.expected[key]

    def _verified_lemma(self, inst, certificate) -> bool:
        with self.tracer.span("instances.verify_lemma"):
            return all_hold(self.mc.check_lemma_conclusion(inst, certificate))

    def _verified_theorem(self, inst, certificate) -> bool:
        with self.tracer.span("instances.verify_theorem"):
            return all_hold(self.mc.check_theorem_conclusion(inst, certificate))


def _shapes(max_len: int, max_part: int) -> list[tuple[int, ...]]:
    """Every partition with at most ``max_len`` parts of at most ``max_part``."""
    shapes = [()]
    frontier = [()]
    for _ in range(max_len):
        frontier = [s + (v,) for s in frontier for v in range(1, (s[-1] if s else max_part) + 1)]
        shapes += frontier
    return shapes


class SplitSweep(Workload):
    """solve_lemma on premise-true instances sampled from the criterion-4 grid."""

    name = "split-sweep"
    size = 1000
    warmup = 50

    def build(self, rng):
        mc = self.mc
        shapes = _shapes(3, 3)
        pairs = [
            (d, t)
            for d in shapes
            for t in shapes
            if len(t) <= len(d) and all(tv <= dv for tv, dv in zip(t, d))
        ]
        bounds = {}
        for A in shapes:
            for B in shapes:
                bounds.setdefault(sum(A) + sum(B), []).append((A, B))
        choices = {}
        ops = []
        while len(ops) < self.size:
            chosen = [rng.choice(pairs) for _ in range(rng.randint(1, 2))]
            gaps = tuple(
                sorted((dv - oracle.at(t, j) for d, t in chosen for j, dv in enumerate(d)), reverse=True)
            )
            if sum(gaps) > 8:
                continue
            if gaps not in choices:
                choices[gaps] = [
                    (A, B)
                    for A, B in bounds.get(sum(gaps), ())
                    if oracle.dominated(gaps, [oracle.at(A, j) + oracle.at(B, j) for j in range(3)])
                ]
            if not choices[gaps]:
                continue
            A, B = rng.choice(choices[gaps])
            inst = mc.LemmaInstance(
                tuple((mc.Partition(d), mc.Partition(t)) for d, t in chosen),
                mc.Partition(A),
                mc.Partition(B),
            )
            ops.append(inst)
        return ops

    def run(self, inst):
        with self.tracer.span("solve.lemma") as span:
            report = self.mc.solve_lemma(inst)
        if self.tracer.enabled:
            note_search(span, report, lemma_positions(inst))
        return report

    def check(self, inst, report):
        if report.outcome != self.mc.FOUND:
            return f"premise-true instance returned {report.outcome}"
        if not self._verified_lemma(inst, report.certificate):
            return "certificate fails check_lemma_conclusion"
        found = tuple(f.parts for f in report.certificate.fs)
        if found != self.lex_smallest(inst):
            return f"certificate {found} is not the lexicographically smallest"
        return None

    def subject(self, inst):
        return inst, self.mc.lemma_to_theorem(inst), self.mc.FCertificate(self.lex_smallest(inst))


class ChainCrosscheck(Workload):
    """solve_theorem and solve_theorem_direct on one generated theorem instance."""

    name = "chain-crosscheck"
    # Op costs spread widely (coefficient of variation about 1.4), so the
    # sample is large enough for its mean to vary little between seeds.
    size = 2000

    def build(self, rng):
        mc = self.mc
        config = mc.GeneratorConfig(seed=rng.randrange(2**32), k=3, s=4, max_part=4, mode="theorem")
        generator = mc.InstanceGenerator(config)
        ops = []
        for _ in range(self.size):
            with self.tracer.span("generator.instance"):
                ops.append(generator.instance())
        return ops

    def run(self, inst):
        mc = self.mc
        with self.tracer.span("solve.theorem") as span:
            translated = mc.solve_theorem(inst)
        if self.tracer.enabled:
            note_search(span, translated, theorem_positions(inst))
        with self.tracer.span("solve.direct") as span:
            direct = mc.solve_theorem_direct(inst)
        span.note(nodes=direct.nodes)
        return translated, direct

    def check(self, inst, reports):
        translated, direct = reports
        if translated.outcome != direct.outcome:
            return f"solvers disagree: {translated.outcome} vs {direct.outcome}"
        if translated.outcome != self.mc.FOUND:
            return f"premise-true instance returned {translated.outcome}"
        for label, report in (("translated", translated), ("direct", direct)):
            if not self._verified_theorem(inst, report.certificate):
                return f"{label} certificate fails check_theorem_conclusion"
        # solve_theorem transports the splitting it finds, so its certificate
        # must be the transport of the oracle's smallest one.  The direct
        # search enumerates in its own order and is only checked above.
        with self.tracer.span("instances.translate"):
            lemma = self.mc.theorem_to_lemma(inst)
        smallest = self.mc.FCertificate(self.lex_smallest(lemma))
        with self.tracer.span("instances.transport"):
            expected = self.mc.f_to_beta(inst, smallest)
        if translated.certificate != expected:
            return "translated certificate is not the transport of the lexicographically smallest splitting"
        return None

    def subject(self, inst):
        return self.mc.theorem_to_lemma(inst), inst, None


class DeepSearch(Workload):
    """solve_lemma on checked-in instances that need 20k-40k search nodes."""

    name = "deep-search"
    trace_ops = 30

    def build(self, rng):
        jsonio = self.mc.jsonio
        data = jsonio.load_json(CORPUS.read_text(encoding="utf-8"))
        ops = [(jsonio.parse_lemma_instance(rec["instance"]), rec) for rec in data["instances"]]
        rng.shuffle(ops)
        return ops

    def warmup_ops(self):
        return [min(self.ops, key=lambda op: op[1]["nodes"])]

    def run(self, op):
        inst = op[0]
        with self.tracer.span("solve.lemma") as span:
            report = self.mc.solve_lemma(inst)
        if self.tracer.enabled:
            note_search(span, report, lemma_positions(inst))
        return report

    def check(self, op, report):
        inst, record = op
        if report.outcome == self.mc.ABORTED:
            return "corpus instance aborted"
        if report.outcome != record["outcome"]:
            if record["premise"]:
                return f"premise-true instance returned {report.outcome}"
            return f"outcome {report.outcome}, recorded {record['outcome']}"
        if report.outcome == self.mc.FOUND:
            if not self._verified_lemma(inst, report.certificate):
                return "certificate fails check_lemma_conclusion"
            found = [list(f.parts) for f in report.certificate.fs]
            if found != record["certificate"]:
                return "certificate differs from the recorded lexicographically smallest one"
        return None

    def subject(self, op):
        inst, record = op
        if not record["premise"]:
            return inst, None, None
        certificate = self.mc.FCertificate(tuple(tuple(f) for f in record["certificate"]))
        return inst, self.mc.lemma_to_theorem(inst), certificate


# The single-pair instance on which doubled gaps admit no splitting.
WEIGHT_COUNTEREXAMPLE = {"pairs": [{"d": [1, 1], "t": []}], "A": [1, 1], "B": [1, 1]}
SMALL_BUDGET = 200
GROUPS = 6

# Per group: (arguments with {file} placeholders, planned exit code, check kind).
COMMANDS = (
    ("check --mode lemma --instance {lemma}", 0, "premises"),
    ("check --mode theorem --instance {theorem}", 0, "premises"),
    ("check --mode lemma --instance {lemma} --certificate {all_lower}", 1, "rejected"),
    ("solve --mode lemma --instance {lemma} --report-dir {dir}", 0, "solve-lemma"),
    ("solve --mode theorem --instance {theorem} --report-dir {dir}", 0, "solve-theorem"),
    ("solve --mode theorem --instance {premise_false} --report-dir {dir}", 1, "premise-false"),
    ("translate --mode lemma --instance {lemma}", 0, "to-theorem"),
    ("translate --mode theorem --instance {theorem}", 0, "to-lemma"),
    ("identity --instance {pair}", 0, "identity"),
    ("solve --mode lemma --weight 2 --instance {doubled}", 0, "weighted"),
    (f"solve --mode lemma --budget {SMALL_BUDGET} --instance {{deep}} --report-dir {{dir}}", 3, "budget"),
)


class CliBatch(Workload):
    """One in-process cli_dispatch call, over a seeded mix of commands and exit codes."""

    name = "cli-batch"
    warmup = 20

    def build(self, rng):
        mc = self.mc
        lemma_gen = mc.InstanceGenerator(mc.GeneratorConfig(seed=rng.randrange(2**32)))
        theorem_gen = mc.InstanceGenerator(
            mc.GeneratorConfig(seed=rng.randrange(2**32), k=3, s=4, max_part=4, mode="theorem")
        )
        single_gen = mc.InstanceGenerator(mc.GeneratorConfig(seed=rng.randrange(2**32), k=1))
        corpus = json.loads(CORPUS.read_text(encoding="utf-8"))["instances"]
        self.groups = []
        ops = []
        for g in range(GROUPS):
            lemma = self._generate(lemma_gen)
            while not lemma.A:  # the all-lower certificate must fail on A
                lemma = self._generate(lemma_gen)
            theorem = self._generate(theorem_gen)
            while theorem.m + theorem.p == 0:  # needs an index to break the premise
                theorem = self._generate(theorem_gen)
            single = self._generate(single_gen)
            self.groups.append((lemma, theorem, single))
            files = self._write_group(g, lemma, theorem, single, rng.choice(corpus)["instance"])
            for args, code, kind in COMMANDS:
                ops.append(([arg.format(**files) for arg in args.split()], code, kind, g))
        path = self._write("weight-counterexample", WEIGHT_COUNTEREXAMPLE)
        ops.append((["solve", "--mode", "lemma", "--weight", "2", "--instance", path], 1, "weighted-none", 0))
        rng.shuffle(ops)
        return ops

    def _write(self, stem: str, obj) -> str:
        path = self.workdir / f"{stem}.json"
        path.write_text(self.mc.jsonio.dumps(obj), encoding="utf-8")
        return str(path)

    def _write_group(self, g: int, lemma, theorem, single, deep: dict) -> dict[str, str]:
        """Write one group's input files; return the COMMANDS placeholders."""
        jsonio = self.mc.jsonio
        # Raising the first index adds one to the index total, so the
        # majorization premise (equal totals) fails.
        broken = jsonio.theorem_instance_to_obj(theorem)
        key = "c" if theorem.m else "r"
        broken[key] = [broken[key][0] + 1] + broken[key][1:] if broken[key] else [1]
        # Doubling A and B matches gaps doubled by --weight 2, so the
        # unit-weight certificates still split the instance.
        doubled = jsonio.lemma_instance_to_obj(single)
        doubled["A"] = [2 * a for a in doubled["A"]]
        doubled["B"] = [2 * b for b in doubled["B"]]
        objects = {
            "lemma": jsonio.lemma_instance_to_obj(lemma),
            "theorem": jsonio.theorem_instance_to_obj(theorem),
            "all_lower": {"fs": [list(t.parts) for _, t in lemma.pairs]},
            "premise_false": broken,
            "pair": {
                "delta": jsonio.chain_to_obj(theorem.alpha),
                "epsilon": jsonio.chain_to_obj(theorem.gamma),
            },
            "doubled": doubled,
            "deep": deep,
        }
        files = {name: self._write(f"{name}-{g}", obj) for name, obj in objects.items()}
        files["dir"] = str(self.workdir)
        return files

    def _generate(self, generator):
        with self.tracer.span("generator.instance"):
            return generator.instance()

    def run(self, op):
        argv = op[0]
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            with self.tracer.span("cli." + argv[0]) as span:
                code = self.mc.cli.cli_dispatch(argv)
        text = out.getvalue()
        if self.tracer.enabled:
            span.note(bytes_out=len(text.encode()))
        return code, text

    def check(self, op, result):
        _, expected_code, kind, g = op
        code, text = result
        if code != expected_code:
            return f"{kind}: exit {code}, expected {expected_code}"
        mc = self.mc
        jsonio = mc.jsonio
        lemma, theorem, single = self.groups[g]
        with self.tracer.span("jsonio.load"):
            obj = jsonio.load_json(text)
        if kind == "premises":
            ok = obj["verified"] is True and all(c["holds"] is True for c in obj["checks"])
        elif kind == "rejected":
            ok = obj["verified"] is False
        elif kind == "premise-false":
            ok = "error" in obj and any(c["holds"] is False for c in obj["checks"])
        elif kind == "identity":
            ok = obj["match"] is True and obj["degree_sequence"] == obj["factor_local_form"]
        elif kind == "to-theorem":
            with self.tracer.span("jsonio.parse"):
                parsed = jsonio.parse_theorem_instance(obj)
            ok = parsed.equivalent(mc.lemma_to_theorem(lemma))
        elif kind == "to-lemma":
            with self.tracer.span("jsonio.parse"):
                parsed = jsonio.parse_lemma_instance(obj)
            ok = parsed.equivalent(mc.theorem_to_lemma(theorem))
        else:
            with self.tracer.span("jsonio.parse"):
                report = jsonio.parse_solve_report(obj)
            ok = self._solve_ok(kind, report, lemma, theorem, single)
        return None if ok else f"{kind}: output does not verify"

    def _solve_ok(self, kind, report, lemma, theorem, single) -> bool:
        mc = self.mc
        if kind == "budget":
            return report.outcome == mc.ABORTED and report.nodes == SMALL_BUDGET
        if kind == "weighted-none":
            return report.outcome == mc.NO_SOLUTION
        if report.outcome != mc.FOUND:
            return False
        if kind == "solve-theorem":
            return self._verified_theorem(theorem, report.certificate)
        fs = tuple(f.parts for f in report.certificate.fs)
        if kind == "solve-lemma":
            return self._verified_lemma(lemma, report.certificate) and fs == self.lex_smallest(lemma)
        # weighted: the doubled instance keeps the unit-weight certificates.
        pairs, A, B = plain_lemma(single)
        doubled_ok = oracle.splitting_holds(pairs, tuple(2 * a for a in A), tuple(2 * b for b in B), fs, w=2)
        return doubled_ok and fs == self.lex_smallest(single)

    def subject(self, op):
        lemma = self.groups[op[3]][0]
        return lemma, self.mc.lemma_to_theorem(lemma), self.mc.FCertificate(self.lex_smallest(lemma))


WORKLOADS = {cls.name: cls for cls in (SplitSweep, ChainCrosscheck, DeepSearch, CliBatch)}
