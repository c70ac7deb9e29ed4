"""Layer probe of a traced run: one call into each public function, per input.

A workload's own op touches only some layers (deep-search calls nothing in
``chains`` or ``cli``), yet every traced run reports every per-layer metric.
The probe fills the gaps on the workload's own data: for each of the first
``SUBJECTS`` inputs it calls each listed function once.  A call is timed in a
span only when the op pass of the same run made no span of that name, so
each per-layer time comes from the op itself whenever the op makes that call.

Searches in the probe take a small node budget, so a probe on deep-search
inputs stays bounded; an aborted search is still a timed call.
"""

from __future__ import annotations

import contextlib
import io
from pathlib import Path

from tracing import NULL
from workloads import lemma_positions, note_search, theorem_positions

SUBJECTS = 20
PROBE_BUDGET = 500


class Probe:
    def __init__(self, mc, tracer, workdir: Path):
        self.mc = mc
        self.tracer = tracer
        self.workdir = workdir
        self.covered = tracer.names()

    def span(self, name: str):
        """A span named ``name``, or a no-op one when the op pass made one."""
        return NULL.span(name) if name in self.covered else self.tracer.span(name)

    def call(self, name: str, fn, *args, **kwargs):
        with self.span(name):
            return fn(*args, **kwargs)

    def cli(self, argv: list[str]) -> None:
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            with self.span("cli." + argv[0]) as span:
                self.mc.cli.cli_dispatch(argv)
        span.note(bytes_out=len(out.getvalue().encode()))

    def dumps(self, obj, stem: str) -> str:
        """Serialize through jsonio and keep a copy on disk for the CLI calls."""
        with self.span("jsonio.dumps") as span:
            text = self.mc.jsonio.dumps(obj)
        span.note(bytes_out=len(text.encode()))
        path = self.workdir / f"probe-{stem}.json"
        path.write_text(text, encoding="utf-8")
        return str(path)

    def run(self, index: int, lemma, theorem, certificate) -> None:
        mc, call = self.mc, self.call
        jsonio = mc.jsonio

        pooled = mc.Partition()
        for d, t in lemma.pairs:
            for part in (d, t):
                call("partitions.construct", mc.Partition, part.parts)
            call("partitions.dual", mc.dual, d)
            gap = call("partitions.diff_sorted", mc.diff_sorted, d, t)
            pooled = call("partitions.union", mc.union, pooled, gap)
        for part in (lemma.A, lemma.B):
            call("partitions.construct", mc.Partition, part.parts)
        call("partitions.majorizes", mc.majorizes, pooled, mc.plus(lemma.A, lemma.B))

        call("instances.lemma_premise", mc.check_lemma_premise, lemma)
        with self.span("solve.lemma") as span:
            report = mc.solve_lemma(lemma, budget=PROBE_BUDGET)
        note_search(span, report, lemma_positions(lemma))
        if certificate is None and report.found:
            certificate = report.certificate
        if certificate is not None:
            call("instances.verify_lemma", mc.check_lemma_conclusion, lemma, certificate)

        lemma_file = self.dumps(jsonio.lemma_instance_to_obj(lemma), "lemma")
        text = Path(lemma_file).read_text(encoding="utf-8")
        obj = call("jsonio.load", jsonio.load_json, text)
        call("jsonio.parse", jsonio.parse_lemma_instance, obj)

        self.cli(["check", "--mode", "lemma", "--instance", lemma_file])
        self.cli(
            ["solve", "--mode", "lemma", "--budget", str(PROBE_BUDGET),
             "--instance", lemma_file, "--report-dir", str(self.workdir)]
        )
        self.cli(["translate", "--mode", "lemma", "--instance", lemma_file])

        config = mc.GeneratorConfig(
            seed=index,
            k=max(lemma.k, 1),
            s=max(lemma.s, 1),
            max_part=max((d[0] for d, _ in lemma.pairs if d), default=1),
            mode="theorem",
        )
        call("generator.instance", mc.InstanceGenerator(config).instance)

        if theorem is None:
            return
        y = theorem.m + theorem.p
        alpha, gamma = theorem.alpha, theorem.gamma
        call("chains.interlace_check", mc.interlace_check, alpha, gamma, y)
        for i in range(y + 1):
            call("chains.pi_degree", mc.pi_degree, i, alpha, gamma)
        call("chains.sigma_degree_sequence", mc.sigma_degree_sequence, alpha, gamma, y)
        call("chains.sigma_identity_rhs", mc.sigma_identity_rhs, alpha, gamma, y)

        call("instances.theorem_premises", mc.check_theorem_premises, theorem)
        call("instances.translate", mc.theorem_to_lemma, theorem)
        if certificate is not None:
            beta = call("instances.transport", mc.f_to_beta, theorem, certificate)
            call("instances.verify_theorem", mc.check_theorem_conclusion, theorem, beta)
        with self.span("solve.theorem") as span:
            report = mc.solve_theorem(theorem, budget=PROBE_BUDGET)
        note_search(span, report, theorem_positions(theorem))
        with self.span("solve.direct") as span:
            report = mc.solve_theorem_direct(theorem, budget=PROBE_BUDGET)
        span.note(nodes=report.nodes)

        self.dumps(jsonio.theorem_instance_to_obj(theorem), "theorem")
        pair_file = self.dumps(
            {"delta": jsonio.chain_to_obj(alpha), "epsilon": jsonio.chain_to_obj(gamma)}, "pair"
        )
        self.cli(["identity", "--instance", pair_file])
