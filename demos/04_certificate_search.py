"""Certifying searches: every "found" comes with a verified witness.

The splitting solver walks candidate f lists in ascending lexicographic
order with exact mass bounds and prefix pruning, so the reported witness is
the smallest one.  The completion solver reuses it through the translation;
an independent direct enumeration cross-checks the existence verdict.
Reports are deterministic.  ``workers`` is accepted and validated, and the
search is sequential for every value.
"""

from majorchain import (
    GeneratorConfig,
    InstanceGenerator,
    LemmaInstance,
    Partition,
    solve_lemma,
    solve_theorem,
    solve_theorem_direct,
)
from majorchain.jsonio import dumps, solve_report_to_obj

inst = LemmaInstance(
    pairs=(
        (Partition([2, 1]), Partition([1])),
        (Partition([1, 1]), Partition([1])),
    ),
    A=Partition([2]),
    B=Partition([1]),
)
print("premise holds:", inst.premise_holds)

report = solve_lemma(inst)
print("witness:", [f.parts for f in report.certificate.fs])
print("report JSON:")
print(dumps(solve_report_to_obj(report)))

# ``workers`` is validated but the search stays sequential: same report.
assert solve_lemma(inst, workers=4) == report

# Completion instances: translated search vs direct enumeration.
generator = InstanceGenerator(GeneratorConfig(seed=12, mode="theorem"))
completion = generator.theorem_instance()
via_translation = solve_theorem(completion)
direct = solve_theorem_direct(completion)
print("translated route:", via_translation.outcome, f"({via_translation.nodes} nodes)")
print("direct route:   ", direct.outcome, f"({direct.nodes} nodes)")
print("middle chain (translated):", via_translation.certificate.beta)
print("middle chain (direct):    ", direct.certificate.beta)

# A node budget turns an expensive search into an explicit abort.
big = LemmaInstance(
    ((Partition([3, 2, 1]), Partition()), (Partition([3, 2, 1]), Partition())),
    Partition([3, 3]),
    Partition([3, 3]),
)
print("tiny budget:", solve_lemma(big, budget=5).outcome)
print("real budget:", solve_lemma(big).outcome)
