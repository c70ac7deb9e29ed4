"""The direct chain search explores one fixed tree.

The golden digest pins, for about 1,500 seeded premise-true chain-completion
instances, the outcome, certificate exponent vectors, node count and space
size of ``solve_theorem_direct`` at the default budget and at budget 4.  The
instances are generated ones with k = 1, 2 and 3 factors, and sandwiched
chain pairs from ``helpers.random_interlaced_pair`` with index lists drawn
until the premises hold.  Any change to the order, the window clamps or
the budget handling of the search changes the digest; the node counts are
what show that the mass clamps and the previous-exponent floor still cut.
"""

import hashlib
import random

from majorchain import (
    DEFAULT_BUDGET,
    GeneratorConfig,
    InstanceGenerator,
    Partition,
    TheoremInstance,
    solve_theorem_direct,
)

from helpers import random_interlaced_pair

BUDGETS = (4, DEFAULT_BUDGET)

# sha256 of the records below, taken from the search with both mass clamps and the
# previous-exponent floor; dropping any one of the three changes it.
GOLDEN = "7e28accb553e47e04d3d522bb32d9ce0fd5c15c4e855b92d76d1929618bc6be8"


def generated_instances():
    for seed in range(900):
        config = GeneratorConfig(
            seed=seed, k=1 + seed % 3, s=2 + seed % 3, max_part=2 + seed % 3, mode="theorem"
        )
        yield InstanceGenerator(config).theorem_instance()


def sandwiched_instances(count, seed):
    """Premise-true instances on random sandwiched (alpha, gamma) pairs."""
    rng = random.Random(seed)
    while count:
        m, p = rng.randint(0, 2), rng.randint(0, 2)
        alpha, gamma = random_interlaced_pair(rng, rng.randint(1, 3), rng.randint(0, 3), m + p, 4)
        c = sorted((rng.randint(0, 4) for _ in range(rng.randint(0, m))), reverse=True)
        r = sorted((rng.randint(0, 4) for _ in range(rng.randint(0, p))), reverse=True)
        inst = TheoremInstance(alpha, gamma, Partition(c), Partition(r), m=m, p=p)
        if inst.premise_holds:
            count -= 1
            yield inst


def record(inst):
    out = []
    for budget in BUDGETS:
        report = solve_theorem_direct(inst, budget=budget)
        certificate = None
        if report.certificate is not None:
            beta = report.certificate.beta
            certificate = tuple(beta.exponent_vector(label) for label in beta.labels)
        out.append((report.outcome, certificate, report.nodes, report.space_size))
    return repr(out).encode()


def test_explored_tree_is_pinned():
    digest = hashlib.sha256()
    for source in (generated_instances(), sandwiched_instances(600, seed=20261018)):
        for inst in source:
            digest.update(record(inst))
            digest.update(b"\n")
    assert digest.hexdigest() == GOLDEN
