"""Exact partition majorization, divisibility-chain invariants, and
certifying completion solvers.

The package splits into five layers:

* :mod:`majorchain.partitions`: partition values and their algebra
  (conjugate, union, sum, sorted difference, dominance order);
* :mod:`majorchain.chains`: divisibility chains as factor exponents, with
  the lcm-product degree sequence and its factor-local form;
* :mod:`majorchain.instances`: the chain-completion and partition-splitting
  problem forms, their verifiers, and the translation between them;
* :mod:`majorchain.solve`: bounded exhaustive searches producing verified
  certificates;
* :mod:`majorchain.generator` / :mod:`majorchain.jsonio` /
  :mod:`majorchain.cli`: seeded instance sampling, wire formats, and the
  command-line front end.
"""

from .errors import (
    ConclusionViolation,
    DominanceViolation,
    IndexOutOfRange,
    InputError,
    InterlaceViolation,
    LengthMismatch,
    LengthOverflow,
    MajorchainError,
    NonLinearFactor,
    NotAPartition,
    PremiseViolation,
)
from .partitions import (
    Partition,
    as_partition,
    diff_sorted,
    dual,
    majorizes,
    plus,
    scaled,
    union,
    weight,
)
from .chains import (
    Factor,
    PolyChain,
    chain_validate,
    interlace_check,
    pi_degree,
    sigma_degree_sequence,
    sigma_identity_rhs,
)
from .instances import (
    BetaCertificate,
    ConditionCheck,
    FCertificate,
    LemmaInstance,
    TheoremInstance,
    beta_to_f,
    check_lemma_conclusion,
    check_lemma_premise,
    check_theorem_conclusion,
    check_theorem_premises,
    f_to_beta,
    lemma_to_theorem,
    theorem_to_lemma,
    verify_lemma_conclusion,
    verify_lemma_premise,
    verify_theorem_conclusion,
    verify_theorem_premises,
)
from .solve import (
    ABORTED,
    DEFAULT_BUDGET,
    FOUND,
    NO_SOLUTION,
    SolveReport,
    search_trace_hash,
    solve_lemma,
    solve_scaled_k1,
    solve_theorem,
    solve_theorem_direct,
)

_GENERATOR_NAMES = frozenset(
    ("GeneratorConfig", "InstanceGenerator", "generate_lemma_instance", "generate_theorem_instance")
)


def __getattr__(name):
    """Load the sampler, and with it ``random``, on the first use of one of its names."""
    if name in _GENERATOR_NAMES:
        from . import generator
        return getattr(generator, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__version__ = "0.1.0"

__all__ = [
    "ABORTED",
    "BetaCertificate",
    "ConclusionViolation",
    "ConditionCheck",
    "DEFAULT_BUDGET",
    "DominanceViolation",
    "FCertificate",
    "FOUND",
    "Factor",
    "GeneratorConfig",
    "IndexOutOfRange",
    "InputError",
    "InstanceGenerator",
    "InterlaceViolation",
    "LemmaInstance",
    "LengthMismatch",
    "LengthOverflow",
    "MajorchainError",
    "NO_SOLUTION",
    "NonLinearFactor",
    "NotAPartition",
    "Partition",
    "PolyChain",
    "PremiseViolation",
    "SolveReport",
    "TheoremInstance",
    "as_partition",
    "beta_to_f",
    "chain_validate",
    "check_lemma_conclusion",
    "check_lemma_premise",
    "check_theorem_conclusion",
    "check_theorem_premises",
    "diff_sorted",
    "dual",
    "f_to_beta",
    "generate_lemma_instance",
    "generate_theorem_instance",
    "interlace_check",
    "lemma_to_theorem",
    "majorizes",
    "pi_degree",
    "plus",
    "scaled",
    "search_trace_hash",
    "sigma_degree_sequence",
    "sigma_identity_rhs",
    "solve_lemma",
    "solve_scaled_k1",
    "solve_theorem",
    "solve_theorem_direct",
    "theorem_to_lemma",
    "union",
    "verify_lemma_conclusion",
    "verify_lemma_premise",
    "verify_theorem_conclusion",
    "verify_theorem_premises",
    "weight",
]
