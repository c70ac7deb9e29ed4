"""Each public solver verifies the certificate it reports exactly once.

``solve_theorem`` checks only the chain it transports, never the splitting
behind it; ``solve_lemma`` runs the one splitting check; the direct search
reports the very chain its leaf verified instead of building it again.
"""

import pytest

import majorchain.solve
from majorchain import (
    GeneratorConfig,
    InstanceGenerator,
    solve_lemma,
    solve_theorem,
    solve_theorem_direct,
    theorem_to_lemma,
)


INSTANCES = [
    InstanceGenerator(
        GeneratorConfig(seed=seed, k=1 + seed % 3, s=3, max_part=3, mode="theorem")
    ).theorem_instance()
    for seed in range(30)
]


@pytest.fixture
def verifications(monkeypatch):
    """Count the solvers' splitting checks and record every chain they verify."""
    seen = {"splittings": 0, "chains": []}
    splitting_checks = majorchain.solve._splitting_checks
    verify_chain = majorchain.solve.verify_theorem_conclusion

    def counting(*args):
        seen["splittings"] += 1
        return splitting_checks(*args)

    def recording(inst, certificate):
        seen["chains"].append(certificate)
        return verify_chain(inst, certificate)

    monkeypatch.setattr(majorchain.solve, "_splitting_checks", counting)
    monkeypatch.setattr(majorchain.solve, "verify_theorem_conclusion", recording)
    return seen


@pytest.mark.parametrize("inst", INSTANCES)
def test_translated_solve_verifies_only_the_reported_chain(verifications, inst):
    report = solve_theorem(inst)
    assert report.found
    assert verifications["splittings"] == 0
    assert verifications["chains"] == [report.certificate]
    assert verifications["chains"][0] is report.certificate


@pytest.mark.parametrize("inst", INSTANCES)
def test_splitting_solve_checks_its_splitting_once(verifications, inst):
    assert solve_lemma(theorem_to_lemma(inst)).found
    assert verifications["splittings"] == 1
    assert verifications["chains"] == []


@pytest.mark.parametrize("inst", INSTANCES)
def test_direct_solve_reports_its_last_verified_leaf(verifications, inst):
    report = solve_theorem_direct(inst)
    assert report.found
    assert verifications["splittings"] == 0
    assert report.certificate is verifications["chains"][-1]

