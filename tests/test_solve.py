import itertools
import random

import pytest

from majorchain import (
    ABORTED,
    BetaCertificate,
    FOUND,
    NO_SOLUTION,
    Factor,
    GeneratorConfig,
    InstanceGenerator,
    LemmaInstance,
    Partition,
    PolyChain,
    PremiseViolation,
    TheoremInstance,
    search_trace_hash,
    solve_lemma,
    solve_scaled_k1,
    solve_theorem,
    solve_theorem_direct,
    theorem_to_lemma,
    verify_lemma_conclusion,
    verify_theorem_conclusion,
    weight,
)
import majorchain.solve as solve_module

from helpers import oracle_lemma_solutions

X = Factor("x")


def running_instance():
    alpha = PolyChain(1, {X: (1,)})
    gamma = PolyChain(3, {X: (0, 1, 2)})
    return TheoremInstance(alpha, gamma, Partition([0]), Partition([0]), m=1, p=1)


def lemma(pairs, A, B):
    return LemmaInstance(
        tuple((Partition(d), Partition(t)) for d, t in pairs), Partition(A), Partition(B)
    )


class TestSolveLemma:
    def test_two_pair_instance_matches_the_enumeration_oracle(self):
        inst = lemma([((2, 1), (1,)), ((1, 1), (1,))], (2,), (1,))
        solutions = oracle_lemma_solutions(inst)
        assert solutions, "the premise holds, so the oracle must find something"
        report = solve_lemma(inst)
        assert report.outcome == FOUND
        assert report.certificate == solutions[0]

    def test_forced_trivial_solution(self):
        inst = lemma([((2, 2), (2, 2)), ((1,), (1,))], (), ())
        report = solve_lemma(inst)
        assert report.outcome == FOUND
        assert report.certificate.fs == (Partition([2, 2]), Partition([1]))

    def test_empty_instance(self):
        inst = lemma([], (), ())
        report = solve_lemma(inst)
        assert report.outcome == FOUND and report.certificate.fs == ()
        assert report.nodes == 0

    @pytest.mark.parametrize("A, B", [((1,), ()), ((), (1,)), ((2,), (1,))])
    def test_no_positions_and_a_nonempty_side_is_none_for_no_nodes(self, A, B):
        # With no positions the gaps total 0, so the root totals test decides the
        # search: only f = () exists, and it splits nothing.  A budget of 0 shows
        # that costs no node.
        report = solve_lemma(lemma([((), ())], A, B), budget=0)
        assert (report.outcome, report.certificate, report.nodes) == (NO_SOLUTION, None, 0)

    def test_premise_violating_instance_is_just_unsolvable(self):
        inst = lemma([((1, 1), ())], (1, 1), (1, 1))
        assert not inst.premise_holds
        report = solve_lemma(inst)
        assert report.outcome == NO_SOLUTION

    def test_report_certificates_always_verify(self):
        rng = random.Random(99)
        for seed in range(120):
            config = GeneratorConfig(
                seed=seed, k=rng.randint(1, 2), s=rng.randint(1, 3), max_part=3
            )
            inst = InstanceGenerator(config).lemma_instance()
            report = solve_lemma(inst)
            assert report.outcome == FOUND
            assert verify_lemma_conclusion(inst, report.certificate)

    def test_lexicographic_minimality_against_the_oracle(self):
        rng = random.Random(4242)
        for seed in range(80):
            config = GeneratorConfig(
                seed=seed, k=rng.randint(1, 2), s=2, max_part=2, max_transfer_steps=3
            )
            inst = InstanceGenerator(config).lemma_instance()
            solutions = oracle_lemma_solutions(inst)
            report = solve_lemma(inst)
            assert report.outcome == FOUND
            assert report.certificate == solutions[0]

    def test_budget_abort(self):
        inst = lemma([((3, 2, 1), ()), ((3, 2, 1), ())], (3, 3), (3, 3))
        report = solve_lemma(inst, budget=3)
        assert report.outcome == ABORTED
        assert report.nodes == 3 and report.certificate is None

    def test_zero_budget(self):
        inst = lemma([((1,), ())], (1,), ())
        report = solve_lemma(inst, budget=0)
        assert report.outcome == ABORTED and report.nodes == 0

    def test_space_size_is_the_raw_box(self):
        inst = lemma([((2, 1), (1,)), ((1, 1), (1,))], (2,), (1,))
        # gaps per position: 1, 1, 0, 1 -> box 2*2*1*2.
        assert solve_lemma(inst).space_size == 8


class TestDeterminism:
    def test_workers_do_not_change_the_report(self):
        for seed in (0, 1, 7, 2024):
            inst = InstanceGenerator(
                GeneratorConfig(seed=seed, k=2, s=3, max_part=3)
            ).lemma_instance()
            sequential = solve_lemma(inst, workers=1)
            for workers in (2, 4):
                assert solve_lemma(inst, workers=workers) == sequential

    def test_workers_do_not_change_aborted_reports(self):
        inst = lemma([((3, 2, 1), ()), ((3, 2, 1), ())], (3, 3), (3, 3))
        for budget in (0, 1, 5, 17):
            sequential = solve_lemma(inst, budget=budget, workers=1)
            parallel = solve_lemma(inst, budget=budget, workers=4)
            assert parallel == sequential

    def test_repeated_runs_are_identical(self):
        inst = InstanceGenerator(GeneratorConfig(seed=5)).lemma_instance()
        assert solve_lemma(inst) == solve_lemma(inst)

    def test_trace_hash_is_stable(self):
        inst = lemma([((2, 1), (1,))], (1,), (1,))
        assert search_trace_hash(inst) == search_trace_hash(inst)


class TestSolveScaled:
    def test_weighted_variant_has_no_solution(self):
        # Doubled gaps: the premise holds with equality yet no splitting
        # exists, because a doubled unit gap cannot fit under parts of 1.
        report = solve_scaled_k1((1, 1), (), (1, 1), (1, 1), w=2)
        assert report.outcome == NO_SOLUTION

    def test_unweighted_contrast_instance(self):
        # The same gap structure with the pooled bound (1)+(1) satisfies the
        # unweighted premise and splits at f = (1, 0).
        report = solve_scaled_k1((1, 1), (), (1,), (1,), w=1)
        assert report.outcome == FOUND
        assert report.certificate.fs == (Partition([1]),)

    def test_weight_one_agrees_with_the_plain_solver(self):
        rng = random.Random(310)
        for seed in range(60):
            inst = InstanceGenerator(
                GeneratorConfig(seed=seed, k=1, s=3, max_part=3)
            ).lemma_instance()
            d, t = inst.pairs[0]
            scaled_report = solve_scaled_k1(d, t, inst.A, inst.B, w=1)
            plain_report = solve_lemma(inst)
            assert scaled_report.outcome == plain_report.outcome
            if scaled_report.outcome == FOUND:
                assert scaled_report.certificate == plain_report.certificate

    def test_equal_bounds_force_the_trivial_candidate(self):
        report = solve_scaled_k1((2, 1), (2, 1), (1, 1), (), w=2)
        assert report.outcome == NO_SOLUTION  # pooled gaps are empty, |A| is not

    def test_weight_validation(self):
        with pytest.raises(ValueError):
            solve_scaled_k1((1,), (), (1,), (), w=0)


class TestSolveTheorem:
    def test_running_example(self):
        inst = running_instance()
        report = solve_theorem(inst)
        assert report.outcome == FOUND
        assert verify_theorem_conclusion(inst, report.certificate)
        assert report.certificate.beta.exponent_vector("x") == (0, 2)

    def test_empty_completion(self):
        alpha = PolyChain(2, {X: (1, 2)})
        inst = TheoremInstance(alpha, alpha, Partition(), Partition(), m=0, p=0)
        report = solve_theorem(inst)
        assert report.outcome == FOUND
        assert report.certificate.beta == alpha

    def test_premise_guard(self):
        alpha = PolyChain(1, {X: (1,)})
        gamma = PolyChain(3, {X: (0, 1, 2)})
        inst = TheoremInstance(alpha, gamma, Partition([1]), Partition([0]), m=1, p=1)
        with pytest.raises(PremiseViolation):
            solve_theorem(inst)


class TestSolveTheoremDirect:
    def test_running_example(self):
        inst = running_instance()
        report = solve_theorem_direct(inst)
        assert report.outcome == FOUND
        assert verify_theorem_conclusion(inst, report.certificate)

    def test_empty_completion(self):
        alpha = PolyChain(2, {X: (1, 2)})
        inst = TheoremInstance(alpha, alpha, Partition(), Partition(), m=0, p=0)
        report = solve_theorem_direct(inst)
        assert report.outcome == FOUND and report.certificate.beta == alpha

    def test_agreement_with_the_translated_route(self):
        for seed in range(60):
            inst = InstanceGenerator(
                GeneratorConfig(seed=seed, k=2, s=2, max_part=2, mode="theorem")
            ).theorem_instance()
            translated = solve_theorem(inst)
            direct = solve_theorem_direct(inst)
            assert translated.outcome == direct.outcome == FOUND
            assert verify_theorem_conclusion(inst, translated.certificate)
            assert verify_theorem_conclusion(inst, direct.certificate)

    def test_transport_round_trip_on_solver_output(self):
        from majorchain import beta_to_f, f_to_beta

        for seed in range(40):
            inst = InstanceGenerator(
                GeneratorConfig(seed=seed, k=2, s=2, max_part=2, mode="theorem")
            ).theorem_instance()
            translated = theorem_to_lemma(inst)
            report = solve_lemma(translated)
            assert report.outcome == FOUND
            beta = f_to_beta(inst, report.certificate)
            assert verify_theorem_conclusion(inst, beta)
            assert beta_to_f(inst, beta) == report.certificate


class TestEngineAgainstOracles:
    def test_scaled_search_matches_enumeration(self):
        from helpers import oracle_scaled_solutions
        rng = random.Random(2718)
        checked = found = 0
        for _ in range(400):
            length = rng.randint(0, 3)
            t = Partition(sorted((rng.randint(0, 3) for _ in range(length)), reverse=True))
            gap = Partition(sorted((rng.randint(0, 3) for _ in range(length)), reverse=True))
            from majorchain import plus
            d = plus(t, gap)
            A = Partition(sorted((rng.randint(0, 4) for _ in range(rng.randint(0, 3))), reverse=True))
            B = Partition(sorted((rng.randint(0, 4) for _ in range(rng.randint(0, 3))), reverse=True))
            w = rng.randint(1, 3)
            report = solve_scaled_k1(d, t, A, B, w)
            solutions = oracle_scaled_solutions(d, t, A, B, w)
            checked += 1
            if solutions:
                found += 1
                assert report.outcome == FOUND
                assert report.certificate.fs[0] == solutions[0]
            else:
                assert report.outcome == NO_SOLUTION
        assert found > 20  # the sweep must exercise both verdicts
        assert checked - found > 20

    def test_plain_search_matches_enumeration_on_arbitrary_instances(self):
        # Premise-violating instances included: the solver's verdict is
        # whatever enumeration says, with the identical minimal witness.
        from helpers import oracle_lemma_solutions
        from majorchain import plus
        rng = random.Random(1618)
        agreements = {True: 0, False: 0}
        for _ in range(300):
            pairs = []
            for _ in range(rng.randint(0, 2)):
                length = rng.randint(0, 3)
                t = Partition(sorted((rng.randint(0, 2) for _ in range(length)), reverse=True))
                gap = Partition(sorted((rng.randint(0, 2) for _ in range(length)), reverse=True))
                pairs.append((plus(t, gap), t))
            inst = LemmaInstance(
                tuple(pairs),
                Partition(sorted((rng.randint(0, 3) for _ in range(rng.randint(0, 3))), reverse=True)),
                Partition(sorted((rng.randint(0, 3) for _ in range(rng.randint(0, 3))), reverse=True)),
            )
            report = solve_lemma(inst)
            solutions = oracle_lemma_solutions(inst)
            if solutions:
                assert report.outcome == FOUND
                assert report.certificate == solutions[0]
            else:
                assert report.outcome == NO_SOLUTION
            agreements[bool(solutions)] += 1
        assert min(agreements.values()) > 30

    def test_replay_fuzz_across_budgets_and_workers(self):
        rng = random.Random(99199)
        for _ in range(150):
            inst = InstanceGenerator(
                GeneratorConfig(seed=rng.randint(0, 10**6), k=2, s=3, max_part=3)
            ).lemma_instance()
            budget = rng.choice((0, 1, 2, 3, 5, 8, 13, 50, 10**6))
            baseline = solve_lemma(inst, budget=budget, workers=1)
            for workers in (2, 5):
                assert solve_lemma(inst, budget=budget, workers=workers) == baseline

    def test_weight_that_cannot_divide_the_mass(self):
        report = solve_scaled_k1((2, 1), (), (1, 1, 1), (), w=2)
        assert report.outcome == NO_SOLUTION  # odd target under even scaled gaps


def generated_theorem_instances(count, seed):
    rng = random.Random(seed)
    for _ in range(count):
        config = GeneratorConfig(
            seed=rng.randrange(2**32),
            k=rng.randint(2, 3),
            s=rng.randint(2, 3),
            max_part=rng.randint(2, 3),
            mode="theorem",
        )
        yield InstanceGenerator(config).theorem_instance()


def sandwich_window(inst, label, q):
    """Exponents allowed at position q: gamma(q)..gamma(q+p), alpha(q-m)..alpha(q)."""
    lo = max(inst.gamma.exponent(label, q), inst.alpha.exponent(label, q - inst.m))
    hi = inst.gamma.exponent(label, q + inst.p)
    if q <= inst.n:
        hi = min(hi, inst.alpha.exponent(label, q))
    return range(lo, hi + 1)


def mass(inst, chain):
    return sum(
        factor.degree * sum(chain.exponent_vector(factor.label)) for factor in inst.factors
    )


def first_verifying_chain(inst):
    """The first middle chain, in the direct search's order, that verifies.

    Positions run factor by factor, q = 1..n+m, each over its sandwich
    window in ascending order; only non-decreasing vectors are chains.
    """
    length = inst.n + inst.m
    per_factor = [
        [
            vec
            for vec in itertools.product(
                *(sandwich_window(inst, factor.label, q) for q in range(1, length + 1))
            )
            if all(a <= b for a, b in zip(vec, vec[1:]))
        ]
        for factor in inst.factors
    ]
    for vectors in itertools.product(*per_factor):
        chain = PolyChain(length, dict(zip(inst.factors, vectors)))
        if verify_theorem_conclusion(inst, BetaCertificate(chain)):
            return chain
    return None


class TestDirectMassWindow:
    def test_certificate_is_the_first_verifying_chain_of_the_plain_enumeration(self):
        for inst in generated_theorem_instances(400, seed=4242):
            report = solve_theorem_direct(inst)
            assert report.outcome == FOUND
            assert report.certificate.beta == first_verifying_chain(inst)

    def test_every_verified_leaf_has_the_target_mass(self, monkeypatch):
        leaves = []

        def recording(inst, certificate):
            leaves.append((inst, certificate.beta))
            return verify_theorem_conclusion(inst, certificate)

        monkeypatch.setattr(solve_module, "verify_theorem_conclusion", recording)
        for inst in generated_theorem_instances(300, seed=2424):
            assert solve_theorem_direct(inst).outcome == FOUND
        assert len(leaves) >= 300
        for inst, beta in leaves:
            assert mass(inst, beta) == weight(inst.c_plus) + mass(inst, inst.alpha)


class TestLongSearches:
    """Each search is a loop, so its depth is not bounded by the interpreter's recursion limit.

    On d = 1^n the splitting search costs n nodes: at each of the first |A|
    positions the window starts at 1, the least value whose lower gaps can
    still reach |A|, so no value is rejected.  The short case shows a wrong
    cut in well under a second.
    """

    @pytest.mark.parametrize(
        "n, a, b",
        [(10, 5, 5), (1500, 1500, 0), (2000, 1000, 1000)],
        ids=["10", "1500", "2000"],
    )
    def test_splitting_search_finds_a_long_instance(self, n, a, b):
        inst = lemma([((1,) * n, ())], (1,) * a, (1,) * b)
        assert inst.premise_holds
        report = solve_lemma(inst)
        assert (report.outcome, report.nodes) == (FOUND, n)
        assert report.certificate.fs == (Partition((1,) * a),)

    def test_direct_search_finds_a_long_instance(self):
        chain = PolyChain(2000, {X: (0,) * 2000})
        inst = TheoremInstance(chain, chain, Partition(), Partition(), m=0, p=0)
        report = solve_theorem_direct(inst)
        assert (report.outcome, report.nodes) == (FOUND, 2000)
        assert report.certificate.beta == chain


class TestWideParts:
    """Mass bounds the window, so a wide part costs one node however far its window reaches.

    On d = 100000^n, t = () with A = B = 100000^(n/2), every position's window starts at
    50000, the least value whose lower gaps can still reach |A|, and that value is the
    splitting's.  Trying the values below it one node each spends the default budget.
    """

    @pytest.mark.parametrize("n", [30, 60])
    def test_a_wide_pair_costs_one_node_per_position(self, n):
        half = (100000,) * (n // 2)
        report = solve_lemma(lemma([((100000,) * n, ())], half, half))
        assert (report.outcome, report.nodes) == (FOUND, n)
        assert report.certificate.fs == (Partition((50000,) * n),)

    def test_parts_past_a_machine_word(self):
        big = 10**30
        report = solve_lemma(lemma([((big, big), ())], (big,), (big,)))
        assert (report.outcome, report.nodes) == (FOUND, 2)
        assert report.certificate.fs == (Partition((big // 2, big // 2)),)

    def test_doubled_gaps_on_a_wide_pair(self):
        half = Partition((200000,) * 15)
        report = solve_scaled_k1(Partition((100000,) * 30), Partition(), half, half, 2)
        assert (report.outcome, report.nodes) == (FOUND, 30)
        assert report.certificate.fs == (Partition((50000,) * 30),)


class TestTranslatedReport:
    """solve_theorem reports the splitting search it ran; only the certificate is transported."""

    @pytest.mark.parametrize("budget", [0, 1, 2, 5, None])
    def test_equals_the_lemma_report(self, budget):
        kwargs = {} if budget is None else {"budget": budget}
        outcomes = set()
        for inst in generated_theorem_instances(40, seed=17):
            theorem = solve_theorem(inst, **kwargs)
            splitting = solve_lemma(theorem_to_lemma(inst), **kwargs)
            assert (theorem.outcome, theorem.nodes, theorem.budget, theorem.space_size) == (
                splitting.outcome,
                splitting.nodes,
                splitting.budget,
                splitting.space_size,
            )
            if theorem.found:
                assert verify_theorem_conclusion(inst, theorem.certificate)
            else:
                assert theorem.certificate is None
            outcomes.add(theorem.outcome)
        assert FOUND in outcomes
        assert (ABORTED in outcomes) == (budget is not None)

    @pytest.mark.parametrize("budget", [0, 1, 2, 5])
    def test_aborted_direct_report_spends_the_whole_budget(self, budget):
        aborted = 0
        for inst in generated_theorem_instances(40, seed=17):
            report = solve_theorem_direct(inst, budget=budget)
            if report.outcome == ABORTED:
                assert (report.nodes, report.budget, report.certificate) == (budget, budget, None)
                aborted += 1
        assert aborted
