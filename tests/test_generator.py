import pytest

from majorchain import (
    GeneratorConfig,
    InstanceGenerator,
    LemmaInstance,
    TheoremInstance,
    generate_lemma_instance,
    generate_theorem_instance,
    plus,
    verify_theorem_premises,
)
from majorchain.jsonio import dumps, lemma_instance_to_obj, theorem_instance_to_obj


class TestConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"k": 0},
            {"s": 0},
            {"max_part": -1},
            {"max_transfer_steps": -1},
            {"mode": "both"},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            GeneratorConfig(seed=0, **kwargs)


class TestLemmaSampling:
    def test_every_instance_satisfies_its_premise(self):
        for seed in range(300):
            inst = generate_lemma_instance(
                GeneratorConfig(seed=seed, k=2, s=3, max_part=3)
            )
            assert isinstance(inst, LemmaInstance)
            assert inst.premise_holds

    def test_pair_and_size_limits_hold(self):
        config = GeneratorConfig(seed=8, k=3, s=2, max_part=4)
        for _ in range(50):
            inst = InstanceGenerator(config).lemma_instance()
            assert inst.k == 3
            assert all(len(d) <= 2 and len(t) <= 2 for d, t in inst.pairs)

    def test_no_transfers_pin_the_premise_to_equality(self):
        for seed in range(100):
            config = GeneratorConfig(seed=seed, k=1, s=3, max_part=3, max_transfer_steps=0)
            inst = InstanceGenerator(config).lemma_instance()
            assert inst.gap_union() == plus(inst.A, inst.B)

    def test_streams_are_deterministic(self):
        config = GeneratorConfig(seed=42, k=2, s=3, max_part=3)
        first = [InstanceGenerator(config).lemma_instance() for _ in range(1)]
        second = [InstanceGenerator(config).lemma_instance() for _ in range(1)]
        assert first == second
        stream_a = InstanceGenerator(config)
        stream_b = InstanceGenerator(config)
        for _ in range(10):
            assert stream_a.lemma_instance() == stream_b.lemma_instance()

    def test_seed_42_twice_gives_byte_identical_json(self):
        config = GeneratorConfig(seed=42)
        first = dumps(lemma_instance_to_obj(generate_lemma_instance(config)))
        second = dumps(lemma_instance_to_obj(generate_lemma_instance(config)))
        assert first == second


class TestTheoremSampling:
    def test_every_instance_satisfies_its_premises(self):
        for seed in range(150):
            inst = generate_theorem_instance(
                GeneratorConfig(seed=seed, k=2, s=3, max_part=3, mode="theorem")
            )
            assert isinstance(inst, TheoremInstance)
            assert verify_theorem_premises(inst)

    def test_mode_switch(self):
        config = GeneratorConfig(seed=3, mode="theorem")
        assert isinstance(InstanceGenerator(config).instance(), TheoremInstance)
        config = GeneratorConfig(seed=3, mode="lemma")
        assert isinstance(InstanceGenerator(config).instance(), LemmaInstance)

    def test_theorem_json_is_deterministic(self):
        config = GeneratorConfig(seed=11, mode="theorem")
        first = dumps(theorem_instance_to_obj(generate_theorem_instance(config)))
        second = dumps(theorem_instance_to_obj(generate_theorem_instance(config)))
        assert first == second
