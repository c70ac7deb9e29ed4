"""Golden digest of the instance sampler's seeded streams.

The other generator tests compare two streams inside one process, so a
change that alters every stream the same way would pass them.  This digest
was recorded from an earlier version of the sampler and pins the JSON bytes
of 6,000 instances: both modes, k = 1-3, with and without unit transfers,
two draws per generator.
"""

import hashlib

from majorchain import GeneratorConfig, InstanceGenerator
from majorchain.jsonio import dumps, instance_to_obj

SEEDS = range(125)
SHAPES = ((2, 2), (3, 4))  # (s, max_part)
GOLDEN = "4871227d0f18cbb5ba3586eaec64f34e69ac5afaf82f8c118135570b40326fc3"


def stream_digest() -> tuple[int, str]:
    digest = hashlib.sha256()
    count = 0
    for mode in ("lemma", "theorem"):
        for k in (1, 2, 3):
            for transfers in (0, 4):
                for s, max_part in SHAPES:
                    for seed in SEEDS:
                        config = GeneratorConfig(
                            seed=seed, k=k, s=s, max_part=max_part,
                            max_transfer_steps=transfers, mode=mode,
                        )
                        generator = InstanceGenerator(config)
                        for _ in range(2):
                            digest.update(dumps(instance_to_obj(generator.instance())).encode())
                            count += 1
    return count, digest.hexdigest()


def test_seeded_streams_match_the_golden_digest():
    assert stream_digest() == (6000, GOLDEN)
