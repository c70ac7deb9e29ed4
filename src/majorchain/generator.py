"""Deterministic random instances whose premises hold by construction.

The sampler never rejects: it draws A and B, pools them, loosens the pooled
partition with unit transfers (each moves one box from a larger part to a
strictly smaller one, which preserves the total and can only lower prefix
sums, so the result stays majorized by the original), splits the loosened
parts into per-pair gap groups, and adds each group onto a sampled base t^i
to make d^i.  The pooled gaps of the resulting instance are then exactly the
loosened partition, so the premise holds with no checking needed, and with
zero transfer steps it holds with equality.  Theorem-mode instances are the
lemma instances translated.

Identical configurations produce identical instance streams.
"""

from __future__ import annotations

import random

from .errors import _int_argument, _Value
from .instances import LemmaInstance, TheoremInstance, lemma_to_theorem
from .partitions import Partition, plus


class GeneratorConfig(
    _Value, fields=("seed", "k", "s", "max_part", "max_transfer_steps", "mode")
):
    """Knobs of the instance sampler.

    ``k`` pairs of padded length up to ``s`` with parts up to ``max_part``;
    up to ``max_transfer_steps`` unit transfers loosen the premise from
    equality.  ``mode`` picks the form ``InstanceGenerator.instance`` emits:
    "lemma" or "theorem".
    """

    def __init__(
        self,
        seed: int,
        k: int = 2,
        s: int = 3,
        max_part: int = 3,
        max_transfer_steps: int = 4,
        mode: str = "lemma",
    ):
        _int_argument("k", k, minimum=1)
        _int_argument("s", s, minimum=1)
        _int_argument("max_part", max_part)
        _int_argument("max_transfer_steps", max_transfer_steps)
        if mode not in ("lemma", "theorem"):
            raise ValueError(f"mode must be 'lemma' or 'theorem', got {mode!r}")
        self.__dict__.update(
            seed=seed, k=k, s=s, max_part=max_part, max_transfer_steps=max_transfer_steps, mode=mode
        )


def _sample_partition(rng: random.Random, max_len: int, max_part: int) -> Partition:
    # randrange(n + 1) draws the same value as randint(0, n), with less call overhead.
    length = rng.randrange(max_len + 1)
    return Partition(sorted([rng.randrange(max_part + 1) for _ in range(length)], reverse=True))


def _transfer_step(rng: random.Random, parts: list[int], max_slots: int) -> list[int]:
    """One unit moved from a larger part to a strictly smaller one.

    The target may be a fresh zero slot as long as the number of nonzero
    parts stays within ``max_slots`` (so the parts remain groupable).
    Returns the re-sorted parts; unchanged when no move is possible.

    Every part stays at 1 or more: the parts start as those of a partition,
    and a source gives up a unit only when it exceeds its target (at least
    1) or, for a fresh slot, when it exceeds 1.
    """
    slots = list(parts)
    can_extend = len(slots) < max_slots
    moves = []
    for u, source in enumerate(slots):
        moves += [(u, v) for v, target in enumerate(slots) if source > target]
        if can_extend and source > 1:
            # Target a fresh zero slot; the part count grows by one.
            moves.append((u, len(slots)))
    if not moves:
        return slots
    u, v = rng.choice(moves)
    slots[u] -= 1
    if v == len(slots):
        slots.append(1)
    else:
        slots[v] += 1
    slots.sort(reverse=True)
    return slots


class InstanceGenerator:
    """Seeded stream of premise-satisfying instances."""

    def __init__(self, config: GeneratorConfig):
        self.config = config
        self._rng = random.Random(config.seed)

    def lemma_instance(self) -> LemmaInstance:
        rng = self._rng
        cfg = self.config
        A = _sample_partition(rng, cfg.s, cfg.max_part)
        B = _sample_partition(rng, cfg.s, cfg.max_part)
        pooled = list(plus(A, B).parts)
        for _ in range(rng.randrange(cfg.max_transfer_steps + 1)):
            pooled = _transfer_step(rng, pooled, cfg.k * cfg.s)
        groups: list[list[int]] = [[] for _ in range(cfg.k)]
        order = list(pooled)
        rng.shuffle(order)
        for part in order:
            open_groups = [g for g in groups if len(g) < cfg.s]
            rng.choice(open_groups).append(part)
        pairs = []
        for group in groups:
            group.sort(reverse=True)
            t = _sample_partition(rng, cfg.s, cfg.max_part)
            d = plus(t, Partition(group))
            pairs.append((d, t))
        return LemmaInstance(tuple(pairs), A, B)

    def theorem_instance(self) -> TheoremInstance:
        return lemma_to_theorem(self.lemma_instance())

    def instance(self) -> LemmaInstance | TheoremInstance:
        if self.config.mode == "theorem":
            return self.theorem_instance()
        return self.lemma_instance()


def generate_lemma_instance(config: GeneratorConfig) -> LemmaInstance:
    """First lemma instance of the stream for ``config``, whatever ``config.mode`` says."""
    return InstanceGenerator(config).lemma_instance()


def generate_theorem_instance(config: GeneratorConfig) -> TheoremInstance:
    """First theorem instance of the stream for ``config``, whatever ``config.mode`` says."""
    return InstanceGenerator(config).theorem_instance()
