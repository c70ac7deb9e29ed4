"""Seeded hunt for hard partition-splitting instances (the deep-search corpus).

Draws instances of 3-6 pairs whose partitions have up to 6 parts of at most 8,
runs the splitting search on each, and keeps the first ``KEEP`` that take from
``MIN_NODES`` to ``MAX_NODES`` nodes and finish (found or none), which is
well within the default node budget.  The upper bound keeps one search
under a tenth of a second, so a timed run of the benchmark covers the corpus.

Half of the draws have a premise that holds by construction: every part of
the pooled gaps is split at random between A and B.  The other half draw A
and B at random with the pooled total, so their premise verdict is whatever
it turns out to be.

For each kept instance the corpus records the instance, the premise verdict,
the expected outcome, the certificate the search returns (the
lexicographically smallest one, by the search order) and the node count.

    python3 bench/hunt_deep.py --seed 2002 --out bench/deep_corpus.json

The same seed gives the same corpus on the same code.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import time

from _api import load_majorchain

MAX_PARTS = 6
MAX_PART = 8
KEEP = 120
MIN_NODES = 20_000
MAX_NODES = 40_000
MAX_DRAWS = 20_000


def _random_partition(rng: random.Random, max_len: int, max_part: int) -> list[int]:
    length = rng.randint(1, max_len)
    return sorted((rng.randint(1, max_part) for _ in range(length)), reverse=True)


def _random_partition_of(rng: random.Random, total: int) -> list[int]:
    """A random partition of ``total`` with parts of at most MAX_PART."""
    parts = []
    while total:
        part = rng.randint(1, min(total, MAX_PART))
        parts.append(part)
        total -= part
    return sorted(parts, reverse=True)


def draw(rng: random.Random) -> dict:
    """One candidate instance, as a JSON-ready splitting instance."""
    pairs = []
    for _ in range(rng.randint(3, 6)):
        d = _random_partition(rng, MAX_PARTS, MAX_PART)
        t = []
        for j, part in enumerate(d):
            t.append(rng.randint(0, min(part, t[j - 1] if j else part)))
        while t and t[-1] == 0:
            t.pop()
        pairs.append({"d": d, "t": t})
    gaps = sorted(
        (dv - (p["t"][j] if j < len(p["t"]) else 0) for p in pairs for j, dv in enumerate(p["d"])),
        reverse=True,
    )
    gaps = [g for g in gaps if g]
    if rng.random() < 0.5:
        a_parts, b_parts = [], []
        for gap in gaps:
            share = rng.randint(0, gap)
            a_parts.append(share)
            b_parts.append(gap - share)
        A = sorted((v for v in a_parts if v), reverse=True)
        B = sorted((v for v in b_parts if v), reverse=True)
    else:
        total = sum(gaps)
        share = rng.randint(0, total)
        A = _random_partition_of(rng, share)
        B = _random_partition_of(rng, total - share)
    return {"pairs": pairs, "A": A, "B": B}


def hunt(mc, seed: int) -> tuple[list[dict], int]:
    rng = random.Random(seed)
    corpus = []
    draws = 0
    while len(corpus) < KEEP and draws < MAX_DRAWS:
        draws += 1
        obj = draw(rng)
        inst = mc.jsonio.parse_lemma_instance(obj)
        report = mc.solve_lemma(inst, budget=MAX_NODES)
        if report.outcome == mc.ABORTED or report.nodes < MIN_NODES:
            continue
        certificate = None
        if report.certificate is not None:
            certificate = [list(f.parts) for f in report.certificate.fs]
        corpus.append(
            {
                "instance": obj,
                "premise": inst.premise_holds,
                "outcome": report.outcome,
                "certificate": certificate,
                "nodes": report.nodes,
            }
        )
    return corpus, draws


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=2002)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    mc = load_majorchain()
    start = time.perf_counter()
    corpus, draws = hunt(mc, args.seed)
    header = {
        "seed": args.seed,
        "draws": draws,
        "min_nodes": MIN_NODES,
        "max_nodes": MAX_NODES,
        "instances": corpus,
    }
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(header, handle, separators=(",", ":"))
        handle.write("\n")
    print(
        f"kept {len(corpus)} of {draws} draws in {time.perf_counter() - start:.1f}s",
        file=sys.stderr,
    )
    return 0 if len(corpus) >= KEEP else 1


if __name__ == "__main__":
    sys.exit(main())
