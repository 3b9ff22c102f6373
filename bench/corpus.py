"""Benchmark inputs, built from a seed without importing the package.

Each workload's corpus is plain data: braid text for the skein workloads and
(kind, argument) tuples for the Bratteli identities.  Keeping this module free
of ``bwmlink`` means building a corpus never warms a library cache.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

GOLDEN_PATH = Path(__file__).resolve().parent / "golden.json"

TORUS_M = [m for m in range(-24, 25) if m != 0]
B3_POWERS = range(2, 6)

# The cli_mixed pool: POOL_SIZE words drawn once from POOL_SEED.  The corpus
# leaves out the most expensive quarter, so that a pass is short and a run
# holds several passes, and cuts the rest by cost into STRATA blocks of equal
# size.  A run's seed picks one of the CHOICES words in the middle of each
# block.  So every seed draws other words but nearly the same cost at each of
# the STRATA quantiles, and the case-time quantiles barely move with the seed.
POOL_SEED = 20091
POOL_STRANDS = (3, 4, 5)
POOL_LENGTHS = (6, 7, 8, 9)
POOL_SIZE = 360
STRATA = 30
CHOICES = 3
CLI_SPECS = ("osp:1", "so:1")

SUM_RULE_MAX_F = 8
WEIGHTS_MAX_SIZE = 9
MAX_N = 3
TRUNCATED_MAX_DEPTH = 10
PATH_PAIRS_MAX_F = 10


def torus_sweep_corpus() -> list[str]:
    """T(2, m) for m = -24..24 (m != 0), then B3 (1 2)^k for k = 2..5.

    The order is part of the workload: one engine serves the whole sweep, so
    later cases reuse subdiagrams cached by earlier ones.
    """
    return ([f"B2: 1^{m}" for m in TORUS_M]
            + ["B3: " + " ".join(["1 2"] * k) for k in B3_POWERS])


def random_word(rng: random.Random, strands: int, length: int) -> str:
    """A freely reduced word: no letter is followed by its inverse."""
    letters: list[int] = []
    while len(letters) < length:
        letter = rng.randint(1, strands - 1) * rng.choice((1, -1))
        if letters and letters[-1] == -letter:
            continue
        letters.append(letter)
    return f"B{strands}: " + " ".join(map(str, letters))


def cli_pool() -> list[str]:
    """The distinct words the cli_mixed corpus is sampled from."""
    rng = random.Random(POOL_SEED)
    cells = [(f, n) for f in POOL_STRANDS for n in POOL_LENGTHS]
    pool: list[str] = []
    while len(pool) < POOL_SIZE:
        word = random_word(rng, *cells[len(pool) % len(cells)])
        if word not in pool:
            pool.append(word)
    return pool


def cli_mixed_corpus(seed: int, cost: dict[str, float]) -> list[str]:
    """One word from the middle of each cost block of the pool's cheaper
    part, in seeded random order.

    ``cost`` is the per-word cost recorded in the golden file; it only sorts
    the pool, so a stale cost changes the sample but never its correctness.
    """
    ranked = sorted(cli_pool(), key=lambda w: (cost.get(w, 0.0), w))
    block = POOL_SIZE * 3 // 4 // STRATA
    middle = (block - CHOICES) // 2
    rng = random.Random(seed)
    words = [rng.choice(ranked[start + middle:start + middle + CHOICES])
             for start in range(0, STRATA * block, block)]
    rng.shuffle(words)
    return words


def partitions(size: int) -> list[tuple[int, ...]]:
    """All partitions of ``size`` as weakly decreasing tuples."""
    out: list[tuple[int, ...]] = []

    def grow(remaining: int, largest: int, prefix: tuple[int, ...]) -> None:
        if remaining == 0:
            out.append(prefix)
            return
        for part in range(min(remaining, largest), 0, -1):
            grow(remaining - part, part, prefix + (part,))

    grow(size, size, ())
    return out


def bratteli_corpus(seed: int) -> list[tuple]:
    """Every identity case, in seeded random order."""
    cases: list[tuple] = [("sum_rule", f) for f in range(SUM_RULE_MAX_F + 1)]
    cases += [("weights_equal", shape, n)
              for size in range(WEIGHTS_MAX_SIZE + 1)
              for shape in partitions(size)
              for n in range(1, MAX_N + 1)]
    cases += [("truncated", depth, n)
              for depth in range(TRUNCATED_MAX_DEPTH + 1)
              for n in range(1, MAX_N + 1)]
    cases += [("path_pairs", f) for f in range(PATH_PAIRS_MAX_F + 1)]
    random.Random(seed).shuffle(cases)
    return cases


def case_key(case) -> str:
    """The golden-file key of a case: its text or its tuple, as JSON."""
    return case if isinstance(case, str) else json.dumps(case)


def load_golden(path: Path = GOLDEN_PATH) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)
