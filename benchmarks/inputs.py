"""Seeded inputs for the benchmark workloads, and their exact work counts.

Everything here is independent of the package under test: shapes, bounds
and fillings come from `random.Random(seed)`, and the exact number of
fillings and pairs comes from the hook-length product, computed below with
plain integer lists.  The program only ever receives the generated inputs.
"""

from __future__ import annotations

import hashlib
import json
import math
import random

# genfun: the reference case of ROADMAP item 1, `(3,2,1)` at N=8 (5307
# pairs, 329 fillings), sets the scale.  Every call runs at the smallest
# bound with at least that many pairs: (3,2,1) at N=8, the paper's
# (4,4,3,3,1) at N=7 (8195 pairs), and seeded shapes of size 5..9 whose
# predicted cost (`_work_proxy`) is at most GENFUN_MAX_COST times the
# reference's, so no seeded call outweighs the reference case by much.
# Eight seeded calls, one per stratum of the pool: with four, the seed
# alone moved the median call time by about 10% (IQR over median, 400
# seeds, per-shape costs measured on the brute-force engine); with eight,
# by about 3%, as it moves the pass time.
GENFUN_REFERENCE = ((3, 2, 1), 8)
GENFUN_FIXED = ((3, 2, 1), (4, 4, 3, 3, 1))
GENFUN_POOL_SIZES = range(5, 10)
GENFUN_MAX_COST = 1.3
GENFUN_SEEDED = 8

# objects: the paper's worked sliding example sets the scale: a pair of
# fillings of (4,4,3,3,1), 15 cells, with entries up to 4.  Sizes 10..20
# (mean 15) are taken in rotation so that every pass mixes small and large
# shapes in the same proportion; the shape within a size is random among
# those that fit a box of side isqrt(size) + 3, which keeps the slowest
# objects of every seed alike.
OBJECT_COUNT = 900
OBJECT_SIZES = tuple(range(10, 21))
OBJECT_MAX_ENTRY = 4
# every third filling is sparse, like the worked example's blue one (4
# nonzero entries in 15 cells), so that the g = 0 pairs that slide are
# about an eighth of the objects
OBJECT_STEP = (0.45, 0.45, 0.05)

VERIFY_ARGV = ("verify-all", "--format", "json")


def partitions_of(n: int, cap: int | None = None):
    """Partitions of n, largest part first, in reverse lexicographic order."""
    if n == 0:
        yield ()
        return
    for first in range(min(n, cap or n), 0, -1):
        for rest in partitions_of(n - first, first):
            yield (first,) + rest


def hook_lengths(shape) -> list[int]:
    conj = [sum(1 for p in shape if p > c) for c in range(shape[0])] if shape else []
    return [shape[r] - c + conj[c] - r - 1
            for r in range(len(shape)) for c in range(shape[r])]


def count_fillings(shape, max_volume: int, colors: int) -> int:
    """Fillings (colors=1) or pairs of fillings (colors=2) of the shape with
    total volume <= max_volume: the coefficient sum of the truncated
    product over cells of 1/(1-q^hook)^colors."""
    coeffs = [1] + [0] * max_volume
    for h in hook_lengths(shape) * colors:
        for k in range(h, max_volume + 1):
            coeffs[k] += coeffs[k - h]
    return sum(coeffs)


def smallest_bound(shape, target_pairs: int) -> int:
    n = 0
    while count_fillings(shape, n, 2) < target_pairs:
        n += 1
    return n


def reference_pairs() -> int:
    shape, bound = GENFUN_REFERENCE
    return count_fillings(shape, bound, 2)


def genfun_call(shape, target_pairs: int) -> dict:
    n = smallest_bound(shape, target_pairs)
    return {"shape": list(shape), "max_volume": n,
            "pairs": count_fillings(shape, n, 2),
            "rpps": count_fillings(shape, n, 1)}


def _work_proxy(call) -> int:
    """Pairs times (columns + 2 * rows): each pair's tilings are read along
    every interface (columns + rows of them) up to a height that grows with
    the rows.  On the brute-force engine at the reference scale, measured
    cost over proxy varies by 14% (coefficient of variation) across the
    partitions of 5..9."""
    shape = call["shape"]
    return call["pairs"] * (shape[0] + 2 * len(shape))


def genfun_inputs(seed: int, target_pairs: int | None = None,
                  pool_sizes=GENFUN_POOL_SIZES) -> list[dict]:
    """The fixed shapes, then one random shape per stratum of the pool.

    The pool is sorted by the work proxy and cut into GENFUN_SEEDED strata
    of neighbours, so every seed's pass does nearly the same amount of work
    while the shapes themselves differ.
    """
    target = target_pairs or reference_pairs()
    cap = GENFUN_MAX_COST * _work_proxy(genfun_call(GENFUN_REFERENCE[0], target))
    rng = random.Random(seed)
    pool = sorted((call for size in pool_sizes for lam in partitions_of(size)
                   if lam not in GENFUN_FIXED
                   and _work_proxy(call := genfun_call(lam, target)) <= cap),
                  key=lambda call: (_work_proxy(call), call["shape"]))
    strata = min(GENFUN_SEEDED, len(pool))
    cuts = [i * len(pool) // strata for i in range(strata + 1)]
    picked = [rng.choice(pool[a:b]) for a, b in zip(cuts, cuts[1:])]
    rng.shuffle(picked)
    return [genfun_call(lam, target) for lam in GENFUN_FIXED] + picked


def genfun_argv(call: dict) -> list[str]:
    return ["genfun", "--shape", json.dumps(call["shape"]),
            "--max-volume", str(call["max_volume"]), "--paired", "--force",
            "--format", "json"]


def random_rows(rng: random.Random, shape, step: float, max_entry: int):
    """A random filling, rows bottom-up: each entry starts at the larger of
    its left and lower neighbours and climbs by one with probability
    `step` per try, up to max_entry."""
    rows: list[list[int]] = []
    for r, length in enumerate(shape):
        row: list[int] = []
        for c in range(length):
            v = max(row[c - 1] if c else 0, rows[r - 1][c] if r else 0)
            while v < max_entry and rng.random() < step:
                v += 1
            row.append(v)
        rows.append(row)
    return rows


def object_inputs(seed: int, count: int = OBJECT_COUNT) -> list[dict]:
    """`count` objects, each a pair and a single filling of one shape, as
    the JSON texts the package reads."""
    rng = random.Random(seed)
    by_size = {n: [lam for lam in partitions_of(n)
                   if max(lam[0], len(lam)) <= math.isqrt(n) + 3]
               for n in OBJECT_SIZES}
    objects = []
    for i in range(count):
        shape = list(rng.choice(by_size[OBJECT_SIZES[i % len(OBJECT_SIZES)]]))
        step = OBJECT_STEP[i % len(OBJECT_STEP)]
        blue, red, single = (random_rows(rng, shape, step, OBJECT_MAX_ENTRY)
                             for _ in range(3))
        objects.append({
            "index": i,
            "shape": shape,
            "pair": json.dumps({"shape": shape,
                                "blue": {"shape": shape, "rows": blue},
                                "red": {"shape": shape, "rows": red}}),
            "rpp": json.dumps({"shape": shape, "rows": single}),
        })
    return objects


def repeat_share(shapes) -> float:
    """Share of items whose shape already appeared earlier in the list."""
    seen = set()
    repeats = 0
    for shape in shapes:
        key = tuple(shape)
        repeats += key in seen
        seen.add(key)
    return repeats / len(shapes) if shapes else 0.0


def input_hash(data) -> str:
    return hashlib.sha256(json.dumps(data, sort_keys=True).encode()).hexdigest()
