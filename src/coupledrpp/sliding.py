"""The zero-interaction regime: path constraints and the sliding bijection.

A pair with g = 0 collapses to a single RPP of the same shape: red strip i
slides diagonally down-left i-1 steps onto border strip 2i-1, blue strip i
slides i steps onto strip 2i.  Border strip i is the i-th cell from the top
of every diagonal it meets, and slice k of the chain reads diagonal k from
the top, so sliding riffles the two chains diagonal by diagonal: red's
parts fill the odd positions and blue's the even ones.  Entries pushed off
the diagram are exactly the ones the constraints force to zero, and total
volume is preserved.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from . import rpp_core
from .partitions import Cell, border_strips, normalize
from .coupling import PairRPP, make_pair
from .qt_series import hook_product_pair, hook_product_single
from .rpp_core import PRECEQ, RPP, shape_geometry


@dataclass(frozen=True)
class ColoredPathSystem:
    """Heights of the border-strip paths of one filling.

    profiles[i-1][k] is the site of path i's top face on interface line k
    (0..n+1): the interface centre plus part i of slice k, minus i, which
    is the zero-entry wall profile where strip i has no cell on diagonal k.
    There is one path per cell of the longest diagonal, outermost first, so
    path 1 is the upper most.  steps[i-1][k-1] holds the sites of path i's
    vertical steps between lines k-1 and k.
    """

    shape: tuple[int, ...]
    profiles: tuple[tuple[int, ...], ...]
    steps: tuple[tuple[range, ...], ...]


def paths_of(rpp: RPP) -> ColoredPathSystem:
    """Border-strip paths drawn over the stacks, as per-line heights,
    computed once per filling."""
    return rpp.derived("paths", _paths_of)


def _paths_of(rpp: RPP) -> ColoredPathSystem:
    geometry = shape_geometry(rpp.shape)
    paths = max(map(len, geometry.cells), default=0)
    # line k holds zeta_k + part i of slice k - i for the paths i = 1..paths
    lines = [[zeta + v - i for i, v in enumerate(sl + (0,) * (paths - len(sl)), 1)]
             for zeta, sl in zip(geometry.zetas, rpp.chain.slices)]
    profiles = tuple(zip(*lines))
    ascending = [rel == PRECEQ for rel in geometry.pattern]
    steps = tuple(tuple(_pieces(a, b, up) for a, b, up in zip(p, p[1:], ascending))
                  for p in profiles)
    return ColoredPathSystem(rpp.shape, profiles, steps)


@lru_cache(maxsize=4096)
def _pieces(a: int, b: int, ascending: bool) -> range:
    """Sites of a path's vertical steps between lines at heights a and b: it
    climbs faces in hole slices and descends them in particle slices.  One
    range per (a, b, ascending) is shared by every filling."""
    if ascending:
        return range(a, b)        # b - a steps
    return range(b + 1, a)        # a - b - 1 steps


def check_t0_constraints(pair: PairRPP) -> bool:
    """Path-order test equivalent to g = 0.

    Blue path i stays weakly below red path i and strictly above red path
    i+1, where paths may touch only if they immediately separate: shared
    vertical steps and steps onto the other color's top face are ruled out.
    """
    blue = paths_of(pair.blue)
    red = paths_of(pair.red)
    pattern = shape_geometry(pair.shape).pattern
    m = len(blue.profiles)
    lines = range(len(pattern) + 1)
    for i in range(1, m + 1):
        pb, pr = blue.profiles[i - 1], red.profiles[i - 1]
        steps_b, steps_r = blue.steps[i - 1], red.steps[i - 1]
        if any(pb[k] > pr[k] for k in lines):
            return False
        for sb, sr in zip(steps_b, steps_r):
            if max(sb.start, sr.start) < min(sb.stop, sr.stop):
                return False  # a shared vertical step
        if i + 1 <= m:
            pr2, steps_r2 = red.profiles[i], red.steps[i]
            if any(pb[k] <= pr2[k] for k in lines):
                return False
            for k, (sb, sr2) in enumerate(zip(steps_b, steps_r2), start=1):
                if max(sb.start, sr2.start) < min(sb.stop, sr2.stop):
                    return False
                if pattern[k - 1] == PRECEQ:
                    if pr2[k] in sb:
                        return False  # blue climbs past red's top face
                else:
                    if pb[k] in sr2:
                        return False  # red descends past blue's top face
    return True


def forced_zero_region(pair: PairRPP) -> list[tuple[str, Cell]]:
    """Cells the constraints force to zero: blue strip i inside the first i
    rows or columns, red strip i inside the first i-1."""
    out = []
    for strip in border_strips(pair.shape):
        i = strip.index
        for cell in strip.cells:
            if cell.row <= i or cell.col <= i:
                out.append(("blue", cell))
            if cell.row <= i - 1 or cell.col <= i - 1:
                out.append(("red", cell))
    return out


def slide(pair: PairRPP) -> RPP:
    """Merge a g = 0 pair into one RPP of the same shape and total volume:
    on every diagonal, red's parts and blue's parts riffled."""
    if not check_t0_constraints(pair):
        raise ValueError("pair has a coupled lozenge pair; sliding undefined")
    merged = []
    diagonals = zip(shape_geometry(pair.shape).cells,
                    pair.blue.chain.slices[1:], pair.red.chain.slices[1:])
    for k, (cells, blue, red) in enumerate(diagonals, start=1):
        riffle = [0] * (2 * max(len(blue), len(red)))
        riffle[0:2 * len(red):2] = red
        riffle[1:2 * len(blue):2] = blue
        if any(riffle[len(cells):]):
            raise AssertionError(f"a nonzero entry of slice {k} slides off "
                                 f"the shape outside the forced region")
        del riffle[len(cells):]
        while riffle and not riffle[-1]:
            riffle.pop()
        merged.append(tuple(riffle))
    return rpp_core.from_diagonals(pair.shape, merged)


def unslide(rpp: RPP) -> PairRPP:
    """The unique g = 0 pair sliding back to the filling: on every diagonal
    the odd positions go to red and the even ones to blue."""
    slices = rpp.chain.slices[1:-1]
    return make_pair(rpp_core.from_diagonals(rpp.shape, [sl[1::2] for sl in slices]),
                     rpp_core.from_diagonals(rpp.shape, [sl[0::2] for sl in slices]))


def verify_t0_counting(lam, max_volume: int) -> dict:
    """Per-volume counts of g = 0 pairs vs single RPPs, cross-checked against
    the t -> 0 slice of the paired hook product."""
    lam = normalize(lam)
    pair_counts = [0] * (max_volume + 1)
    for blue, red in rpp_core.enumerate_pairs(lam, max_volume):
        if check_t0_constraints(make_pair(blue, red)):
            pair_counts[blue.volume + red.volume] += 1
    single_counts = [0] * (max_volume + 1)
    for rpp in rpp_core.enumerate_rpps(lam, max_volume):
        single_counts[rpp.volume] += 1
    series_pair = hook_product_pair(lam, max_volume).t_zero_slice().q_coefficients()
    series_single = hook_product_single(lam, max_volume).q_coefficients()
    mismatches = [n for n in range(max_volume + 1)
                  if not (pair_counts[n] == single_counts[n]
                          == series_pair[n] == series_single[n])]
    return {"shape": list(lam), "max_volume": max_volume,
            "pairs_g0": pair_counts, "singles": single_counts,
            "series_pair_t0": series_pair, "series_single": series_single,
            "mismatches": mismatches, "passed": not mismatches}
