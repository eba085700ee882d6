"""The zero-interaction regime: path constraints and the sliding bijection.

A pair with g = 0 collapses to a single RPP of the same shape: red strip i
slides diagonally down-left i-1 steps onto border strip 2i-1, blue strip i
slides i steps onto strip 2i.  Entries pushed off the diagram are exactly
the ones the constraints force to zero, and total volume is preserved.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from . import rpp_core
from .partitions import BorderStrip, Cell, contains, normalize
from .coupling import PairRPP, make_pair
from .qt_series import hook_product_pair, hook_product_single
from .rpp_core import PRECEQ, RPP, shape_geometry


@dataclass(frozen=True)
class ColoredPathSystem:
    """Heights of the border-strip paths of one filling.

    profiles[i-1][k] is the site of path i's top face on interface line k
    (0..n+1), extended by the zero-entry wall profile where strip i has no
    cell on the corresponding diagonal.  Paths are ordered outermost first,
    so path 1 is the upper most.  steps[i-1][k-1] holds the sites of path
    i's vertical steps between lines k-1 and k.
    """

    shape: tuple[int, ...]
    strips: tuple[BorderStrip, ...]
    profiles: tuple[tuple[int, ...], ...]
    steps: tuple[tuple[range, ...], ...]


def paths_of(rpp: RPP) -> ColoredPathSystem:
    """Border-strip paths drawn over the stacks, as per-line heights,
    computed once per filling."""
    return rpp.derived("paths", _paths_of)


def _paths_of(rpp: RPP) -> ColoredPathSystem:
    geometry = shape_geometry(rpp.shape)
    depth = len(rpp.shape)
    profiles = []
    for strip in geometry.strips:
        i = strip.index
        entry_at = {c.col - c.row: rpp.entry(*c) for c in strip.cells}
        profiles.append(tuple(zeta + entry_at.get(k - depth, 0) - i
                              for k, zeta in enumerate(geometry.zetas)))
    ascending = [rel == PRECEQ for rel in geometry.pattern]
    steps = tuple(tuple(_pieces(a, b, up) for a, b, up in zip(p, p[1:], ascending))
                  for p in profiles)
    return ColoredPathSystem(rpp.shape, geometry.strips, tuple(profiles), steps)


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
    m = len(blue.strips)
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
    for strip in shape_geometry(pair.shape).strips:
        i = strip.index
        for cell in strip.cells:
            if cell.row <= i or cell.col <= i:
                out.append(("blue", cell))
            if cell.row <= i - 1 or cell.col <= i - 1:
                out.append(("red", cell))
    return out


def slide(pair: PairRPP) -> RPP:
    """Merge a g = 0 pair into one RPP of the same shape and total volume."""
    if not check_t0_constraints(pair):
        raise ValueError("pair has a coupled lozenge pair; sliding undefined")
    for color, cell in forced_zero_region(pair):
        source = pair.blue if color == "blue" else pair.red
        if source.entry(*cell) != 0:
            raise AssertionError(
                f"{color} entry at {cell} must be zero when the constraints hold")
    shape = pair.shape
    strips = shape_geometry(shape).strips
    rows = [[0] * p for p in shape]
    for strip in strips:
        k = strip.index
        i = (k + 1) // 2  # source strip index
        source, shift = (pair.red, i - 1) if k % 2 else (pair.blue, i)
        for r, c in strips[i - 1].cells:
            target = Cell(r - shift, c - shift)
            if contains(shape, target):
                rows[target.row - 1][target.col - 1] = source.entry(r, c)
            elif source.entry(r, c) != 0:
                raise AssertionError(f"nonzero entry at {Cell(r, c)} slides off "
                                     f"the shape outside the forced region")
    return rpp_core.validate(shape, rows)


def unslide(rpp: RPP) -> PairRPP:
    """The unique g = 0 pair sliding back to the filling: odd strips climb to
    red, even strips to blue, missing strips filled with zeros."""
    shape = rpp.shape
    blue = [[0] * p for p in shape]
    red = [[0] * p for p in shape]
    for strip in shape_geometry(shape).strips:
        i = strip.index
        for r, c in strip.cells:
            src_red = Cell(r - (i - 1), c - (i - 1))
            if contains(shape, src_red):
                red[r - 1][c - 1] = rpp.entry(*src_red)
            src_blue = Cell(r - i, c - i)
            if contains(shape, src_blue):
                blue[r - 1][c - 1] = rpp.entry(*src_blue)
    return make_pair(rpp_core.validate(shape, blue),
                     rpp_core.validate(shape, red))


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
