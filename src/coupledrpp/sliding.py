"""The zero-interaction regime: path constraints and the sliding bijection.

Path i of a filling stands at zeta_k + part i of slice k - i on interface
line k, and in row k its vertical steps are the sites zeta_(k-1) - i +
[min, max) of its parts on lines k-1 and k.  The offsets cancel, so the
path order of a g = 0 pair is a set of inequalities on parts.  With b
and r the blue and red parts, zero past a slice's length (the wall):

- line k: r_(k,i+1) <= b_(k,i) <= r_(k,i);
- row k: blue i's steps miss red i's, and red i+1's shifted down by one;
- white row: not b_(k-1,i) < r_(k,i+1) <= b_(k,i) (blue does not climb
  past red i+1's top face);
- gray row: not r_(k,i+1) <= b_(k,i) < r_(k-1,i+1) (red does not descend
  past blue's).

Given the lines, the three row rules of row k come to two inequalities
between its lower slice lo and its upper slice hi (lo = k-1, hi = k on
white rows; lo = k, hi = k-1 on gray ones): b_(hi,i) <= r_(lo,i) and
r_(hi,i+1) <= b_(lo,i).  Since each chain interlaces, these two imply
line k, so they are all `check_t0_constraints` tests.

A pair with g = 0 collapses to a single RPP of the same shape: red strip i
slides diagonally down-left i-1 steps onto border strip 2i-1, blue strip i
slides i steps onto strip 2i.  Border strip i is the i-th cell from the top
of every diagonal it meets, and slice k of the chain reads diagonal k from
the top, so sliding riffles the two chains diagonal by diagonal: red's
parts fill the odd positions and blue's the even ones.  The inequalities
above say that these riffles interlace as the shape's slices must.
Entries pushed off the diagram are exactly the ones the constraints force
to zero, and total volume is preserved.
"""

from __future__ import annotations

from operator import ge
from typing import Iterable

from . import rpp_core
from .partitions import normalize
from .coupling import PairRPP, make_pair
from .qt_series import hook_product
from .rpp_core import PRECEQ, RPP, shape_geometry


def check_t0_constraints(pair: PairRPP) -> bool:
    """Path-order test equivalent to g = 0, read off the two slice chains:
    row by row, blue's upper slice lies within red's lower one, and red's
    upper slice, past its first part, within blue's lower one.  It stops
    at the first row that fails, lengths first."""
    blue, red = pair.blue.chain.slices, pair.red.chain.slices
    rows = zip(pair.blue.chain.pattern, blue, blue[1:], red, red[1:])
    for rel, b0, b1, r0, r1 in rows:
        if rel == PRECEQ:
            b_lo, b_hi, r_lo, r_hi = b0, b1, r0, r1
        else:
            b_lo, b_hi, r_lo, r_hi = b1, b0, r1, r0
        if not (len(b_hi) <= len(r_lo) and len(r_hi) <= len(b_lo) + 1
                and all(map(ge, r_lo, b_hi)) and all(map(ge, b_lo, r_hi[1:]))):
            return False
    return True


def slide(pair: PairRPP) -> RPP:
    """Merge a g = 0 pair into one RPP of the same shape and total volume:
    on every diagonal, red's parts and blue's parts riffled."""
    if not check_t0_constraints(pair):
        raise ValueError("pair has a coupled lozenge pair; sliding undefined")
    merged = []
    diagonals = zip(shape_geometry(pair.shape).cells,
                    pair.blue.chain.slices[1:], pair.red.chain.slices[1:])
    for k, (cells, blue, red) in enumerate(diagonals, start=1):
        # red's parts at 2i-1, blue's at 2i: it ends in a part, off the shape if too long
        riffle = [0] * max(2 * len(red) - 1, 2 * len(blue))
        riffle[0:2 * len(red):2] = red
        riffle[1:2 * len(blue):2] = blue
        if len(riffle) > len(cells):
            raise AssertionError(f"a nonzero entry of slice {k} slides off "
                                 f"the shape outside the forced region")
        merged.append(tuple(riffle))
    return rpp_core.from_diagonals(pair.shape, merged)


def unslide(rpp: RPP) -> PairRPP:
    """The unique g = 0 pair sliding back to the filling: on every diagonal
    the odd positions go to red and the even ones to blue."""
    slices = rpp.chain.slices[1:-1]
    return make_pair(rpp_core.from_diagonals(rpp.shape, [sl[1::2] for sl in slices]),
                     rpp_core.from_diagonals(rpp.shape, [sl[0::2] for sl in slices]))


def round_trips(fillings: list[RPP],
                pairs: Iterable[PairRPP]) -> tuple[int, RPP | PairRPP | None]:
    """The sliding bijection on a shape's fillings and their pairs: each
    filling's unslid pair slides back to it and keeps its volume, and the
    g = 0 pairs are exactly the unslid ones, so slide and unslide are
    mutual inverses.  Returns the round trips made, one per filling and per
    g = 0 pair matched to one, and the first failure: a filling, a pair, or
    None."""
    unslid = {}  # in the order of the fillings
    for rpp in fillings:
        pair = unslide(rpp)
        try:
            back = slide(pair)  # which makes the g = 0 test first
        except ValueError:
            back = None
        if back != rpp or pair.blue.volume + pair.red.volume != rpp.volume:
            return len(unslid), rpp
        unslid[pair] = True
    for pair in pairs:  # each g = 0 pair pops its unslid pair; any left were missed
        if check_t0_constraints(pair) and not unslid.pop(pair, False):
            return 2 * len(fillings) - len(unslid), pair
    return 2 * len(fillings) - len(unslid), next(iter(unslid), None)


def verify_t0_counting(lam, max_volume: int, fillings=None) -> dict:
    """Per-volume counts of g = 0 pairs vs single RPPs, cross-checked against
    the t -> 0 slice of the paired hook product.  `fillings`, when given,
    are the shape's fillings of volume <= max_volume in the order of
    `enumerate_rpps`; otherwise they are enumerated here."""
    lam = normalize(lam)
    if fillings is None:
        fillings = list(rpp_core.enumerate_rpps(lam, max_volume))
    pair_counts = [0] * (max_volume + 1)
    for blue, red in rpp_core.pairs_within(fillings, max_volume):
        if check_t0_constraints(make_pair(blue, red)):
            pair_counts[blue.volume + red.volume] += 1
    single_counts = [0] * (max_volume + 1)
    for rpp in fillings:
        single_counts[rpp.volume] += 1
    series_pair = hook_product(lam, max_volume, 2).t_zero_slice().q_coefficients()
    series_single = hook_product(lam, max_volume, 1).q_coefficients()
    mismatches = [n for n in range(max_volume + 1)
                  if not (pair_counts[n] == single_counts[n]
                          == series_pair[n] == series_single[n])]
    return {"shape": list(lam), "max_volume": max_volume,
            "pairs_g0": pair_counts, "singles": single_counts,
            "series_pair_t0": series_pair, "series_single": series_single,
            "mismatches": mismatches, "passed": not mismatches}
