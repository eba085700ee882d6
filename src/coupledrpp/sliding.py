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
line k, so they are all the g = 0 test checks.

A pair with g = 0 collapses to a single RPP of the same shape: red strip i
slides diagonally down-left i-1 steps onto border strip 2i-1, blue strip i
slides i steps onto strip 2i.  Border strip i is the i-th cell from the top
of every diagonal it meets, and slice k of the chain reads diagonal k from
the top, so sliding riffles the two chains diagonal by diagonal: red's
parts fill the odd positions and blue's the even ones.  The inequalities
above say that these riffles interlace as the shape's slices must.
Entries pushed off the diagram are exactly the ones the constraints force
to zero, and total volume is preserved.

Each of the three rules is one function on slice chains: `t0_chains`, the
g = 0 test on a blue and a red chain; `riffle`, the slide; and `deal`,
the unslide, which sends a filling's parts at odd positions to red and at
even ones to blue.  `check_t0_constraints`, `slide` and `unslide` apply
them to fillings and pairs, and `round_trips` sweeps the bijection on the
chains alone, building a filling or a pair only for the failure it names.
"""

from __future__ import annotations

from operator import ge
from typing import Iterable

from . import rpp_core
from .partitions import normalize
from .coupling import PairRPP, make_pair
from .qt_series import hook_product
from .rpp_core import PRECEQ, RPP, shape_geometry


def t0_chains(pattern, blue, red) -> bool:
    """The path-order test equivalent to g = 0 on a blue and a red slice
    chain of one pattern: row by row, blue's upper slice lies within red's
    lower one, and red's upper slice, past its first part, within blue's
    lower one.  It stops at the first row that fails, lengths first."""
    for rel, b0, b1, r0, r1 in zip(pattern, blue, blue[1:], red, red[1:]):
        if rel == PRECEQ:
            b_lo, b_hi, r_lo, r_hi = b0, b1, r0, r1
        else:
            b_lo, b_hi, r_lo, r_hi = b1, b0, r1, r0
        if not (len(b_hi) <= len(r_lo) and len(r_hi) <= len(b_lo) + 1
                and all(map(ge, r_lo, b_hi)) and all(map(ge, b_lo, r_hi[1:]))):
            return False
    return True


def riffle(lengths, blue, red) -> tuple[tuple[int, ...], ...]:
    """The diagonals, top first, of the filling a blue and a red slice
    chain slide to: on diagonal k (of lengths[k-1] cells), red's parts at
    the odd positions and blue's at the even ones, ending in a part.  It
    raises AssertionError when a nonzero part slides off its diagonal."""
    merged = []
    for k, (n, b, r) in enumerate(zip(lengths, blue[1:], red[1:]), start=1):
        sl = [0] * max(2 * len(r) - 1, 2 * len(b))
        sl[0:2 * len(r):2] = r
        sl[1:2 * len(b):2] = b
        if len(sl) > n:
            raise AssertionError(f"a nonzero entry of slice {k} slides off "
                                 f"the shape outside the forced region")
        merged.append(tuple(sl))
    return tuple(merged)


def deal(slices) -> tuple[tuple, tuple]:
    """Blue's and red's slices, in that order, dealt from a filling's:
    the parts at odd positions of each slice go to red, the even ones to
    blue."""
    return tuple(sl[1::2] for sl in slices), tuple(sl[0::2] for sl in slices)


def check_t0_constraints(pair: PairRPP) -> bool:
    """`t0_chains` on the pair's two slice chains."""
    return t0_chains(pair.blue.chain.pattern, pair.blue.chain.slices, pair.red.chain.slices)


def slide(pair: PairRPP) -> RPP:
    """Merge a g = 0 pair into one RPP of the same shape and total volume,
    its two chains riffled."""
    if not check_t0_constraints(pair):
        raise ValueError("pair has a coupled lozenge pair; sliding undefined")
    return rpp_core.from_diagonals(pair.shape, riffle(
        shape_geometry(pair.shape).lengths, pair.blue.chain.slices, pair.red.chain.slices))


def unslide(rpp: RPP) -> PairRPP:
    """The unique g = 0 pair sliding back to the filling, its chain dealt."""
    blue, red = deal(rpp.chain.slices[1:-1])
    return make_pair(rpp_core.from_diagonals(rpp.shape, blue),
                     rpp_core.from_diagonals(rpp.shape, red))


def round_trips(fillings: list[RPP],
                pairs: Iterable[tuple[RPP, RPP]]) -> tuple[int, RPP | PairRPP | None]:
    """The sliding bijection on a shape's fillings and its (blue, red)
    pairs, as `rpp_core.pairs_within` yields them, swept on slice chains.
    Each filling's chain is dealt; both halves must pass
    `rpp_core.check_diagonals` (a half it rejects raises out of the
    sweep), pass `t0_chains`, riffle back to the filling's own slices and
    keep its volume.  The g = 0 pairs must then be exactly the dealt ones,
    so slide and unslide are mutual inverses.  Returns the round trips
    made, one per filling and per g = 0 pair matched to one, and the first
    failure: a filling, a pair, or None."""
    unslid = {}  # (blue chain, red chain) -> its filling, in the order of the fillings
    for rpp in fillings:
        geometry = shape_geometry(rpp.shape)
        slices = rpp.chain.slices[1:-1]
        blue, red = (rpp_core.check_diagonals(geometry, half) for half in deal(slices))
        if not (t0_chains(geometry.pattern, blue, red)
                and riffle(geometry.lengths, blue, red) == slices
                and sum(map(sum, blue)) + sum(map(sum, red)) == rpp.volume):
            return len(unslid), rpp
        unslid[blue, red] = rpp
    for blue, red in pairs:  # each g = 0 pair pops its dealt chains; any left were missed
        chains = blue.chain.slices, red.chain.slices
        if t0_chains(blue.chain.pattern, *chains) and unslid.pop(chains, None) is None:
            return 2 * len(fillings) - len(unslid), make_pair(blue, red)
    missed = next(iter(unslid.values()), None)
    return (2 * len(fillings) - len(unslid),
            None if missed is None else unslide(missed))


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
        if t0_chains(blue.chain.pattern, blue.chain.slices, red.chain.slices):
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
