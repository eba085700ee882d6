"""Pairs of RPPs and their interaction statistic g, and the row-transfer
engine that sums pairs by volume and g.

Blue is color 1 and red is color 2 of the colored vertex model
(`vertex_model`); every t-asymmetry below follows that order.  The
statistic g is computed two independent ways: from the t-degree of the
colored configuration weight, and by counting the four coupled-lozenge
patterns directly on the superimposed tilings.
"""

from __future__ import annotations

import json
from collections import defaultdict
from operator import and_, itemgetter, mul, sub
from typing import NamedTuple

from . import rpp_core, vertex_model
from .partitions import maya_mask, normalize
from .qt_series import QTSeries, hook_count
from .rpp_core import PRECEQ, RPP
from .vertex_model import Monomial


# ---------------------------------------------------------------------------
# Pairs of RPPs


class _PairFields(NamedTuple):
    shape: tuple[int, ...]
    blue: RPP
    red: RPP


class PairRPP(_PairFields):
    """A (blue, red) pair of fillings of one shape.  Like a filling, it
    keeps what is derived from it (its configuration weight, g and coupled
    lozenge pairs) in the instance dict; equality, hash and repr read only
    the three fields."""

    derived = RPP.derived


def make_pair(blue: RPP, red: RPP) -> PairRPP:
    if blue.shape != red.shape:
        raise ValueError(f"shapes differ: {blue.shape} vs {red.shape}")
    return PairRPP(blue.shape, blue, red)


def pair_to_json(pair: PairRPP) -> str:
    return json.dumps({"shape": list(pair.shape),
                       "blue": {"shape": list(pair.blue.shape),
                                "rows": [list(r) for r in pair.blue.rows]},
                       "red": {"shape": list(pair.red.shape),
                               "rows": [list(r) for r in pair.red.rows]}})


def pair_from_json(text: str) -> PairRPP:
    data = json.loads(text)
    blue, red = rpp_core.rpp_from_data(data["blue"]), rpp_core.rpp_from_data(data["red"])
    if normalize(data["shape"]) != blue.shape:
        raise ValueError("pair shape disagrees with the blue filling")
    rpp_core.check_json_lists(data, "shape")
    return make_pair(blue, red)


def pair_config_weight(pair: PairRPP) -> Monomial:
    """Weight of the superimposed configuration, x_i = q^(+-i), t tracked
    exactly; a monomial q^a t^b.

    Row i's x-degree is the sum of both colors' (`config_weight_q`).  Its
    t-degree counts, in a white row, blue right exits at sites red occupies
    and, in a gray row, red's top exits plus the sites where blue has no
    right exit and red is EMPTY.  Both fillings keep their share
    (`filling_weight`), so a pair costs one AND and one popcount per row.
    Computed once per pair.
    """
    if pair.blue.shape != pair.red.shape:
        raise ValueError("pair members must share a shape")
    return pair.derived("weight", _pair_weight_of)


def _pair_weight_of(pair: PairRPP) -> Monomial:
    blue = vertex_model.filling_weight(pair.blue)
    red = vertex_model.filling_weight(pair.red)
    met = sum(map(int.bit_count, map(and_, blue.as_blue, red.as_red)))
    return Monomial(blue.q_exp + red.q_exp, red.gray_tops + met)


def trivial_t_exponent(lam) -> int:
    """t-degree every configuration shares: one t per red path above each
    gray row, totalling len(len-1)/2."""
    ell = len(normalize(lam))
    return ell * (ell - 1) // 2


def g_via_vertex(pair: PairRPP) -> int:
    """Interaction statistic from the configuration weight's t-degree."""
    w = pair_config_weight(pair)
    g = w.t_exp - trivial_t_exponent(pair.shape)
    if g < 0:
        raise AssertionError(f"negative interaction count {g} for {pair}")
    return g


# ---------------------------------------------------------------------------
# The lozenge-pattern count, computed from the slice chains alone


GREEN, ORCHID, SIENNA = "green", "orchid", "sienna"


def _lozenge_masks(bottom: int, top: int) -> tuple[int, int, int]:
    """Site bitmasks (green, orchid, sienna) of one row of one tiling, from
    its bottom and top interface masks.  A top site is a green top face;
    any other site is the right edge of a descending face (orchid) when one
    path passes it, or of an ascending one (sienna) when none does.  The
    paths passing a site are the bottom sites at or below it less the top
    sites at or below it; their parity is a prefix XOR of `bottom ^ top`,
    taken in doubling shifts.  When bottom-only and top-only sites
    alternate, bottom first, that count is 0 or 1, so it is its parity;
    any other row is counted by `_lozenge_walk`, which raises or answers.
    Only sites up to the highest path are read: above it a row is all
    sienna (white) or all orchid (gray), and neither meets a coupled
    pattern there."""
    width = max(bottom.bit_length(), top.bit_length())
    window = (1 << width) - 1
    passing, shift = bottom ^ top, 1
    while shift < width:
        passing ^= passing << shift
        shift <<= 1
    passing &= window
    if bottom & ~top & ~passing or top & ~bottom & passing:
        return _lozenge_walk(bottom, top)
    return top, passing & ~top, window & ~(top | passing)


def _lozenge_walk(bottom: int, top: int) -> tuple[int, int, int]:
    """`_lozenge_masks` of any row, counting the paths passing each site
    in one walk up the sites; a site other than a top site that more than
    one path, or fewer than none, passes is malformed and raises."""
    orchid = sienna = below = 0
    for site in range(max(bottom.bit_length(), top.bit_length())):
        below += (bottom >> site & 1) - (top >> site & 1)
        if top >> site & 1:
            continue  # green
        if below == 1:
            orchid |= 1 << site
        elif below == 0:
            sienna |= 1 << site
        else:
            raise ValueError(f"site {site}: malformed interface data "
                             f"(bottom {bottom:b}, top {top:b})")
    return top, orchid, sienna


def tiling_masks(rpp: RPP) -> tuple[tuple[int, int, int], ...]:
    """Site bitmasks (green, orchid, sienna) of every row of the filling's
    tiling, computed once per filling.  They cover the sites up to a row's
    highest path; above it a white (PRECEQ) row is all sienna and a gray
    (SUCCEQ) row all orchid."""
    return rpp.derived("lozenges", _tiling_masks)


def _tiling_masks(rpp: RPP) -> tuple[tuple[int, int, int], ...]:
    masks = vertex_model.interface_masks(rpp)
    return tuple(_lozenge_masks(b, t) for b, t in zip(masks, masks[1:]))


def _row_roles(white_row: bool, lozenges, grown: int) -> tuple[int, int]:
    """Site masks (as blue, as red) of one row of one color, from its
    `_lozenge_masks`: the sites where the row meets a coupled lozenge pair
    whatever the other color's row is.  The coupled pairs are of four types:

    type 1: blue orchid against a red top face (white rows);
    type 2: coinciding orchids (white rows);
    type 3: coinciding siennas (gray rows);
    type 4: red sienna against a blue top face (gray rows).

    Both types of a row share the kind of one color (blue orchid in white
    rows, red sienna in gray ones), so the coupled sites of a blue and a
    red row are exactly the blue row's as-blue AND the red row's as-red.
    Those sites number the slice's growth `grown` (white) or its shrinkage
    (gray); a row that breaks this identity raises.  The engine's moves and
    the fillings' rows both pass through here.
    """
    green, orchid, sienna = lozenges
    if white_row:
        roles, met = (orchid, green | orchid), orchid.bit_count()
    else:  # a gray row's slice shrinks by its coupling sites
        roles, met = (sienna | green, sienna), -sienna.bit_count()
    if met != grown:
        kind = "white" if white_row else "gray"
        raise AssertionError(f"{abs(met)} coupling sites on a {kind} row of "
                             f"lozenges {lozenges} that changes the slice size "
                             f"by {grown}")
    return roles


def _filling_roles(rpp: RPP) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The `_row_roles` of every row of the filling, as blue and as red,
    computed once per filling from its `tiling_masks` and slice sizes."""
    return rpp.derived("roles", _roles_of)


def _roles_of(rpp: RPP) -> tuple[tuple[int, ...], tuple[int, ...]]:
    sizes = list(map(sum, rpp.chain))
    as_blue, as_red = [], []
    for rel, lozenges, grown in zip(rpp_core.shape_geometry(rpp.shape).pattern,
                                    tiling_masks(rpp),
                                    map(sub, sizes[1:], sizes)):
        blue, red = _row_roles(rel == PRECEQ, lozenges, grown)
        as_blue.append(blue)
        as_red.append(red)
    return tuple(as_blue), tuple(as_red)


def _row_hits(pair: PairRPP):
    """Per row, the sites of the pair's coupled lozenge pairs: blue's
    as-blue AND red's as-red."""
    if pair.blue.shape != pair.red.shape:
        raise ValueError("pair members must share a shape")
    return map(and_, _filling_roles(pair.blue)[0], _filling_roles(pair.red)[1])


def coupled_pairs(pair: PairRPP) -> list[tuple[int, int, int]]:
    """Locations (type, row, site) of every coupled lozenge pair, by row and
    then by site; the types are those of `_row_roles`.  Found once per
    pair, on the first call."""
    return list(pair.derived("couplings", _coupled_pairs))


def _coupled_pairs(pair: PairRPP) -> tuple[tuple[int, int, int], ...]:
    # a white row's hit is type 1 on a red top face, else 2; a gray row's
    # is type 4 on a blue top face, else 3
    pattern = rpp_core.shape_geometry(pair.shape).pattern
    rows = zip(pattern, _row_hits(pair),
               tiling_masks(pair.blue), tiling_masks(pair.red))
    out = []
    for k, (rel, hits, (b_green, _, _), (r_green, _, _)) in enumerate(rows, 1):
        green, types = (r_green, (2, 1)) if rel == PRECEQ else (b_green, (3, 4))
        while hits:
            site = (hits & -hits).bit_length() - 1  # the lowest hit
            out.append((types[green >> site & 1], k, site))
            hits &= hits - 1
    return tuple(out)


def g_via_lozenges(pair: PairRPP) -> int:
    """Independent count of the same statistic, straight from the tilings:
    per row, one AND and one popcount of the two fillings' kept roles.
    Computed once per pair."""
    return pair.derived("g", _g_of)


def _g_of(pair: PairRPP) -> int:
    return sum(map(int.bit_count, _row_hits(pair)))


# ---------------------------------------------------------------------------
# The q,t generating function of pairs


def pair_genfun_bruteforce(lam, max_total: int) -> QTSeries:
    """Sum of q^(total volume) t^g over all pairs with volume <= max_total,
    one pair at a time: the reference oracle for `pair_genfun_transfer`.

    Desk scale only; the caller is responsible for keeping the enumeration
    within budget (roughly cells * max_total <= 60).
    """
    lam = normalize(lam)
    series = QTSeries(max_total)
    for blue, red in rpp_core.enumerate_pairs(lam, max_total):
        g = g_via_lozenges(make_pair(blue, red))
        series.add_term(blue.volume + red.volume, g)
    return series


def _live_moves(lam, max_total: int) -> tuple[list[list], list[list]]:
    """Row by row, every move mu -> nu of one color's slice chain that lies
    on some chain closing at () with volume <= max_total, on slice numbers.

    Each slice gets one number per interface, 0, 1, ... in the order the
    forward pass first reaches it.  Row k is a list indexed by the number
    of mu at interface k-1; entry mu holds its moves (need, |nu|, number of
    nu, as blue, as red), smallest need first: need is |nu| plus the least
    volume the chain still takes after nu, and the roles are the row's
    `_row_roles`, checked on every move.  Also returned: each interface's
    slices in number order.

    One forward pass keeps the least volume that reaches each slice and the
    interface mask of each slice it reaches.  The need has a closed form:
    the least continuation keeps nu on white (PRECEQ) rows and drops its
    first part on gray (SUCCEQ) rows, so part i of the slice at interface
    k is held until the i-th gray row j_i after k and costs its value
    times j_i - k.  Every part has such a row: the slice has at most one
    part per cell of its diagonal, these cells lie on distinct rows of the
    shape, and each of those rows ends at a particle, a gray row, after k.
    A move is kept when the least volume reaching mu plus the need of nu
    is within max_total.  Every slice a kept move reaches lies on such a
    chain, so it has a move in the next row and no backward pass is needed.
    """
    pattern, lengths, zetas = rpp_core.shape_geometry(lam)
    grays = [j for j, rel in enumerate(pattern, start=1) if rel != PRECEQ]
    slices = [()]
    reach = [0]  # per slice number: least volume up to it
    bottoms = [maya_mask((), zetas[0])]  # per slice number: interface mask
    rows, numbered = [], [slices]
    for k, (rel, n) in enumerate(zip(pattern, (*lengths, 0)), start=1):  # the last slice is ()
        white_row = rel == PRECEQ
        costs = [j - k for j in grays if j > k]
        row, number, nxt, tops, reached = [], {}, [], [], []
        for mu, low, bottom in zip(slices, reach, bottoms):
            spare, size_mu = max_total - low, sum(mu)
            moves = []
            for nu in rpp_core.next_slices(mu, rel, n, spare):
                need = sum(map(mul, nu, costs))
                if need > spare:
                    continue
                size = sum(nu)
                i = number.get(nu)
                if i is None:
                    i = number[nu] = len(reached)
                    reached.append(nu)
                    nxt.append(low + size)
                    tops.append(maya_mask(nu, zetas[k]))
                elif low + size < nxt[i]:
                    nxt[i] = low + size
                moves.append((need, size, i, *_row_roles(
                    white_row, _lozenge_masks(bottom, tops[i]), size - size_mu)))
            moves.sort(key=itemgetter(0))
            row.append(moves)
        rows.append(row)
        numbered.append(reached)
        slices, reach, bottoms = reached, nxt, tops
    return rows, numbered


def _fold(items: list, bits: int) -> tuple[int, int]:
    """One packed state from its parts, a list of (least key, packed
    counts) that may repeat a key, each part added at its key's offset.
    One part is returned as it is.  Otherwise Horner's rule from the
    highest key down, in runs of 16 parts and then over the runs' results,
    so each part is read a bounded number of times per level; one Horner
    pass over all parts would reread the growing sum once per part."""
    if len(items) == 1:
        return items[0]
    items.sort(reverse=True)
    while len(items) > 1:
        runs = []
        for i in range(0, len(items), 16):
            least, total = items[i]
            for key, part in items[i + 1:i + 16]:
                total = (total << (least - key) * bits) + part
                least = key
            runs.append((least, total))
        items = runs
    return items[0]


def pair_genfun_transfer(lam, max_total: int) -> QTSeries:
    """The same series as `pair_genfun_bruteforce`, one row of the colored
    model at a time, without building a filling.

    g is a sum of per-row terms, each reading interfaces k-1 and k of both
    colors, and the volume is the sum of the slice sizes.  After interface
    k a state is a (blue slice, red slice) pair, both named by their
    numbers at k (see `_live_moves`), holding the number of
    partial slice chains per (volume so far, g so far).  Row k extends both
    slices by the next slices of `_live_moves` and adds the row's coupled
    lozenge count to g, keeping only partial chains that can still close
    within the volume budget; the last row closes both chains at ().
    Whether a chain can close is read off each move's need, the exact
    least volume from its slice on (a closed form, see `_live_moves`).
    A need too large would drop counts the series keeps; one too small
    would keep partial chains that cannot close, whose counts may reach
    2^B in a kept slot.

    Packed layout (Kronecker substitution): with W = max_total + 1, the
    count of (v, g) has the key v W + g, and a state is (least key, one
    int) holding the count of key `least + i` at bits [i B, (i + 1) B).
    A move pair adds (|blue nu| + |red nu|) W + gain to the least key and
    leaves the int as it is; the gain is one AND and one popcount of the
    two moves' `_row_roles`.  Each move pair appends its (key, int) to the
    parts of its target state, which are folded into one int once per row
    (`_fold`); that int is then cut below the first key that can no
    longer close within max_total, only when it reaches that far.

    The key is exact because a partial g never exceeds its partial volume,
    so every kept count has g < W: a white row's gain is at most its blue
    orchids, which number |nu| - |mu| <= |nu| for the blue slice nu it
    adds; a gray row's is at most its red siennas, which number
    |mu| - |nu| <= |mu| for the red slice mu counted in the row before.
    `_live_moves` checks this on every move.  A count moved past the bound
    may reach g >= W before the cut, but then its volume is above the
    bound too, so it lands at a key the cut drops.  B is a whole number of
    bytes with 2^B above the number of pairs within max_total (the hook
    product at t = 1).  Each count the cut keeps belongs to partial pairs
    that each close within max_total in their own way, so no kept slot
    reaches that number.  A slot past the cut may overflow, but it carries
    only into higher slots, which the same cut drops.
    """
    lam = normalize(lam)
    series = QTSeries(max_total)
    rows, _ = _live_moves(lam, max_total)
    width = max_total + 1
    bits = 8 * -(-hook_count(lam, max_total, 2).bit_length() // 8)
    # per interface and slice number: least volume still to come after it
    closing = [[moves[0][0] for moves in row] for row in rows[1:]]
    closing.append([0])
    states = [(0, 0, 0, 1)]  # (blue no., red no., least key, packed counts)
    for moves, rest in zip(rows, closing):
        # per blue no.: red no. -> parts (least key, packed counts)
        parts = [defaultdict(list) for _ in rest]
        for blue, red, least, packed in states:
            spare = max_total - least // width
            reds = moves[red]
            for b_need, b_size, b_next, as_blue, _ in moves[blue]:
                limit = spare - b_need
                if limit < 0:
                    break
                base = least + b_size * width
                by_red = parts[b_next]
                for r_need, r_size, r_next, _, as_red in reds:
                    if r_need > limit:
                        break
                    key = base + r_size * width + (as_blue & as_red).bit_count()
                    by_red[r_next].append((key, packed))
        states = []
        for blue, by_red in enumerate(parts):
            for red, items in by_red.items():
                least, packed = _fold(items, bits)
                cut = ((max_total + 1 - rest[blue] - rest[red]) * width - least) * bits
                if packed.bit_length() > cut:
                    packed &= (1 << cut) - 1
                states.append((blue, red, least, packed))
    [(_, _, least, packed)] = states
    size = bits // 8
    data = packed.to_bytes(-(-packed.bit_length() // bits) * size, "little")
    for i in range(0, len(data), size):
        count = int.from_bytes(data[i:i + size], "little")
        if count:
            n, g = divmod(least + i // size, width)
            series.add_term(n, g, count)
    return series
