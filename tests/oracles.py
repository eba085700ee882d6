"""Independent routes that the tests check the package against.

Each of these computes something the package also computes, by another
route: per-site lozenge kinds, border strips and the cells they force to
zero, the cells of each diagonal, interlacing as a per-part predicate,
the inverse of the slice chain and of `maya_mask`, the hook products as
plain products of geometric series, the one-color row weights in closed
form with the row commutation they satisfy, and the two-color vertex
weights as products of per-color one-color weights.
"""

from __future__ import annotations

from typing import NamedTuple

from coupledrpp import rpp_core
from coupledrpp.coupling import GREEN, ORCHID, SIENNA, PairRPP
from coupledrpp.partitions import Cell, normalize, part
from coupledrpp.qt_series import QTSeries
from coupledrpp.rpp_core import PRECEQ, RPP, SUCCEQ, SliceSequence, next_slices
from coupledrpp.vertex_model import (
    ALLOWED_CROSSINGS,
    ALLOWED_STATES,
    CROSS_BOTH,
    CROSS_NWSE,
    CROSS_TOP,
    EMPTY,
    LEFT_TOP,
    VERTICAL,
    WHITE,
)

# ---------------------------------------------------------------------------
# Lozenges


def classify(bottom: int, top: int, site: int) -> str:
    """Lozenge type met at a top-interface site, from a row's bottom and
    top interface masks: a green top face, the right edge of a descending
    face (orchid), or of an ascending one (sienna).  The last two differ in
    the number of paths passing the site, bottom sites at or below it less
    top sites at or below it: one for orchid, none for sienna."""
    if top >> site & 1:
        return GREEN
    upto = (2 << site) - 1
    below = (bottom & upto).bit_count() - (top & upto).bit_count()
    if below == 1:
        return ORCHID
    if below != 0:
        raise ValueError(f"site {site}: malformed interface data "
                         f"(bottom {bottom:b}, top {top:b})")
    return SIENNA


# ---------------------------------------------------------------------------
# Border strips


def contains(lam, cell: Cell) -> bool:
    r, c = cell
    return r >= 1 and c >= 1 and c <= part(lam, r)


class BorderStrip(NamedTuple):
    """Edge-connected skew strip without a 2x2 block; index 1 is outermost."""

    index: int
    cells: tuple[Cell, ...]  # ordered from top-left end to bottom-right end


def rim(lam) -> list[Cell]:
    """Cells (r, c) of lam with (r+1, c+1) outside lam, by diagonal c - r."""
    lam = normalize(lam)
    out = []
    for r, row_len in enumerate(lam, start=1):
        for c in range(max(1, part(lam, r + 1)), row_len + 1):
            out.append(Cell(r, c))
    out.sort(key=lambda cell: cell.col - cell.row)
    return out


def remove_rim(lam) -> tuple[int, ...]:
    return normalize([p - 1 for p in lam[1:] if p - 1 > 0])


def border_strips(lam) -> list[BorderStrip]:
    """Peel rims outermost-first; removing a rim leaves the diagram of
    (lam_2 - 1, lam_3 - 1, ...) in place, so strip i of lam is the i-th cell
    from the top of every diagonal it meets."""
    lam = normalize(lam)
    strips = []
    shape = lam
    index = 1
    while shape:
        strips.append(BorderStrip(index, tuple(rim(shape))))
        shape = remove_rim(shape)
        index += 1
    return strips


def forced_zero_region(pair: PairRPP) -> list[tuple[str, Cell]]:
    """Cells the t = 0 constraints force to zero: blue strip i inside the
    first i rows or columns, red strip i inside the first i-1."""
    out = []
    for strip in border_strips(pair.shape):
        i = strip.index
        for cell in strip.cells:
            if cell.row <= i or cell.col <= i:
                out.append(("blue", cell))
            if cell.row <= i - 1 or cell.col <= i - 1:
                out.append(("red", cell))
    return out


# ---------------------------------------------------------------------------
# Interlacing and the inverse of the slice chain


def interlaces(mu, lam) -> bool:
    """mu interlaces lam: lam_1 >= mu_1 >= lam_2 >= mu_2 >= ... (zero-extended)."""
    mu, lam = normalize(mu), normalize(lam)
    n = max(len(mu), len(lam))
    for i in range(1, n + 1):
        if not (part(lam, i) >= part(mu, i) >= part(lam, i + 1)):
            return False
    return True


def diagonal_cells(lam) -> list[list[tuple[int, int]]]:
    """The 0-based (row, column) cells of each diagonal of the shape, top
    first, in one walk over its cells: diagonal k holds the cells of
    column minus row k - len(lam).  The reference for the package's
    diagonal lengths and for the cells its slice chain reads and writes."""
    lam = normalize(lam)
    depth = len(lam)
    cells = [[] for _ in range(lam[0] + depth - 1 if lam else 0)]
    for r in range(depth - 1, -1, -1):  # top row first
        for c in range(lam[r]):
            cells[c - r + depth - 1].append((r, c))
    return cells


def slices_by_cells(rpp: RPP) -> list[tuple[int, ...]]:
    """The filling's diagonals read at `diagonal_cells`, trailing zeros
    dropped: the slices of its chain between the two empty ends."""
    out = []
    for cells in diagonal_cells(rpp.shape):
        d = [rpp.rows[r][c] for r, c in cells]
        out.append(tuple(d[:len(d) - d.count(0)]))
    return out


def rows_by_cells(lam, slices) -> list[list[int]]:
    """The rows of the shape whose diagonal k holds slices[k-1] top first,
    written at `diagonal_cells`, zero elsewhere."""
    rows = [[0] * p for p in normalize(lam)]
    for cells, sl in zip(diagonal_cells(lam), slices):
        for (r, c), v in zip(cells, sl):
            rows[r][c] = v
    return rows


def partition_from_mask(mask: int, zeta: int) -> tuple[int, ...]:
    """Inverse of `maya_mask`: the i-th set bit from the top, at position
    p, is the part p - zeta + i, up to the first part that is not positive."""
    parts = []
    while mask:
        p = mask.bit_length() - 1
        v = p - zeta + len(parts) + 1
        if v <= 0:
            break
        parts.append(v)
        mask ^= 1 << p
    return tuple(parts)


def shape_from_pattern(pattern) -> tuple[int, ...]:
    """Rebuild the shape whose Maya hole/particle pattern is given."""
    pattern = tuple(pattern)
    mask = sum(1 << b for b, rel in enumerate(pattern) if rel == SUCCEQ)
    lam = partition_from_mask(mask, mask.bit_count())
    if rpp_core.interaction_pattern(lam) != pattern:
        raise ValueError(f"pattern {pattern} does not match any shape")
    return lam


def from_slices(ss: SliceSequence) -> RPP:
    """Inverse of `to_slices`; raises if the chain does not encode an RPP."""
    shape = shape_from_pattern(ss.pattern)
    n = len(ss.pattern) - 1
    if len(ss.slices) != n + 2:
        raise ValueError(f"expected {n + 2} slices, got {len(ss.slices)}")
    if ss.slices[0] or ss.slices[-1]:
        raise ValueError("chain must start and end with the empty partition")
    for k, rel in enumerate(ss.pattern):
        a, b = ss.slices[k], ss.slices[k + 1]
        ok = interlaces(a, b) if rel == PRECEQ else interlaces(b, a)
        if not ok:
            raise ValueError(f"slices {a} {rel} {b} violate interlacing at step {k}")
    return rpp_core.from_diagonals(shape, [normalize(sl) for sl in ss.slices[1:-1]])


# ---------------------------------------------------------------------------
# Series as plain products


def one(trunc_q: int) -> QTSeries:
    return QTSeries(trunc_q, {(0, 0): 1})


def product(a: QTSeries, b: QTSeries) -> QTSeries:
    """The truncated product of two series of the same truncation."""
    if a.trunc_q != b.trunc_q:
        raise ValueError(f"mismatched truncation: {a.trunc_q} vs {b.trunc_q}")
    out = {}
    for (n1, k1), c1 in a.coeffs.items():
        for (n2, k2), c2 in b.coeffs.items():
            n = n1 + n2
            if n > a.trunc_q:
                continue
            key = (n, k1 + k2)
            out[key] = out.get(key, 0) + c1 * c2
    return QTSeries(a.trunc_q, out)


def geometric_inverse(a: int, b: int, trunc_q: int) -> QTSeries:
    """Expansion of 1/(1 - q^a t^b): sum of q^(a m) t^(b m), truncated."""
    if a < 1:
        raise ValueError("q-exponent a must be >= 1")
    if b < 0:
        raise ValueError("t-exponent b must be >= 0")
    coeffs = {}
    m = 0
    while a * m <= trunc_q:
        coeffs[(a * m, b * m)] = 1
        m += 1
    return QTSeries(trunc_q, coeffs)


# ---------------------------------------------------------------------------
# One-color rows in closed form


def row_weight_closed(kind: str, mu, lam, x, ell: int = 0):
    """Closed-form row weight: white x^(|lam|-|mu|) iff mu <= lam, gray
    x^(|mu|-|lam|+ell) iff lam <= mu; None when no configuration exists."""
    mu, lam = normalize(mu), normalize(lam)
    if kind == WHITE:
        if not interlaces(mu, lam):
            return None
        return x ** (sum(lam) - sum(mu))
    if not interlaces(lam, mu):
        return None
    return x ** (sum(mu) - sum(lam) + ell)


def verify_commutation(mu, lam, x, y, window: int) -> dict:
    """Exact check of: (gray x below, white y above) summed over the middle
    interface equals (1 - xy) times the swapped stack.

    The unbounded first part of the middle partition on the swapped side is
    resummed as an exact geometric tail, which is how the |xy| < 1 hypothesis
    is realized without floating point.  The common factor x^columns-left is
    dropped from both sides.
    """
    mu, lam = normalize(mu), normalize(lam)
    if window < 1:
        raise ValueError("window too narrow")
    cap = max(part(mu, 1), part(lam, 1)) + window

    lhs = 0
    for nu in next_slices(mu, SUCCEQ, len(mu), sum(mu)):  # nu <= mu
        if interlaces(nu, lam):
            lhs += x ** (sum(mu) - sum(nu)) * y ** (sum(lam) - sum(nu))

    partial = 0
    at_cap = 0
    # mu <= nu gives nu_i <= mu_(i-1), so nu_1 <= cap bounds |nu| by cap + |mu|
    for nu in next_slices(mu, PRECEQ, len(mu) + 1, cap + sum(mu)):
        if part(nu, 1) > cap or not interlaces(lam, nu):
            continue
        term = y ** (sum(nu) - sum(mu)) * x ** (sum(nu) - sum(lam))
        if part(nu, 1) == cap:
            at_cap += term
        else:
            partial += term
    factor = x ** 0 - x * y
    if factor == 0:
        raise ValueError("xy = 1 degenerates the geometric tail")
    rhs = factor * (partial + at_cap / factor)
    return {"mu": list(mu), "lam": list(lam), "x": str(x), "y": str(y),
            "lhs": str(lhs), "rhs": str(rhs), "passed": lhs == rhs}


# ---------------------------------------------------------------------------
# Two-color vertex weights, one per-color factor at a time


def white_weight(v, x):
    """One color: x when the path leaves to the right, 1 otherwise."""
    if v not in ALLOWED_STATES:
        raise ValueError(f"disallowed vertex state {v}")
    return x if v.out_right else x ** 0


def cross_weight(c, z):
    """One color: weights 1-z, z, 1, z, 1 in the order of ALLOWED_CROSSINGS."""
    if c not in ALLOWED_CROSSINGS:
        raise ValueError(f"disallowed crossing state {c}")
    if c == CROSS_NWSE:
        return z ** 0 - z
    if c in (CROSS_TOP, CROSS_BOTH):
        return z
    return z ** 0


def colored_white_weight(v_blue, v_red, x, t):
    """Blue picks up an extra t for a right exit whenever red is present."""
    delta = 0 if v_red == EMPTY else 1
    return white_weight(v_blue, x * t ** delta) * white_weight(v_red, x)


_EXITS_TOP = (VERTICAL, LEFT_TOP)


def _gray_color_factor(v, x, t, alpha, beta):
    """Per-color factor of the 2-color gray weight: t^beta for the two
    right-exit states, x t^(alpha+beta) for the other three."""
    if v not in ALLOWED_STATES:
        raise ValueError(f"disallowed vertex state {v}")
    if v.out_right:
        return t ** beta
    return x * t ** (alpha + beta)


def colored_gray_weight(v_blue, v_red, x, t):
    """Product of per-color factors; alpha/beta count higher colors that are
    empty resp. exiting through the top."""
    alpha1 = 1 if v_red == EMPTY else 0
    beta1 = 1 if v_red in _EXITS_TOP else 0
    blue_part = _gray_color_factor(v_blue, x, t, alpha1, beta1)
    red_part = _gray_color_factor(v_red, x, t, 0, 0)
    return blue_part * red_part


def colored_cross_weight(c_blue, c_red, z, t):
    """Blue crossing weight at z / t^r where r flags a red NW-SE strand."""
    if c_blue not in ALLOWED_CROSSINGS or c_red not in ALLOWED_CROSSINGS:
        raise ValueError(f"disallowed crossing pair {(c_blue, c_red)}")
    r = 1 if c_red == CROSS_NWSE else 0
    return cross_weight(c_blue, z / t ** r) * cross_weight(c_red, z)
