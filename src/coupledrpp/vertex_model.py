"""The colored five-vertex model: weights of one color or several, row
transfer, YBE, weight bijection.

A vertex of n colors is a column of n one-color states, lowest color
first; one color is the case n = 1, and blue and red (`coupling`) are the
case n = 2.

Rows live on a finite window of cells 0..window-1.  Interface k carries the
particle sites of the k-th slice partition as one int bitmask, its Maya
diagram (`partitions.maya_mask`) shifted so that the number of columns left of the interface center
equals the number of paths still in play; white rows keep the center fixed,
gray rows move it one column left and send one path out to the right.
"""

from __future__ import annotations

import json
from functools import cache, cached_property, partial
from itertools import product
from math import lcm
from typing import NamedTuple

from .partitions import maya_mask, normalize
from .rpp_core import PRECEQ, RPP, shape_geometry


class VertexState(NamedTuple):
    in_bottom: int
    in_left: int
    out_top: int
    out_right: int


EMPTY = VertexState(0, 0, 0, 0)
BOTTOM_RIGHT = VertexState(1, 0, 0, 1)
HORIZONTAL = VertexState(0, 1, 0, 1)
VERTICAL = VertexState(1, 0, 1, 0)
LEFT_TOP = VertexState(0, 1, 1, 0)

ALLOWED_STATES = (EMPTY, BOTTOM_RIGHT, HORIZONTAL, VERTICAL, LEFT_TOP)
_ALLOWED = frozenset(ALLOWED_STATES)

WHITE = "white"
GRAY = "gray"


def vertex_state(in_bottom, in_left, out_top, out_right) -> VertexState | None:
    """The state with these edges, or None if it is not one of the five."""
    v = VertexState(in_bottom, in_left, out_top, out_right)
    return v if v in _ALLOWED else None


class Monomial(NamedTuple):
    """Exact monomial q^q_exp * t^t_exp; the only weight values the
    q-specialization produces."""

    q_exp: int = 0
    t_exp: int = 0

    def __mul__(self, other: "Monomial") -> "Monomial":
        return Monomial(self.q_exp + other.q_exp, self.t_exp + other.t_exp)

    def __pow__(self, n: int) -> "Monomial":
        return Monomial(self.q_exp * n, self.t_exp * n)

    def __repr__(self):
        return f"q^{self.q_exp}" + (f"*t^{self.t_exp}" if self.t_exp else "")


def white_weight(column, x, t=1):
    """Weight of a column of per-color states, lowest color first: color a
    weighs x t^(higher colors present) when it leaves to the right, 1
    otherwise.  With one color, x on a right exit."""
    a = b = present = 0
    for v in reversed(column):
        if v not in _ALLOWED:
            raise ValueError(f"disallowed vertex state {v}")
        if v.out_right:
            a += 1
            b += present
        present += v != EMPTY
    return x ** a * t ** b if b else x ** a


def gray_weight(column, x, t=1):
    """Color a weighs t^beta when it leaves to the right, x t^(alpha+beta)
    otherwise, where alpha counts the higher colors that are EMPTY and
    beta those that leave through the top.  With one color, the
    complement of the white table: x exactly where the white weight is 1."""
    a = b = empty = tops = 0
    for v in reversed(column):
        if v not in _ALLOWED:
            raise ValueError(f"disallowed vertex state {v}")
        if v.out_right:
            b += tops
        else:
            a += 1
            b += empty + tops
        empty += v == EMPTY
        tops += v.out_top
    return x ** a * t ** b if b else x ** a


# The published 5x5 two-color gray table, (x-exponent, t-exponent) per
# (blue, red) state pair, rows ordered [empty, vertical, horizontal,
# bottom-right, left-top] for blue and the same order for red.
GRAY_TABLE_VERBATIM = {
    (EMPTY, EMPTY): (2, 1), (EMPTY, VERTICAL): (2, 1), (EMPTY, HORIZONTAL): (1, 0),
    (EMPTY, BOTTOM_RIGHT): (1, 0), (EMPTY, LEFT_TOP): (2, 1),
    (VERTICAL, EMPTY): (2, 1), (VERTICAL, VERTICAL): (2, 1),
    (VERTICAL, HORIZONTAL): (1, 0), (VERTICAL, BOTTOM_RIGHT): (1, 0),
    (VERTICAL, LEFT_TOP): (2, 1),
    (HORIZONTAL, EMPTY): (1, 0), (HORIZONTAL, VERTICAL): (1, 1),
    (HORIZONTAL, HORIZONTAL): (0, 0), (HORIZONTAL, BOTTOM_RIGHT): (0, 0),
    (HORIZONTAL, LEFT_TOP): (1, 1),
    (BOTTOM_RIGHT, EMPTY): (1, 0), (BOTTOM_RIGHT, VERTICAL): (1, 1),
    (BOTTOM_RIGHT, HORIZONTAL): (0, 0), (BOTTOM_RIGHT, BOTTOM_RIGHT): (0, 0),
    (BOTTOM_RIGHT, LEFT_TOP): (1, 1),
    (LEFT_TOP, EMPTY): (2, 1), (LEFT_TOP, VERTICAL): (2, 1),
    (LEFT_TOP, HORIZONTAL): (1, 0), (LEFT_TOP, BOTTOM_RIGHT): (1, 0),
    (LEFT_TOP, LEFT_TOP): (2, 1),
}


class CrossState(NamedTuple):
    left_top: int
    left_bottom: int
    right_top: int
    right_bottom: int


CROSS_EMPTY = CrossState(0, 0, 0, 0)
CROSS_NWSE = CrossState(1, 0, 0, 1)   # the thick NW-SE strand
CROSS_TOP = CrossState(1, 0, 1, 0)
CROSS_BOTTOM = CrossState(0, 1, 0, 1)
CROSS_BOTH = CrossState(1, 1, 1, 1)

ALLOWED_CROSSINGS = (CROSS_NWSE, CROSS_TOP, CROSS_BOTTOM, CROSS_BOTH, CROSS_EMPTY)
_ALLOWED_CROSS = frozenset(ALLOWED_CROSSINGS)


def cross_weight(column, z, t=1):
    """Weight of a column of per-color crossings, lowest color first: color
    a is the one-color crossing, 1-z, z, 1, z, 1 in the order of
    ALLOWED_CROSSINGS, at z / t^(higher colors on the NW-SE strand)."""
    a = b = strands = 0
    nwse = []  # per color on the NW-SE strand: how many higher colors are
    for c in reversed(column):
        if c not in _ALLOWED_CROSS:
            raise ValueError(f"disallowed crossing state {c}")
        if c == CROSS_NWSE:
            nwse.append(strands)
            strands += 1
        elif c.right_top:
            a += 1
            b += strands
    w = z ** a / t ** b if b else z ** a
    for r in nwse:
        w = w * (z ** 0 - (z / t ** r if r else z))
    return w


# ---------------------------------------------------------------------------
# Rows


def row_masks(kind: str, bottom: int, top: int):
    """Site masks (out_right, occupied, out_top) of the unique row
    configuration between interface masks `bottom` and `top`, or None: the
    sites whose vertex sends a path right, is not EMPTY, or sends a path up.

    Paths run up and right over disjoint site intervals, one from each
    bottom site to the next top site at or above it, so the intervals sum
    to top - bottom and, with their top ends, to 2 top - bottom.  A gray
    row sends its highest bottom site out to the right for good, which
    makes the first two masks negative ints (~out_right is finite).  The
    configuration exists exactly when the site counts match (the gray
    bottom holds one more), no interval covers a top site, and a gray
    row's exit lies above every top site."""
    extra = 0 if kind == WHITE else 1
    if bottom.bit_count() != top.bit_count() + extra:
        return None
    right = top - bottom
    if right & top or (extra and top.bit_length() >= bottom.bit_length()):
        return None
    return right, right + top, top


def row_states(kind: str, bottom: int, top: int,
               window: int) -> list[VertexState] | None:
    """Per-cell states of the unique row configuration, or None."""
    masks = row_masks(kind, bottom, top)
    return None if masks is None else _vertices(kind, bottom, masks[0], top, window)


def _vertices(kind: str, bottom: int, right: int, top: int, window: int) -> list[VertexState]:
    """The states of a row over the window from its bottom, out_right and
    top site masks: vertex c reads (bottom bit c, out_right bit c-1, top
    bit c, out_right bit c), and must be one of the five."""
    need = max(1, bottom.bit_length(), top.bit_length()) + 1
    if window < need:
        raise ValueError(f"window {window} too narrow; need >= {need}")
    states = []
    for c in range(window):
        v = vertex_state(bottom >> c & 1, right << 1 >> c & 1,
                         top >> c & 1, right >> c & 1)
        if v is None:
            raise AssertionError(f"site {c} of a {kind} row from {bottom:b} "
                                 f"to {top:b} is no allowed vertex")
        states.append(v)
    return states


def centered_row_states(kind: str, mu, lam, ell: int,
                        window: int) -> list[VertexState] | None:
    """The `row_states` of a row from slice mu up to slice lam, ell columns
    left of its top center; a gray row's bottom center is ell + 1, since
    the row sends one path out to the right."""
    mu, lam = normalize(mu), normalize(lam)
    zeta_bottom = ell if kind == WHITE else ell + 1
    if len(mu) > zeta_bottom or len(lam) > ell:
        raise ValueError(f"partitions too long for {ell} columns left of center")
    return row_states(kind, maya_mask(mu, zeta_bottom),
                      maya_mask(lam, ell), window)


def row_weight_explicit(kind: str, mus, lams, x, ell: int, window: int, t=1):
    """Vertex-by-vertex product over the window of one row whose colors,
    lowest first, run from slice mus[a] up to slice lams[a]; None when
    some color admits no configuration."""
    per_color = []
    for mu, lam in zip(mus, lams):
        states = centered_row_states(kind, mu, lam, ell, window)
        if states is None:
            return None
        per_color.append(states)
    weigh = white_weight if kind == WHITE else gray_weight
    total = x ** 0
    for column in zip(*per_color):
        total = total * weigh(column, x, t)
    return total


# ---------------------------------------------------------------------------
# Whole configurations


class _ConfigFields(NamedTuple):
    shape: tuple[int, ...]
    pattern: tuple[str, ...]          # pattern[k-1] decides the kind of row k
    interfaces: tuple[tuple[int, ...], ...]
    zetas: tuple[int, ...]            # center position of each interface
    window: int
    # masks[k-1]: row k's (out_right, occupied, out_top) sites, see row_masks
    masks: tuple[tuple[int, int, int], ...]


class VertexConfig(_ConfigFields):
    def kind(self, k: int) -> str:
        return WHITE if self.pattern[k - 1] == PRECEQ else GRAY

    @cached_property
    def states(self) -> tuple[tuple[VertexState, ...], ...]:
        """states[k-1] is row k over the window, read off its `masks` (the
        bottom mask is out_top - out_right) on the first read and kept."""
        return tuple(tuple(_vertices(self.kind(k), top - right, right, top, self.window))
                     for k, (right, _, top) in enumerate(self.masks, start=1))


def config_window(rpp: RPP) -> int:
    """The site two above the highest path of the filling's interfaces (two
    above site 0 when there is none): a row's vertices sit at the sites
    below it, and a drawn tiling reaches up to it.  Read off the slice
    chain, so no mask is built: an interface's highest path is at site
    zeta + first part - 1 (zeta - 1 when its slice is empty), the top bit
    of its `maya_mask`."""
    zetas = shape_geometry(rpp.shape).zetas
    return 1 + max(1, *(zeta + (sl[0] if sl else 0)
                        for sl, zeta in zip(rpp.chain.slices, zetas)))


def interface_masks(rpp: RPP) -> tuple[int, ...]:
    """The `maya_mask` of every interface of the filling's chain,
    computed once per filling."""
    return rpp.derived("masks", lambda rpp: tuple(
        maya_mask(sl, zeta)
        for sl, zeta in zip(rpp.chain.slices, shape_geometry(rpp.shape).zetas)))


def _check_shape(lam, rpp: RPP) -> None:
    if rpp.shape != lam and rpp.shape != normalize(lam):
        raise ValueError(f"filling has shape {rpp.shape}, expected {normalize(lam)}")


def _rows_of(rpp: RPP) -> tuple[tuple[int, int, int], ...]:
    """The `row_masks` of every row of the filling; raises if one is None."""
    pattern = shape_geometry(rpp.shape).pattern
    masks = interface_masks(rpp)
    rows = []
    for k, rel in enumerate(pattern, start=1):
        row = row_masks(WHITE if rel == PRECEQ else GRAY, masks[k - 1], masks[k])
        if row is None:
            raise AssertionError(f"row {k} of a valid RPP has no configuration")
        rows.append(row)
    return tuple(rows)


def rpp_to_config(lam, rpp: RPP) -> VertexConfig:
    """The unique path configuration representing the filling, built once
    per filling."""
    _check_shape(lam, rpp)
    return rpp.derived("config", _config_of)


def _config_of(rpp: RPP) -> VertexConfig:
    geometry = shape_geometry(rpp.shape)
    return VertexConfig(rpp.shape, geometry.pattern, rpp.chain.slices, geometry.zetas,
                        config_window(rpp), _rows_of(rpp))


class FillingWeight(NamedTuple):
    """A filling's share of the configuration weights under x_i = q^(+i)
    on gray rows and q^(-i) on white rows (`config_weight_q`)."""

    q_exp: int                   # the x-degree of all rows
    gray_tops: int               # top exits of the gray rows
    # per row, site masks whose AND over (blue, red) holds the row's t
    # factors besides red's top exits: right exits resp. occupied sites
    # on white rows, the sites without either on gray rows (finite: a
    # gray row's exit runs right for good)
    as_blue: tuple[int, ...]
    as_red: tuple[int, ...]


def filling_weight(rpp: RPP) -> FillingWeight:
    """The filling's `FillingWeight`, read off its `row_masks` without
    building a `VertexConfig`; computed once per filling."""
    return rpp.derived("weight", _weight_of)


def _weight_of(rpp: RPP) -> FillingWeight:
    pattern = shape_geometry(rpp.shape).pattern
    q_exp = gray_tops = 0
    as_blue, as_red = [], []
    for k, (rel, (right, occupied, top)) in enumerate(
            zip(pattern, _rows_of(rpp)), start=1):
        if rel == PRECEQ:
            q_exp -= k * right.bit_count()
            as_blue.append(right)
            as_red.append(occupied)
        else:
            q_exp += k * (~right).bit_count()
            gray_tops += top.bit_count()
            as_blue.append(~right)
            as_red.append(~occupied)
    return FillingWeight(q_exp, gray_tops, tuple(as_blue), tuple(as_red))


def config_to_json(config: VertexConfig) -> str:
    """Row kinds, per-interface slice partitions, and window bounds."""
    return json.dumps({
        "shape": list(config.shape),
        "rows": [{"kind": config.kind(k), "x_index": k}
                 for k in range(1, len(config.pattern) + 1)],
        "interfaces": [list(sl) for sl in config.interfaces],
        "window": config.window,
    })


def A_lambda(lam) -> Monomial:
    """Shape-only normalization q^(-sum (lam_i + len - i + 1)(i - 1))."""
    lam = normalize(lam)
    ell = len(lam)
    expo = sum((lam[i - 1] + ell - i + 1) * (i - 1) for i in range(1, ell + 1))
    return Monomial(-expo, 0)


def config_weight_q(lam, rpp: RPP) -> Monomial:
    """Weight of the configuration with x_i = q^(+i) on gray rows and
    q^(-i) on white rows: row i's x-degree counts its right exits (white)
    or the sites without one (gray)."""
    _check_shape(lam, rpp)
    return Monomial(filling_weight(rpp).q_exp, 0)


# ---------------------------------------------------------------------------
# Yang-Baxter verification

WHITE_WHITE = "white-white"
WHITE_GRAY = "white-gray"


def ybe_sweep(cross, bottom, top):
    """Both sides of the Yang-Baxter equation at every boundary
    (i1, i2, i3, j1, j2, j3), by one sparse contraction of weight tables.

    `cross` maps crossing edges (lt, lb, rt, rb) and `bottom`/`top` map
    vertex edges (in_bottom, in_left, out_top, out_right) to weights, one
    entry per allowed state over any edge alphabet.  Returns the dicts
    boundary -> partition function of the cross-left and cross-right sides

        lhs = sum over a, b, m of R[i1,i2,a,b] B[i3,b,m,j1] T[m,a,j3,j2]
        rhs = sum over a, b, m of R[a,b,j2,j1] T[i3,i2,m,b] B[m,i1,j3,a]

    where a boundary no nonzero product reaches is missing (its value is 0).
    On the cross-right side the rows trade places, kind and parameter.
    """
    bottom_by_left, bottom_by_right = {}, {}
    for (ib, il, ot, orr), w in bottom.items():
        if w:
            bottom_by_left.setdefault(il, []).append((ib, ot, orr, w))
            bottom_by_right.setdefault(orr, []).append((ib, il, ot, w))
    top_by_in, top_by_out = {}, {}
    for (ib, il, ot, orr), w in top.items():
        if w:
            top_by_in.setdefault((ib, il), []).append((ot, orr, w))
            top_by_out.setdefault((ot, orr), []).append((ib, il, w))
    lhs, rhs = {}, {}
    for (lt, lb, rt, rb), r in cross.items():
        if not r:
            continue
        # cross-left: R[i1, i2, a, b] with i1, i2, a, b = lt, lb, rt, rb
        for i3, m, j1, wb in bottom_by_left.get(rb, ()):
            for j3, j2, wt in top_by_in.get((m, rt), ()):
                key = (lt, lb, i3, j1, j2, j3)
                lhs[key] = lhs.get(key, 0) + r * wb * wt
        # cross-right: R[a, b, j2, j1] with a, b, j2, j1 = lt, lb, rt, rb
        for m, i1, j3, wb in bottom_by_right.get(lt, ()):
            for i3, i2, wt in top_by_out.get((m, lb), ()):
                key = (i1, i2, i3, rb, rt, j3)
                rhs[key] = rhs.get(key, 0) + r * wt * wb
    return lhs, rhs


def ybe_tables(kind: str, colors: int, x, y, t=1):
    """The `ybe_sweep` tables (cross, bottom, top) of `colors` colors: a
    white or gray row at x below a white row at y.  An edge is a bit for
    one color and a tuple of bits, lowest color first, for more.

    White rows cross at z = y/x.  A gray weight at x is x^colors
    t^(colors (colors-1)/2) times the white weight at 1/(x t^(colors-1)),
    so a gray row crosses a white one at z = x y t^(colors-1): x y for one
    color, x y t for two.
    """
    if kind == WHITE_WHITE:
        z, weigh_bottom = y / x, white_weight
    elif kind == WHITE_GRAY:
        z, weigh_bottom = x * y * t ** (colors - 1), gray_weight
    else:
        raise ValueError(f"unknown YBE kind {kind!r}")

    def edges(column):
        return column[0] if colors == 1 else tuple(zip(*column))

    columns = list(product(ALLOWED_STATES, repeat=colors))
    return ({edges(c): cross_weight(c, z, t)
             for c in product(ALLOWED_CROSSINGS, repeat=colors)},
            {edges(v): weigh_bottom(v, x, t) for v in columns},
            {edges(v): white_weight(v, y, t) for v in columns})


@cache
def _ybe_samples() -> dict:
    """Exact sample points, (x, y) for one color and (x, y, t) for more:
    `YBE_SAMPLES`, built on first use so that importing the module does
    not import `fractions`."""
    from fractions import Fraction
    return {
        1: ((Fraction(2, 3), Fraction(1, 5)),
            (Fraction(1, 2), Fraction(1, 3)),
            (Fraction(3, 7), Fraction(2, 9)),
            (Fraction(5, 4), Fraction(1, 7)),
            (Fraction(1, 9), Fraction(8, 3))),
        2: ((Fraction(1, 2), Fraction(1, 3), Fraction(2, 5)),
            (Fraction(2, 7), Fraction(3, 5), Fraction(1, 2)),
            (Fraction(1, 3), Fraction(1, 4), Fraction(3, 7))),
    }


def __getattr__(name: str):
    if name == "YBE_SAMPLES":
        return _ybe_samples()
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def _integer_table(table):
    """`table` times the lcm of its weights' denominators, and that lcm."""
    scale = lcm(*(w.denominator for w in table.values()))
    return {k: w.numerator * (scale // w.denominator) for k, w in table.items()}, scale


def ybe_report(kind: str, tables_at, samples, boundaries) -> dict:
    """The YBE report of `kind`: both sides of `ybe_sweep` over the rational
    tables `tables_at(*sample)` compared at every boundary, sample by sample.
    A violation names its boundary, as JSON lists, its sample point (x, y
    and, for more than one color, t) and both sides.

    Each table is scaled to ints first.  Every term on either side is one
    cross, one bottom and one top weight, so both sides carry the product
    of the three scales and agree exactly when the rational sides do.  Only
    boundaries some side reaches can differ; the others are 0 on both."""
    violations = []
    for sample in samples:
        (cross, d_cross), (bottom, d_bottom), (top, d_top) = (
            _integer_table(table) for table in tables_at(*sample))
        lhs, rhs = ybe_sweep(cross, bottom, top)
        differ = {key for key in lhs.keys() | rhs.keys()
                  if lhs.get(key, 0) != rhs.get(key, 0)}
        if not differ:
            continue
        from fractions import Fraction
        scale = d_cross * d_bottom * d_top
        for boundary in boundaries:
            if boundary in differ:
                violations.append({"boundary": json.loads(json.dumps(boundary)),
                                   **dict(zip("xyt", map(str, sample))),
                                   "lhs": str(Fraction(lhs.get(boundary, 0), scale)),
                                   "rhs": str(Fraction(rhs.get(boundary, 0), scale))})
    return {"kind": kind, "checked": len(boundaries) * len(samples),
            "violations": violations, "passed": not violations}


def ybe_boundaries(colors: int) -> list:
    """Every boundary (i1, i2, i3, j1, j2, j3): for one color the 6-bit
    codes with i1 lowest, for more the `itertools.product` of the edges."""
    if colors == 1:
        return [tuple(code >> i & 1 for i in range(6)) for code in range(64)]
    return list(product(product((0, 1), repeat=colors), repeat=6))


def verify_ybe(kind: str, colors: int, samples=None, boundaries=None) -> dict:
    """Check the YBE of `ybe_tables` at every boundary (by default all of
    `ybe_boundaries`) and sample point (by default those of `YBE_SAMPLES`).
    Reports for more than one color are labelled `colored-<kind>`."""
    if samples is None:
        samples = _ybe_samples()[min(colors, 2)]
    if boundaries is None:
        boundaries = ybe_boundaries(colors)
    label = kind if colors == 1 else f"colored-{kind}"
    return ybe_report(label, partial(ybe_tables, kind, colors), samples, boundaries)
