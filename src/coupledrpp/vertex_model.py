"""One-color five-vertex model: weights, row transfer, YBE, weight bijection.

Rows live on a finite window of cells 0..window-1.  Interface k carries the
particle sites of the k-th slice partition, shifted so that the number of
columns left of the interface center equals the number of paths still in
play; white rows keep the center fixed, gray rows move it one column left
and send one path out to the right.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple

from .partitions import interlaces, normalize, part
from .rpp_core import PRECEQ, RPP, SUCCEQ, next_slices, shape_geometry
from .rpp_core import interface_zetas  # noqa: F401  (public here as well)


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


@dataclass(frozen=True)
class Monomial:
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


def white_weight(v: VertexState, x):
    """x when the path leaves to the right, 1 otherwise."""
    if v not in _ALLOWED:
        raise ValueError(f"disallowed vertex state {v}")
    return x if v.out_right else x ** 0


def gray_weight(v: VertexState, x):
    """Complementary table: x exactly where the white weight is 1."""
    if v not in _ALLOWED:
        raise ValueError(f"disallowed vertex state {v}")
    return x ** 0 if v.out_right else x


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


def cross_weight(c: CrossState, z):
    """Weights 1-z, z, 1, z, 1 in the order of ALLOWED_CROSSINGS."""
    if c not in _ALLOWED_CROSS:
        raise ValueError(f"disallowed crossing state {c}")
    if c == CROSS_NWSE:
        return z ** 0 - z
    if c in (CROSS_TOP, CROSS_BOTH):
        return z
    return z ** 0


# ---------------------------------------------------------------------------
# Rows


def interface_sites(slice_partition, zeta: int) -> list[int]:
    """Occupied sites (descending) of an interface holding zeta paths: the
    partition's Maya sites shifted right by the center position zeta."""
    if len(slice_partition) > zeta:
        raise ValueError(f"slice {slice_partition} too long for {zeta} paths")
    return [zeta + part(slice_partition, i) - i for i in range(1, zeta + 1)]


def pair_paths(kind: str, bottoms: list[int], tops: list[int]):
    """Match bottom to top sites; gray rows send the topmost bottom site out
    to the right.  Returns (pairs, exit_site) or None when no configuration
    satisfies the boundary."""
    if kind == WHITE:
        if len(bottoms) != len(tops):
            return None
        pairs = list(zip(bottoms, tops))
        exit_site = None
    else:
        if len(bottoms) != len(tops) + 1:
            return None
        exit_site = bottoms[0]
        pairs = list(zip(bottoms[1:], tops))
        if tops and exit_site <= tops[0]:
            return None
    for a, b in pairs:
        if b < a:
            return None
    # paths may not collide: each pair must sit strictly below the previous
    for (a1, _b1), (_a2, b2) in zip(pairs, pairs[1:]):
        if b2 >= a1:
            return None
    return pairs, exit_site


def row_states(kind: str, bottoms: list[int], tops: list[int],
               window: int) -> list[VertexState] | None:
    """Per-cell states of the unique row configuration, or None."""
    matched = pair_paths(kind, bottoms, tops)
    if matched is None:
        return None
    pairs, exit_site = matched
    need = max([s for s in bottoms + tops] + [0]) + 2
    if window < need:
        raise ValueError(f"window {window} too narrow; need >= {need}")
    states = [EMPTY] * window
    if exit_site is not None:
        states[exit_site] = BOTTOM_RIGHT
        for c in range(exit_site + 1, window):
            states[c] = HORIZONTAL
    for a, b in pairs:
        if a == b:
            states[a] = VERTICAL
        else:
            states[a] = BOTTOM_RIGHT
            for c in range(a + 1, b):
                states[c] = HORIZONTAL
            states[b] = LEFT_TOP
    return states


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


def row_weight_explicit(kind: str, mu, lam, x, ell: int, window: int):
    """Vertex-by-vertex product over the window; must agree with the closed form."""
    mu, lam = normalize(mu), normalize(lam)
    if kind == WHITE:
        zeta_bottom = zeta_top = ell
    else:
        zeta_bottom, zeta_top = ell + 1, ell
    if len(mu) > zeta_bottom or len(lam) > zeta_top:
        raise ValueError(f"partitions too long for {ell} columns left of center")
    bottoms = interface_sites(mu, zeta_bottom)
    tops = interface_sites(lam, zeta_top)
    states = row_states(kind, bottoms, tops, window)
    if states is None:
        return None
    weigh = white_weight if kind == WHITE else gray_weight
    total = x ** 0
    for v in states:
        total = total * weigh(v, x)
    return total


# ---------------------------------------------------------------------------
# Whole configurations


@dataclass(frozen=True)
class VertexConfig:
    shape: tuple[int, ...]
    pattern: tuple[str, ...]          # pattern[k-1] decides the kind of row k
    interfaces: tuple[tuple[int, ...], ...]
    zetas: tuple[int, ...]            # center position of each interface
    window: int
    states: tuple[tuple[VertexState, ...], ...]  # states[k-1] is row k

    def kind(self, k: int) -> str:
        return WHITE if self.pattern[k - 1] == PRECEQ else GRAY


def config_window(interfaces, zetas) -> int:
    top = 0
    for sl, zeta in zip(interfaces, zetas):
        if zeta:
            top = max(top, zeta + part(sl, 1) - 1)
    return top + 2


def interface_site_lists(rpp: RPP) -> tuple[tuple[int, ...], ...]:
    """Ascending occupied sites of every interface of the filling's chain,
    computed once per filling."""
    return rpp.derived("sites", _sites_of)


def _sites_of(rpp: RPP):
    zetas = shape_geometry(rpp.shape).zetas
    return tuple(tuple(reversed(interface_sites(sl, zeta)))
                 for sl, zeta in zip(rpp.chain.slices, zetas))


def rpp_to_config(lam, rpp: RPP) -> VertexConfig:
    """The unique path configuration representing the filling, built once
    per filling."""
    if rpp.shape != lam and rpp.shape != normalize(lam):
        raise ValueError(f"filling has shape {rpp.shape}, expected {normalize(lam)}")
    return rpp.derived("config", _config_of)


def _config_of(rpp: RPP) -> VertexConfig:
    geometry = shape_geometry(rpp.shape)
    slices = rpp.chain.slices
    sites = interface_site_lists(rpp)
    window = config_window(slices, geometry.zetas)
    rows = []
    for k, rel in enumerate(geometry.pattern, start=1):
        kind = WHITE if rel == PRECEQ else GRAY
        states = row_states(kind, sites[k - 1][::-1], sites[k][::-1], window)
        if states is None:
            raise AssertionError(f"row {k} of a valid RPP has no configuration")
        rows.append(tuple(states))
    return VertexConfig(rpp.shape, geometry.pattern, slices, geometry.zetas,
                        window, tuple(rows))


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


@lru_cache(maxsize=None)
def _exponents(kind: str) -> dict:
    """x-exponent (as q_exp) of every state's weight in a row of this kind:
    the published weight at the symbolic point x = Monomial(1, 0)."""
    weigh = white_weight if kind == WHITE else gray_weight
    return {v: weigh(v, Monomial(1, 0)) for v in ALLOWED_STATES}


def config_weight_q(lam, rpp: RPP) -> Monomial:
    """Weight of the configuration with x_i = q^(+i) on gray rows and
    q^(-i) on white rows."""
    config = rpp_to_config(lam, rpp)
    q_exp = 0
    for k, row in enumerate(config.states, start=1):
        kind = config.kind(k)
        exponents = _exponents(kind)
        x_deg = sum(exponents[v].q_exp for v in row)
        q_exp += x_deg * (-k if kind == WHITE else k)
    return Monomial(q_exp, 0)


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


def ybe_tables(kind: str, x, y):
    """The `ybe_sweep` tables (cross, bottom, top) of one color: a white or
    gray row at x below a white row at y, crossing at y/x resp. x y."""
    if kind == WHITE_WHITE:
        z, weigh_bottom = y / x, white_weight
    elif kind == WHITE_GRAY:
        z, weigh_bottom = y * x, gray_weight
    else:
        raise ValueError(f"unknown YBE kind {kind!r}")
    return ({c: cross_weight(c, z) for c in ALLOWED_CROSSINGS},
            {v: weigh_bottom(v, x) for v in ALLOWED_STATES},
            {v: white_weight(v, y) for v in ALLOWED_STATES})


DEFAULT_SAMPLES = (
    (Fraction(2, 3), Fraction(1, 5)),
    (Fraction(1, 2), Fraction(1, 3)),
    (Fraction(3, 7), Fraction(2, 9)),
    (Fraction(5, 4), Fraction(1, 7)),
    (Fraction(1, 9), Fraction(8, 3)),
)


def verify_ybe(kind: str, samples=DEFAULT_SAMPLES) -> dict:
    """Check the YBE at every boundary assignment and sample point."""
    violations = []
    checked = 0
    for x, y in samples:
        sides = ybe_sweep(*ybe_tables(kind, x, y))
        for code in range(64):
            boundary = tuple((code >> i) & 1 for i in range(6))
            lhs, rhs = (side.get(boundary, 0) for side in sides)
            checked += 1
            if lhs != rhs:
                violations.append({"boundary": list(boundary),
                                   "x": str(x), "y": str(y),
                                   "lhs": str(lhs), "rhs": str(rhs)})
    return {"kind": kind, "checked": checked,
            "violations": violations, "passed": not violations}


# ---------------------------------------------------------------------------
# Row commutation (the two-row swap identity)


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
    one = x ** 0
    if one - x * y == 0:
        raise ValueError("xy = 1 degenerates the geometric tail")
    rhs_total = partial + at_cap / (one - x * y)
    rhs = (one - x * y) * rhs_total
    return {"mu": list(mu), "lam": list(lam), "x": str(x), "y": str(y),
            "lhs": str(lhs), "rhs": str(rhs), "passed": lhs == rhs}
