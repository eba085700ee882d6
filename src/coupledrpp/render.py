"""Static ASCII and SVG renderings of diagrams, tilings, and pairs.

Output is deterministic: identical input yields byte-identical text.  SVG
coordinates are integers derived from interface lines (x) and doubled
heights (y), so no floating point enters the files.
"""

from __future__ import annotations

from . import coupling, rpp_core, vertex_model
from .coupling import GREEN, ORCHID, SIENNA, PairRPP
from .partitions import hook_table
from .rpp_core import RPP, SUCCEQ

PARTICLE, HOLE = "●", "○"  # filled / open circle
_SITE = str.maketrans("10", PARTICLE + HOLE)


def maya_ascii(mask: int, half_width: int) -> str:
    """The Maya diagram `partitions.maya` returns, site -half_width first,
    with a bar at the centre: its bits read lowest first, in one pass."""
    sites = format(mask, f"0{2 * half_width}b")[::-1].translate(_SITE)
    return f"...{sites[:half_width]}|{sites[half_width:]}..."


def hook_ascii(lam) -> str:
    """Hook lengths in the diagram layout, top row first."""
    table = hook_table(lam)
    if not table:
        return "(empty shape)"
    width = max(len(str(h)) for row in table for h in row)
    lines = [" ".join(str(h).rjust(width) for h in row) for row in table]
    return "\n".join(reversed(lines))


def rpp_ascii(rpp: RPP) -> str:
    if not rpp.shape:
        return "(empty shape)"
    width = max(max(len(str(v)) for v in row) for row in rpp.rows)
    lines = [" ".join(str(v).rjust(width) for v in row) for row in rpp.rows]
    return "\n".join(reversed(lines))


# ---------------------------------------------------------------------------
# SVG tilings

_FILL = {GREEN: "#b5cc6a", ORCHID: "#c79ed2", SIENNA: "#a8765a"}
_XS = 24   # horizontal pixels per interface line
_YS = 12   # vertical pixels per half unit of height
# one objects benchmark pass (900 pairs of sizes 10-20) holds about 3,700
# texts, 0.75 MB with their keys and lists
_MEMO_TEXTS = 2 ** 13


def _polygon(kind: str, x: int, y: int, attrs: str) -> str:
    """The lozenge a site at (x, y) of an interface line meets, as SVG text:
    a green top face centred there, or the orchid (descending) or sienna
    (ascending) face whose right edge runs through it."""
    if kind == GREEN:
        return (f'<polygon points="{x - _XS},{y} {x},{y + _YS} {x + _XS},{y} '
                f'{x},{y - _YS}" {attrs} />')
    if kind == ORCHID:
        return (f'<polygon points="{x - _XS},{y} {x - _XS},{y - 2 * _YS} '
                f'{x},{y - _YS} {x},{y + _YS}" {attrs} />')
    return (f'<polygon points="{x - _XS},{y + 2 * _YS} {x - _XS},{y} '
            f'{x},{y - _YS} {x},{y + _YS}" {attrs} />')


class _ColumnMemo:
    """The `_polygon` texts of one kind and style at sites 0, 1, ... of an
    interface line, one list per (kind, x, y of site 0, attrs), grown on
    demand and shared by every picture drawn in a process.  The lists hold
    at most `bound` texts in all: growth that would pass it empties the
    memo first, and a column longer than the bound is not kept."""

    def __init__(self, bound: int):
        self.bound = bound
        self.held = 0
        self.columns = {}

    def clear(self) -> None:
        self.columns.clear()
        self.held = 0

    def column(self, kind: str, x: int, y: int, attrs: str, n: int) -> list[str]:
        """At least the first n texts of the column, site s at y - 2 _YS s."""
        key = (kind, x, y, attrs)
        column = self.columns.get(key, ())
        have = len(column)
        if have >= n:
            return column
        column = [*column, *(_polygon(kind, x, y - 2 * _YS * site, attrs)
                             for site in range(have, n))]
        if n <= self.bound:
            self.held += n - have
            if self.held > self.bound:
                self.clear()
                self.held = n
            self.columns[key] = column
        return column


_COLUMNS = _ColumnMemo(_MEMO_TEXTS)


def _attrs(fill: str, stroke: str, width: int = 1, opacity=None) -> str:
    attrs = f'fill="{fill}" stroke="{stroke}" stroke-width="{width}"'
    return attrs if opacity is None else f'{attrs} fill-opacity="{opacity}"'


def _style(stroke: str, opacity) -> tuple[str, str, str]:
    """The attrs of the orchid, sienna and green lozenges of a tiling."""
    return tuple(_attrs(_FILL[kind], stroke, opacity=opacity)
                 for kind in (ORCHID, SIENNA, GREEN))


_SINGLE = _style("#333333", None)
_BLUE = _style("#2244cc", "0.45")
_RED = _style("#cc2222", "0.45")
_OUTLINE = _attrs("none", "#000000", width=3)


def _line_heights(shape) -> list[int]:
    """y of site 0 on every interface line.  y is minus the doubled real
    height in _YS units: interface centres rise half a unit per hole slice
    and fall half a unit per particle slice, and site s lies s units above
    site 0, so site 0 of line k is at doubled height k + 1 - 2 zetas[0]."""
    zetas = rpp_core.shape_geometry(shape).zetas
    return [(2 * zetas[0] - 1 - k) * _YS for k in range(len(zetas))]


def _draw_tiling(texts: list[str], rpp: RPP, heights: list[int], attrs) -> int:
    """Row by row the orchid and sienna lozenges of sites 0..top, two above
    the highest path, then line by line the green top faces, each run of
    sites of one kind as one slice of a memo column.  Returns top."""
    pattern = rpp_core.shape_geometry(rpp.shape).pattern
    top = vertex_model.config_window(rpp)
    every_site = (1 << top + 1) - 1
    draw = texts.extend
    column = _COLUMNS.column
    orchid_attrs, sienna_attrs, green_attrs = attrs
    x = 0
    for rel, (green, orchid, sienna), y in zip(pattern, coupling.tiling_masks(rpp),
                                               heights[1:]):
        x += _XS
        sites = every_site & ~green  # green is drawn from the line below
        if rel == SUCCEQ:  # all orchid above the row's masks
            orchid = sites & ~sienna
        else:
            sienna = sites & ~orchid
        orchids = column(ORCHID, x, y, orchid_attrs, orchid.bit_length())
        siennas = column(SIENNA, x, y, sienna_attrs, sienna.bit_length())
        while sites:
            low = sites & -sites
            if orchid & low:
                high = (orchid + low) & ~orchid  # the bit just above the run
                draw(orchids[low.bit_length() - 1:high.bit_length() - 1])
            else:
                high = (sienna + low) & ~sienna
                draw(siennas[low.bit_length() - 1:high.bit_length() - 1])
            sites ^= high - low
    for x, (line, y) in enumerate(zip(vertex_model.interface_masks(rpp), heights)):
        greens = column(GREEN, x * _XS, y, green_attrs, line.bit_length())
        while line:
            low = line & -line
            high = (line + low) & ~line
            draw(greens[low.bit_length() - 1:high.bit_length() - 1])
            line ^= high - low
    return top


def _svg(texts: list[str], heights: list[int], top: int) -> str:
    """One <svg> element of the polygon texts of tilings with lines at
    `heights` and sites 0..top, its view box padded by _XS around their
    points (around the origin for the empty shape).  The extremes need no
    scan.  Line 0 holds every path, one at site 0, and the last line none;
    y falls line by line; the last row is gray, so orchid at its top site,
    which no path reaches.  So x runs from the top faces of line 0 to the
    last row, and y from the orchid lozenge at the top site of the last row
    down to the top face at site 0 of line 0."""
    if len(heights) > 1:
        x0, x1 = -_XS, (len(heights) - 1) * _XS
        y0, y1 = heights[-1] - 2 * _YS * (top + 1), heights[0] + _YS
    else:
        x0 = x1 = y0 = y1 = 0
    x0, y0 = x0 - _XS, y0 - _XS
    w, h = x1 - x0 + _XS, y1 - y0 + _XS
    head = (f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
            f'viewBox="{x0} {y0} {w} {h}">')
    return "\n".join([head, *texts, "</svg>"])


def tiling_size(rpp: RPP) -> int:
    """The number of lozenges `rpp_svg` draws for the filling, without
    building a mask: every row draws sites 0..top, the config window, and
    every path adds a top face on its line, so rows x (top + 1) + paths."""
    geometry = rpp_core.shape_geometry(rpp.shape)
    return (len(geometry.pattern) * (vertex_model.config_window(rpp) + 1)
            + geometry.zetas[0])


def rpp_svg(rpp: RPP) -> str:
    texts = []
    heights = _line_heights(rpp.shape)
    return _svg(texts, heights, _draw_tiling(texts, rpp, heights, _SINGLE))


def pair_svg(pair: PairRPP) -> str:
    """Both tilings superimposed; coupled lozenge pairs get a thick outline.
    The outlines lie on lozenges of the tilings, so they leave the view box
    as it is."""
    texts = []
    heights = _line_heights(pair.shape)
    top = max(_draw_tiling(texts, pair.blue, heights, _BLUE),
              _draw_tiling(texts, pair.red, heights, _RED))
    for kind_code, k, site in coupling.coupled_pairs(pair):
        x, y = k * _XS, heights[k] - 2 * _YS * site
        kind = ORCHID if kind_code in (1, 2) else SIENNA
        texts.append(_polygon(kind, x, y, _OUTLINE))
        if kind_code in (1, 4):
            texts.append(_polygon(GREEN, x, y, _OUTLINE))
    return _svg(texts, heights, top)
