"""Static ASCII and SVG renderings of diagrams, tilings, and pairs.

Output is deterministic: identical input yields byte-identical text.  SVG
coordinates are integers derived from interface lines (x) and doubled
heights (y), so no floating point enters the files.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import accumulate

from . import coupling, rpp_core, vertex_model
from .coupling import GREEN, ORCHID, SIENNA, PairRPP
from .partitions import MayaDiagram, hook_table
from .rpp_core import PRECEQ, RPP, SUCCEQ

PARTICLE, HOLE = "●", "○"  # filled / open circle


def maya_ascii(m: MayaDiagram) -> str:
    left = "".join(PARTICLE if m.is_particle(t) else HOLE
                   for t in range(-m.half_width, 0))
    right = "".join(PARTICLE if m.is_particle(t) else HOLE
                    for t in range(0, m.half_width))
    return f"...{left}|{right}..."


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


# 900 drawn pairs of sizes 10-20 reuse about 1,100 entries (about 0.4 MB);
# the bound keeps the memo near 1.5 MB whatever is drawn
@lru_cache(maxsize=4096)
def _polygon(kind: str, x: int, y: int, attrs: str) -> tuple[str, int, int, int, int]:
    """The lozenge a site at (x, y) of an interface line meets, as SVG text,
    and its extremes (x0, x1, y0, y1): a green top face centred there, or
    the orchid (descending) or sienna (ascending) face whose right edge runs
    through it.  Keyed by lattice position and style only, so every tiling
    drawn in a process shares the entries."""
    if kind == GREEN:
        return (f'<polygon points="{x - _XS},{y} {x},{y + _YS} {x + _XS},{y} '
                f'{x},{y - _YS}" {attrs} />', x - _XS, x + _XS, y - _YS, y + _YS)
    if kind == ORCHID:
        return (f'<polygon points="{x - _XS},{y} {x - _XS},{y - 2 * _YS} '
                f'{x},{y - _YS} {x},{y + _YS}" {attrs} />',
                x - _XS, x, y - 2 * _YS, y + _YS)
    return (f'<polygon points="{x - _XS},{y + 2 * _YS} {x - _XS},{y} '
            f'{x},{y - _YS} {x},{y + _YS}" {attrs} />',
            x - _XS, x, y - _YS, y + 2 * _YS)


def _svg(polygons) -> str:
    """One <svg> element of the `_polygon` entries, its view box padded by
    _XS around their extremes (around the origin when there are none)."""
    min_x = min_y = 10**9
    max_x = max_y = -10**9
    for _, x0, x1, y0, y1 in polygons:
        if x0 < min_x:
            min_x = x0
        if x1 > max_x:
            max_x = x1
        if y0 < min_y:
            min_y = y0
        if y1 > max_y:
            max_y = y1
    if not polygons:
        min_x = min_y = max_x = max_y = 0
    x0, y0 = min_x - _XS, min_y - _XS
    w, h = max_x - x0 + _XS, max_y - y0 + _XS
    head = (f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
            f'viewBox="{x0} {y0} {w} {h}">')
    return "\n".join([head, *[polygon[0] for polygon in polygons], "</svg>"])


def _attrs(fill: str, stroke: str, width: int = 1, opacity=None) -> str:
    attrs = f'fill="{fill}" stroke="{stroke}" stroke-width="{width}"'
    return attrs if opacity is None else f'{attrs} fill-opacity="{opacity}"'


def _line_heights(geometry) -> list[int]:
    """y of site 0 on every interface line.  y is minus the doubled real
    height in _YS units: interface centres rise half a unit per hole slice
    and fall half a unit per particle slice, and site s lies s units above
    site 0."""
    rises = accumulate((1 if rel == PRECEQ else -1 for rel in geometry.pattern),
                       initial=0)
    return [-(c2 - 2 * zeta + 1) * _YS for c2, zeta in zip(rises, geometry.zetas)]


def _draw_tiling(polygons: list, rpp: RPP, stroke: str, opacity) -> None:
    """Row by row the orchid and sienna lozenges of sites 0..top, two above
    the highest path, then line by line the green top faces."""
    geometry = rpp_core.shape_geometry(rpp.shape)
    heights = _line_heights(geometry)
    sites = vertex_model.interface_site_lists(rpp)
    top = 2 + max((max(s) if s else 0 for s in sites), default=0)
    attrs = {kind: _attrs(fill, stroke, opacity=opacity) for kind, fill in _FILL.items()}
    every_site = (1 << top + 1) - 1
    draw = polygons.append
    rows = zip(geometry.pattern, coupling.tiling_masks(rpp), heights[1:])
    for k, (rel, (green, orchid, sienna), y) in enumerate(rows, start=1):
        if rel == SUCCEQ:  # all orchid above the row's masks
            orchid |= every_site & ~(green | orchid | sienna)
        for site in range(top + 1):
            if not green >> site & 1:  # drawn from the line it sits on, below
                kind = ORCHID if orchid >> site & 1 else SIENNA
                draw(_polygon(kind, k * _XS, y - 2 * _YS * site, attrs[kind]))
    for k, (line, y) in enumerate(zip(sites, heights)):
        for site in line:
            draw(_polygon(GREEN, k * _XS, y - 2 * _YS * site, attrs[GREEN]))


def rpp_svg(rpp: RPP) -> str:
    polygons = []
    _draw_tiling(polygons, rpp, "#333333", None)
    return _svg(polygons)


def pair_svg(pair: PairRPP) -> str:
    """Both tilings superimposed; coupled lozenge pairs get a thick outline."""
    polygons = []
    _draw_tiling(polygons, pair.blue, "#2244cc", "0.45")
    _draw_tiling(polygons, pair.red, "#cc2222", "0.45")
    heights = _line_heights(rpp_core.shape_geometry(pair.shape))
    outline = _attrs("none", "#000000", width=3)
    for kind_code, k, site in coupling.coupled_pairs(pair):
        y = heights[k] - 2 * _YS * site
        polygons.append(_polygon(ORCHID if kind_code in (1, 2) else SIENNA,
                                 k * _XS, y, outline))
        if kind_code in (1, 4):
            polygons.append(_polygon(GREEN, k * _XS, y, outline))
    return _svg(polygons)
