"""Static ASCII and SVG renderings of diagrams, tilings, and pairs.

Output is deterministic: identical input yields byte-identical text.  SVG
coordinates are integers derived from interface lines (x) and doubled
heights (y), so no floating point enters the files.
"""

from __future__ import annotations

from . import coupling, rpp_core, vertex_model
from .coupling import GREEN, ORCHID, SIENNA, PairRPP, classify
from .partitions import MayaDiagram, hook_table
from .rpp_core import PRECEQ, RPP

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


class _Canvas:
    def __init__(self):
        self.body = []
        self.min_x = self.min_y = 10**9
        self.max_x = self.max_y = -10**9

    def poly(self, points, fill, stroke, width=1, opacity=None):
        for x, y in points:
            self.min_x, self.max_x = min(self.min_x, x), max(self.max_x, x)
            self.min_y, self.max_y = min(self.min_y, y), max(self.max_y, y)
        attrs = f'fill="{fill}" stroke="{stroke}" stroke-width="{width}"'
        if opacity is not None:
            attrs += f' fill-opacity="{opacity}"'
        pts = " ".join(f"{x},{y}" for x, y in points)
        self.body.append(f'<polygon points="{pts}" {attrs} />')

    def svg(self) -> str:
        if not self.body:
            self.min_x = self.min_y = self.max_x = self.max_y = 0
        pad = _XS
        x0, y0 = self.min_x - pad, self.min_y - pad
        w, h = self.max_x - x0 + pad, self.max_y - y0 + pad
        head = (f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
                f'viewBox="{x0} {y0} {w} {h}">')
        return "\n".join([head, *self.body, "</svg>"])


def _height2(pattern, zetas, k: int, site: int) -> int:
    """Doubled real height of a site: interface centers rise half a unit per
    hole slice and fall half a unit per particle slice."""
    c2 = 0
    for rel in pattern[:k]:
        c2 += 1 if rel == PRECEQ else -1
    return c2 + 2 * (site - zetas[k]) + 1


def _lozenge_points(pattern, zetas, kind: str, k: int, site: int):
    v2 = _height2(pattern, zetas, k, site)
    x = k * _XS
    if kind == GREEN:
        return [(x - _XS, -v2 * _YS), (x, -(v2 - 1) * _YS),
                (x + _XS, -v2 * _YS), (x, -(v2 + 1) * _YS)]
    shift = 1 if kind == ORCHID else -1  # height of the left edge
    l2 = v2 + shift
    return [(x - _XS, -(l2 - 1) * _YS), (x - _XS, -(l2 + 1) * _YS),
            (x, -(v2 + 1) * _YS), (x, -(v2 - 1) * _YS)]


def _draw_tiling(canvas, rpp: RPP, stroke: str, opacity) -> None:
    geometry = rpp_core.shape_geometry(rpp.shape)
    pattern, zetas = geometry.pattern, geometry.zetas
    sites = vertex_model.interface_site_lists(rpp)
    top = 2 + max((max(s) if s else 0 for s in sites), default=0)
    for k in range(1, len(pattern) + 1):
        for site in range(top + 1):
            kind = classify(sites[k - 1], sites[k], site)
            if kind == GREEN:
                continue  # drawn from the line it sits on, below
            canvas.poly(_lozenge_points(pattern, zetas, kind, k, site),
                        _FILL[kind], stroke, opacity=opacity)
    for k in range(len(pattern) + 1):
        for site in sites[k]:
            canvas.poly(_lozenge_points(pattern, zetas, GREEN, k, site),
                        _FILL[GREEN], stroke, opacity=opacity)


def rpp_svg(rpp: RPP) -> str:
    canvas = _Canvas()
    _draw_tiling(canvas, rpp, "#333333", None)
    return canvas.svg()


def pair_svg(pair: PairRPP) -> str:
    """Both tilings superimposed; coupled lozenge pairs get a thick outline."""
    canvas = _Canvas()
    _draw_tiling(canvas, pair.blue, "#2244cc", "0.45")
    _draw_tiling(canvas, pair.red, "#cc2222", "0.45")
    geometry = rpp_core.shape_geometry(pair.shape)
    pattern, zetas = geometry.pattern, geometry.zetas
    for kind_code, k, site in coupling.coupled_pairs(pair):
        shape_kind = ORCHID if kind_code in (1, 2) else SIENNA
        canvas.poly(_lozenge_points(pattern, zetas, shape_kind, k, site),
                    "none", "#000000", width=3)
        if kind_code in (1, 4):
            canvas.poly(_lozenge_points(pattern, zetas, GREEN, k, site),
                        "none", "#000000", width=3)
    return canvas.svg()
