import hashlib

import pytest

from coupledrpp import coupling, partitions, render, rpp_core, vertex_model
from coupledrpp.coupling import make_pair

WORKED_SHAPE = (4, 4, 3, 3, 1)
WORKED_BLUE = [[0, 0, 0, 0], [0, 0, 0, 1], [0, 0, 2], [0, 1, 4], [0]]
WORKED_RED = [[0, 0, 0, 3], [0, 0, 2, 4], [0, 1, 4], [2, 4, 4], [3]]


def _digest(texts) -> str:
    h = hashlib.sha256()
    for text in texts:
        h.update(text.encode() + b"\0")
    return h.hexdigest()


def _pair(shape, blue, red):
    return make_pair(rpp_core.validate(shape, blue), rpp_core.validate(shape, red))


def _svgs(pair):
    return [render.pair_svg(pair), render.rpp_svg(pair.blue), render.rpp_svg(pair.red)]


# sha256 of the SVG texts, each followed by a NUL byte
SVG_DIGESTS = {
    "worked-sliding-pair": (
        lambda: _svgs(_pair(WORKED_SHAPE, WORKED_BLUE, WORKED_RED)),
        "b97d2a3a8479f3e8a7f9439bb8ec7b22763fdd93068b608870059357f88cb761"),
    "g6-pair": (
        lambda: _svgs(_pair((3, 2, 1), [[0, 1, 1], [1, 3], [2]],
                            [[1, 2, 3], [1, 2], [2]])),
        "30985dcc50c111f4fd8a17f02501f9dab8e932e355806c58bb0cfad44c16e31c"),
    "zero-fillings": (
        lambda: _svgs(make_pair(rpp_core.zero_rpp(WORKED_SHAPE),
                                rpp_core.zero_rpp(WORKED_SHAPE))),
        "0c2d0f9924b7b512fc9974f68e3dd9592087b34eafa92e0da74d9b2ab62471e6"),
    "empty-shape": (
        lambda: _svgs(make_pair(rpp_core.zero_rpp(()), rpp_core.zero_rpp(()))),
        "df3d3f1e04760e94321a2189e71658d67622c92788934f59c4b3514b7af5ceb4"),
    "every-pair-21-volume-4": (
        lambda: [render.pair_svg(make_pair(b, r))
                 for b, r in rpp_core.enumerate_pairs((2, 1), 4)]
        + [render.rpp_svg(r) for r in rpp_core.enumerate_rpps((2, 1), 4)],
        "f33938cfc49ffe1bb00cc07eeafbbc0b7cb37510d81ddae9944ec75fe9113b62"),
}


@pytest.mark.parametrize("case", sorted(SVG_DIGESTS))
def test_svg_bytes_are_pinned(case):
    texts, want = SVG_DIGESTS[case]
    assert _digest(texts()) == want


def test_drawn_kinds_are_the_classified_kinds():
    """Row by row, the fill of every lozenge drawn at sites 0..top (two
    above the highest path) is the kind `classify` gives the site, green
    top faces drawn afterwards line by line; this covers the sites above
    each row's lozenge masks."""
    fills = {coupling.GREEN: "#b5cc6a", coupling.ORCHID: "#c79ed2",
             coupling.SIENNA: "#a8765a"}
    checked = 0
    for n in range(1, 5):
        for lam in partitions.all_partitions(n):
            for rpp in rpp_core.enumerate_rpps(lam, 4):
                sites = vertex_model.interface_site_lists(rpp)
                top = 2 + max(max(s) if s else 0 for s in sites)
                want = []
                for k in range(1, len(sites)):
                    kinds = [coupling.classify(sites[k - 1], sites[k], site)
                             for site in range(top + 1)]
                    want += [fills[kind] for kind in kinds if kind != coupling.GREEN]
                want += [fills[coupling.GREEN]] * sum(len(s) for s in sites)
                svg = render.rpp_svg(rpp)
                drawn = [line.split('fill="', 1)[1].split('"', 1)[0]
                         for line in svg.splitlines() if line.startswith("<polygon")]
                assert drawn == want, rpp
                checked += 1
    assert checked == 244
