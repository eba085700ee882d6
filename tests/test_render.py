import hashlib
import random

import pytest

import oracles as O
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


def _random_filling(rng, shape):
    """A filling of the shape with entries up to a random cap in 0..4, each
    entry uniform between the least it may be and the cap."""
    cap = rng.randint(0, 4)
    rows = []
    for length in shape:
        row = []
        for c in range(length):
            least = max(row[-1] if row else 0, rows[-1][c] if rows else 0)
            row.append(rng.randint(least, cap))
        rows.append(row)
    return rpp_core.validate(shape, rows)


def _seeded_pairs(seed, count):
    """`count` pairs of fillings of random shapes of size 10..20."""
    rng = random.Random(seed)
    for _ in range(count):
        shape = rng.choice(list(partitions.partitions_of(rng.randint(10, 20))))
        yield make_pair(_random_filling(rng, shape), _random_filling(rng, shape))


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
    "seeded-pairs-10-to-20": (
        lambda: [text for pair in _seeded_pairs(17, 60) for text in _svgs(pair)],
        "e16b9b4c6df2cb9aa3d6fdb7c3c9cca38ee6ab314638e5853db02a7e3e137564"),
}


@pytest.mark.parametrize("case", sorted(SVG_DIGESTS))
def test_svg_bytes_are_pinned(case):
    """Each pin holds with the column memo cleared, and with it warm from
    every other case drawn first, in case order and in reverse order."""
    texts, want = SVG_DIGESTS[case]
    render._COLUMNS.clear()
    assert _digest(texts()) == want
    others = [other for other in sorted(SVG_DIGESTS) if other != case]
    for order in (others, others[::-1]):
        render._COLUMNS.clear()
        for other in order:
            SVG_DIGESTS[other][0]()
        assert _digest(texts()) == want


def test_polygon_memo_stays_bounded(monkeypatch):
    """A 16 x 16 pair formats more polygon texts than the column memo keeps;
    the memo stays within its bound, holding what it counts, and the
    drawing does not change, also against one drawn with no bound."""
    n = 16
    shape = (n,) * n
    pair = _pair(shape, [[r + c for c in range(n)] for r in range(n)],
                 [[2 * (r + c) for c in range(n)] for r in range(n)])
    memo = render._COLUMNS
    formatted = []
    polygon = render._polygon
    monkeypatch.setattr(render, "_polygon",
                        lambda *args: formatted.append(args) or polygon(*args))

    def held():
        assert memo.held == sum(map(len, memo.columns.values()))
        return memo.held

    memo.clear()
    svg = render.pair_svg(pair)
    assert len(formatted) > memo.bound
    assert held() <= memo.bound
    assert render.pair_svg(pair) == svg
    assert held() <= memo.bound
    monkeypatch.setattr(memo, "bound", 10 ** 9)
    memo.clear()
    assert render.pair_svg(pair) == svg
    assert held() > render._MEMO_TEXTS
    memo.clear()


def test_outlines_format_each_polygon_once(monkeypatch):
    """The one-cell pair with both entries 300 outlines 600 coupled sites,
    most of them above the column memo's bound (made 64 texts here).  Each
    outline is formatted once, and a row's orchid and sienna columns both
    run from site 0, so at most twice as many texts are formatted as
    polygons drawn; the drawing is the same as with no bound."""
    pair = _pair((1,), [[300]], [[300]])
    coupled = coupling.coupled_pairs(pair)
    memo = render._COLUMNS
    monkeypatch.setattr(memo, "bound", 64)
    assert len(coupled) == 600
    assert sum(site >= memo.bound for *_, site in coupled) > 400
    formatted = []
    polygon = render._polygon
    monkeypatch.setattr(render, "_polygon",
                        lambda *args: formatted.append(args) or polygon(*args))
    memo.clear()
    svg = render.pair_svg(pair)
    assert len(formatted) <= 2 * svg.count("<polygon")
    monkeypatch.setattr(memo, "bound", 10 ** 9)
    memo.clear()
    assert render.pair_svg(pair) == svg
    memo.clear()


def test_tiling_size_counts_the_drawn_polygons():
    """The size the render guard reads off the slice chain is the number of
    polygons `rpp_svg` draws."""
    checked = 0
    for lam in partitions.all_partitions(5):
        for rpp in rpp_core.enumerate_rpps(lam, 4):
            assert render.tiling_size(rpp) == render.rpp_svg(rpp).count("<polygon"), rpp
            checked += 1
    assert checked == 306


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
                masks = vertex_model.interface_masks(rpp)
                top = 2 + max(max(m.bit_length() - 1, 0) for m in masks)
                want = []
                for k in range(1, len(masks)):
                    kinds = [O.classify(masks[k - 1], masks[k], site)
                             for site in range(top + 1)]
                    want += [fills[kind] for kind in kinds if kind != coupling.GREEN]
                want += [fills[coupling.GREEN]] * sum(m.bit_count() for m in masks)
                svg = render.rpp_svg(rpp)
                drawn = [line.split('fill="', 1)[1].split('"', 1)[0]
                         for line in svg.splitlines() if line.startswith("<polygon")]
                assert drawn == want, rpp
                checked += 1
    assert checked == 244
