import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import oracles as O
from coupledrpp import checks as K
from coupledrpp import coupling as C
from coupledrpp import partitions as P
from coupledrpp import rpp_core as R
from coupledrpp import sliding as S

SHAPE = (4, 4, 3, 3, 1)
IN_BLUE = R.validate(SHAPE, [[0, 0, 0, 0], [0, 0, 0, 1], [0, 0, 2], [0, 1, 4], [0]])
IN_RED = R.validate(SHAPE, [[0, 0, 0, 3], [0, 0, 2, 4], [0, 1, 4], [2, 4, 4], [3]])
OUT_RPP = R.validate(SHAPE, [[0, 0, 1, 3], [1, 2, 2, 4], [1, 4, 4], [2, 4, 4], [3]])
SHIFTED_PAIR = C.make_pair(IN_BLUE, IN_RED)


def _paths(rpp):
    """The border-strip paths of a filling, drawn site by site:
    profiles[i-1][k] is the site of path i's top face on line k,
    the interface centre plus part i of slice k, minus i; steps[i-1][k-1]
    holds the sites of path i's vertical steps between lines k-1 and k."""
    geometry = R.shape_geometry(rpp.shape)
    paths = max(map(len, O.diagonal_cells(rpp.shape)), default=0)
    lines = [[zeta + v - i for i, v in enumerate(sl + (0,) * (paths - len(sl)), 1)]
             for zeta, sl in zip(geometry.zetas, rpp.chain.slices)]
    profiles = tuple(zip(*lines))
    ascending = [rel == R.PRECEQ for rel in geometry.pattern]
    steps = tuple(tuple(_pieces(a, b, up) for a, b, up in zip(p, p[1:], ascending))
                  for p in profiles)
    return profiles, steps


def _pieces(a, b, ascending):
    """Sites of a path's vertical steps between lines at heights a and b: it
    climbs faces in hole slices and descends them in particle slices."""
    if ascending:
        return range(a, b)        # b - a steps
    return range(b + 1, a)        # a - b - 1 steps


def _t0_by_paths(pair):
    """The path-order test on drawn paths, the oracle of the inequalities
    on parts: blue path i stays weakly below red path i and strictly above
    red path i+1, where paths may touch only if they immediately separate."""
    blue_profiles, blue_steps = _paths(pair.blue)
    red_profiles, red_steps = _paths(pair.red)
    pattern = R.shape_geometry(pair.shape).pattern
    m = len(blue_profiles)
    lines = range(len(pattern) + 1)
    for i in range(1, m + 1):
        pb, pr = blue_profiles[i - 1], red_profiles[i - 1]
        steps_b, steps_r = blue_steps[i - 1], red_steps[i - 1]
        if any(pb[k] > pr[k] for k in lines):
            return False
        for sb, sr in zip(steps_b, steps_r):
            if max(sb.start, sr.start) < min(sb.stop, sr.stop):
                return False  # a shared vertical step
        if i + 1 <= m:
            pr2, steps_r2 = red_profiles[i], red_steps[i]
            if any(pb[k] <= pr2[k] for k in lines):
                return False
            for k, (sb, sr2) in enumerate(zip(steps_b, steps_r2), start=1):
                if max(sb.start, sr2.start) < min(sb.stop, sr2.stop):
                    return False
                if pattern[k - 1] == R.PRECEQ:
                    if pr2[k] in sb:
                        return False  # blue climbs past red's top face
                else:
                    if pb[k] in sr2:
                        return False  # red descends past blue's top face
    return True


def _random_filling(rng, shape, still):
    """A filling of the shape with entries <= 4: each cell repeats the
    larger of its left and lower neighbours with probability `still`,
    else exceeds it by one, up to 4."""
    rows = []
    for width in shape:
        row = []
        for c in range(width):
            floor = max(row[-1] if row else 0, rows[-1][c] if rows else 0)
            row.append(floor if rng.random() < still else min(4, floor + 1))
        rows.append(row)
    return R.validate(shape, rows)


def test_paths_one_per_strip():
    profiles, _ = _paths(OUT_RPP)
    assert len(profiles) == len(O.border_strips(SHAPE)) == 3
    assert all(len(prof) == len(R.interaction_pattern(SHAPE)) + 1
               for prof in profiles)


def test_paths_zero_filling_hug_the_wall():
    profiles, steps = _paths(R.zero_rpp((3, 2)))
    pattern = R.interaction_pattern((3, 2))
    zetas = [pattern[k:].count(R.SUCCEQ) for k in range(len(pattern) + 1)]
    for i, prof in enumerate(profiles, start=1):
        assert prof == tuple(z - i for z in zetas)
        assert len(steps[i - 1]) == len(pattern)
        assert not any(steps[i - 1])  # no vertical step along the wall


def test_paths_single_column_height():
    profiles, _ = _paths(R.validate((1,), [[5]]))
    # one strip; the face sits five units above the wall on the middle line
    assert profiles[0][1] - R.interaction_pattern((1,))[1:].count(R.SUCCEQ) == 4


def test_constraints_equal_path_order_exhaustively():
    bounds = dict(zip(range(1, 9), (10, 9, 8, 7, 6, 5, 4, 4)))
    cases = [(lam, bounds[n]) for n in bounds for lam in P.partitions_of(n)]
    counts = []
    for lam, bound in [*cases, (SHAPE, 6)]:
        pairs = accepted = 0
        for blue, red in R.enumerate_pairs(lam, bound):
            pair = C.make_pair(blue, red)
            t0 = S.check_t0_constraints(pair)
            assert t0 == _t0_by_paths(pair), pair
            pairs += 1
            accepted += t0
        counts.append((pairs, accepted))
    assert tuple(map(sum, zip(*counts[:-1]))) == (16155, 2690)
    assert counts[-1] == (3263, 331)


def test_constraints_equal_path_order_on_random_pairs():
    rng = random.Random(2025)
    shapes = {n: list(P.partitions_of(n)) for n in range(10, 21)}
    accepted = []
    for _ in range(200):
        shape = rng.choice(shapes[rng.randint(10, 20)])
        blue, red, single = (_random_filling(rng, shape, rng.choice((0.5, 0.9)))
                             for _ in range(3))
        for pair in (C.make_pair(blue, red), S.unslide(single)):
            t0 = S.check_t0_constraints(pair)
            assert t0 == _t0_by_paths(pair) == (C.g_via_lozenges(pair) == 0), pair
            accepted.append(t0)
    assert all(accepted[1::2])  # every unslid filling
    assert 0 < sum(accepted[0::2]) < 200


def test_constraints_keep_nothing_on_the_fillings():
    blue, red = (R.validate(SHAPE, rpp.rows) for rpp in (IN_BLUE, IN_RED))
    pair = C.make_pair(blue, red)
    assert S.check_t0_constraints(pair)
    assert not S.check_t0_constraints(C.make_pair(red, blue))
    for rpp in (blue, red):
        assert set(vars(rpp)) == {"chain"}
    assert set(vars(pair)) == set()


def test_constraints_on_worked_examples():
    assert S.check_t0_constraints(SHIFTED_PAIR)
    coupled = C.make_pair(R.validate((3, 2, 1), [[0, 1, 1], [1, 3], [2]]),
                          R.validate((3, 2, 1), [[1, 2, 3], [1, 2], [2]]))
    assert not S.check_t0_constraints(coupled)
    zero = C.make_pair(R.zero_rpp((3, 1)), R.zero_rpp((3, 1)))
    assert S.check_t0_constraints(zero)
    # blue's upper slice lies within red's lower one on every row; only
    # red's second part on the middle diagonal, 2 > blue's 1, breaks the order
    crossing = C.make_pair(R.validate((3, 3, 3), [[0, 0, 0], [0, 0, 1], [0, 1, 1]]),
                           R.validate((3, 3, 3), [[0, 0, 2], [0, 2, 3], [1, 3, 3]]))
    assert not S.check_t0_constraints(crossing)
    assert not _t0_by_paths(crossing) and C.g_via_lozenges(crossing) > 0


def test_constraints_equal_zero_interaction():
    for lam in P.all_partitions(4):
        if not lam:
            continue
        for blue, red in R.enumerate_pairs(lam, 6):
            pair = C.make_pair(blue, red)
            assert S.check_t0_constraints(pair) == (C.g_via_lozenges(pair) == 0), pair


def test_forced_region_zero_under_constraints():
    for lam in [(2, 2), (3, 1)]:
        for blue, red in R.enumerate_pairs(lam, 5):
            pair = C.make_pair(blue, red)
            if not S.check_t0_constraints(pair):
                continue
            for color, cell in O.forced_zero_region(pair):
                source = pair.blue if color == "blue" else pair.red
                assert source.rows[cell.row - 1][cell.col - 1] == 0, (pair, color, cell)


def test_slide_worked_example():
    assert S.slide(SHIFTED_PAIR) == OUT_RPP


def test_slide_zero_pair():
    for lam in [(1,), (3, 2), (4, 4, 3, 3, 1)]:
        z = R.zero_rpp(lam)
        assert S.slide(C.make_pair(z, z)) == z


def test_slide_rejects_coupled_pairs():
    coupled = C.make_pair(R.validate((1,), [[1]]), R.zero_rpp((1,)))
    with pytest.raises(ValueError, match="coupled"):
        S.slide(coupled)


def test_slide_outputs_validate_and_preserve_volume():
    for lam in P.all_partitions(4):
        if not lam:
            continue
        for blue, red in R.enumerate_pairs(lam, 5):
            pair = C.make_pair(blue, red)
            if not S.check_t0_constraints(pair):
                continue
            out = S.slide(pair)  # validate() runs inside
            assert out.shape == lam
            assert out.volume == blue.volume + red.volume


def test_unslide_worked_example():
    assert S.unslide(OUT_RPP) == SHIFTED_PAIR


def test_unslide_zero():
    z = R.zero_rpp((2, 2))
    assert S.unslide(z) == C.make_pair(z, z)


def test_roundtrips_exhaustive():
    for lam in [(2, 2), (3, 1)]:
        for rpp in R.enumerate_rpps(lam, 6):
            pair = S.unslide(rpp)
            assert S.check_t0_constraints(pair)
            assert S.slide(pair) == rpp
        for blue, red in R.enumerate_pairs(lam, 6):
            pair = C.make_pair(blue, red)
            if S.check_t0_constraints(pair):
                assert S.unslide(S.slide(pair)) == pair


def test_round_trips_names_an_unslid_pair_no_pair_matched():
    # one round trip per filling and per g = 0 pair; an unslid pair left
    # out of the pairs is the failure
    fillings = list(R.enumerate_rpps((2, 2), 6))
    pairs = list(R.pairs_within(fillings, 6))
    assert S.round_trips(fillings, pairs) == (78, None)
    lost = S.unslide(fillings[3])
    kept = [p for p in pairs if p != (lost.blue, lost.red)]
    assert S.round_trips(fillings, kept) == (77, lost)


def test_round_trips_counts_one_per_filling_and_per_g0_pair():
    for lam, want in [((4, 4, 3, 3, 1), 662), ((3, 1), 114)]:
        fillings = list(R.enumerate_rpps(lam, 6))
        assert S.round_trips(fillings, R.pairs_within(fillings, 6)) == (want, None)


def test_a_deal_the_wrong_way_round_fails_criterion_7(monkeypatch):
    # blue takes the odd positions: the worked example and every shape's
    # sweep fail
    deal = S.deal
    monkeypatch.setattr(S, "deal", lambda slices: deal(slices)[::-1])
    assert K.check_sliding()["details"]["failures"] == [
        "worked-unslide", *(f"unslide-slide {lam}" for lam in K.SLIDE_SHAPES)]


def test_round_trips_fails_on_a_wrong_riffle_or_volume(monkeypatch):
    # the riffle is compared with the filling's own slices and the halves'
    # volumes with its volume: either mismatch names the filling
    fillings = list(R.enumerate_rpps((3, 1), 6))
    wrong = R.RPP(fillings[5].shape, fillings[5].rows)
    wrong.__dict__["volume"] = fillings[5].volume + 1
    bad = [*fillings[:5], wrong, *fillings[6:]]
    assert S.round_trips(bad, R.pairs_within(fillings, 6)) == (5, wrong)

    riffle = S.riffle
    monkeypatch.setattr(S, "riffle", lambda lengths, *chains: riffle(lengths, *chains)[::-1])
    _, failure = S.round_trips(fillings, R.pairs_within(fillings, 6))
    assert failure in fillings and failure.chain.slices[1:-1][::-1] != failure.chain.slices[1:-1]


def _strip_slide(pair):
    """Sliding as the strips move: red strip i onto strip 2i-1, blue strip i
    onto strip 2i, cell by cell."""
    shape = pair.shape
    strips = O.border_strips(shape)
    rows = [[0] * p for p in shape]
    for strip in strips:
        k = strip.index
        i = (k + 1) // 2  # source strip index
        source, shift = (pair.red, i - 1) if k % 2 else (pair.blue, i)
        for r, c in strips[i - 1].cells:
            target = P.Cell(r - shift, c - shift)
            entry = source.rows[r - 1][c - 1]
            if O.contains(shape, target):
                rows[target.row - 1][target.col - 1] = entry
            elif entry != 0:
                raise AssertionError(f"nonzero entry at {(r, c)} slides off")
    return R.validate(shape, rows)


def _strip_unslide(rpp):
    """Unsliding as the strips move: odd strips climb to red, even strips
    to blue, cells with no source left at zero."""
    shape = rpp.shape
    blue = [[0] * p for p in shape]
    red = [[0] * p for p in shape]
    for strip in O.border_strips(shape):
        i = strip.index
        for r, c in strip.cells:
            src_red = P.Cell(r - (i - 1), c - (i - 1))
            if O.contains(shape, src_red):
                red[r - 1][c - 1] = rpp.rows[src_red.row - 1][src_red.col - 1]
            src_blue = P.Cell(r - i, c - i)
            if O.contains(shape, src_blue):
                blue[r - 1][c - 1] = rpp.rows[src_blue.row - 1][src_blue.col - 1]
    return C.make_pair(R.validate(shape, blue), R.validate(shape, red))


def _carries_fresh_chain(rpp):
    """The chain and volume handed over by `from_diagonals` are those a
    fresh filling computes."""
    fresh = R.validate(rpp.shape, rpp.rows)
    return (rpp.__dict__["chain"] == R.to_slices(fresh)
            and rpp.__dict__["volume"] == fresh.volume == sum(map(sum, rpp.rows)))


def test_riffle_equals_moving_strips():
    cases = [(lam, 5) for lam in P.all_partitions(6)]
    slid = unslid = 0
    for lam, bound in [*cases, ((4, 4, 3, 3, 1), 3)]:
        for rpp in R.enumerate_rpps(lam, bound):
            unslid += 1
            pair = S.unslide(rpp)
            assert pair == _strip_unslide(rpp), rpp
            assert _carries_fresh_chain(pair.blue) and _carries_fresh_chain(pair.red)
        for blue, red in R.enumerate_pairs(lam, bound):
            pair = C.make_pair(blue, red)
            if S.check_t0_constraints(pair):
                out = S.slide(pair)
                assert out == _strip_slide(pair), pair
                assert _carries_fresh_chain(out), pair
                slid += 1
    assert slid == unslid == 1010  # a bijection at every volume


def test_forced_region_is_what_slides_off():
    # blue part i of a diagonal with L cells lands at position 2i, red part
    # i at 2i-1: past L it slides off
    shapes = list(P.all_partitions(12))
    assert len(shapes) == 272
    for lam in shapes:
        off = set()
        for cells in O.diagonal_cells(lam):
            for i, (r, c) in enumerate(cells, start=1):
                if 2 * i > len(cells):
                    off.add(("blue", P.Cell(r + 1, c + 1)))
                if 2 * i - 1 > len(cells):
                    off.add(("red", P.Cell(r + 1, c + 1)))
        zero = R.zero_rpp(lam)
        region = O.forced_zero_region(C.make_pair(zero, zero))
        assert len(region) == len(set(region))
        assert set(region) == off, lam


def test_slid_fillings_carry_their_chain_on_the_empty_shape():
    empty = R.zero_rpp(())
    pair = S.unslide(empty)
    assert pair == C.make_pair(empty, empty)
    out = S.slide(pair)
    assert out == empty
    for rpp in (pair.blue, pair.red, out):
        assert rpp.__dict__["chain"] == R.to_slices(empty)
        assert rpp.chain.slices == ((),)


def test_counting_single_cell():
    report = S.verify_t0_counting((1,), 5)
    assert report["passed"]
    assert report["pairs_g0"] == [1] * 6


def test_counting_small_shapes():
    assert S.verify_t0_counting((2, 2), 8)["passed"]
    report = S.verify_t0_counting((3, 1), 6)
    assert report["passed"]
    assert report["singles"] == report["series_single"]


def test_counting_enumerates_the_shape_once(monkeypatch):
    # the pairs come from the one list of fillings
    calls = []
    enumerate_rpps = R.enumerate_rpps

    def counted(lam, max_volume):
        calls.append((lam, max_volume))
        return enumerate_rpps(lam, max_volume)

    monkeypatch.setattr(R, "enumerate_rpps", counted)
    assert S.verify_t0_counting((2, 2), 8)["passed"]
    assert calls == [((2, 2), 8)]


INVARIANTS_UNDER_O = """
from coupledrpp import coupling, partitions, rpp_core, sliding, vertex_model

def raises(fn, *args):
    try:
        fn(*args)
    except AssertionError as exc:
        return str(exc)
    raise SystemExit(f"{fn.__name__} passed a broken invariant")

assert False, "this interpreter must drop assert statements"
config = vertex_model.rpp_to_config((1,), rpp_core.zero_rpp((1,)))
vertex_model.row_masks = lambda *args: None
print(raises(vertex_model.rpp_to_config, (1,), rpp_core.zero_rpp((1,))))
# states are read off the kept masks on the first read; a path that enters
# from the left and the bottom and leaves nowhere is no vertex
print(raises(lambda: config._replace(masks=((1, 0, 0),) * 2).states))
sliding.check_t0_constraints = lambda pair: True
blue = rpp_core.validate((2, 2), [[0, 1], [0, 1]])  # (1, 2) slides off the shape
print(raises(sliding.slide, coupling.make_pair(blue, rpp_core.zero_rpp((2, 2)))))
coupling._lozenge_masks = lambda bottom, top: (0, 1 << 60, 0)  # a stray orchid
print(raises(coupling.pair_genfun_transfer, (2, 1), 4))
zero = rpp_core.zero_rpp((2, 1))  # its first row is white, where orchids count
print(raises(coupling.g_via_lozenges, coupling.make_pair(zero, zero)))
partitions.maya_mask = lambda lam, zeta: (1 << 2 * zeta) - 1  # all particles
print(raises(partitions.maya, (1,), 3))
"""


def test_invariants_raise_under_python_O():
    # the invariant checks are raised exceptions, not assert statements,
    # so a broken invariant still stops an optimized interpreter
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])])}
    run = subprocess.run([sys.executable, "-O", "-c", INVARIANTS_UNDER_O],
                         env=env, capture_output=True, text=True, timeout=60)
    assert run.returncode == 0, run.stderr
    lines = run.stdout.splitlines()
    assert len(lines) == 6
    assert "no configuration" in lines[0]
    assert "no allowed vertex" in lines[1]
    assert "slides off" in lines[2]
    assert "coupling sites" in lines[3]
    assert "coupling sites" in lines[4]
    assert "balance point" in lines[5]
