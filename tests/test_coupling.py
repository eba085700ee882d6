import hashlib
import json
from fractions import Fraction

import pytest

import oracles as O
from coupledrpp import coupling as C
from coupledrpp import partitions as P
from coupledrpp import rpp_core as R
from coupledrpp import vertex_model as V
from coupledrpp.qt_series import hook_count, hook_product
from coupledrpp.vertex_model import GRAY, Monomial, WHITE

X, T = Fraction(3, 5), Fraction(2, 7)

WORKED_BLUE = R.validate((3, 2, 1), [[0, 1, 1], [1, 3], [2]])
WORKED_RED = R.validate((3, 2, 1), [[1, 2, 3], [1, 2], [2]])
WORKED_PAIR = C.make_pair(WORKED_BLUE, WORKED_RED)


def test_colored_white_weight_examples():
    assert V.white_weight((V.HORIZONTAL, V.HORIZONTAL), X, T) == X * X * T
    assert V.white_weight((V.EMPTY, V.EMPTY), X, T) == 1
    assert V.white_weight((V.BOTTOM_RIGHT, V.VERTICAL), X, T) == X * T


def test_colored_white_t1_factors():
    for vb in V.ALLOWED_STATES:
        for vr in V.ALLOWED_STATES:
            assert V.white_weight((vb, vr), X, Fraction(1)) == \
                V.white_weight((vb,), X) * V.white_weight((vr,), X)


def test_colored_gray_weight_examples():
    assert V.gray_weight((V.EMPTY, V.EMPTY), X, T) == X * X * T
    assert V.gray_weight((V.HORIZONTAL, V.HORIZONTAL), X, T) == 1
    assert V.gray_weight((V.HORIZONTAL, V.VERTICAL), X, T) == X * T


def test_colored_gray_table_vs_formula():
    # published table against the per-color factorization, symbolically
    x, t = Monomial(1, 0), Monomial(0, 1)
    for (vb, vr), (xe, te) in V.GRAY_TABLE_VERBATIM.items():
        assert V.gray_weight((vb, vr), x, t) == Monomial(xe, te)


def test_colored_gray_change_of_variable():
    # (L')_{x;t} = x^2 t L_{1/(xt);t} on all 25 state pairs
    for vb in V.ALLOWED_STATES:
        for vr in V.ALLOWED_STATES:
            assert V.gray_weight((vb, vr), X, T) == \
                X * X * T * V.white_weight((vb, vr), 1 / (X * T), T)


def test_colored_cross_examples():
    z = Fraction(2, 9)
    assert V.cross_weight((V.CROSS_EMPTY, V.CROSS_EMPTY), z, T) == 1
    assert V.cross_weight((V.CROSS_EMPTY, V.CROSS_NWSE), z, T) == 1 - z
    with pytest.raises(ValueError):
        V.cross_weight((V.CrossState(0, 1, 1, 0), V.CROSS_EMPTY), z, T)


def test_colored_cross_worked_identity():
    # the displayed two-white-row crossing computation
    x, y, t = Fraction(1, 2), Fraction(1, 3), Fraction(2, 5)
    z = y / x
    lhs = V.cross_weight((V.CROSS_NWSE, V.CROSS_EMPTY), z, t) * \
        V.white_weight((V.HORIZONTAL, V.BOTTOM_RIGHT), x, t)
    term1 = V.cross_weight((V.CROSS_NWSE, V.CROSS_BOTTOM), z, t) * \
        V.white_weight((V.EMPTY, V.BOTTOM_RIGHT), y, t) * \
        V.white_weight((V.HORIZONTAL, V.EMPTY), x, t)
    term2 = V.cross_weight((V.CROSS_NWSE, V.CROSS_NWSE), z, t) * \
        V.white_weight((V.EMPTY, V.VERTICAL), y, t) * \
        V.white_weight((V.HORIZONTAL, V.BOTTOM_RIGHT), x, t)
    assert lhs == x * x * t * (1 - y / x)
    assert term1 == x * y * (1 - y / x)
    assert term2 == x * x * t * (1 - y / x) * (1 - y / (x * t))
    assert lhs == term1 + term2


def test_colored_row_weights_worked_examples():
    # white row x^7 t^3 (= x^3 x^4 per color); gray row x^8 t^3, whose
    # x-part factors as x^5 * x^3 through the per-color closed forms
    w = V.row_weight_explicit(
        WHITE, ((2, 1), (1,)), ((4, 2), (4, 1)), X, ell=2, window=10, t=T)
    assert w == X ** 7 * T ** 3
    g = V.row_weight_explicit(
        GRAY, ((3, 1, 1), (2, 1)), ((1, 1), (1, 1)), X, ell=2, window=10, t=T)
    assert g == X ** 8 * T ** 3
    assert V.row_weight_explicit(
        WHITE, ((2,), (0,)), ((1,), (1,)), X, ell=1, window=8, t=T) is None


def test_colored_ybe_full_sweep():
    report = V.verify_ybe(V.WHITE_GRAY, 2)
    assert report["passed"], report["violations"][:3]
    assert report["checked"] == 3 * 4 ** 6


def test_colored_ybe_t1_matches_one_color():
    report = V.verify_ybe(V.WHITE_GRAY, 2, [(Fraction(1, 2), Fraction(1, 3), Fraction(1))])
    assert report["passed"]


def report_digest(report):
    return hashlib.sha256(json.dumps(report, sort_keys=True).encode()).hexdigest()


def test_colored_ybe_reports_a_broken_weight(monkeypatch):
    # blue vertical under red horizontal weighs double; the pinned report
    # (48 violations, their order and strings) is the one found by summing
    # both sides boundary by boundary
    true_weight = V.white_weight

    def broken(column, x, t=1):
        w = true_weight(column, x, t)
        return 2 * w if column == (V.VERTICAL, V.HORIZONTAL) else w

    monkeypatch.setattr(V, "white_weight", broken)
    report = V.verify_ybe(V.WHITE_GRAY, 2)
    assert report["checked"] == 12288 and len(report["violations"]) == 48
    assert report["violations"][0] == {
        "boundary": [[0, 0], [0, 1], [1, 0], [0, 1], [0, 0], [1, 0]],
        "x": "1/2", "y": "1/3", "t": "2/5", "lhs": "1/2", "rhs": "8/15"}
    assert report["violations"][-1] == {
        "boundary": [[1, 1], [0, 1], [0, 0], [0, 1], [0, 1], [1, 0]],
        "x": "1/3", "y": "1/4", "t": "3/7", "lhs": "55/9408", "rhs": "1/336"}
    assert report_digest(report) == \
        "bef3cf654e56af4d555848d70cf1d80ca12ccd5e1738d8f920a16c9289706d78"


def test_make_pair_shape_mismatch():
    with pytest.raises(ValueError):
        C.make_pair(R.zero_rpp((2,)), R.zero_rpp((1, 1)))


def test_worked_pair_statistic():
    assert WORKED_BLUE.volume == 8 and WORKED_RED.volume == 11
    assert C.g_via_vertex(WORKED_PAIR) == 6
    assert C.g_via_lozenges(WORKED_PAIR) == 6
    assert len(C.coupled_pairs(WORKED_PAIR)) == 6


def test_worked_pair_weight():
    w = C.pair_config_weight(WORKED_PAIR)
    A2 = V.A_lambda((3, 2, 1)) ** 2
    assert w * A2 == Monomial(8 + 11, 6 + C.trivial_t_exponent((3, 2, 1)))


def test_coupled_pair_locations_single_cell():
    # blue [1] on red [1]: coinciding faces give one type-2 pair in the hole
    # slice and one type-3 pair in the particle slice
    one = R.validate((1,), [[1]])
    pair = C.make_pair(one, one)
    assert sorted(C.coupled_pairs(pair)) == [(2, 1, 0), (3, 2, 0)]
    # blue above red is the asymmetric case: a single type-1 pair
    pair = C.make_pair(one, R.zero_rpp((1,)))
    assert C.coupled_pairs(pair) == [(1, 1, 0)]
    # red above blue couples nothing
    pair = C.make_pair(R.zero_rpp((1,)), one)
    assert C.coupled_pairs(pair) == []


def test_zero_pair_statistics():
    for lam in [(1,), (2, 1), (4, 4, 3, 3, 1)]:
        z = R.zero_rpp(lam)
        pair = C.make_pair(z, z)
        assert C.g_via_lozenges(pair) == 0
        assert C.g_via_vertex(pair) == 0
    assert C.pair_config_weight(C.make_pair(R.RPP((), ()), R.RPP((), ()))) == Monomial(0)


def test_g_oracles_agree_exhaustively():
    for lam in P.all_partitions(4):
        if not lam:
            continue
        for blue, red in R.enumerate_pairs(lam, 6):
            pair = C.make_pair(blue, red)
            assert C.g_via_vertex(pair) == C.g_via_lozenges(pair), pair
            # the locations are decoded apart from the count
            assert len(C.coupled_pairs(pair)) == C.g_via_lozenges(pair), pair


def test_pair_weight_bijection_exhaustively():
    for lam in P.all_partitions(4):
        if not lam:
            continue
        A2 = V.A_lambda(lam) ** 2
        triv = C.trivial_t_exponent(lam)
        for blue, red in R.enumerate_pairs(lam, 6):
            pair = C.make_pair(blue, red)
            want = Monomial(blue.volume + red.volume,
                            C.g_via_lozenges(pair) + triv)
            assert C.pair_config_weight(pair) * A2 == want


def test_pair_genfun_single_cell():
    series = C.pair_genfun_bruteforce((1,), 2)
    assert series.terms() == [(0, 0, 1), (1, 0, 1), (1, 1, 1),
                              (2, 0, 1), (2, 1, 1), (2, 2, 1)]
    assert series == hook_product((1,), 2, 2)


def test_pair_genfun_matches_hook_product():
    for lam in [(2,), (1, 1), (2, 1)]:
        assert C.pair_genfun_bruteforce(lam, 6) == hook_product(lam, 6, 2)
    assert C.pair_genfun_bruteforce((), 4) == hook_product((), 4, 2)


def test_classify_rejects_malformed_interfaces():
    # two bottom paths at or below site 1 and no top path: not a tiling row
    with pytest.raises(ValueError, match="malformed"):
        O.classify(0b11, 0, 1)
    with pytest.raises(ValueError, match="malformed"):
        C._lozenge_masks(0b111, 0b100)
    assert O.classify(0b1, 0, 0) == C.ORCHID
    assert O.classify(0b1, 0b1, 0) == C.GREEN
    assert O.classify(0b10, 0b1, 1) == C.SIENNA


def test_lozenge_masks_are_classify_at_every_site():
    # the one-walk masks against `classify` site by site, malformed rows
    # included: both raise, or every site up to the highest path agrees
    rows = malformed = 0
    for bottom in range(1 << 7):
        for top in range(1 << 7):
            try:
                kinds = [O.classify(bottom, top, site) for site in
                         range(max(bottom.bit_length(), top.bit_length()))]
            except ValueError:
                with pytest.raises(ValueError, match="malformed"):
                    C._lozenge_masks(bottom, top)
                malformed += 1
                continue
            masks = C._lozenge_masks(bottom, top)
            for site, kind in enumerate(kinds):
                got = [m >> site & 1 for m in masks]
                assert got == [kind == k for k in (C.GREEN, C.ORCHID, C.SIENNA)]
            assert all(m >> len(kinds) == 0 for m in masks)
            rows += 1
    assert rows + malformed == 1 << 14 and rows > 0 and malformed > 0


def test_transfer_matches_bruteforce_small_shapes():
    for lam in P.all_partitions(4):
        assert C.pair_genfun_transfer(lam, 6) == C.pair_genfun_bruteforce(lam, 6), lam


def test_transfer_matches_bruteforce_larger_shapes():
    assert C.pair_genfun_transfer((3, 2, 1), 8) == C.pair_genfun_bruteforce((3, 2, 1), 8)
    lam = (4, 4, 3, 3, 1)
    assert C.pair_genfun_transfer(lam, 7) == C.pair_genfun_bruteforce(lam, 7)


@pytest.mark.parametrize("lam,n", [((3, 2, 1), 20), ((4, 3, 2, 1), 16),
                                   ((4, 4, 3, 3, 1), 12)])
def test_transfer_matches_hook_product_at_scale(lam, n):
    # 1.86 M, 4.2 M and 0.42 M pairs: out of the brute force's reach
    assert C.pair_genfun_transfer(lam, n) == hook_product(lam, n, 2)


def test_transfer_edge_cases():
    assert C.pair_genfun_transfer((), 4).terms() == [(0, 0, 1)]
    assert C.pair_genfun_transfer((), 0).terms() == [(0, 0, 1)]
    assert C.pair_genfun_transfer((2, 1), 0).terms() == [(0, 0, 1)]
    assert C.pair_genfun_transfer((1,), 2) == C.pair_genfun_bruteforce((1,), 2)
    assert C.pair_genfun_transfer((1,), 2).terms() == \
        [(0, 0, 1), (1, 0, 1), (1, 1, 1), (2, 0, 1), (2, 1, 1), (2, 2, 1)]
    with pytest.raises(ValueError):
        C.pair_genfun_transfer((1,), -1)


@pytest.mark.parametrize("lam,n", [((1,), 300), ((6,), 20)])
def test_transfer_matches_hook_product_on_sparse_states(lam, n):
    # states holding a few counts at a high g or far above their least
    # volume, which the packed layout stores from the least key up
    assert C.pair_genfun_transfer(lam, n) == hook_product(lam, n, 2)


def test_every_small_shape_agrees_on_all_three_routes():
    # the differential sweep: every nonempty shape of size <= 8 at the
    # largest bound with at most 1,500 pairs, by brute force, the engine
    # and the hook product; then every shape of size <= 12 at N = 12,
    # beyond the brute force's reach, by the engine and the hook product
    shapes = pairs = 0
    for lam in P.all_partitions(8):
        if not lam:
            continue
        n = 0
        while hook_count(lam, n + 1, 2) <= 1500:
            n += 1
        want = hook_product(lam, n, 2)
        assert C.pair_genfun_bruteforce(lam, n) == want, (lam, n)
        assert C.pair_genfun_transfer(lam, n) == want, (lam, n)
        shapes += 1
        pairs += hook_count(lam, n, 2)
    assert (shapes, pairs) == (66, 69962)
    shapes = 0
    for lam in P.all_partitions(12):
        assert C.pair_genfun_transfer(lam, 12) == hook_product(lam, 12, 2), lam
        shapes += 1
    assert shapes == 272


@pytest.mark.parametrize("lam,n", [((6,), 20), ((3, 2, 1), 12), ((4, 1), 15)])
def test_kept_states_stop_at_the_volume_bound(lam, n, monkeypatch):
    # every state kept after a row is cut to at most N + 1 volumes of
    # N + 1 slots; the parts `_fold` reads are those states, unshifted
    fold, longest = C._fold, []

    def watched(parts, bits):
        longest.append(max(part.bit_length() for _key, part in parts) / bits)
        return fold(parts, bits)

    monkeypatch.setattr(C, "_fold", watched)
    assert C.pair_genfun_transfer(lam, n) == hook_product(lam, n, 2)
    assert 0 < max(longest) <= (n + 1) ** 2


@pytest.mark.parametrize("lam,n", [((1,), 100), ((3, 2, 1), 10),
                                   ((4, 4, 3, 3, 1), 8), ((6,), 30)])
def test_slots_hold_the_sums_of_the_parts(lam, n, monkeypatch):
    # summed exactly at each absolute key over the parts `_fold` adds up,
    # no count reaches 2^B, so the packed sum carries no slot into the next;
    # the parts may repeat a least key: some fold of each case with more
    # than one row gets a repeat, and the one-row cases get none
    fold, fullest, repeats = C._fold, [], []

    def watched(parts, bits):
        size, sums = bits // 8, {}
        for least, packed in parts:
            data = packed.to_bytes(-(-packed.bit_length() // bits) * size, "little")
            for i in range(0, len(data), size):
                key = least + i // size
                sums[key] = sums.get(key, 0) + int.from_bytes(data[i:i + size], "little")
        fullest.append(max(sums.values()) / 2 ** bits)
        repeats.append(len({least for least, _packed in parts}) < len(parts))
        return fold(parts, bits)

    monkeypatch.setattr(C, "_fold", watched)
    assert C.pair_genfun_transfer(lam, n) == hook_product(lam, n, 2)
    assert 0 < max(fullest) < 1
    assert any(repeats) == (len(lam) > 1)


@pytest.mark.parametrize("lam,n", [((3, 2, 1), 5), ((4, 1), 4), ((2, 2), 4), ((3,), 6)])
def test_live_moves_are_the_moves_of_closed_chains(lam, n):
    # exactly the slice steps taken by some filling of volume <= n
    pattern = R.shape_geometry(lam).pattern
    taken = set()
    for rpp in R.enumerate_rpps(lam, n):
        chain = R.to_slices(rpp)
        taken.update((k, chain[k], chain[k + 1]) for k in range(len(pattern)))
    rows, slices = C._live_moves(lam, n)
    live = {(k, slices[k][mu], slices[k + 1][nu]) for k, row in enumerate(rows)
            for mu, moves in enumerate(row) for _need, _size, nu, *_roles in moves}
    assert live == taken


def test_coupling_sites_bound_g_by_the_volume():
    # white rows: blue orchids = |nu| - |mu|; gray rows: red siennas =
    # |mu| - |nu|; the roles are the union of each row's two coupled types
    cases = [(lam, 8) for lam in P.all_partitions(7)]
    cases += [((4, 4, 3, 3, 1), 6), ((5, 4), 6), ((3, 3, 3), 6)]
    moves = 0
    for lam, n in cases:
        pattern, _, zetas = R.shape_geometry(lam)
        rows, slices = C._live_moves(lam, n)
        for k, row in enumerate(rows, start=1):
            white = pattern[k - 1] == R.PRECEQ
            for i, row_moves in enumerate(row):
                mu = slices[k - 1][i]
                for _need, size_nu, j, *roles in row_moves:
                    nu = slices[k][j]
                    green, orchid, sienna = C._lozenge_masks(
                        P.maya_mask(mu, zetas[k - 1]),
                        P.maya_mask(nu, zetas[k]))
                    if white:
                        assert orchid.bit_count() == size_nu - sum(mu)
                        assert roles == [orchid, green | orchid]
                    else:
                        assert sienna.bit_count() == sum(mu) - size_nu
                        assert roles == [sienna | green, sienna]
                    moves += 1
    assert moves == 3605


def test_engine_rejects_masks_that_break_the_bound(monkeypatch):
    masks = C._lozenge_masks
    monkeypatch.setattr(C, "_lozenge_masks", lambda bottom, top: tuple(
        m | (1 << 60) * (kind == 2) for kind, m in enumerate(masks(bottom, top))))
    # a stray sienna in every row: only the gray rows' red role counts it
    with pytest.raises(AssertionError, match="coupling sites"):
        C.pair_genfun_transfer((2, 1), 4)


def test_live_moves_need_the_volume_still_to_come():
    # (6,) is a weakly increasing row: a first entry a costs at least 6a
    rows, slices = C._live_moves((6,), 14)
    assert slices[0] == [()]
    assert [(need, size, slices[1][nu]) for need, size, nu, *_roles in rows[0][0]] == \
        [(0, 0, ()), (6, 1, (1,)), (12, 2, (2,))]


def test_live_moves_need_is_the_least_volume_of_the_fillings_taking_them(monkeypatch):
    # the closed-form need of every live move (k, mu, nu) against the least
    # volume from nu on over the fillings whose chain takes mu -> nu at row
    # k; every row these moves meet takes the prefix-parity masks, never
    # the per-site walk
    def refuse(bottom, top):
        raise AssertionError(f"walked the row ({bottom:b}, {top:b})")

    monkeypatch.setattr(C, "_lozenge_walk", refuse)
    cases = [(lam, 8) for lam in P.all_partitions(7)] + [((4, 4, 3, 3, 1), 6)]
    moves = 0
    for lam, n in cases:
        pattern = R.shape_geometry(lam).pattern
        least = {}
        for rpp in R.enumerate_rpps(lam, n):
            chain = rpp.chain
            rest = rpp.volume
            for k in range(len(pattern)):
                rest -= sum(chain[k])  # the volume from slice k + 1 on
                move = (k, chain[k], chain[k + 1])
                least[move] = min(least.get(move, rest), rest)
        rows, slices = C._live_moves(lam, n)
        needs = {(k, slices[k][mu], slices[k + 1][nu]): need for k, row in enumerate(rows)
                 for mu, row_moves in enumerate(row)
                 for need, _size, nu, *_roles in row_moves}
        assert needs == least, lam
        moves += len(needs)
    assert moves == 3477


def test_numbered_moves_have_no_dead_ends():
    # the engine indexes rows by slice number and reads each number's
    # least need: at every interface the numbers 0..m-1 name m distinct
    # slices, each reached by some move and, before the last interface,
    # leaving by some move; the last interface holds () alone
    cases = [(lam, 8) for lam in P.all_partitions(7)] + [((4, 4, 3, 3, 1), 6)]
    for lam, n in cases:
        pattern = R.shape_geometry(lam).pattern
        rows, slices = C._live_moves(lam, n)
        assert len(rows) == len(pattern) and len(slices) == len(pattern) + 1
        assert slices[0] == [()] and slices[-1] == [()], lam
        for k, row in enumerate(rows):
            assert len(set(slices[k])) == len(slices[k]) == len(row), (lam, k)
            assert all(row), (lam, k)  # every number at interface k moves on
            reached = {nu for moves in row for _need, _size, nu, *_roles in moves}
            assert reached == set(range(len(slices[k + 1]))), (lam, k)
            for moves in row:
                for _need, size, nu, *_roles in moves:
                    assert size == sum(slices[k + 1][nu])


def test_pair_json_roundtrip():
    text = C.pair_to_json(WORKED_PAIR)
    assert C.pair_from_json(text) == WORKED_PAIR


def test_pair_config_weight_is_the_product_of_vertex_weights():
    def per_vertex(pair):  # one Monomial product per vertex pair
        blue_cfg = V.rpp_to_config(pair.shape, pair.blue)
        red_cfg = V.rpp_to_config(pair.shape, pair.red)
        window = max(blue_cfg.window, red_cfg.window)
        t = Monomial(0, 1)
        total = Monomial(0, 0)
        for k in range(1, len(blue_cfg.masks) + 1):
            kind = blue_cfg.kind(k)
            x = Monomial(-k) if kind == WHITE else Monomial(k)
            weigh = V.white_weight if kind == WHITE else V.gray_weight
            tail = V.EMPTY if kind == WHITE else V.HORIZONTAL
            brow, rrow = blue_cfg.states[k - 1], red_cfg.states[k - 1]
            for c in range(window):
                vb = brow[c] if c < len(brow) else tail
                vr = rrow[c] if c < len(rrow) else tail
                total = total * weigh((vb, vr), x, t)
        return total

    checked = 0
    for lam in P.all_partitions(4):
        for blue, red in R.enumerate_pairs(lam, 6):
            pair = C.make_pair(blue, red)
            assert C.pair_config_weight(pair) == per_vertex(pair), pair
            checked += 1
    assert checked == 2045  # criterion 4's 2044 pairs and the empty one


def test_coupled_pairs_kept_on_the_pair_leave_equality_hash_and_repr():
    pair = C.make_pair(WORKED_BLUE, WORKED_RED)
    fresh = C.PairRPP(pair.shape, pair.blue, pair.red)
    before = (hash(pair), repr(pair))
    found = C.coupled_pairs(pair)
    assert "couplings" in vars(pair) and "couplings" not in vars(fresh)
    found.append(None)  # the caller's copy; the kept list stays as found
    assert C.coupled_pairs(pair) == C.coupled_pairs(fresh) == found[:-1]
    assert C.g_via_lozenges(pair) == len(found) - 1 == 6
    assert (hash(pair), repr(pair)) == before
    assert pair == fresh and hash(pair) == hash(fresh)
    assert repr(pair) == (f"PairRPP(shape={pair.shape}, blue={pair.blue!r}, "
                          f"red={pair.red!r})")
