import hashlib
import json
import random
from fractions import Fraction
from functools import partial
from itertools import product

import pytest

import oracles as O
from coupledrpp import partitions as P
from coupledrpp import rpp_core as R
from coupledrpp import vertex_model as V
from coupledrpp.vertex_model import GRAY, Monomial, WHITE

X = Fraction(3, 7)


def report_digest(report):
    # sha256 of the report's canonical JSON, to pin whole reports compactly
    return hashlib.sha256(json.dumps(report, sort_keys=True).encode()).hexdigest()


def test_white_weight_table():
    assert V.white_weight((V.EMPTY,), X) == 1
    assert V.white_weight((V.BOTTOM_RIGHT,), X) == X
    assert V.white_weight((V.HORIZONTAL,), X) == X
    assert V.white_weight((V.VERTICAL,), X) == 1
    assert V.white_weight((V.LEFT_TOP,), X) == 1


def test_gray_weight_table():
    assert V.gray_weight((V.EMPTY,), X) == X
    assert V.gray_weight((V.BOTTOM_RIGHT,), X) == 1
    assert V.gray_weight((V.HORIZONTAL,), X) == 1
    assert V.gray_weight((V.VERTICAL,), X) == X
    assert V.gray_weight((V.LEFT_TOP,), X) == X


def test_gray_is_white_after_inversion():
    # L'_x(v) = x L_{1/x}(v), checked at several exact points and symbolically
    for x in [Fraction(2, 3), Fraction(1, 5), Fraction(7, 2), Fraction(9, 4), Fraction(1, 9)]:
        for v in V.ALLOWED_STATES:
            assert V.gray_weight((v,), x) == x * V.white_weight((v,), 1 / x)
    q = Monomial(1)
    for v in V.ALLOWED_STATES:
        assert V.gray_weight((v,), q) == q * V.white_weight((v,), Monomial(-1))


def test_three_color_gray_is_white_after_inversion():
    # n colors: x^n t^(n(n-1)/2) times the white weight at 1/(x t^(n-1));
    # n = 1 and n = 2 are the tests above and test_colored_gray_change_of_variable
    x, t = Fraction(3, 5), Fraction(2, 7)
    for column in product(V.ALLOWED_STATES, repeat=3):
        assert V.gray_weight(column, x, t) == \
            x ** 3 * t ** 3 * V.white_weight(column, 1 / (x * t * t), t), column


def test_disallowed_state_raises():
    bad = V.VertexState(1, 1, 1, 1)
    with pytest.raises(ValueError):
        V.white_weight((bad,), X)
    with pytest.raises(ValueError):
        V.gray_weight((bad,), X)
    assert V.vertex_state(1, 1, 1, 1) is None
    assert V.vertex_state(1, 1, 0, 1) is None


def test_cross_weight_table():
    z = Fraction(2, 5)
    assert V.cross_weight((V.CROSS_NWSE,), z) == 1 - z
    assert V.cross_weight((V.CROSS_TOP,), z) == z
    assert V.cross_weight((V.CROSS_BOTTOM,), z) == 1
    assert V.cross_weight((V.CROSS_BOTH,), z) == z
    assert V.cross_weight((V.CROSS_EMPTY,), z) == 1
    with pytest.raises(ValueError):
        V.cross_weight((V.CrossState(0, 1, 1, 0),), z)


def test_row_weight_closed_examples():
    assert O.row_weight_closed(WHITE, (1, 1), (3, 1, 1), X) == X ** 3
    assert O.row_weight_closed(GRAY, (3, 1, 1), (2, 1), X, ell=4) == X ** 6
    assert O.row_weight_closed(WHITE, (2, 1), (2, 1), X) == 1
    assert O.row_weight_closed(WHITE, (2,), (1,), X) is None
    assert O.row_weight_closed(GRAY, (1,), (2,), X, ell=3) is None


def test_row_weight_explicit_examples():
    assert V.row_weight_explicit(WHITE, ((1, 1),), ((3, 1, 1),), X, ell=3, window=12) == X ** 3
    assert V.row_weight_explicit(GRAY, ((3, 1, 1),), ((2, 1),), X, ell=4, window=12) == X ** 6
    assert V.row_weight_explicit(WHITE, ((2, 1),), ((2, 1),), X, ell=2, window=8) == 1


def test_row_weight_explicit_window_too_narrow():
    with pytest.raises(ValueError, match="window"):
        V.row_weight_explicit(WHITE, ((1, 1),), ((3, 1, 1),), X, ell=3, window=4)


def test_row_weight_explicit_matches_closed_exhaustively():
    for mu in P.all_partitions(6):
        for lam in P.all_partitions(6):
            ell = max(len(mu), len(lam), 1) + 1
            window = ell + max(mu[0] if mu else 0, lam[0] if lam else 0) + 3
            assert V.row_weight_explicit(WHITE, (mu,), (lam,), X, ell, window) == \
                O.row_weight_closed(WHITE, mu, lam, X)
            if len(mu) <= ell:  # gray rows hold ell+1 entering paths
                assert V.row_weight_explicit(GRAY, (mu,), (lam,), X, ell - 1, window) == \
                    O.row_weight_closed(GRAY, mu, lam, X, ell - 1)


def test_two_color_columns_are_the_per_color_products():
    # the column weights against the two-color weights as products of
    # one-color factors: all 25 state pairs and all 25 crossing pairs at
    # the colored samples, and the monomial vertex weights symbolically
    symbolic = (Monomial(1, 0), Monomial(0, 1))
    for x, y, t in V.YBE_SAMPLES[2]:
        z = x * y * t
        for cb, cr in product(V.ALLOWED_CROSSINGS, repeat=2):
            assert V.cross_weight((cb, cr), z, t) == O.colored_cross_weight(cb, cr, z, t)
    for x, t in [sample[::2] for sample in V.YBE_SAMPLES[2]] + [symbolic]:
        for vb, vr in product(V.ALLOWED_STATES, repeat=2):
            assert V.white_weight((vb, vr), x, t) == O.colored_white_weight(vb, vr, x, t)
            assert V.gray_weight((vb, vr), x, t) == O.colored_gray_weight(vb, vr, x, t)
    bad_state, bad_cross = V.VertexState(1, 1, 1, 1), V.CrossState(0, 1, 1, 0)
    for column in ((bad_state, V.EMPTY), (V.EMPTY, bad_state)):
        for weigh in (V.white_weight, V.gray_weight):
            with pytest.raises(ValueError, match="disallowed vertex state"):
                weigh(column, X, X)
    for column in ((bad_cross, V.CROSS_EMPTY), (V.CROSS_EMPTY, bad_cross)):
        with pytest.raises(ValueError, match="disallowed crossing state"):
            V.cross_weight(column, X, X)


def test_two_color_rows_at_t1_are_products_of_one_color_rows():
    one = Fraction(1)
    checked = 0
    for kind in (WHITE, GRAY):
        for mb, mr, lb, lr in product(P.all_partitions(3), repeat=4):
            got = V.row_weight_explicit(kind, (mb, mr), (lb, lr), X, 3, 9, one)
            blue = V.row_weight_explicit(kind, (mb,), (lb,), X, 3, 9)
            red = V.row_weight_explicit(kind, (mr,), (lr,), X, 3, 9)
            if blue is None or red is None:
                assert got is None
            else:
                assert got == blue * red
                checked += 1
    assert checked == 2 * 324


EX_RPP = R.validate((4, 3, 1), [[0, 1, 3, 4], [1, 1, 4], [3]])


def test_config_rows_of_worked_example():
    config = V.rpp_to_config((4, 3, 1), EX_RPP)
    # the shape's pattern <= >= <= <= >= <= >= decides the row kinds
    assert [config.kind(k) for k in range(1, len(config.masks) + 1)] == [
        WHITE, GRAY, WHITE, WHITE, GRAY, WHITE, GRAY]
    assert R.shape_geometry(config.shape).zetas == (3, 3, 2, 2, 2, 1, 1, 0)
    # per-row x-degree profile forced by the closed row weights on the chain
    profile = []
    for k, row in enumerate(config.states, start=1):
        weigh = V.white_weight if config.kind(k) == WHITE else V.gray_weight
        profile.append(sum(1 for v in row if weigh((v,), Fraction(2)) == Fraction(2)))
    assert profile == [3, 4, 0, 4, 3, 1, 4]


def test_config_to_json():
    import json
    data = json.loads(V.config_to_json(V.rpp_to_config((4, 3, 1), EX_RPP)))
    assert [row["kind"] for row in data["rows"]] == \
        ["white", "gray", "white", "white", "gray", "white", "gray"]
    assert data["interfaces"] == [[], [3], [1], [1], [4, 1], [3], [4], []]
    assert data["window"] >= 7


def test_a_lambda_examples():
    assert V.A_lambda(()) == Monomial(0)
    assert V.A_lambda((1,)) == Monomial(0)
    assert V.A_lambda((4, 3, 1)) == Monomial(-9)


def test_zero_config_weight_is_inverse_a():
    for lam in P.all_partitions(5):
        w = V.config_weight_q(lam, R.zero_rpp(lam))
        assert w * V.A_lambda(lam) == Monomial(0), lam


def test_single_column_weight():
    for n in range(5):
        rpp = R.validate((1,), [[n]])
        assert V.config_weight_q((1,), rpp) == Monomial(n)


def test_weight_bijection_small():
    for lam in P.all_partitions(4):
        A = V.A_lambda(lam)
        for rpp in R.enumerate_rpps(lam, 6):
            assert V.config_weight_q(lam, rpp) * A == Monomial(rpp.volume)


WALK_CASES = [(lam, n) for lam in P.all_partitions(6) for n in (0, 3, 6)]


@pytest.mark.parametrize("lam, n", WALK_CASES)
def test_q_exponents_are_the_fillings_weights(lam, n):
    # the walk's (volume, q-exponent) multiset is the enumerated fillings'
    got = V.q_exponents(lam, n)
    want = [(rpp.volume, V.filling_weight(rpp).q_exp) for rpp in R.enumerate_rpps(lam, n)]
    assert sorted(got) == sorted(want)


def test_q_exponents_raise_on_a_row_without_configuration(monkeypatch):
    monkeypatch.setattr(V, "row_masks", lambda *args: None)
    with pytest.raises(AssertionError, match="row 1 of a valid RPP has no configuration"):
        V.q_exponents((2, 1), 3)


def neighbors_up(rpp):
    """Fillings reachable by adding one to a single cell."""
    for r in range(1, len(rpp.shape) + 1):
        for c in range(1, rpp.shape[r - 1] + 1):
            rows = [list(row) for row in rpp.rows]
            rows[r - 1][c - 1] += 1
            try:
                yield R.validate(rpp.shape, rows)
            except ValueError:
                continue


def test_corner_flip_changes_weight_by_q():
    # volume-increment moves multiply the configuration weight by exactly q
    for lam in [(2, 1), (2, 2), (3, 1)]:
        for rpp in R.enumerate_rpps(lam, 4):
            w = V.config_weight_q(lam, rpp)
            for up in neighbors_up(rpp):
                wu = V.config_weight_q(lam, up)
                assert wu.q_exp - w.q_exp == 1, (rpp.rows, up.rows)


def ybe_sides(kind, x, y, boundary):
    return tuple(side.get(boundary, 0)
                 for side in V.ybe_sweep(*V.ybe_tables(kind, 1, x, y)))


def test_ybe_worked_boundary():
    x, y = Fraction(2, 3), Fraction(1, 5)
    lhs, rhs = ybe_sides(V.WHITE_WHITE, x, y, (1, 0, 0, 0, 1, 0))
    assert lhs == rhs == y


def test_ybe_empty_boundary():
    x, y = Fraction(1, 2), Fraction(1, 3)
    lhs, rhs = ybe_sides(V.WHITE_WHITE, x, y, (0,) * 6)
    assert lhs == rhs == 1
    lhs, rhs = ybe_sides(V.WHITE_GRAY, x, y, (0,) * 6)
    assert lhs == rhs == x


def test_ybe_unknown_kind():
    with pytest.raises(ValueError, match="unknown YBE kind"):
        V.verify_ybe("gray-gray", 1)


def test_ybe_reports_a_broken_weight(monkeypatch):
    # a white vertical vertex weighs double; the pinned reports (their
    # violations, order and strings) are the ones found by summing both
    # sides boundary by boundary
    true_weight = V.white_weight

    def broken(column, x, t=1):
        w = true_weight(column, x, t)
        return 2 * w if column == (V.VERTICAL,) else w

    monkeypatch.setattr(V, "white_weight", broken)
    white_white = V.verify_ybe(V.WHITE_WHITE, 1)
    white_gray = V.verify_ybe(V.WHITE_GRAY, 1)
    assert [len(r["violations"]) for r in (white_white, white_gray)] == [10, 20]
    assert white_white["violations"][0] == {
        "boundary": [0, 0, 1, 1, 0, 0], "x": "2/3", "y": "1/5",
        "lhs": "2/3", "rhs": "17/15"}
    assert white_gray["violations"][-1] == {
        "boundary": [0, 1, 0, 0, 0, 1], "x": "1/9", "y": "8/3",
        "lhs": "2/9", "rhs": "1/9"}
    assert [report_digest(r) for r in (white_white, white_gray)] == [
        "21a57b3df4761ce3bd088917c55751d8235f103ad11eefa50e2feaaf5d531f10",
        "c29f8b5439c94cef0fd282fa160a8123619dfae54c14e4ac795d63e8009e3914"]


def test_ybe_full_sweeps():
    assert V.verify_ybe(V.WHITE_WHITE, 1)["passed"]
    assert V.verify_ybe(V.WHITE_GRAY, 1)["passed"]


def ybe_counts(tables):
    # (boundaries where the two sides differ, boundaries where either is nonzero)
    lhs, rhs = V.ybe_sweep(*tables)
    reached = lhs.keys() | rhs.keys()
    return (sum(lhs.get(key, 0) != rhs.get(key, 0) for key in reached),
            sum(bool(lhs.get(key, 0) or rhs.get(key, 0)) for key in reached))


def test_ybe_beyond_the_pinned_sweeps():
    # three colors cross at z = x y t^2 below a white row and at y/x
    # between white rows; at x y t, one power of t short, they do not
    x, y, t = V.YBE_SAMPLES[2][0]
    assert ybe_counts(V.ybe_tables(V.WHITE_GRAY, 3, x, y, t)) == (0, 2744)
    assert ybe_counts(V.ybe_tables(V.WHITE_WHITE, 3, x, y, t)) == (0, 2744)
    _, bottom, top = V.ybe_tables(V.WHITE_GRAY, 3, x, y, t)
    cross = {tuple(zip(*c)): V.cross_weight(c, x * y * t, t)
             for c in product(V.ALLOWED_CROSSINGS, repeat=3)}
    assert ybe_counts((cross, bottom, top)) == (2149, 2744)
    # two white rows of two colors, at every colored sample
    report = V.verify_ybe(V.WHITE_WHITE, 2)
    assert report["passed"] and report["kind"] == "colored-white-white"
    assert report["checked"] == 3 * 4 ** 6


def fraction_ybe_report(kind, tables_at, samples, boundaries):
    # the oracle: ybe_report as it was before the integer tables, both
    # sides summed in Fraction and compared at every boundary in turn
    violations = []
    checked = 0
    for sample in samples:
        sides = V.ybe_sweep(*tables_at(*sample))
        for boundary in boundaries:
            lhs, rhs = (side.get(boundary, 0) for side in sides)
            if lhs != rhs:
                violations.append({"boundary": json.loads(json.dumps(boundary)),
                                   **dict(zip("xyt", map(str, sample))),
                                   "lhs": str(lhs), "rhs": str(rhs)})
        checked += len(boundaries)
    return {"kind": kind, "checked": checked,
            "violations": violations, "passed": not violations}


ONE_COLOR_BOUNDARIES = [tuple(code >> i & 1 for i in range(6)) for code in range(64)]
COLORED_BOUNDARIES = list(product(product((0, 1), repeat=2), repeat=6))
DOUBLED_GRAY = tuple(zip(V.VERTICAL, V.HORIZONTAL))


def doubled_gray_tables(x, y, t):
    # a wrong model: one colored gray weight doubled
    cross, bottom, top = V.ybe_tables(V.WHITE_GRAY, 2, x, y, t)
    return cross, {**bottom, DOUBLED_GRAY: 2 * bottom[DOUBLED_GRAY]}, top


def crossing_at_xy_tables(x, y, t):
    # a wrong model: the colored crossing at z = x y instead of x y t
    _, bottom, top = V.ybe_tables(V.WHITE_GRAY, 2, x, y, t)
    return ({tuple(zip(cb, cr)): V.cross_weight((cb, cr), x * y, t)
             for cb, cr in product(V.ALLOWED_CROSSINGS, repeat=2)}, bottom, top)


def no_vertical_tables(x, y):
    # a wrong model: the bottom row has no vertical vertex, so some
    # boundaries are reached by one side only
    cross, bottom, top = V.ybe_tables(V.WHITE_WHITE, 1, x, y)
    return cross, {**bottom, V.VERTICAL: 0}, top


def seeded_samples(arity, seed):
    # three rational points, none with an entry 0
    rng = random.Random(seed)
    return [tuple(Fraction(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 9))
                  for _ in range(arity)) for _ in range(3)]


ONE_COLOR_CASES = {kind: partial(V.ybe_tables, kind, 1) for kind in (V.WHITE_WHITE, V.WHITE_GRAY)}
ONE_COLOR_CASES["no-vertical"] = no_vertical_tables
COLORED_CASES = {"colored": partial(V.ybe_tables, V.WHITE_GRAY, 2), "doubled-gray": doubled_gray_tables,
                 "crossing-at-xy": crossing_at_xy_tables}
# (model, samples) -> (tables_at, samples, boundaries); "smoke" is the one
# boundary of `ybe --smoke`, every edge empty, at the first default sample
YBE_ORACLE_CASES = {}
for cases, samples, boundaries in (
        (ONE_COLOR_CASES, V.YBE_SAMPLES[1], ONE_COLOR_BOUNDARIES),
        (COLORED_CASES, V.YBE_SAMPLES[2], COLORED_BOUNDARIES)):
    for name, tables_at in cases.items():
        YBE_ORACLE_CASES[name, "default"] = (tables_at, samples, boundaries)
        YBE_ORACLE_CASES[name, "seeded"] = (
            tables_at, seeded_samples(len(samples[0]), 4), boundaries)
        YBE_ORACLE_CASES[name, "smoke"] = (tables_at, samples[:1], [boundaries[0]])


@pytest.mark.parametrize("case", sorted(YBE_ORACLE_CASES), ids="-".join)
def test_ybe_report_matches_the_fraction_oracle(case):
    # same violations, in the same order, with the same strings and keys
    tables_at, samples, boundaries = YBE_ORACLE_CASES[case]
    report = V.ybe_report(case[0], tables_at, samples, boundaries)
    assert json.dumps(report) == json.dumps(
        fraction_ybe_report(case[0], tables_at, samples, boundaries))
    assert report["checked"] == len(samples) * len(boundaries)


def test_ybe_oracle_cases_find_the_wrong_models():
    seeded = [s for case, (_, samples, _) in YBE_ORACLE_CASES.items()
              if case[1] == "seeded" for s in samples]
    assert all(any(v < 0 for v in sample) for sample in seeded)
    counts = {case: len(V.ybe_report(case[0], *YBE_ORACLE_CASES[case])["violations"])
              for case in YBE_ORACLE_CASES}
    assert {case: n for case, n in counts.items() if n} == {
        ("crossing-at-xy", "default"): 405, ("crossing-at-xy", "seeded"): 405,
        ("doubled-gray", "default"): 36, ("doubled-gray", "seeded"): 36,
        ("no-vertical", "default"): 10, ("no-vertical", "seeded"): 6}
    # a boundary one side does not reach shows that side as 0
    one_sided = V.ybe_report("no-vertical", *YBE_ORACLE_CASES["no-vertical", "default"])
    assert {"0"} < {side for v in one_sided["violations"] for side in (v["lhs"], v["rhs"])}


def test_ybe_report_sweeps_int_tables(monkeypatch):
    # the rational tables reach the kernel as ints, at every sample
    true_sweep = V.ybe_sweep
    weight_types = []

    def spy(*tables):
        weight_types.append({type(w) for table in tables for w in table.values()})
        return true_sweep(*tables)

    monkeypatch.setattr(V, "ybe_sweep", spy)
    assert V.verify_ybe(V.WHITE_WHITE, 1)["passed"]
    assert V.verify_ybe(V.WHITE_GRAY, 1)["passed"]
    assert V.verify_ybe(V.WHITE_GRAY, 2, seeded_samples(3, 4))["passed"]
    assert weight_types == [{int}] * 13


def test_commutation_trivial_and_small():
    x, y = Fraction(1, 2), Fraction(1, 3)
    assert O.verify_commutation((), (), x, y, window=4)["passed"]
    assert O.verify_commutation((1,), (1,), x, y, window=4)["passed"]


def test_commutation_exhaustive_small():
    points = [(Fraction(1, 2), Fraction(1, 3)), (Fraction(2, 7), Fraction(3, 5))]
    for mu in P.all_partitions(4):
        for lam in P.all_partitions(4):
            for x, y in points:
                assert O.verify_commutation(mu, lam, x, y, window=4)["passed"], (mu, lam)


def test_commutation_rejects_degenerate_point():
    with pytest.raises(ValueError, match="xy"):
        O.verify_commutation((1,), (), Fraction(2), Fraction(1, 2), window=3)


def test_config_weight_q_is_the_product_of_vertex_weights():
    def per_vertex(lam, rpp):  # one Monomial product per vertex
        config = V.rpp_to_config(lam, rpp)
        total = Monomial(0, 0)
        for k, row in enumerate(config.states, start=1):
            if config.kind(k) == WHITE:
                x, weigh = Monomial(-k), V.white_weight
            else:
                x, weigh = Monomial(k), V.gray_weight
            for v in row:
                total = total * weigh((v,), x)
        return total

    checked = 0
    for lam in P.all_partitions(5):
        for rpp in R.enumerate_rpps(lam, 6):
            assert V.config_weight_q(lam, rpp) == per_vertex(lam, rpp), rpp
            checked += 1
    assert checked == 749


# The list encoding the row algebra replaced, kept as its oracle: sites are
# descending lists, and each bottom site is matched to a top site.

def _pair_paths(kind, bottoms, tops):
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


def _row_states_by_pairs(kind, bottoms, tops, window):
    matched = _pair_paths(kind, bottoms, tops)
    if matched is None:
        return None
    pairs, exit_site = matched
    need = max([s for s in bottoms + tops] + [0]) + 2
    if window < need:
        raise ValueError(f"window {window} too narrow; need >= {need}")
    states = [V.EMPTY] * window
    if exit_site is not None:
        states[exit_site] = V.BOTTOM_RIGHT
        for c in range(exit_site + 1, window):
            states[c] = V.HORIZONTAL
    for a, b in pairs:
        if a == b:
            states[a] = V.VERTICAL
        else:
            states[a] = V.BOTTOM_RIGHT
            for c in range(a + 1, b):
                states[c] = V.HORIZONTAL
            states[b] = V.LEFT_TOP
    return states


def _row_masks_by_pairs(kind, bottoms, tops):
    matched = _pair_paths(kind, bottoms, tops)
    if matched is None:
        return None
    pairs, exit_site = matched
    right = occupied = top = 0
    if exit_site is not None:
        right = occupied = -1 << exit_site
    for a, b in pairs:
        right |= (1 << b) - (1 << a)
        occupied |= (2 << b) - (1 << a)
        top |= 1 << b
    return right, occupied, top


def test_row_algebra_equals_path_pairing():
    # every bottom and top site set of at most 5 sites in 0..7, both kinds,
    # mismatched site counts included
    from itertools import combinations
    site_sets = [s[::-1] for n in range(6) for s in combinations(range(8), n)]
    masks = [sum(1 << s for s in sites) for sites in site_sets]
    checked = rows = 0
    for kind in (WHITE, GRAY):
        for bottoms, bottom in zip(site_sets, masks):
            for tops, top in zip(site_sets, masks):
                want = _row_masks_by_pairs(kind, bottoms, tops)
                assert V.row_masks(kind, bottom, top) == want, (kind, bottoms, tops)
                window = max(bottoms + tops + (0,)) + 2
                assert V.row_states(kind, bottom, top, window) == \
                    _row_states_by_pairs(kind, list(bottoms), list(tops), window)
                checked += 1
                rows += want is not None
    assert checked == 95922
    assert rows == 1490 + 894  # white, gray


def test_row_states_refuse_a_vertex_outside_the_five(monkeypatch):
    # out_right at site 0 with no path entering it
    monkeypatch.setattr(V, "row_masks", lambda kind, bottom, top: (1, 1, 0))
    with pytest.raises(AssertionError, match="no allowed vertex"):
        V.row_states(WHITE, 0, 0, 3)


def test_config_window_is_two_above_the_top_mask_bit():
    """The window read off the slice chain is two above the top path of
    the interface masks, and at least 2, on every filling of the shapes of
    size <= 5 at volume <= 4."""
    checked = 0
    for lam in P.all_partitions(5):
        for rpp in R.enumerate_rpps(lam, 4):
            masks = V.interface_masks(rpp)
            assert V.config_window(rpp) == 1 + max(
                1, *(mask.bit_length() for mask in masks)), rpp
            checked += 1
    assert checked == 306
