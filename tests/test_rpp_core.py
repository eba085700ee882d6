import itertools
import tracemalloc

import pytest

import oracles as O
from coupledrpp import cli
from coupledrpp import coupling as C
from coupledrpp import partitions as P
from coupledrpp import rpp_core as R
from coupledrpp import sliding as S
from coupledrpp import vertex_model as V
from coupledrpp.qt_series import hook_product
from coupledrpp.rpp_core import PRECEQ, SUCCEQ

EX_RPP = R.validate((4, 3, 1), [[0, 1, 3, 4], [1, 1, 4], [3]])
EX_CHAIN = ((), (3,), (1,), (1,), (4, 1), (3,), (4,), ())
EX_PATTERN = (PRECEQ, SUCCEQ, PRECEQ, PRECEQ, SUCCEQ, PRECEQ, SUCCEQ)


def test_validate_worked_example():
    rpp = R.validate((4, 3, 2), [[0, 0, 3, 5], [1, 2, 4], [1, 2]])
    assert rpp.volume == 18


def test_validate_zero_filling():
    for lam in P.all_partitions(5):
        assert R.zero_rpp(lam).volume == 0


def test_validate_rejects_bad_fillings():
    with pytest.raises(ValueError, match="row"):
        R.validate((2,), [[2, 1]])
    with pytest.raises(ValueError, match="column"):
        R.validate((1, 1), [[3], [1]])
    with pytest.raises(ValueError):
        R.validate((2, 1), [[0, 0]])
    with pytest.raises(ValueError):
        R.validate((2,), [[0, -1]])


def test_interaction_pattern_examples():
    assert R.interaction_pattern((4, 3, 1)) == EX_PATTERN
    assert R.interaction_pattern((1,)) == (PRECEQ, SUCCEQ)
    assert R.interaction_pattern((2, 2)) == (PRECEQ, PRECEQ, SUCCEQ, SUCCEQ)
    assert R.interaction_pattern(()) == ()


def test_interaction_pattern_counts():
    for lam in P.all_partitions(7):
        pat = R.interaction_pattern(lam)
        assert len(pat) == (lam[0] + len(lam) if lam else 0)
        assert sum(1 for rel in pat if rel == SUCCEQ) == len(lam)


def test_interaction_pattern_matches_maya_holes():
    # relation k is <= exactly at a hole of the shape's Maya diagram
    for lam in P.all_partitions(7):
        if not lam:
            continue
        width = max(len(lam), lam[0]) + 1
        m = P.maya(lam, width)
        for k, rel in enumerate(R.interaction_pattern(lam)):
            assert (rel == PRECEQ) == (not m >> k - len(lam) + width & 1)


def set_based_interaction_pattern(lam):
    """The pattern read off the set of occupied sites, without a bitmask:
    the oracle for `R.interaction_pattern`."""
    lam = P.normalize(lam)
    if not lam:
        return ()
    occupied = {lam[i] - (i + 1) for i in range(len(lam))}
    return tuple(SUCCEQ if t in occupied else PRECEQ
                 for t in range(-len(lam), lam[0]))


def set_based_shape_from_pattern(pattern):
    """The shape decoded site by site from the top: the oracle for
    `O.shape_from_pattern`, with the same round-trip error."""
    pattern = tuple(pattern)
    depth = sum(1 for rel in pattern if rel == SUCCEQ)
    parts = []
    i = 0
    for k in range(len(pattern) - 1, -1, -1):
        if pattern[k] == SUCCEQ:
            i += 1
            parts.append(k - depth + i)
    lam = P.normalize(parts)
    if set_based_interaction_pattern(lam) != pattern:
        raise ValueError(f"pattern {pattern} does not match any shape")
    return lam


def outcome(fn, arg):
    try:
        return fn(arg)
    except ValueError as exc:
        return f"ValueError: {exc}"


def test_mask_route_matches_the_set_based_oracle():
    for lam in P.all_partitions(12):
        assert R.interaction_pattern(lam) == set_based_interaction_pattern(lam)
    patterns = [p for n in range(13)
                for p in itertools.product((PRECEQ, SUCCEQ), repeat=n)]
    assert len(patterns) == 8191
    shapes = 0
    for pattern in patterns:
        want = outcome(set_based_shape_from_pattern, pattern)
        assert outcome(O.shape_from_pattern, pattern) == want
        shapes += isinstance(want, tuple)
    assert shapes == 2048  # the empty pattern, and those from a hole to a particle


def test_to_slices_worked_example():
    chain = R.to_slices(EX_RPP)
    assert chain.pattern == EX_PATTERN
    assert chain.slices == EX_CHAIN


def test_to_slices_zero_filling():
    chain = R.to_slices(R.zero_rpp((3, 2)))
    assert all(sl == () for sl in chain.slices)


def test_from_slices_inverts_worked_example():
    assert O.from_slices(R.to_slices(EX_RPP)) == EX_RPP
    assert O.from_slices(R.SliceSequence(EX_PATTERN, EX_CHAIN)) == EX_RPP


def test_from_slices_rejects_bad_chains():
    with pytest.raises(ValueError, match="interlacing"):
        O.from_slices(R.SliceSequence((PRECEQ, SUCCEQ), ((), (1, 1), ())))
    with pytest.raises(ValueError, match="pattern"):
        O.shape_from_pattern((SUCCEQ, PRECEQ, PRECEQ))
    with pytest.raises(ValueError, match="slices"):
        O.from_slices(R.SliceSequence((PRECEQ, SUCCEQ), ((), ())))


def test_from_diagonals_rejects_slices_that_do_not_fit_the_diagonals():
    # the diagonals of (2,2) hold 1, 2 and 1 cells; the last slice has 2
    with pytest.raises(ValueError, match="slice 3 has 2 parts"):
        R.from_diagonals((2, 2), [(1,), (2, 1), (1, 1)])
    # one slice per diagonal, so the kept chain and volume are the rows'
    with pytest.raises(ValueError, match="expected 1 slices, got 2"):
        R.from_diagonals((1,), [(1,), (2,)])
    with pytest.raises(ValueError, match="expected 3 slices, got 1"):
        R.from_diagonals((2, 1), [(1,)])


def _outcome(fn, *args):
    try:
        rpp = fn(*args)
    except (TypeError, ValueError):
        return None
    return rpp.rows, rpp.chain, rpp.volume


def test_from_diagonals_accepts_exactly_the_valid_rows():
    # every tuple of slices that fit their diagonals, with parts in 0..2 and
    # none ending in 0: the chain check accepts what validate accepts
    accepted = 0
    for lam in P.all_partitions(5):
        fits = [[sl for n in range(len(d) + 1) for sl in itertools.product(range(3), repeat=n)
                 if not sl or sl[-1]] for d in O.diagonal_cells(lam)]
        for slices in itertools.product(*fits):
            want = _outcome(R.validate, lam, O.rows_by_cells(lam, slices))
            assert _outcome(R.from_diagonals, lam, slices) == want, (lam, slices)
            accepted += want is not None
    assert accepted == sum(1 for lam in P.all_partitions(5)
                           for rpp in R.enumerate_rpps(lam, 2 * sum(lam))
                           if all(v <= 2 for row in rpp.rows for v in row))
    # the diagonals of (2,2) hold 1, 2 and 1 cells
    for slices in ([(1.0,), (), ()], [(True,), (), ()], [("1",), (), ()], [(), (1, 0), ()]):
        with pytest.raises(ValueError, match="not a positive int"):
            R.from_diagonals((2, 2), slices)


def test_slice_roundtrip_exhaustive():
    # from_slices validates, so this also checks every enumerated filling
    for lam in P.all_partitions(5):
        for rpp in R.enumerate_rpps(lam, 6):
            chain = R.to_slices(rpp)
            out = O.from_slices(chain)
            assert out == rpp and vars(out)["chain"] == chain  # handed over


def test_next_slices_is_the_interlacing_filter():
    # every fitting slice once, in descending lexicographic order, which
    # enumeration and the row-transfer engine rely on
    for prev in P.all_partitions(6):
        for max_len in range(6):
            for budget in range(10):
                fits = [nu for nu in P.all_partitions(budget) if len(nu) <= max_len]
                assert list(R.next_slices(prev, PRECEQ, max_len, budget)) == \
                    sorted((nu for nu in fits if O.interlaces(prev, nu)), reverse=True)
                assert list(R.next_slices(prev, SUCCEQ, max_len, budget)) == \
                    sorted((nu for nu in fits if O.interlaces(nu, prev)), reverse=True)
    assert list(R.next_slices((2, 1), PRECEQ, 2, 4)) == [(3, 1), (2, 2), (2, 1)]


def test_enumerate_single_cell():
    rpps = list(R.enumerate_rpps((1,), 4))
    assert [r.rows for r in rpps] == [((v,),) for v in range(5)]


def test_enumerate_counts_against_hook_product():
    for lam in P.all_partitions(6):
        counts = [0] * 11
        seen = set()
        for rpp in R.enumerate_rpps(lam, 10):
            counts[rpp.volume] += 1
            assert rpp.rows not in seen, "enumeration must be duplicate-free"
            seen.add(rpp.rows)
        assert counts == hook_product(lam, 10, 1).q_coefficients(), lam


def test_enumerate_volume_counts_21():
    counts = [0, 0, 0]
    for rpp in R.enumerate_rpps((2, 1), 2):
        counts[rpp.volume] += 1
    # coefficients of 1/((1-q)^2 (1-q^3))
    assert counts == [1, 2, 3]


def test_enumerate_empty_shape():
    assert list(R.enumerate_rpps((), 7)) == [R.RPP((), ())]


def test_enumerate_order_is_reading_word_lex():
    for lam in P.all_partitions(5):
        words = [sum(r.rows, ()) for r in R.enumerate_rpps(lam, 4)]
        assert words == sorted(words), lam


def test_enumerate_pairs_is_the_nested_enumeration():
    def nested(lam, bound):  # reds enumerated afresh for every blue
        for blue in R.enumerate_rpps(lam, bound):
            for red in R.enumerate_rpps(lam, bound - blue.volume):
                yield blue, red

    for lam in [*P.all_partitions(4), (4, 4, 3, 3, 1)]:
        assert list(R.enumerate_pairs(lam, 6)) == list(nested(lam, 6)), lam
    assert list(R.enumerate_pairs((2, 1), -1)) == []


def test_enumerated_fillings_carry_their_chain(monkeypatch):
    fillings = {lam: list(R.enumerate_rpps(lam, 5)) for lam in P.all_partitions(5)
                if lam}  # the empty shape has no slices to build

    def unused(rpp):
        raise AssertionError("the chain of an enumerated filling was read again")

    monkeypatch.setattr(R, "to_slices", unused)
    for lam, rpps in fillings.items():
        for rpp in rpps:
            rpp.chain  # handed over by the enumeration
    monkeypatch.undo()
    for lam, rpps in fillings.items():
        for rpp in rpps:
            fresh = R.validate(lam, rpp.rows)
            assert rpp.chain == R.to_slices(fresh) == fresh.chain, rpp
            config, fresh_config = V.rpp_to_config(lam, rpp), V.rpp_to_config(lam, fresh)
            assert config == fresh_config, rpp
            # the states are built on first read and kept outside the fields
            assert config.masks == fresh_config.masks, rpp
            assert config.states == fresh_config.states, rpp


def test_derived_data_leave_equality_hash_and_repr():
    for rpp in R.enumerate_rpps((3, 2, 1), 4):
        fresh = R.validate(rpp.shape, rpp.rows)
        before = (hash(fresh), repr(fresh), R.rpp_to_json(fresh))
        pair = C.make_pair(fresh, rpp)
        for compute in (C.g_via_vertex, C.g_via_lozenges, S.check_t0_constraints):
            compute(pair)
        V.rpp_to_config(fresh.shape, fresh)
        assert fresh.volume == sum(map(sum, rpp.rows))
        assert {"chain", "masks", "weight", "config", "lozenges", "roles",
                "volume"} <= set(vars(fresh))
        assert (hash(fresh), repr(fresh), R.rpp_to_json(fresh)) == before
        assert fresh == rpp == R.RPP(rpp.shape, rpp.rows)
        assert hash(fresh) == hash(R.RPP(rpp.shape, rpp.rows))
        assert repr(fresh) == f"RPP(shape={rpp.shape}, rows={rpp.rows})"
    # the reprs of the other records, derived data read first
    blue, red = R.validate((2, 1), [[0, 1], [1]]), R.validate((2, 1), [[0, 0], [2]])
    pair = C.make_pair(blue, red)
    config = V.rpp_to_config(blue.shape, blue)
    C.coupled_pairs(pair), config.states
    assert repr(pair) == ("PairRPP(shape=(2, 1), blue=RPP(shape=(2, 1), rows=((0, 1), "
                          "(1,))), red=RPP(shape=(2, 1), rows=((0, 0), (2,))))")
    assert repr(blue.chain) == ("SliceSequence(pattern=('<=', '>=', '<=', '>='), "
                                "slices=((), (1,), (), (1,), ()))")
    assert repr(config) == (
        "VertexConfig(shape=(2, 1), pattern=('<=', '>=', '<=', '>='), "
        "interfaces=((), (1,), (), (1,), ()), zetas=(2, 2, 1, 1, 0), window=4, "
        "masks=((2, 7, 5), (-4, -3, 1), (1, 3, 2), (-2, -2, 0)))")
    assert [repr(V.Monomial(*e)) for e in ((3, 2), (3,), ())] == ["q^3*t^2", "q^3", "q^0"]
    for record, field in ((blue, "rows"), (pair, "red"), (blue.chain, "slices"),
                          (config, "masks"), (V.Monomial(1), "q_exp")):
        with pytest.raises(AttributeError):
            setattr(record, field, getattr(record, field))


def test_shape_geometry_is_shared_and_bounded():
    lam = (4, 4, 3, 3, 1)
    geometry = R.shape_geometry(lam)
    assert R.shape_geometry(lam) is geometry
    assert geometry._fields == ("pattern", "lengths", "zetas")
    assert geometry.pattern == R.interaction_pattern(lam)
    # one path per border strip: as many as the longest diagonal has cells
    assert max(geometry.lengths) == len(O.border_strips(lam))
    shapes = list(P.all_partitions(12))
    assert len(shapes) == 272
    for lam in shapes:
        geometry = R.shape_geometry(lam)
        pattern, cells_of = geometry.pattern, O.diagonal_cells(lam)
        assert geometry.zetas == tuple(pattern[k:].count(SUCCEQ)
                                       for k in range(len(pattern) + 1))
        assert len(cells_of) == max(len(pattern) - 1, 0)
        assert geometry.lengths == tuple(map(len, cells_of))
        for k, cells in enumerate(cells_of, start=1):  # diagonal k, top first
            assert cells and [c - r for r, c in cells] == [k - len(lam)] * len(cells)
            assert [r for r, _ in cells] == sorted((r for r, _ in cells), reverse=True)
        assert sorted(cell for cells in cells_of for cell in cells) == \
            sorted((r, c) for r, p in enumerate(lam) for c in range(p))
        # every entry distinct: a cell read or written at the wrong place shows
        rows = [[r * len(pattern) + c + 1 for c in range(p)] for r, p in enumerate(lam)]
        rpp = R.validate(lam, rows)
        slices = O.slices_by_cells(rpp)
        assert R.to_slices(rpp).slices == (((), *slices, ()) if lam else ((),))
        assert R.from_diagonals(lam, slices).rows == rpp.rows
        assert O.rows_by_cells(lam, slices) == rows
    assert R.shape_geometry.cache_info().maxsize == 64
    with pytest.raises(ValueError, match="normalized"):
        R.shape_geometry((2, 0))


@pytest.mark.parametrize("shape", [(2 ** 18,), (1,) * 2 ** 18, (512,) * 512])
def test_shape_geometry_of_the_largest_shapes_keeps_little(shape):
    # O(diagonals), not O(cells): at the CLI's bound of 2^18 cells a kept
    # geometry holds at most 64 bytes per cell, so the 64 cached shapes
    # stay within a few hundred MB
    R.shape_geometry.cache_clear()
    tracemalloc.start()
    try:
        geometry = R.shape_geometry(shape)
        kept = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
        R.shape_geometry.cache_clear()
    assert sum(geometry.lengths) == sum(shape) == cli.SITE_BOUND
    assert kept <= 64 * cli.SITE_BOUND


@pytest.mark.parametrize("shape,rows", [
    ((2, 2), ((1, 1), (1, 0))),  # diagonal 0 reads (0, 1) top first
    ((1,), ((-1,),)),
    ((2, 2), ((0, 0), (0, -1))),
])
def test_to_slices_rejects_a_diagonal_that_is_no_partition(shape, rows):
    with pytest.raises(ValueError, match="not a partition"):
        R.to_slices(R.RPP(shape, rows))


def test_json_roundtrip():
    text = R.rpp_to_json(EX_RPP)
    assert R.rpp_from_json(text) == EX_RPP
    assert '"shape": [4, 3, 1]' in text
