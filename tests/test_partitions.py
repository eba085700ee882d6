import pytest

import oracles as O
from coupledrpp import partitions as P
from coupledrpp.partitions import Cell


def young_cells(lam):
    return {(r, c) for r, p in enumerate(lam, start=1) for c in range(1, p + 1)}


def test_normalize_strips_trailing_zeros():
    assert P.normalize([3, 2, 0, 0]) == (3, 2)
    assert P.normalize([]) == ()
    with pytest.raises(ValueError):
        P.normalize([1, 2])
    with pytest.raises(ValueError):
        P.normalize([2, -1])


def test_conjugate_examples():
    assert P.conjugate((4, 3, 1)) == (3, 2, 2, 1)
    assert P.conjugate(()) == ()
    assert P.conjugate((1, 1, 1)) == (3,)


def test_conjugate_is_transpose_and_involution():
    for lam in P.all_partitions(8):
        mu = P.conjugate(lam)
        assert young_cells(mu) == {(c, r) for r, c in young_cells(lam)}
        assert P.conjugate(mu) == lam


def test_interlaces_examples():
    assert O.interlaces((3, 2, 1, 1), (5, 2, 2, 1, 1))
    assert O.interlaces((), ())
    assert not O.interlaces((2,), (1,))


def test_interlaces_is_horizontal_strip():
    # at most one added cell per column, and containment
    for mu in P.all_partitions(8):
        for lam in P.all_partitions(8):
            cm, cl = young_cells(mu), young_cells(lam)
            strip = cm <= cl and all(
                sum(1 for (r, c) in cl - cm if c == col) <= 1
                for col in range(1, (lam[0] if lam else 0) + 1))
            assert O.interlaces(mu, lam) == strip, (mu, lam)


def test_hook_examples():
    assert P.hook_table((4, 3, 1)) == [[6, 4, 3, 1], [4, 2, 1], [1]]
    assert P.hook_table((1,)) == [[1]]
    assert P.hook_table(()) == []


def test_hook_multiset_invariant_under_conjugation():
    for lam in P.all_partitions(10):
        assert sorted(P.hook_lengths(lam)) == sorted(P.hook_lengths(P.conjugate(lam)))


def closed_hook(lam, r, c):
    """h(r,c) = (lam_r - r) + (lam'_c - c) + 1, the exponent each row swap
    of the transfer argument contributes."""
    return (lam[r - 1] - r) + (P.conjugate(lam)[c - 1] - c) + 1


def test_hook_as_row_plus_column_exponent():
    for lam in P.all_partitions(8):
        table = P.hook_table(lam)
        assert [len(row) for row in table] == list(lam)
        for r, c in young_cells(lam):
            assert table[r - 1][c - 1] == closed_hook(lam, r, c)


def test_hooks_of_a_shape_are_the_per_cell_hooks():
    # rows bottom-up, each row left to right
    for lam in P.all_partitions(10):
        assert P.hook_lengths(lam) == [closed_hook(lam, r, c)
                                       for r, p in enumerate(lam, start=1)
                                       for c in range(1, p + 1)]


def particle_sites(mask, half_width):
    """The sites -half_width .. half_width - 1 that `P.maya` occupies."""
    return [b - half_width for b in range(2 * half_width) if mask >> b & 1]


def test_maya_empty_partition():
    assert particle_sites(P.maya((), 3), 3) == [-3, -2, -1]


def test_maya_43221_profile():
    # particles at positions 3.5, 1.5, -0.5, -1.5, -3.5 then the packed tail
    assert particle_sites(P.maya((4, 3, 2, 2, 1), 7), 7) == [-7, -6, -4, -2, -1, 1, 3]


def test_maya_431_window():
    # the seven sites drawn around the center read hole/particle as
    # o * o o * o *
    m = P.maya((4, 3, 1), 5)
    assert [t in particle_sites(m, 5) for t in range(-3, 4)] == \
        [False, True, False, False, True, False, True]


def test_maya_balance_and_roundtrip():
    for lam in P.all_partitions(10):
        width = max(len(lam), lam[0] if lam else 0) + 1
        m = P.maya(lam, width)
        sites = particle_sites(m, width)
        right = sum(1 for t in sites if t >= 0)
        left = sum(1 for t in range(-width, 0) if t not in sites)
        assert right == left
        assert O.partition_from_mask(m, width) == lam


def _mask_by_parts(lam, zeta):
    """`maya_mask` by its definition, one bit per part: bit zeta + v - i
    for the i-th part v and bits 0..zeta-n-1, read off a string of bits."""
    bits = {zeta + v - i for i, v in enumerate(lam, start=1)} | set(range(zeta - len(lam)))
    assert len(bits) == zeta
    return int("".join("1" if b in bits else "0"
                       for b in range(max(bits, default=0), -1, -1)), 2)


def test_maya_mask_sets_one_block_per_run_of_equal_parts():
    for lam in P.all_partitions(10):
        for zeta in range(len(lam), len(lam) + 4):
            assert P.maya_mask(lam, zeta) == _mask_by_parts(lam, zeta), (lam, zeta)
    column, staircase = (1,) * 262144, tuple(range(700, 0, -1))
    assert P.maya_mask(column, len(column)) == _mask_by_parts(column, len(column))
    assert P.maya_mask(staircase, 700) == _mask_by_parts(staircase, 700)


def test_maya_window_too_narrow():
    with pytest.raises(ValueError):
        P.maya((4, 3, 1), 3)


def test_border_strips_44331():
    strips = O.border_strips((4, 4, 3, 3, 1))
    assert [s.index for s in strips] == [1, 2, 3]
    assert strips[0].cells == tuple(Cell(*rc) for rc in
        [(5, 1), (4, 1), (4, 2), (4, 3), (3, 3), (2, 3), (2, 4), (1, 4)])
    assert strips[1].cells == tuple(Cell(*rc) for rc in
        [(3, 1), (3, 2), (2, 2), (1, 2), (1, 3)])
    assert strips[2].cells == tuple(Cell(*rc) for rc in [(2, 1), (1, 1)])


def test_border_strips_small():
    assert [len(s.cells) for s in O.border_strips((1,))] == [1]
    assert [len(s.cells) for s in O.border_strips((2, 2))] == [3, 1]


def test_border_strips_partition_no_2x2_and_shift():
    for lam in P.all_partitions(8):
        strips = O.border_strips(lam)
        covered = set()
        for strip in strips:
            cells = set(strip.cells)
            assert not (cells & covered)
            covered |= cells
            for r, c in cells:
                assert not ({(r, c), (r + 1, c), (r, c + 1), (r + 1, c + 1)}
                            <= cells), "2x2 block inside a strip"
        assert covered == young_cells(lam)
        # strip i shifted down-left one step, clipped, is strip i+1
        for a, b in zip(strips, strips[1:]):
            shifted = {(r - 1, c - 1) for (r, c) in a.cells}
            assert {rc for rc in shifted if rc in young_cells(lam)} == set(b.cells)
