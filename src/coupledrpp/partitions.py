"""Integer partitions, hook lengths and Maya diagrams.

Conventions used throughout the package:

* partitions are tuples of weakly decreasing positive integers, implicitly
  extended by zeros; trailing zeros are never stored
* cells are (row, col), both 1-based, with row 1 at the bottom (French
  convention)
* Maya sites are indexed by integers t, standing for the half-integer
  position t + 1/2 relative to the center of the diagram; the partition
  occupies sites {lam[i] - (i+1) : i >= 0}, which `maya_mask` stores as
  one int: bit zeta + t for site t >= -zeta
"""

from __future__ import annotations

from typing import Iterator, NamedTuple


class Cell(NamedTuple):
    row: int
    col: int


def normalize(parts) -> tuple[int, ...]:
    """Canonical form: tuple, weakly decreasing, trailing zeros stripped.
    Parts must be ints (not bools, floats or strings)."""
    out = []
    prev = None
    for p in parts:
        if type(p) is not int:
            raise TypeError(f"part {p!r} is not an integer")
        if p < 0:
            raise ValueError(f"negative part {p}")
        if prev is not None and p > prev:
            raise ValueError(f"parts not weakly decreasing: {tuple(parts)}")
        prev = p
        if p > 0:
            if out and out[-1] == 0:
                raise ValueError(f"zero before positive part: {tuple(parts)}")
            out.append(p)
        else:
            out.append(0)
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


def part(lam, i: int) -> int:
    """lam_i with 1-based index and zero extension."""
    return lam[i - 1] if 1 <= i <= len(lam) else 0


def conjugate(lam) -> tuple[int, ...]:
    """Column lengths of the Young diagram."""
    lam = normalize(lam)
    if not lam:
        return ()
    return tuple(sum(1 for p in lam if p >= j) for j in range(1, lam[0] + 1))


def hook_lengths(lam) -> list[int]:
    """The hook lengths of `hook_table`, rows bottom-up, each row left to
    right."""
    return [h for row in hook_table(lam) for h in row]


def hook_table(lam) -> list[list[int]]:
    """Hooks arranged like the filling, rows bottom-up: the hook of (r, c)
    is (lam_r - r) + (lam'_c - c) + 1, with the conjugate built once."""
    lam = normalize(lam)
    columns = conjugate(lam)
    return [[row_len - r + columns[c - 1] - c + 1 for c in range(1, row_len + 1)]
            for r, row_len in enumerate(lam, start=1)]


# ---------------------------------------------------------------------------
# Maya diagrams


def maya_mask(lam, zeta: int) -> int:
    """The Maya diagram of a normalized partition on sites -zeta and up, as
    a bitmask: bit zeta + t is site t, so bit zeta + v - i is set for its
    i-th part v and bits 0..zeta-n-1 for the zero parts past its n parts.
    Parts i+1..j equal to v set the block of bits zeta+v-j .. zeta+v-i-1,
    one OR per run of equal parts."""
    n = len(lam)
    if n > zeta:
        raise ValueError(f"slice {lam} too long for {zeta} paths")
    mask = (1 << zeta - n) - 1
    i = 0
    while i < n:
        v = lam[i]
        j = i + 1
        while j < n and lam[j] == v:
            j += 1
        mask |= ((1 << j - i) - 1) << zeta + v - j
        i = j
    return mask


def maya(lam, half_width: int) -> int:
    """The `maya_mask` of lam centred at half_width: bit t + half_width is
    site t, for sites -half_width .. half_width - 1."""
    lam = normalize(lam)
    lo = max(len(lam), part(lam, 1)) + 1
    if half_width < lo:
        raise ValueError(f"half_width {half_width} too narrow; need >= {lo}")
    mask = maya_mask(lam, half_width)
    # as many particles right of the centre as holes left of it
    right = (mask >> half_width).bit_count()
    left = half_width - (mask & (1 << half_width) - 1).bit_count()
    if right != left:
        raise AssertionError(f"center is not the balance point of {lam}")
    return mask


# ---------------------------------------------------------------------------
# Small enumeration helpers (desk-scale sweeps)


def partitions_of(n: int) -> Iterator[tuple[int, ...]]:
    """All partitions of n, largest part first within each partition."""
    return _partitions_within(n, n)


def _partitions_within(n: int, cap: int) -> Iterator[tuple[int, ...]]:
    """The partitions of n with parts at most cap, largest first."""
    if n == 0:
        yield ()
        return
    for first in range(min(n, cap), 0, -1):
        for rest in _partitions_within(n - first, first):
            yield (first,) + rest


def all_partitions(max_size: int) -> Iterator[tuple[int, ...]]:
    """All partitions of every size 0..max_size, smaller sizes first."""
    for n in range(max_size + 1):
        yield from partitions_of(n)
