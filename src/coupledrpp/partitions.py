"""Integer partitions, Young-diagram geometry, Maya diagrams, border strips.

Conventions used throughout the package:

* partitions are tuples of weakly decreasing positive integers, implicitly
  extended by zeros; trailing zeros are never stored
* cells are (row, col), both 1-based, with row 1 at the bottom (French
  convention)
* Maya sites are indexed by integers t, standing for the half-integer
  position t + 1/2 relative to the center of the diagram; the partition
  occupies sites {lam[i] - (i+1) : i >= 0}
"""

from __future__ import annotations

from dataclasses import dataclass
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


def cells(lam) -> Iterator[Cell]:
    for r, row_len in enumerate(lam, start=1):
        for c in range(1, row_len + 1):
            yield Cell(r, c)


def contains(lam, cell: Cell) -> bool:
    r, c = cell
    return r >= 1 and c >= 1 and c <= part(lam, r)


def conjugate(lam) -> tuple[int, ...]:
    """Column lengths of the Young diagram."""
    lam = normalize(lam)
    if not lam:
        return ()
    return tuple(sum(1 for p in lam if p >= j) for j in range(1, lam[0] + 1))


def interlaces(mu, lam) -> bool:
    """mu interlaces lam: lam_1 >= mu_1 >= lam_2 >= mu_2 >= ... (zero-extended)."""
    mu, lam = normalize(mu), normalize(lam)
    n = max(len(mu), len(lam))
    for i in range(1, n + 1):
        if not (part(lam, i) >= part(mu, i) >= part(lam, i + 1)):
            return False
    return True


def arm(lam, cell: Cell) -> int:
    if not contains(lam, cell):
        raise ValueError(f"cell {cell} outside shape {lam}")
    return part(lam, cell.row) - cell.col


def leg(lam, cell: Cell) -> int:
    if not contains(lam, cell):
        raise ValueError(f"cell {cell} outside shape {lam}")
    return part(conjugate(lam), cell.col) - cell.row


def hook(lam, cell: Cell) -> int:
    """Hook length arm + leg + 1 of a cell of the diagram."""
    return arm(lam, cell) + leg(lam, cell) + 1


def hook_lengths(lam) -> list[int]:
    """Multiset of hook lengths, in reading order of cells()."""
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


@dataclass(frozen=True)
class MayaDiagram:
    """Finite window of a particle/hole sequence.

    window[i] is True (particle) or False (hole) at site i - half_width,
    i.e. at position (i - half_width) + 1/2 relative to the center.  The
    center index into window is half_width itself.
    """

    window: tuple[bool, ...]
    half_width: int

    @property
    def center(self) -> int:
        return self.half_width

    def is_particle(self, site: int) -> bool:
        i = site + self.half_width
        if not 0 <= i < len(self.window):
            raise ValueError(f"site {site} outside window")
        return self.window[i]

    def sites(self) -> Iterator[int]:
        return iter(range(-self.half_width, self.half_width))


def maya(lam, half_width: int) -> MayaDiagram:
    """Maya diagram of lam on sites -half_width .. half_width - 1."""
    lam = normalize(lam)
    lo = max(len(lam), part(lam, 1)) + 1
    if half_width < lo:
        raise ValueError(f"half_width {half_width} too narrow; need >= {lo}")
    occupied = {lam[i] - (i + 1) for i in range(len(lam))}
    # zero parts contribute the packed tail: lam_i - i = -i for i > len(lam)
    window = tuple(
        t in occupied or t <= -len(lam) - 1
        for t in range(-half_width, half_width)
    )
    m = MayaDiagram(window, half_width)
    # constant boundary pattern: all particles at the far left, holes far right
    if not m.window[0] or m.window[-1]:
        raise ValueError("window does not reach the constant boundary pattern")
    right = sum(1 for t in range(0, half_width) if m.is_particle(t))
    left = sum(1 for t in range(-half_width, 0) if not m.is_particle(t))
    if right != left:
        raise AssertionError(f"center is not the balance point of {lam}")
    return m


def partition_from_maya(m: MayaDiagram) -> tuple[int, ...]:
    """Inverse of maya(): the i-th particle from the right sits at lam_i - i."""
    parts = []
    i = 0
    for t in range(m.half_width - 1, -m.half_width - 1, -1):
        if m.is_particle(t):
            i += 1
            p = t + i
            if p <= 0:
                break
            parts.append(p)
    return normalize(parts)


# ---------------------------------------------------------------------------
# Border strips


@dataclass(frozen=True)
class BorderStrip:
    """Edge-connected skew strip without a 2x2 block; index 1 is outermost."""

    index: int
    cells: tuple[Cell, ...]  # ordered from top-left end to bottom-right end


def rim(lam) -> list[Cell]:
    """Cells (r, c) of lam with (r+1, c+1) outside lam, by diagonal c - r."""
    lam = normalize(lam)
    out = []
    for r, row_len in enumerate(lam, start=1):
        for c in range(max(1, part(lam, r + 1)), row_len + 1):
            out.append(Cell(r, c))
    out.sort(key=lambda cell: cell.col - cell.row)
    return out


def remove_rim(lam) -> tuple[int, ...]:
    return normalize([p - 1 for p in lam[1:] if p - 1 > 0])


def border_strips(lam) -> list[BorderStrip]:
    """Peel rims outermost-first; removing a rim leaves the diagram of
    (lam_2 - 1, lam_3 - 1, ...) in place, so strip i of lam is the i-th cell
    from the top of every diagonal it meets."""
    lam = normalize(lam)
    strips = []
    shape = lam
    index = 1
    while shape:
        strips.append(BorderStrip(index, tuple(rim(shape))))
        shape = remove_rim(shape)
        index += 1
    return strips


# ---------------------------------------------------------------------------
# Small enumeration helpers (desk-scale sweeps)


def partitions_of(n: int) -> Iterator[tuple[int, ...]]:
    """All partitions of n, largest part first within each partition."""

    def gen(remaining, cap):
        if remaining == 0:
            yield ()
            return
        for first in range(min(remaining, cap), 0, -1):
            for rest in gen(remaining - first, first):
                yield (first,) + rest

    yield from gen(n, n)


def all_partitions(max_size: int) -> Iterator[tuple[int, ...]]:
    """All partitions of every size 0..max_size, smaller sizes first."""
    for n in range(max_size + 1):
        yield from partitions_of(n)
