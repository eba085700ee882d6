"""Reverse plane partitions: validation, volume, slice bijection, enumeration.

A filling is stored as rows bottom-up, matching the shape.  Reading the
filling along vertical slices of the Russian-convention drawing (top cell of
each diagonal first) produces a chain of partitions interlacing according to
the hole/particle pattern of the shape's Maya diagram; that chain is the
bridge to the vertex model.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Iterator, NamedTuple

from . import partitions
from .partitions import BorderStrip, Cell, normalize, part

# Relation symbols for interlacing patterns: row k of the vertex model is
# white when pattern[k-1] == PRECEQ and gray when it is SUCCEQ.
PRECEQ = "<="
SUCCEQ = ">="


@dataclass(frozen=True)
class RPP:
    """A filling.  What is derived from it (its slice chain here; its
    interface sites, configuration, lozenge masks and paths elsewhere) is
    computed on first use and kept on the instance.  Equality, hash and
    repr read only the two fields, so a kept datum never changes them."""

    shape: tuple[int, ...]
    rows: tuple[tuple[int, ...], ...]  # bottom-up

    def entry(self, r: int, c: int) -> int:
        return self.rows[r - 1][c - 1]

    @cached_property
    def chain(self) -> "SliceSequence":
        """The slice chain; `enumerate_rpps` hands over the one it built."""
        return to_slices(self)

    def derived(self, name: str, build):
        """build(self), computed on the first call for `name` and kept."""
        memo = self.__dict__
        if name not in memo:
            memo[name] = build(self)
        return memo[name]

    @property
    def volume(self) -> int:
        return sum(sum(row) for row in self.rows)

    def reading_word(self) -> tuple[int, ...]:
        return tuple(v for row in self.rows for v in row)


def validate(shape, rows) -> RPP:
    """Check shape/filling agreement, integer entries and monotonicity;
    raise on the first offense."""
    shape = normalize(shape)
    rows = tuple(map(tuple, rows))
    if len(rows) != len(shape):
        raise ValueError(f"{len(rows)} rows for shape of length {len(shape)}")
    for r, (row, want) in enumerate(zip(rows, shape), start=1):
        if len(row) != want:
            raise ValueError(f"row {r} has {len(row)} entries, expected {want}")
        for v in row:
            if type(v) is not int:
                raise TypeError(f"entry {v!r} in row {r} is not an integer")
            if v < 0:
                raise ValueError(f"negative entry in row {r}")
    for r, row in enumerate(rows, start=1):
        for c in range(2, len(row) + 1):
            if row[c - 2] > row[c - 1]:
                raise ValueError(
                    f"row not weakly increasing at {Cell(r, c - 1)} > {Cell(r, c)}")
    for r in range(2, len(rows) + 1):
        for c in range(1, len(rows[r - 1]) + 1):
            if rows[r - 2][c - 1] > rows[r - 1][c - 1]:
                raise ValueError(
                    f"column not weakly increasing at {Cell(r - 1, c)} > {Cell(r, c)}")
    return RPP(shape, rows)


def zero_rpp(shape) -> RPP:
    shape = normalize(shape)
    return RPP(shape, tuple(tuple(0 for _ in range(p)) for p in shape))


def interaction_pattern(lam) -> tuple[str, ...]:
    """PRECEQ at holes and SUCCEQ at particles of the shape's Maya diagram,
    read over sites -len(lam') .. lam_1 - 1."""
    lam = normalize(lam)
    if not lam:
        return ()
    depth = len(lam)  # = conjugate(lam)[0]
    width = lam[0]
    occupied = {lam[i] - (i + 1) for i in range(len(lam))}
    return tuple(
        SUCCEQ if (t in occupied) else PRECEQ
        for t in range(-depth, width)
    )


@dataclass(frozen=True)
class SliceSequence:
    pattern: tuple[str, ...]
    slices: tuple[tuple[int, ...], ...]  # empty partitions at both ends


def diagonal_rows(shape, s: int) -> tuple[int, int] | None:
    """Rows (r_lo, r_hi) of the cells on diagonal col - row = s, or None."""
    shape = normalize(shape)
    r_lo = max(1, 1 - s)
    r_hi = 0
    for r in range(r_lo, len(shape) + 1):
        if part(shape, r) < r + s:  # rows leave the diagonal monotonically
            break
        r_hi = r
    if r_hi == 0:
        return None
    return (r_lo, r_hi)


def interface_zetas(pattern) -> list[int]:
    """Center positions of the interfaces 0..n of the vertex model: start
    at the number of paths, drop by one per gray (SUCCEQ) row."""
    zetas = [sum(1 for rel in pattern if rel == SUCCEQ)]
    for rel in pattern:
        zetas.append(zetas[-1] - (1 if rel == SUCCEQ else 0))
    return zetas


class ShapeGeometry(NamedTuple):
    """What the package derives from a shape alone."""

    pattern: tuple[str, ...]
    # cells[k-1]: 0-based (row, column) indices slice k reads, top first
    cells: tuple[tuple[tuple[int, int], ...], ...]
    zetas: tuple[int, ...]
    strips: tuple[BorderStrip, ...]


@lru_cache(maxsize=64)
def shape_geometry(shape: tuple[int, ...]) -> ShapeGeometry:
    """The geometry of a normalized shape, built once per shape; the 64
    most recently used shapes are kept."""
    if normalize(shape) != shape:
        raise ValueError(f"shape {shape} is not a normalized partition")
    pattern = interaction_pattern(shape)
    depth = len(shape)
    cells = []
    for k in range(1, len(pattern)):
        r_lo, r_hi = diagonal_rows(shape, k - depth)
        cells.append(tuple((r - 1, r + k - depth - 1)
                           for r in range(r_hi, r_lo - 1, -1)))
    return ShapeGeometry(pattern, tuple(cells),
                         tuple(interface_zetas(pattern)),
                         tuple(partitions.border_strips(shape)))


def to_slices(rpp: RPP) -> SliceSequence:
    """Read the filling along vertical slices, top of each diagonal first."""
    geometry = shape_geometry(rpp.shape)
    if not geometry.pattern:
        return SliceSequence((), ((),))
    rows = rpp.rows
    slices = [()]
    for cells in geometry.cells:
        slices.append(normalize([rows[r][c] for r, c in cells]))
    slices.append(())
    return SliceSequence(geometry.pattern, tuple(slices))


def shape_from_pattern(pattern) -> tuple[int, ...]:
    """Rebuild the shape whose Maya hole/particle pattern is given."""
    pattern = tuple(pattern)
    depth = sum(1 for rel in pattern if rel == SUCCEQ)
    parts = []
    i = 0
    for k in range(len(pattern) - 1, -1, -1):
        if pattern[k] == SUCCEQ:
            i += 1
            parts.append(k - depth + i)
    lam = normalize(parts)
    if interaction_pattern(lam) != pattern:
        raise ValueError(f"pattern {pattern} does not match any shape")
    return lam


def from_slices(ss: SliceSequence) -> RPP:
    """Inverse of to_slices; raises if the chain does not encode an RPP."""
    shape = shape_from_pattern(ss.pattern)
    n = len(ss.pattern) - 1
    if len(ss.slices) != n + 2:
        raise ValueError(f"expected {n + 2} slices, got {len(ss.slices)}")
    if ss.slices[0] or ss.slices[-1]:
        raise ValueError("chain must start and end with the empty partition")
    for k, rel in enumerate(ss.pattern):
        a, b = ss.slices[k], ss.slices[k + 1]
        ok = partitions.interlaces(a, b) if rel == PRECEQ else partitions.interlaces(b, a)
        if not ok:
            raise ValueError(f"slices {a} {rel} {b} violate interlacing at step {k}")
    rows = [[0] * p for p in shape]
    for k, cells in enumerate(shape_geometry(shape).cells, start=1):
        sl = ss.slices[k]
        if len(sl) > len(cells):
            raise ValueError(f"slice {k} has {len(sl)} parts but the diagonal "
                             f"holds {len(cells)} cells")
        for (r, c), v in zip(cells, sl):
            rows[r][c] = v
    return validate(shape, rows)


# ---------------------------------------------------------------------------
# Enumeration


def _interlacing_above(prev, max_len: int, budget: int) -> Iterator[tuple[int, ...]]:
    """Partitions nu with prev <= nu (prev interlaces nu), len <= max_len, |nu| <= budget."""

    def gen(i, upper, budget_left):
        lo = part(prev, i)
        if lo > budget_left:
            return
        hi = budget_left if upper is None else min(upper, budget_left)
        for v in range(hi, lo - 1, -1):
            if v == 0:
                yield ()
                continue
            if i >= max_len:
                # no more parts allowed; the tail of prev must already be zero
                if part(prev, i + 1) == 0:
                    yield (v,)
                continue
            # next part is capped by both nu_i and prev_i
            for rest in gen(i + 1, min(v, lo), budget_left - v):
                yield (v,) + rest

    if max_len == 0:
        if prev == ():
            yield ()
        return
    yield from gen(1, None, budget)


def _interlacing_below(prev, max_len: int, budget: int) -> Iterator[tuple[int, ...]]:
    """Partitions nu with nu <= prev, len <= max_len, |nu| <= budget."""

    def gen(i, budget_left):
        lo = part(prev, i + 1)
        hi = min(part(prev, i), budget_left)
        if lo > hi:
            return
        for v in range(hi, lo - 1, -1):
            if v == 0:
                yield ()
                continue
            if i >= max_len:
                if part(prev, i + 2) == 0:
                    yield (v,)
                continue
            for rest in gen(i + 1, budget_left - v):
                yield (v,) + rest

    if max_len == 0:
        if part(prev, 2) == 0:
            yield ()
        return
    # nu_j = 0 for j > max_len forces prev_{j+1} = 0 there
    if part(prev, max_len + 2) > 0:
        return
    yield from gen(1, budget)


def next_slices(prev, rel: str, max_len: int, budget: int) -> Iterator[tuple[int, ...]]:
    """Every slice nu that may follow prev across a step of relation rel
    (prev <= nu for PRECEQ, nu <= prev for SUCCEQ), with len(nu) <= max_len
    and |nu| <= budget, largest first part first."""
    if rel == PRECEQ:
        return _interlacing_above(prev, max_len, budget)
    return _interlacing_below(prev, max_len, budget)


def enumerate_rpps(lam, max_volume: int) -> Iterator[RPP]:
    """Every RPP of the shape with volume <= max_volume, exactly once,
    in lexicographic order of the reading word (rows bottom-up)."""
    lam = normalize(lam)
    if max_volume < 0:
        return iter(())
    if not lam:
        return iter((RPP((), ()),))
    geometry = shape_geometry(lam)
    pattern, cells = geometry.pattern, geometry.cells
    n = len(pattern) - 1

    found = []

    def extend(k, prev, chain, used):
        if k == n + 1:
            if pattern[n] == PRECEQ and prev != ():
                return
            rows = [[0] * p for p in lam]
            for slice_cells, sl in zip(cells, chain):
                for (r, c), v in zip(slice_cells, sl):
                    rows[r][c] = v
            rpp = RPP(lam, tuple(map(tuple, rows)))
            rpp.__dict__["chain"] = SliceSequence(pattern, ((), *chain, ()))
            found.append(rpp)
            return
        for nu in next_slices(prev, pattern[k - 1], len(cells[k - 1]),
                              max_volume - used):
            chain.append(nu)
            extend(k + 1, nu, chain, used + sum(nu))
            chain.pop()

    extend(1, (), [], 0)
    found.sort(key=RPP.reading_word)
    return iter(found)


def enumerate_pairs(lam, max_total_volume: int) -> Iterator[tuple[RPP, RPP]]:
    """Pairs (blue, red) of the same shape with total volume <= the bound,
    blue-major, each color in the order of `enumerate_rpps`."""
    fillings = list(enumerate_rpps(lam, max_total_volume))
    reds = {}  # spare volume -> the fillings within it, in the same order
    for blue in fillings:
        spare = max_total_volume - blue.volume
        if spare not in reds:
            reds[spare] = [red for red in fillings if red.volume <= spare]
        for red in reds[spare]:
            yield blue, red


# ---------------------------------------------------------------------------
# JSON encoding


def rpp_to_json(rpp: RPP) -> str:
    return json.dumps({"shape": list(rpp.shape),
                       "rows": [list(r) for r in rpp.rows]})


def rpp_from_json(text: str) -> RPP:
    data = json.loads(text)
    return validate(data["shape"], data["rows"])
