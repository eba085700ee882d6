"""Reverse plane partitions: validation, volume, slice bijection, enumeration.

A filling is stored as rows bottom-up, matching the shape.  Reading the
filling along vertical slices of the Russian-convention drawing (top cell of
each diagonal first) produces a chain of partitions interlacing according to
the hole/particle pattern of the shape's Maya diagram; that chain is the
bridge to the vertex model.
"""

from __future__ import annotations

import json
from functools import cached_property, lru_cache
from itertools import accumulate, count
from operator import attrgetter, ge, sub
from typing import Iterator, NamedTuple

from . import partitions
from .partitions import Cell, normalize

# Relation symbols for interlacing patterns: row k of the vertex model is
# white when pattern[k-1] == PRECEQ and gray when it is SUCCEQ.
PRECEQ = "<="
SUCCEQ = ">="


class _RPPFields(NamedTuple):
    shape: tuple[int, ...]
    rows: tuple[tuple[int, ...], ...]  # bottom-up


class RPP(_RPPFields):
    """A filling.  What is derived from it (its volume and slice chain
    here; its interface masks, weight, configuration, lozenge and role
    masks elsewhere) is computed on first use and kept in the instance
    dict.  Equality, hash and repr read only the two fields, so a kept
    datum never changes them."""

    @cached_property
    def chain(self) -> tuple[tuple[int, ...], ...]:
        """The slice chain, empty partitions at both ends; `_from_chain`
        hands over the one it built from."""
        return to_slices(self)

    def derived(self, name: str, build):
        """build(self), computed on the first call for `name` and kept."""
        memo = self.__dict__
        if name not in memo:
            memo[name] = build(self)
        return memo[name]

    @cached_property
    def volume(self) -> int:
        """The sum of the entries, unless `_from_chain` handed it over."""
        return sum(map(sum, self.rows))


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
    return from_diagonals(shape, ((),) * len(shape_geometry(shape).lengths))


class ShapeGeometry(NamedTuple):
    """What the package derives from a shape alone, and the one record that
    holds it: its pattern (PRECEQ at holes and SUCCEQ at particles of its
    Maya diagram, read over sites -len(shape) .. shape[0] - 1), the number
    of cells of diagonal k (lengths[k-1]) and the interface centres."""

    pattern: tuple[str, ...]
    lengths: tuple[int, ...]
    zetas: tuple[int, ...]


@lru_cache(maxsize=64)
def shape_geometry(shape: tuple[int, ...]) -> ShapeGeometry:
    """The geometry of a normalized shape, in one pass over its pattern; the
    64 most recently used shapes are kept.  zetas[k] counts the particles
    after interface k, and diagonal k holds the fewer of them and of the
    holes before it, k - depth + zetas[k]: these are fewer for k < depth."""
    if normalize(shape) != shape:
        raise ValueError(f"shape {shape} is not a normalized partition")
    depth = len(shape)
    mask = partitions.maya_mask(shape, depth)  # centred at depth, up to the highest bit
    digits = f"{mask:b}"[::-1] if mask else ""  # lowest bit first, in one pass
    pattern = tuple(SUCCEQ if d == "1" else PRECEQ for d in digits)
    zetas = tuple(accumulate(map(SUCCEQ.__eq__, pattern), sub, initial=depth))
    lengths = (*map(sub, zetas[1:depth], range(depth - 1, 0, -1)), *zetas[depth:-1])
    return ShapeGeometry(pattern, lengths, zetas)


def to_slices(rpp: RPP) -> tuple[tuple[int, ...], ...]:
    """Read the filling along vertical slices, top of each diagonal first:
    diagonal k, of column minus row j = k - depth, runs down from row zetas[k] - 1.
    The chain starts and ends with (); the empty shape's chain is ((),)."""
    geometry = shape_geometry(rpp.shape)
    if not geometry.pattern:
        return ((),)
    rows = rpp.rows
    slices = [()]
    for j, n, top in zip(count(1 - len(rpp.shape)), geometry.lengths, geometry.zetas[1:]):
        d = [rows[r][r + j] for r in range(top - 1, top - 1 - n, -1)]
        if not (all(map(ge, d, d[1:])) and d[-1] >= 0):
            raise ValueError(f"diagonal {d} of {rpp} is not a partition")
        slices.append(tuple(d[:n - d.count(0)]))  # trailing zeros dropped
    slices.append(())
    return tuple(slices)


def _from_chain(shape: tuple[int, ...], geometry: ShapeGeometry, chain, volume: int) -> RPP:
    """The filling of a normalized shape whose diagonal k holds chain[k], top
    first, keeping the chain and volume: the one place rows are built from a chain."""
    rows = [[0] * p for p in shape]
    for j, top, sl in zip(count(1 - len(shape)), geometry.zetas[1:], chain[1:]):
        r, c = top - 1, top - 1 + j
        for i, v in enumerate(sl):
            rows[r - i][c - i] = v
    rpp = RPP(shape, tuple(map(tuple, rows)))
    rpp.__dict__.update(chain=chain, volume=volume)
    return rpp


def check_diagonals(geometry: ShapeGeometry, slices) -> tuple:
    """The slice chain (), *slices, () of a shape's geometry, checked
    instead of its rows: it raises ValueError unless there is one slice
    per diagonal, each fits its diagonal, every part is a positive int (so
    no slice ends in 0), and every step lo <= hi of the pattern
    interlaces, hi_1 >= lo_1 >= hi_2 >= ...: row and column monotonicity
    stated on the chain."""
    if len(slices) != len(geometry.lengths):
        raise ValueError(f"expected {len(geometry.lengths)} slices, got {len(slices)}")
    if not all(type(v) is int and v > 0 for sl in slices for v in sl):
        raise ValueError(f"a part of {slices} is not a positive int")
    for k, (n, sl) in enumerate(zip(geometry.lengths, slices), start=1):
        if len(sl) > n:
            raise ValueError(f"slice {k} has {len(sl)} parts but the diagonal "
                             f"holds {n} cells")
    chain = ((), *slices, ()) if geometry.pattern else ((),)
    for rel, before, after in zip(geometry.pattern, chain, chain[1:]):
        lo, hi = (before, after) if rel == PRECEQ else (after, before)
        if (lo or hi) and not (len(lo) <= len(hi) <= len(lo) + 1
                               and all(map(ge, hi, lo)) and all(map(ge, lo, hi[1:]))):
            raise ValueError(f"slices {before} {rel} {after} do not interlace")
    return chain


def from_diagonals(shape: tuple[int, ...], slices) -> RPP:
    """The filling of a normalized shape whose diagonal k holds slices[k-1],
    top first: `_from_chain` on the chain `check_diagonals` accepts."""
    geometry = shape_geometry(shape)
    return _from_chain(shape, geometry, check_diagonals(geometry, slices),
                       sum(map(sum, slices)))


# ---------------------------------------------------------------------------
# Enumeration


def next_slices(prev, rel: str, max_len: int, budget: int) -> Iterator[tuple[int, ...]]:
    """Every slice nu that may follow prev across a step of relation rel
    (prev <= nu for PRECEQ, nu <= prev for SUCCEQ), with len(nu) <= max_len
    and |nu| <= budget, in descending lexicographic order: largest first
    part first.

    Part i of nu lies between a low and a high bound read off one tuple of
    the budget, prev's parts and zeros: prev_i and prev_(i-1) above prev,
    the first part capped only by the budget; prev_(i+1) and prev_i below
    it.  A part past max_len must be 0, which only a low bound of 0 allows."""
    # part i of nu lies between bounds[j + 1] and bounds[j], j = i - 1 + shift
    shift = 0 if rel == PRECEQ else 1
    stop = max_len + shift  # j of part max_len + 1
    bounds = (budget, *prev, *(0,) * (stop + 1 - len(prev)))
    if bounds[stop + 1] > 0:
        return iter(())
    return _fill(bounds, stop, shift, budget)


def _fill(bounds, stop: int, j: int, left: int) -> Iterator[tuple[int, ...]]:
    """The parts of a `next_slices` slice from the one at j on, at most
    `left` in sum."""
    if j == stop:  # reached only when max_len == 0
        yield ()
        return
    for v in range(min(bounds[j], left), bounds[j + 1] - 1, -1):
        if v == 0:
            yield ()
        elif j + 1 == stop:  # the parts after it are 0
            yield (v,)
        else:
            for rest in _fill(bounds, stop, j + 1, left - v):
                yield (v,) + rest


def walk(lam: tuple[int, ...], max_volume: int, root, moves) -> Iterator[tuple[tuple, int]]:
    """The leaves of a normalized shape's slice-chain tree within
    max_volume: the states along each leaf's path, root first, and its
    volume.  moves(k, state, spare) iterates (state, size) for each slice,
    of size at most spare, that may follow the one state ends in across
    row k: one of at most lengths[k-1] parts, or () on the last row,
    which is gray and closes the chain.  Depth-first on one explicit
    stack of the move iterators of every row but the last, whose moves
    are read at once as leaves: a tall shape costs no recursion."""
    if max_volume < 0:
        return
    rows = len(shape_geometry(lam).pattern)  # 0, or at least 2
    if not rows:
        yield (root,), 0
        return
    path, used = [root], [0]  # the states before the top iterator's, and their volumes
    stack = [moves(1, root, max_volume)]
    while stack:
        k = len(stack)  # the top iterator moves across row k
        for state, size in stack[-1]:
            volume = used[-1] + size
            if k < rows - 1:
                path.append(state)
                used.append(volume)
                stack.append(moves(k + 1, state, max_volume - volume))
                break
            for leaf, closing in moves(rows, state, max_volume - volume):
                yield (*path, state, leaf), volume + closing
        else:
            stack.pop()
            path.pop()
            used.pop()


def _sized(nu: tuple[int, ...]) -> tuple[tuple[int, ...], int]:
    return nu, sum(nu)


def slice_chains(lam, max_volume: int) -> Iterator[tuple[tuple, int]]:
    """The slice chain and volume of every RPP of the shape with volume
    <= max_volume, in the tree's order, without building one: `walk`
    with slices for states."""
    lam = normalize(lam)
    pattern, lengths, _ = shape_geometry(lam)

    def moves(k, mu, spare):
        if k > len(lengths):  # the last slice has one part, so () may follow
            return (((), 0),)
        return map(_sized, next_slices(mu, pattern[k - 1], lengths[k - 1], spare))

    return walk(lam, max_volume, (), moves)


def enumerate_rpps(lam, max_volume: int) -> Iterator[RPP]:
    """Every RPP of the shape with volume <= max_volume, exactly once,
    in lexicographic order of the reading word (rows bottom-up)."""
    lam = normalize(lam)
    geometry = shape_geometry(lam)
    found = [_from_chain(lam, geometry, chain, volume)
             for chain, volume in slice_chains(lam, max_volume)]
    # every filling has the shape's row lengths, so ordering by rows is
    # ordering by the reading word
    found.sort(key=attrgetter("rows"))
    return iter(found)


def enumerate_pairs(lam, max_total_volume: int) -> Iterator[tuple[RPP, RPP]]:
    """Pairs (blue, red) of the same shape with total volume <= the bound,
    blue-major, each color in the order of `enumerate_rpps`."""
    yield from pairs_within(list(enumerate_rpps(lam, max_total_volume)),
                            max_total_volume)


def pairs_within(fillings: list[RPP], max_total_volume: int) -> Iterator[tuple[RPP, RPP]]:
    """Pairs (blue, red) of the listed fillings with total volume <= the
    bound, blue-major, each color in the order of the list."""
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


def check_json_lists(data: dict, *keys: str) -> None:
    """Raise TypeError unless JSON read each data[key] as a list; called once
    a shape or rows pass, since an empty object or string iterates as none."""
    for key in keys:
        if type(data[key]) is not list:
            raise TypeError(f"{key} {data[key]!r} is not a list")


def rpp_from_json(text: str) -> RPP:
    return rpp_from_data(json.loads(text))


def rpp_from_data(data) -> RPP:
    """The filling {"shape": [...], "rows": [[...], ...]} as JSON reads it."""
    rpp = validate(data["shape"], data["rows"])
    check_json_lists(data, "shape", "rows")
    return rpp
