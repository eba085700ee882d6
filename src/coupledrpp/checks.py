"""The acceptance checks behind `verify-all`, one function per criterion.

Each check returns {"name", "passed", "details"}; the CLI prints one line
per check and the test suite asserts each one individually.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Iterable

from . import coupling, partitions, rpp_core, sliding, vertex_model
from .coupling import make_pair
from .qt_series import QTSeries, hook_product
from .vertex_model import GRAY, Monomial, WHITE


def _report(name, passed, **details):
    return {"name": name, "passed": bool(passed), "details": details}


GENFUN_SHAPES = [(1,), (2,), (1, 1), (2, 1), (3, 1), (2, 2), (3, 2, 1)]
PAIR_SHAPES = [(1,), (2,), (1, 1), (2, 1), (2, 2)]
SLIDE_SHAPES = [(2, 2), (3, 1), (4, 4, 3, 3, 1)]

# Criterion 4 checks single fillings of the shapes of size <= 5 at volume
# <= 8, and pairs of the nonempty shapes of size <= 4 (the pair shapes);
# criteria 6 and 7 check pairs too.  PAIR_MAX_VOLUME bounds every pair's
# total volume.
SINGLE_MAX_SIZE, SINGLE_MAX_VOLUME = 5, 8
PAIR_MAX_SIZE, PAIR_MAX_VOLUME = 4, 6


class _Pool:
    """What criteria 4, 6 and 7 share: within one `run_all`, or within
    one of them called on its own."""

    def __init__(self):
        self.fillings = {}  # shape -> (bound, its fillings of volume <= bound)
        self.pairs = {}     # shape -> its pairs, kept by criterion 4


# The open pool; None outside `run_all` and the criteria that share it.
_pool: _Pool | None = None


@contextmanager
def _pooled():
    """Open a pool for the block, unless one is open, and drop it after."""
    global _pool
    if _pool is not None:
        yield
        return
    _pool = _Pool()
    try:
        yield
    finally:
        _pool = None


def _pair_shapes() -> list[tuple[int, ...]]:
    return [lam for lam in partitions.all_partitions(PAIR_MAX_SIZE) if lam]


def _fillings(lam, bound: int) -> list[rpp_core.RPP]:
    """The fillings of lam with volume <= bound, in enumeration order.  A
    pool enumerates a shape once, at the first bound asked of it, and a
    smaller bound filters that list."""
    kept = _pool.fillings.get(lam)
    if kept is None or kept[0] < bound:
        kept = _pool.fillings[lam] = (bound, list(rpp_core.enumerate_rpps(lam, bound)))
    return kept[1] if kept[0] == bound else [rpp for rpp in kept[1] if rpp.volume <= bound]


def _pairs(lam) -> Iterable[coupling.PairRPP]:
    """The pairs of lam's fillings with total volume <= PAIR_MAX_VOLUME,
    blue-major: the pool's list once criterion 4 has kept one, each pair
    with its weight and g, and otherwise made one at a time."""
    kept = _pool.pairs.get(lam)
    if kept is not None:
        return kept
    return (make_pair(blue, red) for blue, red in rpp_core.pairs_within(
        _fillings(lam, PAIR_MAX_VOLUME), PAIR_MAX_VOLUME))


def check_single_genfun(trunc=10) -> dict:
    """Brute-force volume counts match the hook-length product."""
    bad = []
    for lam in GENFUN_SHAPES:
        counts = QTSeries(trunc)
        for rpp in rpp_core.enumerate_rpps(lam, trunc):
            counts.add_term(rpp.volume, 0)
        if counts != hook_product(lam, trunc, 1):
            bad.append(list(lam))
    return _report("single-genfun", not bad, shapes=len(GENFUN_SHAPES),
                   trunc=trunc, mismatched=bad)


def check_pair_genfun(trunc=8) -> dict:
    """The q,t generating function of pairs by brute force, by the
    row-transfer engine and by the paired hook product: all three agree."""
    bad = []
    for lam in PAIR_SHAPES:
        if not (coupling.pair_genfun_bruteforce(lam, trunc)
                == coupling.pair_genfun_transfer(lam, trunc)
                == hook_product(lam, trunc, 2)):
            bad.append(list(lam))
    return _report("pair-genfun", not bad, shapes=len(PAIR_SHAPES),
                   trunc=trunc, mismatched=bad)


def check_ybe() -> dict:
    """Exhaustive one-color (64 boundaries) and colored (4096) YBE sweeps."""
    reports = [vertex_model.verify_ybe(vertex_model.WHITE_WHITE, 1),
               vertex_model.verify_ybe(vertex_model.WHITE_GRAY, 1),
               vertex_model.verify_ybe(vertex_model.WHITE_GRAY, 2)]
    violations = sum(len(r["violations"]) for r in reports)
    return _report("yang-baxter", violations == 0,
                   checked=sum(r["checked"] for r in reports),
                   violations=violations)


@_pooled()
def check_weight_bijections() -> dict:
    """w(C) A = q^vol for single fillings; the q,t version for pairs."""
    bad = 0
    tested = 0
    for lam in partitions.all_partitions(SINGLE_MAX_SIZE):
        A = vertex_model.A_lambda(lam)
        # the pair shapes' fillings are kept for the pair checks
        singles = (_fillings(lam, SINGLE_MAX_VOLUME) if 0 < sum(lam) <= PAIR_MAX_SIZE
                   else rpp_core.enumerate_rpps(lam, SINGLE_MAX_VOLUME))
        for rpp in singles:
            tested += 1
            if vertex_model.config_weight_q(lam, rpp) * A != Monomial(rpp.volume):
                bad += 1
    pair_tested = 0
    for lam in _pair_shapes():
        A2 = vertex_model.A_lambda(lam) ** 2
        triv = coupling.trivial_t_exponent(lam)
        # kept for criteria 6 and 7
        pairs = _pool.pairs[lam] = list(_pairs(lam))
        for pair in pairs:
            pair_tested += 1
            w = coupling.pair_config_weight(pair) * A2
            want = Monomial(pair.blue.volume + pair.red.volume,
                            coupling.g_via_lozenges(pair) + triv)
            if w != want:
                bad += 1
    return _report("weight-bijections", bad == 0,
                   singles=tested, pairs=pair_tested, failures=bad)


def check_worked_values() -> dict:
    """Row weights, configuration weight, g, and the hook table of the
    worked examples, at exact rational sample points."""
    from fractions import Fraction
    x, t = Fraction(3, 5), Fraction(2, 7)
    failures = []

    def expect(label, got, want):
        if got != want:
            failures.append({"label": label, "got": str(got), "want": str(want)})

    expect("white-row", vertex_model.row_weight_explicit(
        WHITE, ((1, 1),), ((3, 1, 1),), x, ell=3, window=12), x ** 3)
    expect("gray-row", vertex_model.row_weight_explicit(
        GRAY, ((3, 1, 1),), ((2, 1),), x, ell=4, window=12), x ** 6)
    expect("colored-white-row", vertex_model.row_weight_explicit(
        WHITE, ((2, 1), (1,)), ((4, 2), (4, 1)), x, ell=2, window=10, t=t),
        x ** 7 * t ** 3)
    expect("colored-gray-row", vertex_model.row_weight_explicit(
        GRAY, ((3, 1, 1), (2, 1)), ((1, 1), (1, 1)), x, ell=2, window=10, t=t),
        x ** 8 * t ** 3)

    # configuration weight of the shape-(4,3,1) example: along the chain
    # () <= (3) >= (1) <= (1) <= (4,1) >= (3) <= (4) >= () the closed row
    # weights force the x-degree profile x1^3 x2^4 x4^4 x5^3 x6 x7^4
    ex = rpp_core.validate((4, 3, 1), [[0, 1, 3, 4], [1, 1, 4], [3]])
    config = vertex_model.rpp_to_config((4, 3, 1), ex)
    profile = []
    for k, row in enumerate(config.states, start=1):
        weigh = (vertex_model.white_weight if config.kind(k) == WHITE
                 else vertex_model.gray_weight)
        profile.append(sum(1 for v in row if weigh((v,), Fraction(2)) == Fraction(2)))
    expect("config-row-profile", tuple(profile), (3, 4, 0, 4, 3, 1, 4))
    expect("config-weight-identity",
           vertex_model.config_weight_q((4, 3, 1), ex) * vertex_model.A_lambda((4, 3, 1)),
           Monomial(ex.volume))

    blue = rpp_core.validate((3, 2, 1), [[0, 1, 1], [1, 3], [2]])
    red = rpp_core.validate((3, 2, 1), [[1, 2, 3], [1, 2], [2]])
    expect("g-worked-pair", coupling.g_via_lozenges(make_pair(blue, red)), 6)

    expect("hook-table", partitions.hook_table((4, 3, 1)),
           [[6, 4, 3, 1], [4, 2, 1], [1]])
    return _report("worked-values", not failures, failures=failures)


@_pooled()
def check_g_oracles() -> dict:
    """The vertex t-degree and the lozenge count never disagree."""
    tested = 0
    bad = 0
    for lam in _pair_shapes():
        for pair in _pairs(lam):
            tested += 1
            if coupling.g_via_vertex(pair) != coupling.g_via_lozenges(pair):
                bad += 1
    return _report("g-oracles", bad == 0, pairs=tested, discrepancies=bad)


@_pooled()
def check_sliding() -> dict:
    """The worked sliding example, mutual inversion, and per-volume counts."""
    failures = []
    blue = rpp_core.validate((4, 4, 3, 3, 1),
                             [[0, 0, 0, 0], [0, 0, 0, 1], [0, 0, 2], [0, 1, 4], [0]])
    red = rpp_core.validate((4, 4, 3, 3, 1),
                            [[0, 0, 0, 3], [0, 0, 2, 4], [0, 1, 4], [2, 4, 4], [3]])
    want = rpp_core.validate((4, 4, 3, 3, 1),
                             [[0, 0, 1, 3], [1, 2, 2, 4], [1, 4, 4], [2, 4, 4], [3]])
    pair = make_pair(blue, red)
    if sliding.slide(pair) != want:
        failures.append("worked-slide")
    if sliding.unslide(want) != pair:
        failures.append("worked-unslide")

    for lam in SLIDE_SHAPES:
        fillings = _fillings(lam, PAIR_MAX_VOLUME)
        _, failure = sliding.round_trips(
            fillings, rpp_core.pairs_within(fillings, PAIR_MAX_VOLUME))
        if failure is not None:
            way = "unslide-slide" if isinstance(failure, rpp_core.RPP) else "slide-unslide"
            failures.append(f"{way} {lam}")

    counting = sliding.verify_t0_counting((2, 2), 8, _fillings((2, 2), 8))
    if not counting["passed"]:
        failures.append("counting (2,2)")
    return _report("sliding", not failures, failures=failures)


def check_internal_consistency() -> dict:
    """Published gray table vs its factorization, the gray/white change of
    variable, and the t = 1 degeneration of the colored tables."""
    from fractions import Fraction
    failures = []
    states = vertex_model.ALLOWED_STATES
    samples = [(Fraction(3, 5), Fraction(2, 7)), (Fraction(1, 2), Fraction(1, 3)),
               (Fraction(7, 4), Fraction(5, 9))]
    for vb in states:
        for vr in states:
            xe, te = vertex_model.GRAY_TABLE_VERBATIM[(vb, vr)]
            for x, t in samples:
                if vertex_model.gray_weight((vb, vr), x, t) != x ** xe * t ** te:
                    failures.append(f"gray-table {vb} {vr}")
    x = Fraction(5, 8)
    for v in states:
        if vertex_model.gray_weight((v,), x) != x * vertex_model.white_weight((v,), 1 / x):
            failures.append(f"gray-from-white {v}")
    x = Fraction(4, 9)
    for vb in states:
        for vr in states:
            if vertex_model.white_weight((vb, vr), x, Fraction(1)) != \
                    vertex_model.white_weight((vb,), x) * vertex_model.white_weight((vr,), x):
                failures.append(f"t1-white {vb} {vr}")
            if vertex_model.gray_weight((vb, vr), x, Fraction(1)) != \
                    vertex_model.gray_weight((vb,), x) * vertex_model.gray_weight((vr,), x):
                failures.append(f"t1-gray {vb} {vr}")
    return _report("internal-consistency", not failures, failures=failures)


ALL_CHECKS = [
    ("1", check_single_genfun),
    ("2", check_pair_genfun),
    ("3", check_ybe),
    ("4", check_weight_bijections),
    ("5", check_worked_values),
    ("6", check_g_oracles),
    ("7", check_sliding),
    ("8", check_internal_consistency),
]


def run_all(budget_seconds: float | None = None) -> dict:
    """Run every acceptance check; stop early if the budget runs out."""
    started = time.monotonic()
    results = []
    skipped = []
    with _pooled():
        for number, fn in ALL_CHECKS:
            if budget_seconds is not None and time.monotonic() - started > budget_seconds:
                skipped.append(number)
                continue
            t0 = time.monotonic()
            rep = fn()
            rep["criterion"] = number
            rep["elapsed"] = round(time.monotonic() - t0, 3)
            results.append(rep)
    passed = all(r["passed"] for r in results) and not skipped
    return {"command": "verify-all", "status": "pass" if passed else "fail",
            "elapsed": round(time.monotonic() - started, 3),
            "results": results, "skipped": skipped}
