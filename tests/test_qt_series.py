import random

import pytest

from coupledrpp import partitions as P
from coupledrpp.qt_series import QTSeries, hook_count, hook_product
from oracles import geometric_inverse, one, product


def series(trunc, terms):
    return QTSeries(trunc, {(n, k): c for n, k, c in terms})


def test_mul_examples():
    a = series(2, [(0, 0, 1), (1, 0, 1)])               # 1 + q
    assert product(a, a).terms() == [(0, 0, 1), (1, 0, 2), (2, 0, 1)]
    assert product(a, one(2)) == a
    qt = series(2, [(0, 0, 1), (1, 1, 1)])              # 1 + q t
    assert product(qt, qt).terms() == [(0, 0, 1), (1, 1, 2), (2, 2, 1)]


def test_mul_truncation_mismatch():
    with pytest.raises(ValueError):
        product(one(3), one(4))


def test_constructor_rejects_bad_terms():
    with pytest.raises(ValueError):
        QTSeries(3, {(0, 0): -1})
    with pytest.raises(ValueError):
        QTSeries(3, {(-1, 0): 1})
    # over-truncation terms are silently dropped
    assert QTSeries(2, {(5, 0): 7}).terms() == []


def random_series(rng, trunc):
    coeffs = {}
    for _ in range(rng.randrange(1, 6)):
        coeffs[(rng.randrange(trunc + 1), rng.randrange(3))] = rng.randrange(1, 9)
    return QTSeries(trunc, coeffs)


def test_mul_commutative_associative():
    rng = random.Random(20240811)
    for _ in range(60):
        a, b, c = (random_series(rng, 6) for _ in range(3))
        assert product(a, b) == product(b, a)
        assert product(product(a, b), c) == product(a, product(b, c))


def test_geometric_inverse_examples():
    assert geometric_inverse(1, 0, 3).terms() == [(0, 0, 1), (1, 0, 1), (2, 0, 1), (3, 0, 1)]
    assert geometric_inverse(3, 1, 7).terms() == [(0, 0, 1), (3, 1, 1), (6, 2, 1)]
    assert geometric_inverse(2, 0, 5).terms() == [(0, 0, 1), (2, 0, 1), (4, 0, 1)]
    with pytest.raises(ValueError):
        geometric_inverse(0, 0, 4)


def test_hook_product_single_examples():
    assert hook_product((1,), 4, 1).terms() == [(n, 0, 1) for n in range(5)]
    # (2,1) has hooks {3,1,1}: expand 1/((1-q)^2 (1-q^3)) by convolution
    want = product(product(geometric_inverse(1, 0, 6), geometric_inverse(1, 0, 6)),
                   geometric_inverse(3, 0, 6))
    assert hook_product((2, 1), 6, 1) == want
    assert hook_product((), 9, 1) == one(9)


def test_hook_product_pair_examples():
    assert hook_product((), 5, 2) == one(5)
    want = product(geometric_inverse(1, 0, 2), geometric_inverse(1, 1, 2))
    assert hook_product((1,), 2, 2) == want
    assert hook_product((1,), 2, 2).t_zero_slice().terms() == \
        [(0, 0, 1), (1, 0, 1), (2, 0, 1)]


def test_hook_products_equal_the_products_of_geometric_series():
    # the in-place division against the product of truncated expansions
    for lam in P.all_partitions(5):
        single = pair = one(10)
        for h in P.hook_lengths(lam):
            single = product(single, geometric_inverse(h, 0, 10))
            pair = product(product(pair, geometric_inverse(h, 0, 10)),
                           geometric_inverse(h, 1, 10))
        assert hook_product(lam, 10, 1) == single, lam
        assert hook_product(lam, 10, 2) == pair, lam


def test_hook_product_single_keeps_one_coefficient_per_q_degree():
    # no t-degrees stored in single mode: 10^5 + 1 terms in linear space
    series = hook_product((1,), 10 ** 5, 1)
    assert series.terms() == [(n, 0, 1) for n in range(10 ** 5 + 1)]


def test_hook_count_is_the_product_at_t_one():
    for lam in P.all_partitions(5):
        for n in (0, 3, 7):
            assert hook_count(lam, n) == sum(hook_product(lam, n, 1).q_coefficients())
            assert hook_count(lam, n, 2) == sum(hook_product(lam, n, 2).q_coefficients())
    assert hook_count((3, 2, 1), 8, 2) == 5307
    assert hook_count((), 10 ** 9, 2) == 1  # no series built for the empty shape


def test_pair_t_zero_slice_is_single_product():
    for lam in P.all_partitions(6):
        assert hook_product(lam, 8, 2).t_zero_slice() == hook_product(lam, 8, 1)


def test_series_do_not_hash():
    # add_term changes a series in place, so equal series may not stay equal
    with pytest.raises(TypeError, match="unhashable"):
        hash(one(3))


def test_repr_is_readable():
    assert repr(one(3)) == "1"
    assert repr(series(3, [(1, 1, 2), (0, 0, 1)])) == "1 + 2*q*t"
