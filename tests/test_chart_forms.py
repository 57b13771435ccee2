import random
from fractions import Fraction

import pytest

from weil.chart_forms import ChartForm, PolyMap, compose, d, evaluate, pullback, wedge


def rand_poly(rng, m, max_degree=3, terms=2):
    p = {}
    for _ in range(terms):
        e = [0] * m
        for _ in range(rng.randint(0, max_degree)):
            e[rng.randrange(m)] += 1
        key = tuple(e)
        p[key] = p.get(key, Fraction(0)) + Fraction(rng.randint(-3, 3), rng.choice((1, 2)))
    return ChartForm.from_poly(m, p)


def rand_form(rng, m, degree, terms=2):
    out = ChartForm.zero(m)
    for _ in range(terms):
        idx = tuple(sorted(rng.sample(range(m), degree)))
        out = out + ChartForm.monomial(m, idx, rand_mono(rng, m),
                                       Fraction(rng.randint(-3, 3) or 1, rng.choice((1, 2))))
    return out


def rand_mono(rng, m, max_degree=3):
    e = [0] * m
    for _ in range(rng.randint(0, max_degree)):
        e[rng.randrange(m)] += 1
    return tuple(e)


def rand_map(rng, src, dst):
    return PolyMap(src, dst, [rand_poly(rng, src) for _ in range(dst)])


def test_wedge_examples():
    m = 3
    assert not wedge(ChartForm.dx(m, 0), ChartForm.dx(m, 0))
    got = wedge(ChartForm.dx(m, 1, ChartForm.x(m, 0)), ChartForm.dx(m, 2))
    assert got == ChartForm.monomial(m, (1, 2), (1, 0, 0))
    assert wedge(ChartForm.dx(m, 1), ChartForm.dx(m, 0)) == \
        ChartForm.monomial(m, (0, 1), (0, 0, 0), -1)


def test_d_examples():
    m = 3
    assert d(ChartForm.dx(m, 1, ChartForm.x(m, 0))) == ChartForm.monomial(m, (0, 1), (0, 0, 0))
    assert not d(ChartForm.dx(m, 0))
    x2y = ChartForm.x(m, 0) * ChartForm.x(m, 0) * ChartForm.x(m, 1)
    got = d(ChartForm.dx(m, 2, x2y))
    expected = ChartForm.monomial(m, (0, 2), (1, 1, 0), 2) + ChartForm.monomial(m, (1, 2), (2, 0, 0))
    assert got == expected


def test_pullback_examples():
    # phi(t) = (t, t^2): pullback of x dy = t d(t^2) = 2 t^2 dt
    phi = PolyMap(1, 2, [ChartForm.x(1, 0), ChartForm.x(1, 0) * ChartForm.x(1, 0)])
    a = ChartForm.dx(2, 1, ChartForm.x(2, 0))
    assert pullback(phi, a) == ChartForm.monomial(1, (0,), (2,), 2)
    # identity
    ident = PolyMap(3, 3, [ChartForm.x(3, i) for i in range(3)])
    rng = random.Random(31)
    for degree in (0, 1, 2):
        f = rand_form(rng, 3, degree)
        assert pullback(ident, f) == f
    # constant map kills positive degree
    const = PolyMap(2, 3, [ChartForm.constant(2, 1), ChartForm.constant(2, 2),
                           ChartForm.constant(2, 0)])
    assert not pullback(const, rand_form(rng, 3, 1))
    assert not pullback(const, rand_form(rng, 3, 2))


def test_pullback_dimension_mismatch():
    phi = PolyMap(1, 2, [ChartForm.x(1, 0), ChartForm.x(1, 0)])
    with pytest.raises(ValueError):
        pullback(phi, ChartForm.dx(3, 0))


def test_dd_zero_random():
    rng = random.Random(37)
    for _ in range(20):
        m = rng.randint(2, 5)
        f = rand_form(rng, m, rng.randint(0, m - 1))
        assert not d(d(f))


def test_pullback_commutes_with_d():
    rng = random.Random(41)
    for _ in range(15):
        src, dst = rng.randint(1, 3), rng.randint(2, 4)
        phi = rand_map(rng, src, dst)
        f = rand_form(rng, dst, rng.randint(0, min(src, dst - 1)))
        assert pullback(phi, d(f)) == d(pullback(phi, f))


def test_pullback_contravariant():
    rng = random.Random(43)
    for _ in range(10):
        a, b, c = rng.randint(1, 3), rng.randint(1, 3), rng.randint(2, 4)
        psi = rand_map(rng, a, b)   # psi: R^a -> R^b
        phi = rand_map(rng, b, c)   # phi: R^b -> R^c
        f = rand_form(rng, c, rng.randint(0, 1))
        assert pullback(compose(phi, psi), f) == pullback(psi, pullback(phi, f))


def test_evaluate_polynomials():
    x, y = ChartForm.x(2, 0), ChartForm.x(2, 1)
    p = x * x * y - ChartForm.constant(2, Fraction(3, 2)) + y.scale(2)
    t = Fraction(-1, 3)
    assert evaluate(p, (Fraction(2), t)) == 4 * t - Fraction(3, 2) + 2 * t
    assert evaluate(ChartForm.zero(2), (Fraction(1), Fraction(1))) == 0
    assert PolyMap(2, 2, [x * y, x + y])((Fraction(3), Fraction(-2))) == (-6, 1)
    with pytest.raises(ValueError):
        evaluate(ChartForm.dx(2, 0), (Fraction(1), Fraction(1)))
    with pytest.raises(ValueError):
        PolyMap(2, 1, [ChartForm.dx(2, 0)])
    with pytest.raises(IndexError):
        ChartForm.x(2, 2)


def product_evaluate(form, point):
    """The previous evaluation, kept as the oracle: repeated Fraction products."""
    total = Fraction(0)
    for (mask, e), c in form.terms.items():
        assert not mask
        for x, k in zip(point, e):
            for _ in range(k):
                c *= x
        total += c
    return total


def test_evaluate_matches_repeated_products():
    rng = random.Random(131)
    for _ in range(60):
        m = rng.randint(1, 4)
        # empty and constant forms (every largest exponent 0) among them
        form = rand_poly(rng, m, max_degree=rng.choice((0, 3, 5)), terms=rng.randint(0, 4))
        point = tuple(rng.choice((rng.randint(-3, 3),
                                  Fraction(rng.randint(-5, 5), rng.randint(1, 4))))
                      for _ in range(m))
        got = evaluate(form, point)
        assert type(got) is Fraction and got == product_evaluate(form, point)
    assert evaluate(ChartForm.zero(3), (1, 2, 3)) == 0
    assert evaluate(ChartForm.constant(2, Fraction(-5, 6)), (Fraction(1, 7), 2)) == Fraction(-5, 6)


def test_graded_commutativity():
    rng = random.Random(47)
    for _ in range(10):
        m = 4
        da, db = rng.randint(0, 2), rng.randint(0, 2)
        a, b = rand_form(rng, m, da), rand_form(rng, m, db)
        sign = -1 if (da % 2) and (db % 2) else 1
        assert wedge(a, b) == wedge(b, a).scale(sign)
