import random
from fractions import Fraction

import pytest

from weil import chern_weil, linalg
from weil.chart_forms import ChartForm, PolyMap, d, pullback, wedge
from weil.chern_weil import (LieValuedForm, _form_mat_mul, _lie_valued_to_matrix,
                             _matrix_to_lie_valued, builtin_rep, conjugate,
                             constant_gauge, curvature, cw_form,
                             gauge_transform, make_rep, pullback_connection,
                             quaternion_matrix, unipotent_gauge,
                             weil_to_chart)
from weil.invariant_polynomials import invariant_basis
from weil.liealg import builtin, check_representation, from_brackets, validate
from weil.weil_algebra import WeilElement, curvature_generator, multiply

SU2 = builtin("su2")
AB1 = builtin("abelian(1)")
H3 = builtin("heisenberg3")


def casimir():
    out = WeilElement.zero(3)
    for i in range(3):
        out = out + multiply(WeilElement.lamt(3, i), WeilElement.lamt(3, i))
    return out


def rand_connection(rng, L, m, max_degree=2):
    comps = []
    for _ in range(L.dim):
        form = ChartForm.zero(m)
        for _ in range(rng.randint(1, 2)):
            e = [0] * m
            for _ in range(rng.randint(0, max_degree)):
                e[rng.randrange(m)] += 1
            form = form + ChartForm.monomial(m, (rng.randrange(m),), e,
                                             Fraction(rng.randint(-2, 2) or 1))
        comps.append(form)
    return LieValuedForm(L, m, comps)


# -- curvature ------------------------------------------------------------


def test_curvature_abelian():
    A = LieValuedForm(AB1, 2, [ChartForm.dx(2, 1, ChartForm.x(2, 0))])
    F = curvature(A)
    assert F.components[0] == ChartForm.monomial(2, (0, 1), (0, 0))


def test_curvature_takes_one_d_per_component(monkeypatch):
    calls = []
    monkeypatch.setattr(chern_weil, "d", lambda form: calls.append(form) or d(form))
    rng = random.Random(83)
    for L in (AB1, SU2, H3, builtin("sl2")):
        A = rand_connection(rng, L, 4)
        calls.clear()
        curvature(A)
        assert calls == A.components


def test_curvature_su2_example():
    m = 3
    A = LieValuedForm(SU2, m, [ChartForm.dx(m, 1, ChartForm.x(m, 0)),
                               ChartForm.dx(m, 2, ChartForm.x(m, 1)),
                               ChartForm.zero(m)])
    F = curvature(A)
    assert F.components[0] == ChartForm.monomial(m, (0, 1), (0, 0, 0))
    assert F.components[1] == ChartForm.monomial(m, (1, 2), (0, 0, 0))
    assert F.components[2] == ChartForm.monomial(m, (1, 2), (1, 1, 0))


def test_curvature_zero_connection():
    A = LieValuedForm.zero(SU2, 3)
    assert curvature(A) == LieValuedForm.zero(SU2, 3)


def test_curvature_needs_one_form():
    A = LieValuedForm(SU2, 3, [ChartForm.monomial(3, (0, 1), (0, 0, 0)),
                               ChartForm.zero(3), ChartForm.zero(3)])
    with pytest.raises(ValueError):
        curvature(A)


# -- Chern-Weil forms -------------------------------------------------------


def test_cw_first_chern_style():
    A = LieValuedForm(AB1, 2, [ChartForm.dx(2, 1, ChartForm.x(2, 0))])
    assert cw_form(WeilElement.lamt(1, 0), A) == curvature(A).components[0]


def test_cw_abelian_square():
    A = LieValuedForm(AB1, 4, [ChartForm.dx(4, 1, ChartForm.x(4, 0))
                               + ChartForm.dx(4, 3, ChartForm.x(4, 2))])
    P = multiply(WeilElement.lamt(1, 0), WeilElement.lamt(1, 0))
    assert cw_form(P, A) == ChartForm.monomial(4, (0, 1, 2, 3), (0,) * 4, 2)


def test_cw_su2_casimir_example():
    A = LieValuedForm(SU2, 4, [
        ChartForm.dx(4, 1, ChartForm.x(4, 0)) + ChartForm.dx(4, 3, ChartForm.x(4, 2)),
        ChartForm.dx(4, 2, ChartForm.x(4, 1)),
        ChartForm.zero(4)])
    assert cw_form(casimir(), A) == ChartForm.monomial(4, (0, 1, 2, 3), (0,) * 4, 2)


def test_cw_rejects_bad_inputs():
    A = LieValuedForm.zero(SU2, 3)
    with pytest.raises(ValueError):
        cw_form(WeilElement.lam(3, 0), A)  # exterior part
    with pytest.raises(ValueError):
        cw_form(WeilElement.lamt(3, 0) + casimir(), A)  # inhomogeneous


def test_cw_closed_and_natural_random():
    rng = random.Random(53)
    for L, P in ((AB1, WeilElement.lamt(1, 0)), (SU2, casimir()),
                 (H3, invariant_basis(H3, 1)[0])):
        for _ in range(3):
            m = rng.choice((3, 4))
            A = rand_connection(rng, L, m)
            cw = cw_form(P, A)
            assert not d(cw)
            phi = PolyMap(3, m, [ChartForm.from_poly(3, {
                tuple(1 if i == j else 0 for i in range(3)): Fraction(1),
                (1, 1, 0): Fraction(rng.randint(-2, 2))}) for j in range(m)])
            assert pullback(phi, cw) == cw_form(P, pullback_connection(phi, A))


# -- gauge transformations ----------------------------------------------------


def test_gauge_abelian_maurer_cartan():
    # g realized as [[1, xy], [0, 1]]: A -> A + d(xy) = A + y dx + x dy
    rep = builtin_rep("abelian(1)")
    g = unipotent_gauge(rep, {(0, 1): ChartForm.x(2, 0) * ChartForm.x(2, 1)}, 2)
    A = LieValuedForm(AB1, 2, [ChartForm.dx(2, 0)])
    moved = gauge_transform(A, g)
    expected = ChartForm.dx(2, 0) + ChartForm.monomial(2, (0,), (0, 1)) \
        + ChartForm.monomial(2, (1,), (1, 0))
    assert moved.components[0] == expected


def test_gauge_unipotent_of_zero_is_maurer_cartan_term():
    rep = builtin_rep("abelian(1)")
    g = unipotent_gauge(rep, {(0, 1): ChartForm.x(2, 0)}, 2)
    moved = gauge_transform(LieValuedForm.zero(AB1, 2), g)
    assert moved.components[0] == ChartForm.dx(2, 0)


def test_gauge_constant_is_conjugation():
    rng = random.Random(59)
    rep = builtin_rep("su2")
    A = rand_connection(rng, SU2, 3)
    g = constant_gauge(rep, quaternion_matrix(2, 1, -1, 3), 3)
    assert gauge_transform(A, g) == conjugate(g, A)


def test_gauge_invariance_and_curvature_covariance():
    rng = random.Random(61)
    rep = builtin_rep("su2")
    for _ in range(3):
        A = rand_connection(rng, SU2, 4)
        g = constant_gauge(rep, quaternion_matrix(rng.randint(1, 3), rng.randint(-2, 2),
                                                  rng.randint(-2, 2), rng.randint(-2, 2)), 4)
        moved = gauge_transform(A, g)
        assert cw_form(casimir(), moved) == cw_form(casimir(), A)
        assert curvature(moved) == conjugate(g, curvature(A))


def wedge_mat_mul(A, B):
    """The previous matrix product, kept as the oracle: one wedge per (i, k, j), added."""
    r = len(A)
    out = []
    for i in range(r):
        row = []
        for j in range(r):
            acc = wedge(A[i][0], B[0][j])
            for k in range(1, r):
                acc = acc + wedge(A[i][k], B[k][j])
            row.append(acc)
        out.append(row)
    return out


def summed_gauge_transform(A, g):
    """The previous gauge action g^-1 dg + g^-1 A g, three wedge-and-add matrix products."""
    maurer = wedge_mat_mul(g.inverse, [[d(p) for p in row] for row in g.entries])
    conj = wedge_mat_mul(wedge_mat_mul(g.inverse, _lie_valued_to_matrix(A, g.rep)), g.entries)
    total = [[a + b for a, b in zip(ra, rb)] for ra, rb in zip(maurer, conj)]
    return _matrix_to_lie_valued(total, g.rep, A.algebra, A.chart_dim)


def test_form_mat_mul_matches_wedge_sums():
    rng = random.Random(73)

    def entry(m):
        # a zero entry, or a sum of 0-, 1- and 2-form terms with Fraction coefficients
        form = ChartForm.zero(m)
        for _ in range(rng.choice((0, 1, 2, 3))):
            e = [0] * m
            for _ in range(rng.randint(0, 2)):
                e[rng.randrange(m)] += 1
            form = form + ChartForm.monomial(m, rng.sample(range(m), rng.randint(0, 2)), e,
                                             Fraction(rng.randint(-3, 3), rng.randint(1, 4)))
        return form

    for r in (1, 1, 2, 3, 4, 4):
        m = rng.randint(2, 4)
        A = [[entry(m) for _ in range(r)] for _ in range(r)]
        B = [[entry(m) for _ in range(r)] for _ in range(r)]
        got = _form_mat_mul(A, B)
        assert got == wedge_mat_mul(A, B)
        assert all(type(c) is Fraction for row in got for form in row for c in form.terms.values())
    zero = [[ChartForm.zero(2)] * 4 for _ in range(4)]
    assert _form_mat_mul(zero, zero) == zero


def test_gauge_transform_takes_two_matrix_products(monkeypatch):
    # g^-1 (dg + A g): 2 matrix products, against 3 for the summed form
    rng = random.Random(71)
    x = ChartForm.x(3, 0)
    cases = [(rand_connection(rng, SU2, 3),
              constant_gauge(builtin_rep("su2"), quaternion_matrix(2, 1, -1, 3), 3)),
             (rand_connection(rng, H3, 3),
              unipotent_gauge(builtin_rep("heisenberg3"), {(0, 1): x, (1, 2): x * x}, 3))]
    for A, g in cases:
        calls = []
        monkeypatch.setattr(chern_weil, "_form_mat_mul",
                            lambda a, b: calls.append(1) or _form_mat_mul(a, b))
        moved = gauge_transform(A, g)
        monkeypatch.undo()
        assert len(calls) == 2
        assert moved == summed_gauge_transform(A, g)


def test_gauge_heisenberg_unipotent_invariance():
    rng = random.Random(67)
    rep = builtin_rep("heisenberg3")
    P = invariant_basis(H3, 1)[0]
    for _ in range(3):
        A = rand_connection(rng, H3, 3)
        g = unipotent_gauge(rep, {(0, 1): ChartForm.x(3, 0),
                                  (1, 2): ChartForm.x(3, 1) * ChartForm.x(3, 1),
                                  (0, 2): ChartForm.x(3, 2)}, 3)
        assert cw_form(P, gauge_transform(A, g)) == cw_form(P, A)


def test_constant_gauge_must_be_invertible():
    rep = builtin_rep("sl2")
    with pytest.raises(ValueError):
        constant_gauge(rep, [[1, 0], [0, 0]], 2)


def test_gauge_inverse_is_an_inverse():
    x, y = ChartForm.x(2, 0), ChartForm.x(2, 1)
    h3 = builtin_rep("heisenberg3")
    gauges = [constant_gauge(builtin_rep("su2"), quaternion_matrix(2, 1, -1, 3), 2),
              constant_gauge(h3, [[1, 2, -1], [0, 1, 3], [0, 0, 1]], 2),
              unipotent_gauge(h3, {(0, 1): x, (1, 2): x * y, (0, 2): y - ChartForm.constant(2)}, 2)]
    for g in gauges:
        r = g.rep.size
        identity = [[ChartForm.constant(2, int(i == j)) for j in range(r)] for i in range(r)]
        assert _form_mat_mul(g.inverse, g.entries) == identity
        assert _form_mat_mul(g.entries, g.inverse) == identity


def test_unipotent_gauge_entries_must_be_0_forms():
    with pytest.raises(ValueError):
        unipotent_gauge(builtin_rep("abelian(1)"), {(0, 1): ChartForm.dx(2, 0)}, 2)


def test_gauge_outside_representation_image_fails():
    # conjugating su2 by a generic constant matrix leaves the realified su2
    rep = builtin_rep("su2")
    bad = [[1, 1, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]
    g = constant_gauge(rep, bad, 3)
    A = LieValuedForm(SU2, 3, [ChartForm.dx(3, 0), ChartForm.zero(3), ChartForm.zero(3)])
    with pytest.raises(ValueError):
        gauge_transform(A, g)


def test_bad_representation_rejected():
    with pytest.raises(ValueError):
        make_rep(SU2, [[[0, 1], [0, 0]], [[0, 0], [1, 0]], [[1, 0], [0, 1]]])


def test_builtin_reps_validate():
    for name in ("abelian(1)", "heisenberg3", "sl2", "so3", "su2"):
        rep = builtin_rep(name)
        check_representation(rep.algebra, rep.mats)


def test_builtin_rep_flat_columns_are_independent():
    # _matrix_to_lie_valued reads algebra coordinates off these columns;
    # independence makes them unique
    for name in ("abelian(1)", "heisenberg3", "sl2", "so3", "su2"):
        rep = builtin_rep(name)
        assert linalg.rank(rep.flat_columns()) == rep.algebra.dim, name


# -- Weil algebra bridge --------------------------------------------------------


def unfolded_curvature(A):
    """dA^k + 1/2 sum_{i,j} f^k_ij A^i A^j over all ordered pairs (i, j)."""
    L, comps = A.algebra, A.components
    out = []
    for k in range(L.dim):
        Fk = d(comps[k])
        for i in range(L.dim):
            for j in range(L.dim):
                if L.f(i, j, k):
                    Fk = Fk + wedge(comps[i], comps[j]).scale(L.f(i, j, k) / 2)
        out.append(Fk)
    return out


def test_universal_substitution_reproduces_curvature():
    rng = random.Random(71)
    a, b, c, e = (rng.randint(-2, 2) or 1 for _ in range(4))
    seeded = from_brackets(3, {(0, 1): {1: a, 2: b}, (0, 2): {1: c, 2: e}})  # R x| R^2
    assert validate(seeded) is None
    for L in (SU2, builtin("sl2"), H3, seeded):
        for _ in range(5):
            A = rand_connection(rng, L, 4)
            expected = unfolded_curvature(A)
            assert curvature(A).components == expected
            for k in range(L.dim):
                assert weil_to_chart(curvature_generator(L, k), A) == expected[k]
