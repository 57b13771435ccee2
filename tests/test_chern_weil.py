import random
from fractions import Fraction

import pytest

from weil import chern_weil, linalg
from weil.chart_forms import ChartForm, PolyMap, d, pullback, wedge
from weil.chern_weil import (LieValuedForm, _form_mat_mul, builtin_rep, conjugate,
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


def test_cw_refuses_a_polynomial_of_another_dimension():
    A = LieValuedForm(SU2, 4, [ChartForm.dx(4, 1, ChartForm.x(4, 0)),
                               ChartForm.dx(4, 2, ChartForm.x(4, 1)),
                               ChartForm.dx(4, 3, ChartForm.x(4, 2))])
    for P in (multiply(WeilElement.lamt(2, 0), WeilElement.lamt(2, 0)), WeilElement.lamt(4, 3)):
        with pytest.raises(ValueError, match="polynomial dimension does not match"):
            cw_form(P, A)
    assert cw_form(casimir(), A)


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
    out = []
    for i in range(len(A)):
        row = []
        for j in range(len(B[0])):
            acc = wedge(A[i][0], B[0][j])
            for k in range(1, len(B)):
                acc = acc + wedge(A[i][k], B[k][j])
            row.append(acc)
        out.append(row)
    return out


# -- the matrix route, kept as the oracle of the algebra-coordinate route --------


def _lie_valued_to_matrix(B, rep):
    """sum_i B^i rho(e_i), an r x r form matrix."""
    r, m = rep.size, B.chart_dim
    out = [[ChartForm.zero(m) for _ in range(r)] for _ in range(r)]
    for i, comp in enumerate(B.components):
        mat = rep.mats[i]
        for a in range(r):
            for b in range(r):
                if mat[a][b]:
                    out[a][b] = out[a][b] + comp.scale(mat[a][b])
    return out


def _matrix_to_lie_valued(M, rep, algebra, chart_dim):
    """The algebra coordinates of a form matrix M in rho(g), one solve per matrix."""
    r = rep.size
    keys = sorted({key for row in M for form in row for key in form.terms})
    targets = [{a * r + b: M[a][b].terms[key] for a in range(r) for b in range(r)
                if key in M[a][b].terms} for key in keys]
    coords = linalg.solve(rep.flat_columns(), targets)
    if coords is None:
        raise ValueError("matrix-valued form does not lie in the representation image")
    comps = [ChartForm(chart_dim, {key: c[i] for key, c in zip(keys, coords) if c[i]})
             for i in range(algebra.dim)]
    return LieValuedForm(algebra, chart_dim, comps)


def _left_divide(g, M, B):
    """g^-1 M for an r x r form matrix M, in the algebra coordinates of B."""
    return _matrix_to_lie_valued(_form_mat_mul(g.inverse, M), g.rep, B.algebra, B.chart_dim)


def matrix_gauge_transform(A, g):
    """The previous gauge action g^-1 (dg + A g): two matrix products, one of them with A."""
    Ag = _form_mat_mul(_lie_valued_to_matrix(A, g.rep), g.entries)
    return _left_divide(g, [[d(p) + b for p, b in zip(*rows)] for rows in zip(g.entries, Ag)], A)


def matrix_conjugate(g, B):
    """The previous Ad_{g^-1} B: g^-1 (B g) as matrices."""
    return _left_divide(g, _form_mat_mul(_lie_valued_to_matrix(B, g.rep), g.entries), B)


def summed_gauge_transform(A, g):
    """The earlier gauge action g^-1 dg + g^-1 A g, three wedge-and-add matrix products."""
    maurer = wedge_mat_mul(g.inverse, [[d(p) for p in row] for row in g.entries])
    conj = wedge_mat_mul(wedge_mat_mul(g.inverse, _lie_valued_to_matrix(A, g.rep)), g.entries)
    total = [[a + b for a, b in zip(ra, rb)] for ra, rb in zip(maurer, conj)]
    return _matrix_to_lie_valued(total, g.rep, A.algebra, A.chart_dim)


def rand_poly(rng, m):
    """A seeded 0-form of one to three terms of degree at most 2, fractional coefficients."""
    return ChartForm.from_poly(m, {tuple(rng.choice((0, 0, 1, 2)) for _ in range(m)):
                                   Fraction(rng.randint(-3, 3) or 1, rng.choice((1, 2, 3)))
                                   for _ in range(rng.randint(1, 3))})


def rand_gauges(rng, name, m):
    """Seeded constant and unipotent gauges of the builtin rep of ``name``.  su2 and so3
    are compact, so their unipotent gauges leave the group and are refused."""
    rep = builtin_rep(name)
    r = rep.size
    uppers = {(i, j): rand_poly(rng, m) for i in range(r) for j in range(i + 1, r)
              if rng.random() < 0.8 or (i, j) == (0, r - 1)}
    constant = {
        "abelian(1)": [[2, Fraction(1, 3)], [0, -1]],
        "heisenberg3": [[1, 2, Fraction(-1, 2)], [0, 1, 3], [0, 0, 1]],
        "sl2": [[2, 1], [Fraction(1, 2), 3]],
        "so3": [[Fraction(3, 5), Fraction(-4, 5), 0], [Fraction(4, 5), Fraction(3, 5), 0],
                [0, 0, 1]],
        "su2": quaternion_matrix(*(rng.randint(-3, 3) or 1 for _ in range(4))),
    }[name]
    return [constant_gauge(rep, constant, m), unipotent_gauge(rep, uppers, m)]


def outcome(route, *args):
    try:
        return route(*args)
    except ValueError as error:
        return str(error)


BUILTIN_REPS = ("abelian(1)", "heisenberg3", "sl2", "so3", "su2")


@pytest.mark.parametrize("name", BUILTIN_REPS)
def test_gauge_transform_matches_the_matrix_route(name):
    rng = random.Random(sum(map(ord, name)))
    L = builtin(name)
    refused = 0
    for m in (2, 3, 5):
        for _ in range(3):
            A = rand_connection(rng, L, m)
            if rng.random() < 0.3:  # a zero component: its Ad_{g^-1}(e_i) is not built
                A.components[rng.randrange(L.dim)] = ChartForm.zero(m)
            for g in rand_gauges(rng, name, m):
                moved = outcome(gauge_transform, A, g)
                assert moved == outcome(matrix_gauge_transform, A, g)
                assert moved == outcome(summed_gauge_transform, A, g)
                refused += isinstance(moved, str)
                B = curvature(A)  # 2-form components
                assert outcome(conjugate, g, B) == outcome(matrix_conjugate, g, B)
                assert outcome(conjugate, g, A) == outcome(matrix_conjugate, g, A)
    assert bool(refused) == (name in ("so3", "su2"))


def test_gauge_of_the_zero_connection_is_maurer_cartan_in_every_rep():
    # both edges: a constant gauge has dg = 0 and no matrix at all, a unipotent one
    # only theta = g^-1 dg, which leaves su2 and so3
    rng = random.Random(3)
    for name in BUILTIN_REPS:
        L = builtin(name)
        for g in rand_gauges(rng, name, 3):
            zero = LieValuedForm.zero(L, 3)
            moved = outcome(gauge_transform, zero, g)
            assert moved == outcome(matrix_gauge_transform, zero, g)
            moving = any(d(p).terms for row in g.entries for p in row)
            assert isinstance(moved, str) == (name in ("so3", "su2") and moving)
            assert conjugate(g, zero) == matrix_conjugate(g, zero) == zero


def test_form_mat_mul_matches_wedge_sums():
    rng = random.Random(73)

    def entry(m, degrees=(0, 1, 2)):
        # a zero entry, or a sum of terms of the given form degrees, Fraction coefficients
        form = ChartForm.zero(m)
        for _ in range(rng.choice((0, 1, 2, 3))):
            e = [0] * m
            for _ in range(rng.randint(0, 2)):
                e[rng.randrange(m)] += 1
            form = form + ChartForm.monomial(m, rng.sample(range(m), rng.choice(degrees)), e,
                                             Fraction(rng.randint(-3, 3), rng.randint(1, 4)))
        return form

    # square, rectangular and one-column right factors, under mixed, 0-form-only and
    # 1-form-only left factors
    shapes = [(1, 1, 1, (0, 1, 2)), (1, 1, 1, (0, 1, 2)), (2, 2, 2, (0, 1, 2)),
              (3, 3, 3, (0, 1, 2)), (4, 4, 4, (0, 1, 2)), (4, 4, 4, (0, 1, 2)),
              (2, 3, 4, (0, 1, 2)), (3, 2, 1, (0, 1, 2)), (3, 5, 1, (0,)),
              (1, 4, 2, (0, 1, 2)), (3, 4, 1, (1,)), (2, 3, 2, (1,))]
    for p, q, s, left_degrees in shapes:
        m = rng.randint(2, 4)
        A = [[entry(m, left_degrees) for _ in range(q)] for _ in range(p)]
        B = [[entry(m) for _ in range(s)] for _ in range(q)]
        got = _form_mat_mul(A, B)
        assert got == wedge_mat_mul(A, B)
        assert [len(row) for row in got] == [s] * p
        assert all(type(c) is Fraction for row in got for form in row for c in form.terms.values())
    zero = [[ChartForm.zero(2)] * 4 for _ in range(4)]
    assert _form_mat_mul(zero, zero) == zero
    assert _form_mat_mul(zero, [[ChartForm.zero(2)]] * 4) == [[ChartForm.zero(2)]] * 4


def test_gauge_transform_takes_one_matrix_product_per_used_generator(monkeypatch):
    # theta + sum_i A^i Ad_{g^-1}(e_i): one r x r product g^-1 (rho(e_i) g) per i with
    # A^i != 0, and g^-1 dg only when dg != 0; no r x r product touches A.  Then one
    # product of the coordinate matrix by the column (1, ..., A^i, ...), which the zero
    # connection under a constant gauge skips with the rest
    rng = random.Random(71)
    x = ChartForm.x(3, 0)
    A = rand_connection(rng, H3, 3)
    cases = [(rand_connection(rng, SU2, 3),
              constant_gauge(builtin_rep("su2"), quaternion_matrix(2, 1, -1, 3), 3), 3),
             (A, unipotent_gauge(builtin_rep("heisenberg3"), {(0, 1): x, (1, 2): x * x}, 3), 4),
             (LieValuedForm(H3, 3, [A.components[0], ChartForm.zero(3), A.components[2]]),
              unipotent_gauge(builtin_rep("heisenberg3"), {(0, 2): x}, 3), 3),
             (LieValuedForm.zero(SU2, 3),
              constant_gauge(builtin_rep("su2"), quaternion_matrix(1, 0, 2, 0), 3), 0)]
    for A, g, products in cases:
        calls = []
        monkeypatch.setattr(chern_weil, "_form_mat_mul",
                            lambda a, b: calls.append(b) or _form_mat_mul(a, b))
        moved = gauge_transform(A, g)
        monkeypatch.undo()
        r, dg = g.rep.size, [[d(p) for p in row] for row in g.entries]
        theta = [dg] if any(map(any, dg)) else []
        square = [b for b in calls if len(b) == r and all(len(row) == r for row in b)]
        assert len(square) == products
        # every r x r right factor is rho(e_i) g, of 0-forms, except dg
        assert [b for b in square if any(f.degrees() - {0} for row in b for f in row)] == theta
        # the one other product is the last, by the column of the used A^i under the unit
        # where theta is built; it is the only one that touches A
        used = [[c] for c in A.components if c]
        column = [[ChartForm.unit(3)] for _ in theta] + used
        assert calls == (square + [column] if products else [])
        assert [b for b in calls if any(f == c for row in b for f in row
                                        for c in A.components if c)] == calls[-1:]
        assert moved == matrix_gauge_transform(A, g) == summed_gauge_transform(A, g)


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
    # _lie_coordinates reads algebra coordinates off these columns;
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
