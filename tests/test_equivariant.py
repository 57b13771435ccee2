import json
import random
from fractions import Fraction
from functools import partial
from itertools import combinations
from math import factorial, lcm
from pathlib import Path

import pytest

from weil.chart_forms import ChartForm, d as chart_d
from weil import chart_forms, equivariant
from weil.equivariant import (ROTATION_2D, WeilModel, WeilModelElement,
                              builtin_action, check_basis_size)
from weil.invariant_polynomials import basic_subspace
from weil.liealg import (BUILTIN_NAMES, basis_vector, builtin, check_representation,
                         coadjoint_dual_basis, from_brackets, validate)
from weil.masks import mask_of
from weil.schur_oracle import ResourceCapError
from weil.superalg import ONE, derivation, operator_rows, unit_exponent
from weil.weil_algebra import (WeilElement, change_of_basis, contract as weil_contract,
                               contraction_images, curvature_generator, d_K, key_degree,
                               koszul_images, lie_derivative, lie_images, sym_exponents,
                               term_sort_key, weil_basis)
from weil import linalg

from test_liealg import CountingFraction
from test_weil_algebra import recursive_sym_exponents, sorted_weil_basis

AB1 = builtin("abelian(1)")
SU2 = builtin("su2")


def rotation_model():
    return WeilModel(2, AB1, [ROTATION_2D])


def adjoint_model():
    _, mats = builtin_action("adjoint", SU2)
    return WeilModel(3, SU2, mats)


def rand_element(rng, model, max_weil=3, cap=2, terms=3):
    keys = []
    for deg in range(max_weil + 1):
        keys += model.basis(deg, cap)
    elem = model.zero()
    for key in rng.sample(keys, terms):
        elem = elem + WeilModelElement(model, {key: Fraction(rng.randint(-3, 3) or 1)})
    return elem


def test_total_d_examples():
    model = rotation_model()
    one_lam = model.from_pair(ChartForm.constant(2), WeilElement.lam(1, 0))
    assert model.total_d(one_lam) == model.from_pair(ChartForm.constant(2),
                                                     WeilElement.lamt(1, 0))
    x = model.from_pair(ChartForm.from_poly(2, {(1, 0): Fraction(1)}), WeilElement.unit(1))
    assert model.total_d(x) == model.from_pair(ChartForm.dx(2, 0), WeilElement.unit(1))
    dx_lam = model.from_pair(ChartForm.dx(2, 0), WeilElement.lam(1, 0))
    assert model.total_d(dx_lam) == model.from_pair(ChartForm.dx(2, 0),
                                                    WeilElement.lamt(1, 0)).scale(-1)


def test_total_contract_examples():
    model = rotation_model()
    xi = [Fraction(1)]
    # iota(dx (x) 1) = -y
    dx1 = model.from_pair(ChartForm.dx(2, 0), WeilElement.unit(1))
    expected = model.from_pair(ChartForm.from_poly(2, {(0, 1): Fraction(-1)}),
                               WeilElement.unit(1))
    assert model.total_contract(xi, dx1) == expected
    # iota(1 (x) lam) = <xi, lam>
    lam = model.from_pair(ChartForm.constant(2), WeilElement.lam(1, 0))
    assert model.total_contract(xi, lam) == model.from_pair(ChartForm.constant(2),
                                                            WeilElement.unit(1))


def test_trivial_action_reduces_to_algebra_contraction():
    model = WeilModel(2, SU2, [[[0, 0], [0, 0]] for _ in range(3)])
    rng = random.Random(73)
    for _ in range(5):
        a = WeilElement.zero(3)
        keys = weil_basis(3, rng.randint(0, 4))
        for key in rng.sample(keys, min(2, len(keys))):
            a = a + WeilElement(3, {key: Fraction(rng.randint(-2, 2) or 1)})
        xi = [Fraction(rng.randint(-2, 2)) for _ in range(3)]
        w = model.from_pair(ChartForm.constant(2), a)
        assert model.total_contract(xi, w) == model.from_pair(
            ChartForm.constant(2), weil_contract(SU2, xi, a))


def test_action_bracket_compatibility_enforced():
    with pytest.raises(ValueError):
        WeilModel(2, SU2, [ROTATION_2D, ROTATION_2D, ROTATION_2D])


def test_total_d_squared_and_cartan():
    for model in (rotation_model(), adjoint_model()):
        rng = random.Random(79 + model.m)
        for _ in range(8):
            w = rand_element(rng, model)
            xi = [Fraction(rng.randint(-2, 2)) for _ in range(model.n)]
            assert not model.total_d(model.total_d(w))
            lie = model.total_lie(xi, w)
            # Cartan formula is the definition; cross-check D iota + iota D
            assert lie == model.total_d(model.total_contract(xi, w)) \
                + model.total_contract(xi, model.total_d(w))


def test_basic_dims_examples():
    # trivial action, su2, d=4, c=0 reduces to the Weil algebra count
    assert WeilModel(2, SU2, [[[0, 0], [0, 0]] for _ in range(3)]).basic_dim(4, 0) == 1
    # rotation invariant 0-forms of degree <= 2: constants and x^2+y^2
    assert rotation_model().basic_dim(0, 2) == 2
    # constants survive at any setup
    assert rotation_model().basic_dim(0, 0) == 1
    assert adjoint_model().basic_dim(0, 0) == 1


def test_basic_dims_monotone_in_cap():
    model = rotation_model()
    dims = [model.basic_dim(0, c) for c in range(5)]
    assert dims == sorted(dims)
    assert dims[0] == 1 and dims[2] == 2 and dims[4] == 3  # 1, r^2, r^4


def test_rotation_basic_contains_radius_squared():
    model = rotation_model()
    basis = model.basic_basis(0, 2)
    r2 = model.from_pair(ChartForm.from_poly(2, {(2, 0): Fraction(1), (0, 2): Fraction(1)}),
                         WeilElement.unit(1))
    keys = sorted({k for b in basis for k in b.terms} | set(r2.terms))
    index = {k: i for i, k in enumerate(keys)}
    cols = [{index[k]: c for k, c in b.terms.items()} for b in basis]
    target = {index[k]: c for k, c in r2.terms.items()}
    assert linalg.solve(cols, [target]) is not None


def semidirect(rng, k, nilpotent):
    """R x|_A R^k, [e_0, e_j] = A e_j, for a random integer k x k matrix A;
    a strictly upper-triangular A makes the algebra nilpotent."""
    A = [[rng.randint(-2, 2) if i < j or not nilpotent else 0 for j in range(k)]
         for i in range(k)]
    L = from_brackets(k + 1, {(0, j + 1): {i + 1: A[i][j] for i in range(k) if A[i][j]}
                              for j in range(k)})
    assert validate(L) is None
    return L


def test_m0_reduction_matches_weil_algebra():
    # The Weil model on a point is the full iota/L system over the whole
    # Weil basis.  basic_subspace, the Chern-Weil image of the invariant
    # polynomials, must give its canonical kernel basis term for term.
    rng = random.Random(31)
    algebras = [builtin(name) for name in BUILTIN_NAMES]
    algebras += [semidirect(rng, k, nilpotent) for k in (2, 3) for nilpotent in (False, True)]
    for L in algebras:
        model = WeilModel(0, L, [[]] * L.dim)
        for d in range(9):
            full = model.basic_basis(d, 0)
            assert [v.terms for v in basic_subspace(L, d)] == [v.terms for v in full], \
                (L.structure, d)


def test_total_d_maps_basic_into_basic():
    model = rotation_model()
    for (d, c) in ((0, 2), (1, 2), (2, 1)):
        basis = model.basic_basis(d, c)
        if not basis:
            continue
        target_basis = model.basic_basis(d + 1, c)
        keys = sorted({k for b in target_basis for k in b.terms}
                      | {k for b in basis for k in model.total_d(b).terms})
        index = {k: i for i, k in enumerate(keys)}
        cols = [{index[k]: v for k, v in b.terms.items()} for b in target_basis]
        targets = [{index[k]: v for k, v in model.total_d(b).terms.items()} for b in basis]
        assert linalg.solve(cols, targets) is not None


def test_basis_size_is_the_closed_form(monkeypatch):
    sizes = []
    monkeypatch.setattr(equivariant, "check_size", lambda size, what: sizes.append(size))
    for name, action in (("su2", "adjoint"), ("abelian(1)", "rot2"), ("sl2", "trivial:0"),
                         ("heisenberg3", "trivial:4")):
        L = builtin(name)
        m, mats = builtin_action(action, L)
        model = WeilModel(m, L, mats)
        for d in range(5):
            for cap in range(3):
                check_basis_size(model.m, L.dim, d, cap)
                assert sizes[-1] == len(model.basis(d, cap)), (name, action, d, cap)


def test_generator_tables_are_refused_by_n_times_m_plus_n():
    check_basis_size(3, 3, 8, 4)  # su2 adjoint at (8, 4) stays admitted
    check_basis_size(1, 140, 0, 0)  # 140 * 141 = 19,740 table entries
    with pytest.raises(ResourceCapError, match="141 fields on R"):
        check_basis_size(1, 141, 0, 0)  # 141 * 142 = 20,022


# -- the Cartan identities on the total Weil model ------------------------


def conjugated(mats, rng, diagonal=None):
    """Q^-1 M Q for Q = (I + N) D: N seeded strictly upper-triangular integer,
    so that (I + N)^-1 = I - N + N^2 - ... is integral too, and D a diagonal
    drawn from ``diagonal`` (the identity if None), which makes Q^-1 non-integral."""
    n = len(mats[0])
    N = [[Fraction(rng.randint(-2, 2)) if i < j else Fraction(0) for j in range(n)]
         for i in range(n)]
    D = [rng.choice(diagonal) for _ in range(n)] if diagonal else [1] * n

    def mul(a, b):
        return [[sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n)] for i in range(n)]

    eye = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    Q = [[(eye[i][j] + N[i][j]) * D[j] for j in range(n)] for i in range(n)]
    U_inv, power = eye, eye
    for k in range(1, n):
        power = mul(power, N)
        U_inv = [[U_inv[i][j] + (-1) ** k * power[i][j] for j in range(n)] for i in range(n)]
    Q_inv = [[U_inv[i][j] / D[i] for j in range(n)] for i in range(n)]
    return [mul(mul(Q_inv, m), Q) for m in mats]


def cartan_model(name, action):
    L = builtin(name)
    m, mats = builtin_action("adjoint" if action == "conjugate" else action, L)
    if action == "conjugate":
        mats = conjugated(mats, random.Random(sum(map(ord, name))))
    return WeilModel(m, L, mats)


def cartan_cases(model, count=20):
    rng = random.Random(101 + model.m + model.n)
    for _ in range(count):
        xi, eta = ([Fraction(rng.randint(-2, 2)) for _ in range(model.n)] for _ in range(2))
        yield rand_element(rng, model), xi, eta


CARTAN_MODELS = [(name, action) for name in ("su2", "sl2", "heisenberg3")
                 for action in ("adjoint", "conjugate")]


@pytest.mark.parametrize("name, action", CARTAN_MODELS)
def test_total_model_cartan_identities(name, action):
    model = cartan_model(name, action)
    D, iota, lie = model.total_d, model.total_contract, model.total_lie
    for w, xi, eta in cartan_cases(model):
        assert not D(D(w))
        assert D(iota(xi, w)) + iota(xi, D(w)) == lie(xi, w)
        assert not iota(xi, iota(eta, w)) + iota(eta, iota(xi, w))


# The chart factor uses xi-hat(x) = rho(xi) x, an anti-homomorphism, so the
# two bracket identities fail for a nonabelian action (ROADMAP open item 1).
SIGN_DEFECT = pytest.mark.xfail(strict=True, reason="ROADMAP item 1: the fundamental vector "
                                "field has the wrong sign, so [L, iota] = -iota_[xi, eta] on the chart")
BRACKET_MODELS = [pytest.param(name, action, marks=[SIGN_DEFECT] if name != "heisenberg3" else [])
                  for name, action in CARTAN_MODELS] + [("abelian(1)", "rot2")]


@pytest.mark.parametrize("name, action", BRACKET_MODELS)
def test_total_model_bracket_identities(name, action):
    model = cartan_model(name, action)
    iota, lie = model.total_contract, model.total_lie
    for w, xi, eta in cartan_cases(model):
        bracket = model.algebra.bracket(xi, eta)
        assert lie(xi, iota(eta, w)) - iota(eta, lie(xi, w)) == iota(bracket, w)
        assert lie(xi, lie(eta, w)) - lie(eta, lie(xi, w)) == lie(bracket, w)


# -- the Cartan identities on the chart factor alone ---------------------------

CHART_MODELS = [("su2", "adjoint"), ("sl2", "adjoint"), ("heisenberg3", "adjoint"),
                ("abelian(1)", "rot2")]


def chart_cases(model, count=20):
    """Seeded omega (x) 1 with coefficients of degree <= 2, and xi, eta."""
    rng = random.Random(211 + model.m + model.n)
    unit = (0, (0,) * model.n)
    keys = [key for deg in range(model.m + 1) for key in model.basis(deg, 2)
            if model.split(key)[1] == unit]
    for _ in range(count):
        w = model.zero()
        for key in rng.sample(keys, 3):
            w = w + WeilModelElement(model, {key: Fraction(rng.randint(-3, 3) or 1)})
        xi, eta = ([Fraction(rng.randint(-2, 2)) for _ in range(model.n)] for _ in range(2))
        yield w, xi, eta


@pytest.mark.parametrize("name, action", CHART_MODELS)
def test_chart_factor_cartan_identities(name, action):
    model = cartan_model(name, action)
    D, iota, lie = model.total_d, model.total_contract, model.total_lie
    for w, xi, eta in chart_cases(model):
        assert not D(D(w))
        assert D(iota(xi, w)) + iota(xi, D(w)) == lie(xi, w)
        assert not iota(xi, iota(eta, w)) + iota(eta, iota(xi, w))


@pytest.mark.parametrize("name, action", [
    pytest.param(name, action, marks=[SIGN_DEFECT] if name in ("su2", "sl2") else [])
    for name, action in CHART_MODELS])
def test_chart_factor_bracket_identity(name, action):
    model = cartan_model(name, action)
    iota, lie = model.total_contract, model.total_lie
    for w, xi, eta in chart_cases(model):
        bracket = model.algebra.bracket(xi, eta)
        assert lie(xi, iota(eta, w)) - iota(eta, lie(xi, w)) == iota(bracket, w)


# -- the model from its factors, against the previous sorted and concatenated routes --

FACTOR_MODELS = [(name, action) for name in BUILTIN_NAMES
                 for action in ("adjoint", "conjugate", "trivial:2")] + [("abelian(1)", "rot2")]


def sorted_model_basis(model, d, cap):
    """The previous WeilModel.basis: every key of the product, then a key sort."""
    keys = [model.join((mask_of(f), mono), wk) for r in range(min(model.m, d) + 1)
            for wk in sorted_weil_basis(model.n, d - r) for f in combinations(range(model.m), r)
            for deg in range(cap + 1) for mono in recursive_sym_exponents(model.m, deg)]

    def sort_key(key):
        (fmask, mono), wk = model.split(key)
        return (bin(fmask).count("1") + key_degree(wk), sum(mono), fmask, mono, term_sort_key(wk))
    return sorted(keys, key=sort_key)


def concatenated_tables(model, xi):
    """The previous D, iota and L tables, each image lifted and concatenated by hand."""
    m, n, fields = model.m, model.n, model.vector_field(xi)

    def chart(terms):
        return {model.join(k, (0, (0,) * n)): c for k, c in terms.items()}

    def weil(terms):
        return {model.join((0, (0,) * m), k): c for k, c in (terms or {}).items()}

    d = ([None] * m + [{(0, unit_exponent(m + n, m + i)): ONE} for i in range(n)],
         [{(1 << t, (0,) * (m + n)): ONE} for t in range(m)] + [None] * n)
    odd, even = contraction_images(model.algebra, xi)
    iota = ([chart(f.terms) for f in fields] + [weil(t) for t in odd],
            [None] * m + [weil(t) for t in even])
    odd, even = lie_images(model.algebra, xi)
    lie = ([chart(chart_d(f).terms) for f in fields] + [weil(t) for t in odd],
           [chart(f.terms) for f in fields] + [weil(t) for t in even])
    return d, iota, lie


def table_items(table):
    """A table's images as item lists, in insertion order; None and {} are both zero."""
    return [[list(img.items()) if img else None for img in images] for images in table]


@pytest.mark.parametrize("name, action", FACTOR_MODELS)
def test_model_basis_is_built_in_the_sorted_order(name, action):
    model = cartan_model(name, action)
    for d in range(5):
        for cap in range(3):
            assert model.basis(d, cap) == sorted_model_basis(model, d, cap), (d, cap)


@pytest.mark.parametrize("name, action", FACTOR_MODELS)
def test_model_tables_are_the_lifted_factor_tables(name, action):
    model = cartan_model(name, action)
    rng = random.Random(17 + model.m + model.n)
    xis = [[Fraction(int(k == i)) for k in range(model.n)] for i in range(model.n)]
    xis.append([Fraction(rng.randint(-3, 3), rng.choice((1, 2))) for _ in range(model.n)])
    for xi in xis:
        fields = model.vector_field(xi)
        tables = (model._d_images(), model._contract_images(xi, fields),
                  model._lie_images(xi, fields))
        assert [table_items(t) for t in tables] == \
            [table_items(t) for t in concatenated_tables(model, xi)], xi


# -- the fundamental vector field ------------------------------------------------


def dense_vector_field(model, xi):
    """The previous vector_field: a sum over all n coefficients of xi and all
    m^2 action entries."""
    m = model.m
    return [ChartForm(m, {(0, unit_exponent(m, s)):
                          sum(Fraction(xi[k]) * model.action[k][r][s] for k in range(model.n))
                          for s in range(m)}) for r in range(m)]


def test_vector_field_matches_dense_sum():
    rng = random.Random(59)
    models = [cartan_model(name, action) for name, action in CARTAN_MODELS + CHART_MODELS]
    models += list(seeded_models(rng))
    for model in models:
        for _ in range(10):
            xi = [Fraction(rng.randint(-2, 2), rng.choice((1, 2))) for _ in range(model.n)]
            assert model.vector_field(xi) == dense_vector_field(model, xi), model.action


def test_constraint_rows_multiply_each_nonzero_action_entry_once():
    # a basis vector xi has one nonzero coefficient, so the fields of all xi
    # take one product per nonzero action entry; the zero adjoint of an
    # abelian algebra takes none.  The basic system reads the entries on ints
    # and takes no Fraction product of them
    for name in ("su2", "heisenberg3", "abelian(6)"):
        L = builtin(name)
        m, mats = builtin_action("adjoint", L)
        model = WeilModel(m, L, [[[CountingFraction(x) for x in row] for row in mat]
                                 for mat in mats])
        CountingFraction.products = 0
        for i in range(L.dim):
            model.vector_field(basis_vector(L.dim, i))
        assert CountingFraction.products == sum(1 for mat in mats for row in mat for x in row if x)
        CountingFraction.products = 0
        model.basic_constraint_rows(1, 1)
        assert CountingFraction.products == 0


def test_lie_tables_build_d_images_only_for_field_terms(monkeypatch):
    # chart_d is called once per fundamental field; it once built all m images
    # x_i -> dx_i each time, O(m^3) per model, and now builds one per
    # coordinate its form meets: none for the zero action, one per nonzero
    # entry of a shift matrix
    m = 60
    shift = [[Fraction(int(s == r + 1)) for s in range(m)] for r in range(m)]
    zeros = [[Fraction(0)] * m for _ in range(m)]
    for mat, entries in ((zeros, 0), (shift, m - 1)):
        built, terms = [], []

        def counting(a, odd_images, even_images):
            built.append(sum(1 for table in (odd_images, even_images) for img in
                             (table.values() if isinstance(table, dict) else table) if img))
            terms.append(len(a.terms))
            return derivation(a, odd_images, even_images)

        monkeypatch.setattr(chart_forms, "derivation", counting)
        model = WeilModel(m, AB1, [mat])
        model._lie_images([1], model.vector_field([1]))
        assert len(built) == m
        assert sum(built) == sum(terms) == entries


# -- the full iota/L system on every key: the oracle of the lam-free system ----


def curvature_contract_images(model, xi, fields):
    """iota (odd) in the coordinates (dx, lam; x, Omega), Omega_i the curvature
    ``curvature_generator(algebra, i)``: dx_t -> xi-hat_t, lam_i -> <xi, lam_i>,
    x_t -> 0 and Omega_i -> 0, so on the Weil factor it is d/dlam.

    Omega_a = lamt_a + 1/2 sum_{j,k} f^a_{jk} lam_j lam_k, f^a_{jk} = -f^a_{kj}
    the structure constants, and iota_xi lamt_a = ad*_xi lam_a = -sum_{j,k}
    xi_j f^a_{jk} lam_k (``coadjoint_dual_basis``).  iota_xi is an odd
    derivation, so iota_xi (lam_j lam_k) = xi_j lam_k - xi_k lam_j, and
    iota_xi Omega_a = ad*_xi lam_a + sum_{j,k} f^a_{jk} xi_j lam_k = 0.

    L_xi is the table of ``_lie_images`` read with Omega_b for lamt_b: L_xi
    Omega_a = sum_b c_b Omega_b, c = ad*_xi lam_a.  For iota_eta L_xi Omega_a
    = L_xi iota_eta Omega_a - iota_{[xi, eta]} Omega_a = 0 on W(g) for every
    eta, so L_xi Omega_a is horizontal, in the span of the Omega_b in degree
    2; and its lamt part is L_xi lamt_a = sum_b c_b lamt_b, while Omega_b has
    the one lamt term lamt_b.  Both are identities of W(g) alone.  The
    change lamt -> Omega is triangular and keeps degree and chart factor, so
    the keys of ``basis`` read in Omega span the same truncation.
    """
    return model._tensor(([f.terms for f in fields], [None] * model.m),
                         (contraction_images(model.algebra, xi)[0], [None] * model.n))


def full_tables(model):
    """iota and L of each e_i, in the coordinates (dx, lam; x, Omega)."""
    tables = []
    for i in range(model.n):
        xi = basis_vector(model.n, i)
        fields = model.vector_field(xi)
        tables += [curvature_contract_images(model, xi, fields), model._lie_images(xi, fields)]
    return tables


def full_constraint_rows(model, degree, cap):
    """The basic system before the Kalkman map: every key of ``basis`` read in
    Omega coordinates, and per key one integer vector of its images under the
    iota and L of every e_i (``superalg.operator_rows``)."""
    dom = model.basis(degree, cap)
    return dom, operator_rows(full_tables(model), dom)


# -- image vectors, against the previous codomain-indexed Fraction rows ---------


def codomain_operator_rows(op, zero, domain_keys, codomain_keys):
    """The previous operator_rows: rows indexed by an enumerated codomain basis,
    which must contain every key ``op`` reaches."""
    codomain_index = {k: i for i, k in enumerate(codomain_keys)}
    rows = {}
    for j, key in enumerate(domain_keys):
        for k2, c in op(zero.with_terms({key: Fraction(1)})).terms.items():
            rows.setdefault(codomain_index[k2], {})[j] = c
    return [rows[i] for i in sorted(rows)]


def row_multiset(rows):
    return sorted(sorted(row.items()) for row in rows)


def table_scale(odd_images, even_images):
    """The lcm of the denominators of a generator-image table."""
    return lcm(*(c.denominator for table in (odd_images, even_images) for img in table
                 if img for c in img.values()))


def by_table(table, w):
    """The derivation with generator-image table ``table``, applied to ``w``."""
    return derivation(w, *table)


def codomain_constraint_rows(model, d, cap, curvature=False):
    """basic_constraint_rows as it was, against codomain bases with cap + 1,
    each operator's rows also returned scaled by its table's integer scale:
    iota is ``total_contract`` on the keys in lamt coordinates.  With
    ``curvature`` the keys are read in Omega coordinates instead, and iota is
    ``derivation`` by the table of ``curvature_contract_images``."""
    dom = model.basis(d, cap)
    cod_iota = model.basis(d - 1, cap + 1) if d > 0 else []
    cod_lie = model.basis(d, cap + 1)
    rows, scaled = [], []
    for i in range(model.n):
        xi = [Fraction(int(k == i)) for k in range(model.n)]
        fields = model.vector_field(xi)
        if curvature:
            iota = curvature_contract_images(model, xi, fields)
            contract = partial(by_table, iota)
        else:
            iota, contract = model._contract_images(xi, fields), partial(model.total_contract, xi)
        for op, table, cod in ((contract, iota, cod_iota),
                               (partial(model.total_lie, xi),
                                model._lie_images(xi, fields), cod_lie)):
            block = codomain_operator_rows(op, model.zero(), dom, cod)
            rows += block
            scale = table_scale(*table)
            scaled += [{j: c * scale for j, c in row.items()} for row in block]
    return dom, rows, scaled


def assert_lamt_system_answers(model, degree, cap, dom, rows):
    """basic_dim and basic_basis against the lamt-coordinate system ``rows``: its
    rank, and its canonical kernel basis term for term."""
    assert model.basic_dim(degree, cap) == len(dom) - linalg.rank(rows)
    assert [list(v.terms.items()) for v in model.basic_basis(degree, cap)] == \
        [[(dom[j], c) for j, c in vec.items()] for vec in linalg.nullspace(rows, len(dom))]


@pytest.mark.parametrize("name, action", CARTAN_MODELS)
@pytest.mark.parametrize("degree, cap", [(2, 2), (3, 1)])
def test_constraint_rows_match_codomain_indexed_rows(name, action, degree, cap):
    # the full system's image vectors are the transposed system in Omega
    # coordinates, each operator scaled to integers; the answers are those of
    # the lamt system
    model = cartan_model(name, action)
    dom, vectors = full_constraint_rows(model, degree, cap)
    old_dom, _, scaled = codomain_constraint_rows(model, degree, cap, curvature=True)
    assert dom == old_dom
    assert len(vectors) == len(dom)
    assert row_multiset(linalg.transpose(vectors)) == row_multiset(scaled)
    assert_lamt_system_answers(model, degree, cap, dom,
                               codomain_constraint_rows(model, degree, cap)[1])


def test_constraint_vectors_hold_only_ints():
    # a conjugate whose Q^-1 is not integral gives the tables denominators
    model = WeilModel(3, SU2, conjugated(builtin_action("adjoint", SU2)[1], random.Random(5),
                                         diagonal=(2, 3)))
    assert any(isinstance(x, Fraction) and x.denominator > 1
               for mat in model.action for row in mat for x in row)
    for degree, cap in ((1, 1), (2, 1)):
        _, vectors = model.basic_constraint_rows(degree, cap)
        assert vectors and all(type(c) is int for vec in vectors for c in vec.values())


def test_contraction_rows_reach_past_the_cap():
    # iota sends dx_t to the linear 0-form xi-hat_t, so at cap 2 some image
    # has coefficient degree 3: a codomain truncated at the cap would lose it
    model = adjoint_model()
    reached = {image for key in model.basis(2, 2) for i in range(3)
               for image in model.total_contract([Fraction(int(k == i)) for k in range(3)],
                                                 WeilModelElement(model, {key: 1})).terms}
    assert max(sum(model.split(image)[0][1]) for image in reached) == 3


@pytest.mark.parametrize("degree", range(9))
def test_koszul_rows_match_codomain_indexed_rows(degree):
    # operator_rows takes the table; the oracle applies d_K itself
    dom = weil_basis(3, degree)
    vectors = operator_rows([koszul_images(3)], dom)
    assert row_multiset(linalg.transpose(vectors)) == row_multiset(
        codomain_operator_rows(d_K, WeilElement(3), dom, weil_basis(3, degree + 1)))


@pytest.mark.parametrize("name", ["su2", "sl2", "heisenberg3"])
def test_invariant_rows_match_codomain_indexed_rows(name):
    # operator_rows takes the tables, scaled to integers; the oracle applies
    # lie_derivative itself, and its rows are scaled by each table's lcm
    L = builtin(name)
    xis = [[Fraction(int(a == i)) for a in range(3)] for i in range(3)]
    tables = [lie_images(L, xi) for xi in xis]
    for k in range(5):
        dom = sorted(((0, s) for s in sym_exponents(3, k)), key=term_sort_key)
        old = [{j: c * table_scale(*table) for j, c in row.items()}
               for xi, table in zip(xis, tables)
               for row in codomain_operator_rows(partial(lie_derivative, L, xi),
                                                 WeilElement(3), dom, dom)]
        assert row_multiset(linalg.transpose(operator_rows(tables, dom))) == \
            row_multiset(old), (name, k)


def seeded_models(rng):
    """Validated random nilpotent and solvable R x| R^k with the adjoint action
    and a seeded conjugate whose Q^-1 has non-integer entries."""
    for k, nilpotent in ((2, True), (3, True), (2, False), (3, False)):
        L = semidirect(rng, k, nilpotent)
        m, mats = builtin_action("adjoint", L)
        yield WeilModel(m, L, mats)
        yield WeilModel(m, L, conjugated(mats, rng, diagonal=(2, 3)))


def test_image_vectors_match_the_codomain_indexed_system_on_random_algebras():
    scales = set()
    for model in seeded_models(random.Random(47)):
        for degree, cap in ((1, 1), (2, 1), (2, 2), (3, 1))[:4 if model.n == 3 else 2]:
            dom, vectors = full_constraint_rows(model, degree, cap)
            old_dom, rows, scaled = codomain_constraint_rows(model, degree, cap, curvature=True)
            assert dom == old_dom
            assert row_multiset(linalg.transpose(vectors)) == row_multiset(scaled)
            assert_lamt_system_answers(model, degree, cap, dom,
                                       codomain_constraint_rows(model, degree, cap)[1])
            scales |= {row[j] / old[j] for row, old in zip(scaled, rows) for j in row}
    assert max(scales) > 1  # the integer scaling was exercised


# -- the basic system's coordinates: iota kills the curvature ---------------------


def curvature_models():
    """Every builtin with its adjoint action and a conjugate of it, rot2, and the
    seeded algebras of ``seeded_models``."""
    for name in BUILTIN_NAMES:
        for action in ("adjoint", "conjugate"):
            yield cartan_model(name, action)
    yield rotation_model()
    yield from seeded_models(random.Random(83))


def test_contraction_kills_the_curvature_and_lie_moves_it_coadjointly():
    # the two identities of W(g) behind _curvature_contract_images, on the
    # curvature lifted into the model: iota_xi Omega_i = 0 and L_xi Omega_i =
    # sum_j (ad*_xi lam_i)_j Omega_j
    rng = random.Random(89)
    for model in curvature_models():
        L, unit = model.algebra, ChartForm.constant(model.m)
        omegas = [model.from_pair(unit, curvature_generator(L, i)) for i in range(model.n)]
        xis = [[Fraction(int(k == i)) for k in range(model.n)] for i in range(model.n)]
        xis += [[Fraction(rng.randint(-3, 3), rng.choice((1, 2))) for _ in range(model.n)]
                for _ in range(3)]
        for xi in xis:
            for i, omega in enumerate(omegas):
                assert not model.total_contract(xi, omega), (L.structure, xi, i)
                coadjoint = model.zero()
                for j, c in coadjoint_dual_basis(L, xi, i).items():
                    coadjoint = coadjoint + omegas[j].scale(c)
                assert model.total_lie(xi, omega) == coadjoint, (L.structure, xi, i)


def test_basic_dim_is_the_lamt_system_rank_on_seeded_algebras():
    # from_brackets algebras R x|_A R^2, with the adjoint action and a conjugate
    # whose Q^-1 is not integral, at truncations past those of the row checks
    rng = random.Random(61)
    L = semidirect(rng, 2, False)
    mats = builtin_action("adjoint", L)[1]
    for model in (WeilModel(3, L, mats), WeilModel(3, L, conjugated(mats, rng, diagonal=(2, 3)))):
        for degree, cap in ((4, 1), (3, 2)):
            dom, rows, _ = codomain_constraint_rows(model, degree, cap)
            assert model.basic_dim(degree, cap) == len(dom) - linalg.rank(rows), (degree, cap)


# -- basic_dim on a sparse similar action ---------------------------------------


def matmul(a, b):
    return [[sum(x * b[t][j] for t, x in enumerate(row)) for j in range(len(b[0]))] for row in a]


def nnz(mats):
    return sum(1 for mat in mats for row in mat for x in row if x)


def random_conjugate(mats, rng):
    """Q^-1 M Q for a seeded invertible Q with entries in -3..3: Q^-1 is not
    integral, and the conjugate is dense."""
    m = len(mats[0])
    while True:
        Q = [[rng.randint(-3, 3) for _ in range(m)] for _ in range(m)]
        if linalg.rank([dict(enumerate(row)) for row in Q]) == m:
            break
    inverse = linalg.solve([{r: Q[r][c] for r in range(m)} for c in range(m)],
                           [{i: 1} for i in range(m)])  # its i-th column
    Q_inv = [[inverse[c][r] for c in range(m)] for r in range(m)]
    return [matmul(matmul(Q_inv, mat), Q) for mat in mats]


def raw_basic_dim(model, degree, cap):
    """The rank of the full system on the model's own action."""
    dom, vectors = full_constraint_rows(model, degree, cap)
    return len(dom) - linalg.rank(vectors)


def seeded_conjugate_models():
    """Three seeded random conjugates of the adjoint of each of su2, sl2, so3 and
    heisenberg3."""
    rng = random.Random(2026)
    for name in ("su2", "sl2", "so3", "heisenberg3"):
        L = builtin(name)
        for _ in range(3):
            yield WeilModel(3, L, random_conjugate(builtin_action("adjoint", L)[1], rng))


@pytest.mark.parametrize("degree, cap", [(3, 2), (4, 1), (4, 2)])
def test_basic_dim_is_the_raw_rank_on_seeded_conjugates(degree, cap):
    for model in seeded_conjugate_models():
        assert nnz(model.action) > nnz(builtin_action("adjoint", model.algebra)[1])
        assert model.basic_dim(degree, cap) == raw_basic_dim(model, degree, cap), \
            (model.algebra.name, model.action)


def test_basic_dim_and_basic_basis_solve_on_the_sparse_action(monkeypatch):
    model, seen = cartan_model("su2", "conjugate"), []
    rows = WeilModel.basic_constraint_rows

    def spy(self, degree, cap):
        seen.append(self.action)
        return rows(self, degree, cap)

    monkeypatch.setattr(WeilModel, "basic_constraint_rows", spy)
    model.basic_dim(2, 1)
    model.basic_basis(2, 1)
    assert seen == [equivariant.sparse_similar(model.action)[1]] * 2
    assert nnz(seen[0]) == 6 < nnz(model.action)


def test_basic_dim_is_the_raw_rank_on_semidirect_conjugates_rot2_and_trivial():
    # the semidirect conjugates are dense actions not similar to a builtin one
    models = [*seeded_models(random.Random(71)), rotation_model(),
              WeilModel(2, SU2, builtin_action("trivial:2", SU2)[1])]
    for model in models:
        for degree, cap in ((2, 2), (3, 1), (4, 1))[:3 if model.m <= 3 else 2]:
            assert model.basic_dim(degree, cap) == raw_basic_dim(model, degree, cap), \
                (model.algebra.structure, model.action, degree, cap)


def golden_action(name):
    path = Path(__file__).parent / "golden" / "inputs" / f"action_{name}_conjugate.json"
    return [[[Fraction(x) for x in row] for row in mat] for mat in json.loads(path.read_text())]


def test_basic_dim_of_the_su2_golden_conjugate_at_6_3_is_the_raw_rank():
    model = WeilModel(3, SU2, golden_action("su2"))
    assert model.basic_dim(6, 3) == raw_basic_dim(model, 6, 3)


def raw_basic_basis(model, degree, cap):
    """basic_basis solved on the model's own action: the relations of its
    ``basic_constraint_rows`` mapped by e^-K, then to lamt coordinates, and the
    ``echelon`` of the images over ``basis``."""
    dom, vectors = model.basic_constraint_rows(degree, cap)
    scale, powers = model._kalkman_powers()
    elements = []
    for vec in linalg.relations(vectors):
        terms = {}
        for j, c in vec.items():
            mask, exps = dom[j]
            for k, image in enumerate(powers(mask)):
                f = Fraction((-1) ** k, factorial(k) * scale ** k)
                for (im, ie), v in image.items():
                    key = im, tuple(a + b for a, b in zip(ie, exps))
                    terms[key] = terms.get(key, 0) + c * f * v
        elements.append(WeilModelElement(model, terms))
    images = change_of_basis(model.algebra, elements)
    return [WeilModelElement(model, terms) for terms in
            linalg.echelon([a.terms for a in images], model.basis(degree, cap))]


def test_basic_basis_is_the_raw_route_term_for_term():
    # solved on the sparse similar action and mapped back by the chart change
    # x' = S^-1 x: the same canonical basis, values and insertion order
    cases = [(WeilModel(3, builtin(name), golden_action(name)), truncations)
             for name, truncations in (("su2", ((4, 2), (5, 2))),
                                       ("heisenberg3", ((4, 2), (5, 2))))]
    cases += [(model, ((3, 2), (4, 1))) for model in seeded_conjugate_models()]
    cases += [(model, ((2, 2), (3, 1))) for model in seeded_models(random.Random(71))]
    cases += [(rotation_model(), ((0, 2), (2, 2))),
              (WeilModel(2, SU2, builtin_action("trivial:2", SU2)[1]), ((2, 1), (3, 1)))]
    moved = 0
    for model, truncations in cases:
        moved += equivariant.sparse_similar(model.action)[1] != model.action
        for degree, cap in truncations:
            got = model.basic_basis(degree, cap)
            assert all(v.model is model for v in got)
            assert [list(v.terms.items()) for v in got] == \
                [list(v.terms.items()) for v in raw_basic_basis(model, degree, cap)], \
                (model.algebra.structure, model.action, degree, cap)
    assert moved >= 14


def rank_bound_models():
    """Actions whose nonzeros number their summed ranks: every builtin adjoint,
    rot2 and trivial actions."""
    for name in BUILTIN_NAMES:
        yield cartan_model(name, "adjoint")
    yield rotation_model()
    yield WeilModel(2, SU2, builtin_action("trivial:2", SU2)[1])
    yield WeilModel(0, SU2, [[]] * 3)


def sparsifier_cases():
    """The rank-bound models, conjugates of the adjoint and the seeded
    semidirect models."""
    yield from rank_bound_models()
    for name in ("su2", "sl2", "heisenberg3"):
        yield cartan_model(name, "conjugate")
    yield from seeded_conjugate_models()
    yield from seeded_models(random.Random(73))


def test_sparse_similar_is_a_sparser_similar_representation():
    for model in sparsifier_cases():
        S, mats = equivariant.sparse_similar(model.action)
        if model.m:  # S is invertible and rho S = S mats, matrix by matrix
            assert linalg.rank([dict(enumerate(row)) for row in S]) == model.m
            assert all(matmul(S, mat) == matmul(rho, S) for mat, rho in zip(mats, model.action))
        check_representation(model.algebra, mats)
        assert nnz(mats) <= nnz(model.action)
        assert equivariant.sparse_similar(model.action) == (S, mats)


def test_sparse_similar_keeps_an_action_at_the_rank_bound():
    # a matrix of rank r has at least r nonzeros: the builtin adjoints, rot2 and
    # the trivial actions have exactly sum_k rank rho(e_k), so nothing can beat them
    for model in rank_bound_models():
        ranks = sum(linalg.rank([dict(enumerate(row)) for row in mat]) for mat in model.action)
        assert nnz(model.action) == ranks
        S, mats = equivariant.sparse_similar(model.action)
        assert mats is model.action
        assert S == tuple(tuple(int(r == c) for c in range(model.m)) for r in range(model.m))


def test_sparse_similar_reaches_the_rank_bound_on_the_simple_conjugates(monkeypatch):
    # for su2, sl2 and so3 the first kernel vector of ad(e_0) is e_0 in the
    # conjugate's coordinates, and its orbit is the standard basis up to signs
    # and scales.  For heisenberg3 the orbit of a start is two-dimensional and
    # a kernel vector of ad(e_0) or ad(e_1) completes it: the first start
    # reaches the bound 2, and the search stops there
    starts = []
    orbit_basis = equivariant._orbit_basis
    monkeypatch.setattr(equivariant, "_orbit_basis",
                        lambda *args: starts.append(1) or orbit_basis(*args))
    models = [WeilModel(3, builtin(name), conjugated(builtin_action("adjoint", builtin(name))[1],
                                                     random.Random(9)))
              for name in ("su2", "sl2", "so3", "heisenberg3")]
    for model in models + list(seeded_conjugate_models()):
        bound = 2 if model.algebra.name == "heisenberg3" else 6
        starts.clear()
        mats = equivariant.sparse_similar(model.action)[1]
        assert nnz(model.action) > bound and nnz(mats) == bound, model.action
        assert len(starts) == 1


# -- the lam-free system through the Kalkman map --------------------------------


def lamt_tables(model):
    """iota and L of each e_i in lamt coordinates, the tables of ``total_contract``
    and ``total_lie``."""
    tables = []
    for i in range(model.n):
        xi = basis_vector(model.n, i)
        fields = model.vector_field(xi)
        tables += [model._contract_images(xi, fields), model._lie_images(xi, fields)]
    return tables


def kalkman_images(model):
    """K = sum_b lam_b iota^X_{e_b} as a Fraction table: dx_t -> sum_b lam_b xi-hat_t(e_b)."""
    fields = [model.vector_field(basis_vector(model.n, b)) for b in range(model.n)]
    odd = [{} for _ in range(model.m)] + [None] * model.n
    for b, comps in enumerate(fields):
        lam = WeilElement.lam(model.n, b)
        for t, comp in enumerate(comps):
            for key, c in model.from_pair(comp, lam).terms.items():
                odd[t][key] = odd[t].get(key, 0) + c
    return odd, [None] * (model.m + model.n)


def exp_kalkman(model, w, sign):
    """e^(sign K) w = sum_j (sign K)^j w / j!, by ``superalg.derivation``."""
    table, out, term, j = kalkman_images(model), w, w, 0
    while term:
        j += 1
        term = derivation(term, *table).scale(Fraction(sign, j))
        out = out + term
    return out


def generators(model):
    """dx_t, lam_b, x_t and Omega_b (read as lamt_b) as model elements."""
    m, n, zero = model.m, model.n, (0,) * (model.m + model.n)
    odd = [WeilModelElement(model, {(1 << g, zero): 1}) for g in range(m + n)]
    return odd + [WeilModelElement(model, {(0, unit_exponent(m + n, g)): 1})
                  for g in range(m + n)]


def kalkman_models():
    """Every builtin with its adjoint action and a conjugate, rot2, trivial:2, the
    point model and the seeded semidirect algebras with the adjoint and a conjugate."""
    yield from curvature_models()
    yield WeilModel(2, SU2, builtin_action("trivial:2", SU2)[1])
    yield WeilModel(0, SU2, [[]] * 3)


def test_kalkman_lie_tables_are_the_conjugated_lie_derivatives():
    # L'_i = e^K L_i e^-K on every generator, each side by superalg.derivation
    for model in kalkman_models():
        scale, tables = model._kalkman_lie_images()
        for i, table in enumerate(tables):
            lie = model._lie_images(basis_vector(model.n, i),
                                    model.vector_field(basis_vector(model.n, i)))
            assert all(type(c) is int for side in table for img in side if img
                       for c in img.values())
            for g in generators(model):
                assert derivation(g, *table) == \
                    exp_kalkman(model, derivation(exp_kalkman(model, g, -1), *lie), 1).scale(scale), \
                    (model.algebra.structure, model.action, i, g.terms)


def test_kalkman_conjugates_each_contraction_to_d_by_dlam():
    # e^K iota_a e^-K = d/dlam_a on every generator, iota read in Omega coordinates
    for model in kalkman_models():
        for a in range(model.n):
            xi = basis_vector(model.n, a)
            iota = curvature_contract_images(model, xi, model.vector_field(xi))
            for g in generators(model):
                got = exp_kalkman(model, derivation(exp_kalkman(model, g, -1), *iota), 1)
                lam_a = (1 << (model.m + a), (0,) * (model.m + model.n))
                assert got.terms == ({(0, lam_a[1]): 1} if g.terms.keys() == {lam_a} else {})


@pytest.mark.parametrize("name, action", [("heisenberg3", "adjoint"), ("heisenberg3", "conjugate"),
                                          ("abelian(1)", "rot2"), ("su2", "trivial:2"),
                                          ("abelian(2)", "adjoint"), ("abelian(3)", "conjugate")])
def test_kalkman_bracket_vanishes_where_the_field_is_a_homomorphism(name, action):
    # [K, L_i] = 0, so L'_i = L_i, exactly when xi -> xi-hat is a homomorphism:
    # for an abelian image of the action, and for heisenberg3, whose brackets
    # are central and act by zero; su2 under the adjoint is the contrast
    def bracket_free(model):
        scale, tables = model._kalkman_lie_images()
        for i, table in enumerate(tables):
            xi = basis_vector(model.n, i)
            lie = model._lie_images(xi, model.vector_field(xi))
            if any(derivation(g, *table) != derivation(g, *lie).scale(scale)
                   for g in generators(model)):
                return False
        return True

    assert bracket_free(cartan_model(name, action))
    assert not bracket_free(cartan_model("su2", "adjoint"))


def test_kalkman_rows_are_the_lie_images_and_the_cap_powers():
    # per lam-free key b of coefficient degree a: the images of b under the
    # L'_i, each table scaled to integers, and K^(cap + 1 - a) b scaled by s^j,
    # s the lcm of the action's denominators, against one derivation per key
    for model in kalkman_models():
        tables = model._kalkman_lie_images()[1]
        kalkman = kalkman_images(model)
        scale = lcm(*(x.denominator for mat in model.action for row in mat for x in row))
        for degree, cap in ((2, 2), (3, 1)):
            dom, vectors = model.basic_constraint_rows(degree, cap)
            assert dom == [key for key in model.basis(degree, cap) if key[0] < 1 << model.m]
            expected = []
            for table in tables:
                expected += [{j: c * table_scale(*table) for j, c in row.items()} for row in
                             codomain_operator_rows(partial(by_table, table), model.zero(), dom,
                                                    model.basis(degree, cap + 1))]
            powers = {}
            for j, key in enumerate(dom):
                w = WeilModelElement(model, {key: 1})
                for _ in range(cap + 1 - sum(key[1][:model.m])):
                    w = derivation(w, *kalkman).scale(scale)
                for image, c in w.terms.items():
                    powers.setdefault(image, {})[j] = c
            expected += powers.values()
            assert row_multiset(linalg.transpose(vectors)) == row_multiset(expected)


def horizontal_cases():
    """(id, model, truncations): every builtin with the adjoint and a conjugate,
    rot2, trivial:2, the point model, the seeded semidirect algebras and the
    seeded random conjugates.  A model on R^4 and the random conjugates take
    (2, 2) and (3, 1) in place of (4, 4) and (6, 3), where the lamt system of
    the dense su2 and so3 conjugates takes seconds to eliminate."""
    full, light = [(0, 0), (1, 0), (4, 4), (6, 3)], [(0, 0), (1, 0), (2, 2), (3, 1)]
    for name in BUILTIN_NAMES:
        for action in ("adjoint", "conjugate"):
            yield f"{name}-{action}", cartan_model(name, action), full
    yield "rot2", rotation_model(), full
    yield "trivial:2", WeilModel(2, SU2, builtin_action("trivial:2", SU2)[1]), full
    yield "point", WeilModel(0, SU2, [[]] * 3), full
    for k, model in enumerate(seeded_models(random.Random(83))):
        yield f"semidirect-{k}", model, full if model.m <= 3 else light
    for k, model in enumerate(seeded_conjugate_models()):
        yield f"random-conjugate-{k}", model, light


HORIZONTAL_CASES = list(horizontal_cases())


@pytest.mark.parametrize("model, truncations", [case[1:] for case in HORIZONTAL_CASES],
                         ids=[case[0] for case in HORIZONTAL_CASES])
def test_horizontal_basic_dim_and_basis_are_those_of_the_lamt_system(model, truncations):
    # basic_dim and basic_basis against the iota/L system on every key in lamt
    # coordinates: its codomain-indexed rows where they are small, and its
    # image vectors, their transpose, at every truncation
    for degree, cap in truncations:
        if degree + cap <= 1:
            dom, rows, _ = codomain_constraint_rows(model, degree, cap)
            assert_lamt_system_answers(model, degree, cap, dom, rows)
        dom = model.basis(degree, cap)
        vectors = operator_rows(lamt_tables(model), dom)
        assert model.basic_dim(degree, cap) == len(dom) - linalg.rank(vectors), (degree, cap)
        assert [list(v.terms.items()) for v in model.basic_basis(degree, cap)] == \
            [[(dom[j], c) for j, c in vec.items()] for vec in linalg.relations(vectors)]


def test_negative_degree_or_cap_is_refused():
    model = adjoint_model()
    for degree, cap in ((-1, 0), (0, -1), (-2, -3)):
        for solve in (model.basic_dim, model.basic_basis, model.basic_constraint_rows):
            with pytest.raises(ValueError, match=r"^degree and poly_cap must be >= 0$"):
                solve(degree, cap)
