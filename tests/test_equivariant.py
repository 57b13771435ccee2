import json
import random
from fractions import Fraction
from functools import partial
from itertools import combinations
from math import lcm
from pathlib import Path

import pytest

from weil.chart_forms import ChartForm, d as chart_d
from weil import chart_forms, equivariant
from weil.equivariant import (ROTATION_2D, WeilModel, WeilModelElement,
                              builtin_action, check_basis_size)
from weil.invariant_polynomials import basic_subspace
from weil.liealg import (BUILTIN_NAMES, builtin, check_representation, coadjoint_dual_basis,
                         from_brackets, validate)
from weil.masks import mask_of
from weil.schur_oracle import ResourceCapError
from weil.superalg import ONE, derivation, operator_rows, unit_exponent
from weil.weil_algebra import (WeilElement, contract as weil_contract, contraction_images,
                               curvature_generator, d_K, key_degree, koszul_images,
                               lie_derivative, lie_images, sym_exponents, term_sort_key,
                               weil_basis)
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
    # abelian algebra takes none
    for name in ("su2", "heisenberg3", "abelian(6)"):
        L = builtin(name)
        m, mats = builtin_action("adjoint", L)
        model = WeilModel(m, L, [[[CountingFraction(x) for x in row] for row in mat]
                                 for mat in mats])
        CountingFraction.products = 0
        model.basic_constraint_rows(1, 1)
        assert CountingFraction.products == sum(1 for mat in mats for row in mat for x in row if x)


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
        WeilModel(m, AB1, [mat]).basic_constraint_rows(1, 1)
        assert len(built) == m
        assert sum(built) == sum(terms) == entries


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
    ``derivation`` by the table of ``_curvature_contract_images``."""
    dom = model.basis(d, cap)
    cod_iota = model.basis(d - 1, cap + 1) if d > 0 else []
    cod_lie = model.basis(d, cap + 1)
    rows, scaled = [], []
    for i in range(model.n):
        xi = [Fraction(int(k == i)) for k in range(model.n)]
        fields = model.vector_field(xi)
        if curvature:
            iota = model._curvature_contract_images(xi, fields)
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
    # the image vectors are the transposed system in Omega coordinates, each
    # operator scaled to integers; the answers are those of the lamt system
    model = cartan_model(name, action)
    dom, vectors = model.basic_constraint_rows(degree, cap)
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
            dom, vectors = model.basic_constraint_rows(degree, cap)
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
    """The rank route on the model's own action, which basic_dim no longer takes."""
    dom, vectors = model.basic_constraint_rows(degree, cap)
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


def test_only_basic_dim_solves_on_the_sparse_action(monkeypatch):
    model, seen = cartan_model("su2", "conjugate"), []
    rows = WeilModel.basic_constraint_rows

    def spy(self, degree, cap):
        seen.append(self.action)
        return rows(self, degree, cap)

    monkeypatch.setattr(WeilModel, "basic_constraint_rows", spy)
    model.basic_dim(2, 1)
    model.basic_basis(2, 1)
    assert seen == [equivariant.sparse_similar(model.action)[1], model.action]
    assert nnz(seen[0]) == 6 < nnz(model.action)


def test_basic_dim_is_the_raw_rank_on_semidirect_conjugates_rot2_and_trivial():
    # the semidirect conjugates are dense actions not similar to a builtin one
    models = [*seeded_models(random.Random(71)), rotation_model(),
              WeilModel(2, SU2, builtin_action("trivial:2", SU2)[1])]
    for model in models:
        for degree, cap in ((2, 2), (3, 1), (4, 1))[:3 if model.m <= 3 else 2]:
            assert model.basic_dim(degree, cap) == raw_basic_dim(model, degree, cap), \
                (model.algebra.structure, model.action, degree, cap)


def test_basic_dim_of_the_su2_golden_conjugate_at_6_3_is_the_raw_rank():
    path = Path(__file__).parent / "golden" / "inputs" / "action_su2_conjugate.json"
    action = [[[Fraction(x) for x in row] for row in mat] for mat in json.loads(path.read_text())]
    model = WeilModel(3, SU2, action)
    assert model.basic_dim(6, 3) == raw_basic_dim(model, 6, 3)


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


def test_sparse_similar_reaches_the_rank_bound_on_the_simple_conjugates():
    # the first kernel vector of ad(e_0) is e_0 in the conjugate's coordinates,
    # and its orbit is the standard basis up to signs and scales
    for name in ("su2", "sl2", "so3"):
        L = builtin(name)
        model = WeilModel(3, L, conjugated(builtin_action("adjoint", L)[1], random.Random(9)))
        mats = equivariant.sparse_similar(model.action)[1]
        assert nnz(model.action) > 6 and nnz(mats) == 6
