import json
import random
from fractions import Fraction
from itertools import combinations
from math import comb
from pathlib import Path

import pytest

from weil.liealg import (BUILTIN_NAMES, basis_vector, builtin,
                         coadjoint_dual_basis, lie_generators)
from weil.invariant_polynomials import basic_subspace, invariant_basis
from weil.masks import mask_of
from weil.schur_oracle import ResourceCapError
from weil.chart_forms import ChartForm
from weil.equivariant import WeilModel, WeilModelElement, builtin_action
from weil.superalg import ONE, substitute, unit_exponent
from weil.weil_algebra import (WeilElement, change_of_basis, contract,
                               curvature_generator, d_K, graded_dims,
                               horizontal_project, in_span,
                               koszul_cohomology_dims, koszul_images, lie_derivative,
                               lie_images, multiply, operator_rows, sym_exponents,
                               term_sort_key, weil_basis)
from weil import linalg

SU2 = builtin("su2")


def lam(i, n=3):
    return WeilElement.lam(n, i)


def lamt(i, n=3):
    return WeilElement.lamt(n, i)


def rand_element(rng, n, degree, terms=3):
    keys = weil_basis(n, degree)
    out = WeilElement.zero(n)
    for key in rng.sample(keys, min(terms, len(keys))):
        out = out + WeilElement(n, {key: Fraction(rng.randint(-4, 4) or 1, rng.choice((1, 2, 3)))})
    return out


# -- product ------------------------------------------------------------


def test_odd_square_vanishes():
    assert not multiply(lam(0), lam(0))


def test_sign_rule():
    assert multiply(lam(0), lam(1)) == WeilElement.monomial(3, (0, 1), (0, 0, 0))
    assert multiply(lam(1), lam(0)) == WeilElement.monomial(3, (0, 1), (0, 0, 0), -1)


def test_even_generator_squares():
    assert multiply(lamt(0), lamt(0)) == WeilElement.monomial(3, (), (2, 0, 0))


def test_associative_and_graded_commutative():
    rng = random.Random(11)
    for _ in range(20):
        da, db, dc = rng.randint(0, 3), rng.randint(0, 3), rng.randint(0, 3)
        a, b, c = (rand_element(rng, 3, dd, 2) for dd in (da, db, dc))
        assert multiply(multiply(a, b), c) == multiply(a, multiply(b, c))
        sign = -1 if (da % 2) and (db % 2) else 1
        assert multiply(a, b) == multiply(b, a).scale(sign)


def test_dimension_mismatch():
    with pytest.raises(ValueError):
        multiply(WeilElement.lam(2, 0), WeilElement.lam(3, 0))


# -- Koszul differential --------------------------------------------------


def test_dk_on_generators():
    assert d_K(lam(0)) == lamt(0)
    assert not d_K(lamt(0))


def test_dk_leibniz_hand_expansion():
    # d(l1 ^ l2) = t1*l2 - l1*t2
    got = d_K(multiply(lam(0), lam(1)))
    expected = multiply(lamt(0), lam(1)) - multiply(lam(0), lamt(1))
    assert got == expected
    assert got == WeilElement(3, {(0b010, (1, 0, 0)): Fraction(1),
                                  (0b001, (0, 1, 0)): Fraction(-1)})


def test_dk_squared_zero_on_bases():
    for n in (1, 2, 3):
        for d in range(9):
            for key in weil_basis(n, d):
                assert not d_K(d_K(WeilElement(n, {key: Fraction(1)})))


def test_dk_graded_leibniz_random():
    rng = random.Random(13)
    for _ in range(20):
        da, db = rng.randint(0, 4), rng.randint(0, 4)
        a, b = rand_element(rng, 3, da), rand_element(rng, 3, db)
        sign = -1 if da % 2 else 1
        assert d_K(multiply(a, b)) == multiply(d_K(a), b) + multiply(a, d_K(b)).scale(sign)


# -- contraction ----------------------------------------------------------


def test_contract_exterior_generator():
    assert contract(SU2, basis_vector(3, 0), lam(0)) == WeilElement.unit(3)
    assert not contract(SU2, basis_vector(3, 0), lam(1))


def test_contract_abelian_sym_zero():
    L = builtin("abelian(3)")
    for i in range(3):
        assert not contract(L, basis_vector(3, 1), lamt(i))


def test_contract_sym_generator_is_coadjoint():
    # iota_xi lamt_i = ad*_xi lam_i under the liealg convention; this sign is
    # the one forced by iota_l(Omega^i) = 0 and the Cartan identities
    for l in range(3):
        xi = basis_vector(3, l)
        for i in range(3):
            co = coadjoint_dual_basis(SU2, xi, i)
            expected = WeilElement(3, {(1 << j, (0, 0, 0)): c for j, c in co.items()})
            assert contract(SU2, xi, lamt(i)) == expected
    # frozen instance: iota_{e1} lamt_2 = + lam_3
    assert contract(SU2, basis_vector(3, 0), lamt(1)) == lam(2)


def test_contract_dimension_mismatch():
    with pytest.raises(ValueError):
        contract(SU2, [Fraction(1)], lam(0))


def test_contract_squares_and_anticommutators():
    rng = random.Random(17)
    for _ in range(15):
        a = rand_element(rng, 3, rng.randint(0, 5))
        xi = [Fraction(rng.randint(-2, 2)) for _ in range(3)]
        eta = [Fraction(rng.randint(-2, 2)) for _ in range(3)]
        assert not contract(SU2, xi, contract(SU2, xi, a))
        anti = contract(SU2, xi, contract(SU2, eta, a)) \
            + contract(SU2, eta, contract(SU2, xi, a))
        assert not anti


# -- Lie derivative ---------------------------------------------------------


def test_lie_abelian_vanishes():
    rng = random.Random(19)
    L = builtin("abelian(3)")
    for _ in range(10):
        a = rand_element(rng, 3, rng.randint(0, 4))
        assert not lie_derivative(L, basis_vector(3, 0), a)


def test_lie_zero_vector():
    assert not lie_derivative(SU2, [Fraction(0)] * 3, lam(0))


def test_lie_on_lam1_two_term_evaluation():
    # L_{e1} lam_1 = d(iota lam_1) + iota(lamt_1) = 0 + ad*_{e1} lam_1 = 0
    assert not lie_derivative(SU2, basis_vector(3, 0), lam(0))
    # and a nonzero instance: L_{e1} lam_2 = ad*_{e1} lam_2 = lam_3
    assert lie_derivative(SU2, basis_vector(3, 0), lam(1)) == lam(2)


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_lie_derivative_matches_cartan_formula(name):
    # lie_derivative is one even derivation; the oracle is d_K iota + iota d_K
    L = builtin(name)
    rng = random.Random(29)
    for degree in range(7):
        for _ in range(3):
            a = rand_element(rng, L.dim, degree)
            xi = [Fraction(rng.randint(-2, 2)) for _ in range(L.dim)]
            assert lie_derivative(L, xi, a) == d_K(contract(L, xi, a)) + contract(L, xi, d_K(a))


def test_cartan_bracket_package():
    rng = random.Random(23)
    for _ in range(25):
        a = rand_element(rng, 3, rng.randint(0, 6))
        xi = [Fraction(rng.randint(-2, 2)) for _ in range(3)]
        eta = [Fraction(rng.randint(-2, 2)) for _ in range(3)]
        br = SU2.bracket(xi, eta)
        li = lie_derivative(SU2, xi, a)
        assert lie_derivative(SU2, xi, contract(SU2, eta, a)) - contract(SU2, eta, li) \
            == contract(SU2, br, a)
        assert lie_derivative(SU2, xi, lie_derivative(SU2, eta, a)) \
            - lie_derivative(SU2, eta, li) == lie_derivative(SU2, br, a)


# -- curvature generators -----------------------------------------------------


def test_curvature_generator_abelian():
    L = builtin("abelian(2)")
    assert curvature_generator(L, 1) == WeilElement.lamt(2, 1)


def test_curvature_generator_su2():
    assert curvature_generator(SU2, 0) == lamt(0) + multiply(lam(1), lam(2))


def test_curvature_generator_heisenberg():
    h = builtin("heisenberg3")
    assert curvature_generator(h, 2) == lamt(2) + multiply(lam(0), lam(1))


def test_curvature_generator_index_error():
    with pytest.raises(IndexError):
        curvature_generator(SU2, 3)


def test_omega_horizontal_for_builtins():
    for name in ("su2", "so3", "heisenberg3", "abelian(3)"):
        L = builtin(name)
        n = L.dim
        for i in range(n):
            om = curvature_generator(L, i)
            for l in range(n):
                assert not contract(L, basis_vector(n, l), om), name


# -- horizontal projector -----------------------------------------------------


def test_horizontal_project_examples():
    assert not horizontal_project(SU2, lam(0))
    L = builtin("abelian(3)")
    assert horizontal_project(L, WeilElement.lamt(3, 1)) == WeilElement.lamt(3, 1)
    assert horizontal_project(SU2, WeilElement.unit(3)) == WeilElement.unit(3)
    # the projector rebuilds the curvature generator from the bare symmetric one
    assert horizontal_project(SU2, lamt(0)) == curvature_generator(SU2, 0)


def test_horizontal_project_idempotent_and_horizontal():
    rng = random.Random(29)
    for _ in range(15):
        a = rand_element(rng, 3, rng.randint(0, 5))
        h = horizontal_project(SU2, a)
        assert horizontal_project(SU2, h) == h
        for l in range(3):
            assert not contract(SU2, basis_vector(3, l), h)


# -- basic subspace -----------------------------------------------------------


def test_basic_abelian2_degree2():
    L = builtin("abelian(2)")
    basis = basic_subspace(L, 2)
    assert len(basis) == 2
    assert in_span(basis, WeilElement.lamt(2, 0))
    assert in_span(basis, WeilElement.lamt(2, 1))


def test_basic_su2_degree4_contains_casimir_in_omegas():
    basis = basic_subspace(SU2, 4)
    assert len(basis) == 1
    cas = WeilElement.zero(3)
    for i in range(3):
        om = curvature_generator(SU2, i)
        cas = cas + multiply(om, om)
    assert in_span(basis, cas)


def test_basic_su2_degree2_empty():
    assert basic_subspace(SU2, 2) == []


def test_basic_su2_dims_and_dk_vanishes():
    dims = [len(basic_subspace(SU2, d)) for d in range(9)]
    assert dims == [1, 0, 0, 0, 1, 0, 0, 0, 1]
    for d in (4, 8):
        for v in basic_subspace(SU2, d):
            assert not d_K(v)


# -- change of basis -----------------------------------------------------------


def substitute_change_of_basis(L, elements):
    """The previous change_of_basis, one ``superalg.substitute`` per element:
    lamt_i -> Omega^i and every other generator (dx, x, lam) to itself, the
    Omega^i of a Weil model element lifted by ``from_pair``."""
    out = []
    for a in elements:
        N, m = a.n, a.n - L.dim
        omegas = [curvature_generator(L, i) for i in range(L.dim)]
        if isinstance(a, WeilModelElement):
            omegas = [a.model.from_pair(ChartForm.constant(m), w) for w in omegas]
        odd = [a.with_terms({(1 << g, (0,) * N): ONE}) for g in range(N)]
        even = [a.with_terms({(0, unit_exponent(N, g)): ONE}) for g in range(m)] + omegas
        out.append(substitute(a, odd, even, a.with_terms({(0, (0,) * N): ONE})))
    return out


def test_change_of_basis_matches_substitute_on_seeded_elements():
    rng = random.Random(32)
    for name in ("su2", "sl2", "so3", "heisenberg3", "abelian(3)"):
        L = builtin(name)
        elements = [rand_element(rng, 3, degree, rng.randint(1, 6))
                    for degree in range(9) for _ in range(3)]
        assert change_of_basis(L, elements) == substitute_change_of_basis(L, elements), name


GOLDEN_INPUTS = Path(__file__).parent / "golden" / "inputs"


@pytest.mark.parametrize("name, degree, cap", [("su2", 4, 2), ("heisenberg3", 4, 2)])
def test_change_of_basis_matches_substitute_on_golden_conjugate_relations(name, degree, cap):
    # the relations of the basic system are basic elements in Omega coordinates,
    # with dx, x and lam in every chart and Weil position
    L = builtin(name)
    action = json.loads((GOLDEN_INPUTS / f"action_{name}_conjugate.json").read_text())
    model = WeilModel(3, L, [[[Fraction(x) for x in row] for row in mat] for mat in action])
    dom, vectors = model.basic_constraint_rows(degree, cap)
    relations = [WeilModelElement(model, {dom[j]: c for j, c in vec.items()})
                 for vec in linalg.relations(vectors)]
    assert relations
    assert change_of_basis(L, relations) == substitute_change_of_basis(L, relations)


def test_change_of_basis_maps_model_elements_of_every_generator():
    # a seeded model element on every generator, against the same map on its factors
    rng = random.Random(33)
    model = WeilModel(3, SU2, builtin_action("adjoint", SU2)[1])
    for _ in range(20):
        keys = model.basis(rng.randint(0, 5), 2)
        w = WeilModelElement(model, {key: Fraction(rng.randint(-5, 5), rng.randint(1, 3))
                                     for key in rng.sample(keys, min(4, len(keys)))})
        assert change_of_basis(SU2, [w]) == substitute_change_of_basis(SU2, [w])


def substitute_basic_subspace(L, degree):
    """basic_subspace as it was: the substitute images of the invariants, their
    RREF over the keys in reversed term order, rows read backwards."""
    if degree % 2:
        return []
    images = substitute_change_of_basis(L, invariant_basis(L, degree // 2))
    keys = sorted({key for a in images for key in a.terms}, key=term_sort_key, reverse=True)
    col = {key: j for j, key in enumerate(keys)}
    _, rows = linalg.rref([{col[key]: c for key, c in a.terms.items()} for a in images])
    return [WeilElement(L.dim, {keys[j]: c for j, c in row.items()}) for row in reversed(rows)]


@pytest.mark.parametrize("name", ["su2", "sl2", "heisenberg3", "abelian(3)"])
def test_basic_subspace_matches_the_substitute_route(name):
    L = builtin(name)
    for degree in range(9):
        assert basic_subspace(L, degree) == substitute_basic_subspace(L, degree), degree


def test_change_of_basis_refuses_an_element_of_another_dimension():
    with pytest.raises(ValueError, match="Weil factor of dimension 2 for an algebra of dimension 3"):
        change_of_basis(SU2, [lamt(0, n=2)])
    # more than L.dim generator pairs is not read as a model element with chart pairs
    for n in (4, 5):
        with pytest.raises(ValueError, match=f"Weil factor of dimension {n} for"):
            change_of_basis(SU2, [lam(n - 1, n=n)])
    rot = WeilModel(2, builtin("abelian(1)"), builtin_action("rot2", builtin("abelian(1)"))[1])
    with pytest.raises(ValueError, match="Weil factor of dimension 1 for an algebra of dimension 3"):
        change_of_basis(SU2, [rot.from_pair(ChartForm.constant(2), WeilElement.lamt(1, 0))])
    assert change_of_basis(SU2, []) == []


def test_change_of_basis_invertible():
    for name in ("su2", "heisenberg3"):
        L = builtin(name)
        n = L.dim
        for deg in range(7):
            keys = weil_basis(n, deg)
            index = {k: i for i, k in enumerate(keys)}
            rows = {}
            images = change_of_basis(L, [WeilElement(n, {key: Fraction(1)}) for key in keys])
            for j, img in enumerate(images):
                for k2, c in img.terms.items():
                    rows.setdefault(index[k2], {})[j] = c
            assert linalg.rank(list(rows.values())) == len(keys)


# -- dimensions ---------------------------------------------------------------


def test_koszul_cohomology_trivial():
    assert koszul_cohomology_dims(1, 6) == [1, 0, 0, 0, 0, 0, 0]
    assert koszul_cohomology_dims(2, 6) == [1, 0, 0, 0, 0, 0, 0]
    assert koszul_cohomology_dims(3, 8) == [1] + [0] * 8


def per_degree_cohomology_dims(n, max_degree):
    """The slow route: one operator_rows call and one rank per degree."""
    dims, ranks = [], [0]  # ranks[d + 1] = rank of d_K on Koss^d
    for d in range(max_degree + 1):
        basis = weil_basis(n, d)
        dims.append(len(basis))
        ranks.append(linalg.rank(operator_rows([koszul_images(n)], basis)))
    return [dims[d] - ranks[d + 1] - ranks[d] for d in range(max_degree + 1)]


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_koszul_cohomology_one_system_matches_per_degree(n):
    for max_degree in range(9):
        assert koszul_cohomology_dims(n, max_degree) == per_degree_cohomology_dims(
            n, max_degree), (n, max_degree)


def block_columns_renumbered(vectors):
    """The vectors with their columns renumbered 0, 1, ... in ascending order."""
    index = {c: j for j, c in enumerate(sorted({c for vec in vectors for c in vec}))}
    return [[(index[c], v) for c, v in vec.items()] for vec in vectors]


@pytest.mark.parametrize("family", ["koszul", "su2", "sl2", "heisenberg3"])
def test_one_domain_keeps_each_degree_block(family):
    # the graded systems are block-diagonal by degree, and the count numbering
    # of one operator_rows call over every degree keeps each block's own
    # column order: a degree's slice, renumbered, is that degree's system alone,
    # entry for entry and in insertion order, so it is eliminated the same way
    if family == "koszul":
        cases = [([koszul_images(n)], [weil_basis(n, d) for d in range(9)]) for n in (1, 2, 3, 4)]
    else:
        L = builtin(family)
        tables = [lie_images(L, basis_vector(L.dim, i)) for i in lie_generators(L)]
        cases = [(tables, [[(0, s) for s in sym_exponents(L.dim, k)] for k in range(9)])]
    for tables, bases in cases:
        vectors = operator_rows(tables, [key for basis in bases for key in basis])
        start = 0
        for basis in bases:
            alone = [list(vec.items()) for vec in operator_rows(tables, basis)]
            assert block_columns_renumbered(vectors[start:start + len(basis)]) == alone
            start += len(basis)
        assert start == len(vectors)


def test_graded_dims():
    assert graded_dims(1, 5) == [1, 1, 1, 1, 1, 1]
    assert graded_dims(2, 2) == [1, 2, 3]
    assert graded_dims(4, 0) == [1]


def test_graded_dims_match_enumeration():
    for n in (1, 2, 3):
        dims = graded_dims(n, 8)
        for d in range(9):
            assert dims[d] == len(weil_basis(n, d))


def test_bidegree_cardinality():
    for n in (2, 3):
        for d in range(7):
            by_bidegree = {}
            for e, s in weil_basis(n, d):
                p, q = bin(e).count("1"), sum(s)
                by_bidegree[(p, q)] = by_bidegree.get((p, q), 0) + 1
            for (p, q), count in by_bidegree.items():
                assert count == comb(n, p) * comb(n + q - 1, q)


# -- bases built in order, against the previous recursive and sorted routes ----


def recursive_sym_exponents(n, q):
    """The previous sym_exponents: one recursion level per variable, in
    descending lexicographic order."""
    if n == 0:
        if q == 0:
            yield ()
        return
    for first in range(q, -1, -1):
        for rest in recursive_sym_exponents(n - 1, q - first):
            yield (first,) + rest


def sorted_weil_basis(n, d):
    """The previous weil_basis: every (mask, exponents) pair, then a key sort."""
    keys = [(mask_of(ext), s) for p in range(min(n, d) + 1) if (d - p) % 2 == 0
            for ext in combinations(range(n), p)
            for s in recursive_sym_exponents(n, (d - p) // 2)]
    keys.sort(key=term_sort_key)
    return keys


def test_sym_exponents_ascend_and_match_the_recursion():
    for n in range(6):
        for q in range(9):
            exps = sym_exponents(n, q)
            assert exps == list(reversed(list(recursive_sym_exponents(n, q)))), (n, q)
            assert exps == sorted(set(exps))
            assert len(exps) == (comb(n + q - 1, q) if n else int(q == 0))
    # long vectors of few variables, in closed form
    assert sym_exponents(1, 19999) == [(19999,)]
    assert sym_exponents(2, 300) == [(i, 300 - i) for i in range(301)]


def test_weil_basis_matches_the_sorted_route():
    for n in range(1, 5):
        for d in range(9):
            assert weil_basis(n, d) == sorted_weil_basis(n, d), (n, d)


def test_thousands_of_variables_need_no_recursion():
    # the recursive route overran the interpreter's recursion limit here
    exps = sym_exponents(3000, 1)
    assert len(exps) == 3000
    assert exps[0] == unit_exponent(3000, 2999) and exps[-1] == unit_exponent(3000, 0)
    assert sym_exponents(3000, 0) == [(0,) * 3000]
    keys = weil_basis(1500, 1)
    assert [mask for mask, _ in keys] == [1 << i for i in range(1500)]
    assert all(s == (0,) * 1500 for _, s in keys)


def test_generator_tables_are_refused_by_n_squared():
    # 141^2 = 19,881 table entries are admitted, 142^2 = 20,164 are not
    assert koszul_cohomology_dims(141, 0) == [1]
    assert len(basic_subspace(builtin("abelian(141)"), 0)) == 1
    for refused in (lambda: koszul_cohomology_dims(142, 0),
                    lambda: basic_subspace(builtin("abelian(142)"), 0)):
        with pytest.raises(ResourceCapError, match="142-dimensional algebra"):
            refused()
