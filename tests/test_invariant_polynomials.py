from fractions import Fraction

import random

import pytest
from test_liealg import generator_algebras

from weil import linalg
from weil.equivariant import WeilModel
from weil.invariant_polynomials import (invariant_bases, invariant_basis, invariant_dims,
                                        is_sym_element)
from weil.liealg import BUILTIN_NAMES, basis_vector, builtin, lie_generators
from weil.superalg import substitute
from weil.weil_algebra import (WeilElement, curvature_generator, in_span, lie_images, multiply,
                               operator_rows, sym_exponents)


def in_invariant_span(L, element):
    """Membership of a bidegree-(0,k) element in (Sym^k g*)^g."""
    if not is_sym_element(element):
        raise ValueError("element has a nonzero exterior part")
    degrees = {sum(exps) for _, exps in element.terms}
    assert len(degrees) == 1, "element is not homogeneous (or is zero)"
    return in_span(invariant_basis(L, degrees.pop()), element)


def casimir(n=3):
    out = WeilElement.zero(n)
    for i in range(n):
        out = out + multiply(WeilElement.lamt(n, i), WeilElement.lamt(n, i))
    return out


def test_abelian_everything_invariant():
    assert invariant_dims(builtin("abelian(2)"), 3) == [1, 2, 3, 4]


def test_su2_dims():
    assert invariant_dims(builtin("su2"), 4) == [1, 0, 1, 0, 1]


def test_su2_degree2_is_casimir_line():
    su2 = builtin("su2")
    basis = invariant_basis(su2, 2)
    assert len(basis) == 1
    assert in_invariant_span(su2, casimir())


def test_su2_degree1_empty():
    assert invariant_basis(builtin("su2"), 1) == []


def test_abelian1_degree5():
    basis = invariant_basis(builtin("abelian(1)"), 5)
    assert basis == [WeilElement(1, {(0, (5,)): Fraction(1)})]


def test_heisenberg_linear_invariants_are_commutator_annihilator():
    # the invariant linear functionals kill [g, g] = span{e3}: they are
    # lam_1, lam_2; the center's dual coordinate lam_3 is NOT Ad-invariant
    # (ad_{e1} e2 = e3 changes its coefficient), confirmed by the kernel oracle
    h = builtin("heisenberg3")
    assert invariant_dims(h, 1) == [1, 2]
    basis = invariant_basis(h, 1)
    assert in_invariant_span(h, WeilElement.lamt(3, 0))
    assert in_invariant_span(h, WeilElement.lamt(3, 1))
    assert not in_invariant_span(h, WeilElement.lamt(3, 2))
    assert len(basis) == 2


def test_is_sym_element_guard():
    with pytest.raises(ValueError):
        in_invariant_span(builtin("su2"), WeilElement.lam(3, 0))
    assert is_sym_element(casimir())
    assert not is_sym_element(WeilElement.lam(3, 0))


def point_model(L):
    """The Weil model on a point: the full iota/L system over the Weil basis."""
    return WeilModel(0, L, [[]] * L.dim)


def test_bridge_dims_all_builtins():
    # Chern-Weil bridge: the basic subspace of degree 2k, solved over the
    # whole Weil basis, has the dimension of (Sym^k g*)^g for every built-in
    # algebra, and odd degrees have none
    for name in BUILTIN_NAMES:
        L = builtin(name)
        model = point_model(L)
        dims = invariant_dims(L, 4)
        for k in range(5):
            assert model.basic_dim(2 * k, 0) == dims[k], (name, k)
            assert model.basic_dim(2 * k + 1, 0) == 0, (name, k)


def test_bridge_substitution_lands_in_basic():
    # substituting lamt_i -> Omega^i sends invariant polynomials into the
    # basic subspace
    for name in ("su2", "heisenberg3"):
        L = builtin(name)
        n = L.dim
        lam_images = [WeilElement.lam(n, i) for i in range(n)]
        omega_images = [curvature_generator(L, i) for i in range(n)]
        for k in (1, 2):
            basic = point_model(L).basic_basis(2 * k, 0)
            for P in invariant_basis(L, k):
                image = substitute(P, lam_images, omega_images, WeilElement.unit(n))
                assert in_span(basic, image), (name, k)


def test_invariant_ring_closed_under_products():
    su2 = builtin("su2")
    cas = invariant_basis(su2, 2)[0]
    assert in_invariant_span(su2, multiply(cas, cas))
    h = builtin("heisenberg3")
    a, b = invariant_basis(h, 1)
    assert in_invariant_span(h, multiply(a, b))
    assert in_invariant_span(h, multiply(a, a))


def kernel_over(L, indices, k):
    """The slow route: the kernel of one lie_images table per e_i, i in indices,
    on Sym^k, as the canonical nullspace over the same columns."""
    n = L.dim
    dom = [(0, s) for s in sym_exponents(n, k)]
    vectors = operator_rows([lie_images(L, basis_vector(n, i)) for i in indices], dom)
    return [WeilElement(n, {dom[j]: c for j, c in vec.items()})
            for vec in linalg.nullspace(linalg.transpose(vectors), len(dom))]


def assert_same_basis(got, expected):
    assert [a.sorted_terms() for a in got] == [b.sorted_terms() for b in expected]


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_generator_kernel_matches_all_tables_on_builtins(name):
    L = builtin(name)
    full = [kernel_over(L, range(L.dim), k) for k in range(9)]
    for k in range(9):
        assert_same_basis(invariant_basis(L, k), full[k])
    for got, expected in zip(invariant_bases(L, 8), full):
        assert_same_basis(got, expected)


def test_generator_kernel_matches_all_tables_on_seeded_algebras():
    # nilpotent, solvable R x|_A R^k and su2 + abelian(1), each also on a
    # random basis; where a generator was dropped the two routes differ in
    # their constraints, not in their kernel
    rng = random.Random(61)
    shrunk = 0
    for L in generator_algebras(rng):
        shrunk += len(lie_generators(L)) < L.dim
        max_k = 4 if L.dim <= 4 else 3
        full = [kernel_over(L, range(L.dim), k) for k in range(max_k + 1)]
        for k in range(max_k + 1):
            assert_same_basis(invariant_basis(L, k), full[k])
        bases = invariant_bases(L, max_k)
        assert len(bases) == max_k + 1
        for got, expected in zip(bases, full):
            assert_same_basis(got, expected)
    assert shrunk >= 4


def test_a_non_generating_set_has_a_larger_kernel():
    # {e_1} does not generate su2: its kernel is strictly larger at some k <= 3,
    # so agreement with the full kernel is not automatic
    su2 = builtin("su2")
    sizes = [(len(kernel_over(su2, [0], k)), len(kernel_over(su2, range(3), k)))
             for k in range(4)]
    assert all(part >= full for part, full in sizes)
    assert any(part > full for part, full in sizes)


def test_one_system_splits_into_empty_and_unit_degrees():
    # su2 has no invariant of odd degree: those blocks of the one system
    # yield no relation, and the blocks around them keep theirs
    su2 = builtin("su2")
    bases = invariant_bases(su2, 7)
    assert [len(basis) for basis in bases] == [1, 0, 1, 0, 1, 0, 1, 0]
    for k, basis in enumerate(bases):
        assert_same_basis(basis, kernel_over(su2, range(3), k))
    # K = 0: the constants alone
    for name in BUILTIN_NAMES:
        L = builtin(name)
        assert invariant_bases(L, 0) == [[WeilElement.unit(L.dim)]]


@pytest.mark.parametrize("n", [1, 2, 3])
def test_abelian_one_system_is_every_monomial(n):
    # every image vector is zero, so every key is a relation of its own,
    # and each degree gets its monomials in ascending exponent order
    L = builtin(f"abelian({n})")
    expected = [[WeilElement(n, {(0, s): 1}) for s in sym_exponents(n, k)] for k in range(7)]
    assert invariant_bases(L, 6) == expected
    assert [invariant_basis(L, k) for k in range(7)] == expected
