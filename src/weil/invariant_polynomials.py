"""Invariant polynomials (Sym^k g*)^g and their Chern-Weil image, the basic subspace.

Invariance is infinitesimal: P is invariant when the derivation extension of
ad*_{e_i} kills it for every basis vector e_i.  For connected groups this
agrees with group invariance; the component group is not representable from
structure constants alone, so the output is labelled as g-invariants.  As
xi -> L_xi is a Lie algebra homomorphism, the e_i of ``liealg.lie_generators``
suffice.

The derivation action is weil_algebra's Lie derivative restricted to
bidegree (0, k): one code path, one sign convention.  Every degree a call
asks for is solved as one system, one ``operator_rows`` call and one
``linalg.relations``, which splits by degree because the system is
block-diagonal: L_xi preserves the degree of Sym^k.  The horizontal
subalgebra of the Weil algebra is Sym(Omega) and lamt -> Omega is
g-equivariant, so the basic elements of degree 2k are the change_of_basis
image of (Sym^k g*)^g, and there are none in odd degree.
"""

from __future__ import annotations

from . import linalg
from .liealg import LieAlgebra, basis_vector, lie_generators
from .schur_oracle import capped_comb, check_size
from .weil_algebra import (WeilElement, change_of_basis, lie_images,
                           operator_rows, sym_exponents, term_sort_key)


def is_sym_element(a: WeilElement) -> bool:
    return all(e == 0 for e, _ in a.terms)


def invariant_dims(L: LieAlgebra, max_k):
    """[dim (Sym^k g*)^g]_{k=0..max_k}."""
    return [len(basis) for basis in invariant_bases(L, max_k)]


def invariant_bases(L: LieAlgebra, max_k):
    """[invariant_basis(L, k)]_{k=0..max_k}, refused up front when the spaces
    together are over the cap, and solved as one system: see :func:`_kernels`."""
    if max_k < 0:
        raise ValueError("max_degree must be >= 0")
    # sum_{k <= K} dim Sym^k = sum_k C(n+k-1, k) = C(n+K, K)
    _check_sym_size(L.dim, capped_comb(L.dim + max_k, max_k), f"Sym^<={max_k}")
    return _kernels(L, range(max_k + 1))


def _check_sym_size(n, size, space):
    check_size(size, f"{space} of a {n}-dimensional algebra")
    # the n tables of L hold n images on keys of n exponents
    check_size(n * n, f"each generator table of a {n}-dimensional algebra")


def invariant_basis(L: LieAlgebra, k):
    """Deterministic echelon basis of (Sym^k g*)^g as sym-only WeilElements.

    The constraints are L_{e_i} P = 0 for the e_i of ``liealg.lie_generators``
    only: xi -> L_xi is a Lie algebra homomorphism (the coadjoint convention
    of :mod:`weil.liealg`), so what a generating set kills, all of g kills.
    The kernel is the same subspace over the same columns as with all n
    tables, and ``linalg.relations`` of the image vectors returns its
    canonical RREF basis, so the basis is the same too.  It is the one-degree
    case of :func:`_kernels`, which solves every degree of ``invariant_bases``.
    """
    _check_sym_size(L.dim, capped_comb(L.dim + k - 1, k), f"Sym^{k}")
    return _kernels(L, range(k, k + 1))[0]


def _generator_tables(L: LieAlgebra):
    return [lie_images(L, basis_vector(L.dim, i)) for i in lie_generators(L)]


def _kernels(L: LieAlgebra, degrees):
    """The invariant basis of every Sym^k, k in ``degrees`` (ascending), from one system.

    The keys of every degree form one domain: one ``operator_rows`` call with
    the generator tables, and one ``linalg.relations`` of its vectors.  The
    system is block-diagonal by degree (L_xi preserves the degree of Sym^k,
    so two degrees never share a column), and the count numbering keeps each
    block's own column order, so each block is eliminated as it would be
    alone: the same pivots, fill and canonical basis.  A relation belongs to
    the degree of its first (free) index.
    """
    n = L.dim
    dom = [(0, s) for k in degrees for s in sym_exponents(n, k)]
    bases = [[] for _ in degrees]
    for vec in linalg.relations(operator_rows(_generator_tables(L), dom)):
        bases[sum(dom[next(iter(vec))][1]) - degrees[0]].append(
            WeilElement(n, {dom[j]: c for j, c in vec.items()}))
    return bases


def basic_subspace(L: LieAlgebra, total_degree):
    """Echelon basis of {a : iota_{e_i} a = 0 and L_{e_i} a = 0 for all i}: the
    ``linalg.echelon`` over the Weil keys in term order of the ``change_of_basis``
    images of the invariants, the canonical kernel basis of the full iota/L system."""
    if total_degree < 0:
        raise ValueError("degree must be >= 0")
    if total_degree % 2:
        return []
    images = change_of_basis(L, invariant_basis(L, total_degree // 2))
    keys = sorted({key for a in images for key in a.terms}, key=term_sort_key)
    return [WeilElement(L.dim, terms) for terms in linalg.echelon([a.terms for a in images], keys)]
