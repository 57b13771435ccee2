"""Invariant polynomials (Sym^k g*)^g as coadjoint-derivation kernels.

Invariance is infinitesimal: P is invariant when the derivation extension of
ad*_{e_i} kills it for every basis vector e_i.  For connected groups this
agrees with group invariance; the component group is not representable from
structure constants alone, so the output is labelled as g-invariants.

The derivation action is weil_algebra's Lie derivative restricted to
bidegree (0, k): one code path, one sign convention.
"""

from __future__ import annotations

from . import linalg
from .liealg import LieAlgebra, basis_vector
from .weil_algebra import (WeilElement, derivation, in_span, lie_images,
                           operator_rows, sym_exponents, term_sort_key,
                           vector_element)


def sym_basis(n, k):
    """Basis keys of bidegree (0, k), canonical order."""
    keys = [(0, s) for s in sym_exponents(n, k)]
    keys.sort(key=term_sort_key)
    return keys


def is_sym_element(a: WeilElement) -> bool:
    return all(e == 0 for e, _ in a.terms)


def _invariant_kernel(L: LieAlgebra, k):
    n = L.dim
    dom = sym_basis(n, k)
    zero = WeilElement(n)
    rows = []
    for i in range(n):
        lie = lie_images(L, basis_vector(n, i))
        rows += operator_rows(lambda a, t=lie: derivation(a, *t, False), zero, dom, dom)
    return dom, linalg.nullspace(rows, len(dom))


def invariant_dims(L: LieAlgebra, max_k):
    """[dim (Sym^k g*)^g]_{k=0..max_k}."""
    if max_k < 0:
        raise ValueError("max_degree must be >= 0")
    return [len(_invariant_kernel(L, k)[1]) for k in range(max_k + 1)]


def invariant_basis(L: LieAlgebra, k):
    """Deterministic echelon basis of (Sym^k g*)^g as sym-only WeilElements."""
    dom, kernel = _invariant_kernel(L, k)
    return [vector_element(L.dim, vec, dom) for vec in kernel]


def in_invariant_span(L: LieAlgebra, element: WeilElement) -> bool:
    """Membership of a bidegree-(0,k) element in (Sym^k g*)^g."""
    if not is_sym_element(element):
        raise ValueError("element has a nonzero exterior part")
    _, k = element.bidegree()
    return in_span(invariant_basis(L, k), element)
