"""The Weil algebra Koss(V*) = Lambda(V*) (x) Sym(V*) with exact coefficients.

Generators: lam_i spanning the exterior factor (degree 1) and lamt_i spanning
the symmetric factor (degree 2).  The Koszul differential sends lam_i to
lamt_i and lamt_i to 0.  Only exterior generators anticommute.

This is the algebra of :mod:`weil.superalg` with odd lam_i and even lamt_i:
a basis monomial is keyed by (ext_mask, sym_exponents), and each derivation
is a table of generator images.  Term order is lexicographic by (total
degree, ext mask, sym vector), which fixes the echelon bases produced by the
kernel solvers.
"""

from __future__ import annotations

from itertools import combinations
from math import comb

from . import linalg
from .liealg import LieAlgebra, basis_vector, coadjoint_dual_basis, frac
from .masks import indices_of, mask_of
from .schur_oracle import capped_comb, check_size
from .superalg import (ONE, Key, SuperElement, _left_multiply, derivation,  # noqa: F401
                       in_span, multiply, operator_rows, unit_exponent)


def key_degree(key: Key) -> int:
    e, s = key
    return e.bit_count() + 2 * sum(s)


def term_sort_key(key: Key):
    e, s = key
    return (key_degree(key), e, s)


class WeilElement(SuperElement):
    """Sparse element of Lambda(V*) (x) Sym(V*): lam_i odd of degree 1, lamt_i even of degree 2."""

    __slots__ = ()

    @classmethod
    def lam(cls, n, i):
        _check_index(n, i)
        return cls(n, {(1 << i, (0,) * n): ONE})

    @classmethod
    def lamt(cls, n, i):
        _check_index(n, i)
        return cls(n, {(0, unit_exponent(n, i)): ONE})

    key_degree = staticmethod(key_degree)

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda kv: term_sort_key(kv[0]))

    def __repr__(self):
        if not self.terms:
            return "WeilElement(0)"
        bits = []
        for (e, s), c in self.sorted_terms():
            gens = [f"l{i + 1}" for i in indices_of(e)]
            gens += [f"t{i + 1}^{q}" if q > 1 else f"t{i + 1}" for i, q in enumerate(s) if q]
            bits.append(f"{c}*" + ("*".join(gens) if gens else "1"))
        return " + ".join(bits)


def _check_index(n, i):
    if not 0 <= i < n:
        raise IndexError(f"generator index {i} out of range for dimension {n}")


def _check_algebra(L: LieAlgebra, a: WeilElement):
    if L.dim != a.n:
        raise ValueError("algebra dimension does not match element")


# -- derivations: generator-image tables for superalg.derivation -----


def koszul_images(n):
    """d_K: lam_i -> lamt_i, lamt_i -> 0 (odd)."""
    return [{(0, unit_exponent(n, i)): ONE} for i in range(n)], [None] * n


def contraction_images(L: LieAlgebra, xi):
    """iota_xi: lam_i -> <xi, lam_i>, lamt_i -> ad*_xi lam_i (odd).

    The symmetric-generator image is the coadjoint convention of
    :mod:`weil.liealg` applied with a plus sign; this is the choice under
    which iota_l(Omega^i) = 0 and the Cartan bracket identities hold.
    """
    n = L.dim
    zero = (0,) * n
    coadj = [coadjoint_dual_basis(L, xi, i) for i in range(n)]
    return ([{(0, zero): frac(x)} if x else None for x in xi],
            [{(1 << j, zero): c for j, c in co.items()} for co in coadj])


def lie_images(L: LieAlgebra, xi):
    """L_xi = d_K iota_xi + iota_xi d_K, an even derivation:
    lam_i -> ad*_xi lam_i, lamt_i -> (ad*_xi lam_i)~."""
    n = L.dim
    zero = (0,) * n
    coadj = [coadjoint_dual_basis(L, xi, i) for i in range(n)]
    return ([{(1 << j, zero): c for j, c in co.items()} for co in coadj],
            [{(0, unit_exponent(n, j)): c for j, c in co.items()} for co in coadj])


odd_derivation = derivation  # the name d_K and contract apply their tables by


def d_K(a: WeilElement) -> WeilElement:
    """Koszul differential."""
    return odd_derivation(a, *koszul_images(a.n))


def contract(L: LieAlgebra, xi, a: WeilElement) -> WeilElement:
    """Contraction iota_xi, see :func:`contraction_images`."""
    _check_algebra(L, a)
    return odd_derivation(a, *contraction_images(L, xi))


def lie_derivative(L: LieAlgebra, xi, a: WeilElement) -> WeilElement:
    """Lie derivative L_xi, see :func:`lie_images`."""
    _check_algebra(L, a)
    return derivation(a, *lie_images(L, xi))


# -- distinguished elements ------------------------------------------


def curvature_generator(L: LieAlgebra, i: int) -> WeilElement:
    """Omega^i = d_K lam_i + 1/2 f^i_{jk} lam_j lam_k, the curvature of theta = lam."""
    n = L.dim
    _check_index(n, i)
    out = d_K(WeilElement.lam(n, i))
    for (j, k, a), c in L.structure.items():
        if a == i and j < k:
            out = out + WeilElement.monomial(n, (j, k), (0,) * n, c)
    return out


def horizontal_project(L: LieAlgebra, a: WeilElement) -> WeilElement:
    """prod_i (1 - theta^i iota_i), applied for i = 1..n ascending."""
    n = L.dim
    h = a
    for i in range(n):
        h = h - multiply(WeilElement.lam(n, i), contract(L, basis_vector(n, i), h))
    return h


def change_of_basis(L: LieAlgebra, elements) -> list[SuperElement]:
    """The algebra map lamt_i -> Omega^i, every other generator fixed, on Weil
    elements or on Weil model elements, whose trailing L.dim generator pairs
    are the Weil factor.  Omega^e is even, so a term c u lamt^e, u the rest of
    its key, maps to c Omega^e u by one product, Omega^e memoised per count m
    of chart pairs.  Omega_i is built only for an i that some term holds."""
    n, zero, powers, omegas = L.dim, (0,) * L.dim, {}, {}

    def power(m, e):  # Omega^(e - 1_i) Omega_i, i the last nonzero index of e
        if (m, e) not in powers:
            i = max(j for j, q in enumerate(e) if q)
            if i not in omegas:
                omegas[i] = curvature_generator(L, i).terms
            lower, powers[m, e] = power(m, e[:i] + (e[i] - 1,) + e[i + 1:]), {}
            for (mask, exps), c in omegas[i].items():
                _left_multiply(powers[m, e], lower, mask << m, (0,) * m + exps, c)
        return powers[m, e]

    images = []
    for a in elements:
        m = 0 if isinstance(a, WeilElement) else a.model.m
        if a.n - m != n:
            raise ValueError(f"Weil factor of dimension {a.n - m} for an algebra of dimension {n}")
        powers[m, zero], image = {(0, (0,) * a.n): ONE}, {}
        for (mask, exps), c in a.terms.items():
            _left_multiply(image, power(m, exps[m:]), mask, exps[:m] + zero, c)
        images.append(a.with_terms(image))
    return images


# -- bases and matrices ----------------------------------------------


def sym_exponents(n, q):
    """Exponent vectors of length n summing to q, in ascending lexicographic order.

    Each vector is the next composition of the one before: move one unit
    from its last nonzero entry t to entry t - 1 and the rest of entry t to
    the end, O(1) per step and one tuple copy, O(n), per vector.
    """
    if not n:
        return [] if q else [()]
    exps = [0] * n
    exps[-1] = q
    out = [tuple(exps)]
    last = n - 1  # the last nonzero entry, while q > 0
    while last and q:
        v = exps[last]
        exps[last] = 0
        exps[last - 1] += 1
        exps[-1] = v - 1
        last = n - 1 if v > 1 else last - 1
        out.append(tuple(exps))
    return out


def weil_basis(n, d):
    """Basis keys of total degree d in canonical term order: by ext mask, then sym exponents."""
    syms = {p: sym_exponents(n, (d - p) // 2) for p in range(d % 2, min(n, d) + 1, 2)}
    masks = sorted(mask_of(ext) for p in syms for ext in combinations(range(n), p))
    return [(mask, s) for mask in masks for s in syms[mask.bit_count()]]


def koszul_dim(n, d):
    """dim Koss^d, capped like `capped_comb`: with lamt_i in degree 2 the
    Hilbert series is (1+t)^n / (1-t^2)^n = (1-t)^-n, so dim Koss^d =
    C(n+d-1, d), nondecreasing in d."""
    return capped_comb(n + d - 1, d)


def graded_dims(n, max_degree):
    """[dim Koss^d]_{d=0..D} = [C(n+d-1, d)]."""
    if n < 1:
        raise ValueError("dimension must be >= 1")
    return [comb(n + d - 1, d) for d in range(max_degree + 1)]


def koszul_cohomology_dims(n, max_degree):
    """dim H^d(Koss, d_K) for d = 0..max_degree, from the rank of the image
    vectors of d_K on each Koss^d.

    The keys of every degree form one domain and one ``operator_rows`` call.
    d_K maps Koss^d into Koss^{d+1}, so two degrees never share a column,
    and the count numbering keeps each degree's own column order: the rank
    of each degree's contiguous slice of vectors is eliminated as it would
    be alone.
    """
    if n < 1:
        raise ValueError("dimension must be >= 1")
    if max_degree < 0:
        raise ValueError("max_degree must be >= 0")
    # the bases of every degree to D + 1: sum_{d <= D+1} dim Koss^d = C(n+D+1, D+1)
    check_size(capped_comb(n + max_degree + 1, max_degree + 1),
               f"Koss^<={max_degree + 1} of dimension {n}")
    check_size(n * n, f"each generator table of a {n}-dimensional algebra")
    bases = [weil_basis(n, d) for d in range(max_degree + 1)]
    vectors = operator_rows([koszul_images(n)], [key for basis in bases for key in basis])
    ranks, start = [0], 0  # ranks[d + 1] = rank of d_K on Koss^d
    for basis in bases:
        ranks.append(linalg.rank(vectors[start:start + len(basis)]))
        start += len(basis)
    return [len(basis) - ranks[d + 1] - ranks[d] for d, basis in enumerate(bases)]
