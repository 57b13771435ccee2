"""Finite-dimensional real Lie algebras given by structure constants.

The structure table stores f^k_{ij} with [e_i, e_j] = sum_k f^k_{ij} e_k
(all indices 0-based internally; the JSON interface is 1-based).  The
coadjoint convention is fixed once and for all as

    (ad*_xi l)(eta) = -l([xi, eta]),

which makes xi -> ad*_xi a Lie algebra homomorphism.
"""

from __future__ import annotations

import re
from collections import namedtuple
from fractions import Fraction
from math import lcm

from . import linalg


def frac(x) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


class LieAlgebra:
    __slots__ = ("dim", "structure", "name")

    def __init__(self, dim: int, structure: dict, name: str | None = None):
        self.dim = dim
        self.structure = structure  # (i, j, k) -> Fraction, sparse
        self.name = name

    def f(self, i, j, k) -> Fraction:
        return self.structure.get((i, j, k), Fraction(0))

    def bracket(self, xi, eta):
        """[xi, eta] for coordinate vectors."""
        if len(xi) != self.dim or len(eta) != self.dim:
            raise ValueError("vector dimension does not match algebra")
        out = [Fraction(0)] * self.dim
        for (i, j, k), c in self.structure.items():
            if xi[i] and eta[j]:
                out[k] += c * xi[i] * eta[j]
        return out

    def __eq__(self, other):
        if not isinstance(other, LieAlgebra):
            return NotImplemented
        return self.dim == other.dim and _clean(self.structure) == _clean(other.structure)

    def __repr__(self):
        return f"LieAlgebra(dim={self.dim!r}, name={self.name!r})"


def _clean(table):
    return {key: frac(c) for key, c in table.items() if c}


def make_lie_algebra(dim, entries, name=None) -> LieAlgebra:
    """Build an algebra from entries {(i, j, k): c}; antisymmetry is NOT implied."""
    return LieAlgebra(dim=dim, structure=_clean({k: frac(c) for k, c in entries.items()}), name=name)


def from_brackets(dim, brackets, name=None) -> LieAlgebra:
    """Build from {(i, j): {k: c}} given only for i < j; fills f^k_{ji} = -f^k_{ij}."""
    table = {}
    for (i, j), img in brackets.items():
        if not i < j:
            raise ValueError("from_brackets expects i < j keys")
        for k, c in img.items():
            table[(i, j, k)] = frac(c)
            table[(j, i, k)] = -frac(c)
    return make_lie_algebra(dim, table, name)


# kind is "antisymmetry" or "jacobi"; indices is the failing (i, j, k) or (i, j, k, l)
Violation = namedtuple("Violation", "kind indices")


def validate(L: LieAlgebra):
    """None if antisymmetry and Jacobi hold exactly, else the lexicographically
    first Violation.  Only the nonzero structure constants are visited."""
    n = L.dim
    table = {key: c for key, c in L.structure.items() if c and all(0 <= x < n for x in key)}
    bad = [t for (i, j, k), c in table.items() if table.get((j, i, k), 0) != -c
           for t in ((i, j, k), (j, i, k))]
    if bad:
        return Violation("antisymmetry", min(bad))
    # T(i, j, k, l) = sum_m f^m_ij f^l_mk, from the pairs of entries that share m
    by_first = {}
    for (m, k, l), c in table.items():
        by_first.setdefault(m, []).append((k, l, c))
    T = {}
    for (i, j, m), c in table.items():
        for k, l, c2 in by_first.get(m, ()):
            T[i, j, k, l] = T.get((i, j, k, l), 0) + c * c2
    # the Jacobi sum J(i, j, k, l) = T(i, j, k, l) + T(j, k, i, l) + T(k, i, j, l)
    # is zero unless (i, j, k, l) is a cyclic rotation of a key of T
    bad = [key for i, j, k, l in T for key in ((i, j, k, l), (j, k, i, l), (k, i, j, l))
           if T.get(key, 0) + T.get((key[1], key[2], key[0], l), 0)
           + T.get((key[2], key[0], key[1], l), 0)]
    return Violation("jacobi", min(bad)) if bad else None


def check_representation(L: LieAlgebra, mats):
    """Raise ValueError unless [rho_i, rho_j] = sum_k f^k_ij rho_k for all i, j.

    The check runs on ints: with D the lcm of the matrices' denominators and E
    that of the structure constants', it is E [D rho_i, D rho_j] =
    sum_k (D E f^k_ij) (D rho_k).  Only nonzero entries are multiplied: each
    matrix is kept as its nonzero entries by row, and the structure constants
    are grouped by (i, j) once.
    """
    D, rows = _int_rows(mats)
    E = lcm(*(c.denominator for c in L.structure.values()))
    brackets = {}
    for (i, j, k), c in L.structure.items():
        brackets.setdefault((i, j), []).append((k, D * c.numerator * (E // c.denominator)))

    def product(a, b):
        out = {}
        for r, row in enumerate(rows[a]):
            for t, x in row:
                for s, y in rows[b][t]:
                    out[r, s] = out.get((r, s), 0) + x * y
        return out

    for i in range(L.dim):
        for j in range(L.dim):
            diff = product(i, j)
            for key, v in product(j, i).items():
                diff[key] = diff.get(key, 0) - v
            diff = {key: E * v for key, v in diff.items()}
            for k, c in brackets.get((i, j), ()):
                for r, row in enumerate(rows[k]):
                    for s, x in row:
                        diff[r, s] = diff.get((r, s), 0) - c * x
            if any(diff.values()):
                raise ValueError(f"action matrices violate bracket compatibility at ({i},{j})")


def _int_rows(mats):
    """(D, rows): D the lcm of the entries' denominators, and rows[i][r] the
    nonzero entries (s, D x) of row r of mats[i], on ints."""
    D = lcm(*(x.denominator for mat in mats for row in mat for x in row))
    return D, [[[(s, x.numerator * (D // x.denominator)) for s, x in enumerate(row) if x]
                for row in mat] for mat in mats]


def lie_generators(L: LieAlgebra):
    """Ascending basis indices that generate g as a Lie algebra, read off the
    structure constants alone.

    For k = 0..n-1 in order, e_k is dropped when it lies in the span of the
    indices still kept other than k (those below k that were kept and all
    those above k) and of their brackets [e_i, e_j]: when adding e_k to
    those rows leaves their ``linalg.rank`` unchanged.  By induction from
    k = n-1 down, every e_k lies in the Lie subalgebra the kept set
    generates, so that subalgebra is g.  Any kernel of a Lie algebra
    homomorphism xi -> D_xi taken over the kept e_i alone is then the kernel
    over all of g, since the xi with D_xi P = 0 form a subalgebra.  On the
    builtins this keeps {e_2, e_3} of su2 and so3, {e, f} of sl2,
    {e_1, e_2} of heisenberg3 and every index of abelian(n).
    """
    brackets = {}
    for (i, j, k), c in L.structure.items():
        if i < j:
            brackets.setdefault((i, j), {})[k] = c
    kept = set(range(L.dim))
    for k in range(L.dim):
        others = kept - {k}
        span = [{i: 1} for i in others]
        span += [vec for (i, j), vec in brackets.items() if i in others and j in others]
        if linalg.rank(span + [{k: 1}]) == linalg.rank(span):
            kept.discard(k)
    return sorted(kept)


def adjoint_matrices(L: LieAlgebra):
    """The adjoint representation: one matrix per basis vector, (ad e_i)[k][j] = f^k_ij."""
    n = L.dim
    return [[[L.f(i, j, k) for j in range(n)] for k in range(n)] for i in range(n)]


def coadjoint(L: LieAlgebra, xi):
    """Matrix M of ad*_xi on g* in the dual basis: (M c)_j = coords of ad*_xi(sum c_a l^a).

    M[j][a] = -sum_i xi^i f^a_{ij}, from (ad*_xi l^a)(e_j) = -l^a([xi, e_j]);
    column a is coadjoint_dual_basis(L, xi, a).
    """
    cols = [coadjoint_dual_basis(L, xi, a) for a in range(L.dim)]
    return [[col.get(j, Fraction(0)) for col in cols] for j in range(L.dim)]


def coadjoint_dual_basis(L: LieAlgebra, xi, a) -> dict[int, Fraction]:
    """ad*_xi l^a as a sparse coordinate dict over the dual basis."""
    n = L.dim
    if len(xi) != n:
        raise ValueError("vector dimension does not match algebra")
    out = {}
    for (i, j, aa), c in L.structure.items():
        if aa == a and xi[i]:
            v = out.get(j, Fraction(0)) - frac(xi[i]) * c
            if v:
                out[j] = v
            else:
                out.pop(j, None)
    return out


_EPS = {(0, 1, 2): 1, (1, 2, 0): 1, (2, 0, 1): 1,
        (0, 2, 1): -1, (2, 1, 0): -1, (1, 0, 2): -1}

_ABELIAN_RE = re.compile(r"abelian(?:\(([0-9]+)\)|([0-9]+))")


def builtin(name: str) -> LieAlgebra:
    """Built-in algebras: abelian(n) (also spelt abelian<n>, named abelian(n)), su2,
    so3, sl2, heisenberg3."""
    m = _ABELIAN_RE.fullmatch(name)
    if m:
        digits = m.group(1) or m.group(2)
        if int(digits) < 1:
            raise ValueError("abelian(n) needs n >= 1")
        return make_lie_algebra(int(digits), {}, name=f"abelian({digits})")
    if name in ("su2", "so3"):
        table = {k: Fraction(v) for k, v in _EPS.items()}
        return make_lie_algebra(3, table, name=name)
    if name == "sl2":
        # basis (h, e, f): [h,e] = 2e, [h,f] = -2f, [e,f] = h
        return from_brackets(3, {(0, 1): {1: 2}, (0, 2): {2: -2}, (1, 2): {0: 1}}, name=name)
    if name == "heisenberg3":
        return from_brackets(3, {(0, 1): {2: 1}}, name=name)
    raise ValueError(f"unknown algebra name: {name!r}")


BUILTIN_NAMES = ("abelian(1)", "abelian(2)", "abelian(3)", "su2", "so3", "sl2", "heisenberg3")


def basis_vector(n, i):
    v = [Fraction(0)] * n
    v[i] = Fraction(1)
    return v
