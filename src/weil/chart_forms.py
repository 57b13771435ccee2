"""Differential forms with polynomial coefficients on affine charts R^m.

A form is an element of the algebra of :mod:`weil.superalg` with odd dx_i
and even x_i: a sparse map (dx index set, monomial exponent vector) ->
rational.  Wedge is its product, d its derivation x_i -> dx_i, and pullback
the algebra map x_j -> phi_j, dx_j -> d(phi_j), so all three are exact.
Polynomial coefficients on their own are sparse exponent-vector dicts.
"""

from __future__ import annotations

from fractions import Fraction

from .liealg import frac
from .masks import indices_of
from .superalg import ONE, SuperElement, derivation, multiply, substitute

Mono = tuple[int, ...]
Poly = dict[Mono, Fraction]  # sparse polynomial


# -- polynomial helpers ------------------------------------------------


def poly_const(m, c=1) -> Poly:
    c = frac(c)
    return {(0,) * m: c} if c else {}


def poly_var(m, i, c=1) -> Poly:
    e = [0] * m
    e[i] = 1
    c = frac(c)
    return {tuple(e): c} if c else {}


def poly_add(p: Poly, q: Poly) -> Poly:
    out = dict(p)
    for e, c in q.items():
        v = out.get(e, Fraction(0)) + c
        if v:
            out[e] = v
        else:
            out.pop(e, None)
    return out


def poly_scale(p: Poly, c) -> Poly:
    c = frac(c)
    if not c:
        return {}
    return {e: v * c for e, v in p.items()}


def poly_mul(p: Poly, q: Poly) -> Poly:
    out: Poly = {}
    for e1, c1 in p.items():
        for e2, c2 in q.items():
            e = tuple(a + b for a, b in zip(e1, e2))
            v = out.get(e, Fraction(0)) + c1 * c2
            if v:
                out[e] = v
            else:
                out.pop(e, None)
    return out


def poly_pow(p: Poly, k: int, m: int) -> Poly:
    if k < 0:
        raise ValueError("negative power")
    out = poly_const(m, 1)
    for _ in range(k):
        out = poly_mul(out, p)
    return out


def poly_eval(p: Poly, point) -> Fraction:
    total = Fraction(0)
    for e, c in p.items():
        v = c
        for x, k in zip(point, e):
            for _ in range(k):
                v *= x
        total += v
    return total


def poly_compose(p: Poly, components, source_dim) -> Poly:
    """Substitute x_i -> components[i] (polynomials in source_dim variables)."""
    out: Poly = {}
    cache: dict[tuple[int, int], Poly] = {}

    def power(i, k):
        if (i, k) not in cache:
            cache[(i, k)] = poly_pow(components[i], k, source_dim)
        return cache[(i, k)]

    for e, c in p.items():
        piece = poly_const(source_dim, c)
        for i, k in enumerate(e):
            if k:
                piece = poly_mul(piece, power(i, k))
        out = poly_add(out, piece)
    return out


# -- chart forms -------------------------------------------------------


class ChartForm(SuperElement):
    """Polynomial-coefficient differential form on R^m: dx_i odd, x_i even of degree 0."""

    __slots__ = ()

    @property
    def m(self):
        return self.n

    @classmethod
    def from_poly(cls, m, p: Poly):
        return cls(m, {(0, e): c for e, c in p.items()})

    @classmethod
    def constant(cls, m, c=1):
        return cls.unit(m, c)

    @classmethod
    def dx(cls, m, i, coeff: Poly | None = None):
        if not 0 <= i < m:
            raise IndexError(f"dx index {i} out of range for chart dimension {m}")
        if coeff is None:
            coeff = poly_const(m, 1)
        return cls(m, {(1 << i, e): c for e, c in coeff.items()})

    @staticmethod
    def key_degree(key):
        return bin(key[0]).count("1")

    def sorted_terms(self):
        return sorted(self.terms.items(),
                      key=lambda kv: (bin(kv[0][0]).count("1"), kv[0][0], sum(kv[0][1]), kv[0][1]))

    def __repr__(self):
        if not self.terms:
            return "ChartForm(0)"
        bits = []
        for (mask, e), c in self.sorted_terms():
            mono = "*".join(f"x{i + 1}^{k}" if k > 1 else f"x{i + 1}" for i, k in enumerate(e) if k)
            dxs = "^".join(f"dx{i + 1}" for i in indices_of(mask))
            parts = [str(c)] + ([mono] if mono else []) + ([dxs] if dxs else [])
            bits.append("*".join(parts))
        return " + ".join(bits)


wedge = multiply


def d(a: ChartForm) -> ChartForm:
    """Exterior derivative: the odd derivation x_i -> dx_i, dx_i -> 0."""
    m = a.n
    return derivation(a, [None] * m, [{(1 << i, (0,) * m): ONE} for i in range(m)], True)


class PolyMap:
    """Polynomial map R^source_dim -> R^target_dim."""

    __slots__ = ("source_dim", "target_dim", "components")

    def __init__(self, source_dim, target_dim, components):
        if len(components) != target_dim:
            raise ValueError("component count must equal target dimension")
        self.source_dim = source_dim
        self.target_dim = target_dim
        self.components = [dict(p) for p in components]

    @classmethod
    def identity(cls, m):
        return cls(m, m, [poly_var(m, i) for i in range(m)])

    def __call__(self, point):
        return tuple(poly_eval(p, point) for p in self.components)

    def differential_row(self, j) -> ChartForm:
        """d(phi_j) as a 1-form on the source chart."""
        return d(ChartForm.from_poly(self.source_dim, self.components[j]))


def compose(phi: PolyMap, psi: PolyMap) -> PolyMap:
    """phi after psi."""
    if psi.target_dim != phi.source_dim:
        raise ValueError("dimension mismatch in composition")
    comps = [poly_compose(p, psi.components, psi.source_dim) for p in phi.components]
    return PolyMap(psi.source_dim, phi.target_dim, comps)


def pullback(phi: PolyMap, a: ChartForm) -> ChartForm:
    """phi^* a: the algebra map x_j -> phi_j, dx_j -> d(phi_j)."""
    if a.m != phi.target_dim:
        raise ValueError("form lives on a chart of the wrong dimension")
    src = phi.source_dim
    return substitute(a, [phi.differential_row(j) for j in range(phi.target_dim)],
                      [ChartForm.from_poly(src, p) for p in phi.components], ChartForm.unit(src))
