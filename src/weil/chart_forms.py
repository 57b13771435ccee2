"""Differential forms with polynomial coefficients on affine charts R^m.

A form is an element of the algebra of :mod:`weil.superalg` with odd dx_i
and even x_i: a sparse map (dx index set, monomial exponent vector) ->
rational.  Wedge is its product, d its derivation x_i -> dx_i, and pullback
the algebra map x_j -> phi_j, dx_j -> d(phi_j), so all three are exact.  A
polynomial is a 0-form, and :func:`evaluate` gives its value at a point.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm, prod
from operator import getitem

from .masks import indices_of
from .superalg import ONE, SuperElement, derivation, multiply, substitute, unit_exponent


class ChartForm(SuperElement):
    """Polynomial-coefficient differential form on R^m: dx_i odd, x_i even of degree 0."""

    __slots__ = ()

    @property
    def m(self):
        return self.n

    @classmethod
    def from_poly(cls, m, p):
        """The 0-form of a polynomial given as {exponent tuple: coefficient}."""
        return cls(m, {(0, e): c for e, c in p.items()})

    @classmethod
    def constant(cls, m, c=1):
        return cls.unit(m, c)

    @classmethod
    def x(cls, m, i):
        """The coordinate function x_i."""
        if not 0 <= i < m:
            raise IndexError(f"x index {i} out of range for chart dimension {m}")
        return cls(m, {(0, unit_exponent(m, i)): ONE})

    @classmethod
    def dx(cls, m, i, coeff=None):
        """coeff dx_i, with coeff a 0-form (1 when omitted)."""
        if not 0 <= i < m:
            raise IndexError(f"dx index {i} out of range for chart dimension {m}")
        one = cls(m, {(1 << i, (0,) * m): ONE})
        return one if coeff is None else multiply(coeff, one)

    @staticmethod
    def key_degree(key):
        return key[0].bit_count()

    def sorted_terms(self):
        return sorted(self.terms.items(),
                      key=lambda kv: (kv[0][0].bit_count(), kv[0][0], sum(kv[0][1]), kv[0][1]))

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


def d_images(m):
    """The generator images of d on R^m: dx_i -> 0, x_i -> dx_i (odd)."""
    return [None] * m, [{(1 << i, (0,) * m): ONE} for i in range(m)]


def d(a: ChartForm) -> ChartForm:
    """Exterior derivative, see :func:`d_images`.  Only the images of the x_i
    that occur in ``a`` are built, not all m of them."""
    zeros = (0,) * a.n
    even = {i: {(1 << i, zeros): ONE} for _, exps in a.terms for i, q in enumerate(exps) if q}
    return derivation(a, [None] * a.n, even)


def evaluate(form: ChartForm, point) -> Fraction:
    """The value of a 0-form at a point of R^m, summed on ints.

    With x_i = p_i/q_i and E_i the largest exponent of x_i in the form, a term
    c x^e is c p^e q^(E-e) over q^E, and the coefficients are scaled by the
    lcm of their denominators, so the value is one Fraction.
    """
    if any(mask for mask, _ in form.terms):
        raise ValueError("only a 0-form has a value at a point")
    top = [max(col) for col in zip(*(e for _, e in form.terms))]
    scale = lcm(*(c.denominator for c in form.terms.values()))
    # powers[i][k] = p_i^k q_i^(E_i - k)
    powers = [[x.numerator ** k * x.denominator ** (t - k) for k in range(t + 1)]
              for x, t in zip(point, top)]
    total = sum(c.numerator * (scale // c.denominator) * prod(map(getitem, powers, e))
                for (_, e), c in form.terms.items())
    return Fraction(total, scale * prod(x.denominator ** t for x, t in zip(point, top)))


class PolyMap:
    """Polynomial map R^source_dim -> R^target_dim; its components are 0-forms."""

    __slots__ = ("source_dim", "target_dim", "components")

    def __init__(self, source_dim, target_dim, components):
        components = list(components)
        if len(components) != target_dim:
            raise ValueError("component count must equal target dimension")
        if any(p.m != source_dim or p.degrees() - {0} for p in components):
            raise ValueError("components must be 0-forms on the source chart")
        self.source_dim = source_dim
        self.target_dim = target_dim
        self.components = components

    def __call__(self, point):
        return tuple(evaluate(p, point) for p in self.components)


def compose(phi: PolyMap, psi: PolyMap) -> PolyMap:
    """phi after psi: its components are the pullbacks psi^* phi_j."""
    if psi.target_dim != phi.source_dim:
        raise ValueError("dimension mismatch in composition")
    return PolyMap(psi.source_dim, phi.target_dim, [pullback(psi, p) for p in phi.components])


def pullback(phi: PolyMap, a: ChartForm) -> ChartForm:
    """phi^* a: the algebra map x_j -> phi_j, dx_j -> d(phi_j)."""
    if a.m != phi.target_dim:
        raise ValueError("form lives on a chart of the wrong dimension")
    return substitute(a, [d(p) for p in phi.components], phi.components,
                      ChartForm.unit(phi.source_dim))
