"""Connections on charts, curvature, and the Chern-Weil homomorphism.

A connection is a Lie-algebra-valued 1-form with polynomial coefficients.
Curvature is F = dA + 1/2 [A, A], the image of the Weil curvature Omega
under the characteristic map lam -> A, lamt -> dA; an invariant symmetric
polynomial applied to F gives the closed Chern-Weil form.  Gauge
transformations are restricted to constant and unipotent-polynomial matrices
in a validated matrix representation, so every inverse is exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from . import linalg
# wedge is not called here; it stays bound because the benchmark's tracer counts
# chart_forms.wedge_calls at this name
from .chart_forms import ChartForm, PolyMap, d, pullback, wedge  # noqa: F401
from .liealg import LieAlgebra, adjoint_matrices, builtin, check_representation, frac
from .superalg import ONE, _left_multiply, substitute
from .weil_algebra import WeilElement, curvature_generator
from .invariant_polynomials import is_sym_element


class LieValuedForm:
    """g-valued chart form: one ChartForm per basis coordinate of g."""

    __slots__ = ("algebra", "chart_dim", "components")

    def __init__(self, algebra: LieAlgebra, chart_dim: int, components):
        if len(components) != algebra.dim:
            raise ValueError("component count must equal algebra dimension")
        for c in components:
            if c.m != chart_dim:
                raise ValueError("components live on charts of different dimensions")
        self.algebra = algebra
        self.chart_dim = chart_dim
        self.components = list(components)

    @classmethod
    def zero(cls, algebra, chart_dim):
        return cls(algebra, chart_dim, [ChartForm.zero(chart_dim) for _ in range(algebra.dim)])

    def __eq__(self, other):
        return (isinstance(other, LieValuedForm) and self.algebra == other.algebra
                and self.chart_dim == other.chart_dim and self.components == other.components)

    def __repr__(self):
        return "LieValuedForm(" + ", ".join(repr(c) for c in self.components) + ")"


def _check_connection(A: LieValuedForm):
    """Refuse A unless it is a g-valued 1-form: every term has exactly one dx."""
    if any(mask.bit_count() != 1 for c in A.components for mask, _ in c.terms):
        raise ValueError("a connection must be a g-valued 1-form")


def _characteristic_images(A: LieValuedForm):
    """lam_i -> A^i, lamt_i -> (dA)^i and the unit, as arguments of superalg.substitute."""
    return A.components, [d(c) for c in A.components], ChartForm.unit(A.chart_dim)


def weil_to_chart(a: WeilElement, A: LieValuedForm) -> ChartForm:
    """The characteristic map of A: lam_i -> A^i, lamt_i -> (dA)^i."""
    if a.n != A.algebra.dim:
        raise ValueError("element dimension does not match the connection algebra")
    return substitute(a, *_characteristic_images(A))


def curvature(A: LieValuedForm) -> LieValuedForm:
    """F = dA + 1/2 [A, A], the characteristic map applied to the Weil curvature
    Omega; dA is taken once for all components."""
    _check_connection(A)
    L, images = A.algebra, _characteristic_images(A)
    return LieValuedForm(L, A.chart_dim, [substitute(curvature_generator(L, k), *images)
                                          for k in range(L.dim)])


def pullback_connection(phi: PolyMap, A: LieValuedForm) -> LieValuedForm:
    return LieValuedForm(A.algebra, phi.source_dim, [pullback(phi, c) for c in A.components])


def cw_form(P: WeilElement, A: LieValuedForm) -> ChartForm:
    """Evaluate a symmetric polynomial on the curvature.

    P is polarized to a symmetric multilinear map and evaluated at
    (F, ..., F); since curvature components are 2-forms they commute, the
    multinomial normalization cancels and the evaluation is the plain
    substitution lamt_i -> F^i.
    """
    if not is_sym_element(P):
        raise ValueError("cw_form needs a symmetric-factor element")
    if not P.is_homogeneous() or not P:
        raise ValueError("cw_form needs a homogeneous nonzero polynomial")
    return substitute(P, A.components, curvature(A).components, ChartForm.unit(A.chart_dim))


# -- matrix representations -------------------------------------------


@dataclass(frozen=True, eq=False)
class MatrixRep:
    """Faithful matrix images of the basis vectors, exact rational entries."""

    algebra: LieAlgebra
    size: int
    mats: tuple  # n matrices, each tuple of row tuples of Fraction

    def flat_columns(self):
        """Flattened generator matrices as sparse columns for coordinate extraction."""
        cols = []
        for mat in self.mats:
            col = {}
            for r, row in enumerate(mat):
                for c, v in enumerate(row):
                    if v:
                        col[r * self.size + c] = v
            cols.append(col)
        return cols


def make_rep(algebra, mats) -> MatrixRep:
    tidy = tuple(tuple(tuple(frac(x) for x in row) for row in m) for m in mats)
    check_representation(algebra, tidy)
    return MatrixRep(algebra=algebra, size=len(tidy[0]), mats=tidy)


def _realify(complex_mat):
    """(re, im) Fraction pair matrix -> real matrix of doubled size."""
    r = len(complex_mat)
    out = [[Fraction(0)] * (2 * r) for _ in range(2 * r)]
    for i in range(r):
        for j in range(r):
            re, im = complex_mat[i][j]
            out[2 * i][2 * j] = frac(re)
            out[2 * i][2 * j + 1] = -frac(im)
            out[2 * i + 1][2 * j] = frac(im)
            out[2 * i + 1][2 * j + 1] = frac(re)
    return tuple(tuple(row) for row in out)


def builtin_rep(name: str) -> MatrixRep:
    """Default exact matrix representation for a built-in algebra."""
    L = builtin(name)
    if name == "abelian(1)":
        return make_rep(L, [[[0, 1], [0, 0]]])
    if name == "heisenberg3":
        e1 = [[0, 1, 0], [0, 0, 0], [0, 0, 0]]
        e2 = [[0, 0, 0], [0, 0, 1], [0, 0, 0]]
        e3 = [[0, 0, 1], [0, 0, 0], [0, 0, 0]]
        return make_rep(L, [e1, e2, e3])
    if name == "sl2":
        h = [[1, 0], [0, -1]]
        e = [[0, 1], [0, 0]]
        f = [[0, 0], [1, 0]]
        return make_rep(L, [h, e, f])
    if name == "so3":
        return make_rep(L, adjoint_matrices(L))
    if name == "su2":
        # X_k = -(i/2) sigma_k, realified to exact 4x4 rational blocks
        half = Fraction(1, 2)
        z = (Fraction(0), Fraction(0))
        x1 = [[z, (0, -half)], [(0, -half), z]]
        x2 = [[z, (-half, 0)], [(half, 0), z]]
        x3 = [[(0, -half), z], [z, (0, half)]]
        return make_rep(L, [_realify(x) for x in (x1, x2, x3)])
    raise ValueError(f"no built-in representation for {name!r}")


def quaternion_matrix(a, b, c, dd):
    """Realified [[a+bi, c+di], [-c+di, a-bi]]; invertible for any nonzero quaternion."""
    a, b, c, dd = frac(a), frac(b), frac(c), frac(dd)
    if not (a or b or c or dd):
        raise ValueError("zero quaternion")
    return _realify([[(a, b), (c, dd)], [(-c, dd), (a, -b)]])


# -- gauge transformations --------------------------------------------


@dataclass(frozen=True, eq=False)
class GaugeTransform:
    """Group-valued map in a matrix representation, with its exact inverse."""

    rep: MatrixRep
    chart_dim: int
    entries: tuple  # r x r 0-form ChartForms
    inverse: tuple  # r x r 0-form ChartForms, entries^{-1}


def constant_gauge(rep: MatrixRep, matrix, chart_dim) -> GaugeTransform:
    r, m = rep.size, chart_dim
    rows = tuple(tuple(frac(x) for x in row) for row in matrix)
    if len(rows) != r or any(len(row) != r for row in rows):
        raise ValueError("gauge matrix size does not match the representation")
    cols = [{i: rows[i][j] for i in range(r) if rows[i][j]} for j in range(r)]
    inv_cols = linalg.solve(cols, [{k: ONE} for k in range(r)])
    if inv_cols is None:
        raise ValueError("constant gauge matrix is singular")
    entries = tuple(tuple(ChartForm.constant(m, x) for x in row) for row in rows)
    inverse = tuple(tuple(ChartForm.constant(m, inv_cols[k][i]) for k in range(r))
                    for i in range(r))
    return GaugeTransform(rep, m, entries, inverse)


def unipotent_gauge(rep: MatrixRep, upper_entries, chart_dim) -> GaugeTransform:
    """g = I + N with N strictly upper triangular: {(i, j): 0-form} for 0 <= i < j < r."""
    r, m = rep.size, chart_dim
    for (i, j), p in upper_entries.items():
        if not 0 <= i < j < r:
            raise ValueError(f"unipotent gauge entry ({i + 1}, {j + 1}) is not strictly "
                             f"upper triangular in size {r}")
        if p.m != m or p.degrees() - {0}:
            raise ValueError("unipotent gauge entries must be 0-forms on the chart")
    entries = tuple(tuple(upper_entries.get((i, j), ChartForm.zero(m)) if i != j
                          else ChartForm.constant(m) for j in range(r)) for i in range(r))
    # (I + N)^{-1} = sum_k (-N)^k, and N^r = 0
    minus_n = [[-entries[i][j] if j > i else ChartForm.zero(m) for j in range(r)]
               for i in range(r)]
    acc = power = [[ChartForm.constant(m, int(i == j)) for j in range(r)] for i in range(r)]
    for _ in range(1, r):
        power = _form_mat_mul(power, minus_n)
        acc = [[a + p for a, p in zip(ra, rp)] for ra, rp in zip(acc, power)]
    return GaugeTransform(rep, m, entries, tuple(map(tuple, acc)))


def _scaled(M):
    """(s, term dicts of s M on ints) for a form matrix M, s the lcm of its denominators."""
    s = lcm(*(c.denominator for row in M for form in row for c in form.terms.values()))
    return s, [[{k: c.numerator * (s // c.denominator) for k, c in form.terms.items()}
                for form in row] for row in M]


def _form_mat_mul(A, B):
    """A B for r x r form matrices.  Each matrix is scaled to ints once; each entry
    sum_k A_ik B_kj is accumulated on ints by the Leibniz sign rule of wedge and
    divided once."""
    sa, ints_a = _scaled(A)
    sb, ints_b = _scaled(B)
    out = []
    for form_row, row in zip(A, ints_a):
        out_row = []
        for j in range(len(B)):
            acc = {}
            for a, b_row in zip(row, ints_b):
                for (mask, exps), c in b_row[j].items():
                    _left_multiply(acc, a, mask, exps, c)
            out_row.append(form_row[0].with_terms({k: Fraction(v, sa * sb)
                                                   for k, v in acc.items()}))
        out.append(out_row)
    return out


def _lie_valued_to_matrix(B: LieValuedForm, rep: MatrixRep):
    r = rep.size
    m = B.chart_dim
    out = [[ChartForm.zero(m) for _ in range(r)] for _ in range(r)]
    for i, comp in enumerate(B.components):
        mat = rep.mats[i]
        for a in range(r):
            for b in range(r):
                if mat[a][b]:
                    out[a][b] = out[a][b] + comp.scale(mat[a][b])
    return out


def _matrix_to_lie_valued(M, rep: MatrixRep, algebra, chart_dim) -> LieValuedForm:
    r = rep.size
    keys = sorted({key for row in M for form in row for key in form.terms})
    targets = [{a * r + b: M[a][b].terms[key] for a in range(r) for b in range(r)
                if key in M[a][b].terms} for key in keys]
    coords = linalg.solve(rep.flat_columns(), targets)
    if coords is None:
        raise ValueError("matrix-valued form does not lie in the representation image")
    comps = [ChartForm(chart_dim, {key: c[i] for key, c in zip(keys, coords) if c[i]})
             for i in range(algebra.dim)]
    return LieValuedForm(algebra, chart_dim, comps)


def conjugate(g: GaugeTransform, B: LieValuedForm) -> LieValuedForm:
    """Ad_{g^{-1}} B = g^{-1} B g, decomposed back into algebra coordinates."""
    _check_gauge(g, B)
    return _left_divide(g, _form_mat_mul(_lie_valued_to_matrix(B, g.rep), g.entries), B)


def gauge_transform(A: LieValuedForm, g: GaugeTransform) -> LieValuedForm:
    """alpha . g = g^{-1} (dg + alpha g), all arithmetic exact."""
    _check_connection(A)
    _check_gauge(g, A)
    Ag = _form_mat_mul(_lie_valued_to_matrix(A, g.rep), g.entries)
    return _left_divide(g, [[d(p) + b for p, b in zip(*rows)] for rows in zip(g.entries, Ag)], A)


def _left_divide(g: GaugeTransform, M, B: LieValuedForm) -> LieValuedForm:
    """g^{-1} M for an r x r form matrix M, in the algebra coordinates of B."""
    return _matrix_to_lie_valued(_form_mat_mul(g.inverse, M), g.rep, B.algebra, B.chart_dim)


def _check_gauge(g: GaugeTransform, B: LieValuedForm):
    if g.rep.algebra != B.algebra:
        raise ValueError("gauge representation is for a different algebra")
    if g.chart_dim != B.chart_dim:
        raise ValueError("gauge and form live on different charts")
