"""The Weil model Omega(X; Koss g*) for a linear action on a chart.

Elements live in the super-commutative algebra of :mod:`weil.superalg` on
m + n generator pairs: odd dx_1..dx_m, lam_1..lam_n and even x_1..x_m,
lamt_1..lamt_n.  A key is one flat (mask, exponents) pair, and a chart form
omega times a Weil element a is the product omega a, so the total
differential D = d_X + d_K, the total contraction (the fundamental vector
field of the action paired with the algebraic contraction) and the total Lie
derivative are derivations given by their values on generators.

Everything is computed inside explicit truncations of the domain: a total
degree d and a polynomial coefficient degree cap c.  The codomain is never
truncated: each domain key gets one integer vector of its images, indexed by
the keys the operators reach, so no codomain basis is enumerated.
"""

from __future__ import annotations

from itertools import combinations

from . import linalg
from .chart_forms import ChartForm, d as chart_d
from .liealg import LieAlgebra, basis_vector, check_representation, frac
from .masks import mask_of
from .schur_oracle import capped_comb, check_size
from .superalg import ONE, SuperElement, derivation, operator_rows, unit_exponent
from .weil_algebra import (WeilElement, contraction_images, key_degree,
                           koszul_dim, lie_images, sym_exponents,
                           term_sort_key, weil_basis)


class WeilModel:
    """Context: chart dimension, algebra, and the linear action matrices."""

    def __init__(self, chart_dim: int, algebra: LieAlgebra, action):
        self.m = chart_dim
        self.algebra = algebra
        self.n = algebra.dim
        self.action = [tuple(tuple(frac(x) for x in row) for row in mat) for mat in action]
        if len(self.action) != self.n:
            raise ValueError("need one action matrix per algebra basis vector")
        for mat in self.action:
            if len(mat) != chart_dim or any(len(row) != chart_dim for row in mat):
                raise ValueError("action matrices must be chart_dim x chart_dim")
        check_representation(algebra, self.action)
        self._entries = [[(r, s, x) for r, row in enumerate(mat) for s, x in enumerate(row) if x]
                         for mat in self.action]

    # -- elements and keys -----------------------------------------------

    def zero(self):
        return WeilModelElement(self, {})

    def join(self, chart_key, weil_key):
        """Flat key of (chart form key) x (Weil algebra key)."""
        (fmask, mono), (wmask, sym) = chart_key, weil_key
        return fmask | (wmask << self.m), mono + sym

    def split(self, key):
        """(chart form key, Weil algebra key) of a flat key."""
        mask, exps = key
        m = self.m
        return (mask & ((1 << m) - 1), exps[:m]), (mask >> m, exps[m:])

    def from_pair(self, form: ChartForm, weil: WeilElement):
        if form.m != self.m or weil.n != self.n:
            raise ValueError("factor dimensions do not match the model")
        terms = {}
        for fk, fc in form.terms.items():
            for wk, wc in weil.terms.items():
                terms[self.join(fk, wk)] = fc * wc
        return WeilModelElement(self, terms)

    def _lift_chart(self, terms):
        one = (0, (0,) * self.n)
        return {self.join(k, one): c for k, c in terms.items()}

    def _lift_weil(self, terms):
        one = (0, (0,) * self.m)
        return {self.join(one, k): c for k, c in (terms or {}).items()}

    # -- operators: generator images for superalg.derivation ------------------

    def vector_field(self, xi):
        """Components of the fundamental field x -> rho(xi) x as linear 0-forms,
        summed over the nonzero coefficients of xi and nonzero action entries."""
        m = self.m
        comps = [{} for _ in range(m)]
        for k, x in enumerate(xi):
            if x:
                x = frac(x)
                for r, s, a in self._entries[k]:
                    comps[r][s] = comps[r].get(s, 0) + x * a
        return [ChartForm(m, {(0, unit_exponent(m, s)): c for s, c in sorted(comp.items())})
                for comp in comps]

    def _d_images(self):
        """D (odd): x_t -> dx_t, lam_i -> lamt_i; dx_t and lamt_i are closed."""
        m, n = self.m, self.n
        zero = (0,) * (m + n)
        return ([None] * m + [{(0, unit_exponent(m + n, m + i)): ONE} for i in range(n)],
                [{(1 << t, zero): ONE} for t in range(m)] + [None] * n)

    def _contract_images(self, xi, fields):
        """iota (odd): dx_t -> xi-hat_t, x_t -> 0, and iota_xi on the Weil generators;
        ``fields`` is ``vector_field(xi)``."""
        weil_odd, weil_even = contraction_images(self.algebra, xi)
        return ([self._lift_chart(f.terms) for f in fields] + [self._lift_weil(t) for t in weil_odd],
                [None] * self.m + [self._lift_weil(t) for t in weil_even])

    def _lie_images(self, xi, fields):
        """L = D iota + iota D (even): dx_t -> d(xi-hat_t), x_t -> xi-hat_t,
        and L_xi on the Weil generators; ``fields`` is ``vector_field(xi)``."""
        weil_odd, weil_even = lie_images(self.algebra, xi)
        return ([self._lift_chart(chart_d(f).terms) for f in fields]
                + [self._lift_weil(t) for t in weil_odd],
                [self._lift_chart(f.terms) for f in fields] + [self._lift_weil(t) for t in weil_even])

    def total_d(self, w: "WeilModelElement") -> "WeilModelElement":
        """D(omega x a) = d_X omega x a + (-1)^{deg omega} omega x d_K a."""
        return derivation(w, *self._d_images())

    def total_contract(self, xi, w: "WeilModelElement") -> "WeilModelElement":
        """iota(omega x a) = iota_{xi-hat} omega x a + (-1)^{deg omega} omega x iota_xi a."""
        return derivation(w, *self._contract_images(xi, self.vector_field(xi)))

    def total_lie(self, xi, w: "WeilModelElement") -> "WeilModelElement":
        """The Lie derivative, the even derivation [D, iota_xi]."""
        return derivation(w, *self._lie_images(xi, self.vector_field(xi)))

    # -- truncated bases and kernels --------------------------------------

    def basis(self, total_degree, poly_cap):
        """Keys of total degree d with coefficient degree <= cap, canonical order."""
        keys = []
        for r in range(min(self.m, total_degree) + 1):
            wdeg = total_degree - r
            for wk in weil_basis(self.n, wdeg):
                for fmask in combinations(range(self.m), r):
                    for deg in range(poly_cap + 1):
                        for mono in sym_exponents(self.m, deg):
                            keys.append(self.join((mask_of(fmask), mono), wk))
        keys.sort(key=self._sort_key)
        return keys

    def _sort_key(self, key):
        (fmask, mono), wk = self.split(key)
        total = bin(fmask).count("1") + key_degree(wk)
        return (total, sum(mono), fmask, mono, term_sort_key(wk))

    def basic_constraint_rows(self, total_degree, poly_cap):
        """The domain keys and, per key, one integer vector of its images under
        iota_{e_i} and L_{e_i} for every i (see ``superalg.operator_rows``)."""
        if total_degree < 0 or poly_cap < 0:
            raise ValueError("degree and poly_cap must be >= 0")
        dom = self.basis(total_degree, poly_cap)
        tables = []
        for i in range(self.n):
            xi = basis_vector(self.n, i)
            fields = self.vector_field(xi)
            tables += [self._contract_images(xi, fields), self._lie_images(xi, fields)]
        return dom, operator_rows(tables, self.zero(), dom)

    def basic_basis(self, total_degree, poly_cap):
        dom, vectors = self.basic_constraint_rows(total_degree, poly_cap)
        kernel = linalg.nullspace(linalg.transpose(vectors), len(dom))
        return [WeilModelElement(self, {dom[i]: c for i, c in vec.items()}) for vec in kernel]

    def basic_dim(self, total_degree, poly_cap) -> int:
        """len(dom) minus the rank of the image vectors, which is the rank of the system."""
        dom, vectors = self.basic_constraint_rows(total_degree, poly_cap)
        return len(dom) - linalg.rank(vectors)


class WeilModelElement(SuperElement):
    """Sparse element of Omega(X) (x) Koss(g*), bound to its model."""

    __slots__ = ("model",)

    def __init__(self, model: WeilModel, terms=None):
        super().__init__(model.m + model.n, terms)
        self.model = model

    def with_terms(self, terms):
        out = super().with_terms(terms)
        out.model = self.model
        return out

    def key_degree(self, key):
        (fmask, _), wk = self.model.split(key)
        return bin(fmask).count("1") + key_degree(wk)

    def __repr__(self):
        return f"WeilModelElement({len(self.terms)} terms)"


ROTATION_2D = ((0, -1), (1, 0))


def action_dim(name: str, algebra: LieAlgebra) -> int:
    """Chart dimension of a named action, without building its matrices."""
    if name == "rot2":
        if algebra.dim != 1:
            raise ValueError("rot2 is an action of a 1-dimensional algebra")
        return 2
    if name.startswith("trivial:"):
        return int(name.split(":", 1)[1])
    if name == "adjoint":
        return algebra.dim
    raise ValueError(f"unknown action name: {name!r}")


def builtin_action(name: str, algebra: LieAlgebra):
    """Named actions for the CLI: 'trivial:<m>', 'rot2' (abelian(1) on R^2),
    'adjoint' (the algebra acting on itself)."""
    m, n = action_dim(name, algebra), algebra.dim
    if name == "rot2":
        return m, [ROTATION_2D]
    if name == "adjoint":
        return m, [[[algebra.f(i, j, k) for j in range(n)] for k in range(n)] for i in range(n)]
    return m, [[[0] * m for _ in range(m)] for _ in range(n)]


def check_basis_size(chart_dim, n, total_degree, poly_cap):
    """Refuse a truncation from the closed-form size of its basis,
    sum_r C(m, r) dim Koss^{d-r}(n) C(m + cap, cap), before any action matrix
    or key is built.  The sum stops once it passes the cap; negative sizes are
    left to the model to refuse."""
    if min(chart_dim, total_degree, poly_cap) < 0:
        return
    polys, size = capped_comb(chart_dim + poly_cap, poly_cap), 0
    for r in range(min(chart_dim, total_degree) + 1):
        size += capped_comb(chart_dim, r) * koszul_dim(n, total_degree - r) * polys
        check_size(size, f"the Weil model basis in degree {total_degree} with cap {poly_cap}")
