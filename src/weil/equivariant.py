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
the keys the operators reach, so no codomain basis is enumerated.  The basic
system reads its keys with the curvature Omega_i in place of lamt_i, where
iota kills Omega, and its basis is mapped back to lamt coordinates.

The basic dimension depends on the action only up to similarity.  A change of
chart coordinates x' = S^-1 x is a linear diffeomorphism: it keeps polynomial
and form degree, so it keeps the truncation (d, c), and it carries the model
of rho onto the model of S^-1 rho S, at either sign of the fundamental field.
The cost of the basic system follows the nonzeros of rho instead, so
``basic_dim`` solves on ``sparse_similar(action)``.  A matrix of rank r has at
least r nonzeros, so no similar action has fewer than sum_k rank rho(e_k).
"""

from __future__ import annotations

from itertools import combinations
from math import lcm

from . import linalg
from .chart_forms import ChartForm, d as chart_d, d_images
from .liealg import LieAlgebra, adjoint_matrices, basis_vector, check_representation, frac
from .masks import mask_of
from .schur_oracle import capped_comb, check_size
from .superalg import SuperElement, derivation, operator_rows, unit_exponent
from .weil_algebra import (WeilElement, change_of_basis, contraction_images, key_degree,
                           koszul_dim, koszul_images, lie_images, sym_exponents, weil_basis)


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
        self._entries = _nonzero_entries(self.action)

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
        return WeilModelElement(self, {self.join(fk, wk): fc * wc for fk, fc in form.terms.items()
                                       for wk, wc in weil.terms.items()})

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

    def _tensor(self, chart_table, weil_table):
        """The table of (chart derivation) x 1 + 1 x (Weil derivation): each
        factor's (odd, even) images lifted through ``join``, chart generators first."""
        units = (0, (0,) * self.m), (0, (0,) * self.n)
        lifts = (lambda k: self.join(k, units[1]), lambda k: self.join(units[0], k))
        return tuple([{lift(k): c for k, c in img.items()} if img else None
                      for table, lift in zip(tables, lifts) for img in table]
                     for tables in zip(chart_table, weil_table))

    def _d_images(self):
        """D = d_X + d_K (odd): x_t -> dx_t, lam_i -> lamt_i."""
        return self._tensor(d_images(self.m), koszul_images(self.n))

    def _contract_images(self, xi, fields):
        """iota (odd): dx_t -> xi-hat_t, x_t -> 0, and iota_xi on the Weil generators;
        ``fields`` is ``vector_field(xi)``."""
        return self._tensor(([f.terms for f in fields], [None] * self.m),
                            contraction_images(self.algebra, xi))

    def _lie_images(self, xi, fields):
        """L = D iota + iota D (even): dx_t -> d(xi-hat_t), x_t -> xi-hat_t,
        and L_xi on the Weil generators; ``fields`` is ``vector_field(xi)``."""
        return self._tensor(([chart_d(f).terms for f in fields], [f.terms for f in fields]),
                            lie_images(self.algebra, xi))

    def _curvature_contract_images(self, xi, fields):
        """iota (odd) in the coordinates (dx, lam; x, Omega), Omega_i the curvature
        ``curvature_generator(algebra, i)``: dx_t -> xi-hat_t, lam_i -> <xi, lam_i>,
        x_t -> 0 and Omega_i -> 0, so on the Weil factor it is d/dlam.

        Omega_a = lamt_a + 1/2 sum_{j,k} f^a_{jk} lam_j lam_k, f^a_{jk} = -f^a_{kj}
        the structure constants, and iota_xi lamt_a = ad*_xi lam_a = -sum_{j,k}
        xi_j f^a_{jk} lam_k (``coadjoint_dual_basis``).  iota_xi is an odd
        derivation, so iota_xi (lam_j lam_k) = xi_j lam_k - xi_k lam_j, and
        iota_xi Omega_a = ad*_xi lam_a + sum_{j,k} f^a_{jk} xi_j lam_k = 0.

        L_xi is the table of ``_lie_images`` read with Omega_b for lamt_b: L_xi
        Omega_a = sum_b c_b Omega_b, c = ad*_xi lam_a.  For iota_eta L_xi Omega_a
        = L_xi iota_eta Omega_a - iota_{[xi, eta]} Omega_a = 0 on W(g) for every
        eta, so L_xi Omega_a is horizontal, in the span of the Omega_b in degree
        2; and its lamt part is L_xi lamt_a = sum_b c_b lamt_b, while Omega_b has
        the one lamt term lamt_b.  Both are identities of W(g) alone.  The
        change lamt -> Omega is triangular and keeps degree and chart factor, so
        the keys of ``basis`` read in Omega span the same truncation.
        """
        return self._tensor(([f.terms for f in fields], [None] * self.m),
                            (contraction_images(self.algebra, xi)[0], [None] * self.n))

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
        """Keys of total degree d with coefficient degree <= cap, in canonical order:
        by coefficient degree, then chart mask, monomial and Weil key."""
        m, d = self.m, total_degree
        weil = [weil_basis(self.n, d - r) for r in range(min(m, d) + 1)]
        masks = sorted(mask_of(f) for r in range(len(weil)) for f in combinations(range(m), r))
        monos = [sym_exponents(m, deg) for deg in range(poly_cap + 1)]
        return [self.join((fmask, mono), wk) for deg_monos in monos for fmask in masks
                for mono in deg_monos for wk in weil[fmask.bit_count()]]

    def basic_constraint_rows(self, total_degree, poly_cap):
        """The domain keys and, per key, one integer vector of its images under
        iota_{e_i} and L_{e_i} for every i (see ``superalg.operator_rows``).
        The keys are read in the coordinates (dx, lam; x, Omega), where iota
        kills Omega (``_curvature_contract_images``)."""
        if total_degree < 0 or poly_cap < 0:
            raise ValueError("degree and poly_cap must be >= 0")
        dom = self.basis(total_degree, poly_cap)
        tables = []
        for i in range(self.n):
            xi = basis_vector(self.n, i)
            fields = self.vector_field(xi)
            tables += [self._curvature_contract_images(xi, fields), self._lie_images(xi, fields)]
        return dom, operator_rows(tables, dom)

    def basic_basis(self, total_degree, poly_cap):
        """The canonical kernel basis of the iota/L system on the keys: the
        ``linalg.echelon`` of the relations of the image vectors, basic elements
        in Omega coordinates, mapped back to lamt by ``change_of_basis``."""
        dom, vectors = self.basic_constraint_rows(total_degree, poly_cap)
        images = change_of_basis(self.algebra, [
            WeilModelElement(self, {dom[j]: c for j, c in vec.items()})
            for vec in linalg.relations(vectors)])
        return [WeilModelElement(self, terms)
                for terms in linalg.echelon([a.terms for a in images], dom)]

    def basic_dim(self, total_degree, poly_cap) -> int:
        """len(dom) minus the rank of the image vectors, which is the rank of the
        system, solved on the model of ``sparse_similar(action)``: similar actions
        have the same basic dimension (see the module docstring), and a similarity
        keeps the brackets, so the representation is not checked again."""
        action = sparse_similar(self.action)[1]
        sparse = object.__new__(WeilModel)
        sparse.__dict__.update(vars(self), action=action, _entries=_nonzero_entries(action))
        dom, vectors = sparse.basic_constraint_rows(total_degree, poly_cap)
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
        return fmask.bit_count() + key_degree(wk)

    def __repr__(self):
        return f"WeilModelElement({len(self.terms)} terms)"


def _nonzero_entries(action):
    """Per matrix, its nonzero entries as (row, column, value)."""
    return [[(r, s, x) for r, row in enumerate(mat) for s, x in enumerate(row) if x]
            for mat in action]


def _apply(entries, vec):
    """The matrix with nonzero ``entries`` times the sparse vector ``vec``."""
    image = {}
    for r, s, x in entries:
        if s in vec:
            image[r] = image.get(r, 0) + x * vec[s]
    return {r: v for r, v in image.items() if v}


def _orbit_basis(entries, start, m):
    """A basis of R^m from ``start`` and its images under the matrices with
    nonzero ``entries``, breadth first: each basis vector's image under rho_0,
    ..., rho_{n-1} is kept when it is outside the span so far.  When the orbit
    closes short of R^m, the first unit vector outside the span starts a new
    one.  At most m n + m vectors are tried, each by one ``linalg.extend``."""
    pivots, basis, units, done, tries = {}, [], iter(range(m)), 0, [start]
    while True:
        for vec in tries:
            if linalg.extend(pivots, vec):
                basis.append(vec)
                if len(basis) == m:
                    return basis
        if done == len(basis):
            tries = [{next(units): 1}]
        else:
            source, done = basis[done], done + 1
            tries = (_apply(mat, source) for mat in entries)


def sparse_similar(action):
    """(S, S^-1 rho S) with S invertible and S^-1 rho S no denser than rho.

    Each rho(e_k) with a kernel gives one start, the first vector of its
    canonical kernel basis, and S is that start's ``_orbit_basis``, so S^-1
    rho(e_k) S has a zero first column, and every image kept in the orbit is a
    column of S^-1 rho(e_j) S with a single nonzero.  The start with the fewest
    nonzeros over all the rho(e_j) is kept, and rho itself (with S the
    identity) unless a start has strictly fewer.  A matrix of rank r has at
    least r nonzeros, so the search stops at the first start that reaches
    sum_k rank rho(e_k), and rho is returned at once when each of its matrices
    has its nonzeros in distinct rows and distinct columns, which is exactly
    when it meets that bound (the builtin adjoint actions, rot2, the trivial
    actions).  Kernels, spans and S^-1 come from ``linalg``.  With n starts of
    at most m n + m span checks and one solve of n m columns each, the cost is
    O(n^2 m^3), the order of ``check_representation``.  Similarity keeps
    brackets, so the result is a representation whenever rho is.
    """
    m = len(action[0]) if action else 0
    entries = _nonzero_entries(action)
    identity = tuple(tuple(int(r == s) for s in range(m)) for r in range(m))
    if all(len({e[axis] for e in mat}) == len(mat) for mat in entries for axis in (0, 1)):
        return identity, action
    # the orbits and kernels of D rho are those of rho, for D the lcm of its denominators
    scale = lcm(*(x.denominator for mat in entries for _, _, x in mat))
    ints = [[(r, s, x.numerator * (scale // x.denominator)) for r, s, x in mat] for mat in entries]
    kernels = []
    for mat in ints:
        columns = [{} for _ in range(m)]
        for r, s, x in mat:
            columns[s][r] = x
        kernels.append(linalg.relations(columns))
    bound, fewest, best = sum(m - len(kernel) for kernel in kernels), sum(map(len, entries)), None
    for start in (kernel[0] for kernel in kernels if kernel):
        top = lcm(*(c.denominator for c in start.values()))
        columns = _orbit_basis(ints, {s: c.numerator * (top // c.denominator)
                                      for s, c in start.items()}, m)
        # column k m + c is the c-th column of S^-1 (D rho(e_k)) S
        coords = linalg.solve(columns, [_apply(mat, vec) for mat in ints for vec in columns])
        count = sum(1 for col in coords for x in col if x)
        if count < fewest:
            fewest, best = count, (columns, coords)
            if count == bound:
                break
    if best is None:
        return identity, action
    columns, coords = best
    return (tuple(tuple(vec.get(r, 0) for vec in columns) for r in range(m)),
            tuple(tuple(tuple(coords[k * m + c][r] / scale for c in range(m)) for r in range(m))
                  for k in range(len(ints))))


ROTATION_2D = ((0, -1), (1, 0))


def action_dim(name: str, algebra: LieAlgebra) -> int:
    """Chart dimension of a named action, without building its matrices."""
    if name == "rot2":
        if algebra.dim != 1:
            raise ValueError("rot2 is an action of a 1-dimensional algebra")
        return 2
    if name.startswith("trivial:"):
        m = name[len("trivial:"):]
        if not (m.isascii() and m.isdigit()):
            raise ValueError(f"action {name!r} needs a chart dimension m >= 0, as trivial:<m>")
        return int(m)
    if name == "adjoint":
        return algebra.dim
    raise ValueError(f"unknown action name: {name!r}")


def builtin_action(name: str, algebra: LieAlgebra):
    """Named actions for the CLI: 'trivial:<m>', 'rot2' (abelian(1) on R^2),
    'adjoint' (the algebra acting on itself)."""
    m = action_dim(name, algebra)
    if name == "rot2":
        return m, [ROTATION_2D]
    if name == "adjoint":
        return m, adjoint_matrices(algebra)
    return m, [[[0] * m for _ in range(m)] for _ in range(algebra.dim)]


def check_basis_size(chart_dim, n, total_degree, poly_cap):
    """Refuse a truncation from closed-form sizes before any action matrix or key
    is built: n(m + n) for its generator tables (n images on keys of m + n
    exponents), then its basis, sum_r C(m, r) dim Koss^{d-r}(n) C(m + cap, cap),
    a sum stopped once past the cap.  Negative sizes are left to the model."""
    if min(chart_dim, total_degree, poly_cap) < 0:
        return
    check_size(n * (chart_dim + n), f"each generator table of {n} fields on R^{chart_dim}")
    polys, size = capped_comb(chart_dim + poly_cap, poly_cap), 0
    for r in range(min(chart_dim, total_degree) + 1):
        size += capped_comb(chart_dim, r) * koszul_dim(n, total_degree - r) * polys
        check_size(size, f"the Weil model basis in degree {total_degree} with cap {poly_cap}")
