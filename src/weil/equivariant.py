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

The basic system is solved on the lam-free keys through the Kalkman map
(Mathai-Quillen 1986, Kalkman 1993).  Its keys are read with the curvature
Omega_i in place of lamt_i, where iota kills Omega, so the contraction by e_a
is iota^X_a + d/dlam_a, iota^X_a that of the chart factor alone.  With the
even derivation K = sum_b lam_b iota^X_b, e^K iota_a e^-K = d/dlam_a, because
contractions anticommute; this uses no bracket identity, so it holds at
either sign of the fundamental field.  The horizontal elements are therefore
the e^-K b with b lam-free, and e^-K b is basic exactly when e^K L_i e^-K b =
0 for every i; the truncation adds K^(c + 1 - a) b_a = 0 on the part of
coefficient degree a.  The basis is mapped back by e^-K and then to lamt
coordinates.

The basic dimension depends on the action only up to similarity.  A change of
chart coordinates x' = S^-1 x is a linear diffeomorphism: it keeps polynomial
and form degree, so it keeps the truncation (d, c), and it carries the model
of rho onto the model of S^-1 rho S, at either sign of the fundamental field.
The cost of the basic system follows the nonzeros of rho instead, so
``basic_dim`` solves on ``sparse_similar(action)``.  A matrix of rank r has at
least r nonzeros, so no similar action has fewer than sum_k rank rho(e_k).
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain, combinations
from math import factorial, lcm
from operator import add

from . import linalg
from .chart_forms import ChartForm, d as chart_d, d_images
from .liealg import (LieAlgebra, adjoint_matrices, basis_vector, check_representation,
                     coadjoint_dual_basis, frac)
from .masks import mask_of
from .schur_oracle import capped_comb, check_size
from .superalg import (SuperElement, _acc, derivation, operator_rows, substitute,
                       unit_exponent)
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
        self._fields = _field_entries(self.action)

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
        summed over the nonzero coefficients of xi and ``_field_entries``."""
        m = self.m
        comps = [{} for _ in range(m)]
        for k, x in enumerate(xi):
            if x:
                x = frac(x)
                for r, s, a in self._fields[k]:
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
        return self._keys(total_degree, poly_cap, lambda q: weil_basis(self.n, q))

    def lam_free_basis(self, total_degree, poly_cap):
        """The keys of ``basis(d, cap)`` with no lam factor, in its order: a chart
        key of r factors dx takes the Weil keys lamt^k (read Omega^k), r + 2k = d."""
        return self._keys(total_degree, poly_cap, lambda q: [] if q % 2 else
                          [(0, s) for s in sym_exponents(self.n, q // 2)])

    def _keys(self, total_degree, poly_cap, weil_keys):
        """The chart keys of coefficient degree <= cap, each joined with the
        ``weil_keys(d - r)`` of its number r of factors dx, in canonical order."""
        m, d = self.m, total_degree
        weil = [weil_keys(d - r) for r in range(min(m, d) + 1)]
        masks = sorted(mask_of(f) for r in range(len(weil)) for f in combinations(range(m), r))
        monos = [sym_exponents(m, deg) for deg in range(poly_cap + 1)]
        return [self.join((fmask, mono), wk) for deg_monos in monos for fmask in masks
                for mono in deg_monos for wk in weil[fmask.bit_count()]]

    def _kalkman_powers(self):
        """(s, powers): K = sum_b lam_b iota^X_{e_b} is the even derivation dx_t ->
        sum_b lam_b xi-hat_t(e_b), zero on every other generator, s the lcm of
        the action's denominators, and powers(S) the list of (s K)^j dx_S on
        ints for j = 0, ..., |S| (K^j dx_S = 0 past |S|), per chart mask S,
        memoised."""
        m, n = self.m, self.n
        scale, ints = _int_entries(self._fields)
        odd, even, memo = [{} for _ in range(m)] + [None] * n, [None] * (m + n), {}
        for b, mat in enumerate(ints):
            for t, s, x in mat:
                odd[t][1 << (m + b), unit_exponent(m + n, s)] = x

        def powers(mask):
            if mask not in memo:
                memo[mask] = images = [{(mask, (0,) * (m + n)): 1}]
                for _ in range(mask.bit_count()):
                    images.append(derivation(self.zero().with_terms(images[-1]), odd, even).terms)
            return memo[mask]
        return scale, powers

    def _kalkman_lie_images(self):
        """(M, tables): the n derivations L'_i = e^K L_{e_i} e^-K = L_{e_i} + [K, L_{e_i}]
        (even), each times the positive integer M, on ints.  L_{e_i} is the table
        of ``_lie_images`` read with Omega_b for lamt_b: dx_t -> d xi-hat_t, x_t ->
        xi-hat_t, lam_j -> ad*_{e_i} lam_j = sum_k C_jk lam_k and Omega_j -> sum_k
        C_jk Omega_k.  [K, L_{e_i}] is zero on every generator but

            [K, L_i] dx_t = K L_i dx_t - L_i K dx_t
                          = sum_{k,u} (rho_i rho_k - rho_k rho_i - sum_j C_jk rho_j)_tu lam_k x_u,

        rho_k the matrix of the field of e_k (``_field_entries``): K L_i dx_t
        gives rho_i rho_k, and L_i acting on the x_u of K dx_t = sum_k lam_k
        (rho_k x)_t gives rho_k rho_i, on its lam_k the C term.  It vanishes
        exactly when xi -> xi-hat is a homomorphism.  K dx is a sum of lam x,
        which [K, L_i] kills, so [K, [K, L_i]] = 0 and the series e^K L_i e^-K
        stops there.  M = s^2 t, s the lcm of the action's denominators and t
        that of the C's."""
        m, n = self.m, self.n
        scale, ints = _int_entries(self._fields)
        rows = [{} for _ in range(n)]  # rows[k][s]: the (u, s rho_k[s][u]) of row s
        for k, mat in enumerate(ints):
            for s, u, x in mat:
                rows[k].setdefault(s, []).append((u, x))
        coadj = [[coadjoint_dual_basis(self.algebra, basis_vector(n, i), j) for j in range(n)]
                 for i in range(n)]
        top = lcm(*(c.denominator for row in coadj for co in row for c in co.values()))
        zero, lam = (0,) * (m + n), [1 << (m + k) for k in range(n)]
        units = [unit_exponent(m + n, g) for g in range(m + n)]
        tables = []
        for i in range(n):
            coadj_i = [{k: c.numerator * (top // c.denominator) for k, c in co.items()}
                       for co in coadj[i]]
            odd, even = [{} for _ in range(m + n)], [{} for _ in range(m + n)]
            for t, s, x in ints[i]:
                odd[t][1 << s, zero] = even[t][0, units[s]] = x * scale * top
            for j, co in enumerate(coadj_i):
                for k, c in co.items():
                    odd[m + j][lam[k], zero] = even[m + j][0, units[m + k]] = c * scale * scale
            for k in range(n):
                for left, right, sign in ((i, k, top), (k, i, -top)):
                    for t, s, a in ints[left]:
                        for u, b in rows[right].get(s, ()):
                            _acc(odd[t], (lam[k], units[u]), sign * a * b)
            for j, co in enumerate(coadj_i):
                for k, c in co.items():
                    for t, u, x in ints[j]:
                        _acc(odd[t], (lam[k], units[u]), -c * scale * x)
            tables.append(([img or None for img in odd], [img or None for img in even]))
        return scale * scale * top, tables

    def basic_constraint_rows(self, total_degree, poly_cap):
        """The lam-free keys b of the truncation and, per key, one integer vector
        of its images under the n derivations L'_i (``_kalkman_lie_images``, see
        ``superalg.operator_rows``) and, on a key of coefficient degree a, under
        K^(cap + 1 - a) (``_kalkman_powers``), in columns of their own.

        The keys are read in Omega coordinates, and e^-K b is basic exactly when
        L'_i b = 0 for every i (see the module docstring).  K trades one dx
        for a lam x, so on the part b_a of b of coefficient degree a, (-K)^j b_a
        / j! is the part of e^-K b of coefficient degree a + j and lam degree
        j: e^-K b is in the truncation exactly when K^(cap + 1 - a) b_a = 0
        for every a.  K kills x and Omega, so K^j of a key is K^j of its dx
        factor times the rest."""
        if total_degree < 0 or poly_cap < 0:
            raise ValueError("degree and poly_cap must be >= 0")
        dom = self.lam_free_basis(total_degree, poly_cap)
        vectors = operator_rows(self._kalkman_lie_images()[1], dom)
        powers, m = self._kalkman_powers()[1], self.m
        start, columns = max((max(vec) for vec in vectors if vec), default=-1) + 1, {}
        for (mask, exps), vec in zip(dom, vectors):
            j = poly_cap + 1 - sum(exps[:m])
            if j <= mask.bit_count():
                for (im, ie), c in powers(mask)[j].items():
                    key = im, tuple(map(add, ie, exps))
                    vec[columns.setdefault(key, start + len(columns))] = c
        return dom, vectors

    def basic_basis(self, total_degree, poly_cap):
        """The canonical basis of the basic elements of the truncation, solved on
        the model of ``sparse_similar(action)`` as ``basic_dim`` is: each relation
        b of the vectors of its ``basic_constraint_rows`` is mapped to the basic
        element e^-K b = sum_j (-K)^j b / j! in Omega coordinates, then to lamt
        coordinates by ``change_of_basis``, then back to this chart by
        ``_chart_change`` unless the action was kept, and the
        ``linalg.echelon`` of the images over ``basis`` is read off: the same
        basis, since the chart change is an isomorphism of the basic
        subspaces."""
        S, sparse = self._sparse_model()
        dom, vectors = sparse.basic_constraint_rows(total_degree, poly_cap)
        (scale, powers), series = sparse._kalkman_powers(), {}
        elements = []
        for vec in linalg.relations(vectors):
            terms = {}
            for j, c in vec.items():
                mask, exps = dom[j]
                if mask not in series:  # e^-K dx_S, (s K)^k dx_S times (-1)^k / (k! s^k)
                    series[mask] = [(image, Fraction((-1) ** k, factorial(k) * scale ** k))
                                    for k, image in enumerate(powers(mask))]
                for image, f in series[mask]:
                    for (im, ie), v in image.items():
                        key = im, tuple(map(add, ie, exps))
                        terms[key] = terms.get(key, 0) + c * f * v
            elements.append(WeilModelElement(sparse, terms))
        images = change_of_basis(self.algebra, elements)
        if sparse.action is not self.action:  # else S is the identity
            images = self._chart_change(S, images)
        return [WeilModelElement(self, terms) for terms in
                linalg.echelon([a.terms for a in images], self.basis(total_degree, poly_cap))]

    def basic_dim(self, total_degree, poly_cap) -> int:
        """len(dom) minus the rank of the image vectors, which is the rank of the
        system, solved on the model of ``sparse_similar(action)`` (see the
        module docstring)."""
        dom, vectors = self._sparse_model()[1].basic_constraint_rows(total_degree, poly_cap)
        return len(dom) - linalg.rank(vectors)

    def _sparse_model(self):
        """(S, the model of S^-1 rho S), (S, S^-1 rho S) from ``sparse_similar``:
        similar actions have the same basic dimension, and a similarity keeps
        the brackets, so the representation is not checked again."""
        S, action = sparse_similar(self.action)
        sparse = object.__new__(WeilModel)
        sparse.__dict__.update(vars(self), action=action, _fields=_field_entries(action))
        return S, sparse

    def _chart_change(self, S, elements):
        """Elements of the model of S^-1 rho S, whose chart coordinates are
        y = S^-1 x, as elements of this model: y_t and dy_t are replaced by
        sum_u (S^-1)_tu x_u and sum_u (S^-1)_tu dx_u, by one ``substitute``
        per chart key met, times the key's Weil factor."""
        m = self.m
        inverse = linalg.solve([{r: row[c] for r, row in enumerate(S)} for c in range(m)],
                               [{u: 1} for u in range(m)])  # column u of S^-1
        ys = [ChartForm(m, {(0, unit_exponent(m, u)): col[t] for u, col in enumerate(inverse)
                            if col[t]}) for t in range(m)]
        odd, one, memo = [chart_d(y) for y in ys], ChartForm.unit(m), {}
        images = []
        for a in elements:
            terms = {}
            for key, c in a.terms.items():
                chart, weil = self.split(key)
                if chart not in memo:
                    memo[chart] = substitute(ChartForm(m, {chart: 1}), odd, ys, one).terms
                for image, v in memo[chart].items():
                    _acc(terms, self.join(image, weil), c * v)
            images.append(WeilModelElement(self, terms))
        return images


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


def _field_entries(action):
    """Per basis vector e_k, the nonzero entries (t, s, c) of its fundamental field
    xi-hat_t(e_k) = sum_s c x_s: those of rho(e_k).  ``vector_field`` and the
    Kalkman tables of the basic system read the sign of the field here alone."""
    return _nonzero_entries(action)


def _int_entries(entries):
    """(s, the ``entries`` of each matrix with values times s, on ints), s the lcm
    of their denominators."""
    scale = lcm(*(x.denominator for mat in entries for _, _, x in mat))
    return scale, [[(r, c, x.numerator * (scale // x.denominator)) for r, c, x in mat]
                   for mat in entries]


def _apply(entries, vec):
    """The matrix with nonzero ``entries`` times the sparse vector ``vec``."""
    image = {}
    for r, s, x in entries:
        if s in vec:
            image[r] = image.get(r, 0) + x * vec[s]
    return {r: v for r, v in image.items() if v}


def _orbit_basis(entries, start, fill, m):
    """A basis of R^m from ``start`` and its images under the matrices with
    nonzero ``entries``, breadth first: each basis vector's image under rho_0,
    ..., rho_{n-1} is kept when it is outside the span so far.  When the orbit
    closes short of R^m, the first vector of ``fill`` and then the unit
    vectors, in order, that is outside the span starts a new one.  At most
    m n + m + len(fill) vectors are tried, each by one ``linalg.extend``."""
    pivots, basis, done, tries = {}, [], 0, [start]
    fill = chain(fill, ({s: 1} for s in range(m)))
    while True:
        for vec in tries:
            if linalg.extend(pivots, vec):
                basis.append(vec)
                if len(basis) == m:
                    return basis
        if done == len(basis):
            tries = [next(fill)]
        else:
            source, done = basis[done], done + 1
            tries = (_apply(mat, source) for mat in entries)


def _integral(vec):
    """The sparse rational vector ``vec`` times the lcm of its denominators."""
    top = lcm(*(c.denominator for c in vec.values()))
    return {s: c.numerator * (top // c.denominator) for s, c in vec.items()}


def sparse_similar(action):
    """(S, S^-1 rho S) with S invertible and S^-1 rho S no denser than rho.

    Each rho(e_k) with a kernel gives one start, the first vector of its
    canonical kernel basis, and S is that start's ``_orbit_basis``, so S^-1
    rho(e_k) S has a zero first column, and every image kept in the orbit is a
    column of S^-1 rho(e_j) S with a single nonzero.  When an orbit closes, the
    kernel vectors of every rho(e_j) fill the basis before the unit vectors
    do, each a zero column of S^-1 rho(e_j) S: on a conjugate of the
    heisenberg3 adjoint the orbit of a start is two-dimensional, and a kernel
    vector completes the basis at the rank bound.  The start with the fewest
    nonzeros over all the rho(e_j) is kept, and rho itself (with S the
    identity) unless a start has strictly fewer.  A matrix of rank r has at
    least r nonzeros, so the search stops at the first start that reaches
    sum_k rank rho(e_k), and rho is returned at once when each of its matrices
    has its nonzeros in distinct rows and distinct columns, which is exactly
    when it meets that bound (the builtin adjoint actions, rot2, the trivial
    actions).  Kernels, spans and S^-1 come from ``linalg``.  With n starts of
    at most 2 m n + m span checks and one solve of n m columns each, the cost is
    O(n^2 m^3), the order of ``check_representation``.  Similarity keeps
    brackets, so the result is a representation whenever rho is.
    """
    m = len(action[0]) if action else 0
    entries = _nonzero_entries(action)
    identity = tuple(tuple(int(r == s) for s in range(m)) for r in range(m))
    if all(len({e[axis] for e in mat}) == len(mat) for mat in entries for axis in (0, 1)):
        return identity, action
    # the orbits and kernels of D rho are those of rho, for D the lcm of its denominators
    scale, ints = _int_entries(entries)
    kernels = []
    for mat in ints:
        columns = [{} for _ in range(m)]
        for r, s, x in mat:
            columns[s][r] = x
        kernels.append([_integral(vec) for vec in linalg.relations(columns)])
    bound, fewest, best = sum(m - len(kernel) for kernel in kernels), sum(map(len, entries)), None
    fill = [vec for kernel in kernels for vec in kernel]
    for start in (kernel[0] for kernel in kernels if kernel):
        columns = _orbit_basis(ints, start, fill, m)
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
