"""Polynomial-functor procedures: homogeneous decomposition of black-box
polynomial maps, a sampling polynomiality detector, and the restriction
injectivity check for Sym^d / Lambda^d / Tensor^d.

The detector is a falsifier, not a decision procedure: a black box can only
be sampled, so "consistent-with-polynomial(d)" means the interpolant built
on a degree-d grid matched the map at the extra off-grid check points.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from itertools import product
from math import comb, factorial, lcm, prod
from operator import getitem, mul

from .chart_forms import PolyMap
from .liealg import frac


class BlackBoxMap(namedtuple("BlackBoxMap", "source_dim target_dim evaluator")):
    """Deterministic map Q^source_dim -> Q^target_dim; the evaluator is a
    callable tuple -> tuple."""

    __slots__ = ()

    def __call__(self, v):
        v = tuple(map(frac, v))
        if len(v) != self.source_dim:
            raise ValueError("input has the wrong dimension")
        out = tuple(map(frac, self.evaluator(v)))
        if len(out) != self.target_dim:
            raise ValueError("evaluator returned the wrong dimension")
        return out


def _batch(vectors):
    """The coordinate columns of ``vectors``, each scaled to ints once: per column,
    (D, numerators) with D the lcm of the column's denominators and the
    numerators over D.  There are as many columns as the shortest vector has
    coordinates."""
    out = []
    for column in zip(*vectors):
        den = lcm(*(x.denominator for x in column))
        out.append((den, [x.numerator * (den // x.denominator) for x in column]))
    return out


def _combine(coeffs, batch, over=1):
    """(sum_k coeffs[k] vectors[k]) / over, coordinate by coordinate, in exact
    arithmetic, for integer coefficients and the ``_batch`` of the vectors.

    Every sum of the procedures below is taken here, on ints: one integer sum
    per coordinate, and one Fraction.
    """
    return tuple(Fraction(sum(map(mul, coeffs, nums)), over * den) for den, nums in batch)


def _vandermonde_inverse(d):
    """Inverse of the (d+1)x(d+1) matrix V[r][i] = (r+1)^i at the nodes 1..d+1, as
    integer numerators over d!: (N, d!) with N[i][r] = d! (V^-1)[i][r], so that
    f_i(v) = sum_r N[i][r] f((r+1) v) / d!.

    Column r is the Lagrange basis polynomial of node r+1 times d!, that is
    (-1)^(d-r) C(d, r) P(t) / (t - (r+1)) for P = prod_{k=1}^{d+1} (t - k);
    row i holds its t^i coefficients.
    """
    full = [1]  # the coefficients of P, from t^0 up
    for k in range(1, d + 2):
        full = [a - k * b for a, b in zip([0, *full], [*full, 0])]
    cols = []
    for r in range(d + 1):
        node, sign = r + 1, (-1) ** (d - r) * comb(d, r)
        quotient, carry = [], 0
        for a in reversed(full[1:]):  # synthetic division by t - node, from the top
            carry = a + node * carry
            quotient.append(sign * carry)
        cols.append(quotient[::-1])
    return [list(row) for row in zip(*cols)], factorial(d)


# components[i][probe_index] is the output tuple of f_i at that probe
HomogeneousDecomposition = namedtuple("HomogeneousDecomposition", "probes components")


def homogeneous_decompose(f: BlackBoxMap, d: int, probes) -> HomogeneousDecomposition:
    """Split f into homogeneous components f_0..f_d, tabulated on the probes.

    Evaluates f(lambda v) at lambda = 1..d+1 and applies the closed-form
    Vandermonde inverse per probe.  The reconstruction sum f_i(v) = f(v) is
    exact by construction (lambda = 1 is a node); the scalars mu = 2, 3 check
    the ray-degree precondition through f_i(mu v) = mu^i f_i(v) and raises
    with a witness when it fails.  The Vandermonde matrix is invertible, so
    that holds for every i exactly when f(t v) = sum_i f_i(v) t^i at t = mu
    lambda for every node lambda; at a t that is itself a node it holds by
    construction, so f is evaluated only at the other t, once per probe and t
    (6 = 2 * 3 = 3 * 2), and the components at mu v are solved for only to
    name the failing one.  The node values and the components of a probe are
    each one ``_batch``.
    """
    if d < 0:
        raise ValueError("degree bound must be >= 0")
    weights, den = _vandermonde_inverse(d)
    probes = [tuple(frac(x) for x in p) for p in probes]

    def components_at(v):
        values = _batch([f(tuple(x * lam for x in v)) for lam in range(1, d + 2)])
        return [_combine(row, values, den) for row in weights]

    table = [components_at(v) for v in probes]
    components = [[table[p][i] for p in range(len(probes))] for i in range(d + 1)]
    # f(t v) per probe, evaluated once: 6 v is both 2 (3 v) and 3 (2 v)
    on_ray = [{} for _ in probes]

    def ray_value(pi, t):
        seen = on_ray[pi]
        if t not in seen:
            seen[t] = f(tuple(x * t for x in probes[pi]))
        return seen[t]

    batches = [_batch(comps) for comps in table]
    for mu in (2, 3):
        # the powers t^0..t^d of each t that is not a node, shared by the probes
        rays = [(t, [t ** i for i in range(d + 1)]) for t in (mu * lam for lam in range(1, d + 2))
                if t > d + 1]
        for pi, v in enumerate(probes):
            if all(ray_value(pi, t) == _combine(powers, batches[pi]) for t, powers in rays):
                continue
            comps = table[pi]
            scaled = components_at(tuple(x * mu for x in v))
            for i in range(d + 1):
                if scaled[i] != tuple(mu ** i * x for x in comps[i]):
                    point = ", ".join(map(str, v))
                    raise ValueError(
                        f"map is not polynomial of degree <= {d} along rays: "
                        f"component {i} fails homogeneity at probe ({point}) with mu={mu}")
    return HomogeneousDecomposition(probes, components)


# -- polynomiality detector -------------------------------------------


# witness is None or (trial_index, point, expected, interpolated)
PolynomialVerdict = namedtuple("PolynomialVerdict", "consistent witness", defaults=(None,))


def _lagrange_weights(d, x):
    """l_j(x) = prod_{k != j} (x - k)/(j - k) for the nodes j = 0..d, at an x = p/q that
    is no node, as integer numerators over one denominator: (N, q^d d!) with
    N_j = (-1)^(d-j) C(d, j) prod_{k != j} (p - kq), the product being P / (p - jq)
    for P = prod_k (p - kq)."""
    p, q = x.numerator, x.denominator
    full = prod(p - k * q for k in range(d + 1))
    return ([(-1) ** (d - j) * comb(d, j) * (full // (p - j * q)) for j in range(d + 1)],
            q ** d * factorial(d))


CHECKPOINT_PATTERNS = (
    (Fraction(1, 2), Fraction(1, 2), Fraction(1, 2)),
    (Fraction(-1, 2), Fraction(1, 2), Fraction(-1, 2)),
    (Fraction(-3, 2), Fraction(5, 3), Fraction(-1, 4)),
    (Fraction(7, 3), Fraction(-5, 3), Fraction(1, 3)),
)


def is_polynomial(f: BlackBoxMap, d: int, trial_sets) -> PolynomialVerdict:
    """Sampling test of Definition-style polynomiality of degree d.

    For each trial set {v_1..v_n} the map (l_1..l_n) -> f(sum l_i v_i) is
    interpolated on the grid {0..d}^n and compared with direct evaluation at
    off-grid rational points with mixed signs.  Returns the first witness of
    a mismatch, or consistency.  This can refute polynomiality, never prove
    it.
    """
    if d < 0:
        raise ValueError("degree bound must be >= 0")
    origin = (Fraction(0),) * f.source_dim
    for ti, vs in enumerate(trial_sets):
        vs = [tuple(frac(x) for x in v) for v in vs]
        basis = _batch(vs)
        grid = list(product(range(d + 1), repeat=len(vs)))
        values = _batch([f(_combine(lam, basis) if vs else origin) for lam in grid])
        for pat in CHECKPOINT_PATTERNS:
            mu = pat[:len(vs)] + (Fraction(1, 2),) * (len(vs) - len(pat))
            scale = lcm(*(x.denominator for x in mu))
            expected = f(_combine([x.numerator * (scale // x.denominator) for x in mu], basis,
                                  scale) if vs else origin)
            # l_j(mu_k) = table[k][0][j] / table[k][1]; no checkpoint coordinate is a node
            table = [_lagrange_weights(d, x) for x in mu]
            nums = [n for n, _ in table]
            got = _combine([prod(map(getitem, nums, lam)) for lam in grid], values,
                           prod(q for _, q in table))
            if expected != got:
                return PolynomialVerdict(False, (ti, mu, expected, got))
    return PolynomialVerdict(True)


# -- concrete polynomial functors --------------------------------------


class FunctorSpec(namedtuple("FunctorSpec", "kind degree")):
    """kind "sym", "ext" or "ten", and degree >= 1; refused when built otherwise."""

    __slots__ = ()

    def __new__(cls, kind, degree):
        if kind not in ("sym", "ext", "ten"):
            raise ValueError(f"unknown functor kind {kind!r}")
        if degree < 1:
            raise ValueError("functors here are reduced: degree must be >= 1")
        return super().__new__(cls, kind, degree)


def canonical(kind, slots):
    """(canonical monomial, sign) of a sequence of slots; None if it vanishes.

    Sym sorts, Lambda sorts with the sign of the permutation (inversion
    count) and vanishes on a repeated slot, Tensor keeps the order.
    """
    if kind == "ten":
        return tuple(slots), 1
    if kind == "sym":
        return tuple(sorted(slots)), 1
    if len(set(slots)) != len(slots):
        return None
    sign = 1
    for a in range(len(slots)):
        for b in range(a + 1, len(slots)):
            if slots[a] > slots[b]:
                sign = -sign
    return tuple(sorted(slots)), sign


def functor_dim(spec: FunctorSpec, n: int) -> int:
    """dim F(R^n) in closed form: C(n+d-1, d), C(n, d) or n^d."""
    d = spec.degree
    return {"sym": comb(n + d - 1, d), "ext": comb(n, d), "ten": n ** d}[spec.kind]


InjectivityReport = namedtuple("InjectivityReport", "injective rank dim copies base_dim")


def restriction_injectivity(spec: FunctorSpec, copies: int, base_dim: int) -> InjectivityReport:
    """Report the rank of the stacked restrictions F(eps_I), |I| = degree, on
    F(V^copies): a lemma for copies > degree makes it dim, with no elimination."""
    d = spec.degree
    if copies <= d:
        raise ValueError("the hypothesis requires copies > degree")
    if base_dim < 0:
        raise ValueError("base_dim must be >= 0")
    dim = functor_dim(spec, copies * base_dim)
    # Each F(eps_I) is diagonal 0/1: it keeps the monomials whose blocks lie
    # in I, so the stacked rank counts the monomials some I keeps.  A degree-d
    # monomial touches at most d < copies blocks, so that count is dim.
    return InjectivityReport(True, dim, dim, copies, base_dim)


# -- black boxes from explicit polynomials ------------------------------


def poly_black_box(polys, source_dim) -> BlackBoxMap:
    """BlackBoxMap evaluating explicit polynomials, given as 0-forms."""
    return BlackBoxMap(source_dim, len(polys), PolyMap(source_dim, len(polys), polys))
