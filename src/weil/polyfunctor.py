"""Polynomial-functor procedures: homogeneous decomposition of black-box
polynomial maps, a sampling polynomiality detector, and the restriction
injectivity check for Sym^d / Lambda^d / Tensor^d.

The detector is a falsifier, not a decision procedure: a black box can only
be sampled, so "consistent-with-polynomial(d)" means the interpolant built
on a degree-d grid matched the map at the extra off-grid check points.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from math import comb, factorial, lcm, prod
from operator import getitem

from . import linalg
from .chart_forms import PolyMap
from .liealg import frac


@dataclass(frozen=True)
class BlackBoxMap:
    """Deterministic map Q^source_dim -> Q^target_dim."""

    source_dim: int
    target_dim: int
    evaluator: object  # callable tuple -> tuple

    def __call__(self, v):
        v = tuple(frac(x) for x in v)
        if len(v) != self.source_dim:
            raise ValueError("input has the wrong dimension")
        out = tuple(frac(x) for x in self.evaluator(v))
        if len(out) != self.target_dim:
            raise ValueError("evaluator returned the wrong dimension")
        return out


def _combine(coeffs, vectors):
    """sum_k coeffs[k] vectors[k], coordinate by coordinate, in exact arithmetic.

    Every sum of the procedures below is taken here; a zero coefficient is
    skipped, and the sum has the length of the shortest vector.  The sum is
    taken on ints: the coefficients are scaled once by the lcm of their
    denominators, each coordinate by the lcm of its column's denominators,
    and each output coordinate is one Fraction.
    """
    scale = lcm(*(c.denominator for c in coeffs))
    ints = [c.numerator * (scale // c.denominator) for c in coeffs]
    out = []
    for column in zip(*vectors):
        terms = [(a, x) for a, x in zip(ints, column) if a]
        den = lcm(*(x.denominator for _, x in terms))
        out.append(Fraction(sum(a * x.numerator * (den // x.denominator) for a, x in terms),
                            scale * den))
    return tuple(out)


def _vandermonde_inverse(d):
    """Inverse of the (d+1)x(d+1) matrix V[r][i] = nodes[r]^i at nodes 1..d+1.

    Returns (nodes, weights) with weights[i][r] = (V^-1)[i][r], so that
    f_i(v) = sum_r weights[i][r] f(nodes[r] v).
    """
    nodes = [Fraction(k) for k in range(1, d + 2)]
    cols = [{r: nodes[r] ** i for r in range(d + 1)} for i in range(d + 1)]
    inv_cols = linalg.solve(cols, [{r: Fraction(1)} for r in range(d + 1)])
    weights = [[inv_cols[r][i] for r in range(d + 1)] for i in range(d + 1)]
    return nodes, weights


@dataclass
class HomogeneousDecomposition:
    probes: list
    components: list  # components[i][probe_index] = output tuple


def homogeneous_decompose(f: BlackBoxMap, d: int, probes) -> HomogeneousDecomposition:
    """Split f into homogeneous components f_0..f_d, tabulated on the probes.

    Evaluates f(lambda v) at lambda = 1..d+1 and solves the Vandermonde
    system per probe.  The reconstruction sum f_i(v) = f(v) is exact by
    construction (lambda = 1 is a node); the scalars mu = 2, 3 check the
    ray-degree precondition through f_i(mu v) = mu^i f_i(v) and raises with
    a witness when it fails.  The Vandermonde matrix is invertible, so that
    holds for every i exactly when f(t v) = sum_i f_i(v) t^i at t = mu
    lambda for every node lambda; at a t that is itself a node it holds by
    construction, so f is evaluated only at the other t, and the components
    at mu v are solved for only to name the failing one.
    """
    if d < 0:
        raise ValueError("degree bound must be >= 0")
    nodes, weights = _vandermonde_inverse(d)
    probes = [tuple(frac(x) for x in p) for p in probes]

    def components_at(v):
        values = [f(_combine([lam], [v])) for lam in nodes]
        return [_combine(row, values) for row in weights]

    table = [components_at(v) for v in probes]
    components = [[table[p][i] for p in range(len(probes))] for i in range(d + 1)]

    for mu in (Fraction(2), Fraction(3)):
        # the powers t^0..t^d of each t that is not a node, shared by the probes
        rays = [(t, [t ** i for i in range(d + 1)]) for t in (mu * lam for lam in nodes)
                if t > nodes[-1]]
        for pi, v in enumerate(probes):
            comps = table[pi]
            if all(f(_combine([t], [v])) == _combine(powers, comps) for t, powers in rays):
                continue
            scaled = components_at(_combine([mu], [v]))
            for i in range(d + 1):
                if scaled[i] != _combine([mu ** i], [comps[i]]):
                    point = ", ".join(map(str, v))
                    raise ValueError(
                        f"map is not polynomial of degree <= {d} along rays: "
                        f"component {i} fails homogeneity at probe ({point}) with mu={mu}")
    return HomogeneousDecomposition(probes, components)


# -- polynomiality detector -------------------------------------------


@dataclass(frozen=True)
class PolynomialVerdict:
    consistent: bool
    witness: tuple | None = None  # (trial_index, point, expected, interpolated)


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
        grid = list(product(range(d + 1), repeat=len(vs)))
        values = [f(_combine(lam, vs) if vs else origin) for lam in grid]
        for pat in CHECKPOINT_PATTERNS:
            mu = pat[:len(vs)] + (Fraction(1, 2),) * (len(vs) - len(pat))
            expected = f(_combine(mu, vs) if vs else origin)
            # l_j(mu_k) = table[k][0][j] / table[k][1]; no checkpoint coordinate is a node
            table = [_lagrange_weights(d, x) for x in mu]
            nums = [n for n, _ in table]
            den = prod(q for _, q in table)
            got = tuple(y / den for y in
                        _combine([prod(map(getitem, nums, lam)) for lam in grid], values))
            if expected != got:
                return PolynomialVerdict(False, (ti, mu, expected, got))
    return PolynomialVerdict(True)


# -- concrete polynomial functors --------------------------------------


@dataclass(frozen=True)
class FunctorSpec:
    kind: str  # "sym" | "ext" | "ten"
    degree: int

    def __post_init__(self):
        if self.kind not in ("sym", "ext", "ten"):
            raise ValueError(f"unknown functor kind {self.kind!r}")
        if self.degree < 1:
            raise ValueError("functors here are reduced: degree must be >= 1")


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


@dataclass(frozen=True)
class InjectivityReport:
    injective: bool
    rank: int
    dim: int
    copies: int
    base_dim: int


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
