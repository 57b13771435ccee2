"""The acceptance suite: one callable per criterion, exact checks only.

Each criterion function returns a CriterionResult with JSON-able details.
All randomized cases draw from per-criterion seeded generators, so the suite
output is deterministic run to run; `weil verify-all` serializes it.
"""

from __future__ import annotations

import random
import sys
from collections import namedtuple
from fractions import Fraction
from functools import partial

from . import linalg
from .chart_forms import ChartForm, PolyMap, d as chart_d, evaluate, pullback
from .chern_weil import (LieValuedForm, builtin_rep, constant_gauge, cw_form,
                         gauge_transform, pullback_connection,
                         quaternion_matrix, unipotent_gauge)
from .equivariant import ROTATION_2D, WeilModel, WeilModelElement
from .invariant_polynomials import (basic_subspace, invariant_basis,
                                    invariant_dims)
from .liealg import adjoint_matrices, basis_vector, builtin
from .masks import indices_of
from .polyfunctor import (BlackBoxMap, FunctorSpec, homogeneous_decompose,
                          is_polynomial, poly_black_box,
                          restriction_injectivity)
from .schur_oracle import (antisymmetrization_problem,
                           equivariant_hom_dim, verify_bidegree)
from .superalg import vectors
from .weil_algebra import (WeilElement, change_of_basis,
                           contract, curvature_generator, d_K, graded_dims,
                           in_span, koszul_cohomology_dims, lie_derivative,
                           weil_basis)


class CriterionResult(namedtuple("CriterionResult", "ident title passed details")):
    __slots__ = ()

    def line(self):
        return f"{'PASS' if self.passed else 'FAIL'} criterion {self.ident}: {self.title}"


def _rand_coeff(rng):
    num = rng.randint(-4, 4) or 1
    den = rng.choice((1, 1, 1, 2, 3))
    return Fraction(num, den)


def _rand_homogeneous(rng, n, degree):
    keys = weil_basis(n, degree)
    out = WeilElement.zero(n)
    for key in rng.sample(keys, min(3, len(keys))):
        out = out + WeilElement(n, {key: _rand_coeff(rng)})
    return out


def _rand_vector(rng, n):
    return [Fraction(rng.randint(-2, 2)) for _ in range(n)]


# -- criteria ----------------------------------------------------------


def criterion_1():
    dims = {n: koszul_cohomology_dims(n, 8) for n in (1, 2, 3)}
    expected = [1] + [0] * 8
    passed = all(v == expected for v in dims.values())
    return CriterionResult(1, "Koszul acyclicity for n in {1,2,3}, degrees 0..8",
                           passed, {"cohomology": {str(n): v for n, v in dims.items()}})


def criterion_2():
    g = graded_dims(1, 8)
    h = koszul_cohomology_dims(1, 8)
    passed = g == [1] * 9 and h == [1] + [0] * 8
    return CriterionResult(2, "circle case: graded dims all 1 and cohomology R,0,0,...",
                           passed, {"graded_dims": g, "cohomology": h})


def criterion_3():
    su2 = builtin("su2")
    point = WeilModel(0, su2, [[]] * 3)  # the full iota/L system over the Weil basis
    basic = [point.basic_basis(dd, 0) for dd in range(9)]
    basic_dims_list = [len(b) for b in basic]
    inv = invariant_dims(su2, 4)
    even_match = all(basic_dims_list[2 * k] == inv[k] for k in range(5))
    closed = all(not point.total_d(v) for b in basic for v in b)
    same = all([v.terms for v in basic_subspace(su2, dd)] == [v.terms for v in b]
               for dd, b in enumerate(basic))
    passed = basic_dims_list == [1, 0, 0, 0, 1, 0, 0, 0, 1] and even_match and closed and same
    return CriterionResult(3, "basic subcomplex of su2 = invariant polynomials, d_K = 0",
                           passed, {"basic_dims": basic_dims_list, "invariant_dims": inv,
                                    "d_K_vanishes": closed})


def criterion_4():
    names = ("su2", "so3", "heisenberg3", "abelian(3)")
    details = {}
    passed = True
    for name in names:
        L = builtin(name)
        n = L.dim
        omegas = [curvature_generator(L, i) for i in range(n)]
        horizontal = all(not contract(L, basis_vector(n, l), omegas[i])
                         for l in range(n) for i in range(n))
        invertible = True
        for deg in range(9):
            keys = weil_basis(n, deg)
            images = vectors(change_of_basis(L, [WeilElement(n, {key: 1}) for key in keys]))
            if linalg.rank(images) != len(keys):
                invertible = False
        details[name] = {"iota_omega_zero": horizontal, "change_of_basis_invertible": invertible}
        passed = passed and horizontal and invertible
    return CriterionResult(4, "iota_l Omega^i = 0 and (theta, Omega) change of basis invertible",
                           passed, details)


def criterion_5():
    su2 = builtin("su2")
    rng = random.Random(105)
    n, trials, zero = 3, 100, WeilElement.zero(3)
    iota, lie = partial(contract, su2), partial(lie_derivative, su2)
    for _ in range(trials):
        a = _rand_homogeneous(rng, n, rng.randint(0, 6))
        xi, eta = _rand_vector(rng, n), _rand_vector(rng, n)
        br, lie_a = su2.bracket(xi, eta), lie(xi, a)
        # (name, left side, right side) of each identity, the first failure reported
        for name, lhs, rhs in (
                ("d^2", d_K(d_K(a)), zero),
                ("iota^2", iota(xi, iota(xi, a)), zero),
                ("anticommutator", iota(xi, iota(eta, a)) + iota(eta, iota(xi, a)), zero),
                ("L = d iota + iota d", lie_a, d_K(iota(xi, a)) + iota(xi, d_K(a))),
                ("[L, iota]", lie(xi, iota(eta, a)) - iota(eta, lie_a), iota(br, a)),
                ("[L, L]", lie(xi, lie(eta, a)) - lie(eta, lie_a), lie(br, a))):
            if lhs != rhs:
                return CriterionResult(5, "Cartan calculus suite", False, {"failed": name})
    return CriterionResult(5, "Cartan calculus suite on random su2 elements",
                           True, {"elements_checked": trials})


def _rand_poly(rng, m, max_degree, nterms):
    p = {}
    for _ in range(nterms):
        e = [0] * m
        for _ in range(rng.randint(0, max_degree)):
            e[rng.randrange(m)] += 1
        key = tuple(e)
        p[key] = p.get(key, Fraction(0)) + _rand_coeff(rng)
    return ChartForm.from_poly(m, p)


def _rand_connection(rng, L, m):
    comps = []
    for _ in range(L.dim):
        form = ChartForm.zero(m)
        for _ in range(rng.randint(1, 2)):
            i = rng.randrange(m)
            form = form + ChartForm.dx(m, i, _rand_poly(rng, m, 2, 1))
        comps.append(form)
    return LieValuedForm(L, m, comps)


def _rand_polymap(rng, src, dst):
    return PolyMap(src, dst, [_rand_poly(rng, src, 2, 2) for _ in range(dst)])


def _heisenberg_constant_gauge(rng, rep, m):
    mat = [[Fraction(1), Fraction(rng.randint(-2, 2)), Fraction(rng.randint(-2, 2))],
           [Fraction(0), Fraction(1), Fraction(rng.randint(-2, 2))],
           [Fraction(0), Fraction(0), Fraction(1)]]
    return constant_gauge(rep, mat, m)


def criterion_6():
    details = {}
    passed = True
    reps = {"abelian(1)": builtin_rep("abelian(1)"),
            "su2": builtin_rep("su2"),
            "heisenberg3": builtin_rep("heisenberg3")}
    gauge_counts = {"constant": 0, "unipotent": 0}
    for name in ("abelian(1)", "su2", "heisenberg3"):
        L = builtin(name)
        rng = random.Random(106 + L.dim * 17 + len(name))
        invariants = invariant_basis(L, 1) + invariant_basis(L, 2)
        closed_ok = natural_ok = gauge_ok = True
        for ci in range(20):
            m = rng.choice((3, 4, 5))
            A = _rand_connection(rng, L, m)
            P = invariants[ci % len(invariants)]
            cw = cw_form(P, A)
            if chart_d(cw):
                closed_ok = False
            for _ in range(5):
                src = rng.choice((2, 3, 4))
                phi = _rand_polymap(rng, src, m)
                if pullback(phi, cw) != cw_form(P, pullback_connection(phi, A)):
                    natural_ok = False
            # gauges: constants for every algebra; unipotents where the group
            # has them (su2 is compact, so only the trivial unipotent exists)
            if name == "su2":
                quat = [rng.randint(-3, 3) for _ in range(4)]
                if not any(quat):
                    quat = [1, 0, 0, 0]
                g = constant_gauge(reps[name], quaternion_matrix(*quat), m)
                gs = [("constant", g)]
            elif name == "heisenberg3":
                gs = [("constant", _heisenberg_constant_gauge(rng, reps[name], m)),
                      ("unipotent", unipotent_gauge(reps[name], {
                          (0, 1): _rand_poly(rng, m, 2, 1),
                          (1, 2): _rand_poly(rng, m, 2, 1),
                          (0, 2): _rand_poly(rng, m, 2, 1)}, m))]
            else:
                gs = [("unipotent", unipotent_gauge(reps[name], {
                    (0, 1): _rand_poly(rng, m, 2, 2)}, m))]
            for kind, g in gs:
                if cw_form(P, gauge_transform(A, g)) != cw:
                    gauge_ok = False
                gauge_counts[kind] += 1
        details[name] = {"closed": closed_ok, "natural": natural_ok, "gauge_invariant": gauge_ok,
                         "connections": 20}
        passed = passed and closed_ok and natural_ok and gauge_ok
    details["gauge_counts"] = gauge_counts
    passed = passed and gauge_counts["constant"] >= 10 and gauge_counts["unipotent"] >= 10
    return CriterionResult(6, "Chern-Weil forms closed, natural, gauge invariant",
                           passed, details)


def criterion_7():
    table = [[equivariant_hom_dim(antisymmetrization_problem(N, q, 3)) for q in range(4)]
             for N in range(4)]
    table_ok = all(table[N][q] == (1 if N == q else 0)
                   for N in range(4) for q in range(4))
    reports = []
    matches = True
    for dim_v in (1, 2):
        for p in range(5):
            for q in range(3):
                if p + 2 * q <= 4:
                    r = verify_bidegree(p, q, dim_v)
                    reports.append({"p": p, "q": q, "dimV": dim_v, "dimW": r.dim_w,
                                    "expected": r.expected, "computed": r.computed,
                                    "match": r.match})
                    matches = matches and r.match
    return CriterionResult(7, "equivariant map dimensions: antisymmetrization table and all bidegrees p+2q <= 4",
                           table_ok and matches,
                           {"antisymmetrization": table, "bidegrees": reports})


def criterion_8():
    rng = random.Random(108)
    recon_ok = True
    for _ in range(20):
        src = rng.randint(1, 3)
        dst = rng.randint(1, 3)
        deg = rng.randint(0, 3)
        polys = [_rand_poly(rng, src, deg, 3) for _ in range(dst)]
        f = poly_black_box(polys, src)
        probes = [tuple(Fraction(rng.randint(-3, 3)) for _ in range(src)) for _ in range(4)]
        dec = homogeneous_decompose(f, 3, probes)
        # independent oracle: split the explicit polynomials by total degree
        for i in range(4):
            parts = [ChartForm(src, {k: c for k, c in p.terms.items() if sum(k[1]) == i})
                     for p in polys]
            for pi, v in enumerate(probes):
                if dec.components[i][pi] != tuple(evaluate(p, v) for p in parts):
                    recon_ok = False
    fabs = BlackBoxMap(1, 1, lambda v: (abs(v[0]),))
    verdict = is_polynomial(fabs, 2, [[(Fraction(1),), (Fraction(-1),)]])
    abs_flagged = not verdict.consistent
    inject_ok = True
    inj = {}
    for kind in ("sym", "ext"):
        for copies in (3, 4):
            rep = restriction_injectivity(FunctorSpec(kind, 2), copies, 1)
            inj[f"{kind}2_n{copies}"] = rep.injective
            inject_ok = inject_ok and rep.injective
    passed = recon_ok and abs_flagged and inject_ok
    return CriterionResult(8, "appendix suite: decomposition, |x| falsified, restrictions injective",
                           passed, {"reconstructions": recon_ok, "abs_flagged": abs_flagged,
                                    "injectivity": inj})


def _rand_model_element(rng, model):
    keys = []
    for deg in range(4):
        keys += model.basis(deg, 2)
    elem = model.zero()
    for key in rng.sample(keys, min(3, len(keys))):
        elem = elem + WeilModelElement(model, {key: _rand_coeff(rng)})
    return elem


def _factorwise_lie(model, xi, w):
    """Oracle for the total Lie derivative: L_chart (x) 1 + 1 (x) L_weil."""
    out = WeilModelElement(model, {})
    vf = model.vector_field(xi)
    for key, c in w.terms.items():
        fk, wk = model.split(key)
        form = ChartForm(model.m, {fk: c})
        contracted = _chart_contract(model, vf, form)
        lf = chart_d(contracted) + _chart_contract(model, vf, chart_d(form))
        for fk2, c2 in lf.terms.items():
            out = out + WeilModelElement(model, {model.join(fk2, wk): c2})
        lw = lie_derivative(model.algebra, xi, WeilElement(model.n, {wk: c}))
        for wk2, c2 in lw.terms.items():
            out = out + WeilModelElement(model, {model.join(fk, wk2): c2})
    return out


def _chart_contract(model, vf, form):
    out = ChartForm.zero(model.m)
    for (mask, mono), c in form.terms.items():
        pos = 0
        for t in indices_of(mask):
            sign = -1 if pos % 2 else 1
            for (_, e), cv in vf[t].terms.items():
                mono2 = tuple(a + b for a, b in zip(mono, e))
                out = out + ChartForm(model.m, {(mask & ~(1 << t), mono2): c * cv * sign})
            pos += 1
    return out


def criterion_9():
    su2 = builtin("su2")
    ab = builtin("abelian(1)")
    rot = WeilModel(2, ab, [ROTATION_2D])
    adjoint = WeilModel(3, su2, adjoint_matrices(su2))
    identities_ok = True
    for model in (rot, adjoint):
        rng = random.Random(109 + model.m)
        for _ in range(20):
            w = _rand_model_element(rng, model)
            xi = _rand_vector(rng, model.n)
            if model.total_d(model.total_d(w)):
                identities_ok = False
            if model.total_lie(xi, w) != _factorwise_lie(model, xi, w):
                identities_ok = False
    m0 = WeilModel(0, su2, [[] for _ in range(3)])
    reduction = [m0.basic_dim(dd, 0) for dd in range(9)]
    reduction_ok = reduction == [1, 0, 0, 0, 1, 0, 0, 0, 1]
    basis = rot.basic_basis(0, 2)
    r2 = rot.from_pair(ChartForm.from_poly(2, {(2, 0): Fraction(1), (0, 2): Fraction(1)}),
                       WeilElement.unit(1))
    contains = in_span(basis, r2)
    passed = identities_ok and reduction_ok and contains
    return CriterionResult(9, "equivariant Weil model: D^2 = 0, Cartan, reductions",
                           passed, {"identities": identities_ok,
                                    "m0_reduction": reduction,
                                    "rotation_contains_r2": contains})


CRITERIA = (criterion_1, criterion_2, criterion_3, criterion_4, criterion_5,
            criterion_6, criterion_7, criterion_8, criterion_9)


def run_all():
    """Run criteria 1..9, printing each result line to stderr; determinism
    (criterion 10) is checked by running the CLI twice and comparing bytes,
    see the test suite and README."""
    results = []
    for fn in CRITERIA:
        results.append(fn())
        print(results[-1].line(), file=sys.stderr)
    return results
