import random
from fractions import Fraction
from itertools import combinations, combinations_with_replacement, product
from math import factorial, prod

import pytest

from weil import linalg, polyfunctor
from weil.chart_forms import ChartForm, PolyMap
from weil.polyfunctor import (BlackBoxMap, FunctorSpec, canonical, functor_dim,
                              homogeneous_decompose, is_polynomial,
                              poly_black_box, restriction_injectivity)


def F(a, b=1):
    return Fraction(a, b)


def box(src, *polys):
    """poly_black_box of polynomials given as {exponent: coefficient} dicts."""
    return poly_black_box([ChartForm.from_poly(src, p) for p in polys], src)


def functor_basis(spec, n):
    """Monomial basis of F(R^n) as index tuples, each in canonical order."""
    if spec.kind == "ten":
        return list(product(range(n), repeat=spec.degree))
    pick = combinations_with_replacement if spec.kind == "sym" else combinations
    return list(pick(range(n), spec.degree))


def apply_functor_matrix(spec, matrix, vector, n_in, n_out):
    """F(A) applied to a coordinate vector over functor_basis(spec, n_in).

    ``matrix`` is n_out x n_in; returns coordinates over functor_basis(spec, n_out).
    """
    basis_in = functor_basis(spec, n_in)
    index_out = {b: i for i, b in enumerate(functor_basis(spec, n_out))}
    out = {}
    for coord, b in zip(vector, basis_in):
        if not coord:
            continue
        # multilinear expansion of (A e_{b_1}) ... (A e_{b_d})
        factor_images = [[(r, matrix[r][idx]) for r in range(n_out) if matrix[r][idx]]
                         for idx in b]
        for choice in product(*factor_images):
            coeff = coord
            for _, v in choice:
                coeff *= v
            canon = canonical(spec.kind, tuple(r for r, _ in choice))
            if canon is None:
                continue
            key, sign = canon
            i = index_out[key]
            v = out.get(i, F(0)) + sign * coeff
            if v:
                out[i] = v
            else:
                out.pop(i, None)
    return out


def sym_square_box(base_dim):
    """The set-theoretic transformation Sym^2 V -> Sym^4 V, x -> x*x."""
    sym2 = functor_basis(FunctorSpec("sym", 2), base_dim)
    sym4_index = {b: i for i, b in enumerate(functor_basis(FunctorSpec("sym", 4), base_dim))}

    def ev(v):
        out = [F(0)] * len(sym4_index)
        for c1, b1 in zip(v, sym2):
            for c2, b2 in zip(v, sym2):
                if c1 and c2:
                    out[sym4_index[tuple(sorted(b1 + b2))]] += c1 * c2
        return tuple(out)

    return BlackBoxMap(len(sym2), len(sym4_index), ev)


def test_decompose_x_plus_xy():
    f = box(2, {(1, 0): F(1), (1, 1): F(1)})
    probes = [(F(1), F(2)), (F(-3), F(5)), (F(2), F(-7))]
    dec = homogeneous_decompose(f, 2, probes)
    for pi, (x, y) in enumerate(probes):
        assert dec.components[0][pi] == (F(0),)
        assert dec.components[1][pi] == (x,)
        assert dec.components[2][pi] == (x * y,)


def test_decompose_already_homogeneous():
    # f(M) = M*M on 2x2 matrices, coordinates (a,b,c,d) row-major
    def ev(v):
        a, b, c, d = v
        return (a * a + b * c, a * b + b * d, c * a + d * c, c * b + d * d)

    f = BlackBoxMap(4, 4, ev)
    probes = [(F(1), F(2), F(3), F(4)), (F(0), F(1), F(-1), F(2))]
    dec = homogeneous_decompose(f, 2, probes)
    for pi, p in enumerate(probes):
        assert dec.components[0][pi] == (F(0),) * 4
        assert dec.components[1][pi] == (F(0),) * 4
        assert dec.components[2][pi] == f(p)


def test_decompose_zero_map():
    f = box(3, {})
    dec = homogeneous_decompose(f, 3, [(F(1), F(2), F(3))])
    assert all(comp[0] == (F(0),) for comp in dec.components)


def test_decompose_reconstruction_is_exact():
    rng = random.Random(83)
    for _ in range(10):
        src, dst = rng.randint(1, 3), rng.randint(1, 2)
        polys = []
        for _ in range(dst):
            p = {}
            for _ in range(3):
                e = tuple(rng.randint(0, 2) for _ in range(src))
                if sum(e) <= 3:
                    p[e] = p.get(e, F(0)) + F(rng.randint(-3, 3), rng.choice((1, 2)))
            polys.append({k: v for k, v in p.items() if v})
        f = box(src, *polys)
        probes = [tuple(F(rng.randint(-4, 4)) for _ in range(src)) for _ in range(3)]
        dec = homogeneous_decompose(f, 3, probes)
        for pi, v in enumerate(probes):
            total = tuple(sum(comp[pi][t] for comp in dec.components)
                          for t in range(dst))
            assert total == f(v)


def test_decompose_flags_ray_degree_overflow():
    # x^4 against degree bound 2: the aliased components fail the mu-scaling
    # verification.  (|x| is NOT catchable here: the probe scalings are all
    # positive, which is exactly why is_polynomial uses mixed-sign trials.)
    f = box(1, {(4,): F(1)})
    with pytest.raises(ValueError):
        homogeneous_decompose(f, 2, [(F(1),)])


@pytest.mark.parametrize("d, calls", [(0, 3), (1, 5), (2, 6), (3, 8), (4, 11), (5, 12)])
def test_decompose_evaluates_each_ray_point_once(d, calls):
    # per probe, the nodes 1..d+1 and every other mu * lambda for mu = 2, 3:
    # at d = 2 the nodes 1, 2, 3 and 4, 6, 9, where 6 is both 2 * 3 and 3 * 2
    points = []
    inner = box(2, {(0, 0): F(1), **{(i, d - i): F(i - 2) for i in range(d + 1)}})
    f = BlackBoxMap(2, 1, lambda v: points.append(v) or inner(v))
    probes = [(F(1), F(2)), (F(-3), F(1, 2))]
    homogeneous_decompose(f, d, probes)
    nodes = set(range(1, d + 2))
    assert calls == len(nodes) + len({mu * lam for mu in (2, 3) for lam in nodes} - nodes)
    assert len(points) == len(set(points)) == len(probes) * calls


def solved_vandermonde_inverse(d):
    """The previous _vandermonde_inverse, kept as the oracle: nodes 1..d+1 and
    weights[i][r] = (V^-1)[i][r] for V[r][i] = nodes[r]^i, solved by linalg."""
    nodes = [F(k) for k in range(1, d + 2)]
    cols = [{r: nodes[r] ** i for r in range(d + 1)} for i in range(d + 1)]
    inv_cols = linalg.solve(cols, [{r: F(1)} for r in range(d + 1)])
    return nodes, [[inv_cols[r][i] for r in range(d + 1)] for i in range(d + 1)]


def test_vandermonde_inverse_matches_the_solved_inverse():
    # every d that the (d+1)^3 cap of polyfunc decompose admits: 27^3 <= 20000 < 28^3
    assert 27 ** 3 <= 20000 < 28 ** 3
    for d in range(27):
        nums, den = polyfunctor._vandermonde_inverse(d)
        assert den == factorial(d) and all(type(n) is int for row in nums for n in row)
        assert [[F(n, den) for n in row] for row in nums] == solved_vandermonde_inverse(d)[1]


def decompose_by_components(f, d, probes):
    """The previous homogeneous_decompose: f_i(mu v) = mu^i f_i(v) checked
    component by component, solving the Vandermonde system at every mu v."""
    nodes, weights = solved_vandermonde_inverse(d)
    probes = [tuple(F(x) for x in p) for p in probes]

    def components_at(v):
        values = [f(tuple(lam * x for x in v)) for lam in nodes]
        return [tuple(sum((w * val[t] for w, val in zip(weights[i], values)), F(0))
                      for t in range(f.target_dim)) for i in range(d + 1)]

    table = [components_at(v) for v in probes]
    components = [[table[p][i] for p in range(len(probes))] for i in range(d + 1)]
    for mu in (F(2), F(3)):
        for pi, v in enumerate(probes):
            scaled = components_at(tuple(mu * x for x in v))
            for i in range(d + 1):
                if scaled[i] != tuple(mu ** i * x for x in components[i][pi]):
                    point = ", ".join(map(str, v))
                    raise ValueError(
                        f"map is not polynomial of degree <= {d} along rays: "
                        f"component {i} fails homogeneity at probe ({point}) with mu={mu}")
    return polyfunctor.HomogeneousDecomposition(probes, components)


def outcome(decompose, f, d, probes):
    try:
        return decompose(f, d, probes)
    except ValueError as e:
        return str(e)


def test_decompose_matches_component_check():
    # random maps of degree up to d + 3: the same components, or the same message
    rng = random.Random(29)
    raised = 0
    for _ in range(60):
        d = rng.randint(0, 4)
        src, dst = rng.randint(1, 3), rng.randint(1, 2)
        top = rng.randint(0, d + 3)
        polys = []
        for _ in range(dst):
            p = {}
            for _ in range(4):
                e = tuple(rng.randint(0, top) for _ in range(src))
                if sum(e) <= top:
                    p[e] = p.get(e, F(0)) + F(rng.randint(-3, 3), rng.choice((1, 2)))
            polys.append({k: v for k, v in p.items() if v})
        f = box(src, *polys)
        probes = [tuple(F(rng.randint(-4, 4), rng.choice((1, 3))) for _ in range(src))
                  for _ in range(3)]
        got = outcome(homogeneous_decompose, f, d, probes)
        assert got == outcome(decompose_by_components, f, d, probes), (d, polys, probes)
        raised += isinstance(got, str)
    assert 10 <= raised <= 50


def test_is_polynomial_examples():
    assert is_polynomial(box(1, {(3,): F(1)}), 3,
                         [[(F(1),)], [(F(-2),)]]).consistent
    fabs = BlackBoxMap(1, 1, lambda v: (abs(v[0]),))
    verdict = is_polynomial(fabs, 2, [[(F(1),), (F(-1),)]])
    assert not verdict.consistent
    ti, point, expected, got = verdict.witness
    assert expected != got
    assert is_polynomial(box(2, {(2, 1): F(1)}), 3,
                         [[(F(1), F(0)), (F(0), F(1))]]).consistent


def test_is_polynomial_refuses_negative_degree():
    with pytest.raises(ValueError):
        is_polynomial(box(1, {(1,): F(1)}), -1, [[(F(1),)]])


def test_is_polynomial_underestimated_degree_is_flagged():
    f = box(1, {(4,): F(1)})
    assert not is_polynomial(f, 3, [[(F(1),)]]).consistent


def test_restriction_injectivity_examples():
    r = restriction_injectivity(FunctorSpec("sym", 2), 3, 1)
    assert r.injective and r.dim == 6 and r.rank == 6
    r = restriction_injectivity(FunctorSpec("ext", 2), 3, 1)
    assert r.injective and r.dim == 3
    r = restriction_injectivity(FunctorSpec("ten", 1), 2, 2)
    assert r.injective and r.dim == 4


def _stacked_rank(spec, copies, base_dim):
    """Rank of the stacked F(eps_I), |I| = degree, one unit row per kept monomial."""
    basis = functor_basis(spec, copies * base_dim)
    rows_by_key = {}
    for I in combinations(range(copies), spec.degree):
        for j, b in enumerate(basis):
            if all(i // base_dim in I for i in b):
                rows_by_key.setdefault((I, b), {})[j] = F(1)
    return linalg.rank(list(rows_by_key.values())), len(basis)


def test_restriction_injectivity_matches_stacked_rank():
    for kind in ("sym", "ext", "ten"):
        for degree in (1, 2, 3):
            spec = FunctorSpec(kind, degree)
            for copies in (degree + 1, degree + 2):
                for base_dim in (0, 1, 2):
                    r = restriction_injectivity(spec, copies, base_dim)
                    rank, dim = _stacked_rank(spec, copies, base_dim)
                    assert (r.rank, r.dim, r.injective) == (rank, dim, rank == dim), \
                        (kind, degree, copies, base_dim)


def test_restrictions_are_diagonal_projectors():
    # the premise of the count: F(eps_I) maps each monomial to itself or to 0
    for kind in ("sym", "ext", "ten"):
        spec = FunctorSpec(kind, 2)
        copies, base_dim = 3, 2
        n = copies * base_dim
        basis = functor_basis(spec, n)
        for I in combinations(range(copies), 2):
            eps = [[F(int(r == c and r // base_dim in I)) for c in range(n)] for r in range(n)]
            for j, b in enumerate(basis):
                unit = [F(int(k == j)) for k in range(len(basis))]
                image = apply_functor_matrix(spec, eps, unit, n, n)
                kept = all(i // base_dim in I for i in b)
                assert image == ({j: F(1)} if kept else {}), (kind, I, b)


def test_restriction_injectivity_precondition():
    with pytest.raises(ValueError):
        restriction_injectivity(FunctorSpec("sym", 2), 2, 1)


def test_functor_spec_validation():
    with pytest.raises(ValueError):
        FunctorSpec("sym", 0)
    with pytest.raises(ValueError):
        FunctorSpec("weird", 2)


def test_functor_dims():
    assert functor_dim(FunctorSpec("sym", 2), 3) == 6
    assert functor_dim(FunctorSpec("ext", 2), 4) == 6
    assert functor_dim(FunctorSpec("ten", 3), 2) == 8
    # the closed form counts the monomial basis
    for kind in ("sym", "ext", "ten"):
        for degree in (1, 2, 3):
            for n in range(5):
                spec = FunctorSpec(kind, degree)
                assert functor_dim(spec, n) == len(functor_basis(spec, n)), (kind, degree, n)


def test_inject_answers_without_enumerating():
    # the package has no monomial enumerator; the answer is the closed form,
    # also where an enumeration would never end (10^36 monomials)
    r = restriction_injectivity(FunctorSpec("ten", 3), 30, 2)
    assert (r.dim, r.rank, r.injective) == (216_000, 216_000, True)
    r = restriction_injectivity(FunctorSpec("ten", 3), 10 ** 6, 10 ** 6)
    assert (r.dim, r.rank, r.injective) == (10 ** 36, 10 ** 36, True)


def test_functoriality_of_matrix_action():
    rng = random.Random(97)
    spec = FunctorSpec("ext", 2)
    n = 3
    dim = functor_dim(spec, n)
    for _ in range(5):
        A = [[F(rng.randint(-2, 2)) for _ in range(n)] for _ in range(n)]
        B = [[F(rng.randint(-2, 2)) for _ in range(n)] for _ in range(n)]
        AB = [[sum(A[i][k] * B[k][j] for k in range(n)) for j in range(n)]
              for i in range(n)]
        vec = [F(rng.randint(-2, 2)) for _ in range(dim)]
        via_b = apply_functor_matrix(spec, B, vec, n, n)
        vb = [via_b.get(i, F(0)) for i in range(dim)]
        lhs = apply_functor_matrix(spec, A, vb, n, n)
        rhs = apply_functor_matrix(spec, AB, vec, n, n)
        assert lhs == rhs


def test_sym_square_transformation_is_polynomial_of_degree_2():
    for base_dim in (1, 2):
        box = sym_square_box(base_dim)
        trials = []
        basis = functor_basis(FunctorSpec("sym", 2), base_dim)
        units = [tuple(F(1 if i == j else 0) for i in range(len(basis)))
                 for j in range(min(len(basis), 2))]
        trials.append(units)
        trials.append([tuple(F(-x) for x in units[0]), units[0]])
        assert is_polynomial(box, 2, trials).consistent


def per_grid_point_is_polynomial(f, d, trial_sets):
    """The previous detector, kept as the oracle: one Lagrange weight per grid
    point and coordinate, l_j(x) = prod_{k != j} (x - k) / (j - k)."""
    def weight(j, x):
        w = F(1)
        for k in range(d + 1):
            if k != j:
                w *= (x - k) / F(j - k)
        return w

    for ti, vs in enumerate(trial_sets):
        grid = {lam: f(tuple(sum(li * v[s] for li, v in zip(lam, vs))
                             for s in range(f.source_dim)))
                for lam in product(range(d + 1), repeat=len(vs))}
        for pat in polyfunctor.CHECKPOINT_PATTERNS:
            mu = pat[:len(vs)] + (F(1, 2),) * (len(vs) - len(pat))
            expected = f(tuple(sum(x * v[s] for x, v in zip(mu, vs))
                               for s in range(f.source_dim)))
            got = [F(0)] * f.target_dim
            for lam, val in grid.items():
                w = F(1)
                for x, j in zip(mu, lam):
                    w *= weight(j, x)
                got = [g + w * y for g, y in zip(got, val)]
            if expected != tuple(got):
                return polyfunctor.PolynomialVerdict(False, (ti, mu, expected, tuple(got)))
    return polyfunctor.PolynomialVerdict(True)


def test_is_polynomial_matches_per_grid_point_weights(monkeypatch):
    rng = random.Random(113)
    calls = []
    weights = polyfunctor._lagrange_weights
    monkeypatch.setattr(polyfunctor, "_lagrange_weights",
                        lambda d, x: calls.append((x, weights(d, x))) or calls[-1][1])
    for _ in range(12):
        src, deg = rng.randint(1, 3), rng.randint(1, 3)
        polys = []
        for _ in range(rng.randint(1, 2)):
            p = {tuple(deg if i == 0 else 0 for i in range(src)): F(rng.randint(1, 4))}
            for _ in range(3):
                e = [0] * src
                for _ in range(rng.randint(0, deg)):
                    e[rng.randrange(src)] += 1
                p[tuple(e)] = p.get(tuple(e), F(0)) + F(rng.randint(-3, 3), rng.randint(1, 3))
            polys.append({k: v for k, v in p.items() if v})
        f = box(src, *polys)
        units = [tuple(F(int(i == j)) for i in range(src)) for j in range(src)]
        mixed = [tuple(F(rng.randint(-2, 2)) for _ in range(src)) for _ in range(2)]
        trials = [units, [tuple(-x for x in units[0]), *mixed]]
        for d in (deg, deg - 1):
            calls.clear()
            verdict = is_polynomial(f, d, trials)
            assert verdict == per_grid_point_is_polynomial(f, d, trials)
            assert verdict.consistent == (d == deg)
            if verdict.consistent:  # one weight per distinct checkpoint coordinate and node
                coords = {x for vs in trials for pattern in polyfunctor.CHECKPOINT_PATTERNS
                          for x in pattern[:len(vs)] + (F(1, 2),) * (len(vs) - len(pattern))}
                assert sorted(x for x, _ in calls) == sorted(coords)
                assert [len(nums) for _, (nums, _) in calls] == [d + 1] * len(coords)


def test_lagrange_weights_match_the_product_definition():
    # every checkpoint coordinate, and the 1/2 that pads a pattern to more directions
    points = {x for pattern in polyfunctor.CHECKPOINT_PATTERNS for x in pattern} | {F(1, 2)}
    # the closed form divides by x - j: no checkpoint coordinate may be a node
    assert all(x.denominator != 1 for x in points)
    for d in range(13):
        for x in points:
            nums, den = polyfunctor._lagrange_weights(d, x)
            assert all(type(n) is int for n in nums)
            assert den == x.denominator ** d * factorial(d)
            assert [F(n, den) for n in nums] == [
                prod((x - k) / F(j - k) for k in range(d + 1) if k != j) for j in range(d + 1)]


def fraction_combine(coeffs, vectors):
    """The first _combine, kept as the oracle: a Fraction product and sum per term."""
    out = []
    for column in zip(*vectors):
        terms = [c * x for c, x in zip(coeffs, column) if c]
        out.append(sum(terms[1:], terms[0]) if terms else F(0))
    return tuple(out)


def test_combine_matches_fraction_sums():
    rng = random.Random(137)

    def number(zero_weight):
        return rng.choice([0] * zero_weight + [rng.randint(-4, 4),
                                               F(rng.randint(-9, 9), rng.randint(1, 6))])

    for _ in range(200):
        k, n = rng.randint(0, 5), rng.randint(0, 4)
        vectors = [tuple(number(1) for _ in range(n)) for _ in range(k)]
        batch = polyfunctor._batch(vectors)
        assert all(type(den) is int and den > 0 and all(type(x) is int for x in nums)
                   for den, nums in batch)
        # one batch serves every combination of its vectors
        for _ in range(3):
            coeffs = [rng.choice((0, 0, rng.randint(-40, 40))) for _ in range(k)]
            over = rng.choice((1, rng.randint(1, 30)))
            got = polyfunctor._combine(coeffs, batch, over)
            assert got == tuple(F(x) / over for x in fraction_combine(coeffs, vectors))
            assert all(type(x) is Fraction for x in got)
    # the sum has the length of the shortest vector; an all-zero column is 0
    pair = polyfunctor._batch([(1, F(2, 3), 5), (F(1, 6), 0)])
    assert pair == [(6, [6, 1]), (3, [2, 0])]
    assert polyfunctor._combine([3, 6], pair, 6) == (F(2, 3), F(1, 3))
    assert polyfunctor._combine([0, 0], polyfunctor._batch([(F(1, 3),), (2,)])) == (0,)


# -- batch sampling ---------------------------------------------------------


def rand_poly_map(rng, src, dst, top):
    """A seeded PolyMap R^src -> R^dst of degree at most top, rational coefficients."""
    polys = []
    for _ in range(dst):
        p = {}
        for _ in range(rng.randint(0, 4)):
            e = [0] * src
            for _ in range(rng.randint(0, top)):
                e[rng.randrange(src)] += 1
            p[tuple(e)] = p.get(tuple(e), F(0)) + F(rng.randint(-5, 5), rng.choice((1, 2, 3)))
        polys.append(ChartForm.from_poly(src, {k: v for k, v in p.items() if v}))
    return PolyMap(src, dst, polys)


def rand_vector(rng, src, rational):
    return tuple(F(rng.randint(-4, 4), rng.choice((1, 2, 3, 7)) if rational else 1)
                 for _ in range(src))


def batch_and_point_routes(pm, monkeypatch):
    """The PolyMap as a black box sampled by batch, with PolyMap.__call__ refused while it
    runs, and the same map behind a plain function, which is called point by point."""
    def batch(procedure, *args):
        with monkeypatch.context() as patch:
            patch.setattr(PolyMap, "__call__", lambda self, point: pytest.fail("per point"))
            return outcome(procedure, BlackBoxMap(pm.source_dim, pm.target_dim, pm), *args)

    def per_point(procedure, *args):
        return outcome(procedure, BlackBoxMap(pm.source_dim, pm.target_dim, lambda v: pm(v)),
                       *args)
    return batch, per_point


def test_decompose_by_batch_matches_the_per_point_route(monkeypatch):
    rng = random.Random(151)
    raised = 0
    for _ in range(120):
        src, dst, d = rng.randint(1, 4), rng.randint(1, 3), rng.randint(0, 5)
        pm = rand_poly_map(rng, src, dst, rng.randint(0, d + 2))
        probes = [rand_vector(rng, src, rng.random() < 0.5) for _ in range(rng.randint(1, 3))]
        batch, per_point = batch_and_point_routes(pm, monkeypatch)
        got = batch(homogeneous_decompose, d, probes)
        assert got == per_point(homogeneous_decompose, d, probes), (src, dst, d, probes)
        raised += isinstance(got, str)
    assert 10 <= raised <= 100


def test_is_polynomial_by_batch_matches_the_per_point_route(monkeypatch):
    rng = random.Random(157)
    witnesses = 0
    for _ in range(80):
        src, dst, d = rng.randint(1, 4), rng.randint(1, 3), rng.randint(0, 5)
        pm = rand_poly_map(rng, src, dst, rng.randint(0, d + 2))
        trials = [[rand_vector(rng, src, rng.random() < 0.5)
                   for _ in range(rng.randint(0, min(src, 3)))] for _ in range(2)]
        if d > 3:  # keep the grids small: (d + 1)^k points per trial set
            trials = [vs[:2] for vs in trials]
        batch, per_point = batch_and_point_routes(pm, monkeypatch)
        got = batch(is_polynomial, d, trials)
        assert got == per_point(is_polynomial, d, trials), (src, dst, d, trials)
        witnesses += not got.consistent
    assert 10 <= witnesses <= 70


def test_batch_route_keeps_the_ray_failure_and_both_dimension_refusals(monkeypatch):
    pm = PolyMap(3, 1, [ChartForm.from_poly(3, {(5, 0, 0): F(1)})])
    batch, per_point = batch_and_point_routes(pm, monkeypatch)
    probe = [(F(1, 2), F(-2, 3), F(3, 7))]
    message = batch(homogeneous_decompose, 3, probe)
    assert message == per_point(homogeneous_decompose, 3, probe) == (
        "map is not polynomial of degree <= 3 along rays: "
        "component 0 fails homogeneity at probe (1/2, -2/3, 3/7) with mu=2")
    for procedure, args in [(homogeneous_decompose, (2, [(F(1), F(2))])),
                            (is_polynomial, (2, [[(F(1), F(2))]]))]:
        assert batch(procedure, *args) == per_point(procedure, *args) == (
            "input has the wrong dimension")
    wide = BlackBoxMap(3, 2, pm)  # the PolyMap has one output, the box claims two
    for procedure, args in [(homogeneous_decompose, (2, probe)),
                            (is_polynomial, (2, [[(F(1), F(0), F(2))]]))]:
        assert outcome(procedure, wide, *args) == "evaluator returned the wrong dimension"
        assert outcome(procedure, BlackBoxMap(3, 2, lambda v: pm(v)), *args) == (
            "evaluator returned the wrong dimension")


def test_sample_returns_the_batch_of_the_values():
    pm = PolyMap(2, 2, [ChartForm.from_poly(2, {(2, 0): F(1, 2), (0, 1): F(3)}),
                        ChartForm.from_poly(2, {})])
    points = [(F(1, 2), F(-1, 3)), (F(3, 2), F(2, 3)), (F(0), F(5, 3))]
    dens, rows = [2, 3], [[1, -1], [3, 2], [0, 5]]
    for f in (BlackBoxMap(2, 2, pm), BlackBoxMap(2, 2, lambda v: pm(v))):
        columns = f.sample(dens, rows)
        assert all(type(den) is int and all(type(x) is int for x in nums)
                   for den, nums in columns)
        assert [tuple(F(nums[b], den) for den, nums in columns) for b in range(3)] == [
            f(p) for p in points]
