"""The algebra core against the two-loop rules it replaced.

``superalg.derivation`` writes the Leibniz rule once, D(a) = sum_g D(g) da/dg
with every image multiplied in from the left, and ``multiply`` is the same
loop with the left factor as the image.  The oracles below are the previous
forms: a derivation that puts D(o_i) in place of o_i and D(e_i) after the odd
factors and reads the sign of an odd D from a parity flag, and the double
loop over both factors.  Their signs come from an inversion count, not from
the parity of ``mask & masks.swap_mask(image mask)``, which is checked
against the same count.
``operator_rows``, the same rule on keys packed into ints, is checked
against one ``derivation`` per key, generator and table, summed
generator-major, also on tables that split the generators among them and
at the exponent sums where the packing width steps, with the columns
renumbered by its rule: fewest holding vectors first.  Against the previous numbering, by first appearance,
every rank, basis and dimension is the same and the elimination stores fewer
entries.
``substitute``, which multiplies on ints over one denominator, is checked
against the previous route, one ``multiply`` per factor on Fractions, by
value and insertion order.
"""

import random
from collections import Counter
from fractions import Fraction
from functools import partial
from itertools import product
from math import lcm
from operator import add

import pytest

from weil.chart_forms import ChartForm, PolyMap, d as chart_d, pullback
from weil.chern_weil import curvature
from weil.equivariant import WeilModel, builtin_action
from weil.invariant_polynomials import invariant_basis
from weil.liealg import basis_vector, builtin
from weil import equivariant, invariant_polynomials, linalg, superalg, weil_algebra
from weil.masks import indices_of, mask_of, swap_mask
from weil.superalg import ONE, derivation, in_span, multiply, operator_rows, substitute, vectors
from weil.weil_algebra import (WeilElement, contraction_images, koszul_cohomology_dims,
                               koszul_images, lie_images, sym_exponents)

from test_chern_weil import rand_connection
from test_equivariant import (CARTAN_MODELS, cartan_model, conjugated, full_constraint_rows,
                              full_tables, semidirect)


def inversion_merge(a, b):
    """(a | b, (-1)^#{(i, j) : i in a, j in b, i > j}), or None on overlap."""
    if a & b:
        return None
    inversions = sum(i > j for i in indices_of(a) for j in indices_of(b))
    return a | b, -1 if inversions % 2 else 1


def accumulate(out, key, v):
    """superalg's accumulation: a key that cancels is dropped, so it re-enters last."""
    v += out.get(key, 0)
    if v:
        out[key] = v
    else:
        out.pop(key, None)


def signed_derivation(a, odd_images, even_images, odd):
    """The previous derivation: D(o_i) replaces o_i in place, D(e_i) goes after
    the odd factors, and an odd D picks up (-1)^p passing p odd generators."""
    out = {}
    for (mask, exps), c in a.terms.items():
        for p, i in enumerate(indices_of(mask)):
            img = odd_images[i]
            if not img:
                continue
            cs = -c if odd and p % 2 else c
            prefix, suffix = mask & ((1 << i) - 1), mask & ~((2 << i) - 1)
            for (im, ie), ic in img.items():
                left = inversion_merge(prefix, im)
                if left is None or left[0] & suffix:
                    continue
                merged, sign = inversion_merge(left[0], suffix)
                accumulate(out, (merged, tuple(map(add, exps, ie))), cs * ic * sign * left[1])
        cs = -c if odd and bin(mask).count("1") % 2 else c
        for i, q in enumerate(exps):
            img = even_images[i]
            if not q or not img:
                continue
            lowered = exps[:i] + (q - 1,) + exps[i + 1:]
            for (im, ie), ic in img.items():
                merged = inversion_merge(mask, im)
                if merged is not None:
                    accumulate(out, (merged[0], tuple(map(add, lowered, ie))),
                               cs * q * ic * merged[1])
    return a.with_terms(out)


def double_loop_multiply(a, b):
    """The previous product: every term of a times every term of b."""
    out = {}
    for (m1, e1), c1 in a.terms.items():
        for (m2, e2), c2 in b.terms.items():
            merged = inversion_merge(m1, m2)
            if merged is not None:
                accumulate(out, (merged[0], tuple(map(add, e1, e2))), c1 * c2 * merged[1])
    return a.with_terms(out)


def rand_element(rng, zero, terms=6, max_exp=2):
    """Seeded element of the algebra of ``zero``, of mixed degree and parity."""
    n = zero.n
    out = {}
    for _ in range(terms):
        key = (rng.randrange(1 << n), tuple(rng.randint(0, max_exp) for _ in range(n)))
        out[key] = Fraction(rng.randint(-5, 5) or 1, rng.choice((1, 2, 3)))
    return zero.with_terms(out)


def chart_d_images(m):
    """The table of ``chart_forms.d``: x_i -> dx_i, dx_i -> 0."""
    return [None] * m, [{(1 << i, (0,) * m): ONE} for i in range(m)]


def weil_tables():
    """(name, zero, table, odd) for d_K, iota_xi and L_xi on su2, sl2 and heisenberg3."""
    rng = random.Random(7)
    yield "d_K", WeilElement(3), koszul_images(3), True
    for name in ("su2", "sl2", "heisenberg3"):
        L = builtin(name)
        for xi in (basis_vector(3, 0), [Fraction(rng.randint(-3, 3), rng.randint(1, 3))
                                        for _ in range(3)]):
            yield f"iota-{name}", WeilElement(3), contraction_images(L, xi), True
            yield f"lie-{name}", WeilElement(3), lie_images(L, xi), False


def chart_tables():
    for m in (1, 3):
        yield f"chart-d-{m}", ChartForm(m), chart_d_images(m), True


def model_tables():
    """D, iota and L of the adjoint model and a conjugate with non-integral Q^-1."""
    for name in ("su2", "heisenberg3"):
        L = builtin(name)
        m, mats = builtin_action("adjoint", L)
        for label, action in (("adjoint", mats),
                              ("conjugate", conjugated(mats, random.Random(3), (2, 3)))):
            model = WeilModel(m, L, action)
            tag = f"{name}-{label}"
            yield f"D-{tag}", model.zero(), model._d_images(), True
            for xi in (basis_vector(3, 1), [Fraction(1, 2), Fraction(-1), Fraction(2, 3)]):
                fields = model.vector_field(xi)
                yield f"iota-{tag}", model.zero(), model._contract_images(xi, fields), True
                yield f"lie-{tag}", model.zero(), model._lie_images(xi, fields), False


def random_image(rng, n, bits):
    """Seeded image of 1 to 3 terms, each with ``bits`` odd generators."""
    return {(mask_of(rng.sample(range(n), bits)), tuple(rng.randint(0, 1) for _ in range(n))):
            Fraction(rng.randint(-4, 4) or 1, rng.choice((1, 2, 3)))
            for _ in range(rng.randint(1, 3))}


def random_tables():
    """Seeded tables whose images carry 2 or 3 odd bits, which no table in the
    package has: an odd D sends o_i to 2-bit and e_i to 3-bit images, an even
    D the other way round, so the sign counts past several image bits."""
    for seed, zero, odd in ((1, WeilElement(5), True), (2, WeilElement(5), False),
                            (3, ChartForm(4), True), (4, ChartForm(4), False)):
        rng = random.Random(seed)
        n = zero.n

        def image(bits):
            return None if rng.random() < 0.2 else random_image(rng, n, bits)

        table = [image(2 if odd else 3) for _ in range(n)], [image(3 if odd else 2)
                                                            for _ in range(n)]
        yield f"random-{'odd' if odd else 'even'}-{type(zero).__name__}-{n}", zero, table, odd


TABLES = [*weil_tables(), *chart_tables(), *model_tables(), *random_tables()]


@pytest.mark.parametrize("name, zero, table, odd", TABLES, ids=[t[0] for t in TABLES])
def test_derivation_matches_signed_two_loop_rule(name, zero, table, odd):
    # same terms in the same order, so operator_rows numbers its columns as before
    rng = random.Random(sum(map(ord, name)))
    for _ in range(40):
        a = rand_element(rng, zero)
        got, expected = derivation(a, *table), signed_derivation(a, *table, odd)
        assert list(got.terms.items()) == list(expected.terms.items())


def _integer_images(odd_images, even_images):
    """Generator-image tables scaled to integers by the lcm of their denominators,
    every image copied: the scaling ``operator_rows`` applies as it packs."""
    tables = (odd_images, even_images)
    scale = lcm(*(c.denominator for table in tables for img in table if img
                  for c in img.values()))
    return tuple([{k: c.numerator * (scale // c.denominator) for k, c in img.items()}
                  if img else None for img in table] for table in tables)


def first_appearance_rows(tables, zero, domain_keys):
    """operator_rows with columns numbered by first appearance of (table, key):
    one derivation per key, generator and table, on the key with coefficient
    1 and that generator's image alone, summed generator-major (o_0..o_{n-1},
    then e_0..e_{n-1}, each over the tables in order) by ``superalg._acc``,
    so a column that cancels leaves the vector and re-enters at its end."""
    tables = [_integer_images(*t) for t in tables]
    n = zero.n
    index, out = {}, []
    for key in domain_keys:
        unit = zero.with_terms({key: 1})
        vec = {}
        for side, i in product(range(2), range(n)):
            for o, table in enumerate(tables):
                images = [None] * n, [None] * n
                images[side][i] = table[side][i]
                for k2, c in derivation(unit, *images).terms.items():
                    superalg._acc(vec, (o, k2), c)
        out.append({index.setdefault(c, len(index)): v for c, v in vec.items()})
    return out


def count_numbered(vectors):
    """``vectors`` with columns renumbered by how many vectors hold them, fewest
    first, ties in the order of the old numbers."""
    count = Counter(c for vec in vectors for c in vec)
    index = {c: j for j, c in enumerate(sorted(count, key=lambda c: (count[c], c)))}
    return [{index[c]: v for c, v in vec.items()} for vec in vectors]


def per_key_rows(tables, zero, domain_keys):
    """operator_rows' numbering on ``first_appearance_rows``."""
    return count_numbered(first_appearance_rows(tables, zero, domain_keys))


def assert_same_vectors(got, expected):
    # same columns, values and insertion order: column numbering is what
    # fixes every pivot choice of the elimination that follows
    assert [list(v.items()) for v in got] == [list(v.items()) for v in expected]


@pytest.mark.parametrize("name, zero, table, odd", TABLES, ids=[t[0] for t in TABLES])
def test_operator_rows_match_one_derivation_per_key(name, zero, table, odd):
    rng = random.Random(sum(map(ord, name)) + 1)
    keys = list(dict.fromkeys(k for _ in range(10) for k in rand_element(rng, zero).terms))
    assert_same_vectors(operator_rows([table], keys), per_key_rows([table], zero, keys))
    # two tables share the key's derivatives and number their columns apart
    tables = [table, _integer_images(*table)]
    assert_same_vectors(operator_rows(tables, keys), per_key_rows(tables, zero, keys))


def boundary_keys(n, s):
    """Every key of exponent sum at most 2, then keys of sum s: the whole sum
    on one coordinate, or spread over all n, each with no, one and all odd
    generators.  Packed one bit too narrow, a key of sum s carries into a
    neighbouring field and meets the packed key of a small one, so two
    columns merge."""
    keys = [(mask, e) for e in product(range(3), repeat=n) if sum(e) <= 2
            for mask in range(1 << n)]
    exps = [tuple(s if j == i else 0 for j in range(n)) for i in range(n)]
    exps.append(tuple(s // n + (i < s % n) for i in range(n)))
    keys += [(mask, e) for e in exps for mask in (0, 1, (1 << n) - 1)]
    return list(dict.fromkeys(keys))


WIDTH_TABLES = [("d_K", koszul_images(3)),
                ("lie-su2", lie_images(builtin("su2"),
                                       [Fraction(1), Fraction(-2, 3), Fraction(3)]))]


@pytest.mark.parametrize("s", [1, 2, 3, 4, 7, 8, 15, 16])
@pytest.mark.parametrize("name, table", WIDTH_TABLES, ids=[t[0] for t in WIDTH_TABLES])
def test_operator_rows_at_packing_width_boundaries(name, table, s):
    # the width is the bit length of the largest domain exponent sum s plus
    # the largest image exponent sum, 1 for both tables: at s = 2^k - 1 the
    # sum s + 1 just needs k + 1 bits, at s = 2^k it just fits in them
    keys = boundary_keys(3, s)
    assert_same_vectors(operator_rows([table], keys), per_key_rows([table], WeilElement(3), keys))
    tables = [table for _, table in WIDTH_TABLES]
    assert_same_vectors(operator_rows(tables, keys), per_key_rows(tables, WeilElement(3), keys))


def test_operator_rows_packs_only_held_generators(monkeypatch):
    # the keys hold o_0 and e_2 only: L_xi on su2 has images for all six
    # generators, and only the terms of the two held images are packed
    table = WIDTH_TABLES[1][1]
    keys = [(0b001, (0, 0, 0)), (0b001, (0, 0, 2)), (0, (0, 0, 1))]
    # the oracle first: derivation signs by swap_mask too, and the spy counts packing only
    expected = per_key_rows([table], WeilElement(3), keys)
    packed = []
    monkeypatch.setattr(superalg, "swap_mask", lambda im: packed.append(im) or swap_mask(im))
    assert_same_vectors(operator_rows([table], keys), expected)
    odd, even = _integer_images(*table)
    assert all(odd) and all(even)
    assert len(packed) == len(odd[0]) + len(even[2])


@pytest.mark.parametrize("seed", range(6))
def test_operator_rows_on_tables_that_split_the_generators(seed):
    # the shape of the Weil model's tables: iota_{e_0} has images for 6 of
    # its 12 generators.  Here each generator has its image in at most one
    # of 2 to 4 tables, o_0 and e_0 in none, so most (table, generator)
    # pairs of a key have no image and a generator's list holds one table
    rng = random.Random(seed)
    zero = (WeilElement, ChartForm)[seed % 2](4)
    n, t = zero.n, 2 + seed % 3
    tables = [([None] * n, [None] * n) for _ in range(t)]
    for side, i in product(range(2), range(1, n)):
        o = rng.randrange(t + 1)
        if o < t:
            tables[o][side][i] = random_image(rng, n, rng.choice((1, 2) if side else (0, 2)))
    keys = list(dict.fromkeys(k for _ in range(10) for k in rand_element(rng, zero).terms))
    vectors = operator_rows(tables, keys)
    assert_same_vectors(vectors, per_key_rows(tables, zero, keys))
    assert any(vectors) and sum(map(len, vectors)) > len(keys)
    # keys that hold o_0 and e_0 only, or nothing, have no image
    bare = [(0, (0,) * n), (1, (0,) * n), (0, (3,) + (0,) * (n - 1)), (1, (2,) + (0,) * (n - 1))]
    assert operator_rows(tables, bare) == [{}] * 4 == per_key_rows(tables, zero, bare)


def test_operator_rows_edge_cases():
    keys = [(0, (0, 0, 0)), (0b101, (2, 0, 1))]
    assert operator_rows([koszul_images(3)], []) == []
    assert operator_rows([], keys) == [{}, {}]
    assert operator_rows([([None] * 3, [None] * 3), ([{}] * 3, [None] * 3)], keys) == [{}, {}]


CAPS = [(2, 2), (3, 1)]


@pytest.mark.parametrize("name, action", CARTAN_MODELS)
@pytest.mark.parametrize("degree, cap", CAPS)
def test_constraint_rows_match_one_derivation_per_key(name, action, degree, cap):
    # the full iota/L system of the Weil model, the oracle of its lam-free system
    model = cartan_model(name, action)
    dom, vectors = full_constraint_rows(model, degree, cap)
    assert_same_vectors(vectors, per_key_rows(full_tables(model), model.zero(), dom))


def first_appearance(vectors):
    """``vectors`` with columns renumbered in order of first appearance."""
    index = {}
    return [{index.setdefault(c, len(index)): v for c, v in vec.items()} for vec in vectors]


def semidirect_model(k, nilpotent):
    """The adjoint model of a seeded R x|_A R^k, built with ``from_brackets``."""
    L = semidirect(random.Random(k), k, nilpotent)
    return WeilModel(L.dim, L, builtin_action("adjoint", L)[1])


ORDER_MODELS = {f"{name}-{action}": partial(cartan_model, name, action)
                for name, action in CARTAN_MODELS}
ORDER_MODELS.update({"solvable-2": partial(semidirect_model, 2, False),
                     "nilpotent-3": partial(semidirect_model, 3, True)})


def model_answers(model):
    """Every answer that eliminates operator_rows vectors, term for term."""
    out = []
    for degree, cap in CAPS:
        _, vectors = model.basic_constraint_rows(degree, cap)
        out += [linalg.rank(vectors), model.basic_dim(degree, cap),
                [list(v.terms.items()) for v in model.basic_basis(degree, cap)]]
    out += [[list(v.terms.items()) for v in invariant_basis(model.algebra, k)] for k in range(4)]
    out.append(koszul_cohomology_dims(model.n, 5))
    return out


@pytest.mark.parametrize("build", ORDER_MODELS.values(), ids=ORDER_MODELS)
def test_count_numbering_keeps_every_answer(monkeypatch, build):
    # neither a rank nor the canonical relations of the vectors depends on
    # the column order, which orders only the pivots of their elimination
    model = build()
    for degree, cap in CAPS:
        dom, vectors = full_constraint_rows(model, degree, cap)
        assert_same_vectors(first_appearance(vectors),
                            first_appearance_rows(full_tables(model), model.zero(), dom))
    answers = model_answers(model)
    for module in (equivariant, invariant_polynomials, weil_algebra):
        monkeypatch.setattr(module, "operator_rows",
                            lambda tables, keys: first_appearance(operator_rows(tables, keys)))
    assert model_answers(model) == answers


def test_count_numbering_fills_in_less():
    # entries stored in the pivot rows of the elimination: the ranks of these
    # 12 systems store 27,901 under first appearance, 23,146 under the count.
    # Not per system: heisenberg3 conjugate at (2, 2) goes 1,539 -> 1,586.
    def stored(vectors):
        return sum(len(row) for _, row in linalg._forward_eliminate(vectors))

    def tagged(vectors):
        # the rows linalg.relations eliminates: vector j with 1 in column
        # top + n - 1 - j, past every column of the vectors
        end = max((c for vec in vectors for c in vec), default=-1) + len(vectors)
        return [{**vec, end - j: 1} for j, vec in enumerate(vectors)]

    before = after = 0
    for name, action in CARTAN_MODELS:
        model = cartan_model(name, action)
        for degree, cap in CAPS:
            _, vectors = full_constraint_rows(model, degree, cap)
            old, new = stored(first_appearance(vectors)), stored(vectors)
            if action == "conjugate" and name != "heisenberg3":
                assert new < old, (name, degree, cap, old, new)
            before, after = before + old, after + new
    assert after < before, (before, after)
    # the tagged kernels of invariant_bases(L, 10): su2 stores 1,293 entries
    # against 1,318 under first appearance; sl2 and heisenberg3 tie
    for name in ("su2", "sl2", "heisenberg3"):
        L = builtin(name)
        tables = invariant_polynomials._generator_tables(L)
        old = new = 0
        for k in range(11):
            vectors = operator_rows(tables, [(0, s) for s in sym_exponents(L.dim, k)])
            old += stored(tagged(first_appearance(vectors)))
            new += stored(tagged(vectors))
        assert new < old if name == "su2" else new == old, (name, old, new)


def test_chart_d_is_its_table():
    rng = random.Random(13)
    for _ in range(20):
        a = rand_element(rng, ChartForm(3))
        assert chart_d(a) == signed_derivation(a, *chart_d_images(3), True)


@pytest.mark.parametrize("zero", [WeilElement(3), ChartForm(5), WeilElement(1)],
                         ids=["weil-3", "chart-5", "weil-1"])
def test_multiply_matches_double_loop(zero):
    rng = random.Random(zero.n)
    for _ in range(60):
        a, b = rand_element(rng, zero, 4), rand_element(rng, zero, 4)
        assert multiply(a, b) == double_loop_multiply(a, b)


def test_star_is_the_product_and_scale_takes_numbers():
    x, y = ChartForm.x(2, 0), ChartForm.x(2, 1)
    assert x * y == superalg.multiply(x, y)
    assert x.scale(3) == ChartForm.from_poly(2, {(1, 0): 3})
    with pytest.raises(TypeError):
        x * 3
    with pytest.raises(TypeError):
        3 * x


def test_merge_sign_counts_inversions():
    # the sign rule of _left_multiply and operator_rows: o_a in front of o_b
    # costs the parity of b & swap_mask(a), and an overlap is zero
    for a, b in product(range(1 << 7), repeat=2):
        merged = None if a & b else (a | b, -1 if (b & swap_mask(a)).bit_count() & 1 else 1)
        assert merged == inversion_merge(a, b), (a, b)


def test_vectors_number_keys_by_first_appearance():
    x = [ChartForm.x(2, i) for i in range(2)]
    assert vectors([x[1] + x[0].scale(3), x[0].scale(-1)]) == [{0: 1, 1: 3}, {1: -1}]
    assert in_span([x[1] + x[0], x[0]], x[1].scale(2))
    assert not in_span([x[1] + x[0]], x[1])


# -- substitution ----------------------------------------------------------------


def fraction_substitute(a, odd_images, even_images, one):
    """The previous substitute: one ``multiply`` per factor on Fractions, and the
    pieces added term by term."""
    out = one.with_terms({})
    for (mask, exps), c in a.terms.items():
        piece = one.scale(c)
        for i in indices_of(mask):
            piece = multiply(piece, odd_images[i])
        for i, q in enumerate(exps):
            for _ in range(q):
                piece = multiply(piece, even_images[i])
        out = out + piece
    return out


def assert_substitutes_alike(a, odd_images, even_images, one):
    got = substitute(a, odd_images, even_images, one)
    expected = fraction_substitute(a, odd_images, even_images, one)
    assert got == expected
    assert list(got.terms) == list(expected.terms)  # the same insertion order
    assert type(got) is type(one)
    assert all(type(c) is Fraction for c in got.terms.values())
    return got


def characteristic_images(A):
    return A.components, [chart_d(c) for c in A.components], ChartForm.unit(A.chart_dim)


@pytest.mark.parametrize("name", ["su2", "sl2", "heisenberg3"])
def test_substitute_matches_fraction_route_under_characteristic_images(name):
    rng = random.Random(sum(map(ord, name)))
    L = builtin(name)
    for m in (3, 4, 6):
        A = rand_connection(rng, L, m)
        odd, even, one = characteristic_images(A)
        for _ in range(6):
            assert_substitutes_alike(rand_element(rng, WeilElement(3), 5), odd, even, one)
        # the Chern-Weil images: lam -> A, lamt -> F
        F = curvature(A).components
        for P in invariant_polynomials.invariant_basis(L, 2):
            assert_substitutes_alike(P, A.components, F, one)


def test_substitute_matches_fraction_route_on_pullbacks():
    rng = random.Random(29)
    for source, target in ((2, 3), (3, 3), (4, 2), (1, 4)):
        def poly():
            return ChartForm.from_poly(source, {
                tuple(rng.randint(0, 2) for _ in range(source)):
                Fraction(rng.randint(-3, 3) or 1, rng.choice((1, 2, 5)))
                for _ in range(rng.randint(1, 3))})

        phi = PolyMap(source, target, [poly() for _ in range(target)])
        for _ in range(5):
            a = rand_element(rng, ChartForm(target), 5)
            got = assert_substitutes_alike(a, [chart_d(p) for p in phi.components],
                                           phi.components, ChartForm.unit(source))
            assert got == pullback(phi, a)


@pytest.mark.parametrize("zero", [WeilElement(3), ChartForm(4), WeilElement(5)],
                         ids=["weil-3", "chart-4", "weil-5"])
def test_substitute_matches_fraction_route_on_fractional_images(zero):
    rng = random.Random(zero.n + 41)
    n = zero.n
    for _ in range(12):
        odd = [zero.with_terms(random_image(rng, n, 1)) for _ in range(n)]
        even = [zero.with_terms(random_image(rng, n, rng.choice((0, 2)))) for _ in range(n)]
        if rng.random() < 0.3:
            even[rng.randrange(n)] = zero  # a zero image
        assert_substitutes_alike(rand_element(rng, zero, 6), odd, even,
                                 zero.with_terms({(0, (0,) * n): ONE}))


def test_substitute_keeps_the_order_of_terms_that_cancel():
    # e0 -> x + y, e1 -> x - y: (x + y)(x - y) cancels xy inside a product, and
    # e0^2 - e1^2 cancels x^2 and y^2 across terms, which e0 e1 brings back last
    x, y = ChartForm.x(2, 0), ChartForm.x(2, 1)
    even = [x + y, x - y]
    a = WeilElement(2, {(0, (2, 0)): 1, (0, (0, 2)): -1, (0, (1, 1)): 1})
    got = assert_substitutes_alike(a, [None, None], even, ChartForm.unit(2))
    assert list(got.terms) == [(0, (1, 1)), (0, (2, 0)), (0, (0, 2))]
    assert got == (x * y).scale(4) + x * x - y * y


def test_substitute_scales_a_repeated_image_once(monkeypatch):
    # one image object in several slots and as a repeated factor: the same
    # values as distinct copies, and each object scaled once
    rng = random.Random(5)
    zero = ChartForm(3)
    image = zero.with_terms(random_image(rng, 3, 1))
    other = zero.with_terms(random_image(rng, 3, 0))
    odd, even = [image, image, image], [other, other, zero.with_terms(random_image(rng, 3, 0))]
    copies = ([c.with_terms(dict(c.terms)) for c in odd], [c.with_terms(dict(c.terms)) for c in even])
    one = ChartForm.unit(3)
    seen = []
    real_lcm = superalg.lcm
    monkeypatch.setattr(superalg, "lcm", lambda *xs: seen.append(len(xs)) or real_lcm(*xs))
    for _ in range(5):
        a = rand_element(rng, zero, 6, max_exp=3)
        seen.clear()
        got = assert_substitutes_alike(a, odd, even, one)
        held = {id(img) for (mask, exps), _ in a.terms.items()
                for img in [odd[i] for i in indices_of(mask)] + [even[i] for i, q in enumerate(exps) if q]}
        # one lcm per distinct image used, one for the unit, one for the sum
        assert len(seen) == len(held) + 2
        assert got == substitute(a, *copies, one)
