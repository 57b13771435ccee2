import random
from fractions import Fraction
from math import gcd

import pytest

from weil import linalg
from weil.equivariant import WeilModel, builtin_action
from weil.liealg import builtin


def F(a, b=1):
    return Fraction(a, b)


def test_rank_simple():
    rows = [{0: F(1), 1: F(2)}, {0: F(2), 1: F(4)}, {1: F(1)}]
    assert linalg.rank(rows) == 2


def test_rref_unit_pivots():
    rows = [{0: F(2), 1: F(4), 2: F(2)}, {0: F(1), 1: F(3), 2: F(2)}]
    pivots, reduced = linalg.rref(rows)
    assert pivots == [0, 1]
    assert reduced[0][0] == 1 and reduced[1][1] == 1
    assert 1 not in reduced[0] and 0 not in reduced[1]


def test_nullspace_line():
    # x + 2y + 3z = 0
    rows = [{0: F(1), 1: F(2), 2: F(3)}]
    basis = linalg.nullspace(rows, 3)
    assert len(basis) == 2
    for vec in basis:
        assert sum(rows[0].get(c, F(0)) * v for c, v in vec.items()) == 0
    # canonical: unit at free columns 1 and 2
    assert basis[0][1] == 1 and basis[1][2] == 1


def test_nullspace_empty_rows():
    assert len(linalg.nullspace([], 4)) == 4


def test_transpose():
    vectors = [{0: F(1), 2: 5}, {}, {2: F(-1, 2), 1: 3}]
    assert linalg.transpose(vectors) == [{0: F(1)}, {2: 3}, {0: 5, 2: F(-1, 2)}]
    assert linalg.transpose(linalg.transpose(vectors)) == [v for v in vectors if v]


def test_solve_consistent_and_not():
    cols = [{0: F(1), 1: F(1)}, {1: F(1)}]
    assert linalg.solve(cols, [{0: F(2), 1: F(5)}]) == [[F(2), F(3)]]
    assert linalg.solve([{0: F(1)}], [{1: F(1)}]) is None


def test_solve_many_targets_and_dependent_columns():
    # column 1 = 2 * column 0: free column 1 gets 0 in every solution
    cols = [{0: F(1), 1: F(1)}, {0: F(2), 1: F(2)}, {2: F(3)}]
    targets = [{0: F(4), 1: F(4)}, {2: F(1)}, {}, {0: F(-1), 1: F(-1), 2: F(6)}]
    assert linalg.solve(cols, targets) == [[F(4), F(0), F(0)], [F(0), F(0), F(1, 3)],
                                           [F(0), F(0), F(0)], [F(-1), F(0), F(2)]]
    # one target outside the span makes the whole call None
    assert linalg.solve(cols, targets + [{0: F(1)}]) is None
    assert linalg.solve(cols, []) == []


def test_solve_matches_independent_solves():
    rng = random.Random(11)
    for _ in range(25):
        n = rng.randint(1, 5)
        cols = [{r: F(rng.randint(-3, 3), rng.choice((1, 2))) for r in range(n + 1)}
                for _ in range(n)]
        cols = [{r: v for r, v in c.items() if v} for c in cols]
        targets = [{r: F(rng.randint(-3, 3)) for r in range(n + 1)} for _ in range(3)]
        # a target built from known coefficients is always in the span
        coeffs = [F(rng.randint(-2, 2)) for _ in range(n)]
        built = {}
        for x, c in zip(coeffs, cols):
            for r, v in c.items():
                built[r] = built.get(r, F(0)) + x * v
        targets.append(built)
        together = linalg.solve(cols, targets)
        apart = [linalg.solve(cols, [t]) for t in targets]
        if together is None:
            assert None in apart
        else:
            assert together == [a[0] for a in apart]
        sol = linalg.solve(cols, [built])
        assert sol is not None
        got = {}
        for x, c in zip(sol[0], cols):
            for r, v in c.items():
                got[r] = got.get(r, F(0)) + x * v
        assert {r: v for r, v in got.items() if v} == {r: v for r, v in built.items() if v}


def test_random_rank_nullity():
    rng = random.Random(7)
    for _ in range(25):
        nrows, ncols = rng.randint(1, 6), rng.randint(1, 6)
        rows = []
        for _ in range(nrows):
            row = {c: Fraction(rng.randint(-3, 3), rng.choice((1, 2, 3)))
                   for c in range(ncols) if rng.random() < 0.6}
            row = {c: v for c, v in row.items() if v}
            if row:
                rows.append(row)
        rk = linalg.rank(rows)
        kernel = linalg.nullspace(rows, ncols)
        assert rk + len(kernel) == ncols
        for vec in kernel:
            for row in rows:
                assert sum(row.get(c, F(0)) * v for c, v in vec.items()) == 0


# -- the previous elimination, kept as the oracle -------------------------
# It picks each pivot column by rescanning every remaining row, takes the
# sparsest row holding it, and rebuilds the work list after every pivot.


def _old_int_row(row):
    ints = {}
    scale = 1
    for v in row.values():
        d = v.denominator if isinstance(v, Fraction) else 1
        scale = scale * d // gcd(scale, d)
    g = 0
    for c, v in row.items():
        n = int(v * scale)
        if n:
            ints[c] = n
            g = gcd(g, n)
    if g > 1:
        ints = {c: n // g for c, n in ints.items()}
    return ints


def old_forward_eliminate(rows):
    work = [r for r in (_old_int_row(r) for r in rows) if r]
    pivots = []
    while work:
        col = min(min(r) for r in work)
        candidates = [r for r in work if col in r]
        piv = min(candidates, key=len)
        work.remove(piv)
        pv = piv[col]
        reduced = []
        for r in work:
            if col in r:
                rv = r[col]
                new = {}
                g = 0
                for c in r.keys() | piv.keys():
                    n = pv * r.get(c, 0) - rv * piv.get(c, 0)
                    if n:
                        new[c] = n
                        g = gcd(g, n)
                if g > 1:
                    new = {c: n // g for c, n in new.items()}
                if new:
                    reduced.append(new)
            else:
                reduced.append(r)
        work = reduced
        pivots.append((col, piv))
    pivots.sort(key=lambda t: t[0])
    return pivots


def old_rref(rows):
    pivots = old_forward_eliminate(rows)
    piv_cols = [c for c, _ in pivots]
    reduced = []
    for idx in range(len(pivots) - 1, -1, -1):
        col, irow = pivots[idx]
        row = {c: Fraction(v, irow[col]) for c, v in irow.items()}
        for later_col, later_row in zip(piv_cols[idx + 1:], reduced):
            f = row.get(later_col)
            if f:
                for c, v in later_row.items():
                    n = row.get(c, Fraction(0)) - f * v
                    if n:
                        row[c] = n
                    else:
                        row.pop(c, None)
        reduced.insert(0, row)
    return piv_cols, reduced


def old_nullspace(rows, ncols):
    piv_cols, reduced = old_rref(rows)
    piv_set = set(piv_cols)
    basis = []
    for free in range(ncols):
        if free in piv_set:
            continue
        vec = {free: Fraction(1)}
        for col, row in zip(piv_cols, reduced):
            v = row.get(free)
            if v:
                vec[col] = -v
        basis.append(vec)
    return basis


def items(vectors):
    """Each vector's terms in insertion order."""
    return [list(vec.items()) for vec in vectors]


def assert_matches_oracle(rows, ncols):
    old_pivots, new_pivots = old_forward_eliminate(rows), linalg._forward_eliminate(rows)
    assert [c for c, _ in new_pivots] == [c for c, _ in old_pivots]
    assert all(min(row) == c for c, row in new_pivots)
    assert linalg.rref(rows) == old_rref(rows)
    assert items(linalg.nullspace(rows, ncols)) == items(old_nullspace(rows, ncols))
    assert linalg.rank(rows) == len(old_pivots)


def random_system(rng, nrows, ncols, density):
    """Sparse rows with Fraction entries, some combinations of earlier rows
    (rank deficiency) and some exact duplicates."""
    rows = []
    for _ in range(nrows):
        kind = rng.random()
        if rows and kind < 0.15:
            rows.append(dict(rng.choice(rows)))
        elif len(rows) > 1 and kind < 0.35:
            a, b = rng.sample(rows, 2)
            x, y = F(rng.randint(-3, 3), rng.randint(1, 4)), F(rng.randint(-3, 3))
            row = {c: x * a.get(c, 0) + y * b.get(c, 0) for c in a.keys() | b.keys()}
            rows.append({c: v for c, v in row.items() if v})
        else:
            rows.append({c: F(rng.randint(-9, 9), rng.randint(1, 6))
                         for c in range(ncols) if rng.random() < density})
    return [{c: v for c, v in r.items() if v} for r in rows]


def test_reduction_matches_previous_elimination_on_random_systems():
    rng = random.Random(2024)
    for _ in range(300):
        ncols = rng.randint(1, 14)
        rows = random_system(rng, rng.randint(0, 18), ncols, rng.choice((0.1, 0.3, 0.6)))
        assert_matches_oracle(rows, ncols)


def test_extend_keeps_the_pivot_columns_of_the_vectors():
    # a vector is kept when it is outside the span of those added before it: the
    # pivot columns of the matrix whose columns are the vectors, in order
    rng = random.Random(2025)
    for _ in range(300):
        vectors = random_system(rng, rng.randint(0, 16), rng.randint(1, 12),
                                rng.choice((0.1, 0.3, 0.6)))
        vectors.insert(rng.randint(0, len(vectors)), {})
        pivots, kept = {}, []
        for j, vec in enumerate(vectors):
            if linalg.extend(pivots, vec):
                kept.append(j)
        assert kept == linalg.rref(linalg.transpose(vectors))[0]
        assert len(pivots) == len(kept) == linalg.rank(vectors)


def assert_relations_match_oracle(vectors):
    expected = old_nullspace(linalg.transpose(vectors), len(vectors))
    assert items(linalg.relations(vectors)) == items(expected)


def test_relations_match_the_transposed_nullspace_on_random_vectors():
    # the vectors of random systems: Fraction and int entries, duplicates,
    # combinations of earlier vectors, and empty vectors mixed in
    rng = random.Random(2026)
    for trial in range(300):
        vectors = random_system(rng, rng.randint(0, 16), rng.randint(1, 12),
                                rng.choice((0.1, 0.3, 0.6)))
        if trial % 2:
            vectors = [{c: v.numerator for c, v in vec.items()} for vec in vectors]
        for _ in range(rng.randint(0, 2)):
            vectors.insert(rng.randint(0, len(vectors)), {})
        assert_relations_match_oracle(vectors)


def test_relations_edge_cases():
    assert linalg.relations([]) == []
    assert items(linalg.relations([{}, {}])) == [[(0, 1)], [(1, 1)]]
    # full rank: no relation
    full = [{j: F(j + 1), j + 1: F(-1, 2)} for j in range(5)]
    assert linalg.relations(full) == []
    # a duplicate and a multiple of an earlier vector
    vectors = [{0: 2, 3: 1}, {1: 1}, {0: 2, 3: 1}, {1: F(-3, 2)}]
    assert items(linalg.relations(vectors)) == [[(2, 1), (0, -1)], [(3, 1), (1, F(3, 2))]]
    for vectors in ([{}], [{5: 1}], full, full + full[::-1], [{0: 1}] * 4):
        assert_relations_match_oracle(vectors)


def reversed_rref_reading(vectors, keys):
    """The reading ``echelon`` replaced in basic_basis and basic_subspace, on the
    previous elimination: the RREF over the keys in reversed order, rows read
    backwards, each with its leading key first, then the others in key order."""
    index = {key: j for j, key in enumerate(keys)}
    end = len(keys) - 1
    piv_cols, reduced = old_rref([{end - index[k]: F(c) for k, c in vec.items()}
                                  for vec in vectors])
    out = []
    for p, row in zip(reversed(piv_cols), reversed(reduced)):
        rest = sorted((index[keys[end - c]], keys[end - c], v) for c, v in row.items() if c != p)
        out.append({keys[end - p]: row[p], **{k: v for _, k, v in rest}})
    return out


def test_echelon_matches_the_reversed_rref_reading_on_random_vectors():
    # keys in a shuffled order, so the reading follows the list and not a sort
    rng = random.Random(2032)
    for trial in range(300):
        ncols = rng.randint(1, 12)
        keys = [("k", j) for j in range(ncols)]
        rng.shuffle(keys)
        vectors = [{keys[c]: v for c, v in vec.items()} for vec in
                   random_system(rng, rng.randint(0, 16), ncols, rng.choice((0.1, 0.3, 0.6)))]
        if trial % 2:
            vectors = [{k: v.numerator for k, v in vec.items()} for vec in vectors]
        basis = linalg.echelon(vectors, keys)
        assert items(basis) == items(reversed_rref_reading(vectors, keys))
        # basic_subspace read each reduced row in the order rref left it: by value
        rkeys = keys[::-1]
        col = {key: j for j, key in enumerate(rkeys)}
        rows = old_rref([{col[k]: F(c) for k, c in vec.items()} for vec in vectors])[1]
        assert basis == [{rkeys[j]: c for j, c in row.items()} for row in reversed(rows)]


@pytest.mark.parametrize("name", ["su2", "sl2", "heisenberg3"])
@pytest.mark.parametrize("degree, cap", [(2, 2), (3, 1)])
def test_reduction_matches_previous_elimination_on_weil_model_systems(name, degree, cap):
    L = builtin(name)
    m, mats = builtin_action("adjoint", L)
    dom, vectors = WeilModel(m, L, mats).basic_constraint_rows(degree, cap)
    # the constraint rows are the transpose of the image vectors; both have the rank
    rows = linalg.transpose(vectors)
    assert_matches_oracle(rows, len(dom))
    assert linalg.rank(vectors) == len(old_forward_eliminate(rows))
    assert_relations_match_oracle(vectors)


@pytest.mark.parametrize("row", [
    {0: 6, 2: -4, 5: 10, 7: 0},
    {0: 3, 1: F(3, 4), 3: -6, 4: F(-1, 2), 6: 0},
], ids=["all-int-content-2", "mixed-int-fraction"])
def test_int_row_matches_previous_scaling(row):
    ints = linalg._int_row(row)
    assert ints == _old_int_row(row)
    assert all(type(n) is int for n in ints.values())


def test_solvers_never_mutate_their_input_rows():
    # an all-int row with content 1 and no zero is not copied by _int_row and
    # may be stored as a pivot row as it is; every other kind is copied
    rng = random.Random(2025)
    systems = []
    for kind in ("ints-content-1", "ints-with-zeros", "ints-content-above-1", "fractions"):
        for _ in range(20):
            ncols = rng.randint(1, 10)
            rows = random_system(rng, rng.randint(1, 12), ncols, 0.5)
            if kind != "fractions":
                rows = [{c: v.numerator for c, v in row.items()} for row in rows]
            if kind == "ints-with-zeros":
                rows = [{**row, rng.randrange(ncols + 2): 0} for row in rows]
            elif kind == "ints-content-above-1":
                rows = [{c: 6 * v for c, v in row.items()} for row in rows]
            systems.append((rows, ncols))
    m, mats = builtin_action("adjoint", builtin("su2"))
    dom, vectors = WeilModel(m, builtin("su2"), mats).basic_constraint_rows(2, 2)
    systems += [(vectors, 1 + max(c for row in vectors for c in row)),
                (linalg.transpose(vectors), len(dom))]
    for rows, ncols in systems:
        before = [dict(row) for row in rows]
        linalg.rank(rows)
        linalg.rref(rows)
        linalg.nullspace(rows, ncols)
        linalg.relations(rows)
        linalg.echelon(rows, range(ncols + 2))
        linalg.solve(rows, rows[:2])
        assert rows == before
        assert all(list(row.items()) == list(old.items()) for row, old in zip(rows, before))
