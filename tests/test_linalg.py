import random
from fractions import Fraction

from weil import linalg


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
