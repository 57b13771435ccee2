import random
from fractions import Fraction

import pytest

from weil import jsonio, liealg, linalg
from weil.chern_weil import builtin_rep
from weil.equivariant import builtin_action
from weil.liealg import (BUILTIN_NAMES, LieAlgebra, Violation, adjoint_matrices, basis_vector,
                         builtin, check_representation, coadjoint, from_brackets,
                         lie_generators, make_lie_algebra, validate)


def bracket_basis(L, i, j):
    """[e_i, e_j] as a sparse coordinate dict."""
    return {k: c for (a, b, k), c in L.structure.items() if (a, b) == (i, j)}


def test_abelian_validates():
    assert validate(builtin("abelian(2)")) is None


def test_su2_validates_and_jacobi_brute_force():
    su2 = builtin("su2")
    assert validate(su2) is None
    # independent oracle: all 3^4 Jacobi instances expanded from the table
    for i in range(3):
        for j in range(3):
            for k in range(3):
                for l in range(3):
                    s = sum(su2.f(i, j, m) * su2.f(m, k, l)
                            + su2.f(j, k, m) * su2.f(m, i, l)
                            + su2.f(k, i, m) * su2.f(m, j, l) for m in range(3))
                    assert s == 0


def test_antisymmetry_violation_named():
    bad = make_lie_algebra(2, {(0, 1, 0): 1, (1, 0, 0): 1})
    assert validate(bad) == Violation("antisymmetry", (0, 1, 0))


def test_jacobi_violation_detected():
    # antisymmetric but non-Jacobi: [e1,e2]=e3, [e1,e3]=e1, [e2,e3]=0 gives
    # [[e1,e2],e3] + [[e2,e3],e1] + [[e3,e1],e2] = -e3 != 0
    bad = make_lie_algebra(3, {(0, 1, 2): 1, (1, 0, 2): -1,
                               (0, 2, 0): 1, (2, 0, 0): -1})
    v = validate(bad)
    assert v is not None and v.kind == "jacobi"


def test_coadjoint_abelian_zero():
    L = builtin("abelian(3)")
    M = coadjoint(L, basis_vector(3, 1))
    assert all(x == 0 for row in M for x in row)


def test_coadjoint_zero_vector():
    su2 = builtin("su2")
    M = coadjoint(su2, [Fraction(0)] * 3)
    assert all(x == 0 for row in M for x in row)


def test_coadjoint_su2_e1_matrix():
    # oracle: (ad*_{e1} l^a)(e_j) = -l^a([e1, e_j]) expanded from brackets
    su2 = builtin("su2")
    xi = basis_vector(3, 0)
    expected = [[Fraction(0)] * 3 for _ in range(3)]
    for a in range(3):
        for j in range(3):
            br = bracket_basis(su2, 0, j)
            expected[j][a] = -br.get(a, Fraction(0))
    assert coadjoint(su2, xi) == expected
    # frozen values: l^2 -> l^3 and l^3 -> -l^2 (rotation about axis 1)
    assert expected[2][1] == 1 and expected[1][2] == -1


def test_coadjoint_dimension_mismatch():
    with pytest.raises(ValueError):
        coadjoint(builtin("su2"), [Fraction(1)])


def test_builtins_all_validate():
    for name in BUILTIN_NAMES:
        L = builtin(name)
        assert validate(L) is None, name


def test_builtin_examples():
    assert builtin("abelian(1)").dim == 1
    assert not builtin("abelian(1)").structure
    h = builtin("heisenberg3")
    assert bracket_basis(h, 0, 1) == {2: Fraction(1)}
    assert bracket_basis(h, 0, 2) == {}
    with pytest.raises(ValueError):
        builtin("nosuch")


def test_coadjoint_linear_in_xi():
    rng = random.Random(3)
    su2 = builtin("su2")
    for _ in range(10):
        a = Fraction(rng.randint(-5, 5), rng.choice((1, 2, 3)))
        b = Fraction(rng.randint(-5, 5), rng.choice((1, 2, 3)))
        xi = [Fraction(rng.randint(-3, 3)) for _ in range(3)]
        eta = [Fraction(rng.randint(-3, 3)) for _ in range(3)]
        mix = [a * x + b * y for x, y in zip(xi, eta)]
        Mx, My, Mm = coadjoint(su2, xi), coadjoint(su2, eta), coadjoint(su2, mix)
        for r in range(3):
            for c in range(3):
                assert Mm[r][c] == a * Mx[r][c] + b * My[r][c]


def _mat_mul(A, B):
    n = len(A)
    return [[sum(A[i][k] * B[k][j] for k in range(n)) for j in range(n)] for i in range(n)]


def test_coadjoint_is_a_representation():
    # the convention (ad*_xi l)(eta) = -l([xi, eta]) makes ad* a homomorphism:
    # ad*_{[xi,eta]} = ad*_xi ad*_eta - ad*_eta ad*_xi (checked once against
    # the defining formula, enforced here as a regression)
    rng = random.Random(5)
    su2 = builtin("su2")
    for _ in range(10):
        xi = [Fraction(rng.randint(-3, 3)) for _ in range(3)]
        eta = [Fraction(rng.randint(-3, 3)) for _ in range(3)]
        lhs = coadjoint(su2, su2.bracket(xi, eta))
        Mx, My = coadjoint(su2, xi), coadjoint(su2, eta)
        comm = _mat_mul(Mx, My)
        comm2 = _mat_mul(My, Mx)
        rhs = [[comm[i][j] - comm2[i][j] for j in range(3)] for i in range(3)]
        assert lhs == rhs


# -- validate against the dense O(dim^5) loops ---------------------------


def dense_validate(L):
    """The previous validate: every index tuple, lexicographically."""
    n = L.dim
    for i in range(n):
        for j in range(n):
            for k in range(n):
                if L.f(i, j, k) != -L.f(j, i, k):
                    return Violation("antisymmetry", (i, j, k))
    for i in range(n):
        for j in range(n):
            for k in range(n):
                for l in range(n):
                    s = Fraction(0)
                    for m in range(n):
                        s += (L.f(i, j, m) * L.f(m, k, l)
                              + L.f(j, k, m) * L.f(m, i, l)
                              + L.f(k, i, m) * L.f(m, j, l))
                    if s:
                        return Violation("jacobi", (i, j, k, l))
    return None


def gl_subalgebra(k, upper):
    """gl(k), or its upper-triangular Borel subalgebra, on the matrix units:
    [E_ab, E_cd] = delta_bc E_ad - delta_da E_cb."""
    units = [(a, b) for a in range(k) for b in range(k) if a <= b or not upper]
    index = {u: i for i, u in enumerate(units)}
    table = {}
    for i, (a, b) in enumerate(units):
        for j, (c, d) in enumerate(units):
            if b == c:
                table[i, j, index[a, d]] = table.get((i, j, index[a, d]), 0) + 1
            if d == a:
                table[i, j, index[c, b]] = table.get((i, j, index[c, b]), 0) - 1
    return make_lie_algebra(len(units), table)


def random_valid_algebras(rng):
    """Semidirect products R x|_A R^k (Jacobi holds for every A), gl(2), the
    Borel of gl(3) and a direct sum su2 + heisenberg3."""
    out = [builtin(name) for name in BUILTIN_NAMES]
    out += [gl_subalgebra(2, False), gl_subalgebra(3, True)]
    su2, heis = builtin("su2"), builtin("heisenberg3")
    out.append(make_lie_algebra(6, {**su2.structure, **{(i + 3, j + 3, k + 3): c for (i, j, k), c
                                                         in heis.structure.items()}}))
    for _ in range(8):
        k = rng.randint(1, 4)
        A = [[rng.randint(-2, 2) for _ in range(k)] for _ in range(k)]
        out.append(from_brackets(k + 1, {(0, j + 1): {i + 1: A[i][j] for i in range(k) if A[i][j]}
                                         for j in range(k)}))
    return out


def perturbed(rng, L):
    """One seeded change to the table: rescale or add an antisymmetric
    bracket (usually breaks Jacobi), or drop one direction or add a diagonal
    entry (breaks antisymmetry)."""
    table = dict(L.structure)
    n = L.dim
    i, j, k = (rng.randrange(n) for _ in range(3))
    kind = rng.randrange(4)
    if kind == 0 and table:
        (a, b, c), v = rng.choice(sorted(table.items()))
        table[a, b, c], table[b, a, c] = v * 2, -v * 2
    elif kind <= 1 and i != j:
        v = Fraction(rng.randint(1, 3), rng.randint(1, 2))
        table[i, j, k] = table.get((i, j, k), 0) + v
        table[j, i, k] = table.get((j, i, k), 0) - v
    elif kind == 2 and table:
        del table[rng.choice(sorted(table))]
    else:
        table[i, i, k] = Fraction(1)
    return make_lie_algebra(n, table)


def test_validate_matches_dense_loops():
    rng = random.Random(41)
    kinds = set()
    for L in random_valid_algebras(rng):
        assert validate(L) is None and dense_validate(L) is None, L.structure
        for _ in range(6):
            bad = perturbed(rng, L)
            expected = dense_validate(bad)
            assert validate(bad) == expected, bad.structure
            kinds.add(expected and expected.kind)
    assert kinds == {None, "antisymmetry", "jacobi"}


def test_validate_visits_only_the_stored_brackets(monkeypatch):
    def dense_lookup(self, i, j, k):
        raise AssertionError("validate looked up a structure constant by index")

    monkeypatch.setattr(LieAlgebra, "f", dense_lookup)
    brackets = [{"i": 3, "j": 17, "k": 40, "c": "5/2"}]
    L = jsonio.algebra_from_json({"dim": 40, "brackets": brackets})
    assert L.dim == 40 and validate(L) is None
    # [e39, e40] = e3 breaks Jacobi: [[e3, e17], e39] = -5/2 e3, the other two terms vanish
    brackets.append({"i": 39, "j": 40, "k": 3, "c": "1"})
    with pytest.raises(ValueError, match=r"violate jacobi at basis indices \[3, 17, 39, 3\]"):
        jsonio.algebra_from_json({"dim": 40, "brackets": brackets})


# -- check_representation against the dense O(n^2 m^3) check ---------------------


def dense_check_representation(L, mats):
    """The previous check: dense products for every (i, j), row-major."""
    size = len(mats[0]) if mats else 0
    idx = range(size)

    def prod(a, b):
        return [[sum(a[r][t] * b[t][s] for t in idx) for s in idx] for r in idx]

    for i in range(L.dim):
        for j in range(L.dim):
            ab, ba = prod(mats[i], mats[j]), prod(mats[j], mats[i])
            bracket = bracket_basis(L, i, j)
            expect = [[sum(c * mats[k][r][s] for k, c in bracket.items()) for s in idx] for r in idx]
            if [[x - y for x, y in zip(r1, r2)] for r1, r2 in zip(ab, ba)] != expect:
                raise ValueError(f"action matrices violate bracket compatibility at ({i},{j})")


def check_outcome(check, L, mats):
    try:
        check(L, mats)
    except ValueError as exc:
        return str(exc)
    return None


def test_adjoint_matrices_act_by_the_bracket():
    # column j of ad e_i is [e_i, e_j], and ad is a representation (Jacobi)
    for name in BUILTIN_NAMES:
        L = builtin(name)
        mats, n = adjoint_matrices(L), L.dim
        for i in range(n):
            for j in range(n):
                assert [row[j] for row in mats[i]] == L.bracket(basis_vector(n, i),
                                                                basis_vector(n, j))
        assert check_representation(L, mats) is None


def test_check_representation_matches_dense_check():
    rng = random.Random(43)
    failures = 0
    for L in random_valid_algebras(rng):
        mats = builtin_action("adjoint", L)[1]
        assert check_representation(L, mats) is None
        assert dense_check_representation(L, mats) is None
        for _ in range(4):
            bad = [[list(row) for row in mat] for mat in mats]
            i, r, s = rng.randrange(L.dim), rng.randrange(L.dim), rng.randrange(L.dim)
            bad[i][r][s] += Fraction(rng.choice((-2, -1, 1, 3)), rng.choice((1, 2)))
            expected = check_outcome(dense_check_representation, L, bad)
            assert check_outcome(check_representation, L, bad) == expected, (L.structure, bad)
            failures += expected is not None
    assert failures > 0


class CountingFraction(Fraction):
    products = 0

    def __mul__(self, other):
        CountingFraction.products += 1
        return Fraction.__mul__(self, other)

    def __rmul__(self, other):
        CountingFraction.products += 1
        return Fraction.__rmul__(self, other)


class CountingInt(int):
    """An int that counts the products it takes part in; a product is a plain int."""

    products = 0

    def __mul__(self, other):
        CountingInt.products += 1
        return int.__mul__(self, other)

    def __rmul__(self, other):
        CountingInt.products += 1
        return int.__rmul__(self, other)


def test_check_representation_multiplies_only_nonzero_pairs(monkeypatch):
    # the adjoint action of gl(2) + heisenberg3 on itself: 7 x 7 matrices with
    # few nonzero entries.  Every entry of the scaled integer rows is a
    # CountingInt, so a product of two entries, or of a structure constant and
    # an entry, counts once; scaling the input once, before any product, does not.
    L = make_lie_algebra(7, {**gl_subalgebra(2, False).structure,
                             **{(i + 4, j + 4, k + 4): c for (i, j, k), c
                                in builtin("heisenberg3").structure.items()}})
    assert validate(L) is None
    _, mats = builtin_action("adjoint", L)
    nonzero = [[(r, s) for r, row in enumerate(mat) for s, x in enumerate(row) if x]
               for mat in mats]

    def pairs(a, b):
        return sum(1 for r, t in nonzero[a] for t2, _ in nonzero[b] if t == t2)

    int_rows = liealg._int_rows

    def counting_rows(mats):
        D, rows = int_rows(mats)
        return D, [[[(s, CountingInt(x)) for s, x in row] for row in mat] for mat in rows]

    monkeypatch.setattr(liealg, "_int_rows", counting_rows)
    bound = sum(pairs(i, j) + pairs(j, i) + sum(len(nonzero[k]) for k in bracket_basis(L, i, j))
                for i in range(L.dim) for j in range(L.dim))
    CountingInt.products = 0
    check_representation(L, mats)
    assert 0 < CountingInt.products <= bound < L.dim ** 2 * 7 ** 3


# -- check_representation on ints against the same check in Fractions ------------


def fraction_check_representation(L, mats):
    """The check in Fractions: nonzero entries by row, products and sums exact."""
    rows = [[[(s, x) for s, x in enumerate(row) if x] for row in mat] for mat in mats]
    brackets = {}
    for (i, j, k), c in L.structure.items():
        brackets.setdefault((i, j), []).append((k, c))

    def product(a, b):
        out = {}
        for r, row in enumerate(rows[a]):
            for t, x in row:
                for s, y in rows[b][t]:
                    out[r, s] = out.get((r, s), 0) + x * y
        return out

    for i in range(L.dim):
        for j in range(L.dim):
            diff = product(i, j)
            for key, v in product(j, i).items():
                diff[key] = diff.get(key, 0) - v
            for k, c in brackets.get((i, j), ()):
                for r, row in enumerate(rows[k]):
                    for s, x in row:
                        diff[r, s] = diff.get((r, s), 0) - c * x
            if any(diff.values()):
                raise ValueError(f"action matrices violate bracket compatibility at ({i},{j})")


def rational_algebras(rng):
    """Semidirect products R x|_A R^k with rational A, and gl(2), su2 and sl2 on
    a basis rescaled by rational factors s_i, f'^k_ij = f^k_ij s_i s_j / s_k."""
    out = []
    for _ in range(6):
        k = rng.randint(1, 3)
        A = [[Fraction(rng.randint(-3, 3), rng.randint(1, 4)) for _ in range(k)] for _ in range(k)]
        out.append(from_brackets(k + 1, {(0, j + 1): {i + 1: A[i][j] for i in range(k) if A[i][j]}
                                         for j in range(k)}))
    for L in (gl_subalgebra(2, False), builtin("su2"), builtin("sl2")):
        s = [Fraction(rng.randint(1, 5), rng.randint(1, 5)) * rng.choice((1, -1))
             for _ in range(L.dim)]
        out.append(make_lie_algebra(L.dim, {(i, j, k): c * s[i] * s[j] / s[k]
                                            for (i, j, k), c in L.structure.items()}))
    return out


def inverse(Q):
    """Q^-1 by Gauss-Jordan elimination in Fractions."""
    n = len(Q)
    M = [list(row) + [Fraction(int(r == c)) for c in range(n)] for r, row in enumerate(Q)]
    for c in range(n):
        p = next(r for r in range(c, n) if M[r][c])
        M[c], M[p] = M[p], M[c]
        M[c] = [x / M[c][c] for x in M[c]]
        for r in range(n):
            if r != c and M[r][c]:
                M[r] = [x - M[r][c] * y for x, y in zip(M[r], M[c])]
    return [row[n:] for row in M]


def matmul(A, B):
    return [[sum(a * b for a, b in zip(row, col)) for col in zip(*B)] for row in A]


def conjugated(rng, mats):
    """Q^-1 rho_i Q for one random rational Q, upper times lower unitriangular
    with a rational diagonal, so invertible."""
    m = len(mats[0])
    def entry():
        return Fraction(rng.randint(-3, 3), rng.randint(1, 3))
    U = [[entry() if c > r else Fraction(rng.choice((1, -2, 3)), rng.randint(1, 2)) if c == r
          else Fraction(0) for c in range(m)] for r in range(m)]
    Lo = [[entry() if c < r else Fraction(int(c == r)) for c in range(m)] for r in range(m)]
    Q = matmul(U, Lo)
    Qinv = inverse(Q)
    assert matmul(Q, Qinv) == [[int(r == c) for c in range(m)] for r in range(m)]
    return [matmul(matmul(Qinv, mat), Q) for mat in mats]


def test_check_representation_on_ints_matches_the_fraction_check():
    rng = random.Random(47)
    cases = [(builtin("su2"), [list(map(list, mat)) for mat in builtin_rep("su2").mats])]
    for L in rational_algebras(rng):
        mats = adjoint_matrices(L)
        cases += [(L, mats), (L, conjugated(rng, mats))]
    outcomes, scaled = [], set()
    for L, mats in cases:
        # whether D (the matrices) and E (the structure constants) are above 1
        scaled.add((any(x.denominator > 1 for mat in mats for row in mat for x in row),
                    any(c.denominator > 1 for c in L.structure.values())))
        assert check_outcome(check_representation, L, mats) is None
        assert check_outcome(fraction_check_representation, L, mats) is None
        size = len(mats[0])
        for _ in range(4):
            bad = [[list(row) for row in mat] for mat in mats]
            i, r, s = rng.randrange(L.dim), rng.randrange(size), rng.randrange(size)
            bad[i][r][s] += Fraction(rng.choice((-2, -1, 1, 3)), rng.choice((1, 2, 5)))
            expected = check_outcome(fraction_check_representation, L, bad)
            assert check_outcome(check_representation, L, bad) == expected, (L.structure, bad)
            outcomes.append(expected)
    assert {(True, True), (True, False)} <= scaled
    assert sum(o is not None for o in outcomes) > len(outcomes) // 2


def strictly_upper(k):
    """The nilpotent strictly upper-triangular matrices, the ideal of the Borel
    of gl(k) spanned by the units E_ab, a < b, renumbered in order."""
    units = [(a, b) for a in range(k) for b in range(k) if a <= b]
    new = {old: i for i, old in enumerate(u for u, (a, b) in enumerate(units) if a < b)}
    return make_lie_algebra(len(new), {(new[i], new[j], new[l]): c for (i, j, l), c
                                       in gl_subalgebra(k, True).structure.items()
                                       if i in new and j in new})


def two_step_nilpotent(rng):
    """[e_i, e_j] for i < j < a lands in the span of e_a..e_{n-1}, which is
    central: every double bracket vanishes, so Jacobi holds."""
    a, b = rng.randint(2, 4), rng.randint(1, 2)
    return from_brackets(a + b, {(i, j): {l: c for l in range(a, a + b) if (c := rng.randint(-2, 2))}
                                 for i in range(a) for j in range(i + 1, a)})


def semidirect(rng):
    """R x|_A R^k: [e_0, e_j] = sum_i A_ij e_i, the ideal R^k abelian."""
    k = rng.randint(1, 4)
    A = [[rng.randint(-2, 2) for _ in range(k)] for _ in range(k)]
    return from_brackets(k + 1, {(0, j + 1): {i + 1: A[i][j] for i in range(k) if A[i][j]}
                                 for j in range(k)})


def su2_plus_abelian():
    return make_lie_algebra(4, dict(builtin("su2").structure))


def rebased(rng, L):
    """L on the basis e'_a = sum_i P_ia e_i, P upper times lower unitriangular
    on ints (so invertible): f'^c_ab = (P^-1 [e'_a, e'_b])_c."""
    n = L.dim
    U = [[Fraction(rng.randint(-2, 2) if c > r else int(c == r)) for c in range(n)]
         for r in range(n)]
    Lo = [[Fraction(rng.randint(-2, 2) if c < r else int(c == r)) for c in range(n)]
          for r in range(n)]
    P = matmul(U, Lo)
    Pinv = inverse(P)
    cols = [list(col) for col in zip(*P)]
    table = {}
    for a in range(n):
        for b in range(n):
            br = L.bracket(cols[a], cols[b])
            for c in range(n):
                if v := sum(x * y for x, y in zip(Pinv[c], br)):
                    table[a, b, c] = v
    return make_lie_algebra(n, table)


def generator_algebras(rng):
    """Seeded valid algebras for the generating-set tests: 2-step nilpotent
    ones, the strictly upper-triangular 4 x 4 matrices, semidirect products
    R x|_A R^k, su2 + abelian(1), gl(2) and the Borel of gl(3), each also on
    a random basis."""
    out = [two_step_nilpotent(rng) for _ in range(3)] + [semidirect(rng) for _ in range(4)]
    out += [strictly_upper(4), su2_plus_abelian(), gl_subalgebra(2, False),
            gl_subalgebra(3, True)]
    out += [rebased(rng, L) for L in out if L.dim <= 6]
    for L in out:
        assert validate(L) is None
    return out


def spans(L, indices, target):
    """Whether e_target lies in the span of the e_i and the [e_i, e_j], i < j
    in indices."""
    columns = [{i: Fraction(1)} for i in indices]
    columns += [bracket_basis(L, i, j) for i in indices for j in indices if i < j]
    return linalg.solve([c for c in columns if c] or [{}], [{target: Fraction(1)}]) is not None


def generated_dim(L, indices):
    """dim of the Lie subalgebra the e_i, i in indices, generate: brackets of
    an echelon basis are added until its rank stops growing."""
    n = L.dim
    basis = [{i: Fraction(1)} for i in indices]
    while True:
        dense = [[row.get(c, Fraction(0)) for c in range(n)] for row in basis]
        grown = basis + [dict(enumerate(L.bracket(x, y))) for x in dense for y in dense]
        _, reduced = linalg.rref(grown)
        if len(reduced) == len(basis):
            return len(basis)
        basis = reduced


def test_lie_generators_of_the_builtins():
    expected = {"abelian(1)": [0], "abelian(2)": [0, 1], "abelian(3)": [0, 1, 2],
                "su2": [1, 2], "so3": [1, 2], "sl2": [1, 2], "heisenberg3": [0, 1]}
    assert {name: lie_generators(builtin(name)) for name in BUILTIN_NAMES} == expected


def test_lie_generators_generate_and_follow_the_drop_rule():
    rng = random.Random(59)
    algebras = [builtin(name) for name in BUILTIN_NAMES] + generator_algebras(rng)
    shrunk = 0
    for L in algebras:
        kept = lie_generators(L)
        assert kept == sorted(set(kept))
        assert generated_dim(L, kept) == L.dim, L.structure
        # e_k is dropped exactly when it lies in the span of the kept indices
        # below k and all indices above it and of their brackets
        for k in range(L.dim):
            others = [i for i in kept if i < k] + list(range(k + 1, L.dim))
            assert (k not in kept) == spans(L, others, k), (L.structure, k)
        shrunk += len(kept) < L.dim
    # only some algebras shrink (abelian ones never do); enough of them must
    # for the rule to be tested
    assert shrunk >= len(algebras) // 4


def test_lie_generators_shrink_on_a_random_basis():
    # few basis vectors of a random basis lie in the span of brackets alone;
    # with the other kept basis vectors in the span, the rebased strictly
    # upper-triangular 4 x 4 matrices keep 3 of 6 and a rebased 2-step
    # nilpotent algebra 4 of 5, each the dimension of its g/[g, g]
    algebras = generator_algebras(random.Random(59))
    nilpotent, upper = algebras[13], algebras[18]
    assert (nilpotent.dim, upper.dim) == (5, 6) and upper != strictly_upper(4)
    assert len(lie_generators(nilpotent)) == 4
    assert len(lie_generators(upper)) == 3


def test_lie_generators_keep_the_abelian_summand():
    assert lie_generators(su2_plus_abelian()) == [1, 2, 3]
