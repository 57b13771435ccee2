from collections import Counter
from itertools import combinations, combinations_with_replacement, product
from math import comb, factorial, prod

import pytest

import weil.schur_oracle as schur_oracle
from weil import linalg
from weil.polyfunctor import canonical
from weil.schur_oracle import (BASES, DEFAULT_CAP, MAX_SLOTS, W_WEIGHT, EquivHomProblem, Factor,
                               ResourceCapError, antisymmetrization_problem,
                               _ext_action, base_elements, bidegree_problem, capped_comb,
                               domain_action, domain_basis, domain_weight, equivariant_hom_dim,
                               lowering_columns, verify_bidegree)


# -- the layered action: E_ab on each base space, then on one factor, then
# across the factors; an oracle for the module's single exterior-index rule


def _base_action(base, a, b, elem):
    """E_ab acting on a base monomial (w*_a -> -w*_b); list of (elem, coeff)."""
    out = []
    if base == "W":
        if elem[0] == a:
            out.append(((b,), -1))
    elif base == "WV":
        if elem[0] == a:
            out.append(((b, elem[1]), -1))
    else:
        i, j = elem[0], elem[1]
        tail = elem[2:]
        if i == a:
            c = _wedge2(b, j)
            if c:
                out.append((c[0] + tail, -c[1]))
        if j == a:
            c = _wedge2(i, b)
            if c:
                out.append((c[0] + tail, -c[1]))
    return out


def _wedge2(x, y):
    if x == y:
        return None
    return ((x, y), 1) if x < y else ((y, x), -1)


def _factor_action(factor, a, b, elem):
    """Derivation action of E_ab across the slots of one factor monomial."""
    out = {}
    for t, slot in enumerate(elem):
        for img, coeff in _base_action(factor.base, a, b, slot):
            slots = list(elem)
            slots[t] = img
            canon = canonical(factor.op, slots)
            if canon is None:
                continue
            key, sign = canon
            v = out.get(key, 0) + sign * coeff
            if v:
                out[key] = v
            else:
                out.pop(key, None)
    return list(out.items())


def _layered_domain_action(problem, a, b, elem):
    out = {}
    for t, (f, part) in enumerate(zip(problem.domain, elem)):
        for img, coeff in _factor_action(f, a, b, part):
            new = list(elem)
            new[t] = img
            key = tuple(new)
            v = out.get(key, 0) + coeff
            if v:
                out[key] = v
            else:
                out.pop(key, None)
    return list(out.items())


def _layered_codomain_action(a, b, elem):
    ext = Factor("ext", len(elem), "W")
    return [(tuple(slot[0] for slot in key), coeff)
            for key, coeff in _factor_action(ext, a, b, tuple((i,) for i in elem))]


def _reflection_sign(weight):
    """diag(-1, 1, ..., 1) on a monomial of this weight."""
    return -1 if weight and weight[0] % 2 else 1


def _monomials(op, elems, degree):
    """Sym/Lambda/Tensor^degree monomials over ``elems``, slots in canonical order."""
    if op == "ten":
        return list(product(elems, repeat=degree))
    pick = combinations_with_replacement if op == "sym" else combinations
    return list(pick(elems, degree))


def _domain(problem):
    return product(*(_monomials(f.op, base_elements(f.base, problem.dim_w, problem.dim_v),
                                f.degree) for f in problem.domain))


def _brute_hom_dim(problem):
    """The oracle without its shortcuts: every domain monomial, all n(n-1)
    off-diagonal E_ab, and the reflection checked per unknown."""
    n = problem.dim_w
    dom = list(_domain(problem))
    cod = list(combinations(range(n), problem.codomain_degree))
    dom_index = {v: i for i, v in enumerate(dom)}
    cod_index = {c: i for i, c in enumerate(cod)}
    cod_weight = [tuple(int(i in c) for i in range(n)) for c in cod]
    cod_by_weight = {}
    for ci, w in enumerate(cod_weight):
        cod_by_weight.setdefault(w, []).append(ci)

    unknowns, cands, vis_by_ci = {}, {}, {}
    for vi, v in enumerate(dom):
        w = domain_weight(problem, v)
        for ci in cod_by_weight.get(w, ()):
            if _reflection_sign(w) != _reflection_sign(cod_weight[ci]):
                continue
            unknowns[(vi, ci)] = len(unknowns)
            cands.setdefault(vi, []).append(ci)
            vis_by_ci.setdefault(ci, []).append(vi)
    if not unknowns:
        return 0

    rows = {}

    def add(key, k, coeff):
        row = rows.setdefault(key, {})
        row[k] = row.get(k, 0) + coeff
        if not row[k]:
            del row[k]

    for a in range(n):
        for b in range(n):
            if a == b:
                continue
            # row (vi, ci): [T(E_ab v)]_ci - [E_ab T(v)]_ci = 0
            for vi, v in enumerate(dom):
                for img, coeff in _layered_domain_action(problem, a, b, v):
                    v2 = dom_index[img]
                    for ci in cands.get(v2, ()):
                        add((a, b, vi, ci), unknowns[(v2, ci)], coeff)
            for ci, c in enumerate(cod):
                for img, coeff in _layered_codomain_action(a, b, c):
                    for vi in vis_by_ci.get(ci, ()):
                        add((a, b, vi, cod_index[img]), unknowns[(vi, ci)], -coeff)
    return len(unknowns) - linalg.rank([r for r in rows.values() if r])


def _grid():
    for op in ("sym", "ext", "ten"):
        for base in BASES:
            for degree in range(4):
                for r in range(5):
                    for dim_w in (2, 3, 4):
                        dim_v = 2 if base.endswith("V") else 0
                        yield EquivHomProblem(dim_w, dim_v, (Factor(op, degree, base),), r)
    for dim_v in (1, 2, 3):
        for p in range(6):
            for q in range(3):
                if p + 2 * q <= 4 or (p + 2 * q == 5 and dim_v == 1):
                    yield bidegree_problem(p, q, dim_v)
    yield bidegree_problem(1, 2, 2)
    for N in range(4):
        for q in range(4):
            yield antisymmetrization_problem(N, q, 4)
    yield EquivHomProblem(4, 1, (Factor("ext", 2, "W"), Factor("sym", 1, "L2WV")), 4)
    yield EquivHomProblem(4, 2, (Factor("ten", 2, "WV"), Factor("ext", 1, "L2W")), 4)
    yield EquivHomProblem(3, 2, (Factor("sym", 1, "W"), Factor("ten", 1, "WV")), 2)


def test_matches_brute_force():
    for problem in _grid():
        assert equivariant_hom_dim(problem) == _brute_hom_dim(problem), problem


def test_action_matches_layered_action():
    # images and their order, on every grid monomial and every a != b
    seen = set()
    for problem in _grid():
        n, shape = problem.dim_w, (problem.dim_w, problem.dim_v, problem.domain)
        if shape in seen:
            continue
        seen.add(shape)
        pairs = [(a, b) for a in range(n) for b in range(n) if a != b]
        for v in _domain(problem):
            for a, b in pairs:
                assert (domain_action(problem, a, b, v)
                        == _layered_domain_action(problem, a, b, v)), (problem, a, b, v)
        for r in range(n + 1):
            for c in combinations(range(n), r):
                for a, b in pairs:
                    img = _ext_action(c, a, b)
                    assert ([] if img is None else [img]) == _layered_codomain_action(a, b, c)


def _norm(problem, elem):
    """The contravariant norm of a monomial: prod (slot multiplicity)! over the Sym factors."""
    return prod(factorial(m) for f, part in zip(problem.domain, elem) if f.op == "sym"
                for m in Counter(part).values())


def test_lowering_is_the_scaled_transpose_of_raising():
    # c(v in E_{a,a+1} u) n_v = c(u in E_{a+1,a} v) n_u, with the same support:
    # the lemma that lets the oracle take its columns from lowering images
    seen = set()
    for problem in _grid():
        shape = (problem.dim_w, problem.dim_v, problem.domain)
        if shape in seen:
            continue
        seen.add(shape)
        dom = list(_domain(problem))
        for a in range(problem.dim_w - 1):
            raising = {(v, u): c for u in dom
                       for v, c in _layered_domain_action(problem, a, a + 1, u)}
            lowering = {(v, u): c for v in dom
                        for u, c in _layered_domain_action(problem, a + 1, a, v)}
            assert raising.keys() == lowering.keys(), (problem, a)
            for (v, u), c in raising.items():
                assert c * _norm(problem, v) == lowering[(v, u)] * _norm(problem, u), (v, u)


# the schur-oracle benchmark's (p, q, dim V) configurations
ORACLE_CONFIGS = ((3, 1, 2), (1, 2, 2), (2, 1, 3), (2, 1, 2), (4, 0, 2), (1, 1, 3))


def _lowering_grid():
    """Every one-factor problem up to dim W 5 and dim V 2 with unknowns, and the
    benchmark's bidegree problems."""
    for op in ("sym", "ext", "ten"):
        for base in BASES:
            k = W_WEIGHT[base]
            for dim_w in range(1, 6):
                for dim_v in ((1, 2) if base.endswith("V") else (0,)):
                    for degree in range(dim_w // k + 1):
                        yield EquivHomProblem(dim_w, dim_v, (Factor(op, degree, base),), degree * k)
    for p, q, dim_v in ORACLE_CONFIGS:
        yield bidegree_problem(p, q, dim_v)


def test_lowering_columns_match_domain_action():
    # the column built from the slot of a + 1 against the derivation over every slot
    for problem in _lowering_grid():
        n = problem.dim_w
        matched = domain_basis(problem)
        columns, index = lowering_columns(problem, matched)
        assert len(columns) == len(matched)
        key = {i: ak for ak, i in index.items()}
        for (v, w), column in zip(matched, columns):
            entries = {}
            for i, c in column.items():
                a, u = key[i]
                entries.setdefault(a, []).append((u, c))
            for a in range(n - 1):
                if w[a + 1]:
                    expected = domain_action(problem, a + 1, a, v)
                elif w[a]:
                    support = tuple(i for i in range(n) if w[i])
                    expected = [(v, -_ext_action(support, a, a + 1)[1])]
                else:
                    expected = []
                assert entries.pop(a, []) == expected, (problem, v, a)
            assert not entries, (problem, v)


def test_one_column_per_unknown(monkeypatch):
    # one enumeration, and one vector per unknown handed to the rank
    enumerations, handed = [], []
    basis, rank = schur_oracle.domain_basis, linalg.rank

    def counted_basis(*args, **kwargs):
        enumerations.append(basis(*args, **kwargs))
        return enumerations[-1]

    def counted_rank(rows):
        handed.append(list(rows))
        return rank(handed[-1])

    monkeypatch.setattr(schur_oracle, "domain_basis", counted_basis)
    monkeypatch.setattr(linalg, "rank", counted_rank)
    assert verify_bidegree(2, 2, 2).match
    assert len(enumerations) == 1 and len(handed) == 1
    assert len(handed[0]) == len(enumerations[0]) == 720
    assert all(max(w) <= 1 for _, w in enumerations[0])


def test_domain_basis_is_the_weight_filter_of_all_monomials():
    for problem in _grid():
        weighted = [(v, domain_weight(problem, v)) for v in _domain(problem)]
        assert domain_basis(problem) == [(v, w) for v, w in weighted if max(w, default=0) <= 1]


def test_domain_basis_places_only_slots_that_can_complete(monkeypatch):
    # Sym^16(W* (x) V) at dim W 16, dim V 1: a sorted fill that places every
    # slot with weight excess 0 places 655,342 slots, one that leaves each
    # factor room for its remaining slots places 1,512
    placed = []

    class Counting(list):
        def __getitem__(self, k):
            placed.append(k)
            return super().__getitem__(k)

    elements = schur_oracle.base_elements
    monkeypatch.setattr(schur_oracle, "base_elements", lambda *args: Counting(elements(*args)))
    report = verify_bidegree(16, 0, 1)
    assert report.match and report.computed == report.expected == 0
    assert len(placed) < 5000


def test_antisymmetrization_is_the_only_map():
    # Hom(Tensor^N W*, Lambda^q W*) at dim W = 3: one-dimensional iff N = q
    for N in range(4):
        for q in range(4):
            dim = equivariant_hom_dim(antisymmetrization_problem(N, q, 3))
            assert dim == (1 if N == q else 0), (N, q)


def test_bidegree_1_1_dimV_2():
    r = verify_bidegree(1, 1, 2)
    assert r.dim_w == 3 and r.expected == 4 and r.computed == 4 and r.match


def test_bidegree_examples():
    assert verify_bidegree(1, 0, 1).computed == 1
    assert verify_bidegree(0, 1, 1).computed == 1
    assert verify_bidegree(2, 0, 2).computed == 1


def test_all_desk_scale_bidegrees():
    for dim_v in (1, 2):
        for p in range(5):
            for q in range(3):
                if p + 2 * q <= 4:
                    assert verify_bidegree(p, q, dim_v).match, (p, q, dim_v)


def test_all_bidegrees_up_to_six_at_default_cap():
    for dim_v in (1, 2):
        for p in range(7):
            for q in range(4):
                if 4 < p + 2 * q <= 6:
                    assert verify_bidegree(p, q, dim_v).match, (p, q, dim_v)


def test_dim_v_zero_and_negative():
    for p, q, expected in ((0, 0, 1), (1, 0, 0), (0, 1, 0)):
        r = verify_bidegree(p, q, 0)
        assert r.expected == r.computed == expected and r.match, (p, q)
    with pytest.raises(ValueError, match="dimV must be nonnegative"):
        verify_bidegree(0, 0, -1)


def test_scaling_selection_rule():
    # W*-weight of the domain different from r forces dimension zero
    mismatched = (
        EquivHomProblem(3, 0, (Factor("ten", 1, "W"),), 2),
        EquivHomProblem(3, 2, (Factor("sym", 2, "WV"),), 3),
        EquivHomProblem(3, 0, (Factor("ten", 3, "W"),), 1),
    )
    for prob in mismatched:
        assert prob.total_w_weight() != prob.codomain_degree
        assert equivariant_hom_dim(prob) == 0


def test_stability_in_dim_w():
    # the antisymmetrization dimensions are unchanged as dim W grows from q to q + 2
    for q in range(1, 4):
        for N in range(4):
            dims = {w: equivariant_hom_dim(antisymmetrization_problem(N, q, w))
                    for w in (q, q + 1, q + 2)}
            assert len(set(dims.values())) == 1, (N, q, dims)


def test_trivial_problem_dim_w_zero():
    assert verify_bidegree(0, 0, 2).computed == 1


def test_resource_cap():
    # the cap counts weight-matched unknowns: Tensor^7 W* -> Lambda^5 W* has
    # none (scaling rule), however many monomials its domain has
    big = EquivHomProblem(5, 0, (Factor("ten", 7, "W"),), 5)
    assert equivariant_hom_dim(big) == 0


def test_resource_cap_refuses_before_any_action(monkeypatch):
    # Tensor^8 W* -> Lambda^8 W* at dim W 8: one unknown per permutation, 8! = 40,320;
    # every lowering image is re-sorted by canonical, so no call means no image
    calls = []
    canon = schur_oracle.canonical
    monkeypatch.setattr(schur_oracle, "canonical",
                        lambda *args: calls.append(args) or canon(*args))
    over = EquivHomProblem(8, 0, (Factor("ten", 8, "W"),), 8)
    with pytest.raises(ResourceCapError, match="over the cap 20000"):
        equivariant_hom_dim(over)
    assert calls == []
    assert equivariant_hom_dim(antisymmetrization_problem(3, 3, 3)) == 1 and calls


def test_closed_form_sizes_refuse_before_any_table(monkeypatch):
    # MAX_SLOTS slots are answered and one more is refused; a factor of degree 0
    # builds no table, so 10^9 V-labels cost nothing at p = q = 0
    assert verify_bidegree(MAX_SLOTS, 0, 1).match
    assert verify_bidegree(0, 0, 10 ** 9).computed == 1
    monkeypatch.setattr(schur_oracle, "base_elements", lambda *args: pytest.fail("built a table"))
    for p, q, dim_v in ((MAX_SLOTS + 1, 0, 1), (1, 0, 10 ** 9), (1, 0, DEFAULT_CAP + 1)):
        with pytest.raises(ResourceCapError, match="over the cap"):
            verify_bidegree(p, q, dim_v)


def test_factor_validation():
    with pytest.raises(ValueError):
        Factor("bad", 1, "W")
    with pytest.raises(ValueError):
        Factor("sym", -1, "W")
    with pytest.raises(ValueError):
        Factor("sym", 1, "X")


def test_mixed_factor_problem():
    # Hom(W* (x) W*, Lambda^2 W*) via two tensor factors matches the antisymmetrization table
    prob = EquivHomProblem(3, 0, (Factor("ten", 1, "W"), Factor("ten", 1, "W")), 2)
    assert equivariant_hom_dim(prob) == 1
    # and with a Lambda^2 W* domain factor the identity map shows up
    prob2 = EquivHomProblem(3, 0, (Factor("ten", 1, "L2W"),), 2)
    assert equivariant_hom_dim(prob2) == 1


def test_capped_comb_is_exact_below_the_cap_and_cheap_above_it():
    for a in range(40):
        for b in range(-1, a + 2):
            expected = comb(a, b) if 0 <= b <= a else 0
            assert capped_comb(a, b) == min(expected, DEFAULT_CAP + 1), (a, b)
    # C(2 * 10^12, 10^12) has about 6 * 10^11 digits; the cap is passed in a few steps
    assert capped_comb(2 * 10 ** 12, 10 ** 12) == DEFAULT_CAP + 1
