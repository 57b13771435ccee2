"""Exact dimensions of GL(W)-equivariant linear map spaces.

A problem is Hom(D, Lambda^r W*) where D is a tensor product of Sym/Lambda/
Tensor factors built on W*, W* (x) V, Lambda^2 W*, or Lambda^2 W* (x) V.

Everything is enumerated over monomial bases.  Monomials are weight vectors
for the diagonal torus of GL(W), so an equivariant map sends a monomial only
to the codomain monomial of the same weight: the unknowns are the
weight-matched pairs (v, c).  A Lambda^r W* weight is a 0/1 vector and names
its one codomain monomial, so the unknowns are the domain monomials of 0/1
weight.  The torus contains the orientation-reversing reflection
diag(-1, 1, ..., 1), which acts on a monomial of weight w by (-1)^{w_0} on
either side; weight matching therefore implies equivariance under it, and
with it under the component of GL(W) it lies in.

On the identity component, equivariance is gl(W)-equivariance.  A map
D -> Lambda^r W* is a vector of D* (x) Lambda^r W*, a finite-dimensional
module that is a direct sum of irreducibles.  A weight-matched map is a
weight-0 vector; if the raising operators kill it, it is a highest weight
vector of weight 0 and spans a trivial submodule, so all of gl(W) kills it.
The X in gl(W) that commute with a map form a Lie subalgebra, and the simple
root vectors E_{a,a+1} generate the raising operators, so only these
dim W - 1 generators give constraints.

A map T commutes with E_{a,a+1} when [T(E_{a,a+1} u)] - [E_{a,a+1} T(u)]
vanishes at every codomain monomial, for every domain monomial u.  Taken by
columns, one per unknown v, these constraints put at (a, u) the coefficient
of v in E_{a,a+1} u, less E_{a,a+1}'s coefficient on v's codomain monomial
where u = v.  Under the contravariant form the monomials are orthogonal with
norms n_u = prod (slot multiplicity)! over the Sym factors, and E_{a+1,a} is
the adjoint of E_{a,a+1}: c(v in E_{a,a+1} u) n_v = c(u in E_{a+1,a} v) n_u
(Weyl, The Classical Groups).  So the column of v may hold its lowering
images E_{a+1,a} v instead: the matrix changes by diagonal row and column
scalings only, and keeps its rank.  Only the unknowns are enumerated, and
only their lowering images are built.  An unknown has a 0/1 weight, so
E_{a+1,a} moves only the one slot holding a + 1, and every entry is +-1: the
columns are integer, and their rank is computed exactly.  ``domain_action``,
the derivation over every slot, is the slow route the tests compare with.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import namedtuple
from itertools import combinations
from math import comb

from . import linalg
from .polyfunctor import canonical


class ResourceCapError(ValueError):
    """Raised when a problem is too large to enumerate."""


# each base space with its W*-weight, the number of W*-indices of a monomial
W_WEIGHT = {"W": 1, "WV": 1, "L2W": 2, "L2WV": 2}
BASES = tuple(W_WEIGHT)


class Factor(namedtuple("Factor", "op degree base")):
    """op "sym", "ext" or "ten"; degree >= 0, degree 0 being the scalar factor; base
    one of BASES.  Refused when built otherwise."""

    __slots__ = ()

    def __new__(cls, op, degree, base):
        if op not in ("sym", "ext", "ten"):
            raise ValueError(f"unknown factor op {op!r}")
        if degree < 0:
            raise ValueError("factor degree must be >= 0")
        if base not in BASES:
            raise ValueError(f"unknown base space {base!r}")
        return super().__new__(cls, op, degree, base)

    @property
    def w_weight(self):
        return W_WEIGHT[self.base]


class EquivHomProblem(namedtuple("EquivHomProblem", "dim_w dim_v domain codomain_degree")):
    """Hom(domain, Lambda^r W*) for a tuple of Factors and r = codomain_degree."""

    __slots__ = ()

    def total_w_weight(self):
        return sum(f.degree * f.w_weight for f in self.domain)


# -- base spaces and the one action rule ------------------------------


def base_elements(base, dim_w, dim_v):
    """Monomial basis as tuples: the ascending W*-indices, then a V index
    for the bases that carry one."""
    tails = [(i,) for i in range(dim_v)] if base.endswith("V") else [()]
    return [w + t for w in combinations(range(dim_w), W_WEIGHT[base]) for t in tails]


def _ext_action(w, a, b):
    """E_ab (w*_a -> -w*_b) on the Lambda W* monomial ``w``, an ascending
    tuple of W*-indices, as (monomial, coeff), or None if it vanishes: b
    takes the place of a and moves to its sorted position, and each index it
    passes, strictly between a and b, costs a sign."""
    if a not in w or b in w:
        return None
    i = w.index(a)
    rest = w[:i] + w[i + 1:]
    j = bisect_left(rest, b)
    return rest[:j] + (b,) + rest[j:], -1 if (i - j) % 2 == 0 else 1


def domain_basis(problem: EquivHomProblem):
    """Domain monomials of 0/1 weight, the unknowns, as (monomial, weight); more than
    DEFAULT_CAP of them, more than MAX_SLOTS slots, or a base-element table over
    DEFAULT_CAP (checked before it is built) raise ResourceCapError.

    Slots are filled one at a time, and the W*-indices in use are kept as
    one int bitmask; a slot whose mask meets it would raise a weight entry
    to 2 and is not placed: weights only grow as slots are added.  In a
    sorted factor the first W*-indices of the slots then strictly increase,
    so a slot with first W*-index i is placed only if the n - i first
    indices from i on leave room for the factor's remaining slots; the
    elements are in ascending order of first index, so the first slot that
    leaves no room ends the loop.
    """
    n = problem.dim_w
    slots = sum(f.degree for f in problem.domain)
    if slots > MAX_SLOTS:
        raise ResourceCapError(f"a domain of {slots} slots is over the cap {MAX_SLOTS}")
    tables = []
    for f in problem.domain:
        elems = []
        if f.degree:
            check_size(capped_comb(n, f.w_weight) * (problem.dim_v if f.base.endswith("V") else 1),
                       f"a {f.base} basis at dim W {n} and dim V {problem.dim_v}")
            elems = base_elements(f.base, n, problem.dim_v)
        # where the next slot of the factor starts: sorted with repeats,
        # strictly increasing, or anywhere
        step = {"sym": 0, "ext": 1, "ten": None}[f.op]
        masks = [sum(1 << i for i in e[:f.w_weight]) for e in elems]
        tables.append((f.degree, step, elems, masks, [e[0] for e in elems]))
    weights = {}
    found = []

    def fill(fi, parts, slots, start, used):
        if fi == len(tables):
            w = weights.get(used)
            if w is None:
                w = weights[used] = tuple((used >> i) & 1 for i in range(n))
            found.append((parts, w))
            if len(found) > DEFAULT_CAP:
                raise ResourceCapError(
                    f"problem needs at least {len(found)} unknowns, over the cap {DEFAULT_CAP}")
            return
        degree, step, elems, masks, firsts = tables[fi]
        if len(slots) == degree:
            fill(fi + 1, parts + (tuple(slots),), [], 0, used)
            return
        short = degree - len(slots) - n
        for k in range(start, len(elems)):
            if step is not None and short + firsts[k] > 0:
                break
            if masks[k] & used:
                continue
            slots.append(elems[k])
            fill(fi, parts, slots, 0 if step is None else k + step, used | masks[k])
            slots.pop()

    fill(0, (), [], 0, 0)
    return found


def domain_weight(problem: EquivHomProblem, elem):
    w = [0] * problem.dim_w
    for f, part in zip(problem.domain, elem):
        for slot in part:
            for i in slot[:f.w_weight]:
                w[i] += 1
    return tuple(w)


def domain_action(problem: EquivHomProblem, a, b, elem):
    """E_ab as a derivation across the factors and slots of a domain
    monomial; list of (monomial, coeff)."""
    out = {}
    for t, (f, part) in enumerate(zip(problem.domain, elem)):
        k = f.w_weight
        for s, slot in enumerate(part):
            # a V index can equal a too: the membership test only saves the slicing
            img = _ext_action(slot[:k], a, b) if a in slot else None
            if img is None:
                continue
            slots = list(part)
            slots[s] = img[0] + slot[k:]
            canon = canonical(f.op, slots)
            if canon is None:
                continue
            key = elem[:t] + (canon[0],) + elem[t + 1:]
            v = out.get(key, 0) + canon[1] * img[1]
            if v:
                out[key] = v
            else:
                out.pop(key, None)
    return list(out.items())


# -- the solver --------------------------------------------------------


DEFAULT_CAP = 20000
MAX_SLOTS = 500  # domain_basis's fill recurses once per slot; Python's default limit is 1000


def capped_comb(a, b):
    """C(a, b), or DEFAULT_CAP + 1 once a partial product C(a, i) passes the
    cap, so that a size check takes a few steps even for huge a and b."""
    if not 0 <= b <= a:
        return 0
    out = 1
    for i in range(min(b, a - b)):
        out = out * (a - i) // (i + 1)
        if out > DEFAULT_CAP:
            return DEFAULT_CAP + 1
    return out


def check_size(size, what):
    """Refuse a problem from its closed-form size, before anything is enumerated."""
    if size > DEFAULT_CAP:
        raise ResourceCapError(f"{what} is over the cap {DEFAULT_CAP}")


def lowering_columns(problem: EquivHomProblem, matched):
    """The integer column of each unknown v in ``matched``, and the (a, u)
    key of each row index.

    The column of v holds E_{a+1,a} v at (a, u), u its one image monomial:
    W*-index a + 1 sits in one slot of v, and a takes its place there.  A
    Lambda^2 slot (a, a + 1) vanishes; otherwise, as a and a + 1 are
    adjacent, the slot stays sorted with coefficient -1, and only its factor
    is re-sorted, with that factor's sign.  Where w(v) reads
    1, 0 at a, a + 1 instead, E_{a,a+1} maps v's codomain monomial to -1
    times another (a and a + 1 are adjacent), and the column holds 1 at
    (a, v).
    """
    n = problem.dim_w
    k = [f.w_weight for f in problem.domain]
    ops = [f.op for f in problem.domain]
    index = {}
    columns = []
    for v, w in matched:
        # the factor and slot of each W*-index of v
        factor, place = [0] * n, [0] * n
        for t, part in enumerate(v):
            for s, slot in enumerate(part):
                for i in slot[:k[t]]:
                    factor[i] = t
                    place[i] = s
        column = {}
        for a in range(n - 1):
            if w[a + 1]:
                t, s = factor[a + 1], place[a + 1]
                part = v[t]
                slot = part[s]
                if slot[0] == a:
                    continue  # a Lambda^2 slot (a, a + 1) vanishes
                slots = list(part)
                slots[s] = ((a,) + slot[1:] if slot[0] == a + 1
                            else (slot[0], a) + slot[2:])
                canon = canonical(ops[t], slots)
                if canon is not None:
                    u = v[:t] + (canon[0],) + v[t + 1:]
                    column[index.setdefault((a, u), len(index))] = -canon[1]
            elif w[a]:
                column[index.setdefault((a, v), len(index))] = 1
        columns.append(column)
    return columns, index


def equivariant_hom_dim(problem: EquivHomProblem) -> int:
    """Exact dimension of the GL(W)-equivariant maps D -> Lambda^r W*."""
    if problem.total_w_weight() != problem.codomain_degree:
        return 0
    # a 0/1 weight has one codomain monomial, so a matched v is one unknown
    matched = domain_basis(problem)
    columns, _ = lowering_columns(problem, matched)
    return len(matched) - linalg.rank(columns)


BidegreeReport = namedtuple("BidegreeReport", "p q dim_v dim_w expected computed match")


def bidegree_problem(p, q, dim_v) -> EquivHomProblem:
    """A^{p,q}(W) with the proof's choice dim W = p + 2q."""
    dim_w = p + 2 * q
    domain = (Factor("sym", p, "WV"), Factor("sym", q, "L2WV"))
    return EquivHomProblem(dim_w=dim_w, dim_v=dim_v, domain=domain,
                           codomain_degree=p + 2 * q)


def verify_bidegree(p, q, dim_v) -> BidegreeReport:
    """Compare dim A^{p,q}(W) with dim Lambda^p V* (x) Sym^q V*."""
    if p < 0 or q < 0:
        raise ValueError("bidegrees must be nonnegative")
    if dim_v < 0:
        raise ValueError("dimV must be nonnegative")
    problem = bidegree_problem(p, q, dim_v)
    computed = equivariant_hom_dim(problem)
    # dim Sym^0 V* is 1 also at dim V = 0, where comb(dim_v - 1, 0) is undefined
    expected = comb(dim_v, p) * (comb(dim_v + q - 1, q) if q else 1)
    return BidegreeReport(p, q, dim_v, problem.dim_w, expected, computed,
                          expected == computed)


def antisymmetrization_problem(N, q, dim_w) -> EquivHomProblem:
    """Hom_GL(W)(Tensor^N W*, Lambda^q W*); nonzero only for N = q, where the
    antisymmetrization map spans it."""
    return EquivHomProblem(dim_w=dim_w, dim_v=0,
                           domain=(Factor("ten", N, "W"),), codomain_degree=q)
