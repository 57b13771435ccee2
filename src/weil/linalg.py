"""Exact sparse linear algebra over the rationals.

Rows are sparse dicts ``{column: Fraction}``.  Elimination is fraction-free:
each row is scaled to integer entries, row combinations use integer
cross-multiplication, and the content gcd is divided out after every update,
so no rational normalization happens in the inner loop.  Reduced echelon
forms (and hence kernel bases) are canonical, which is what makes every
dimension report in this package reproducible.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

Row = dict[int, Fraction]


def _int_row(row) -> dict[int, int]:
    """Clear denominators and divide out the content."""
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


def _forward_eliminate(rows):
    """Integer forward elimination; returns [(pivot_col, int_row)] sorted by pivot."""
    work = [r for r in (_int_row(r) for r in rows) if r]
    pivots = []
    while work:
        col = min(min(r) for r in work)
        candidates = [r for r in work if col in r]
        # sparsest candidate keeps fill-in down; ties broken by list order
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


def rank(rows) -> int:
    return len(_forward_eliminate(rows))


def rref(rows):
    """Reduced row echelon form.

    Returns ``(pivot_cols, reduced_rows)`` where ``reduced_rows[i]`` has a
    unit pivot at ``pivot_cols[i]`` and zeros in every other pivot column.
    """
    pivots = _forward_eliminate(rows)
    piv_cols = [c for c, _ in pivots]
    reduced: list[Row] = []
    # back-substitute from the last pivot upward
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


def nullspace(rows, ncols):
    """Canonical kernel basis.

    One vector per free column (ascending), with entry 1 at the free column
    and the back-substituted pivot entries, i.e. the standard RREF kernel
    basis.
    """
    piv_cols, reduced = rref(rows)
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


def solve(columns, targets):
    """Solve ``sum_j x_j * columns[j] = t`` exactly for every ``t`` in ``targets``.

    ``columns`` and targets are sparse dicts ``{row_index: Fraction}``; the
    columns may be linearly dependent.  ``[columns | targets]`` is eliminated
    once.  Returns one coefficient list per target, with 0 on every free
    column, or None if some target is not in the span of the columns.
    """
    ncols = len(columns)
    aug: dict[int, Row] = {}
    for j, vec in enumerate([*columns, *targets]):
        for r, v in vec.items():
            if v:
                aug.setdefault(r, {})[j] = Fraction(v)
    piv_cols, reduced = rref([aug[r] for r in sorted(aug)])
    if piv_cols and piv_cols[-1] >= ncols:
        return None  # a pivot in a target column: inconsistent
    sols = [[Fraction(0)] * ncols for _ in targets]
    for col, row in zip(piv_cols, reduced):
        for t, sol in enumerate(sols):
            sol[col] = row.get(ncols + t, Fraction(0))
    return sols
