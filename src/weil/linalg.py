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


def in_span(columns, target) -> bool:
    """Whether ``target`` is a combination of ``columns`` (sparse dicts
    ``{row_index: value}``, possibly linearly dependent)."""
    # a matrix and its transpose have the same rank, so columns go in as rows
    return rank(list(columns) + [target]) == rank(columns)


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


def solve(columns, target):
    """Solve ``sum_j x_j * columns[j] = target`` exactly.

    ``columns`` and ``target`` are sparse dicts ``{row_index: Fraction}``.
    Returns the coefficient list, or None if the system is inconsistent.
    Requires the columns to be linearly independent.
    """
    ncols = len(columns)
    rows_idx = set(target)
    for col in columns:
        rows_idx |= set(col)
    aug = []
    for r in sorted(rows_idx):
        row = {}
        for j, col in enumerate(columns):
            v = col.get(r)
            if v:
                row[j] = Fraction(v)
        t = target.get(r)
        if t:
            row[ncols] = Fraction(t)
        if row:
            aug.append(row)
    piv_cols, reduced = rref(aug)
    if ncols in piv_cols:
        return None  # inconsistent
    if len(piv_cols) < ncols:
        raise ValueError("columns are linearly dependent")
    sol = [Fraction(0)] * ncols
    for col, row in zip(piv_cols, reduced):
        sol[col] = row.get(ncols, Fraction(0))
    return sol
