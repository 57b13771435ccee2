"""Exact sparse linear algebra over the rationals.

Rows are sparse dicts ``{column: value}`` with int or Fraction values.
Elimination is fraction-free: each row is scaled to integer entries, row
combinations use integer cross-multiplication, and the content gcd is
divided out after every update, so no rational normalization happens in the
inner loop.  Reduced echelon forms (and hence kernel bases) are canonical,
which is what makes every dimension report in this package reproducible.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

Row = dict[int, Fraction]


def _primitive(ints) -> dict[int, int]:
    """Divide out the content gcd."""
    g = gcd(*ints.values())
    return {c: n // g for c, n in ints.items()} if g > 1 else ints


def _int_row(row) -> dict[int, int]:
    """Clear denominators and divide out the content.

    An all-``int`` row is read by one ``gcd`` (a Fraction entry makes it
    raise TypeError) and is returned as it is, not copied, unless it holds a
    zero or its content is above 1.  No caller mutates it afterwards.
    """
    try:
        g = gcd(*row.values())
    except TypeError:
        scale = lcm(*(v.denominator for v in row.values()))
        return _primitive({c: v.numerator * (scale // v.denominator)
                           for c, v in row.items() if v})
    if g == 1 and all(row.values()):
        return row
    return {c: v // g for c, v in row.items() if v}


def _reduce(pivots, row) -> bool:
    """Reduce an integer row against the pivot row of its leading column until that
    column has none, and store it there as a new pivot row; False if it reduces to 0."""
    col = min(row)
    while col in pivots:
        piv = pivots[col]
        pv, rv = piv[col], row[col]
        row = {c: n for c in row.keys() | piv.keys()
               if (n := pv * row.get(c, 0) - rv * piv.get(c, 0))}
        if not row:
            return False
        row = _primitive(row)
        col = min(row)
    pivots[col] = row
    return True


def _forward_eliminate(rows):
    """Integer forward elimination; returns [(pivot_col, int_row)] sorted by pivot.

    Rows are taken sparsest first (a stable sort, so ties keep their order),
    and each is reduced into the pivot rows by ``_reduce``.
    """
    pivots: dict[int, dict[int, int]] = {}
    for row in sorted(filter(None, map(_int_row, rows)), key=len):
        _reduce(pivots, row)
    return sorted(pivots.items())


def extend(pivots, vec) -> bool:
    """Add ``vec`` to the span held by ``pivots``, the pivot rows of the vectors
    added so far keyed by leading column ({} for the zero span); True if ``vec``
    was outside that span.  One call reduces one row, O(r m) work against r
    pivot rows of length m, so a span is grown without eliminating it again."""
    row = _int_row(vec)
    return bool(row) and _reduce(pivots, row)


def rank(rows) -> int:
    return len(_forward_eliminate(rows))


def rref(rows):
    """Reduced row echelon form.

    Returns ``(pivot_cols, reduced_rows)`` where ``reduced_rows[i]`` has a
    unit pivot at ``pivot_cols[i]`` and zeros in every other pivot column.
    Back-substitution runs from the last pivot upward.  A reduced row has no
    entry in any other pivot column, so subtracting it clears one column and
    touches only free ones: each row is reduced once per pivot column it holds.
    """
    pivots = _forward_eliminate(rows)
    reduced: dict[int, Row] = {}
    for col, irow in reversed(pivots):
        row = {c: Fraction(v, irow[col]) for c, v in irow.items()}
        for later in [c for c in row if c in reduced]:
            f = row.pop(later)
            for c, v in reduced[later].items():
                if c != later:
                    n = row.get(c, 0) - f * v
                    if n:
                        row[c] = n
                    else:
                        del row[c]
        reduced[col] = row
    piv_cols = [c for c, _ in pivots]
    return piv_cols, [reduced[c] for c in piv_cols]


def _read_back(rows, key):
    """The RREF of ``rows`` read backwards, each row a dict over ``key(column)`` in
    insertion order: the leading key first, then the others by descending column."""
    piv_cols, reduced = rref(rows)
    return [{key(c): row[c] for c in (p, *sorted(row.keys() - {p}, reverse=True))}
            for p, row in zip(reversed(piv_cols), reversed(reduced))]


def echelon(vectors, keys):
    """Canonical basis of the span of ``vectors``, dicts over the ordered list ``keys``
    (every key they use): the RREF over the keys in reversed order, read backwards,
    terms in insertion order, the leading key first, then the others in key order."""
    end = len(keys) - 1
    col = {key: end - j for j, key in enumerate(keys)}
    return _read_back([{col[key]: c for key, c in vec.items()} for vec in vectors],
                      lambda c: keys[end - c])


def relations(vectors):
    """Canonical basis of the relations {x : sum_j x_j * vectors[j] = 0}.

    The same vectors, term for term and in insertion order (the free index
    first, then the others ascending), as the standard RREF kernel basis of
    the matrix whose j-th column is ``vectors[j]``.  Vector j is tagged with
    1 in column ``top + n - 1 - j``, past every real column, and the tagged
    vectors are eliminated once.  The pivot rows that lead with a tag hold
    tags only and span the relations; their RREF in the tag columns, which
    run over the indices in reversed order, read backwards, is that canonical
    basis (the ``echelon`` of the rows over the indices they hold).
    """
    top = max((c for vec in vectors for c in vec), default=-1) + 1
    end = top + len(vectors) - 1
    tagged = [{**vec, end - j: 1} for j, vec in enumerate(vectors)]
    return _read_back([row for col, row in _forward_eliminate(tagged) if col >= top],
                      lambda c: end - c)


def nullspace(rows, ncols):
    """The standard RREF kernel basis, one vector per free column (ascending):
    the ``relations`` of the ``ncols`` columns of ``rows``."""
    columns = [{} for _ in range(ncols)]
    for r, row in enumerate(rows):
        for c, v in row.items():
            if v:
                columns[c][r] = v
    return relations(columns)


def transpose(vectors):
    """The rows, by ascending index, of the matrix whose j-th column is ``vectors[j]``."""
    rows: dict[int, Row] = {}
    for j, vec in enumerate(vectors):
        for r, v in vec.items():
            rows.setdefault(r, {})[j] = v
    return [rows[r] for r in sorted(rows)]


def solve(columns, targets):
    """Solve ``sum_j x_j * columns[j] = t`` exactly for every ``t`` in ``targets``.

    ``columns`` and targets are sparse dicts ``{row_index: Fraction}``; the
    columns may be linearly dependent.  ``[columns | targets]`` is eliminated
    once.  Returns one coefficient list per target, with 0 on every free
    column, or None if some target is not in the span of the columns.
    """
    ncols = len(columns)
    piv_cols, reduced = rref(transpose([*columns, *targets]))
    if piv_cols and piv_cols[-1] >= ncols:
        return None  # a pivot in a target column: inconsistent
    sols = [[Fraction(0)] * ncols for _ in targets]
    for col, row in zip(piv_cols, reduced):
        for t, sol in enumerate(sols):
            sol[col] = row.get(ncols + t, Fraction(0))
    return sols
