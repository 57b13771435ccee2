"""An independent oracle for ``parse_poly_exprs``.

Expression trees over ``+ - * /``, unary minus, ``^``/``**`` with an integer
exponent and division by a nonzero integer are rendered with the fewest
parentheses the grammar's precedence allows; the parsed polynomial must equal
the one computed from the tree with plain dictionary arithmetic.  Trees are
kept small enough that no product reaches the parser's size cap.
"""

from fractions import Fraction

from hypothesis import assume, example, given, settings, strategies as st

from weil.chart_forms import ChartForm
from weil.cli import parse_poly_exprs

DIM = 3
NAMES = (("x", "x1"), ("y", "x2"), ("z", "x3"))

# the grammar's levels: expr (+ -) < term (* /) < unary (-) < power (^) < atom
EXPR, TERM, UNARY, POWER, ATOM = range(5)

leaves = (st.tuples(st.just("int"), st.integers(0, 12))
          | st.tuples(st.just("var"), st.integers(0, DIM - 1), st.integers(0, 1)))
trees = st.recursive(leaves, lambda inner: st.one_of(
    st.tuples(st.just("neg"), inner),
    st.tuples(st.sampled_from(["+", "-", "*"]), inner, inner),
    st.tuples(st.just("/"), inner, st.integers(-6, 6).filter(bool)),
    st.tuples(st.sampled_from(["^", "**"]), inner, st.integers(0, 3)),
), max_leaves=8)


def render(tree):
    """(text, level): the tree with the fewest parentheses, and the grammar level
    its text parses at."""
    kind = tree[0]
    if kind == "int":
        return str(tree[1]), ATOM
    if kind == "var":
        return NAMES[tree[1]][tree[2]], ATOM
    if kind == "neg":
        return "-" + at_least(tree[1], UNARY), UNARY
    if kind in ("^", "**"):
        return f"{at_least(tree[1], ATOM)}{kind}{tree[2]}", POWER
    if kind == "/":
        return f"{at_least(tree[1], TERM)}/{tree[2]}", TERM  # a negative divisor is a unary
    # left-associative: the right operand needs the next level up
    level = EXPR if kind in "+-" else TERM
    return f"{at_least(tree[1], level)} {kind} {at_least(tree[2], level + 1)}", level


def at_least(tree, level):
    text, own = render(tree)
    return text if own >= level else f"({text})"


def poly_add(p, q, sign=1):
    out = dict(p)
    for e, c in q.items():
        out[e] = out.get(e, 0) + sign * c
    return {e: c for e, c in out.items() if c}


def poly_mul(p, q):
    out = {}
    for e, c in p.items():
        for f, b in q.items():
            key = tuple(i + j for i, j in zip(e, f))
            out[key] = out.get(key, 0) + c * b
    return {e: c for e, c in out.items() if c}


def value(tree):
    """The tree's polynomial as {exponent tuple: Fraction}."""
    kind = tree[0]
    if kind == "int":
        return {(0,) * DIM: Fraction(tree[1])} if tree[1] else {}
    if kind == "var":
        return {tuple(int(i == tree[1]) for i in range(DIM)): Fraction(1)}
    if kind == "neg":
        return {e: -c for e, c in value(tree[1]).items()}
    if kind in ("^", "**"):
        out = {(0,) * DIM: Fraction(1)}
        for _ in range(tree[2]):
            out = poly_mul(out, value(tree[1]))
        return out
    if kind == "/":
        return {e: c / tree[2] for e, c in value(tree[1]).items()}
    p, q = value(tree[1]), value(tree[2])
    return poly_mul(p, q) if kind == "*" else poly_add(p, q, 1 if kind == "+" else -1)


def size(tree):
    """A bound on the tree's degree and on its count of integer factors; at most 40
    keeps every product far below the parser's size cap."""
    kind = tree[0]
    if kind in ("int", "var"):
        return 1
    if kind in ("neg", "/"):
        return size(tree[1])
    if kind in ("^", "**"):
        return max(tree[2], 1) * size(tree[1])
    return size(tree[1]) + size(tree[2])


X = ("var", 0, 0)


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(trees)
@example(("/", ("^", X, 4), 2))  # x^4/2: '^' binds tighter than '/'
@example(("/", ("/", X, 3), 2))  # x/3/2 = x/6: divisions read from the left
@example(("*", ("/", ("int", 3), 2), X))  # 3/2 * x
def test_parser_agrees_with_the_tree(tree):
    assume(size(tree) <= 40)
    text, _ = render(tree)
    assert parse_poly_exprs(text, DIM) == [ChartForm.from_poly(DIM, value(tree))], text
