"""Fuzz the CLI's inputs: a gauge, connection, action or probes file of any
shape, or a polynomial expression, either works (exit 0) or is refused with
exit 1 and a lone {"error"} object; nothing escapes as an exception.

Shapes are arbitrary, sizes are not: integers stay in -2..4 and strings are
short, so no input asks for a large chart or algebra.  Half of the inputs are
a valid file with one nested value replaced or deleted, which reaches the
checks behind the top-level ones.  An expression is at most 8 pieces of the
grammar's alphabet, at --degree and --dim of at most 3.
"""

import contextlib
import io
import json

import pytest
from hypothesis import example, given, settings, strategies as st

from weil.cli import main

FIELDS = ("algebra", "chart_dim", "components", "dim", "terms", "dx", "mono", "c",
          "kind", "quaternion", "matrix", "entries", "row", "col", "poly",
          "brackets", "i", "j", "k", "name")

scalars = (st.none() | st.booleans() | st.integers(-2, 4) | st.floats(-4, 4)
           | st.text("0123456789/-", max_size=4)
           | st.sampled_from(["su2", "heisenberg3", "abelian(1)", "constant", "unipotent"]))
values = st.recursive(
    scalars,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.sampled_from(FIELDS),
                                                                inner, max_size=5),
    max_leaves=12)

HEISENBERG = {
    "algebra": "heisenberg3", "chart_dim": 2,
    "components": [{"dim": 2, "terms": [{"dx": [1], "mono": [0, 1], "c": "1"}]},
                   {"dim": 2, "terms": [{"dx": [2], "c": "2"}]},
                   {"dim": 2, "terms": []}],
}
JSON_ALGEBRA = {**HEISENBERG, "algebra": {"dim": 3, "brackets": [{"i": 1, "j": 2, "k": 3, "c": "1"}]}}
SU2 = {**HEISENBERG, "algebra": "su2"}
UNIPOTENT = {"kind": "unipotent", "entries": [
    {"row": 1, "col": 2, "poly": [{"mono": [1, 0], "c": "1"}]},
    {"row": 2, "col": 3, "poly": [{"mono": [0, 2], "c": "-1/2"}]}]}
QUATERNION = {"kind": "constant", "quaternion": ["1", "2", "0", "-1"]}
MATRIX = {"kind": "constant", "matrix": [["1", "2", "0"], ["0", "1", "3"], ["0", "0", "1"]]}
ROTATION = [[["0", "-1"], ["1", "0"]]]
PROBES = [["1", "-1"], ["2", "1/2"], ["-3", "2"]]


@st.composite
def mutated(draw, template):
    """``template`` with one nested value replaced by an arbitrary one, or deleted."""
    obj = json.loads(json.dumps(template))
    parent, key, node = None, None, obj
    while isinstance(node, (dict, list)) and node and (parent is None or draw(st.booleans())):
        key = draw(st.sampled_from(sorted(node) if isinstance(node, dict) else range(len(node))))
        parent, node = node, node[key]
    if parent is None:
        return draw(values)
    if draw(st.booleans()):
        parent[key] = draw(values)
    else:
        del parent[key]
    return obj


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


def run(workdir, argv, files):
    for name, obj in files.items():
        (workdir / name).write_text(json.dumps(obj))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main([str(workdir / a) if a in files else a for a in argv])
    assert code == 0 or (code == 1 and list(json.loads(out.getvalue())) == ["error"]), \
        out.getvalue()


FUZZ = settings(derandomize=True, database=None, max_examples=50, deadline=None)


@FUZZ
@given(connection=values | mutated(HEISENBERG) | mutated(JSON_ALGEBRA) | mutated(SU2))
def test_fuzz_connection(workdir, connection):
    run(workdir, ["cw", "--connection", "conn.json"], {"conn.json": connection})


@FUZZ
@given(connection=st.sampled_from([HEISENBERG, SU2]),
       gauge=values | mutated(UNIPOTENT) | mutated(QUATERNION) | mutated(MATRIX))
def test_fuzz_gauge(workdir, connection, gauge):
    run(workdir, ["gauge", "--connection", "conn.json", "--gauge", "gauge.json"],
        {"conn.json": connection, "gauge.json": gauge})


@FUZZ
@given(action=values | mutated(ROTATION))
def test_fuzz_action(workdir, action):
    run(workdir, ["equivariant", "--algebra", "abelian1", "--action-json", "action.json",
                  "--degree", "1", "--poly-cap", "1"], {"action.json": action})


@FUZZ
@given(probes=values | mutated(PROBES))
def test_fuzz_probes(workdir, probes):
    run(workdir, ["polyfunc", "decompose", "--expr", "x*y + x", "--dim", "2", "--degree", "2",
                  "--probes", "probes.json"], {"probes.json": probes})


EXPR_PIECES = (*"0123456789/^+-*() xy", "**", "x1")


@FUZZ
@example(mode="check", expr="1/0", degree=1, dim=1)
@given(mode=st.sampled_from(["check", "decompose"]),
       expr=st.lists(st.sampled_from(EXPR_PIECES), max_size=8).map("".join),
       degree=st.integers(0, 3), dim=st.integers(0, 3))
def test_fuzz_expr(workdir, mode, expr, degree, dim):
    run(workdir, ["polyfunc", mode, "--expr=" + expr, "--degree", str(degree), "--dim", str(dim)],
        {})
