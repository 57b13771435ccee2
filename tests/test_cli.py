import argparse
import json
import sys
import time
from fractions import Fraction

import pytest

from weil import chart_forms, jsonio
from weil.chart_forms import ChartForm
from weil.chern_weil import LieValuedForm
from weil.cli import main, parse_poly_exprs
from weil.liealg import builtin
from weil.weil_algebra import WeilElement


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_cohomology_report(capsys):
    code, out = run_cli(capsys, "cohomology", "--dim", "1", "--max-degree", "6")
    assert code == 0
    report = json.loads(out)
    assert report["results"]["cohomology"] == [1, 0, 0, 0, 0, 0, 0]
    assert report["version"]
    assert report["command"][0] == "cohomology"


def test_basic_report_and_roundtrip(capsys):
    code, out = run_cli(capsys, "basic", "--algebra", "su2", "--degree", "4")
    assert code == 0
    results = json.loads(out)["results"]
    assert results["dim"] == 1
    elem = jsonio.weil_element_from_json(3, results["basis"][0])
    assert elem  # nonzero
    assert jsonio.weil_element_to_json(elem) == results["basis"][0]


def test_invariants_label(capsys):
    code, out = run_cli(capsys, "invariants", "--algebra", "su2", "--max-degree", "4")
    results = json.loads(out)["results"]
    assert code == 0
    assert results["space"] == "(Sym g*)^g"
    assert results["dims"] == [1, 0, 1, 0, 1]


def test_oracle_report(capsys):
    code, out = run_cli(capsys, "oracle", "--p", "1", "--q", "1", "--dimV", "2")
    results = json.loads(out)["results"]
    assert code == 0
    assert results == {"p": 1, "q": 1, "dimV": 2, "dimW": 3,
                       "expected": 4, "computed": 4, "match": True}


@pytest.mark.parametrize("p,expected", [(0, 1), (1, 0)])
def test_oracle_at_dim_v_zero(capsys, p, expected):
    code, out = run_cli(capsys, "oracle", "--p", str(p), "--q", "0", "--dimV", "0")
    results = json.loads(out)["results"]
    assert code == 0
    assert results["expected"] == results["computed"] == expected and results["match"]


@pytest.mark.parametrize("argv,kind", [
    (["--p", "0", "--q", "0", "--dimV", "-1"], "ValueError"),
    # 945 perfect matchings of 10 indices x 3^5 V-labels = 229,635 unknowns
    (["--p", "0", "--q", "5", "--dimV", "3"], "ResourceCapError"),
], ids=["negative-dimV", "over-cap"])
def test_oracle_refusal_is_a_domain_error(capsys, argv, kind):
    code = main(["oracle", *argv])
    captured = capsys.readouterr()
    assert code == 1
    error = json.loads(captured.out)
    assert list(error) == ["error"] and error["error"]["type"] == kind
    assert "Traceback" not in captured.err


def test_equivariant_cli(capsys):
    code, out = run_cli(capsys, "equivariant", "--algebra", "abelian1",
                        "--action", "rot2", "--degree", "0", "--poly-cap", "2")
    assert code == 0
    assert json.loads(out)["results"]["basic_dim"] == 2


def test_polyfunc_decompose(capsys):
    code, out = run_cli(capsys, "polyfunc", "decompose", "--expr", "x + x*y",
                        "--degree", "2", "--dim", "2")
    assert code == 0
    results = json.loads(out)["results"]
    probes = [[Fraction(x) for x in p] for p in results["probes"]]
    comp1 = [Fraction(v[0]) for v in results["components"][1]]
    assert comp1 == [p[0] for p in probes]


def test_polyfunc_check_witness(capsys):
    code, out = run_cli(capsys, "polyfunc", "check", "--expr", "x*x",
                        "--degree", "2", "--dim", "1")
    assert code == 0 and json.loads(out)["results"]["consistent"]


def test_cw_and_gauge_cli(tmp_path, capsys):
    conn = {
        "algebra": "su2", "chart_dim": 4,
        "components": [
            {"dim": 4, "terms": [{"dx": [2], "mono": [1, 0, 0, 0], "c": "1"},
                                 {"dx": [4], "mono": [0, 0, 1, 0], "c": "1"}]},
            {"dim": 4, "terms": [{"dx": [3], "mono": [0, 1, 0, 0], "c": "1"}]},
            {"dim": 4, "terms": []},
        ],
    }
    cpath = tmp_path / "conn.json"
    cpath.write_text(json.dumps(conn))
    code, out = run_cli(capsys, "cw", "--connection", str(cpath), "--invariant", "casimir")
    assert code == 0
    form = jsonio.chart_form_from_json(json.loads(out)["results"]["chern_weil_form"])
    assert form == ChartForm.monomial(4, (0, 1, 2, 3), (0, 0, 0, 0), 2)

    gpath = tmp_path / "gauge.json"
    gpath.write_text(json.dumps({"kind": "constant", "quaternion": ["1", "2", "0", "-1"]}))
    code, out = run_cli(capsys, "gauge", "--connection", str(cpath), "--gauge", str(gpath))
    assert code == 0
    moved = jsonio.connection_from_json(json.loads(out)["results"]["connection"])
    assert moved.algebra == builtin("su2")
    # gauge invariance visible through the CLI output
    code, out2 = run_cli(capsys, "cw", "--connection", str(cpath), "--invariant", "casimir")
    mpath = tmp_path / "moved.json"
    mpath.write_text(json.dumps(json.loads(out)["results"]["connection"]))
    code, out3 = run_cli(capsys, "cw", "--connection", str(mpath), "--invariant", "casimir")
    assert json.loads(out2)["results"]["chern_weil_form"] == \
        json.loads(out3)["results"]["chern_weil_form"]


def test_domain_error_exit_code(capsys):
    code, out = run_cli(capsys, "basic", "--algebra", "nosuch", "--degree", "2")
    assert code == 1
    assert json.loads(out)["error"]["type"] == "ValueError"


@pytest.mark.parametrize("component,message", [
    ({"dim": 2, "terms": [{"dx": [1], "mono": None, "c": "1"}]},
     "mono must be a list of integers"),
    ({"dim": 2, "terms": [{"dx": [1], "mono": [0, -1], "c": "1"}]},
     "mono must hold 2 nonnegative exponents"),
    ({"dim": 2, "terms": [{"dx": [5], "mono": [0, 0], "c": "1"}]}, "dx index out of range 1..2"),
    ({"dim": 2, "terms": [{"dx": [1], "mono": [0, 0], "c": True}]},
     "a term c must be a rational p or p/q, got bool"),
    ({"dim": "2", "terms": [{"dx": [1], "c": "1"}]},
     "a chart form dim must be a nonnegative integer"),
    ({"dim": 2, "terms": [{"dx": [1], "c": "1/0"}]}, "a term c has a zero denominator"),
    ({"dim": 2, "terms": 5}, "a term list must be a JSON array of objects"),
    ({"dim": 3, "terms": []}, "component chart dimension disagrees with chart_dim"),
    ({"dim": 2, "terms": [{"dx": [1, 2], "c": "1"}]}, "a connection must be a g-valued 1-form"),
    ({"dim": 2, "terms": [{"dx": [1], "c": "1"}, {"c": "1"}]},
     "a connection must be a g-valued 1-form"),
    ({"dim": 2, "terms": [{"mono": [1, 0], "c": "1"}]}, "a connection must be a g-valued 1-form"),
], ids=["mono-null", "negative-exponent", "dx-out-of-range", "bool-coefficient", "string-dim",
        "zero-denominator", "terms-int", "component-dim", "two-form", "mixed-degrees",
        "zero-form"])
def test_malformed_term_is_a_domain_error(tmp_path, capsys, component, message):
    conn = {"algebra": "abelian(1)", "chart_dim": 2, "components": [component]}
    path = tmp_path / "conn.json"
    path.write_text(json.dumps(conn))
    error = assert_domain_error(capsys, ["cw", "--connection", str(path)])
    assert error == {"type": "ValueError", "message": message}


def test_usage_error_exit_code(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["basic", "--degree", "2"])
    assert exc.value.code == 2


def test_determinism_same_command(capsys):
    _, out1 = run_cli(capsys, "basic", "--algebra", "heisenberg3", "--degree", "2")
    _, out2 = run_cli(capsys, "basic", "--algebra", "heisenberg3", "--degree", "2")
    assert out1 == out2


def test_expression_parser():
    p, q = parse_poly_exprs("x^2*y - 3/2, x1 + (y - x)*2", 2)
    assert p == ChartForm.from_poly(2, {(2, 1): Fraction(1), (0, 0): Fraction(-3, 2)})
    assert q == ChartForm.from_poly(2, {(1, 0): Fraction(-1), (0, 1): Fraction(2)})
    with pytest.raises(ValueError):
        parse_poly_exprs("x + !", 1)
    with pytest.raises(ValueError):
        parse_poly_exprs("1/x", 1)
    with pytest.raises(ValueError):
        parse_poly_exprs("z", 2)


def test_json_roundtrips():
    su2 = builtin("su2")
    assert jsonio.algebra_from_json(jsonio.algebra_to_json(su2)) == su2
    elem = WeilElement(3, {(0b011, (1, 0, 2)): Fraction(-3, 7)})
    assert jsonio.weil_element_from_json(3, jsonio.weil_element_to_json(elem)) == elem
    form = ChartForm.dx(3, 1, ChartForm.x(3, 0)) + ChartForm.monomial(3, (0, 2), (0, 1, 1), Fraction(5, 2))
    assert jsonio.chart_form_from_json(jsonio.chart_form_to_json(form)) == form
    conn = LieValuedForm(su2, 2, [ChartForm.dx(2, 0), ChartForm.zero(2), ChartForm.dx(2, 1)])
    assert jsonio.connection_from_json(jsonio.connection_to_json(conn)) == conn


def assert_domain_error(capsys, argv):
    """Exit 1 with a lone {"error"} object on stdout and no traceback."""
    code = main(list(argv))
    captured = capsys.readouterr()
    assert code == 1
    assert list(json.loads(captured.out)) == ["error"]
    assert "Traceback" not in captured.err
    return json.loads(captured.out)["error"]


HEISENBERG_CONNECTION = {
    "algebra": "heisenberg3", "chart_dim": 2,
    "components": [{"dim": 2, "terms": [{"dx": [1], "mono": [0, 1], "c": "1"}]},
                   {"dim": 2, "terms": [{"dx": [2], "c": "2"}]},
                   {"dim": 2, "terms": []}],
}


def write_json(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


@pytest.mark.parametrize("row,col", [(2, 1), (1, 1), (1, 7)],
                         ids=["below-diagonal", "on-diagonal", "outside-matrix"])
def test_unipotent_entry_outside_the_triangle_is_refused(tmp_path, capsys, row, col):
    conn = write_json(tmp_path, "conn.json", HEISENBERG_CONNECTION)
    gauge = write_json(tmp_path, "gauge.json", {"kind": "unipotent", "entries": [
        {"row": row, "col": col, "poly": [{"mono": [1, 0], "c": "1"}]}]})
    error = assert_domain_error(capsys, ["gauge", "--connection", conn, "--gauge", gauge])
    assert "upper triangular" in error["message"]


@pytest.mark.parametrize("gauge,connection", [
    ([{"kind": "constant"}], HEISENBERG_CONNECTION),
    ({"kind": "unipotent", "entries": 5}, HEISENBERG_CONNECTION),
    ({"kind": "constant", "quaternion": ["1", "2"]},
     {**HEISENBERG_CONNECTION, "algebra": "su2"}),
    ({"kind": "unipotent", "entries": [{"row": "1", "col": 2, "poly": []}]},
     HEISENBERG_CONNECTION),
    ({"kind": "unipotent", "entries": []}, {**HEISENBERG_CONNECTION, "components": 3}),
    ({"kind": "constant", "quaternion": ["0", "0", "0", "0"]},
     {**HEISENBERG_CONNECTION, "algebra": "su2"}),
    ({"kind": "unipotent", "entries": []},
     {**HEISENBERG_CONNECTION, "algebra": "abelian(2)",
      "components": HEISENBERG_CONNECTION["components"][:2]}),
], ids=["gauge-list", "entries-int", "short-quaternion", "string-row", "components-int",
        "zero-quaternion", "no-representation"])
def test_malformed_gauge_input_is_a_domain_error(tmp_path, capsys, gauge, connection):
    conn = write_json(tmp_path, "conn.json", connection)
    path = write_json(tmp_path, "gauge.json", gauge)
    error = assert_domain_error(capsys, ["gauge", "--connection", conn, "--gauge", path])
    assert error["type"] == "ValueError"


def json_algebra_connection(brackets):
    algebra = {"dim": 3, "brackets": [{"i": i, "j": j, "k": k, "c": "1"} for i, j, k in brackets]}
    return {**HEISENBERG_CONNECTION, "algebra": algebra}


def test_json_algebra_must_satisfy_jacobi(tmp_path, capsys):
    # [e1,e2] = e3, [e2,e3] = e2: the Jacobiator at (e1, e2, e3) is e3
    conn = write_json(tmp_path, "bad.json", json_algebra_connection([(1, 2, 3), (2, 3, 2)]))
    error = assert_domain_error(capsys, ["cw", "--connection", conn, "--invariant", "basis:1:0"])
    assert "jacobi" in error["message"]
    # [e1,e2] = e3, [e2,e3] = e1 is a Lie algebra (e2 rotates e1, e3): accepted
    conn = write_json(tmp_path, "good.json", json_algebra_connection([(1, 2, 3), (2, 3, 1)]))
    code, out = run_cli(capsys, "cw", "--connection", conn, "--invariant", "basis:2:0")
    assert code == 0 and "chern_weil_form" in json.loads(out)["results"]


@pytest.mark.parametrize("argv,message", [
    (["invariants", "--algebra", "su2", "--max-degree", "-1"], "max_degree must be >= 0"),
    (["equivariant", "--algebra", "abelian1", "--degree", "-1", "--poly-cap", "1"],
     "degree and poly_cap must be >= 0"),
    (["equivariant", "--algebra", "abelian1", "--degree", "1", "--poly-cap", "-1"],
     "degree and poly_cap must be >= 0"),
    (["polyfunc", "inject", "--functor", "Sym2", "--copies", "3", "--base-dim", "-1"],
     "base_dim must be >= 0"),
    (["polyfunc", "check", "--expr", "x", "--dim", "1", "--degree", "-1"],
     "degree bound must be >= 0"),
    (["basic", "--algebra", "su2", "--degree", "-1"], "degree must be >= 0"),
    (["cohomology", "--dim", "0", "--max-degree", "2"], "dimension must be >= 1"),
    (["cohomology", "--dim", "2", "--max-degree", "-1"], "max_degree must be >= 0"),
    (["oracle", "--p", "-1", "--q", "0", "--dimV", "1"], "bidegrees must be nonnegative"),
    (["polyfunc", "decompose", "--expr", "x", "--dim", "1", "--degree", "-1"],
     "degree bound must be >= 0"),
], ids=["invariants-max-degree", "equivariant-degree", "equivariant-poly-cap",
        "inject-base-dim", "check-degree", "basic-degree", "cohomology-dim",
        "cohomology-max-degree", "oracle-p", "decompose-degree"])
def test_negative_size_is_a_domain_error(capsys, argv, message):
    assert assert_domain_error(capsys, argv) == {"type": "ValueError", "message": message}


@pytest.mark.parametrize("argv,message", [
    (["basic", "--algebra", "abelian0", "--degree", "2"], "abelian(n) needs n >= 1"),
    (["equivariant", "--algebra", "su2", "--action", "rot2", "--degree", "1", "--poly-cap", "1"],
     "rot2 is an action of a 1-dimensional algebra"),
    (["equivariant", "--algebra", "su2", "--action", "bogus", "--degree", "1", "--poly-cap", "1"],
     "unknown action name: 'bogus'"),
    (["equivariant", "--algebra", "su2", "--action", "trivial:x", "--degree", "1",
      "--poly-cap", "1"], "action 'trivial:x' needs a chart dimension m >= 0, as trivial:<m>"),
    (["equivariant", "--algebra", "su2", "--action", "trivial:-1", "--degree", "1",
      "--poly-cap", "1"], "action 'trivial:-1' needs a chart dimension m >= 0, as trivial:<m>"),
    (["cw", "--connection", "CONN", "--invariant", "basis:1:9"],
     "invariant basis of degree 1 has only 2 elements"),
    (["cw", "--connection", "CONN", "--invariant", "foo"],
     "unknown invariant name 'foo' (use 'casimir' or 'basis:<k>:<i>')"),
    (["polyfunc", "inject", "--functor", "Foo2", "--copies", "3", "--base-dim", "1"],
     "functor must look like Sym2, Lambda2, or Tensor1"),
    # a digit outside ASCII is no number: U+0662 is ARABIC-INDIC DIGIT TWO
    (["cw", "--connection", "CONN", "--invariant", "basis:\u0662:0"],
     "unknown invariant name 'basis:\u0662:0' (use 'casimir' or 'basis:<k>:<i>')"),
    (["polyfunc", "inject", "--functor", "Sym\u0662", "--copies", "3", "--base-dim", "1"],
     "functor must look like Sym2, Lambda2, or Tensor1"),
], ids=["abelian0", "rot2-on-su2", "unknown-action", "trivial-letter", "trivial-negative",
        "invariant-index", "unknown-invariant", "unknown-functor", "non-ascii-invariant-degree",
        "non-ascii-functor-degree"])
def test_unknown_name_is_a_domain_error(tmp_path, capsys, argv, message):
    """A named argument the package cannot read is refused in its own words."""
    conn = write_json(tmp_path, "conn.json", HEISENBERG_CONNECTION)
    error = assert_domain_error(capsys, [conn if a == "CONN" else a for a in argv])
    assert error == {"type": "ValueError", "message": message}


@pytest.mark.parametrize("expr,message", [("(x", "expected ')'"),
                                          ("x^-1", "exponents must be nonnegative integers"),
                                          ("x+\u0663", "cannot tokenize '\u0663'"),
                                          ("x\u0663", "unknown variable 'x\u0663'")],
                         ids=["open-parenthesis", "negative-exponent", "non-ascii-number",
                              "non-ascii-index"])
def test_malformed_expression_is_a_domain_error(capsys, expr, message):
    error = assert_domain_error(capsys, ["polyfunc", "check", "--expr", expr, "--dim", "1",
                                         "--degree", "1"])
    assert error == {"type": "ExprError", "message": message}


@pytest.mark.parametrize("algebra,flag,message", [
    ({"dim": 0, "brackets": []}, [], "an algebra dim must be positive"),
    ({"dim": 3, "brackets": [{"i": 1, "j": 4, "k": 3, "c": "1"}]}, [],
     "bracket entries need 1 <= i < j <= 3 and 1 <= k <= 3"),
    ("heisenberg3", ["--algebra", "su2"],
     "connection file algebra disagrees with the requested algebra"),
], ids=["dim-0", "bracket-index", "disagrees-with-flag"])
def test_connection_algebra_is_checked(tmp_path, capsys, algebra, flag, message):
    conn = write_json(tmp_path, "conn.json", {**HEISENBERG_CONNECTION, "algebra": algebra})
    error = assert_domain_error(capsys, ["cw", *flag, "--connection", conn])
    assert error == {"type": "ValueError", "message": message}


@pytest.mark.parametrize("argv", [
    ["basic", "--algebra", "abelian40", "--degree", "8"],  # C(43, 4) = 123,410 unknowns
    ["invariants", "--algebra", "abelian40", "--max-degree", "4"],
    ["cohomology", "--dim", "30", "--max-degree", "6"],  # dim Koss^7(30) = 8,347,680
    # 1,000,000 x 1,000,000 matrices before any size was checked
    ["equivariant", "--algebra", "su2", "--action", "trivial:1000000", "--degree", "2",
     "--poly-cap", "2"],
    # a one-element basis, but 3 * 100000^2 action matrix entries
    ["equivariant", "--algebra", "su2", "--action", "trivial:100000", "--degree", "0",
     "--poly-cap", "0"],
    ["equivariant", "--algebra", "su2", "--action", "adjoint", "--degree", "12",
     "--poly-cap", "8"],
    # 21^3 grid points of 3 coordinates; 61^3 of them
    ["polyfunc", "check", "--expr", "x", "--degree", "20", "--dim", "3"],
    ["polyfunc", "check", "--expr", "x", "--degree", "60", "--dim", "3"],
    ["polyfunc", "check", "--expr", "x", "--degree", "2", "--dim", "1000000"],
    # at dim 1 the second trial set has (d+1)^2 grid points, each a product of
    # weights that grow with d: 1.9 s at degree 100, 392 s at 800 before this was counted
    ["polyfunc", "check", "--expr", "x", "--degree", "21", "--dim", "1"],
    ["polyfunc", "check", "--expr", "x", "--degree", "100", "--dim", "1"],
    ["polyfunc", "check", "--expr", "x", "--degree", "140", "--dim", "1"],
    ["polyfunc", "check", "--expr", "x", "--degree", "800", "--dim", "1"],
    ["polyfunc", "check", "--expr", "x", "--degree", "19999", "--dim", "1"],
    ["polyfunc", "check", "--expr", "x", "--degree", "99", "--dim", "2"],
    ["polyfunc", "check", "--expr", "x", "--degree", "8", "--dim", "3"],
    # a 401-square Vandermonde inverse; a 141-square one, within a (d+1) max(d+1, dim)
    # size but not (d+1)^3: its exact entries grow in bit length with the degree
    ["polyfunc", "decompose", "--expr", "x", "--degree", "400", "--dim", "1"],
    ["polyfunc", "decompose", "--expr", "x", "--degree", "140", "--dim", "1"],
    ["polyfunc", "decompose", "--expr", "x", "--degree", "2", "--dim", "1000000"],
    # one key in degree 0, but generator tables of 20000 images on 20000-long keys
    ["cohomology", "--dim", "20000", "--max-degree", "0"],
    ["invariants", "--algebra", "abelian20000", "--max-degree", "0"],
    ["basic", "--algebra", "abelian20000", "--degree", "0"],
    ["equivariant", "--algebra", "abelian20000", "--action", "trivial:1", "--degree", "0",
     "--poly-cap", "0"],
], ids=["basic", "invariants", "cohomology", "equivariant-trivial", "equivariant-trivial-matrices",
        "equivariant-adjoint", "check-degree", "check-degree-60", "check-dim",
        "check-dim1-degree-21", "check-dim1-degree-100", "check-dim1-degree-140",
        "check-dim1-degree-800", "check-dim1-degree-19999", "check-dim2-degree-99",
        "check-dim3-degree-8", "decompose-degree",
        "decompose-degree-140", "decompose-dim", "cohomology-n20000", "invariants-n20000",
        "basic-n20000", "equivariant-n20000"])
def test_over_cap_is_refused_before_enumerating(capsys, monkeypatch, argv):
    def enumerated(*args, **kwargs):
        raise AssertionError("enumerated before the size was checked")

    for name, module in list(sys.modules.items()):
        if name == "weil" or name.startswith("weil."):
            for attr in ("sym_exponents", "weil_basis", "koszul_images", "builtin_action",
                         "parse_poly_exprs"):
                if hasattr(module, attr):
                    monkeypatch.setattr(module, attr, enumerated)
    error = assert_domain_error(capsys, argv)
    assert error["type"] == "ResourceCapError" and "over the cap 20000" in error["message"]


@pytest.mark.parametrize("dim,degree", [(0, 19999), (1, 20), (2, 15), (3, 7)])
def test_check_runs_up_to_its_size_rule(capsys, dim, degree):
    # the largest degrees sum_k (d+1)^k (k (d+1) + dim) admits, k = min(dim, 3) and 2 min(dim, 1)
    code, out = run_cli(capsys, "polyfunc", "check", "--expr", "x" if dim else "1",
                        "--degree", str(degree), "--dim", str(dim))
    assert code == 0 and json.loads(out)["results"]["consistent"]


def test_action_json_over_cap_is_refused_before_parsing(tmp_path, capsys, monkeypatch):
    # 142^2 = 20,164 entries for abelian1 is over the cap of 20,000; 141^2 is not
    def small(m):
        return write_json(tmp_path, f"zeros{m}.json", [[[0] * m for _ in range(m)]])

    code, out = run_cli(capsys, "equivariant", "--algebra", "abelian1", "--action-json",
                        small(141), "--degree", "0", "--poly-cap", "0")
    assert code == 0 and json.loads(out)["results"]["basic_dim"] == 1

    def parsed(*args, **kwargs):
        raise AssertionError("parsed before the size was checked")
    monkeypatch.setattr(jsonio, "rationals", parsed)
    error = assert_domain_error(capsys, ["equivariant", "--algebra", "abelian1", "--action-json",
                                         small(142), "--degree", "0", "--poly-cap", "0"])
    assert error["type"] == "ResourceCapError"
    assert error["message"] == "1 action matrices of size 142 is over the cap 20000"
    # one 1-row matrix reads as m = 1; its 200,000 entries are counted before parsing
    long_row = write_json(tmp_path, "long_row.json", [[[0] * 200_000]])
    error = assert_domain_error(capsys, ["equivariant", "--algebra", "abelian1", "--action-json",
                                         long_row, "--degree", "0", "--poly-cap", "0"])
    assert error["type"] == "ResourceCapError"
    assert error["message"] == "an action file of 200000 entries is over the cap 20000"


@pytest.mark.parametrize("expr", ["(" * 3000 + "x" + ")" * 3000, "-" * 3000 + "x"],
                         ids=["parentheses", "minus-signs"])
def test_deeply_nested_expression_is_a_domain_error(capsys, expr):
    error = assert_domain_error(capsys, ["polyfunc", "check", "--expr=" + expr,
                                         "--dim", "1", "--degree", "1"])
    assert error["type"] == "ExprError"


@pytest.mark.parametrize("expr,literal", [("1/0", "1/0"), ("x^2/0", "2/0"),
                                          ("x/(3/0)", "3/0"), ("x + 2/00", "2/00")])
@pytest.mark.parametrize("mode", ["check", "decompose"])
def test_zero_denominator_is_a_domain_error(capsys, mode, expr, literal):
    # numbers are integers, so the quotient ``literal`` in ``expr`` is a division
    # by the constant 0, also after '^' or inside a divisor
    assert literal in expr
    error = assert_domain_error(capsys, ["polyfunc", mode, "--expr", expr,
                                         "--dim", "1", "--degree", "1"])
    assert error == {"type": "ExprError",
                     "message": "division is only defined by nonzero constants"}


BAD_RATIONALS = ["1e999999999", "abc", "1.5", " 1/2 ", "1_000", "0x10", "+1"]


def rational_sites(bad):
    """{site: (argv, connection, other file, field)} per place a file holds a rational,
    with ``bad`` put there; CONN and FILE in argv stand for the two files."""
    su2 = {**HEISENBERG_CONNECTION, "algebra": "su2"}
    bad_term = {**HEISENBERG_CONNECTION, "components": [
        {"dim": 2, "terms": [{"dx": [1], "mono": [0, 1], "c": bad}]}, *HEISENBERG_CONNECTION[
            "components"][1:]]}
    bad_bracket = json_algebra_connection([])
    bad_bracket["algebra"]["brackets"] = [{"i": 1, "j": 2, "k": 3, "c": bad}]
    gauge = ["gauge", "--connection", "CONN", "--gauge", "FILE"]
    return {
        "probe": (["polyfunc", "decompose", "--expr", "x", "--degree", "1", "--dim", "2",
                   "--probes", "FILE"], HEISENBERG_CONNECTION, [["1", bad]], "a probe entry"),
        "action-row": (["equivariant", "--algebra", "abelian1", "--action-json", "FILE",
                        "--degree", "0", "--poly-cap", "0"], HEISENBERG_CONNECTION,
                       [[["0", bad], ["1", "0"]]], "an action matrix row entry"),
        "quaternion": (gauge, su2, {"kind": "constant", "quaternion": ["1", bad, "0", "0"]},
                       "quaternion entry"),
        "matrix-row": (gauge, HEISENBERG_CONNECTION, {"kind": "constant", "matrix": [
            ["1", bad, "0"], ["0", "1", "0"], ["0", "0", "1"]]}, "a matrix row entry"),
        "term-c": (["cw", "--connection", "CONN", "--invariant", "basis:1:0"], bad_term, None,
                   "a term c"),
        "bracket-c": (["cw", "--connection", "CONN", "--invariant", "basis:1:0"], bad_bracket,
                      None, "a bracket c"),
    }


@pytest.mark.parametrize("site", list(rational_sites("1")))
@pytest.mark.parametrize("bad", BAD_RATIONALS)
def test_rational_strings_are_read_by_one_strict_grammar(tmp_path, capsys, site, bad):
    # a rational in a file is an integer or a string -?[0-9]+(/[0-9]+)?; anything else
    # is refused at once in a message naming the field, "1e999999999" included
    argv, conn, other, field = rational_sites(bad)[site]
    files = {"CONN": write_json(tmp_path, "conn.json", conn),
             "FILE": write_json(tmp_path, "file.json", other)}
    start = time.perf_counter()
    error = assert_domain_error(capsys, [files.get(a, a) for a in argv])
    assert time.perf_counter() - start < 1
    assert error == {"type": "ValueError",
                     "message": f"{field} must be a rational p or p/q, got {bad!r}"}


@pytest.mark.parametrize("terms", [
    [{"mono": [1, 0], "c": "1"}],
    [{"dx": [1, 2], "c": "1"}],
    [{"dx": [1], "c": "1"}, {"dx": [1, 2], "mono": [0, 1], "c": "1"}],
], ids=["zero-form", "two-form", "mixed"])
def test_gauge_needs_a_one_form_connection(tmp_path, capsys, terms):
    conn = write_json(tmp_path, "conn.json", {**HEISENBERG_CONNECTION, "algebra": "su2",
                                              "components": [{"dim": 2, "terms": terms}] * 3})
    gauge = write_json(tmp_path, "gauge.json",
                       {"kind": "constant", "quaternion": ["1", "2", "0", "-1"]})
    error = assert_domain_error(capsys, ["gauge", "--connection", conn, "--gauge", gauge])
    assert error == {"type": "ValueError", "message": "a connection must be a g-valued 1-form"}


def test_abelian_n_in_a_file_names_abelian_of_n(tmp_path, capsys):
    assert builtin("abelian2").name == builtin("abelian(2)").name == "abelian(2)"
    conn = write_json(tmp_path, "conn.json", {
        "algebra": "abelian2", "chart_dim": 2,
        "components": [{"dim": 2, "terms": [{"dx": [2], "mono": [1, 0], "c": "1"}]},
                       {"dim": 2, "terms": []}]})
    for flag in ([], ["--algebra", "abelian(2)"]):
        code, out = run_cli(capsys, "cw", *flag, "--connection", conn, "--invariant", "basis:1:1")
        assert code == 0
        assert json.loads(out)["results"]["chern_weil_form"]["terms"] == [
            {"dx": [1, 2], "mono": [0, 0], "c": "1"}]


@pytest.mark.parametrize("algebra", ["sl2", "heisenberg3"])
def test_casimir_is_refused_where_it_is_not_invariant(tmp_path, capsys, algebra):
    # on sl2 this connection on R^5 got the form -2 x2 dx1^dx3^dx4^dx5, which is not closed
    conn = write_json(tmp_path, "conn.json", {"algebra": algebra, "chart_dim": 5, "components": [
        {"dim": 5, "terms": [{"dx": [3], "mono": [1, 0, 0, 0, 0], "c": "1"}]},
        {"dim": 5, "terms": [{"dx": [5], "c": "1"}]},
        {"dim": 5, "terms": [{"dx": [4], "mono": [0, 1, 0, 0, 0], "c": "1"}]}]})
    error = assert_domain_error(capsys, ["cw", "--connection", conn])
    assert error == {"type": "ValueError", "message": "casimir, the sum of the squares lamt_i^2, "
                     f"is not invariant on {algebra}; use basis:<k>:<i>"}


@pytest.mark.parametrize("expr", ["x^2000000000", "x^20001", "2^20001", "(x + y)^200",
                                  "(x^100)^201", "(2^20000)^20000", "(2^20000*x)^19999",
                                  "(x/1099511627776)^1000", "(x+y+z+w+u+v)^9*(x+y+z+w+u+v)^9"])
def test_huge_power_is_refused_before_expanding(monkeypatch, capsys, expr):
    # the closed-form sizes refuse it after at most a few hundred small products
    mul, calls = ChartForm.__mul__, []

    def small_mul(a, b):
        calls.append(len(a.terms) * len(b.terms))
        assert len(calls) <= 200 and calls[-1] <= 10 ** 4
        return mul(a, b)
    monkeypatch.setattr(ChartForm, "__mul__", small_mul)
    error = assert_domain_error(capsys, ["polyfunc", "check", "--expr", expr,
                                         "--dim", "6", "--degree", "1"])
    assert error["type"] == "ExprError"


def refuse_evaluation(*args, **kwargs):
    raise AssertionError("evaluated before the size was checked")


@pytest.mark.parametrize("mode,expr,bits", [("check", "x^19999", 119996),
                                            ("decompose", "x^19999", 119996),
                                            ("check", "(2/3*x)^9100", 78125)])
def test_huge_values_are_refused_before_evaluating(monkeypatch, capsys, mode, expr, bits):
    # the expressions pass the product check; their values at the sample points
    # have thousands of digits, beyond what Python prints
    monkeypatch.setattr(chart_forms, "evaluate", refuse_evaluation)
    error = assert_domain_error(capsys, ["polyfunc", mode, "--expr", expr, "--degree", "3",
                                         "--dim", "3"])
    assert error == {"type": "ResourceCapError", "message": f"a value of up to {bits} bits "
                     "at the sample points is over the cap 20000"}


def test_values_too_long_to_print_are_refused(monkeypatch, capsys):
    # under the cap, but over the digits Python converts: 1 + 400 * 6 + 1 bits
    monkeypatch.setattr(sys, "get_int_max_str_digits", lambda: 640, raising=False)
    monkeypatch.setattr(chart_forms, "evaluate", refuse_evaluation)
    error = assert_domain_error(capsys, ["polyfunc", "check", "--expr", "x^400", "--degree", "3",
                                         "--dim", "1"])
    assert error == {"type": "ResourceCapError", "message": "a value of up to 2402 bits at the "
                     "sample points is too long to print in 640 digits"}


def test_probe_count_is_refused_before_parsing(tmp_path, capsys, monkeypatch):
    def parsed(*args, **kwargs):
        raise AssertionError("parsed before the size was checked")
    monkeypatch.setattr(jsonio, "rationals", parsed)
    monkeypatch.setattr(chart_forms, "evaluate", refuse_evaluation)
    probes = write_json(tmp_path, "probes.json", [[str(i)] for i in range(1, 100_001)])
    error = assert_domain_error(capsys, ["polyfunc", "decompose", "--expr", "x^2+x", "--degree",
                                         "2", "--dim", "1", "--probes", probes])
    assert error == {"type": "ResourceCapError", "message": "a decomposition of 100000 probes "
                     "of 100000 coordinates at 3 nodes is over the cap 20000"}


def test_ray_failure_prints_the_probe_as_rationals(capsys):
    error = assert_domain_error(capsys, ["polyfunc", "decompose", "--expr", "x^5", "--degree", "3",
                                         "--dim", "3"])
    assert error["message"] == ("map is not polynomial of degree <= 3 along rays: "
                                "component 0 fails homogeneity at probe (1, -2, 3) with mu=2")


LONG = "1" * 5000


@pytest.mark.parametrize("argv,file_text,what", [
    (["polyfunc", "check", "--expr", "x + " + LONG, "--degree", "1", "--dim", "1"], None,
     "--expr"),
    (["basic", "--algebra", "abelian" + LONG, "--degree", "1"], None, "--algebra"),
    (["cw", "--connection", "CONN", "--invariant", f"basis:{LONG}:1"], None, "--invariant"),
    (["equivariant", "--algebra", "su2", "--action", f"trivial:{LONG}", "--degree", "1",
      "--poly-cap", "1"], None, "--action"),
    (["polyfunc", "inject", "--functor", "Sym" + LONG, "--copies", "3", "--base-dim", "1"], None,
     "--functor"),
    (["polyfunc", "decompose", "--expr", "x", "--degree", "1", "--dim", "1", "--probes", "FILE"],
     f"[[{LONG}]]", "FILE"),
    (["polyfunc", "decompose", "--expr", "x", "--degree", "1", "--dim", "1", "--probes", "FILE"],
     f'[["{LONG}"]]', "FILE"),
], ids=["expr", "algebra", "invariant", "action", "functor", "json-integer", "json-rational"])
def test_long_number_literals_get_a_package_message(tmp_path, capsys, monkeypatch, argv,
                                                    file_text, what):
    # 5,000 digits are over int()'s default limit of 4,300; without a check, Python's
    # own "Exceeds the limit" message was the reply
    monkeypatch.setattr(sys, "get_int_max_str_digits", lambda: 4300, raising=False)
    conn = write_json(tmp_path, "conn.json", HEISENBERG_CONNECTION)
    path = tmp_path / "probes.json"
    if file_text:
        path.write_text(file_text)
    argv = [{"CONN": conn, "FILE": str(path)}.get(a, a) for a in argv]
    error = assert_domain_error(capsys, argv)
    assert error == {"type": "ValueError", "message": f"{str(path) if what == 'FILE' else what} "
                     "holds a number of more than 4300 digits"}


def test_power_size_counts_the_variables_of_the_base():
    # x^2 in 200 variables has one term: only the variables of the base count
    (p,) = parse_poly_exprs("x^2", 200)
    assert p == ChartForm.x(200, 0) * ChartForm.x(200, 0)
    (q,) = parse_poly_exprs("(x^100)^199", 1)
    assert q == ChartForm.from_poly(1, {(19900,): Fraction(1)})


@pytest.mark.parametrize("content", [5, [5]], ids=["int", "list-of-int"])
def test_untyped_input_files_are_domain_errors(tmp_path, capsys, content):
    path = write_json(tmp_path, "file.json", content)
    assert_domain_error(capsys, ["equivariant", "--algebra", "abelian1", "--action-json", path,
                                 "--degree", "1", "--poly-cap", "1"])
    assert_domain_error(capsys, ["polyfunc", "decompose", "--expr", "x", "--dim", "1",
                                 "--degree", "1", "--probes", path])


def test_one_parser_per_process_with_no_state_between_calls(tmp_path, capsys, monkeypatch):
    probes = write_json(tmp_path, "probes.json", [["1", "2"], ["-3", "1/2"]])
    conn = write_json(tmp_path, "conn.json", {
        "algebra": "su2", "chart_dim": 2,
        "components": [{"dim": 2, "terms": [{"dx": [1], "mono": [0, 1], "c": "1"}]},
                       {"dim": 2, "terms": [{"dx": [2], "mono": [1, 0], "c": "2"}]},
                       {"dim": 2, "terms": []}]})
    decompose = ["polyfunc", "decompose", "--expr", "x + x*y", "--degree", "2", "--dim", "2"]
    argvs = [[*decompose, "--probes", probes], decompose,
             ["cw", "--algebra", "su2", "--connection", conn], ["cw", "--connection", conn]]
    expected = [run_cli(capsys, *argv) for argv in argvs]  # the first call warms the parser

    def refuse(*args, **kwargs):
        raise AssertionError("main built a second parser")

    monkeypatch.setattr(argparse, "ArgumentParser", refuse)
    got = [run_cli(capsys, *argv) for argv in argvs[:2]]
    with pytest.raises(SystemExit) as exc:
        main(["basic", "--degree", "2"])
    assert exc.value.code == 2
    capsys.readouterr()
    got += [run_cli(capsys, *argv) for argv in argvs[2:]]
    assert got == expected
    with_probes, without = (json.loads(out)["results"]["probes"] for _, out in expected[:2])
    assert with_probes != without
