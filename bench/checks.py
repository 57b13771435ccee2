"""Per-job output checks, run outside the timed region.

Dimensions are compared with closed forms or with answers that do not depend
on the code being timed.  Where a check needs algebra (is the Chern-Weil form
closed, is it gauge invariant) it parses the printed JSON and uses the
package's public API, never the job's own in-memory results.

``check(job, stdout, outputs, run_cw)`` returns None when the output is
right and a one-line reason otherwise.  ``outputs`` maps job ids to the
stdout of the same run, for checks that compare two jobs; ``run_cw(conn,
invariant)`` runs the CLI's ``cw`` on a connection and returns its form.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from math import comb

# basic_dim of the builtin adjoint action in the truncated Weil model, as
# computed when the benchmark was written (commit 490a3b4); a conjugated
# action must give the same.
MODEL_BASIC_DIMS = {
    ("su2", 2, 2): 0, ("su2", 3, 1): 0,
    ("sl2", 2, 2): 0, ("sl2", 3, 1): 0,
    ("heisenberg3", 2, 2): 19, ("heisenberg3", 3, 1): 13,
}

FUNCTOR_DIMS = {"Sym": lambda n, d: comb(n + d - 1, d), "Lambda": comb,
                "Tensor": lambda n, d: n ** d}


def basic_dim(alg, degree):
    """dim of the basic subspace: (Sym^k g*)^g at degree 2k, nothing at odd degree."""
    if degree % 2:
        return 0
    k = degree // 2
    if alg == "heisenberg3":
        return k + 1
    return 1 if k % 2 == 0 else 0


def check(job, stdout, outputs, run_cw):
    try:
        report = json.loads(stdout)
    except ValueError:
        return "stdout is not JSON"
    if "error" in report:
        return f"error reply: {report['error']}"
    res = report["results"]
    if report.get("command") != job["argv"]:
        return "report does not echo its argv"
    return _CHECKS[job["kind"]](job["expect"], res, outputs, run_cw)


def _basic(exp, res, outputs, run_cw):
    want = basic_dim(exp["algebra"], exp["degree"])
    if res["dim"] != want or len(res["basis"]) != want:
        return f"basic dim {res['dim']} (basis {len(res['basis'])}), expected {want}"
    return None


def _invariants(exp, res, outputs, run_cw):
    want = [basic_dim(exp["algebra"], 2 * k) for k in range(exp["max_degree"] + 1)]
    if res["dims"] != want or [len(b) for b in res["bases"]] != want:
        return f"invariant dims {res['dims']}, expected {want}"
    return None


def _cohomology(exp, res, outputs, run_cw):
    want = [1] + [0] * exp["max_degree"]
    if res["cohomology"] != want:
        return f"cohomology {res['cohomology']}, expected {want}"
    return None


def _equivariant(exp, res, outputs, run_cw):
    want = MODEL_BASIC_DIMS[(exp["algebra"], exp["degree"], exp["poly_cap"])]
    if res["basic_dim"] != want:
        return f"basic_dim {res['basic_dim']}, expected {want}"
    return None


def _oracle(exp, res, outputs, run_cw):
    want = comb(exp["dim_v"], exp["p"]) * comb(exp["dim_v"] + exp["q"] - 1, exp["q"])
    if not (res["match"] is True and res["computed"] == want == res["expected"]):
        return f"oracle computed {res['computed']}, expected {want}"
    return None


def _cw(exp, res, outputs, run_cw):
    from weil.chart_forms import d
    from weil.jsonio import chart_form_from_json
    form = chart_form_from_json(res["chern_weil_form"])
    if form.m != exp["chart_dim"] or not form.is_homogeneous():
        return "Chern-Weil form has the wrong chart or is not homogeneous"
    if form and form.degree() != exp["form_degree"]:
        return f"Chern-Weil form has degree {form.degree()}"
    if d(form):
        return "Chern-Weil form is not closed"
    return None


def _gauge(exp, res, outputs, run_cw):
    """cw of the gauged connection must equal cw of the original one."""
    paired = json.loads(outputs[exp["pair"]])["results"]["chern_weil_form"]
    moved = run_cw(res["connection"], exp["invariant"])
    if moved != paired:
        return "Chern-Weil form changed under the gauge transformation"
    return None


def _decompose(exp, res, outputs, run_cw):
    """Component i at each probe must be the degree-i part evaluated there."""
    probes = [[Fraction(x) for x in p] for p in res["probes"]]
    want = [[[str(_graded_eval(poly, v, i)) for poly in exp["polys"]] for v in probes]
            for i in range(exp["degree"] + 1)]
    if res["components"] != want:
        return "homogeneous components differ from the generated polynomial"
    return None


def _graded_eval(poly, point, degree):
    total = Fraction(0)
    for term in poly:
        if sum(term["mono"]) == degree:
            v = Fraction(term["c"])
            for x, k in zip(point, term["mono"]):
                v *= x ** k
            total += v
    return total


def _check(exp, res, outputs, run_cw):
    if res["consistent"] is not True:
        return "a polynomial of the stated degree was judged inconsistent"
    return None


def _inject(exp, res, outputs, run_cw):
    kind, degree = re.fullmatch(r"([A-Za-z]+)(\d+)", exp["functor"]).groups()
    want = FUNCTOR_DIMS[kind](exp["copies"] * exp["base_dim"], int(degree))
    if not (res["injective"] is True and res["rank"] == res["dim"] == want):
        return f"inject rank {res['rank']} dim {res['dim']}, expected injective of dim {want}"
    return None


_CHECKS = {"basic": _basic, "invariants": _invariants, "cohomology": _cohomology,
           "equivariant": _equivariant, "oracle": _oracle, "cw": _cw, "gauge": _gauge,
           "decompose": _decompose, "check": _check, "inject": _inject}
