"""Command-line front end.

Every subcommand prints one canonical JSON report to stdout:
{"command": [...], "inputs_digest": "...", "results": {...}, "version": "..."}.
Identical invocations produce byte-identical reports.  Exit codes: 0 on
success, 1 on a domain error (structured error JSON), 2 on a usage error.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import re
import sys
from fractions import Fraction
from math import ceil, comb, lcm, log2

from . import __version__, jsonio
from .chart_forms import ChartForm
from .chern_weil import (builtin_rep, constant_gauge, cw_form,
                         gauge_transform, quaternion_matrix, unipotent_gauge)
from .equivariant import WeilModel, action_dim, builtin_action, check_basis_size
from .invariant_polynomials import basic_subspace, invariant_bases, invariant_basis
from .liealg import basis_vector, builtin
from .polyfunctor import (CHECKPOINT_PATTERNS, FunctorSpec, homogeneous_decompose,
                          is_polynomial, poly_black_box, restriction_injectivity)
from .schur_oracle import DEFAULT_CAP, ResourceCapError, check_size, verify_bidegree
from .weil_algebra import (WeilElement, graded_dims, koszul_cohomology_dims,
                           lie_derivative, multiply)


# -- polynomial expression grammar -------------------------------------
# exprs := expr (',' expr)* ; expr := term (('+'|'-') term)*
# term := unary (('*'|'/') unary)* ; unary := '-' unary | power
# power := atom (('^'|'**') int)? ; atom := int | variable | '(' expr ')'
# Numbers are integers only, so p/q is p divided by q and '^' binds tighter than '/'.

_TOKEN = re.compile(r"\s*(?:([0-9]+)|([a-zA-Z_]\w*)|(\*\*|[-+*/^(),]))")

_VAR_ALIASES = "xyzwuv"


class ExprError(ValueError):
    pass


def _tokenize(text):
    pos = 0
    out = []
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m or m.end() == pos:
            if text[pos:].strip():
                raise ExprError(f"cannot tokenize {text[pos:]!r}")
            break
        num, name, op = m.groups()
        out.append(("num", int(num)) if num else ("var", name) if name else ("op", op))
        pos = m.end()
    out.append(("end", None))
    return out


class _Parser:
    def __init__(self, tokens, dim):
        self.tokens = tokens
        self.pos = 0
        self.dim = dim

    def peek(self):
        return self.tokens[self.pos]

    def take(self):
        self.pos += 1
        return self.tokens[self.pos - 1]

    def expect_op(self, op):
        kind, val = self.take()
        if kind != "op" or val != op:
            raise ExprError(f"expected {op!r}")

    def var_index(self, name):
        m = re.fullmatch(r"x([0-9]+)", name)
        if m:
            i = int(m.group(1)) - 1
        elif len(name) == 1 and name in _VAR_ALIASES:
            i = _VAR_ALIASES.index(name)
        else:
            raise ExprError(f"unknown variable {name!r}")
        if not 0 <= i < self.dim:
            raise ExprError(f"variable {name!r} out of range for dimension {self.dim}")
        return i

    def parse_exprs(self):
        out = [self.parse_expr()]
        while self.peek() == ("op", ","):
            self.take()
            out.append(self.parse_expr())
        if self.peek()[0] != "end":
            raise ExprError(f"trailing input at token {self.peek()!r}")
        return out

    def parse_expr(self):
        acc = self.parse_term()
        while self.peek()[0] == "op" and self.peek()[1] in "+-":
            _, op = self.take()
            rhs = self.parse_term()
            acc = acc + rhs if op == "+" else acc - rhs
        return acc

    def parse_term(self):
        acc = self.parse_unary()
        while self.peek()[0] == "op" and self.peek()[1] in "*/":
            _, op = self.take()
            rhs = self.parse_unary()
            if op == "*":
                _check_product([(acc, 1), (rhs, 1)])
                acc = acc * rhs
            else:
                const = _constant_of(rhs)
                if not const:
                    raise ExprError("division is only defined by nonzero constants")
                acc = acc.scale(1 / const)
        return acc

    def parse_unary(self):
        if self.peek() == ("op", "-"):
            self.take()
            return -self.parse_unary()
        return self.parse_power()

    def parse_power(self):
        base = self.parse_atom()
        if self.peek()[0] == "op" and self.peek()[1] in ("^", "**"):
            self.take()
            kind, e = self.take()
            if kind != "num":
                raise ExprError("exponents must be nonnegative integers")
            _check_product([(base, e)])  # bounds every partial power too
            out = ChartForm.constant(self.dim)
            for _ in range(e):
                out = out * base
                if not out.terms:  # 0^e, e > 0
                    break
            return out
        return base

    def parse_atom(self):
        kind, val = self.take()
        if kind == "num":
            return ChartForm.constant(self.dim, val)
        if kind == "var":
            return ChartForm.x(self.dim, self.var_index(val))
        if (kind, val) == ("op", "("):
            inner = self.parse_expr()
            self.expect_op(")")
            return inner
        raise ExprError(f"unexpected token {val!r}")


def _check_product(factors):
    """Refuse a product of (form, power) factors over the size cap before it is
    multiplied: it has at most C(v + D, v) terms (D the summed degrees, v the
    variables used) and coefficients of about B bits (the summed bit lengths)."""
    used, degree, bits = set(), 0, 0
    for p, k in factors:
        if k and p.terms:
            used |= {i for _, exps in p.terms for i, q in enumerate(exps) if q}
            degree += k * max(sum(exps) for _, exps in p.terms)
            bits += k * max(max(abs(c.numerator), c.denominator).bit_length()
                            for c in p.terms.values())
    if bits > DEFAULT_CAP or comb(len(used) + degree, len(used)) > DEFAULT_CAP:
        raise ExprError(f"product is over the size cap {DEFAULT_CAP}")


def _check_values(polys, top, denominators):
    """Refuse polynomials whose values at the sample points could be over the cap or
    too long to print.  A sample coordinate is at most ``top`` in absolute value with
    a denominator dividing Q = lcm(``denominators``); with L the lcm of the coefficient
    denominators, A the largest numerator, T the terms and D the total degree, a
    value has at most bits(A L) + D bits(top Q) + bits(T) bits."""
    coeffs = [c for p in polys for c in p.terms.values()]
    if not coeffs:
        return
    degree = max(sum(exps) for p in polys for _, exps in p.terms)
    scale = max(abs(c.numerator) for c in coeffs) * lcm(*(c.denominator for c in coeffs))
    point = ceil(top) * lcm(*denominators)
    bits = scale.bit_length() + degree * point.bit_length() + len(coeffs).bit_length()
    check_size(bits, f"a value of up to {bits} bits at the sample points")
    digits = getattr(sys, "get_int_max_str_digits", lambda: 0)()  # 0: no limit
    if digits and bits > digits * log2(10):
        raise ResourceCapError(f"a value of up to {bits} bits at the sample points "
                               f"is too long to print in {digits} digits")


def _constant_of(p):
    """The value of a constant 0-form, None for any other form."""
    one = (0, (0,) * p.n)
    if set(p.terms) - {one}:
        return None
    return p.terms.get(one, Fraction(0))


def parse_poly_exprs(text, dim):
    """Comma-separated polynomial expressions -> list of 0-forms."""
    try:
        return _Parser(_tokenize(text), dim).parse_exprs()
    except RecursionError:
        raise ExprError("expression is nested too deeply") from None


# -- report plumbing ----------------------------------------------------


def _check_digits(text, what):
    """Refuse ``text`` if a run of digits in it is longer than int() converts
    (``sys.get_int_max_str_digits()``; 0 means no limit), in a message naming ``what``."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit and len(text) > limit and max(map(len, re.findall(r"\d+", text)), default=0) > limit:
        raise ValueError(f"{what} holds a number of more than {limit} digits")


def _emit(args_list, file_payloads, results):
    digest = jsonio.digest({"argv": args_list, "files": file_payloads})
    report = {"command": args_list, "inputs_digest": digest,
              "results": results, "version": __version__}
    sys.stdout.write(jsonio.canonical_json(report))
    return 0


def _read_json(path, payloads):
    import json
    with open(path, "rb") as fh:
        raw = fh.read()
    payloads[path] = hashlib.sha256(raw).hexdigest()
    text = raw.decode()
    _check_digits(text, path)  # bare integers and rational strings alike
    try:
        return json.loads(text)
    except RecursionError:
        raise ValueError(f"{path} is nested too deeply") from None


def _check_invariant(L, P, what):
    """Refuse P unless its Lie derivative along every basis vector e_i is 0,
    naming the first e_i along which it is not."""
    for i in range(L.dim):
        if lie_derivative(L, basis_vector(L.dim, i), P):
            raise ValueError(f"{what} is not invariant on {L.name or 'the given algebra'}: "
                             f"its Lie derivative along e_{i + 1} is nonzero; "
                             f"use basis:<k>:<i>")
    return P


def _named_invariant(L, name):
    if name == "casimir":
        P = sum((multiply(WeilElement.lamt(L.dim, i), WeilElement.lamt(L.dim, i))
                 for i in range(L.dim)), WeilElement.zero(L.dim))
        return _check_invariant(L, P, "casimir, the sum of the squares lamt_i^2,")
    m = re.fullmatch(r"basis:([0-9]+):([0-9]+)", name)
    if m:
        k, idx = int(m.group(1)), int(m.group(2))
        basis = invariant_basis(L, k)
        if idx >= len(basis):
            raise ValueError(f"invariant basis of degree {k} has only {len(basis)} elements")
        return basis[idx]
    raise ValueError(f"unknown invariant name {name!r} (use 'casimir' or 'basis:<k>:<i>')")


# -- subcommand handlers -------------------------------------------------


def _cmd_basic(args, payloads):
    L = builtin(args.algebra)
    basis = basic_subspace(L, args.degree)
    return {"algebra": jsonio.algebra_to_json(L), "degree": args.degree,
            "dim": len(basis), "basis": [jsonio.weil_element_to_json(b) for b in basis]}


def _cmd_cohomology(args, payloads):
    cohomology = koszul_cohomology_dims(args.dim, args.max_degree)  # refuses before graded_dims
    return {"dim": args.dim, "max_degree": args.max_degree,
            "graded_dims": graded_dims(args.dim, args.max_degree), "cohomology": cohomology}


def _cmd_invariants(args, payloads):
    L = builtin(args.algebra)
    bases = invariant_bases(L, args.max_degree)
    return {"algebra": jsonio.algebra_to_json(L), "space": "(Sym g*)^g",
            "dims": [len(basis) for basis in bases],
            "bases": [[jsonio.weil_element_to_json(b) for b in basis] for basis in bases]}


def _cmd_cw(args, payloads):
    L = builtin(args.algebra) if args.algebra else None
    conn = jsonio.connection_from_json(_read_json(args.connection, payloads), L)
    if args.invariant_json:
        P = _check_invariant(conn.algebra, jsonio.weil_element_from_json(
            conn.algebra.dim, _read_json(args.invariant_json, payloads)),
            f"the element in {args.invariant_json}")
    else:
        P = _named_invariant(conn.algebra, args.invariant)
    form = cw_form(P, conn)
    return {"invariant": jsonio.weil_element_to_json(P),
            "chern_weil_form": jsonio.chart_form_to_json(form)}


def _parse_gauge(obj, algebra, chart_dim):
    obj = jsonio.typed(obj, dict, "a gauge file")
    rep = builtin_rep(algebra.name or "")
    kind = obj["kind"]
    if kind == "constant":
        if "quaternion" in obj and "matrix" in obj:
            raise ValueError("a constant gauge takes a matrix or a quaternion, not both")
        if "quaternion" in obj:
            mat = quaternion_matrix(*jsonio.rationals(obj["quaternion"], "quaternion", 4))
        else:
            mat = [jsonio.rationals(row, "a matrix row")
                   for row in jsonio.typed(obj["matrix"], list, "matrix")]
        return constant_gauge(rep, mat, chart_dim)
    if kind == "unipotent":
        uppers = {}
        for entry in jsonio.typed(obj["entries"], list, "entries"):
            entry = jsonio.known(jsonio.typed(entry, dict, "a gauge entry"),
                                 {"row", "col", "poly"}, "a gauge entry")
            i, j = (jsonio.typed(entry[f], int, f) - 1 for f in ("row", "col"))
            if (i, j) in uppers:
                raise ValueError(f"gauge entries list (row, col) = ({i + 1}, {j + 1}) twice")
            uppers[(i, j)] = jsonio.poly_from_json(entry["poly"], chart_dim)
        return unipotent_gauge(rep, uppers, chart_dim)
    raise ValueError(f"unknown gauge kind {kind!r}")


def _cmd_gauge(args, payloads):
    L = builtin(args.algebra) if args.algebra else None
    conn = jsonio.connection_from_json(_read_json(args.connection, payloads), L)
    g = _parse_gauge(_read_json(args.gauge, payloads), conn.algebra, conn.chart_dim)
    moved = gauge_transform(conn, g)
    return {"connection": jsonio.connection_to_json(moved)}


def _cmd_equivariant(args, payloads):
    L = builtin(args.algebra)
    if args.action_json:
        # the size is read off the raw JSON, so an oversized file is refused unparsed
        raw = [jsonio.typed(mat, list, "an action matrix")
               for mat in jsonio.typed(_read_json(args.action_json, payloads), list,
                                       "an action file")]
        m = len(raw[0]) if raw else 0
        # m is read off the first matrix; a longer row or a later matrix can hold more
        entries = sum(len(row) for mat in raw for row in mat if isinstance(row, list))
    else:
        m, entries = action_dim(args.action, L), 0
    check_size(L.dim * m * m, f"{L.dim} action matrices of size {m}")
    check_size(entries, f"an action file of {entries} entries")
    check_basis_size(m, L.dim, args.degree, args.poly_cap)
    if args.action_json:
        mats = [[jsonio.rationals(row, "an action matrix row") for row in mat] for mat in raw]
    else:
        mats = builtin_action(args.action, L)[1]
    model = WeilModel(m, L, mats)
    dim = model.basic_dim(args.degree, args.poly_cap)
    return {"algebra": jsonio.algebra_to_json(L), "chart_dim": m,
            "degree": args.degree, "poly_cap": args.poly_cap, "basic_dim": dim}


def _cmd_polyfunc(args, payloads):
    if args.mode != "inject" and min(args.degree, args.dim) >= 0:
        # check: each trial set of k vectors (k = min(dim, 3), then 2; see
        # _default_trials) is interpolated on (d+1)^k grid points, and a point costs
        # its dim coordinates and a product of k Lagrange weights, whose bit length
        # grows with d; decompose: per probe and output coordinate, (d+1)^2 products
        # by the weights of the closed-form Vandermonde inverse, whose bit length grows
        # with d, so its cost tracks (d+1)^3, and d+1 scalings of each probe
        n = args.degree + 1
        if args.mode == "check":
            sets = (min(args.dim, 3), 2 * min(args.dim, 1))
            check_size(sum(n ** k * (k * n + args.dim) for k in sets), f"an interpolation "
                       f"grid of {n} nodes per direction in dimension {args.dim}")
        else:
            check_size(max(n ** 3, n * args.dim),
                       f"a decomposition at {n} nodes in dimension {args.dim}")
    if args.mode == "decompose":
        polys = parse_poly_exprs(args.expr, args.dim)
        if args.probes:
            # the size is read off the raw JSON, so an oversized file is refused unparsed
            raw = jsonio.typed(_read_json(args.probes, payloads), list, "a probes file")
            entries = sum(len(p) for p in raw if isinstance(p, list))
            check_size((args.degree + 1) * (len(raw) + entries),
                       f"a decomposition of {len(raw)} probes of {entries} coordinates "
                       f"at {args.degree + 1} nodes")
            probes = [jsonio.rationals(p, "a probe") for p in raw]
        else:
            probes = _default_probes(args.dim)
        # f is evaluated at t v for t up to 3 (d + 1): the nodes, times 2 and 3 on the rays
        coords = [x for p in probes for x in p]
        _check_values(polys, 3 * (args.degree + 1) * max(map(abs, coords), default=0),
                      [x.denominator for x in coords])
        dec = homogeneous_decompose(poly_black_box(polys, args.dim), args.degree, probes)
        return {"expr": args.expr, "degree": args.degree,
                "probes": [[jsonio.rational_str(x) for x in p] for p in dec.probes],
                "components": [[[jsonio.rational_str(x) for x in val] for val in comp]
                               for comp in dec.components]}
    if args.mode == "check":
        polys = parse_poly_exprs(args.expr, args.dim)
        # a grid coordinate is an integer in -d..d, a checkpoint coordinate mu_0 or
        # mu_1 - mu_0 (see _default_trials)
        mus = [x for pattern in CHECKPOINT_PATTERNS for x in pattern]
        _check_values(polys, max(args.degree, 2 * max(map(abs, mus))),
                      [x.denominator for x in mus])
        verdict = is_polynomial(poly_black_box(polys, args.dim), args.degree,
                                _default_trials(args.dim))
        out = {"expr": args.expr, "degree": args.degree,
               "consistent": verdict.consistent}
        if verdict.witness:
            ti, mu, expected, got = verdict.witness
            out["witness"] = {"trial": ti, "point": [jsonio.rational_str(x) for x in mu],
                              "value": [jsonio.rational_str(x) for x in expected],
                              "interpolated": [jsonio.rational_str(x) for x in got]}
        return out
    # inject
    m = re.fullmatch(r"(Sym|Lambda|Tensor)([0-9]+)", args.functor)
    if not m:
        raise ValueError("functor must look like Sym2, Lambda2, or Tensor1")
    kind = {"Sym": "sym", "Lambda": "ext", "Tensor": "ten"}[m.group(1)]
    rep = restriction_injectivity(FunctorSpec(kind, int(m.group(2))), args.copies, args.base_dim)
    return {"functor": args.functor, "copies": rep.copies, "base_dim": rep.base_dim,
            "dim": rep.dim, "rank": rep.rank, "injective": rep.injective}


def _default_probes(dim):
    base = [1, -2, 3, 5, -1, 2]
    return [[Fraction(base[(i + shift) % len(base)]) for i in range(dim)] for shift in range(3)]


def _default_trials(dim):
    vs1 = [tuple(Fraction(1 if i == j else 0) for i in range(dim)) for j in range(min(dim, 3))]
    vs2 = [tuple(-x for x in v) for v in vs1[:1]] + vs1[:1]
    return [vs1, vs2]


def _cmd_oracle(args, payloads):
    r = verify_bidegree(args.p, args.q, args.dimV)
    return {"p": r.p, "q": r.q, "dimV": r.dim_v, "dimW": r.dim_w,
            "expected": r.expected, "computed": r.computed, "match": r.match}


def _cmd_verify_all(args, payloads):
    # the acceptance suite is imported by its one caller, not at start-up
    from .acceptance import run_all
    results = run_all()
    payload = [{"id": r.ident, "title": r.title, "passed": r.passed, "details": r.details}
               for r in results]
    all_passed = all(r.passed for r in results)
    return {"criteria": payload, "all_passed": all_passed}, (0 if all_passed else 1)


# -- parser wiring -------------------------------------------------------


@functools.cache
def build_parser():
    """The ``weil`` argument parser, built once per process.

    The returned parser is shared by every ``main`` call and must not be
    mutated; ``parse_args`` reads it and returns a fresh namespace.
    """
    p = argparse.ArgumentParser(prog="weil",
                                description="Exact Weil-algebra and Chern-Weil calculator")
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("basic", help="basis of the basic subspace of the Weil algebra")
    sp.add_argument("--algebra", required=True)
    sp.add_argument("--degree", type=int, required=True)
    sp.set_defaults(handler=_cmd_basic)

    sp = sub.add_parser("cohomology", help="Koszul complex cohomology dimensions")
    sp.add_argument("--dim", type=int, required=True)
    sp.add_argument("--max-degree", type=int, required=True)
    sp.set_defaults(handler=_cmd_cohomology)

    sp = sub.add_parser("invariants", help="dimensions and bases of (Sym g*)^g")
    sp.add_argument("--algebra", required=True)
    sp.add_argument("--max-degree", type=int, required=True)
    sp.set_defaults(handler=_cmd_invariants)

    sp = sub.add_parser("cw", help="Chern-Weil form of an invariant polynomial")
    sp.add_argument("--algebra")
    sp.add_argument("--connection", required=True, metavar="FILE")
    sp.add_argument("--invariant", default="casimir")
    sp.add_argument("--invariant-json", metavar="FILE")
    sp.set_defaults(handler=_cmd_cw)

    sp = sub.add_parser("gauge", help="apply a gauge transformation to a connection")
    sp.add_argument("--algebra")
    sp.add_argument("--connection", required=True, metavar="FILE")
    sp.add_argument("--gauge", required=True, metavar="FILE")
    sp.set_defaults(handler=_cmd_gauge)

    sp = sub.add_parser("equivariant", help="basic dimension in the truncated Weil model")
    sp.add_argument("--algebra", required=True)
    sp.add_argument("--action", default="rot2")
    sp.add_argument("--action-json", metavar="FILE")
    sp.add_argument("--degree", type=int, required=True)
    sp.add_argument("--poly-cap", type=int, required=True)
    sp.set_defaults(handler=_cmd_equivariant)

    sp = sub.add_parser("polyfunc", help="polynomial functor procedures")
    sub2 = sp.add_subparsers(dest="mode", required=True)
    for mode in ("decompose", "check"):
        d = sub2.add_parser(mode)
        d.add_argument("--expr", required=True)
        d.add_argument("--degree", type=int, required=True)
        d.add_argument("--dim", type=int, required=True)
        d.set_defaults(handler=_cmd_polyfunc, mode=mode)
    sub2.choices["decompose"].add_argument("--probes", metavar="FILE")
    d3 = sub2.add_parser("inject")
    d3.add_argument("--functor", required=True)
    d3.add_argument("--copies", type=int, required=True)
    d3.add_argument("--base-dim", type=int, required=True)
    d3.set_defaults(handler=_cmd_polyfunc, mode="inject")

    sp = sub.add_parser("oracle", help="compare an equivariant Hom dimension with its predicted value")
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--q", type=int, required=True)
    sp.add_argument("--dimV", type=int, required=True)
    sp.set_defaults(handler=_cmd_oracle)

    sp = sub.add_parser("verify-all", help="run the full acceptance suite")
    sp.set_defaults(handler=_cmd_verify_all)

    return p


def main(argv=None):
    argv = list(sys.argv[1:] if argv is None else argv)
    args = build_parser().parse_args(argv)
    payloads: dict[str, str] = {}
    try:
        for name in ("expr", "algebra", "invariant", "action", "functor"):
            _check_digits(getattr(args, name, None) or "", f"--{name}")
        out = args.handler(args, payloads)
    except (ValueError, OSError, KeyError) as exc:
        error = {"error": {"type": type(exc).__name__, "message": str(exc)}}
        sys.stdout.write(jsonio.canonical_json(error))
        return 1
    if isinstance(out, tuple):
        results, code = out
        _emit(argv, payloads, results)
        return code
    return _emit(argv, payloads, out)


if __name__ == "__main__":
    sys.exit(main())
