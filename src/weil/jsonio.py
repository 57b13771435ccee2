"""Canonical JSON encoding of the domain objects.

Rationals serialize as decimal-free strings "p/q" in lowest terms (bare "p"
for integers, q > 0), indices are 1-based, and term lists are emitted in the
canonical term order, so equal values always produce identical JSON.
"""

from __future__ import annotations

import hashlib
import json
import re
from fractions import Fraction

from .chart_forms import ChartForm
from .chern_weil import LieValuedForm
from .liealg import LieAlgebra, builtin, from_brackets, validate
from .masks import indices_of, mask_of
from .weil_algebra import WeilElement


def rational_str(x) -> str:
    x = Fraction(x)
    return str(x)


_RATIONAL = re.compile(r"-?[0-9]+(/[0-9]+)?")


def parse_rational(s, what) -> Fraction:
    """A JSON integer, or a string ``p`` or ``p/q`` matching ``-?[0-9]+(/[0-9]+)?``;
    anything else is a ValueError naming the field ``what``."""
    if type(s) is int:
        return Fraction(s)
    if type(s) is not str:
        raise ValueError(f"{what} must be a rational p or p/q, got {type(s).__name__}")
    if not _RATIONAL.fullmatch(s):
        raise ValueError(f"{what} must be a rational p or p/q, got {s!r}")
    try:
        return Fraction(s)
    except ZeroDivisionError:
        raise ValueError(f"{what} has a zero denominator") from None


# -- typed fields ------------------------------------------------------

_TYPE_NAMES = {dict: "a JSON object", list: "a JSON array", int: "an integer", str: "a string"}


def typed(obj, kind, what):
    """``obj`` if it is a ``kind`` (dict, list, int or str; a bool is no int),
    else a ValueError naming ``what``."""
    if not isinstance(obj, kind) or kind is int and isinstance(obj, bool):
        raise ValueError(f"{what} must be {_TYPE_NAMES[kind]}")
    return obj


def rationals(obj, what, size=None) -> list:
    """A JSON array of rationals, of ``size`` entries when given."""
    out = [parse_rational(x, f"{what} entry") for x in typed(obj, list, what)]
    if size is not None and len(out) != size:
        raise ValueError(f"{what} must hold {size} rationals")
    return out


# -- Lie algebras ------------------------------------------------------


def algebra_to_json(L: LieAlgebra) -> dict:
    brackets = []
    for (i, j, k), c in sorted(L.structure.items()):
        if i < j and c:
            brackets.append({"i": i + 1, "j": j + 1, "k": k + 1, "c": rational_str(c)})
    out = {"dim": L.dim, "brackets": brackets}
    if L.name:
        out["name"] = L.name
    return out


def algebra_from_json(obj) -> LieAlgebra:
    """A builtin name, or {"dim", "brackets", "name"}; the latter must satisfy Jacobi."""
    if isinstance(obj, str):
        return builtin(obj)
    obj = typed(obj, dict, "an algebra")
    dim = typed(obj["dim"], int, "an algebra dim")
    if dim < 1:
        raise ValueError("an algebra dim must be positive")
    brackets = {}
    for entry in typed(obj.get("brackets", []), list, "brackets"):
        entry = typed(entry, dict, "a bracket entry")
        i, j, k = (typed(entry[f], int, f"bracket index {f}") - 1 for f in "ijk")
        if not 0 <= i < j < dim or not 0 <= k < dim:
            raise ValueError(f"bracket entries need 1 <= i < j <= {dim} and 1 <= k <= {dim}")
        brackets.setdefault((i, j), {})[k] = parse_rational(entry["c"], "a bracket c")
    name = obj.get("name")
    L = from_brackets(dim, brackets, name=None if name is None else typed(name, str, "name"))
    violation = validate(L)
    if violation:
        raise ValueError(f"brackets violate {violation.kind} at basis indices "
                         f"{[i + 1 for i in violation.indices]}")
    return L


# -- term keys ---------------------------------------------------------


def _int_list(obj, field):
    if not isinstance(obj, list) or any(type(x) is not int for x in obj):
        raise ValueError(f"{field} must be a list of integers")
    return obj


def _terms_from_json(obj, odd_field, even_field, n):
    """{(odd mask, exponents): coefficient} from a JSON term list.

    Odd indices are 1-based, at most n and distinct; exponent vectors have n
    nonnegative entries.  A missing field means no odd factor, or exponent 0.
    """
    if not isinstance(obj, list) or not all(isinstance(t, dict) for t in obj):
        raise ValueError("a term list must be a JSON array of objects")
    terms = {}
    for entry in obj:
        odd = _int_list(entry.get(odd_field, []), odd_field) if odd_field else []
        if any(not 1 <= i <= n for i in odd):
            raise ValueError(f"{odd_field} index out of range 1..{n}")
        exps = _int_list(entry.get(even_field, [0] * n), even_field)
        if len(exps) != n or any(x < 0 for x in exps):
            raise ValueError(f"{even_field} must hold {n} nonnegative exponents")
        key = (mask_of(i - 1 for i in odd), tuple(exps))
        terms[key] = terms.get(key, Fraction(0)) + parse_rational(entry["c"], "a term c")
    return terms


def _terms_to_json(a, odd_field, even_field):
    """The JSON term list of an element, in its canonical term order."""
    return [{odd_field: [i + 1 for i in indices_of(mask)], even_field: list(exps),
             "c": rational_str(c)} for (mask, exps), c in a.sorted_terms()]


# -- Weil elements -----------------------------------------------------


def weil_element_to_json(a: WeilElement) -> list:
    return _terms_to_json(a, "ext", "sym")


def weil_element_from_json(n, obj) -> WeilElement:
    return WeilElement(n, _terms_from_json(obj, "ext", "sym", n))


# -- chart forms and connections ---------------------------------------


def chart_form_to_json(a: ChartForm) -> dict:
    return {"dim": a.m, "terms": _terms_to_json(a, "dx", "mono")}


def chart_form_from_json(obj) -> ChartForm:
    m = typed(obj, dict, "a chart form")["dim"]
    if type(m) is not int or m < 0:
        raise ValueError("a chart form dim must be a nonnegative integer")
    return ChartForm(m, _terms_from_json(obj.get("terms", []), "dx", "mono", m))


def poly_from_json(obj, m) -> ChartForm:
    """A polynomial term list [{"mono", "c"}] as a 0-form on R^m."""
    return ChartForm(m, _terms_from_json(obj, None, "mono", m))


def connection_to_json(A: LieValuedForm) -> dict:
    return {"algebra": algebra_to_json(A.algebra), "chart_dim": A.chart_dim,
            "components": [chart_form_to_json(c) for c in A.components]}


def connection_from_json(obj, algebra=None) -> LieValuedForm:
    obj = typed(obj, dict, "a connection")
    if "algebra" in obj:
        parsed = algebra_from_json(obj["algebra"])
        if algebra is not None and parsed != algebra:
            raise ValueError("connection file algebra disagrees with the requested algebra")
        algebra = parsed
    if algebra is None:
        raise ValueError("no algebra given for the connection")
    m = typed(obj["chart_dim"], int, "chart_dim")
    comps = [chart_form_from_json(c) for c in typed(obj["components"], list, "components")]
    for c in comps:
        if c.m != m:
            raise ValueError("component chart dimension disagrees with chart_dim")
    return LieValuedForm(algebra, m, comps)


# -- reports -----------------------------------------------------------


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2, ensure_ascii=True) + "\n"


def digest(obj) -> str:
    payload = json.dumps(obj, sort_keys=True, separators=(",", ":"), ensure_ascii=True)
    return hashlib.sha256(payload.encode()).hexdigest()
