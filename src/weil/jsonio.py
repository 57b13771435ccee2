"""Canonical JSON encoding of the domain objects.

Rationals serialize as decimal-free strings "p/q" in lowest terms (bare "p"
for integers, q > 0), indices are 1-based, and term lists are emitted in the
canonical term order, so equal values always produce identical JSON.
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction

from .chart_forms import ChartForm
from .chern_weil import LieValuedForm
from .liealg import LieAlgebra, builtin, make_lie_algebra
from .masks import indices_of, mask_of
from .weil_algebra import WeilElement


def rational_str(x) -> str:
    x = Fraction(x)
    return str(x)


def parse_rational(s) -> Fraction:
    if isinstance(s, bool):
        raise ValueError("rationals must be strings or integers, got bool")
    if isinstance(s, int):
        return Fraction(s)
    if isinstance(s, str):
        return Fraction(s)
    raise ValueError(f"rationals must be strings or integers, got {type(s).__name__}")


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
    if isinstance(obj, str):
        return builtin(obj)
    dim = obj["dim"]
    table = {}
    for entry in obj.get("brackets", []):
        i, j, k = entry["i"] - 1, entry["j"] - 1, entry["k"] - 1
        if not i < j:
            raise ValueError("bracket entries must have i < j (antisymmetry is implied)")
        c = parse_rational(entry["c"])
        table[(i, j, k)] = c
        table[(j, i, k)] = -c
    return make_lie_algebra(dim, table, name=obj.get("name"))


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
        terms[key] = terms.get(key, Fraction(0)) + parse_rational(entry["c"])
    return terms


# -- Weil elements -----------------------------------------------------


def weil_element_to_json(a: WeilElement) -> list:
    out = []
    for (e, s), c in a.sorted_terms():
        out.append({"ext": [i + 1 for i in indices_of(e)], "sym": list(s),
                    "c": rational_str(c)})
    return out


def weil_element_from_json(n, obj) -> WeilElement:
    return WeilElement(n, _terms_from_json(obj, "ext", "sym", n))


# -- chart forms and connections ---------------------------------------


def chart_form_to_json(a: ChartForm) -> dict:
    terms = []
    for (mask, e), c in a.sorted_terms():
        terms.append({"dx": [i + 1 for i in indices_of(mask)], "mono": list(e),
                      "c": rational_str(c)})
    return {"dim": a.m, "terms": terms}


def chart_form_from_json(obj) -> ChartForm:
    m = obj["dim"]
    if type(m) is not int or m < 0:
        raise ValueError("a chart form dim must be a nonnegative integer")
    return ChartForm(m, _terms_from_json(obj.get("terms", []), "dx", "mono", m))


def poly_to_json(p) -> list:
    out = []
    for e, c in sorted(p.items(), key=lambda kv: (sum(kv[0]), kv[0])):
        out.append({"mono": list(e), "c": rational_str(c)})
    return out


def poly_from_json(obj, m) -> dict:
    return {e: c for (_, e), c in _terms_from_json(obj, None, "mono", m).items() if c}


def connection_to_json(A: LieValuedForm) -> dict:
    return {"algebra": algebra_to_json(A.algebra), "chart_dim": A.chart_dim,
            "components": [chart_form_to_json(c) for c in A.components]}


def connection_from_json(obj, algebra=None) -> LieValuedForm:
    if "algebra" in obj:
        parsed = algebra_from_json(obj["algebra"])
        if algebra is not None and parsed != algebra:
            raise ValueError("connection file algebra disagrees with the requested algebra")
        algebra = parsed
    if algebra is None:
        raise ValueError("no algebra given for the connection")
    m = obj["chart_dim"]
    comps = [chart_form_from_json(c) for c in obj["components"]]
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
