"""Seeded job lists for the four benchmark workloads.

Every input is plain JSON in the formats the README documents (algebras by
builtin name, connection and gauge files, action matrices as rational
strings) plus an argv list for ``weil.cli.main``.  Nothing here imports the
package under test: the program only ever sees these generated inputs, and
the same seed always gives the same files and argv.

Each job carries an ``expect`` dict with what ``checks.py`` needs to judge
its output independently of the code being timed.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction
from pathlib import Path

WORKLOADS = ("weil-basic", "weil-model", "schur-oracle", "small-jobs")

ALGEBRAS = ("su2", "sl2", "heisenberg3")

# Structure constants [e_i, e_j] = sum_k f^k_ij e_k (0-based, i < j only),
# as documented for the builtins; used to write conjugated adjoint actions.
BRACKETS = {
    "su2": {(0, 1): {2: 1}, (1, 2): {0: 1}, (0, 2): {1: -1}},
    "sl2": {(0, 1): {1: 2}, (0, 2): {2: -2}, (1, 2): {0: 1}},
    "heisenberg3": {(0, 1): {2: 1}},
}

# Faithful representations of the builtin groups' unipotent parts: the
# (row, col) entries (1-based) a unipotent gauge may fill.
UNIPOTENT_ENTRIES = {"sl2": ((1, 2),), "heisenberg3": ((1, 2), (2, 3), (1, 3))}

MODEL_CONFIGS = ((2, 2), (3, 1))  # (degree, poly cap)
ORACLE_CONFIGS = ((3, 1, 2), (1, 2, 2), (2, 1, 3), (2, 1, 2), (4, 0, 2), (1, 1, 3))
INJECT_CONFIGS = (("Sym3", 5, 3), ("Tensor3", 4, 2), ("Sym2", 6, 3),
                  ("Lambda3", 6, 2), ("Sym3", 6, 2))


def generate(workload: str, seed: int, work: Path, root: Path) -> list[dict]:
    """Write the workload's input files under ``work`` and return its jobs.

    Paths in argv are relative to ``root``, the directory the jobs run in.
    The job list itself is written to ``work/jobs.json``.
    """
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(f"{workload}:{seed}")
    work.mkdir(parents=True, exist_ok=True)
    files = _Files(work, root)
    jobs = {"weil-basic": _weil_basic, "weil-model": _weil_model,
            "schur-oracle": _schur_oracle, "small-jobs": _small_jobs}[workload](rng, files)
    rng.shuffle(jobs)
    (work / "jobs.json").write_text(json.dumps(jobs, indent=1, sort_keys=True) + "\n")
    return jobs


class _Files:
    def __init__(self, work: Path, root: Path):
        self.work = work
        self.root = root

    def write(self, name, obj) -> str:
        path = self.work / name
        path.write_text(json.dumps(obj, sort_keys=True) + "\n")
        return str(path.relative_to(self.root))


def _job(ident, kind, argv, **expect):
    return {"id": ident, "kind": kind, "argv": argv, "expect": expect}


# -- weil-basic ---------------------------------------------------------


def _weil_basic(rng, files):
    jobs = []
    for alg in ALGEBRAS:
        for d in range(8, 15):
            jobs.append(_job(f"basic-{alg}-{d}", "basic",
                             ["basic", "--algebra", alg, "--degree", str(d)],
                             algebra=alg, degree=d))
        jobs.append(_job(f"invariants-{alg}-10", "invariants",
                         ["invariants", "--algebra", alg, "--max-degree", "10"],
                         algebra=alg, max_degree=10))
    jobs.append(_job("cohomology-4-10", "cohomology",
                     ["cohomology", "--dim", "4", "--max-degree", "10"],
                     dim=4, max_degree=10))
    return jobs


# -- weil-model ---------------------------------------------------------


def adjoint_matrices(alg):
    """ad(e_i) as integer matrices: column j holds the coordinates of [e_i, e_j]."""
    n = 3
    mats = [[[0] * n for _ in range(n)] for _ in range(n)]
    for (i, j), img in BRACKETS[alg].items():
        for k, c in img.items():
            mats[i][k][j] += c
            mats[j][k][i] -= c
    return mats


def _matmul(a, b):
    n = len(a)
    return [[sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n)] for i in range(n)]


# P = L U for L, U the unit lower and upper triangular matrices of ones: a
# product of elementary integer matrices, so P^-1 = U^-1 L^-1 is integral.
# Conjugating by P fills the adjoint matrices in and grows their entries.
_P = [[1, 1, 1], [1, 2, 2], [1, 2, 3]]
_P_INV = [[2, -1, 0], [-1, 2, -1], [0, -1, 1]]


def conjugator(rng):
    """(Q, Q^-1) for Q = P D, D a seeded diagonal of signs.

    The signs change the numbers a seed produces but not the size of the
    eliminations: D only flips the signs of coordinates, so every seed costs
    the same and seeds do not spread the timings.
    """
    signs = [rng.choice((-1, 1)) for _ in range(3)]
    Q = [[_P[i][j] * signs[j] for j in range(3)] for i in range(3)]
    Q_inv = [[signs[i] * _P_INV[i][j] for j in range(3)] for i in range(3)]
    return Q, Q_inv


def _weil_model(rng, files):
    jobs = []
    for alg in ALGEBRAS:
        Q, Q_inv = conjugator(rng)
        conj = [_matmul(_matmul(Q_inv, a), Q) for a in adjoint_matrices(alg)]
        path = files.write(f"action-{alg}.json", [[[str(x) for x in row] for row in m]
                                                   for m in conj])
        for deg, cap in MODEL_CONFIGS:
            tail = ["--degree", str(deg), "--poly-cap", str(cap)]
            jobs.append(_job(f"model-{alg}-{deg}-{cap}", "equivariant",
                             ["equivariant", "--algebra", alg, "--action", "adjoint"] + tail,
                             algebra=alg, degree=deg, poly_cap=cap))
            jobs.append(_job(f"model-{alg}-{deg}-{cap}-conj", "equivariant",
                             ["equivariant", "--algebra", alg, "--action-json", path] + tail,
                             algebra=alg, degree=deg, poly_cap=cap))
    return jobs


# -- schur-oracle -------------------------------------------------------


def _schur_oracle(rng, files):
    return [_job(f"oracle-{p}-{q}-{v}", "oracle",
                 ["oracle", "--p", str(p), "--q", str(q), "--dimV", str(v)], p=p, q=q, dim_v=v)
            for p, q, v in ORACLE_CONFIGS]


# -- small-jobs ---------------------------------------------------------
# Sizes (chart dims, term counts, degrees) cycle with the job index; the seed
# picks coefficients, variables and positions.  Seeds then change the inputs
# but not how much work a pass does.

CONNECTION_PAIRS = 24
POLY_JOBS = 24  # of each of decompose and check


def _poly(rng, m, degrees):
    """Sparse polynomial {exponent tuple: Fraction}, one seeded term per degree."""
    p = {}
    for degree in degrees:
        e = [0] * m
        for _ in range(degree):
            e[rng.randrange(m)] += 1
        p[tuple(e)] = p.get(tuple(e), Fraction(0)) + Fraction(
            rng.choice((-3, -2, -1, 1, 2, 3)), rng.choice((1, 1, 2, 3)))
    return {e: c for e, c in p.items() if c} or {tuple(e): Fraction(1)}


def _poly_json(p):
    return [{"mono": list(e), "c": str(c)} for e, c in sorted(p.items())]


def _connection(rng, alg, m):
    comps = []
    for _ in range(3):
        terms = []
        for i in rng.sample(range(m), 2):
            terms += [{"dx": [i + 1], **t} for t in _poly_json(_poly(rng, m, (1, 2)))]
        comps.append({"dim": m, "terms": terms})
    return {"algebra": alg, "chart_dim": m, "components": comps}


def _gauge(rng, alg, m):
    if alg == "su2":
        quat = [0, 0, 0, 0]
        while not any(quat):
            quat = [rng.randint(-3, 3) for _ in range(4)]
        return {"kind": "constant", "quaternion": [str(x) for x in quat]}
    return {"kind": "unipotent",
            "entries": [{"row": r, "col": c, "poly": _poly_json(_poly(rng, m, (1, 2)))}
                        for r, c in UNIPOTENT_ENTRIES[alg]]}


# (Sym^2 g*)^g: su2 has the Casimir; sl2 and heisenberg3 are asked for a
# member of the invariant basis (casimir is not invariant for them).
INVARIANTS = {"su2": ("casimir", "basis:2:0"), "sl2": ("basis:2:0",),
              "heisenberg3": ("basis:2:0", "basis:2:1", "basis:2:2")}

_VARS = ("x", "y", "z")


def _expr_text(rng, p):
    """Render a polynomial in the CLI grammar, mixing aliases, x<i>, ^ and **."""
    parts = []
    for e, c in sorted(p.items(), key=lambda kv: rng.random()):
        factors = []
        for i, k in enumerate(e):
            if not k:
                continue
            name = _VARS[i] if rng.random() < 0.5 else f"x{i + 1}"
            factors.append(name if k == 1 else f"{name}{rng.choice(('^', '**'))}{k}")
        mag = abs(c)
        if mag != 1 or not factors:
            factors.insert(0, str(mag))
        body = "*".join(factors)
        if not parts:
            parts.append(f"-{body}" if c < 0 else body)
        else:
            parts.append(f" {'-' if c < 0 else '+'} {body}")
    return "".join(parts)


def _small_jobs(rng, files):
    jobs = []
    for t in range(CONNECTION_PAIRS):
        alg, cycle = ALGEBRAS[t % 3], t // 3
        m = (4, 5, 6)[cycle % 3]
        inv = INVARIANTS[alg][cycle % len(INVARIANTS[alg])]
        conn = files.write(f"conn-{t}.json", _connection(rng, alg, m))
        gauge = files.write(f"gauge-{t}.json", _gauge(rng, alg, m))
        jobs.append(_job(f"cw-{t}", "cw", ["cw", "--connection", conn, "--invariant", inv],
                         algebra=alg, chart_dim=m, form_degree=4))
        jobs.append(_job(f"gauge-{t}", "gauge", ["gauge", "--connection", conn, "--gauge", gauge],
                         pair=f"cw-{t}", invariant=inv))
    for t in range(POLY_JOBS):
        # expressions start with '-' about half the time: always pass --expr=...
        dim, degree, outputs = 2 + t % 2, 2 + (t // 2) % 2, 1 + (t // 4) % 2
        polys = [_poly(rng, dim, (degree, 1, 0)) for _ in range(outputs)]
        text = ", ".join(_expr_text(rng, p) for p in polys)
        jobs.append(_job(f"decompose-{t}", "decompose",
                         ["polyfunc", "decompose", f"--expr={text}", "--degree", str(degree),
                          "--dim", str(dim)], polys=[_poly_json(p) for p in polys], degree=degree))
        degree = 1 + (t // 2) % 2
        text = _expr_text(rng, _poly(rng, dim, (degree, 1, 0)))
        jobs.append(_job(f"check-{t}", "check",
                         ["polyfunc", "check", f"--expr={text}", "--degree", str(degree),
                          "--dim", str(dim)]))
    for functor, copies, base in INJECT_CONFIGS:
        jobs.append(_job(f"inject-{functor}-{copies}-{base}", "inject",
                         ["polyfunc", "inject", "--functor", functor, "--copies", str(copies),
                          "--base-dim", str(base)], functor=functor, copies=copies, base_dim=base))
    return jobs
