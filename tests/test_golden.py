"""Golden corpus: frozen stdout of fixed CLI invocations, compared byte for byte.

Each case runs ``weil.cli.main`` in-process from the repository root, so the
relative input paths (which the report echoes in ``command`` and hashes into
``inputs_digest``) are the same on every run.  The files under
``tests/golden/`` were written once and are never regenerated by the tests.
"""

import contextlib
import io
from pathlib import Path

import pytest

from weil.cli import main

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"
INPUTS = "tests/golden/inputs/"

# (name, expected exit code, argv)
CASES = [
    ("basic-su2-2", 0, ["basic", "--algebra", "su2", "--degree", "2"]),
    ("basic-su2-4", 0, ["basic", "--algebra", "su2", "--degree", "4"]),
    ("basic-sl2-4", 0, ["basic", "--algebra", "sl2", "--degree", "4"]),
    ("basic-sl2-6", 0, ["basic", "--algebra", "sl2", "--degree", "6"]),
    ("basic-heisenberg3-3", 0, ["basic", "--algebra", "heisenberg3", "--degree", "3"]),
    ("basic-heisenberg3-4", 0, ["basic", "--algebra", "heisenberg3", "--degree", "4"]),
    ("basic-su2-8", 0, ["basic", "--algebra", "su2", "--degree", "8"]),
    ("basic-sl2-10", 0, ["basic", "--algebra", "sl2", "--degree", "10"]),
    ("basic-heisenberg3-10", 0, ["basic", "--algebra", "heisenberg3", "--degree", "10"]),
    ("basic-abelian3-4", 0, ["basic", "--algebra", "abelian3", "--degree", "4"]),
    ("basic-so3-5", 0, ["basic", "--algebra", "so3", "--degree", "5"]),
    ("invariants-heisenberg3-4", 0, ["invariants", "--algebra", "heisenberg3", "--max-degree", "4"]),
    ("invariants-sl2-4", 0, ["invariants", "--algebra", "sl2", "--max-degree", "4"]),
    ("invariants-su2-6", 0, ["invariants", "--algebra", "su2", "--max-degree", "6"]),
    ("invariants-su2-10", 0, ["invariants", "--algebra", "su2", "--max-degree", "10"]),
    ("invariants-sl2-10", 0, ["invariants", "--algebra", "sl2", "--max-degree", "10"]),
    ("invariants-heisenberg3-10", 0, ["invariants", "--algebra", "heisenberg3",
                                      "--max-degree", "10"]),
    ("basic-su2-12", 0, ["basic", "--algebra", "su2", "--degree", "12"]),
    ("basic-sl2-12", 0, ["basic", "--algebra", "sl2", "--degree", "12"]),
    ("cohomology-2-6", 0, ["cohomology", "--dim", "2", "--max-degree", "6"]),
    ("equivariant-rot2", 0, ["equivariant", "--algebra", "abelian1", "--action", "rot2",
                             "--degree", "1", "--poly-cap", "2"]),
    ("equivariant-rot2-json", 0, ["equivariant", "--algebra", "abelian1", "--action-json",
                                  INPUTS + "action_rot2_scaled.json",
                                  "--degree", "2", "--poly-cap", "2"]),
    ("equivariant-su2-adjoint", 0, ["equivariant", "--algebra", "su2", "--action", "adjoint",
                                    "--degree", "2", "--poly-cap", "1"]),
    ("equivariant-sl2-adjoint", 0, ["equivariant", "--algebra", "sl2", "--action", "adjoint",
                                    "--degree", "1", "--poly-cap", "2"]),
    ("equivariant-su2-trivial2", 0, ["equivariant", "--algebra", "su2", "--action", "trivial:2",
                                     "--degree", "2", "--poly-cap", "1"]),
    # Q^-1 ad Q for Q = [[1,1,1],[1,2,2],[1,2,3]], whose inverse is integral
    ("equivariant-su2-conjugate-4-2", 0, ["equivariant", "--algebra", "su2", "--action-json",
                                          INPUTS + "action_su2_conjugate.json",
                                          "--degree", "4", "--poly-cap", "2"]),
    ("equivariant-su2-conjugate-5-2", 0, ["equivariant", "--algebra", "su2", "--action-json",
                                          INPUTS + "action_su2_conjugate.json",
                                          "--degree", "5", "--poly-cap", "2"]),
    # the cap edge of the 3-dimensional chart, and the degree-6 rung of sl2 and the su2 conjugate
    ("equivariant-su2-adjoint-8-4", 0, ["equivariant", "--algebra", "su2", "--action", "adjoint",
                                        "--degree", "8", "--poly-cap", "4"]),
    ("equivariant-sl2-adjoint-6-3", 0, ["equivariant", "--algebra", "sl2", "--action", "adjoint",
                                        "--degree", "6", "--poly-cap", "3"]),
    ("equivariant-su2-conjugate-6-3", 0, ["equivariant", "--algebra", "su2", "--action-json",
                                          INPUTS + "action_su2_conjugate.json",
                                          "--degree", "6", "--poly-cap", "3"]),
    ("equivariant-heisenberg3-conjugate-5-2", 0, ["equivariant", "--algebra", "heisenberg3",
                                                  "--action-json",
                                                  INPUTS + "action_heisenberg3_conjugate.json",
                                                  "--degree", "5", "--poly-cap", "2"]),
    ("equivariant-heisenberg3-conjugate-6-3", 0, ["equivariant", "--algebra", "heisenberg3",
                                                  "--action-json",
                                                  INPUTS + "action_heisenberg3_conjugate.json",
                                                  "--degree", "6", "--poly-cap", "3"]),
    ("cw-su2-casimir", 0, ["cw", "--connection", INPUTS + "conn_su2.json",
                           "--invariant", "casimir"]),
    ("cw-heisenberg3-basis", 0, ["cw", "--connection", INPUTS + "conn_heisenberg3.json",
                                 "--invariant", "basis:1:1"]),
    ("cw-heisenberg3-json", 1, ["cw", "--connection", INPUTS + "conn_heisenberg3.json",
                                "--invariant-json", INPUTS + "invariant_heisenberg3.json"]),
    ("cw-heisenberg3-json-invariant", 0, ["cw", "--connection", INPUTS + "conn_heisenberg3.json",
                                          "--invariant-json",
                                          INPUTS + "invariant_heisenberg3_lamt1_lamt2.json"]),
    ("gauge-su2-quaternion", 0, ["gauge", "--connection", INPUTS + "conn_su2.json",
                                 "--gauge", INPUTS + "gauge_quaternion.json"]),
    ("gauge-heisenberg3-unipotent", 0, ["gauge", "--connection", INPUTS + "conn_heisenberg3.json",
                                        "--gauge", INPUTS + "gauge_unipotent.json"]),
    # the shapes of the slowest small-jobs: su2 casimir and an sl2 unipotent gauge on R^6
    ("cw-su2-casimir-6", 0, ["cw", "--connection", INPUTS + "conn_su2_6.json",
                             "--invariant", "casimir"]),
    ("gauge-sl2-unipotent-6", 0, ["gauge", "--connection", INPUTS + "conn_sl2_6.json",
                                  "--gauge", INPUTS + "gauge_sl2_unipotent.json"]),
    # the quadratic sl2 invariant on R^6, and the sl2 one on a 4-dimensional bracket algebra,
    # sl2 + R, on R^5
    ("cw-sl2-basis-2-0-6", 0, ["cw", "--connection", INPUTS + "conn_sl2_6.json",
                               "--invariant", "basis:2:0"]),
    ("cw-sl2-r-basis-2-1-5", 0, ["cw", "--connection", INPUTS + "conn_sl2_r_5.json",
                                 "--invariant", "basis:2:1"]),
    # the su2 tail jobs' gauge shape: three used generators, r = 4, no Maurer-Cartan term
    ("gauge-su2-quaternion-6", 0, ["gauge", "--connection", INPUTS + "conn_su2_6.json",
                                   "--gauge", INPUTS + "gauge_quaternion.json"]),
    # a zero connection: only g^-1 dg under a unipotent gauge, no matrix at all under a constant
    ("gauge-sl2-zero-unipotent-6", 0, ["gauge", "--connection", INPUTS + "conn_sl2_zero_6.json",
                                       "--gauge", INPUTS + "gauge_sl2_unipotent.json"]),
    ("gauge-sl2-zero-constant-6", 0, ["gauge", "--connection", INPUTS + "conn_sl2_zero_6.json",
                                      "--gauge", INPUTS + "gauge_sl2_constant.json"]),
    ("polyfunc-decompose", 0, ["polyfunc", "decompose", "--expr", "x^2*y - 3/2 + x, y^3",
                               "--degree", "3", "--dim", "2",
                               "--probes", INPUTS + "probes.json"]),
    ("polyfunc-check", 0, ["polyfunc", "check", "--expr", "x^3 - y/2", "--degree", "2",
                           "--dim", "2"]),
    # the ladder's shapes: two outputs at degree 3 on R^3 over the default probes, a
    # consistent and an inconsistent check at degree 2 on R^3, and a ray failure
    ("polyfunc-decompose-3-3", 0, ["polyfunc", "decompose", "--expr",
                                   "x^3 - 2*y*z + 1/2, x*y*z - z^2/3 + y",
                                   "--degree", "3", "--dim", "3"]),
    ("polyfunc-check-2-3", 0, ["polyfunc", "check", "--expr", "x^2 - y*z/2 + 3*z - 1",
                               "--degree", "2", "--dim", "3"]),
    ("polyfunc-check-witness-2-3", 0, ["polyfunc", "check", "--expr", "y^3 + x*z - 1/2",
                                       "--degree", "2", "--dim", "3"]),
    ("polyfunc-decompose-ray-failure", 1, ["polyfunc", "decompose", "--expr", "x^5",
                                           "--degree", "3", "--dim", "3"]),
    # a batch denominator above 1: rational probes with denominators 2, 3 and 7; and a
    # check at degree 4 on R^3, whose first trial set is a 125-point grid
    ("polyfunc-decompose-rational-3-3", 0, ["polyfunc", "decompose", "--expr",
                                            "x^3 - 2*y*z + 1/2, x*y*z - z^2/3 + y",
                                            "--degree", "3", "--dim", "3",
                                            "--probes", INPUTS + "probes_rational_3.json"]),
    ("polyfunc-check-4-3", 0, ["polyfunc", "check", "--expr", "x^4 - x*y*z/2 + 3*z^3 - y + 1/3",
                               "--degree", "4", "--dim", "3"]),
    ("polyfunc-inject", 0, ["polyfunc", "inject", "--functor", "Sym2", "--copies", "3",
                            "--base-dim", "2"]),
    ("oracle-1-1-2", 0, ["oracle", "--p", "1", "--q", "1", "--dimV", "2"]),
    ("oracle-2-2-2", 0, ["oracle", "--p", "2", "--q", "2", "--dimV", "2"]),
    # dim V 3 and 4, where several V-weights share an orbit, and the unknown cap's refusal
    ("oracle-2-1-3", 0, ["oracle", "--p", "2", "--q", "1", "--dimV", "3"]),
    ("oracle-2-1-4", 0, ["oracle", "--p", "2", "--q", "1", "--dimV", "4"]),
    ("oracle-2-2-3", 0, ["oracle", "--p", "2", "--q", "2", "--dimV", "3"]),
    ("oracle-0-5-3-over-cap", 1, ["oracle", "--p", "0", "--q", "5", "--dimV", "3"]),
    ("error-unknown-algebra", 1, ["basic", "--algebra", "nosuch", "--degree", "2"]),
]


@pytest.mark.parametrize("name,code,argv", CASES, ids=[c[0] for c in CASES])
def test_golden(name, code, argv, monkeypatch):
    monkeypatch.chdir(ROOT)
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        got = main(list(argv))
    assert got == code
    assert buf.getvalue().encode() == (GOLDEN / f"{name}.out").read_bytes()
