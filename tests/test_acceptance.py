"""Acceptance suite: one test per criterion, exact checks, stated budgets.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion lines,
or `weil verify-all` for the JSON report.
"""

import subprocess
import sys
import time
from pathlib import Path

from weil import acceptance

GOLDEN = Path(__file__).resolve().parent / "golden" / "verify-all.out"

BUDGETS = {1: 10, 2: 1, 3: 60, 4: 30, 5: 60, 6: 300, 7: 300, 8: 60, 9: 60}


def _run(criterion_fn, ident):
    t0 = time.time()
    result = criterion_fn()
    elapsed = time.time() - t0
    print(f"{result.line()}  [{elapsed:.2f}s]")
    assert result.passed, result.details
    assert elapsed < BUDGETS[ident], f"criterion {ident} exceeded {BUDGETS[ident]}s"
    return result


def test_criterion_1_koszul_acyclicity():
    _run(acceptance.criterion_1, 1)


def test_criterion_2_circle_case():
    _run(acceptance.criterion_2, 2)


def test_criterion_3_basic_equals_invariants():
    _run(acceptance.criterion_3, 3)


def test_criterion_4_curvature_generators():
    _run(acceptance.criterion_4, 4)


def test_criterion_5_cartan_calculus():
    result = _run(acceptance.criterion_5, 5)
    assert result.details["elements_checked"] >= 100


def test_criterion_6_chern_weil_suite():
    result = _run(acceptance.criterion_6, 6)
    counts = result.details["gauge_counts"]
    assert counts["constant"] >= 10 and counts["unipotent"] >= 10
    for name in ("abelian(1)", "su2", "heisenberg3"):
        assert result.details[name]["connections"] >= 20


def test_criterion_7_classification_oracle():
    _run(acceptance.criterion_7, 7)


def test_criterion_8_appendix_suite():
    _run(acceptance.criterion_8, 8)


def test_criterion_9_equivariant_weil_model():
    _run(acceptance.criterion_9, 9)


def test_criterion_10_verify_all_determinism():
    t0 = time.time()
    runs = []
    for _ in range(2):
        proc = subprocess.run([sys.executable, "-m", "weil.cli", "verify-all"],
                              capture_output=True, timeout=540)
        assert proc.returncode == 0, proc.stderr.decode()
        runs.append(proc.stdout)
    elapsed = time.time() - t0
    print(f"PASS criterion 10: verify-all byte-identical twice and to its golden file  "
          f"[{elapsed:.2f}s]")
    assert runs[0] == runs[1]
    assert runs[0] == GOLDEN.read_bytes()  # and to the committed report
    assert elapsed < 600
