"""Tests of the benchmark itself: python3 -m pytest bench/selftest.py

Kept out of the package's test suite (the name does not match test_*.py):
they check the harness, not the program.
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run as bench  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

CLI = bench.import_cli()


def _generate(workload, seed, root):
    jobs = workloads.generate(workload, seed, root / "work", root)
    files = {p.name: p.read_bytes() for p in sorted((root / "work").iterdir())}
    return jobs, files


def test_same_seed_same_inputs(tmp_path):
    for workload in workloads.WORKLOADS:
        first = _generate(workload, 7, tmp_path / f"{workload}-a")
        again = _generate(workload, 7, tmp_path / f"{workload}-b")
        assert first == again
    other = _generate("small-jobs", 8, tmp_path / "small-jobs-c")
    assert other[1] != first[1]


def _sites():
    return [site for table in (tracing.SPANS, tracing.COUNTS) for sites in table.values()
            for site in sites]


def test_tracer_wraps_then_restores(monkeypatch):
    monkeypatch.chdir(bench.ROOT)
    originals = [tracing._resolve(site) for site in _sites()]
    originals = [(owner, attr, owner.__dict__[attr]) for owner, attr in originals]
    jobs = [{"id": "basic", "argv": ["basic", "--algebra", "su2", "--degree", "4"]},
            {"id": "oracle", "argv": ["oracle", "--p", "1", "--q", "1", "--dimV", "3"]}]
    plain = bench.run_pass(jobs, CLI.main)
    tr = tracing.Tracer()
    tr.install()
    try:
        assert all(owner.__dict__[attr] is not fn for owner, attr, fn in originals)
        traced = bench.run_pass(jobs, CLI.main, tr)
    finally:
        tr.remove()
    assert all(owner.__dict__[attr] is fn for owner, attr, fn in originals)
    assert traced.outputs == plain.outputs
    m = tr.metrics(traced.factors)
    assert abs(sum(tr.self_times(traced.factors).values()) / traced.wall - 1) < bench.SELF_SUM_TOLERANCE
    assert m["weil_algebra.assembly_s"] > 0 and m["weil_algebra.derivation_calls"] > 0
    assert m["schur_oracle.assembly_s"] > 0 and m["schur_oracle.unknowns"] > 0
    assert m["linalg.calls"] > 0 and 0 < m["linalg.row_yield"] <= 1


def test_corrupted_output_is_counted(monkeypatch):
    monkeypatch.chdir(bench.ROOT)
    jobs = [{"id": "coh", "kind": "cohomology", "expect": {"dim": 2, "max_degree": 3},
             "argv": ["cohomology", "--dim", "2", "--max-degree", "3"]},
            {"id": "basic", "kind": "basic", "expect": {"algebra": "su2", "degree": 4},
             "argv": ["basic", "--algebra", "su2", "--degree", "4"]}]
    verdicts = bench.Verdicts(jobs, CLI.main, bench.BENCH / "_work")
    verdicts.record_reference(bench.run_pass(jobs, CLI.main).outputs)
    assert not verdicts.problems

    def corrupting(argv):
        code = CLI.main(argv)
        if argv[0] == "basic":
            print(" ")
        return code
    outputs = bench.run_pass(jobs, corrupting).outputs
    assert verdicts.failures(outputs) == ["basic"]

    # a wrong answer in the warm-up output fails its check in every pass
    wrong = dict(outputs)
    wrong["basic"] = (0, outputs["basic"][1].replace('"dim": 1', '"dim": 2'))
    bad = bench.Verdicts(jobs, CLI.main, bench.BENCH / "_work")
    bad.record_reference(wrong)
    assert set(bad.problems) == {"basic"}
    assert bad.failures(wrong) == ["basic"]


def test_tail_leaves_ten_samples_beyond():
    value, pct = bench.tail(list(range(100)))
    assert value == 89 and pct == 90.0
