"""The benchmark's tracer must see assembly and elimination where it looks.

``bench/tracer.py`` attributes time and sizes to the layer functions it
wraps.  A refactor that moves operator assembly out of every wrapped site
would leave the sites bound (``test_bench_sites.py``) but read zero.  One
``equivariant`` job and one ``cohomology`` job run in-process with the
tracer installed, as ``bench/run.py --trace 1`` runs them.
"""

import contextlib
import io

from test_bench_sites import TRACER
from weil.cli import main

JOBS = (["equivariant", "--algebra", "su2", "--action", "adjoint", "--degree", "2",
         "--poly-cap", "1"],
        ["cohomology", "--dim", "3", "--max-degree", "4"])


def run(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(list(argv))
    return code, buf.getvalue()


def test_traced_jobs_report_assembly_and_elimination():
    plain = [run(argv) for argv in JOBS]
    tracer = TRACER.Tracer()
    tracer.install()
    try:
        traced = [run(argv) for argv in JOBS]
    finally:
        tracer.remove()
    assert traced == plain
    assert all(code == 0 for code, _ in plain)
    metrics = tracer.metrics({None: 1.0})
    for name in ("equivariant.assembly_s", "weil_algebra.assembly_s", "equivariant.unknowns",
                 "equivariant.nnz", "linalg.calls"):
        assert metrics[name] > 0, name
