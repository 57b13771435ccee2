"""Every binding site the benchmark's tracer wraps must exist in the package.

``bench/tracer.py`` patches functions at ``module:attribute`` sites and reads
``owner.__dict__[attr]``; a refactor that renames or stops binding one of
them would break ``bench/run.py --trace 1``.  The tracer is loaded by path,
as the benchmark does, and is not modified.
"""

import importlib.util
from pathlib import Path

import pytest

TRACER_PATH = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("weil_bench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TRACER = _load_tracer()
SITES = sorted({site for table in (TRACER.SPANS, TRACER.COUNTS)
                for sites in table.values() for site in sites})


@pytest.mark.parametrize("site", SITES)
def test_binding_site_resolves(site):
    owner, attr = TRACER._resolve(site)
    assert callable(owner.__dict__[attr]), site
