"""Per-layer spans and counters, recorded from outside the package.

``Tracer.install()`` replaces layer functions with wrappers at every name
they are bound under (modules bind with ``from ... import``, so a function
can live under several names) and ``remove()`` restores the originals.
Nothing under ``src/`` changes.  Spans are kept in memory as
``[name, job, start, end, parent]`` and turned into self times afterwards:
a span's self time is its duration minus that of its direct children, so
the self times of one pass add up to the time spent inside ``cli.main``.

Counters that would cost a span per call (``multiply``, ``wedge``, the
oracle's ``domain_action``) are counts only; their time stays in the span
that calls them.  ``liealg``, ``masks`` and ``invariant_polynomials`` have
no loop of their own, so their time lands in their callers' spans, and
``acceptance`` is the test suite rather than user traffic: none of them
gets a metric.
"""

from __future__ import annotations

import importlib
import time
from collections import defaultdict

# span name -> binding sites ("module:attribute[.attribute]")
SPANS = {
    "jsonio.parse": ("weil.jsonio:connection_from_json", "weil.jsonio:weil_element_from_json"),
    "jsonio.emit": ("weil.jsonio:canonical_json",),
    "weil_algebra.basis": ("weil.weil_algebra:weil_basis",),
    "weil_algebra.assembly": ("weil.weil_algebra:operator_rows",
                              "weil.invariant_polynomials:operator_rows"),
    "equivariant.basis": ("weil.equivariant:WeilModel.basis",),
    "equivariant.assembly": ("weil.equivariant:WeilModel.basic_constraint_rows",),
    "schur_oracle.enumerate": ("weil.schur_oracle:domain_basis",),
    "schur_oracle.assembly": ("weil.schur_oracle:equivariant_hom_dim",),
    # every caller reaches linalg through the module attribute
    "linalg.elim": ("weil.linalg:_forward_eliminate",),
    "linalg.backsub": ("weil.linalg:rank", "weil.linalg:rref", "weil.linalg:nullspace",
                       "weil.linalg:solve"),
    "chern_weil.cw": ("weil.cli:cw_form",),
    "chern_weil.gauge": ("weil.cli:gauge_transform",),
    "chern_weil.rep": ("weil.cli:builtin_rep", "weil.cli:constant_gauge",
                       "weil.cli:unipotent_gauge"),
    "polyfunctor.decompose": ("weil.cli:homogeneous_decompose",),
    "polyfunctor.check": ("weil.cli:is_polynomial",),
    "polyfunctor.inject": ("weil.cli:restriction_injectivity",),
}

# counter name -> binding sites.  Every derivation (d_K, contract, and the
# Lie derivative built from them, also where weil.equivariant binds them as
# d_K and weil_contract) goes through weil_algebra.odd_derivation, so that
# one site counts them all without counting any twice.
COUNTS = {
    "weil_algebra.derivation_calls": ("weil.weil_algebra:odd_derivation",),
    "weil_algebra.multiply_calls": ("weil.weil_algebra:multiply", "weil.cli:multiply"),
    "chart_forms.wedge_calls": ("weil.chart_forms:wedge", "weil.chern_weil:wedge"),
    "chart_forms.d_calls": ("weil.chart_forms:d", "weil.chern_weil:d", "weil.equivariant:chart_d"),
    "schur_oracle.action_calls": ("weil.schur_oracle:domain_action",),
}

CLI_SPAN = "cli.self"
TIME_METRICS = (CLI_SPAN,) + tuple(SPANS)
COUNT_METRICS = (
    "jsonio.emit_bytes",
    "weil_algebra.rows", "weil_algebra.nnz", "weil_algebra.derivation_calls",
    "weil_algebra.multiply_calls",
    "equivariant.unknowns", "equivariant.rows", "equivariant.nnz",
    "schur_oracle.unknowns", "schur_oracle.rows", "schur_oracle.action_calls",
    "linalg.calls", "linalg.rows_in", "linalg.nnz_in", "linalg.rank", "linalg.max_bits",
    "chart_forms.wedge_calls", "chart_forms.d_calls",
)
RATIO_METRICS = ("schur_oracle.action_yield", "linalg.row_yield", "linalg.fill_ratio")


def _resolve(site):
    module, _, path = site.partition(":")
    owner = importlib.import_module(module)
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name)
    return owner, attr


class Tracer:
    def __init__(self):
        self.spans = []
        self.counts = defaultdict(int)
        self.job = None
        self._stack = []
        self._saved = []
        self._domain_weight = None

    # -- wrappers ---------------------------------------------------------

    def span(self, name, fn, after=None, before=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            state = before(self) if before else None
            idx = len(spans)
            rec = [name, self.job, 0.0, 0.0, stack[-1] if stack else None]
            spans.append(rec)
            stack.append(idx)
            rec[2] = clock()
            try:
                out = fn(*args, **kwargs)
                if after:
                    after(self, args, out, state)
                return out
            finally:
                rec[3] = clock()
                stack.pop()
        return traced

    def count(self, name, fn, after=None):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[name] += 1
            out = fn(*args, **kwargs)
            if after:
                after(self, args, out)
            return out
        return counted

    # -- installation ---------------------------------------------------------

    def install(self):
        if self._saved:
            raise RuntimeError("tracer is already installed")
        self._domain_weight = importlib.import_module("weil.schur_oracle").domain_weight
        for name, sites in SPANS.items():
            after, before = _OBSERVERS.get(name, (None, None))
            for site in sites:
                self._patch(site, lambda fn: self.span(name, fn, after, before))
        for name, sites in COUNTS.items():
            after = _COUNT_OBSERVERS.get(name)
            for site in sites:
                self._patch(site, lambda fn: self.count(name, fn, after))

    def _patch(self, site, make):
        owner, attr = _resolve(site)
        original = owner.__dict__[attr]
        self._saved.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def remove(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # -- results ------------------------------------------------------------

    def self_times(self, factors):
        """Self time per span name, each span scaled by its job's host-speed factor."""
        child = [0.0] * len(self.spans)
        for _, _, start, end, parent in self.spans:
            if parent is not None:
                child[parent] += end - start
        out = dict.fromkeys(TIME_METRICS, 0.0)
        for (name, job, start, end, _), inner in zip(self.spans, child):
            out[name] += (end - start - inner) * factors[job]
        return out

    def metrics(self, factors):
        """Per-layer metrics of everything recorded since construction."""
        c = self.counts
        out = {f"{name}_s": t for name, t in self.self_times(factors).items()}
        out.update({name: c[name] for name in COUNT_METRICS})
        out["schur_oracle.action_yield"] = _ratio(c["schur_oracle.action_useful"],
                                                  c["schur_oracle.action_calls"])
        out["linalg.row_yield"] = _ratio(c["linalg.rank"], c["linalg.rows_in"])
        out["linalg.fill_ratio"] = _ratio(c["linalg.nnz_out"], c["linalg.nnz_in"])
        return out


def _ratio(num, den):
    return num / den if den else 0.0


# -- observers: sizes from each call's arguments and return value ------------


def _emit(tr, args, out, state):
    tr.counts["jsonio.emit_bytes"] += len(out)


def _operator_rows(tr, args, rows, state):
    tr.counts["weil_algebra.rows"] += len(rows)
    tr.counts["weil_algebra.nnz"] += sum(map(len, rows))


def _model_rows(tr, args, out, state):
    dom, rows = out
    tr.counts["equivariant.unknowns"] += len(dom)
    tr.counts["equivariant.rows"] += len(rows)
    tr.counts["equivariant.nnz"] += sum(map(len, rows))


def _linalg_snapshot(tr):
    return tr.counts["linalg.rank"], tr.counts["linalg.rows_in"]


def _hom_dim(tr, args, dim, state):
    """unknowns = kernel dim + rank of the oracle's own elimination."""
    rank0, rows0 = state
    tr.counts["schur_oracle.unknowns"] += dim + tr.counts["linalg.rank"] - rank0
    tr.counts["schur_oracle.rows"] += tr.counts["linalg.rows_in"] - rows0


def _eliminate(tr, args, pivots, state):
    c, rows = tr.counts, args[0]
    c["linalg.calls"] += 1
    c["linalg.rows_in"] += len(rows)
    c["linalg.nnz_in"] += sum(map(len, rows))
    c["linalg.rank"] += len(pivots)
    c["linalg.nnz_out"] += sum(len(r) for _, r in pivots)
    bits = max((abs(v).bit_length() for _, r in pivots for v in r.values()), default=0)
    c["linalg.max_bits"] = max(c["linalg.max_bits"], bits)


def _action(tr, args, images):
    """A call is useful when its image has a codomain (Lambda^r W*) weight."""
    if images:
        problem = args[0]
        w = tr._domain_weight(problem, images[0][0])
        if max(w) <= 1 and sum(w) == problem.codomain_degree:
            tr.counts["schur_oracle.action_useful"] += 1


_OBSERVERS = {
    "jsonio.emit": (_emit, None),
    "weil_algebra.assembly": (_operator_rows, None),
    "equivariant.assembly": (_model_rows, None),
    "schur_oracle.assembly": (_hom_dim, _linalg_snapshot),
    "linalg.elim": (_eliminate, None),
}
_COUNT_OBSERVERS = {"schur_oracle.action_calls": _action}
