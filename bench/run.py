"""weil benchmark: closed-loop CLI workloads, end-to-end and per-layer metrics.

    python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from anywhere inside a source checkout; the package is imported from the
checkout's ``src/``, never from an installed copy, and the run fails (exit 2,
no result) when there is none.  One client issues the workload's jobs to
``weil.cli.main(argv)`` in-process, one after another, with stdout captured:
a closed loop.  The seed fixes the generated inputs, which are written under
``bench/_work/`` before anything is timed.

A run is: set-up timing in fresh interpreters, one warm-up pass whose
outputs are checked, then a fixed number of timed passes (sized so that the
passes take about ``--seconds`` on a 2-core x86 host).  Times are corrected
for the host's speed as hostspeed.py describes.  With ``--trace 0``
the timed passes are plain and the end-to-end metrics are reported; with
``--trace 1`` plain and traced passes alternate and the per-layer metrics
are reported.  Every metric is printed by name with its unit; the last line
is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import hostspeed  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

# Timed passes at --seconds 15, about 15 s of passes on a 2-core x86 host;
# other --seconds scale them.  A count, not a deadline, so both commits of a
# comparison run the same passes.  With few distinct jobs the tail sample
# (the 11th largest) should fall inside one job's block of repeats, not at
# its edge, which rules out 5 passes for schur-oracle's 6 jobs.
PASSES_AT_15S = {"weil-basic": 4, "weil-model": 3, "schur-oracle": 7, "small-jobs": 8}
MIN_PASSES = 3
SETUP_RUNS = 9
TAIL_BEYOND = 10  # samples a tail percentile must leave above it
SELF_SUM_TOLERANCE = 0.05

SETUP_CODE = ("import sys; sys.path.insert(0, 'src'); import weil.cli; "
              "weil.cli.build_parser()")


class SourceMissing(RuntimeError):
    pass


def import_cli():
    """weil.cli from this checkout's src/, or SourceMissing."""
    src = ROOT / "src"
    if not (src / "weil" / "cli.py").is_file():
        raise SourceMissing(f"no package source at {src}")
    sys.path.insert(0, str(src))
    import weil
    import weil.cli
    if Path(weil.__file__).resolve().parent != src / "weil":
        raise SourceMissing(f"weil was imported from {weil.__file__}, not {src}")
    return weil.cli


# -- running jobs ------------------------------------------------------------


def run_job(main, argv):
    """(exit code, stdout) of one CLI invocation; a crash is a failed job."""
    buf = io.StringIO()
    try:
        with contextlib.redirect_stdout(buf):
            code = main(list(argv))
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 2
    except Exception:  # a crashing job is counted as failed and the run goes on
        traceback.print_exc()
        code = -1
    return code, buf.getvalue()


class Pass(NamedTuple):
    """One pass; times are host-speed corrected (see hostspeed.py)."""

    wall: float  # sum of the jobs' wall times
    cpu: float
    job_s: list
    outputs: dict  # job id -> (exit code, stdout)
    raw_wall: float  # uncorrected, probes excluded
    factors: dict  # job id -> corrected time over the job's elapsed time


def run_pass(jobs, main, tracer=None):
    clock, cpu_clock = time.perf_counter, time.process_time
    if tracer is not None:
        main = tracer.span(tracing.CLI_SPAN, main)
    outputs, timings = {}, []
    with hostspeed.HostSpeed() as speed:
        for job in jobs:
            if tracer is not None:
                tracer.job = job["id"]
            probed, cpu0, start = speed.spent, cpu_clock(), clock()
            outputs[job["id"]] = run_job(main, job["argv"])
            end = clock()
            timings.append((start, end, cpu_clock() - cpu0, speed.spent - probed))
    job_s, cpu, factors = [], 0.0, {}
    for job, (start, end, job_cpu, probed) in zip(jobs, timings):
        f = speed.factor(start, end)
        job_s.append((end - start - probed) * f)
        cpu += (job_cpu - probed) * f
        factors[job["id"]] = job_s[-1] / (end - start)
    return Pass(wall=sum(job_s), cpu=cpu, job_s=job_s, outputs=outputs,
                raw_wall=sum(end - start - probed for start, end, _, probed in timings),
                factors=factors)


class Verdicts:
    """Judges each job output once; a pass's failures are counted against it.

    A job fails when it exits nonzero, when its output fails its check, or
    when its stdout differs from the same job's stdout earlier in the run.
    """

    def __init__(self, jobs, main, work):
        self.jobs = {job["id"]: job for job in jobs}
        self.main = main
        self.work = work
        self.reference = {}
        self.problems = {}

    def record_reference(self, outputs):
        self.reference = {ident: out for ident, (_, out) in outputs.items()}
        for ident, (code, out) in outputs.items():
            if code != 0:
                self.problems[ident] = f"exit code {code}"
                continue
            try:
                problem = checks.check(self.jobs[ident], out, self.reference, self._run_cw)
            except Exception as exc:  # a malformed output is a failed check
                problem = f"check raised {type(exc).__name__}: {exc}"
            if problem:
                self.problems[ident] = problem

    def failures(self, outputs):
        failed = []
        for ident, (code, out) in outputs.items():
            if code != 0 or ident in self.problems or out != self.reference[ident]:
                failed.append(ident)
        return failed

    def _run_cw(self, connection, invariant):
        path = self.work / "check-connection.json"
        path.write_text(json.dumps(connection))
        code, out = run_job(self.main, ["cw", "--connection", str(path.relative_to(ROOT)),
                                        "--invariant", invariant])
        return json.loads(out)["results"]["chern_weil_form"] if code == 0 else None


# -- measurements ------------------------------------------------------------------


def setup_seconds():
    """Median time for a fresh interpreter to import weil.cli and build the parser.

    Bytecode caching is on whatever the caller's environment says, as for an
    installed package; the first interpreter writes the cache.
    """
    env = {k: v for k, v in os.environ.items()
           if k not in ("PYTHONPATH", "PYTHONDONTWRITEBYTECODE")}
    times = []
    for _ in range(SETUP_RUNS):
        with hostspeed.HostSpeed() as speed:  # probes while this process waits
            start = time.perf_counter()
            subprocess.run([sys.executable, "-c", SETUP_CODE], cwd=ROOT, env=env, check=True)
            end = time.perf_counter()
        times.append((end - start) * speed.factor(start, end))
    return statistics.median(times)


def tail(samples):
    """(value, percentile) at the highest percentile with TAIL_BEYOND samples above it."""
    ordered = sorted(samples)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def end_to_end(passes, setup_s):
    # Every pass runs the same jobs, so each job run's time is taken as that
    # job's median over the passes: the tail then lands on one job's steady
    # time instead of the noisiest of its repeats.
    job_s = [statistics.median(runs) for runs in zip(*(p.job_s for p in passes))
             for _ in passes]
    tail_s, tail_pct = tail(job_s)
    metrics = {
        "setup_s": (setup_s, "s"),
        "wall_s": (statistics.median(p.wall for p in passes), "s"),
        "cpu_s": (statistics.median(p.cpu for p in passes), "s"),
        "job_s.p50": (statistics.median(job_s), "s"),
        "job_s.tail": (tail_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    raw = statistics.median(p.raw_wall for p in passes)
    notes = {"setup_s": f"median of {SETUP_RUNS} interpreters",
             "wall_s": f"median of {len(passes)} passes; uncorrected {raw:.4g} s",
             "cpu_s": f"median of {len(passes)} passes",
             "job_s.p50": f"n={len(job_s)}",
             "job_s.tail": f"p{tail_pct:.1f}, n={len(job_s)}, {TAIL_BEYOND} beyond"}
    return metrics, notes


UNITS = {"_s": "s", "bytes": "bytes", "bits": "bits"}


def _unit(name):
    if name in tracing.RATIO_METRICS or name.endswith("_frac"):
        return "ratio"
    for suffix, unit in UNITS.items():
        if name.endswith(suffix):
            return unit
    return "count"


def per_layer(plain, traced, layer_runs, failed_frac):
    """Medians over the traced passes, plus tracing overhead and self-time coverage."""
    metrics = {name: statistics.median(run[name] for run in layer_runs)
               for name in layer_runs[0]}
    traced_wall = statistics.median(p.wall for p in traced)
    metrics["trace.overhead_frac"] = traced_wall / statistics.median(p.wall for p in plain) - 1
    metrics["failed_frac"] = failed_frac
    return {name: (value, _unit(name)) for name, value in metrics.items()}


# -- main ---------------------------------------------------------------------------


def passes_for(workload, seconds):
    return max(MIN_PASSES, round(PASSES_AT_15S[workload] * seconds / 15))


def run(workload, seed, seconds, trace):
    cli = import_cli()
    os.chdir(ROOT)
    work = BENCH / "_work" / f"{workload}-{seed}"
    shutil.rmtree(work, ignore_errors=True)
    jobs = workloads.generate(workload, seed, work, ROOT)
    print(f"# {workload} seed={seed}: {len(jobs)} jobs, inputs in {work.relative_to(ROOT)}")

    setup_s = None if trace else setup_seconds()
    verdicts = Verdicts(jobs, cli.main, work)
    verdicts.record_reference(run_pass(jobs, cli.main).outputs)  # warm-up
    for ident, problem in sorted(verdicts.problems.items()):
        print(f"# FAIL {ident}: {problem}")

    n = passes_for(workload, seconds)
    plain, traced, layer_runs, spans = [], [], [], []
    if not trace:
        plain = [run_pass(jobs, cli.main) for _ in range(n)]
    else:
        for _ in range(max(2, n // 2)):
            plain.append(run_pass(jobs, cli.main))
            tr = tracing.Tracer()
            tr.install()
            try:
                traced.append(run_pass(jobs, cli.main, tr))
            finally:
                tr.remove()
            layers = tr.metrics(traced[-1].factors)
            layers["trace.self_sum_frac"] = sum(tr.self_times(traced[-1].factors).values()) / traced[-1].wall
            layer_runs.append(layers)
            spans.append(tr.spans)
        # [name, job id, start, end, parent index] per span, one list per traced pass
        (work / "spans.json").write_text(json.dumps(spans))
    failed = [ident for p in plain + traced for ident in verdicts.failures(p.outputs)]
    attempted = len(jobs) * len(plain + traced)
    correct = not failed
    if failed:
        print(f"# {len(failed)} failed job runs: {sorted(set(failed))}")

    if not trace:
        metrics, notes = end_to_end(plain, setup_s)
    else:
        metrics, notes = per_layer(plain, traced, layer_runs, len(failed) / attempted), {}
        coverage = [r["trace.self_sum_frac"] for r in layer_runs]
        if any(abs(c - 1) > SELF_SUM_TOLERANCE for c in coverage):
            correct = False
            print(f"# layer self times cover {coverage} of the traced wall time")
        if any(p.outputs != q.outputs for p, q in zip(plain, traced)):
            correct = False
            print("# traced stdout differs from untraced stdout")
    for name, (value, unit) in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"{name} {value:.6g} {unit}{note}")
    if not trace:  # it can read 0, so attempted and failed carry it, not metrics
        print(f"failed_frac {len(failed) / attempted:.6g} ratio  ({len(failed)} of {attempted})")
    return {"correct": correct, "attempted": attempted, "failed": len(failed),
            "metrics": {name: {"value": value, "unit": unit}
                        for name, (value, unit) in metrics.items()}}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        result = run(args.workload, args.seed, args.seconds, args.trace)
    except SourceMissing as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
