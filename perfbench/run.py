#!/usr/bin/env python3
"""amplan benchmark: one workload, one seed, one process.

Usage (from the repository root):

    python3 perfbench/run.py --workload plan-tree --seed 1 --seconds 20 --trace 0

With ``--trace 0`` the run times operations untraced and reports the
end-to-end metrics, in seconds of a machine of steady speed (see speed.py):
a reference kernel interleaved with the work measures how fast the machine
runs at each moment. With ``--trace 1`` it runs one operation untraced and one
with every layer wrapped, checks that both give the same output digests, and
reports the per-layer metrics. The last line of standard output is the result
object; the lines before it are a readable table and a ``detail`` JSON line
(seed, scenario text, digests, failures, span table).

Everything runs in this one process: concurrent runs on the same machine
slow each other down and are not comparable.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback

from layers import layer_metrics, targets
from recorder import Recorder, installed
from speed import SpeedProbe

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK_DIR = os.path.join(ROOT, ".perfbench")
# set-up is repeated (at least 3 times, for at least 3 s) and its median reported
SETUP_MIN_REPEATS = 3
SETUP_MAX_REPEATS = 10
SETUP_MIN_SECONDS = 3.0
# the keys of workloads.WORKLOADS, which is imported after amplan's (timed)
# first import
WORKLOAD_NAMES = ("plan-tree", "fly-tree", "fly-open")


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = p.parse_args(argv)
    if not args.seconds > 0:
        p.error("--seconds must be positive")
    return args


def _import_amplan():
    """Import the harness from this checkout's src/ (and nowhere else).

    Returns the module and the ``(start, end)`` of its import; numpy is
    already loaded by then (speed.py uses it), so that is amplan's own share.
    """
    if not os.path.isfile(os.path.join(SRC, "amplan", "harness.py")):
        raise SystemExit(f"perfbench: no src/amplan under {ROOT}")
    sys.path.insert(0, SRC)
    t0 = time.perf_counter()
    hz = importlib.import_module("amplan.harness")
    span = (t0, time.perf_counter())
    if not os.path.abspath(hz.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"perfbench: imported amplan from {hz.__file__}, not {SRC}")
    return hz, span


class Ledger:
    """Operations attempted and failed, and the first digests of each output."""

    def __init__(self, baseline, workload, seed):
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.digests = {}
        self.baseline = baseline.get(workload, {})
        self.seed = seed

    def record(self, label, outcome=None, exc=None):
        self.attempted += 1
        problems = list(outcome.problems) if outcome is not None else []
        if exc is not None:
            problems.append("".join(traceback.format_exception_only(type(exc), exc)).strip())
        if outcome is not None:
            for fname, digest in outcome.digests.items():
                first = self.digests.setdefault(fname, digest)
                if digest != first:
                    problems.append(f"{fname} differs from the first run of the "
                                    f"same input and seed")
        if problems:
            self.failed += 1
            self.failures.append({"op": label, "problems": problems})

    def vs_parent(self):
        """Digest comparison with the parent commit; a difference is not a failure."""
        out = {}
        for fname, digest in sorted(self.digests.items()):
            ref = self.baseline.get(f"{fname}@{self.seed}", self.baseline.get(fname))
            out[fname] = "unrecorded" if ref is None else (
                "same" if ref == digest else "differs")
        return out


def _checked(ledger, label, fn):
    """Run fn() -> (value, outcome); record it; return value or None."""
    try:
        value, outcome = fn()
    except Exception as exc:  # an operation that raises is a counted failure
        ledger.record(label, exc=exc)
        return None
    ledger.record(label, outcome)
    return value


def _setup(ledger, w, hz, path, label):
    def fn():
        t0 = time.perf_counter()
        state = w.setup(hz, path)
        span = (t0, time.perf_counter())
        return (state, span), w.check_setup(hz, state)
    return _checked(ledger, label, fn)


def _op(ledger, w, hz, state, seed, work, label):
    out_dir = tempfile.mkdtemp(prefix="op-", dir=work)
    try:
        def fn():
            t0 = time.perf_counter()
            result = w.op(hz, state, seed, out_dir)
            span = (t0, time.perf_counter())
            outcome = w.check_op(hz, state, result, out_dir)
            return (span, outcome.plan_time), outcome
        return _checked(ledger, label, fn)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)


def run_untraced(args, w, hz, import_span, path, work, ledger, probe):
    setups = []
    start = time.perf_counter()
    while len(setups) < SETUP_MIN_REPEATS or (
            len(setups) < SETUP_MAX_REPEATS
            and time.perf_counter() - start < SETUP_MIN_SECONDS):
        got = _setup(ledger, w, hz, path, f"setup[{len(setups)}]")
        if got is None:
            return None
        setups.append(got)
    state = setups[0][0]

    ops = []
    start = time.perf_counter()
    k = 0
    while not ops or time.perf_counter() - start < args.seconds:
        got = _op(ledger, w, hz, state, args.seed, work, f"op[{k}]")
        k += 1
        if got is not None:
            ops.append(got)
        elif k >= 3 and not ops:
            return None
    op_spans = [span for span, _ in ops]
    setup_spans = [span for _, span in setups]
    job_s = statistics.median(probe.seconds(*sp) for sp in op_spans)
    setup_each = [probe.seconds(*sp) for sp in setup_spans]
    import_s = probe.seconds(*import_span)
    setup_s = import_s + statistics.median(setup_each)
    if w.flies:
        plan_times = [st[1].plan_time for st, _ in setups]
        plan_job_s = statistics.median(setup_each)
    else:
        plan_times = [pt for _, pt in ops]
        plan_job_s = job_s
    metrics = {
        "job_s": (job_s, "s"),
        "setup_s": (setup_s, "s"),
        "ok_frac": ((ledger.attempted - ledger.failed) / ledger.attempted, "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    readable = {
        "job_s": metrics["job_s"],
        "job_wall_s": (statistics.median(probe.wall(*sp) for sp in op_spans),
                       "s, wall, without the probe's share"),
        "plan_job_s": (plan_job_s, "s"),
        "plan_time_s": (statistics.median(plan_times),
                        "s, the program's own wall figure, probe share included"),
        "sim_rtf": ((w.sim_seconds(state) / job_s, "sim s / s") if w.flies
                    else (None, "no simulation on this workload")),
        "setup_s": (setup_s, "s"),
        "fail_frac": (ledger.failed / ledger.attempted, "ratio"),
        "peak_rss_mb": metrics["peak_rss_mb"],
        "probe.slowdown": (statistics.median(probe.slowdown(*sp) for sp in op_spans),
                           "kernel time / nominal, during the operations"),
        "probe.overhead_frac": (statistics.median(probe.overhead_frac(*sp) for sp in op_spans),
                                "share of operation wall time"),
    }
    extra = {"op_s": [probe.seconds(*sp) for sp in op_spans],
             "op_wall_s": [probe.wall(*sp) for sp in op_spans],
             "op_slowdown": [probe.slowdown(*sp) for sp in op_spans],
             "plan_times_s": plan_times, "setup_s_each": setup_each,
             "import_s": import_s, "probe_samples": len(probe.samples)}
    return metrics, readable, extra


def run_traced(args, w, hz, path, work, ledger):
    got = _setup(ledger, w, hz, path, "setup[untraced]")
    if got is None:
        return None
    state = got[0]
    # a full metric pass over the set-up plan (about 12 s on the tree), so it
    # runs here and not in every timed run
    _checked(ledger, "setup clearance", lambda: (None, w.check_clearance(hz, state)))
    base = _op(ledger, w, hz, state, args.seed, work, "op[untraced]")

    rec = Recorder()
    out_dir = tempfile.mkdtemp(prefix="op-", dir=work)
    try:
        with installed(rec, targets()) as missing:
            with rec.span("bench.setup"):
                state_t = w.setup(hz, path)
            t0 = time.perf_counter()
            with rec.span("bench.op"):
                result = w.op(hz, state_t, args.seed, out_dir)
            traced_wall = time.perf_counter() - t0
        # digests are taken after the wrappers are gone, so that hashing is
        # not recorded as work of the layers
        ledger.record("setup[traced]", w.check_setup(hz, state_t))
        ledger.record("op[traced]", w.check_op(hz, state_t, result, out_dir))
    except Exception as exc:  # a traced operation that raises is a counted failure
        ledger.record("traced", exc=exc)
        return None
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    if base is None:
        return None
    untraced_wall = base[0][1] - base[0][0]
    overhead = traced_wall / untraced_wall - 1.0
    metrics = layer_metrics(rec, state_t[0].dt, overhead, missing)
    spans = [{"parent": p, "name": n, **{k: round(v, 6) for k, v in row.items()}}
             for (p, n), row in sorted(rec.by_caller().items(),
                                       key=lambda kv: -kv[1]["time_s"])]
    extra = {"missing_targets": missing, "spans_by_caller": spans,
             "untraced_wall_s": untraced_wall, "traced_wall_s": traced_wall}
    return metrics, None, extra


def _fmt(v):
    return "n/a" if v is None else f"{v:.6g}"


def main(argv=None) -> int:
    args = _parse(argv)
    with contextlib.ExitStack() as stack:
        # untraced runs are timed against the reference kernel; the traced run
        # does not sample it, so its spans hold the pipeline's work only
        probe = None if args.trace else stack.enter_context(SpeedProbe())
        return _run(args, probe)


def _run(args, probe) -> int:
    hz, import_span = _import_amplan()
    from workloads import WORKLOADS

    w = WORKLOADS[args.workload]
    with open(os.path.join(HERE, "baseline.json")) as f:
        baseline = json.load(f)["digests"]
    os.makedirs(WORK_DIR, exist_ok=True)
    work = tempfile.mkdtemp(prefix="run-", dir=WORK_DIR)
    try:
        text = w.scenario_text()
        path = os.path.join(work, "scenario.yaml")
        with open(path, "w") as f:
            f.write(text)
        ledger = Ledger(baseline, w.name, args.seed)
        if args.trace:
            out = run_traced(args, w, hz, path, work, ledger)
        else:
            out = run_untraced(args, w, hz, import_span, path, work, ledger, probe)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if out is None:
        print(json.dumps({"failures": ledger.failures}), file=sys.stderr)
        print("perfbench: no operation of this workload completed", file=sys.stderr)
        return 1
    metrics, readable, extra = out

    print(f"perfbench {w.name} seed={args.seed} trace={args.trace} "
          f"attempted={ledger.attempted} failed={ledger.failed}")
    for name, (value, unit) in (readable or metrics).items():
        print(f"  {name:<40} {_fmt(value):>14}  {unit}")
    detail = {"workload": w.name, "seed": args.seed, "scenario": text,
              "digests": ledger.digests, "digests_vs_parent": ledger.vs_parent(),
              "failures": ledger.failures, **extra}
    print("detail " + json.dumps(detail))
    print(json.dumps({
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
