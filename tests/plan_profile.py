"""Time per plan of each stage of one plan job (plan, metric pass, emit).

Runs the job perfbench's plan-tree workload times, harness.plan, then
harness.metrics, then harness.emit into a temporary directory, once plain and
once with tick_profile's timing wrapper on each module attribute the job
looks up at call time (voronoi.build_cells, planner._fused_derivatives, ...).
Prints the milliseconds per plan of each stage, the least of --repeat runs,
and exits 1 unless the timed job's emitted files equal the plain job's byte
for byte (metrics.txt without its plan_time line, a wall time).

The continuation's stages are its own calls: pre-relaxation holds the cold
proxy solve and the damped Newton flow with every fused pass and solve they
make; "fused pass", "Hessian check" (eigvalsh), "solves" (linsolve) and "reach
gate" (within_reach and the warm closest_pairs refresh) are those of the
continuation after it.  "bookkeeping" is the plain job's time less every
stage's: attractors, the continuation loop and its records.

A last, untimed plan counts the fused passes (the pre-relaxation's and the
continuation's) that the vehicle gate (planner.PairTable.beyond) cleared,
and the reach gates it spared: the samples accepted on such a pass.

    PYTHONPATH=src python tests/plan_profile.py --scenario scenarios/tree.yaml \
        [--mode sq] [--repeat 5]

pytest does not collect this file (no test_ prefix).
"""

from __future__ import annotations

import argparse
import os
import sys
import tempfile
import time
from unittest import mock

from tick_profile import timed_stages

from amplan import harness as hz
from amplan import planner as pl
from amplan import voronoi as vor

# stage -> the (owner, attribute) pairs whose calls it sums, in job order
STAGES = {
    "cells": [(vor, "build_cells")],
    "graph": [(vor, "build_graph")],
    "path": [(vor, "solve_path")],
    "pre-relaxation": [(pl, "_init_gammas"), (pl, "_prerelax")],
    "fused pass": [(pl, "_fused_derivatives")],
    "Hessian check": [(pl, "eigvalsh")],
    "solves": [(pl, "linsolve")],
    "reach gate": [(pl._Evaluator, "within_reach"), (pl, "closest_pairs")],
    "metric pass": [(hz, "metrics")],
    "emit": [(hz, "emit")],
}


def plan_job(s, mode, out_dir):
    """One plan job; returns its emitted files, metrics.txt without plan_time."""
    planned = hz.plan(s, mode)
    report = hz.metrics(planned.traj, None, s, planned.plan_time)
    hz.emit(out_dir, planned.traj, None, report, planned.cells, planned.graph)
    files = {}
    for name in sorted(os.listdir(out_dir)):
        with open(os.path.join(out_dir, name), "rb") as f:
            data = f.read()
        if name == "metrics.txt":
            data = b"".join(ln for ln in data.splitlines(keepends=True)
                            if not ln.startswith(b"plan_time "))
        files[name] = data
    return files


def gate_counts(s, mode):
    """(fused passes, those the vehicle gate cleared, samples, reach gates
    skipped) of one plan; the passes include the pre-relaxation's."""
    fused, within = pl._fused_derivatives, pl._Evaluator.within_reach
    cleared, reach = [], []

    def counted_fused(ev, *args):
        out = fused(ev, *args)
        cleared.append(ev.far)
        return out

    def counted_within(ev):
        reach.append(1)
        return within(ev)

    with mock.patch.object(pl, "_fused_derivatives", counted_fused), \
            mock.patch.object(pl._Evaluator, "within_reach", counted_within):
        traj = hz.plan(s, mode).traj
    samples = len(traj.s) - 1
    return len(cleared), sum(cleared), samples, samples - len(reach)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--scenario", required=True)
    p.add_argument("--mode", choices=("sq", "ellipse"), default="sq")
    p.add_argument("--repeat", type=int, default=5)
    args = p.parse_args(argv)

    s = hz.load_scenario(args.scenario)
    plain_s, spent = float("inf"), dict.fromkeys(STAGES, float("inf"))
    with tempfile.TemporaryDirectory() as tmp:
        plain_dir, timed_dir = os.path.join(tmp, "plain"), os.path.join(tmp, "timed")
        for _ in range(args.repeat):
            t0 = time.perf_counter()
            plain = plan_job(s, args.mode, plain_dir)
            plain_s = min(plain_s, time.perf_counter() - t0)
            with timed_stages(STAGES) as stage_s:
                timed = plan_job(s, args.mode, timed_dir)
            if timed != plain:
                print("error: the timed job's files differ from the plain job's",
                      file=sys.stderr)
                return 1
            spent = {k: min(spent[k], v) for k, v in stage_s.items()}
    spent["bookkeeping"] = plain_s - sum(spent.values())

    print(f"{s.name} ({args.mode}): least of {args.repeat} runs, "
          f"{plain_s * 1e3:.2f} ms per plan job")
    print(f"{'stage':<16}{'ms/plan':>9}")
    for stage, seconds in spent.items():
        print(f"{stage:<16}{seconds * 1e3:>9.2f}")
    passes, cleared, samples, skipped = gate_counts(s, args.mode)
    print(f"vehicle gate: cleared {cleared} of {passes} fused passes, "
          f"spared {skipped} of {samples} reach gates")
    return 0


if __name__ == "__main__":
    sys.exit(main())
