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
make; "fused pass" (with its vehicle gate and near test), "Hessian check"
(eigvalsh), "solves" (linsolve) and "re-solve" (the warm closest_pairs
refresh of the near pairs) are those of the continuation after it.
"bookkeeping" is the plain job's time less every stage's: attractors, the
continuation loop and its records.

A last, untimed plan counts the fused passes (the pre-relaxation's and the
continuation's) that the vehicle gate (planner.PairTable.beyond) cleared,
those that ran the near test (planner.PairTable.near) and found a pair near,
and the samples whose near pairs were re-solved.

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
    "re-solve": [(pl, "closest_pairs")],
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
    """(fused passes, those the vehicle gate cleared, those whose near test
    found a pair near, samples, samples re-solved) of one plan; the passes
    include the pre-relaxation's."""
    pair_sums, solve = pl._pair_sums, pl.closest_pairs
    passes, warm = [], []

    def counted_pair_sums(ev, z, Gp, Go, jf, cleared):
        out = pair_sums(ev, z, Gp, Go, jf, cleared)
        passes.append((cleared, len(ev.near)))
        return out

    def counted_solve(*args, init=None):
        # the cold solve at the start point takes no initial angles
        warm.append(init is not None)
        return solve(*args, init=init)

    with mock.patch.object(pl, "_pair_sums", counted_pair_sums), \
            mock.patch.object(pl, "closest_pairs", counted_solve):
        traj = hz.plan(s, mode).traj
    return (len(passes), sum(c for c, _ in passes), sum(n > 0 for _, n in passes),
            len(traj.s) - 1, sum(warm))


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
    passes, cleared, found, samples, resolved = gate_counts(s, args.mode)
    print(f"vehicle gate: cleared {cleared} of {passes} fused passes; the near test ran on "
          f"{passes - cleared} and found a pair near on {found}; "
          f"{resolved} of {samples} samples re-solved")
    return 0


if __name__ == "__main__":
    sys.exit(main())
