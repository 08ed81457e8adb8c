"""Command-line interface: plan, simulate, bench and metrics subcommands.

Exit codes: 0 on success, 2 on validation errors (bad arguments or scenario
files), 3 on runtime failures inside the pipeline, a plan that collides with
an obstacle among them (plan, simulate and bench write no file for it).
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys

from . import harness as hz
from .control import ControlError, GainError
from .dynamics import EulerSingularityError, PlantError
from .geometry import GeometryError
from .planner import PlannerError
from .qp import QpDimensionError
from .voronoi import VoronoiError

_VALIDATION_ERRORS = (hz.ScenarioError, GainError, GeometryError)
_RUNTIME_ERRORS = (hz.HarnessError, PlannerError, ControlError, VoronoiError,
                   EulerSingularityError, PlantError, QpDimensionError)


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="amplan",
                                description="whole-body planning and "
                                            "safety-critical control pipeline")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, with_mode=True):
        sp.add_argument("--scenario", required=True, action="append",
                        help="scenario file (repeatable for bench)")
        if with_mode:
            sp.add_argument("--mode", choices=("sq", "ellipse"), default="sq")
        sp.add_argument("--out", default=None, help="output directory")
        sp.add_argument("--seed", type=int, default=None)
        sp.add_argument("--dt", type=float, default=None,
                        help="override the control period [s]")
        sp.add_argument("--ns", type=int, default=None,
                        help="override the number of integration steps")

    common(sub.add_parser("plan", help="plan only; emit trajectory and diagram"))
    common(sub.add_parser("simulate", help="plan, simulate and emit everything"))
    common(sub.add_parser("bench", help="run all scenarios in both modes"), with_mode=False)
    met = sub.add_parser("metrics", help="recompute metrics from emitted files")
    met.add_argument("--scenario", required=True, action="append")
    met.add_argument("--out", required=True,
                     help="directory holding trajectory.csv / telemetry.csv / "
                          "metrics.txt")
    return p


def _load(path, dt=None, ns=None, seed=None) -> hz.Scenario:
    # the wind noise's generator takes no negative seed: say so before the plan
    if seed is not None and seed < 0:
        raise hz.ScenarioError(f"--seed: must be nonnegative, got {seed}")
    s = hz.load_scenario(path)
    # replace re-runs the validation: the dt range, and n_s >= 2
    if ns is not None:
        try:
            s = dataclasses.replace(s, planner=dataclasses.replace(s.planner, n_s=ns))
        except PlannerError as exc:
            raise hz.ScenarioError(f"--ns: {exc}") from exc
    return s if dt is None else dataclasses.replace(s, dt=dt)


def _check_out(out):
    """--out names a directory, or one that emit can create: fail before the
    scenario is loaded when it, or a path above it, is something else."""
    if out is None:
        return
    path = os.path.abspath(out)
    while not os.path.isdir(path):
        if os.path.lexists(path):
            raise hz.ScenarioError(f"--out: {path} exists and is not a directory")
        path = os.path.dirname(path)


def _cmd_plan_or_simulate(args) -> int:
    _check_out(args.out)
    s = _load(args.scenario[0], args.dt, args.ns, args.seed)
    if args.command == "plan":
        (pr, report), tel = hz.plan_checked(s, args.mode), None
    else:
        pr, tel, report = hz.run_pipeline(s, args.mode, seed=args.seed)
    if args.out:
        hz.emit(args.out, pr.traj, tel, report, pr.cells, pr.graph)
    print("\n".join(report.lines()))
    return 0


def _cmd_bench(args) -> int:
    _check_out(args.out)
    scenarios = [_load(path, args.dt, args.ns, args.seed) for path in args.scenario]
    for s in scenarios:
        hz.mission_ticks(s)
        hz.plan_samples(s)
    # every plan is made and checked before the first flight, so that a plan
    # that collides fails the run before any file is written
    plans = [(s, mode, *hz.plan_checked(s, mode))
             for s in scenarios for mode in ("sq", "ellipse")]
    results = []
    for s, mode, pr, report in plans:
        tel = hz.simulate(s, pr.traj, mode, seed=args.seed)
        hz.score_flight(report, tel)
        if args.out:
            hz.emit(os.path.join(args.out, f"{s.name}-{mode}"), pr.traj, tel, report,
                    pr.cells, pr.graph)
        results.append((s.name, mode, report, pr.traj.evals))
    results.sort(key=lambda r: (r[0], r[1]))
    print(f"{'scenario':<12}{'mode':<9}{'plan_time':>10}{'evals':>7}{'min_dist':>10}"
          f"{'arc_len':>9}{'jerkiness':>11}{'h_min':>8}{'infeas':>7}")
    for (name, mode, rep, evals) in results:
        print(f"{name:<12}{mode:<9}{rep.plan_time:>10.3f}{evals:>7d}"
              f"{rep.min_distance:>10.4f}{rep.arc_length:>9.3f}"
              f"{rep.jerkiness:>11.3e}{rep.h_co_min:>8.3f}"
              f"{rep.infeasible_ticks:>7d}")
    return 0


def _cmd_metrics(args) -> int:
    s = hz.load_scenario(args.scenario[0])
    traj = hz.load_trajectory_csv(os.path.join(args.out, "trajectory.csv"))
    tel_path = os.path.join(args.out, "telemetry.csv")
    tel = hz.load_telemetry_csv(tel_path) if os.path.exists(tel_path) else None
    stored = hz.load_metrics(os.path.join(args.out, "metrics.txt"))
    report = hz.metrics(traj, tel, s, stored.plan_time)
    print("\n".join(report.lines()))
    return 0


_COMMANDS = {"plan": _cmd_plan_or_simulate, "simulate": _cmd_plan_or_simulate,
             "bench": _cmd_bench, "metrics": _cmd_metrics}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        hz.float_spec()     # a bad AMPLAN_DIGITS fails before any scenario loads
        return _COMMANDS[args.command](args)
    except _VALIDATION_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except _RUNTIME_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
