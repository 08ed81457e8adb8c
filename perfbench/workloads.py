"""Workload generation, the operation each workload times, and its output checks.

Every workload flies or plans the tree scene: a 8 m x 5.2 m box with two
boxy trunks (eps 0.3 and 0.4) and a round one. The scenario text is generated
here, so the benchmark does not change when the repository's own scenario
files do; the library only ever sees the generated file.

- plan-tree: one ``amplan plan`` job (plan, metrics, emit). It does not use
  the seed and runs no control code.
- fly-tree: one 4800-tick closed-loop mission through ``simulate``; the plan
  is made during set-up. The seed drives the wind-noise stream.
- fly-open: the same mission with no obstacles, so geometry, clearance
  routing and the barrier rows have no pairs to work on.
"""

from __future__ import annotations

import hashlib
import math
import os
from dataclasses import dataclass, field

import numpy as np

RESIDUAL_MAX = 1e-2            # equilibrium residual bound on every plan
INFEASIBLE_MAX_FRAC = 1e-3     # share of ticks the safety QP may fail
THRUST_TOL = 1e-6              # slack on the thrust band [t_min, t_max]
WIND_NOISE_STD = 0.5           # [N], noise on top of the square-wave gust

_TREE_OBSTACLES = """
  - {a1: 0.55, a2: 0.55, eps: 0.3, angle: 0.0, center: [3.5, 4.09]}
  - {a1: 0.32, a2: 0.32, eps: 1.0, angle: 0.0, center: [3.5, 0.9]}
  - {a1: 0.4, a2: 0.3, eps: 0.4, angle: 0.2, center: [6.4, 4.3]}"""

_SCENARIO = """format: 1
name: {name}
world_box: [0.0, 0.0, 8.0, 5.2]
obstacles:{obstacles}
start: [0.7, 1.8, 1.5707963267948966, 0.0, 0.0]
goal: [6.6, 2.2, 1.5707963267948966]
flight_height: 1.0
duration: 20.0
settle_time: 4.0
dt: 0.005
wind: {{amplitude: 2.0, period: 12.0, smoothing: 0.35, axis: 0, noise_std: {noise}}}
"""


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _metrics_digest_text(text: str) -> str:
    """metrics.txt without its plan_time line, which is a wall time."""
    return "".join(ln for ln in text.splitlines(keepends=True)
                   if not ln.startswith("plan_time "))


@dataclass
class Outcome:
    """What one checked operation produced."""

    problems: list = field(default_factory=list)
    digests: dict = field(default_factory=dict)
    plan_time: float = math.nan


def _check_plan(planned, out: Outcome):
    res = float(np.max(planned.grad_norms))
    if not res <= RESIDUAL_MAX:
        out.problems.append(f"equilibrium residual {res:.3e} > {RESIDUAL_MAX}")
    out.plan_time = planned.plan_time


@dataclass(frozen=True)
class Workload:
    name: str
    flies: bool
    obstacles: bool

    def scenario_text(self) -> str:
        # the wind noise only matters in flight, where the seed reaches it
        # through simulate(..., seed=)
        return _SCENARIO.format(name="tree" if self.obstacles else "tree-open",
                                obstacles=_TREE_OBSTACLES if self.obstacles else " []",
                                noise=WIND_NOISE_STD if self.flies else 0.0)

    # -- set-up: load and validate the scenario; on fly-* also plan ------------

    def setup(self, hz, path):
        s = hz.load_scenario(path)
        return (s, hz.plan(s, "sq") if self.flies else None)

    def check_setup(self, hz, state) -> Outcome:
        out = Outcome()
        _, planned = state
        if planned is not None:
            _check_plan(planned, out)
            out.digests["trajectory.csv"] = _sha(hz.trajectory_csv(planned.traj))
        return out

    def check_clearance(self, hz, state) -> Outcome:
        """min_distance > 0 for the set-up plan (a full metric pass)."""
        out = Outcome()
        s, planned = state
        if planned is not None:
            d = float(np.min(hz.min_distance_profile(planned.traj, s.vehicle, s.obstacles)))
            if not d > 0.0:
                out.problems.append(f"planned min_distance {d:.4f} <= 0")
        return out

    # -- the timed operation ----------------------------------------------------

    def op(self, hz, state, seed, out_dir):
        s, planned = state
        if self.flies:
            return hz.simulate(s, planned.traj, "sq", seed=seed)
        planned = hz.plan(s, "sq")
        report = hz.metrics(planned.traj, None, s, planned.plan_time)
        hz.emit(out_dir, planned.traj, None, report, planned.cells, planned.graph)
        return planned, report

    def sim_seconds(self, state) -> float:
        s, _ = state
        return int(round((s.settle_time + s.duration) / s.dt)) * s.dt

    def check_op(self, hz, state, result, out_dir) -> Outcome:
        out = Outcome()
        s, _ = state
        if not self.flies:
            planned, report = result
            _check_plan(planned, out)
            if not report.min_distance > 0.0:
                out.problems.append(f"min_distance {report.min_distance:.4f} <= 0")
            for fname in sorted(os.listdir(out_dir)):
                with open(os.path.join(out_dir, fname)) as f:
                    text = f.read()
                if fname == "metrics.txt":
                    text = _metrics_digest_text(text)
                out.digests[fname] = _sha(text)
            return out
        tel = result
        n = len(tel.t)
        h_min = float(np.min(tel.h_min))
        if not h_min > 0.0:
            out.problems.append(f"h_min {h_min:.4f} <= 0")
        infeasible = int(np.count_nonzero(~tel.feasible))
        if infeasible >= INFEASIBLE_MAX_FRAC * n:
            out.problems.append(f"{infeasible} of {n} ticks infeasible")
        thrust = tel.thrust[tel.feasible]
        t_min, t_max = s.safety.t_min, s.safety.t_max
        if thrust.size and (thrust.min() < t_min - THRUST_TOL
                            or thrust.max() > t_max + THRUST_TOL):
            out.problems.append(f"thrust [{thrust.min():.6f}, {thrust.max():.6f}] "
                                f"outside [{t_min}, {t_max}]")
        for key in ("q", "qdot", "theta", "thrust", "d_hat"):
            if not np.all(np.isfinite(getattr(tel, key))):
                out.problems.append(f"non-finite {key} in telemetry")
        out.digests["telemetry.csv"] = _sha(hz.telemetry_csv(tel))
        return out


WORKLOADS = {w.name: w for w in (
    Workload("plan-tree", flies=False, obstacles=True),
    Workload("fly-tree", flies=True, obstacles=True),
    Workload("fly-open", flies=True, obstacles=False),
)}
