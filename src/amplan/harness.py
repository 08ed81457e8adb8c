"""Scenario ingestion, pipeline orchestration, metrics and file emission.

A scenario file describes the world box, the obstacle superquadrics, the start
configuration and the goal pose, plus optional parameter overrides; defaults
follow the reference tuning.  The pipeline builds the clearance diagram, plans
a whole-body trajectory along the solution path, simulates the closed-loop
mission under a wind disturbance, and reduces everything to a small metrics
report.  All emitted files use fixed float formatting so identical inputs
produce byte-identical outputs.
"""

from __future__ import annotations

import math
import os
import re
import time
from dataclasses import dataclass, field, fields
from types import SimpleNamespace

import numpy as np
import yaml

from . import control as ctl
from . import dynamics as dyn
from . import voronoi as vor
from .geometry import (GeometryError, Superquadric2, check_numbers, closest_pairs,
                       radial_excess, shape_rows)
from .planner import (PairTable, PlannedTrajectory, PlannerError, PlannerParams,
                      VehicleGeometry, attractors_from_path, integrate_em, pair_rows,
                      set_part_poses, target_pose)


class ScenarioError(ValueError):
    """Invalid or inconsistent scenario description."""


class HarnessError(RuntimeError):
    """Pipeline failure outside scenario validation."""


SCENARIO_FORMAT = 1
_ENV_DIGITS = "AMPLAN_DIGITS"

# Node-snap radius [m] for the clearance graph: collapses the pseudo-triple
# points left by the straight-bisector approximation between unequal shapes
# (their spread grows with shape disparity; well below any edge length here).
GRAPH_SNAP = 0.15


def float_spec() -> str:
    """Format spec of the emitted floats: AMPLAN_DIGITS significant digits, 17
    by default; each emitted file reads it once."""
    raw = os.environ.get(_ENV_DIGITS, "")
    if not raw:
        return ".17g"
    try:
        d = int(raw)
    except ValueError as exc:
        raise ScenarioError(f"{_ENV_DIGITS} must be an integer, got {raw!r}") from exc
    if not (1 <= d <= 17):
        raise ScenarioError(f"{_ENV_DIGITS} must lie in [1, 17], got {d}")
    return f".{d}g"


@dataclass
class WindProfile:
    """Smoothed square-wave force on one translational axis, plus optional
    band-limited noise (zero by default so runs stay deterministic)."""

    amplitude: float = 2.0
    period: float = 12.0
    smoothing: float = 0.35
    axis: int = 0
    noise_std: float = 0.0

    def __post_init__(self):
        check_numbers(self, ScenarioError, ("amplitude", "period", "smoothing", "noise_std"),
                      ("axis",))
        if self.period <= 0.0 or self.smoothing <= 0.0:
            raise ScenarioError("wind.period and wind.smoothing must be positive")
        if self.axis not in (0, 1, 2):
            raise ScenarioError("wind.axis must be 0, 1 or 2")
        if self.noise_std < 0.0:
            raise ScenarioError("wind.noise_std must be nonnegative")

    def gust(self, t: float) -> float:
        """The square-wave force on the wind axis at time t."""
        return self.amplitude * math.tanh(
            math.sin(2.0 * math.pi * t / self.period) / self.smoothing)


_ANGLE_MAX = 2.0 * math.pi     # [rad], bound on the start's angles
# [m], bound on a world_box coordinate, far inside the 1e154 at which the
# clearance diagram's squared lengths overflow
_COORD_MAX = 1e6
# least obstacle exponent: the planner raises a point's normalized distance
# to the power 2 / eps, which at eps = 1e-3 overflows beyond 1.43
_EPS_MIN = 0.01


@dataclass
class Scenario:
    name: str
    world_box: tuple
    obstacles: list
    start: np.ndarray          # planar configuration [x, y, psi, th1, th3]
    goal: np.ndarray           # end-effector goal pose [x, y, heading]
    flight_height: float = 1.0
    duration: float = 20.0
    settle_time: float = 4.0
    dt: float = 0.005
    wind: WindProfile = field(default_factory=WindProfile)
    vehicle: VehicleGeometry = field(default_factory=VehicleGeometry)
    planner: PlannerParams = field(default_factory=PlannerParams)
    gains: ctl.GainSet = field(default_factory=ctl.GainSet)
    safety: ctl.SafetyParams = field(default_factory=ctl.SafetyParams)
    model: dyn.ModelParams = field(default_factory=dyn.ModelParams)

    def __post_init__(self):
        self.start = np.asarray(self.start, dtype=float)
        self.goal = np.asarray(self.goal, dtype=float)
        if self.start.shape != (5,):
            raise ScenarioError("start: must be [x, y, psi, th1, th3]")
        if self.goal.shape != (3,):
            raise ScenarioError("goal: must be [x, y, heading]")
        for name in ("start", "goal", "world_box"):
            if not np.isfinite(getattr(self, name)).all():
                raise ScenarioError(f"{name}: must be finite")
        if len(self.world_box) != 4 or not (self.world_box[0] < self.world_box[2]
                                            and self.world_box[1] < self.world_box[3]):
            raise ScenarioError("world_box: must be [xmin, ymin, xmax, ymax] with "
                                "positive extent")
        for v in self.world_box:
            if abs(v) > _COORD_MAX:
                raise ScenarioError(f"world_box: every coordinate must lie in [-1e6, 1e6], "
                                    f"got {v:g}")
        # the planner turns the start's angles by small steps, which a huge
        # angle has no bits to resolve
        for i in (2, 3, 4):
            if abs(self.start[i]) > _ANGLE_MAX:
                raise ScenarioError(f"start[{i}]: an angle must lie in [-2 pi, 2 pi], "
                                    f"got {self.start[i]:g}")
        for name in ("flight_height", "duration", "settle_time", "dt"):
            if not np.isfinite(getattr(self, name)):
                raise ScenarioError(f"{name}: must be finite")
        if self.duration <= 0.0:
            raise ScenarioError(f"duration: must be positive, got {self.duration}")
        if self.settle_time < 0.0:
            raise ScenarioError(f"settle_time: must be nonnegative, got {self.settle_time}")
        if not (0.0 < self.dt <= dyn.DT_MAX):
            raise ScenarioError(f"dt: must lie in (0, {dyn.DT_MAX}], got {self.dt}")
        # a mission too long to count its ticks in a float (mission_ticks)
        if not math.isfinite((self.settle_time + self.duration) / self.dt):
            name = "duration" if self.duration >= self.settle_time else "settle_time"
            raise ScenarioError(f"{name}: settle_time + duration has too many ticks of "
                                f"{self.dt} s to count, got {getattr(self, name):g} s")
        self._check_obstacles()
        self._check_start_clear()

    def _check_obstacles(self):
        """The clearance diagram's own rules: in the world box, pairwise
        disjoint; and every exponent at least _EPS_MIN."""
        for i, sq in enumerate(self.obstacles):
            if sq.eps < _EPS_MIN:
                raise ScenarioError(f"obstacles[{i}].eps: must be at least {_EPS_MIN:g}, "
                                    f"got {sq.eps:g}")
        try:
            vor.check_in_box(self.obstacles, self.world_box)
            vor.bisectors(self.obstacles)
        except vor.VoronoiError as exc:
            raise ScenarioError(str(exc)) from exc

    def _check_start_clear(self):
        try:
            gap = closest_pairs(*pair_rows(self.vehicle, shape_rows(self.obstacles),
                                           self.start)).gap
        except GeometryError as exc:
            raise ScenarioError(f"start: {exc}") from exc
        hit = np.flatnonzero(gap <= 0.0)
        if hit.size:
            p, o = divmod(int(hit[0]), len(self.obstacles))
            raise ScenarioError(f"start: vehicle part {p} collides with obstacles[{o}]")


# the fields load_scenario reads: any other key is a typo, not a default
_SCENARIO_FIELDS = ("format", "name", "world_box", "obstacles", "start", "goal", "flight_height",
                    "duration", "settle_time", "dt", "wind", "planner", "safety")
_OBSTACLE_FIELDS = ("a1", "a2", "eps", "angle", "center")


def _check_fields(raw: dict, allowed, path=""):
    """Raise ScenarioError on the first key of raw that allowed does not hold."""
    for key in raw:
        if key not in allowed:
            raise ScenarioError(f"{path}{key}: unknown field")


def _require(raw: dict, key: str):
    if key not in raw:
        raise ScenarioError(f"{key}: required field missing")
    return raw[key]


def _number(value, path: str) -> float:
    """value as a float; anything float() rejects raises ScenarioError naming path."""
    try:
        return float(value)
    except (TypeError, ValueError) as exc:
        raise ScenarioError(f"{path}: {exc}") from exc


def _numbers(value, path: str, n: int) -> tuple:
    """A list of n numbers as a tuple of floats.  Anything else raises
    ScenarioError naming path: a quoted string too, which float() would
    otherwise read digit by digit."""
    if not isinstance(value, list) or len(value) != n:
        raise ScenarioError(f"{path}: must be a list of {n} numbers, got {value!r}")
    return tuple(_number(v, path) for v in value)


def _obstacle_from_dict(d: dict, path: str) -> Superquadric2:
    if not isinstance(d, dict):
        raise ScenarioError(f"{path}: must be a mapping")
    _check_fields(d, _OBSTACLE_FIELDS, f"{path}.")
    for key in ("a1", "a2", "eps", "center"):
        if key not in d:
            raise ScenarioError(f"{path}.{key}: required field missing")
    a1, a2, eps = (_number(d[key], f"{path}.{key}") for key in ("a1", "a2", "eps"))
    angle = _number(d.get("angle", 0.0), f"{path}.angle")
    center = _numbers(d["center"], f"{path}.center", 2)
    try:
        return Superquadric2(a1=a1, a2=a2, eps=eps, angle=angle, center=center)
    except (TypeError, ValueError) as exc:
        raise ScenarioError(f"{path}: {exc}") from exc


def _sub_params(raw: dict, key: str, factory):
    """Build a parameter dataclass from an optional override mapping."""
    overrides = raw.get(key, {})
    if overrides is None:
        overrides = {}
    if not isinstance(overrides, dict):
        raise ScenarioError(f"{key}: must be a mapping of overrides")
    _check_fields(overrides, {f.name for f in fields(factory)}, f"{key}.")
    try:
        return factory(**overrides)
    except (TypeError, ValueError, ctl.ControlError, PlannerError) as exc:
        raise ScenarioError(f"{key}: {exc}") from exc


class _ScenarioLoader(yaml.SafeLoader):
    """SafeLoader that also reads exponent notation without a dot or without an
    exponent sign (1e-5, 2e3, 1.0e300) as a float, as YAML 1.2 does."""


_ScenarioLoader.add_implicit_resolver(
    "tag:yaml.org,2002:float",
    re.compile(r"^[-+]?(?:[0-9][0-9_]*(?:\.[0-9_]*)?|\.[0-9_]+)[eE][-+]?[0-9]+$"),
    list("-+0123456789."))


def _read(path) -> str:
    """The text of an input file; one that cannot be read (missing, a
    directory, not UTF-8) raises ScenarioError, a validation error."""
    try:
        with open(path, "r") as f:
            return f.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ScenarioError(f"cannot read {path}: {exc}") from exc


def load_scenario(path) -> Scenario:
    """Parse and validate a scenario file, applying default parameters."""
    try:
        raw = yaml.load(_read(path), Loader=_ScenarioLoader)
    except yaml.YAMLError as exc:
        raise ScenarioError(f"scenario file is not valid structured text: {exc}") from exc
    if not isinstance(raw, dict):
        raise ScenarioError("scenario file must contain a top-level mapping")
    fmt = raw.get("format")
    # the integer itself: not 1.0, 1.5 or true
    if type(fmt) is not int or fmt != SCENARIO_FORMAT:
        raise ScenarioError(f"format: expected the integer {SCENARIO_FORMAT}, got {fmt!r}")
    _check_fields(raw, _SCENARIO_FIELDS)

    obstacles_raw = _require(raw, "obstacles")
    if obstacles_raw is None:
        obstacles_raw = []
    if not isinstance(obstacles_raw, list):
        raise ScenarioError("obstacles: must be a list")
    obstacles = [_obstacle_from_dict(d, f"obstacles[{i}]")
                 for i, d in enumerate(obstacles_raw)]

    try:
        return Scenario(
            name=str(raw.get("name", "scenario")),
            world_box=_numbers(_require(raw, "world_box"), "world_box", 4),
            obstacles=obstacles,
            start=_require(raw, "start"),
            goal=_require(raw, "goal"),
            flight_height=_number(raw.get("flight_height", 1.0), "flight_height"),
            duration=_number(raw.get("duration", 20.0), "duration"),
            settle_time=_number(raw.get("settle_time", 4.0), "settle_time"),
            dt=_number(raw.get("dt", 0.005), "dt"),
            wind=_sub_params(raw, "wind", WindProfile),
            planner=_sub_params(raw, "planner", PlannerParams),
            safety=_sub_params(raw, "safety", ctl.SafetyParams),
        )
    except ScenarioError:
        raise
    except (TypeError, ValueError) as exc:
        raise ScenarioError(str(exc)) from exc


# --- ellipse ablation ----------------------------------------------------------

def ellipse_obstacles(obstacles: list) -> list:
    """Circumscribing-ellipse model of each obstacle (exponent 1, same center).

    The semi-axes are scaled by the shape's maximal radial excess over the
    same-axes ellipse (geometry.radial_excess), so the ellipse contains the
    original shape and, for eps < 1, touches it along the diagonals.
    """
    return [Superquadric2(a1=sq.a1 * radial_excess(sq.eps), a2=sq.a2 * radial_excess(sq.eps),
                          eps=1.0, angle=sq.angle, center=sq.center) for sq in obstacles]


def _model_obstacles(s: Scenario, mode: str) -> list:
    if mode == "sq":
        return list(s.obstacles)
    if mode == "ellipse":
        return ellipse_obstacles(s.obstacles)
    raise ScenarioError(f"mode must be 'sq' or 'ellipse', got {mode!r}")


# --- planning stage ------------------------------------------------------------

@dataclass
class PlanResult:
    traj: PlannedTrajectory
    cells: list | None
    graph: object | None
    path: object | None
    plan_time: float           # wall time of integrate_em (warm start, pre-relaxation,
                               # continuation); its counters are traj.evals, traj.max_corrector

    @property
    def grad_norms(self) -> np.ndarray:
        """|dW/dz| at every trajectory sample, as the continuation accepted it."""
        return self.traj.residuals


def plan(s: Scenario, mode: str = "sq") -> PlanResult:
    """Clearance diagram, path search and equilibrium-manifold integration."""
    obstacles = _model_obstacles(s, mode)
    params = s.planner
    eef0 = s.vehicle.forward_kinematics_eef(s.start)

    cells = graph = path = None
    if obstacles:
        try:
            cells = vor.build_cells(obstacles, s.world_box)
            graph = vor.build_graph(cells, merge_radius=GRAPH_SNAP)
            path = vor.solve_path(graph, eef0[:2], s.goal[:2])
        except vor.VoronoiError as exc:
            raise HarnessError(f"clearance diagram stage failed: {exc}") from exc
        attractors = attractors_from_path(path, eef0[2], s.goal)
    else:
        attractors = [np.asarray(s.goal, dtype=float)]

    t0 = time.perf_counter()
    traj = integrate_em(s.vehicle, obstacles, s.start, attractors, params)
    plan_time = time.perf_counter() - t0
    return PlanResult(traj=traj, cells=cells, graph=graph, path=path, plan_time=plan_time)


# --- closed-loop simulation ----------------------------------------------------

@dataclass
class Telemetry:
    t: np.ndarray
    q: np.ndarray              # (N, 6)
    qdot: np.ndarray           # (N, 6)
    theta: np.ndarray          # (N, 3)
    thrust: np.ndarray         # (N, 6)
    d_hat: np.ndarray          # (N, 6)
    d_true: np.ndarray         # (N, 6)
    h_min: np.ndarray          # (N,) min barrier h over the refreshed pairs, inf if none
    feasible: np.ndarray       # (N,) bool


def _hover(q, model: dyn.ControlTerms):
    """The nominal hover thrust at q and the observer's state at that
    disturbance-free hover, from the nominal terms model at (q, 0)."""
    T = np.dot(model.Binv, model.G)
    state = ctl.DobState.initialize(q)
    state.xp[0] = np.dot(model.MinvB, T).tolist()
    return T, state


# bytes that each tick holds until its mission ends: the Telemetry row (35
# floats and a flag; its d_true row is the wind-noise row, to which the tick
# adds the gust) and the target-schedule row (q_t and theta_t, 9 floats)
_TICK_BYTES = 44 * 8 + 1


def _physical_memory() -> float:
    try:
        return float(os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES"))
    except (AttributeError, ValueError, OSError):
        return math.inf


def _check_memory(name, n, items, item, need):
    """Raise ScenarioError naming the field name when the per-item arrays of n
    items, need bytes, exceed the machine's memory."""
    have = _physical_memory()
    if need > have:
        raise ScenarioError(f"{name}: {n} {items} need {need / 1e9:.3g} GB of per-{item} "
                            f"arrays, more than the {have / 1e9:.3g} GB of memory")


def mission_ticks(s: Scenario) -> int:
    """Control ticks of s's mission; raises ScenarioError, before anything is
    allocated, when their per-tick arrays exceed the machine's memory."""
    n = int(round((s.settle_time + s.duration) / s.dt))
    _check_memory("duration", n, "ticks", "tick", n * _TICK_BYTES)
    return n


# floats that each plan sample holds in its PlannedTrajectory besides the 2P
# proxy angles: s, z (5), u (3), the residual and the end effector (3)
_SAMPLE_FLOATS = 13


def plan_samples(s: Scenario) -> int:
    """n_s + 1, the most samples of s's plan once n_s reaches its path's K
    attractors (integrate_em takes max(1, n_s // K) steps toward each);
    raises ScenarioError, before anything is built, when their per-sample
    arrays exceed the machine's memory."""
    n = s.planner.n_s + 1
    floats = _SAMPLE_FLOATS + 2 * s.vehicle.n_parts * len(s.obstacles)
    _check_memory("n_s", n, "plan samples", "sample", n * floats * 8)
    return n


def simulate(s: Scenario, traj: PlannedTrajectory, mode: str = "sq",
             seed: int | None = None) -> Telemetry:
    """Run the full mission: hover settle phase, then trajectory tracking.

    The targets of every tick come from one planner.target_pose call on the
    mission's tick times.  Each tick evaluates the model once
    (dynamics.model_terms): the observer update, the constraint rows (the
    barrier rows refresh the proxies of the pairs near an obstacle) and the
    thrust law run on its nominal terms, the plant step on its true ones.
    The thrust is the thrust rows' own affine map at the QP's velocity
    reference, so the band the QP enforces is the band on the applied thrust;
    then the references integrate and the plant steps.

    A tick first takes the vehicle gate (ProxyTracker.far), unless the
    mission has no pair at all.  A tick it passes is far from every
    obstacle: no pair could emit a barrier row, so it skips cbf_rows, and the
    thrust rows alone go to the QP.  A tick's h_min is the least barrier h
    of the pairs cbf_rows refreshed, inf on a tick that refreshed none.
    """
    gains, safety, model = s.gains, s.safety, s.model
    tracker = ctl.ProxyTracker(s.vehicle, _model_obstacles(s, mode), safety.obstacle_height)

    q0 = np.array([s.start[0], s.start[1], s.flight_height, 0.0, 0.0, s.start[2]])
    theta0 = np.array([s.start[3], 0.0, s.start[4]])
    state = dyn.VehicleState(q=q0, theta=theta0)
    q_d, theta_d, thetadot_d = q0.copy(), theta0.copy(), np.zeros(3)
    T, dob = _hover(q0, dyn.model_terms(q0[3:], np.zeros(3), model).control)
    prev_x = None

    dt = s.dt
    n = mission_ticks(s)
    # the targets: the start pose while the vehicle settles, then the plan
    times = np.arange(n) * dt
    q_ref, theta_ref = target_pose(traj, times - s.settle_time, s.duration, s.flight_height)
    settled = int(np.searchsorted(times, s.settle_time))    # the ticks before settle_time
    q_ref[:settled], theta_ref[:settled] = q0, theta0
    # the wind noise, to which each tick adds its gust: the disturbance d_true
    noise = np.zeros((n, 6))
    if s.wind.noise_std > 0.0:
        rng = np.random.default_rng(0 if seed is None else seed)
        noise[:, s.wind.axis] = s.wind.noise_std * rng.standard_normal(n)

    tel = Telemetry(t=times, q=np.empty((n, 6)), qdot=np.empty((n, 6)),
                    theta=np.empty((n, 3)), thrust=np.empty((n, 6)),
                    d_hat=np.empty((n, 6)), d_true=noise,
                    h_min=np.full(n, math.inf), feasible=np.empty(n, dtype=bool))
    # with no pair no tick asks the vehicle gate, none has a barrier row and
    # every h_min stays inf
    pairs = tracker.pi.size > 0
    wind = s.wind

    for k in range(n):
        terms = dyn.model_terms(state.q[3:], state.qdot[3:], model)
        dob, d_hat = ctl.dob_update(dob, state.q, state.qdot, T, terms.control, gains, dt)
        thrust = ctl.thrust_limit_rows(q_d, state.q, state.qdot, d_hat, terms.control,
                                       gains, safety.t_min, safety.t_max)
        A, b = thrust.A, thrust.b
        if pairs and tracker.far(state.q):
            # no pair is near and none keeps its angles, as after a refresh of
            # no pair
            tracker.gammas.fill(np.nan)
        elif pairs:
            A2, b2, h_vals = ctl.cbf_rows(tracker, state.q, terms.R, state.qdot, state.theta,
                                          state.thetadot, q_d, gains, safety)
            # on most ticks no barrier row is emitted: the thrust rows go in as they are
            if b2.size:
                A, b = np.vstack([A, A2]), np.concatenate([b, b2])
            tel.h_min[k] = h_vals.min()
        res = ctl.outer_loop(q_ref[k], theta_ref[k], q_d, theta_d, thetadot_d, A, b,
                             gains, prev_x)
        prev_x = res.x
        T = thrust.thrust(res.qdot_d)
        d_true = noise[k]
        d_true[wind.axis] += wind.gust(k * dt)

        tel.q[k] = state.q
        tel.qdot[k] = state.qdot
        tel.theta[k] = state.theta
        tel.thrust[k] = T
        tel.d_hat[k] = d_hat
        tel.feasible[k] = res.feasible

        q_d = q_d + dt * res.qdot_d
        thetadot_d = thetadot_d + dt * res.thetaddot_d
        theta_d = theta_d + dt * thetadot_d
        state = dyn.step(state, terms.plant, T, theta_d, thetadot_d, res.thetaddot_d,
                         d_true, dt, model)
    return tel


# --- metrics -------------------------------------------------------------------

@dataclass
class MetricsReport:
    plan_time: float
    min_distance: float
    arc_length: float
    jerkiness: float
    h_co_min: float = math.nan
    flight_min_distance: float = math.nan
    thrust_min: float = math.nan
    thrust_max: float = math.nan
    infeasible_ticks: int = 0
    total_ticks: int = 0

    def lines(self):
        spec = float_spec()
        out = ["amplan metrics v1"]
        for f in fields(self):
            v = getattr(self, f.name)
            if f.type == "int":
                out.append(f"{f.name} {int(v)}")
            else:
                out.append(f"{f.name} {format(float(v), spec)}")
        return out


def min_distance_profile(traj, geom: VehicleGeometry, obstacles: list) -> np.ndarray:
    """Min signed gap between any vehicle part and any obstacle at each
    planar configuration of traj.z (n, 5): a plan's samples, or the poses of
    a flight (score_flight).

    Always evaluated against the shapes passed in (the caller supplies the
    original obstacle set, regardless of the planning mode).  Every solved
    pair is cold-started from its center-to-center direction, with no warm
    start from the previous sample; closest_pairs never mixes pairs, so each
    gets bit for bit the gap of solving it alone.

    Only the pairs that can hold a sample's minimum are solved.  Each pair's
    gap is at least lb = rho - r_obs: rho (PairTable.rho) bounds the distance
    from the obstacle's center to every point of the part, every obstacle
    point lies within r_obs of that center, and rho's rounding slack, a
    multiple of the sample's scene scale, which exceeds r_obs, also covers
    the subtraction.  One call solves the smallest-lb pair of every sample,
    giving its gap g1; a second solves the other pairs with lb <= max(g1,
    0).  A pruned pair has lb > max(g1, 0), so its gap, the distance between
    two boundary points, is at least lb: above the sample's minimum.  The
    profile is bit for bit that of solving all pairs.
    """
    n = len(traj.z)
    if not obstacles:
        return np.full(n, math.inf)
    obs_rows = shape_rows(obstacles)
    n_parts, n_obs = geom.n_parts, obs_rows.shape[1]
    # the parts' rows at every sample, one block of n_parts columns per sample
    parts = np.vstack([np.tile(geom.part_axes, n), np.empty((4, n_parts * n))])
    set_part_poses(parts, geom, np.arange(n_parts), traj.z)

    # (n, pairs) in planner.pair_index order
    table = PairTable(geom, obs_rows)
    lb = table.rho(parts[5:].reshape(2, n, n_parts, 1)) - table.r_obs

    def gaps(sample, pair):
        part, obs = np.divmod(pair, n_obs)
        return closest_pairs(parts[:, sample * n_parts + part], obs_rows[:, obs]).gap

    samples = np.arange(n)
    first = lb.argmin(axis=1)
    out = gaps(samples, first)
    lb[samples, first] = np.inf
    sample, pair = np.nonzero(lb <= np.maximum(out, 0.0)[:, None])
    np.minimum.at(out, sample, gaps(sample, pair))
    return out


def metrics(traj: PlannedTrajectory, telemetry: Telemetry | None, s: Scenario,
            plan_time: float) -> MetricsReport:
    """Reduce a planned trajectory (and optional telemetry) to the report."""
    if len(traj.s) < 4:
        raise HarnessError("metrics needs at least 4 trajectory samples")
    pos = traj.eef[:, :2]
    seg = np.linalg.norm(np.diff(pos, axis=0), axis=1)
    arc_length = float(seg.sum())

    ds = float(traj.s[1] - traj.s[0])
    if len(pos) >= 5 and arc_length > 0.0:
        d3 = (pos[4:] - 2.0 * pos[3:-1] + 2.0 * pos[1:-3] - pos[:-4]) \
            / (2.0 * ds ** 3)
        jerkiness = float(np.mean(np.sum(d3 ** 2, axis=1))) / arc_length
    else:
        jerkiness = 0.0

    min_distance = float(min_distance_profile(traj, s.vehicle, s.obstacles).min())

    report = MetricsReport(plan_time=plan_time, min_distance=min_distance,
                           arc_length=arc_length, jerkiness=jerkiness)
    if telemetry is not None:
        score_flight(report, telemetry, s)
    return report


def score_flight(report: MetricsReport, telemetry: Telemetry, s: Scenario):
    """Fill report's flight fields from telemetry; flight_min_distance is the
    least gap of the flown planar poses (x, y, yaw, th1, th3) to s's obstacles."""
    report.h_co_min = float(telemetry.h_min.min())
    flown = np.column_stack([telemetry.q[:, [0, 1, 5]], telemetry.theta[:, [0, 2]]])
    report.flight_min_distance = float(min_distance_profile(
        SimpleNamespace(z=flown), s.vehicle, s.obstacles).min())
    feas = telemetry.feasible
    if feas.any():
        report.thrust_min = float(telemetry.thrust[feas].min())
        report.thrust_max = float(telemetry.thrust[feas].max())
    report.infeasible_ticks = int((~feas).sum())
    report.total_ticks = int(len(feas))


def plan_checked(s: Scenario, mode: str = "sq"):
    """Plan s and score the plan (metrics without telemetry); returns
    (PlanResult, report).  A plan too large to hold fails before it is made
    (plan_samples); one that touches an obstacle, min_distance <= 0 over its
    samples, raises HarnessError."""
    plan_samples(s)
    pr = plan(s, mode)
    report = metrics(pr.traj, None, s, pr.plan_time)
    if not report.min_distance > 0.0:
        raise HarnessError(f"the plan collides with an obstacle: min_distance "
                           f"{report.min_distance:.6g} m <= 0")
    return pr, report


def run_pipeline(s: Scenario, mode: str = "sq", seed: int | None = None):
    """Plan, simulate and score a scenario; returns (PlanResult, Telemetry, report).
    A mission too long to hold fails before the plan, and a plan that
    collides (plan_checked) before the flight."""
    mission_ticks(s)
    pr, report = plan_checked(s, mode)
    tel = simulate(s, pr.traj, mode, seed=seed)
    score_flight(report, tel, s)
    return pr, tel, report


# --- file emission -------------------------------------------------------------

_TRAJ_HEADER = ("s,x,y,psi,theta1,theta3,eef_x,eef_y,eef_yaw,u_x,u_y,u_yaw")
_TEL_HEADER = ("t,"
               + ",".join(f"q{i}" for i in range(6)) + ","
               + ",".join(f"qdot{i}" for i in range(6)) + ","
               + ",".join(f"theta{i}" for i in range(3)) + ","
               + ",".join(f"T{i}" for i in range(6)) + ","
               + ",".join(f"dhat{i}" for i in range(6)) + ","
               + ",".join(f"dtrue{i}" for i in range(6)) + ","
               + "h_min,feasible")


def _write(path, text):
    try:
        with open(path, "w") as f:
            f.write(text)
    except OSError as exc:
        raise HarnessError(f"cannot write {path}: {exc}") from exc


def trajectory_csv(traj: PlannedTrajectory) -> str:
    # row by row, one str.format per value: no Python list of the whole plan's floats
    fmt = f"{{:{float_spec()}}}".format
    table = np.column_stack([traj.s, traj.z, traj.eef, traj.u])
    rows = [_TRAJ_HEADER]
    rows.extend(",".join(map(fmt, row.tolist())) for row in table)
    return "\n".join(rows) + "\n"


def telemetry_csv(tel: Telemetry) -> str:
    spec = float_spec()
    rows = [_TEL_HEADER]
    for k in range(len(tel.t)):
        vals = ([tel.t[k]] + list(tel.q[k]) + list(tel.qdot[k])
                + list(tel.theta[k]) + list(tel.thrust[k]) + list(tel.d_hat[k])
                + list(tel.d_true[k]) + [tel.h_min[k]])
        rows.append(",".join(format(float(v), spec) for v in vals)
                    + f",{int(tel.feasible[k])}")
    return "\n".join(rows) + "\n"


def emit(out_dir, traj: PlannedTrajectory, telemetry: Telemetry | None,
         report: MetricsReport, cells=None, graph=None):
    """Write trajectory/telemetry CSVs, the diagram dump and the metrics file."""
    try:
        os.makedirs(out_dir, exist_ok=True)
    except OSError as exc:
        raise HarnessError(f"cannot create {out_dir}: {exc}") from exc
    _write(os.path.join(out_dir, "trajectory.csv"), trajectory_csv(traj))
    if telemetry is not None:
        _write(os.path.join(out_dir, "telemetry.csv"), telemetry_csv(telemetry))
    if cells is not None and graph is not None:
        _write(os.path.join(out_dir, "voronoi.txt"),
               vor.dump_diagram(cells, graph, float_spec()))
    _write(os.path.join(out_dir, "metrics.txt"), "\n".join(report.lines()) + "\n")


def _parse_csv(text, expected_header):
    lines = text.strip().split("\n")
    if not lines or lines[0] != expected_header:
        raise HarnessError("unexpected CSV header")
    ncol = len(expected_header.split(","))
    data = []
    for row, ln in enumerate(lines[1:], 1):
        parts = ln.split(",")
        if len(parts) != ncol:
            raise HarnessError(f"CSV row has {len(parts)} columns, expected {ncol}")
        try:
            data.append([float(v) for v in parts])
        except ValueError:
            raise HarnessError(f"CSV row {row} has a non-numeric value") from None
    return np.asarray(data, dtype=float)


def load_trajectory_csv(path) -> PlannedTrajectory:
    m = _parse_csv(_read(path), _TRAJ_HEADER)
    return PlannedTrajectory(s=m[:, 0], z=m[:, 1:6], eef=m[:, 6:9],
                             u=m[:, 9:12], gammas=np.zeros((len(m), 0)))


def load_telemetry_csv(path) -> Telemetry:
    m = _parse_csv(_read(path), _TEL_HEADER)
    return Telemetry(t=m[:, 0], q=m[:, 1:7], qdot=m[:, 7:13], theta=m[:, 13:16],
                     thrust=m[:, 16:22], d_hat=m[:, 22:28], d_true=m[:, 28:34],
                     h_min=m[:, 34], feasible=m[:, 35].astype(bool))


def load_metrics(path) -> MetricsReport:
    lines = _read(path).strip().split("\n")
    if not lines or lines[0] != "amplan metrics v1":
        raise HarnessError("unrecognized metrics file")
    vals = {}
    for ln in lines[1:]:
        key, _, raw = ln.partition(" ")
        vals[key] = raw
    kwargs = {}
    for f_ in fields(MetricsReport):
        if f_.name not in vals:
            raise HarnessError(f"metrics file missing field {f_.name}")
        try:
            kwargs[f_.name] = (int if f_.type == "int" else float)(vals[f_.name])
        except ValueError:
            raise HarnessError(f"metrics field {f_.name}: not a number") from None
    return MetricsReport(**kwargs)
