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
from reprlib import repr as _brief
from types import SimpleNamespace
from typing import NamedTuple

import numpy as np
import yaml

from . import control as ctl
from . import dynamics as dyn
from . import voronoi as vor
from .geometry import (GeometryError, StiffnessParams, Superquadric2, closest_pairs,
                       radial_excess, shape_rows)
from .planner import (PairTable, PlannedTrajectory, PlannerParams, VehicleGeometry,
                      attractors_from_path, integrate_em, pair_rows, part_gather,
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

    def gust(self, t: float) -> float:
        """The square-wave force on the wind axis at time t."""
        return self.amplitude * math.tanh(
            math.sin(2.0 * math.pi * t / self.period) / self.smoothing)


@dataclass
class Scenario:
    """A scenario file's world, mission and overrides (_FIELDS); the defaults
    live here alone."""

    world_box: tuple
    obstacles: list
    start: np.ndarray          # planar configuration [x, y, psi, th1, th3]
    goal: np.ndarray           # end-effector goal pose [x, y, heading]
    name: str = "scenario"
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


# --- the scenario fields -------------------------------------------------------

class _Row(NamedTuple):
    """One scenario field: its kind (float, int, str or a _Table) and, for
    numbers, its range from lo to hi, each finite end closed or open as the
    brackets of ends say ("[]", "(]", "[)" or "()"); an infinite end is always
    open.  With a shape, the field is a list of shape[0] numbers (of shape[0]
    such lists, for two dimensions), built by make, and lo and hi may be given
    per element.  A required field has no default."""

    kind: object
    lo: object = -math.inf
    hi: object = math.inf
    ends: str = "[]"
    required: bool = False
    shape: tuple = ()
    make: type = tuple


class _Table(NamedTuple):
    """A mapping of the fields rows (name -> _Row), built by make from the
    fields it sets; with many, a list of such mappings.  null sets no field
    (and, with many, is the empty list)."""

    make: type
    rows: dict
    many: bool = False


# [m], bound on every coordinate (world box, obstacle centers, start and goal
# positions, flight height), far inside the 1e154 at which the clearance
# diagram's squared lengths overflow
_COORD_MAX = 1e6
_ANGLE_MAX = 2.0 * math.pi     # [rad], bound on the start's angles
# least obstacle exponent: the planner raises a point's normalized distance
# to the power 2 / eps, which at eps = 1e-3 overflows beyond 1.43
_EPS_MIN = 0.01
# bound on every gain (eta, k_reg, the k_tgt entries, the stiffness bounds,
# alpha_co, sigma_co): far above any that plans or flies (the defaults are at
# most 1600), far below where their products and powers overflow
_GAIN_MAX = 1e12
_FORCE_MAX = 1e6               # [N], bound on the wind's amplitude and noise and the thrust band

_REAL = _Row(float)
_POSITIVE = _Row(float, 0.0, ends="()")
_NONNEGATIVE = _Row(float, 0.0)
_GAIN = _Row(float, 0.0, _GAIN_MAX, "(]")
_LENGTH = _Row(float, 1e-6, 1e6)            # [m]
_SEMI_AXIS = _LENGTH._replace(required=True)
_C, _A = _COORD_MAX, _ANGLE_MAX

# every field a scenario file may set, and nothing else; the format tag is
# checked, not kept
_FIELDS = _Table(lambda format, **fields: Scenario(**fields), {
    "format": _Row(int, SCENARIO_FORMAT, SCENARIO_FORMAT, required=True),
    "name": _Row(str),
    "world_box": _Row(float, -_C, _C, required=True, shape=(4,)),
    "obstacles": _Row(_Table(Superquadric2, {
        "a1": _SEMI_AXIS,
        "a2": _SEMI_AXIS,
        "eps": _Row(float, _EPS_MIN, 2.0, required=True),
        "angle": _REAL,
        "center": _Row(float, -_C, _C, required=True, shape=(2,)),
    }, many=True), required=True),
    "start": _Row(float, (-_C, -_C, -_A, -_A, -_A), (_C, _C, _A, _A, _A), required=True,
                  shape=(5,), make=np.array),
    "goal": _Row(float, (-_C, -_C, -math.inf), (_C, _C, math.inf), required=True, shape=(3,),
                 make=np.array),
    "flight_height": _Row(float, -_C, _C),
    "duration": _POSITIVE,
    "settle_time": _NONNEGATIVE,
    "dt": _Row(float, 0.0, dyn.DT_MAX, "(]"),
    "wind": _Row(_Table(WindProfile, {
        "amplitude": _Row(float, -_FORCE_MAX, _FORCE_MAX),
        # far below any tick, and so far above a period at which the sine's
        # argument 2 pi t / period overflows
        "period": _Row(float, 1e-6),
        "smoothing": _POSITIVE,
        "axis": _Row(int, 0, 2),
        "noise_std": _Row(float, 0.0, _FORCE_MAX),
    })),
    "planner": _Row(_Table(PlannerParams, {
        "eta": _GAIN,
        "k_tgt": _Row(float, -_GAIN_MAX, _GAIN_MAX, shape=(3, 3), make=np.array),
        "k_reg": _Row(float, -_GAIN_MAX, _GAIN_MAX),
        "n_s": _Row(int, 2),
        "stiffness": _Row(_Table(StiffnessParams, {
            "k_min": _GAIN,
            "k_max": _GAIN,
            "d0": _LENGTH,
            "d_prime": _Row(float, 0.0, 1e6),
        })),
        # a plan needs |grad| < prerelax_tol and lambda_max <= cond_limit lambda_min
        "cond_limit": _Row(float, 1.0),
        "prerelax_tol": _POSITIVE,
        "prerelax_max_iter": _Row(int, 0),
    })),
    "safety": _Row(_Table(ctl.SafetyParams, {
        "alpha_co": _GAIN,
        "sigma_co": _Row(float, 0.0, _GAIN_MAX),
        "t_min": _Row(float, 0.0, _FORCE_MAX),
        "t_max": _Row(float, 0.0, _FORCE_MAX, "(]"),
        "obstacle_height": _LENGTH,
    })),
})


def _scalar(v, row: _Row, path: str, i: int = 0):
    """v under the one number rule: a YAML int, or for a real field a YAML
    float too (never a bool or a string), finite and within row's range (its
    element i's, where the row gives one per element)."""
    integer = row.kind is int
    if not (type(v) is int or type(v) is float and not integer):
        raise ScenarioError(f"{path}: must be {'an integer' if integer else 'a number'}, "
                            f"got {_brief(v)}")
    x = v
    if not integer:
        try:
            x = float(v)
        except OverflowError:       # an integer beyond the largest float
            x = math.inf
    lo, hi = (b[i] if type(b) is tuple else b for b in (row.lo, row.hi))
    a, b = ("(" if lo == -math.inf else row.ends[0]), (")" if hi == math.inf else row.ends[1])
    # nan fails both tests, and an infinity the open end
    if not ((lo < x if a == "(" else lo <= x) and (x < hi if b == ")" else x <= hi)):
        raise ScenarioError(f"{path}: must lie in {a}{lo:g}, {hi:g}{b}, got {_brief(v)}")
    return x


def _elements(v, row: _Row, path: str, shape: tuple) -> list:
    """The list v of the given shape as Python numbers, each read by row."""
    if type(v) is not list or len(v) != shape[0]:
        raise ScenarioError(f"{path}: must be a list of {' lists of '.join(map(str, shape))} "
                            f"numbers, got {_brief(v)}")
    if len(shape) > 1:
        return [_elements(x, row, f"{path}[{i}]", shape[1:]) for i, x in enumerate(v)]
    return [_scalar(x, row, f"{path}[{i}]", i) for i, x in enumerate(v)]


def _mapping(raw, table: _Table, path: str):
    """table.make of the fields raw sets, each read by its row."""
    if type(raw) is not dict:
        raise ScenarioError(f"{path or 'scenario file'}: must be a mapping, got {_brief(raw)}")
    at = f"{path}." if path else ""
    values = {}
    for name, row in table.rows.items():
        if name in raw:
            values[name] = _value(raw[name], row, at + name)
        elif row.required:
            raise ScenarioError(f"{at}{name}: required field missing")
    for key in raw:
        if key not in table.rows:
            raise ScenarioError(f"{at}{key}: unknown field")
    return table.make(**values)


def _value(v, row: _Row, path: str):
    """The YAML value v of the field at path as its row reads it; anything
    else raises ScenarioError naming path, or the element of path at fault."""
    kind = row.kind
    if isinstance(kind, _Table):
        if v is None:
            v = [] if kind.many else {}
        if not kind.many:
            return _mapping(v, kind, path)
        if type(v) is not list:
            raise ScenarioError(f"{path}: must be a list, got {_brief(v)}")
        return [_mapping(d, kind, f"{path}[{i}]") for i, d in enumerate(v)]
    if row.shape:
        return row.make(_elements(v, row, path, row.shape))
    if kind is str:
        # the name of bench's output directories: one path component
        if type(v) is not str or v in ("", ".", "..") or "/" in v or "\0" in v:
            raise ScenarioError(f"{path}: must be a nonempty string without '/', not '.' "
                                f"or '..', got {_brief(v)}")
        return v
    return _scalar(v, row, path)


def _check_scenario(s: Scenario):
    """The rules that tie a scenario's fields together, once each field has
    met its row: a box of positive extent, t_min < t_max, k_min < k_max, a
    mission of at least one countable tick, obstacles in the box and pairwise
    disjoint, and a start clear of them."""
    x0, y0, x1, y1 = s.world_box
    if not (x0 < x1 and y0 < y1):
        raise ScenarioError(f"world_box: must be [xmin, ymin, xmax, ymax] with positive "
                            f"extent, got {list(s.world_box)}")
    st = s.planner.stiffness
    for low, lo, high, hi in (("safety.t_min", s.safety.t_min, "safety.t_max", s.safety.t_max),
                              ("planner.stiffness.k_min", st.k_min,
                               "planner.stiffness.k_max", st.k_max)):
        if not lo < hi:
            raise ScenarioError(f"{low}: must be below {high} = {hi:g}, got {lo:g}")
    ticks = (s.settle_time + s.duration) / s.dt
    # at least one tick (mission_ticks rounds), and few enough to count in a float
    if not 0.5 < ticks < math.inf:
        name = "duration" if s.duration >= s.settle_time else "settle_time"
        raise ScenarioError(f"{name}: settle_time + duration = {s.settle_time + s.duration:g} s "
                            f"makes {ticks:g} ticks of {s.dt} s; a mission needs at least "
                            f"one, and few enough to count")
    # the clearance diagram's own rules
    try:
        vor.check_in_box(s.obstacles, s.world_box)
        vor.bisectors(s.obstacles)
    except vor.VoronoiError as exc:
        raise ScenarioError(str(exc)) from exc
    try:
        gap = closest_pairs(*pair_rows(s.vehicle, shape_rows(s.obstacles), s.start)).gap
    except GeometryError as exc:
        raise ScenarioError(f"start: {exc}") from exc
    hit = np.flatnonzero(gap <= 0.0)
    if hit.size:
        p, o = divmod(int(hit[0]), len(s.obstacles))
        raise ScenarioError(f"start: vehicle part {p} collides with obstacles[{o}]")


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


def load_scenario(path, dt=None, ns=None) -> Scenario:
    """Parse and check a scenario file: every field against its row of _FIELDS,
    then the rules that tie fields together.  dt and ns, the command line's
    --dt and --ns, replace the file's dt and planner.n_s under the same rows,
    and an error in them names the flag, as does a plan too large to hold
    (plan_samples)."""
    try:
        raw = yaml.load(_read(path), Loader=_ScenarioLoader)
    except yaml.YAMLError as exc:
        raise ScenarioError(f"scenario file is not valid structured text: {exc}") from exc
    s = _mapping(raw, _FIELDS, "")
    if dt is not None:
        s.dt = _scalar(dt, _FIELDS.rows["dt"], "--dt")
    if ns is not None:
        s.planner.n_s = _scalar(ns, _FIELDS.rows["planner"].kind.rows["n_s"], "--ns")
    _check_scenario(s)
    plan_samples(s, "--ns" if ns is not None else "planner.n_s")
    return s


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


def _hover(q, model):
    """The nominal hover thrust at the six floats q and the observer's state
    at that disturbance-free hover, from the nominal terms model at (q, 0)
    (dynamics.model_terms(...)[1])."""
    _, _, G, _, MinvB, Binv = model
    T = np.dot(Binv, G)
    return T, ctl.dob_initial(q, np.dot(MinvB, T).tolist())


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


def plan_samples(s: Scenario, name: str = "planner.n_s") -> int:
    """n_s + 1, the most samples of s's plan once n_s reaches its path's K
    attractors (integrate_em takes max(1, n_s // K) steps toward each);
    raises ScenarioError naming n_s as name, before anything is built, when
    their per-sample arrays exceed the machine's memory."""
    n = s.planner.n_s + 1
    floats = _SAMPLE_FLOATS + 2 * s.vehicle.n_parts * len(s.obstacles)
    _check_memory(name, n, "plan samples", "sample", n * floats * 8)
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
    then the references integrate and the plant steps.  The tick keeps
    dynamics' representation rule: the state is one array of 18 floats,
    whose Python floats each tick makes once, dt is checked before the first
    tick, and the stages pass their terms as they are.

    A tick first takes the vehicle gate (ProxyTracker.far), unless the
    mission has no pair at all.  A tick it passes is far from every
    obstacle: no pair could emit a barrier row, so it skips cbf_rows, and the
    thrust rows alone go to the QP.  A tick's h_min is the least barrier h
    of the pairs cbf_rows refreshed, inf on a tick that refreshed none.
    """
    gains, safety, model = s.gains, s.safety, s.model
    tracker = ctl.ProxyTracker(s.vehicle, _model_obstacles(s, mode), safety.obstacle_height)
    dt = s.dt
    dyn.check_dt(dt)

    q0 = np.array([s.start[0], s.start[1], s.flight_height, 0.0, 0.0, s.start[2]])
    theta0 = np.array([s.start[3], 0.0, s.start[4]])
    # the state: q, qdot, theta and thetadot in one array of 18 floats
    x = np.concatenate([q0, np.zeros(6), theta0, np.zeros(3)])
    T, dob = _hover(q0.tolist(), dyn.model_terms(q0[3:], np.zeros(3), model)[1])
    # the references: q_d an array, the arm's as floats
    q_d, theta_d, thetadot_d = q0, theta0.tolist(), [0.0] * 3
    prev_x = None

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
    t_min, t_max = safety.t_min, safety.t_max

    for k in range(n):
        # the state's floats, once per tick, and its arrays as views of x
        xf = x.tolist()
        q, qdot = x[:6], x[6:12]
        plant, nominal, R = dyn.model_terms(xf[3:6], xf[9:12], model)
        dob, d_hat = ctl.dob_update(dob, xf[:6], xf[6:12], T, nominal, gains, dt)
        A, b, S, c = ctl.thrust_limit_rows(q_d, q, qdot, d_hat, nominal, gains, t_min, t_max)
        if pairs and tracker.far(xf):
            # no pair is near and none keeps its angles, as after a refresh of
            # no pair
            tracker.gammas.fill(np.nan)
        elif pairs:
            A2, b2, h_vals = ctl.cbf_rows(tracker, q, R, qdot, x[12:15], x[15:], q_d, gains,
                                          safety)
            # on most ticks no barrier row is emitted: the thrust rows go in as they are
            if b2.size:
                A, b = np.vstack([A, A2]), np.concatenate([b, b2])
            tel.h_min[k] = h_vals.min()
        u, feasible = ctl.outer_loop(q_ref[k], theta_ref[k], q_d, theta_d, thetadot_d, A, b,
                                     gains, prev_x)
        prev_x = u
        qdot_d = u[:6]
        T = S.dot(qdot_d) + c
        d_true = noise[k]
        d_true[wind.axis] += wind.gust(k * dt)

        tel.q[k] = q
        tel.qdot[k] = qdot
        tel.theta[k] = x[12:15]
        tel.thrust[k] = T
        tel.d_hat[k] = d_hat
        tel.feasible[k] = feasible

        q_d = q_d + dt * qdot_d
        thetaddot_d = u[6:].tolist()
        thetadot_d = [v + dt * a for v, a in zip(thetadot_d, thetaddot_d)]
        theta_d = [p + dt * v for p, v in zip(theta_d, thetadot_d)]
        x = dyn.step(xf, plant, T, theta_d, thetadot_d, thetaddot_d, d_true, dt, model)
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


# samples per block of the metric pass: bounded on a long flight, one per default plan
_PROFILE_BLOCK = 512


def min_distance_profile(traj, geom: VehicleGeometry, obstacles: list) -> np.ndarray:
    """Min signed gap between any vehicle part and any obstacle at each
    planar configuration of traj.z (n, 5): a plan's samples, or the poses of
    a flight (score_flight).

    Always evaluated against the shapes passed in (the caller supplies the
    original obstacle set, regardless of the planning mode).  Every solved
    pair is cold-started from its center-to-center direction, with no warm
    start from the previous sample; closest_pairs never mixes pairs, so each
    gets bit for bit the gap of solving it alone; rho's scale is per sample, so
    the blocks of _PROFILE_BLOCK samples give the bits of one stack.

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
    table, gather = PairTable(geom, obs_rows), part_gather(geom, np.arange(n_parts))

    def gaps(parts, sample, pair):
        part, obs = np.divmod(pair, n_obs)
        return closest_pairs(parts[:, sample * n_parts + part], obs_rows[:, obs]).gap

    out = np.empty(n)
    for start in range(0, n, _PROFILE_BLOCK):
        z = traj.z[start:start + _PROFILE_BLOCK]
        b = len(z)
        # the parts' rows at every sample, one block of n_parts columns per sample
        parts = np.vstack([np.tile(geom.part_axes, b), np.empty((4, n_parts * b))])
        set_part_poses(parts, geom.frame_stack(z), gather)
        # (b, pairs) in planner.pair_index order
        lb = table.rho(parts[5:].reshape(2, b, n_parts, 1).transpose(1, 0, 2, 3)).reshape(b, -1)
        lb -= table.r_obs
        samples = np.arange(b)
        first = lb.argmin(axis=1)
        block = out[start:start + b]
        block[:] = gaps(parts, samples, first)
        lb[samples, first] = np.inf
        sample, pair = np.nonzero(lb <= np.maximum(block, 0.0)[:, None])
        np.minimum.at(block, sample, gaps(parts, sample, pair))
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
    if not len(telemetry.t):
        raise HarnessError("score_flight needs at least one tick")
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


def _csv(header, columns) -> str:
    # row by row, one str.format per value: no Python list of the whole table's
    # floats; a bool column writes as 0 or 1; the last row, "", ends the text
    # with a newline, with no second copy of the text
    fmt = f"{{:{float_spec()}}}".format
    rows = [header, *(",".join(map(fmt, row.tolist())) for row in np.column_stack(columns)), ""]
    return "\n".join(rows)


def trajectory_csv(traj: PlannedTrajectory) -> str:
    return _csv(_TRAJ_HEADER, [traj.s, traj.z, traj.eef, traj.u])


def telemetry_csv(tel: Telemetry) -> str:
    return _csv(_TEL_HEADER, [tel.t, tel.q, tel.qdot, tel.theta, tel.thrust, tel.d_hat,
                              tel.d_true, tel.h_min, tel.feasible])


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


def _parse_csv(path, expected_header):
    lines = _read(path).strip().split("\n")
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
    m = np.asarray(data, dtype=float).reshape(-1, ncol)
    # columns 1 and 2 of both files are the planar position: within a
    # scenario's coordinates, or the clearance pass overflows
    far = np.flatnonzero(~(np.abs(m[:, 1:3]) <= _COORD_MAX).all(axis=1))
    if far.size:
        raise ScenarioError(f"{path}: row {far[0] + 1}: a position beyond {_COORD_MAX:g} m, "
                            f"got {m[far[0], 1:3].tolist()}")
    return m


def load_trajectory_csv(path) -> PlannedTrajectory:
    m = _parse_csv(path, _TRAJ_HEADER)
    return PlannedTrajectory(s=m[:, 0], z=m[:, 1:6], eef=m[:, 6:9],
                             u=m[:, 9:12], gammas=np.zeros((len(m), 0)))


def load_telemetry_csv(path) -> Telemetry:
    m = _parse_csv(path, _TEL_HEADER)
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
