"""Two-loop safety-critical flight control.

Inner loop: computed-torque thrust law on the 6-DOF base with a second-order
disturbance observer (DOB) canceling the lumped disturbance.  Outer loop: a
small QP choosing the base velocity reference and arm acceleration reference,
subject to per-rotor thrust band limits and high-order control barrier
function (HOCBF) rows that keep every vehicle part out of every obstacle.

The barrier acts on the obstacle-frame coordinates dX of a vehicle proxy
point; proxies are tracked in the horizontal plane and obstacles are extruded
to 3D superquadrics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import dynamics as dyn
from .geometry import Superquadric2, Superquadric3, closest_pairs, signed_pow
from .planner import ObstacleSet, VehicleGeometry, pair_index, pair_rows
from .qp import ActiveSetSolver, QpProblem


class GainError(ValueError):
    pass


class ControlError(RuntimeError):
    pass


def _as_diag6(v):
    a = np.asarray(v, dtype=float)
    if a.ndim == 0:
        return np.full(6, float(a))
    if a.shape == (6,):
        return a.copy()
    if a.shape == (6, 6):
        if np.abs(a - np.diag(np.diag(a))).max() > 0.0:
            raise GainError("observer gains must be diagonal")
        return np.diag(a).copy()
    raise GainError(f"bad observer gain shape {a.shape}")


@dataclass
class GainSet:
    """Controller gains; defaults follow the reference tuning."""

    a0: np.ndarray = 1.0
    a1: np.ndarray = 2.0
    eps: np.ndarray = 0.95
    kp: np.ndarray = field(default_factory=lambda: np.diag([6.0, 6.0, 8.0, 80.0, 80.0, 35.0]))
    kd: np.ndarray = field(default_factory=lambda: np.diag([5.0, 5.0, 6.0, 35.0, 35.0, 20.0]))
    gamma_q: np.ndarray = field(default_factory=lambda: 4.0 * np.eye(6))
    gamma_theta: np.ndarray = field(default_factory=lambda: 5.0 * np.eye(3))
    q_qdot: np.ndarray = field(default_factory=lambda: np.diag([1.0, 1.0, 1.0, 3.0, 3.0, 3.0]))
    q_thetaddot: np.ndarray = field(default_factory=lambda: 4.0 * np.eye(3))

    def __post_init__(self):
        self.a0 = _as_diag6(self.a0)
        self.a1 = _as_diag6(self.a1)
        self.eps = _as_diag6(self.eps)
        if np.any(self.a0 <= 0.0) or np.any(self.a1 <= 0.0):
            raise GainError("observer gains a0, a1 must be positive")
        # stable observer envelope: a0 / a1^2 strictly below one half
        if np.any(self.a0 / self.a1 ** 2 >= 0.5):
            raise GainError("observer gains must satisfy a0 / a1^2 < 1/2")
        if np.any(self.eps <= 0.0) or np.any(self.eps >= 1.0):
            raise GainError("observer bandwidth eps must lie in (0, 1)")
        for name in ("kp", "kd", "gamma_q", "q_qdot"):
            m = np.asarray(getattr(self, name), dtype=float)
            if m.shape != (6, 6) or np.linalg.eigvalsh(0.5 * (m + m.T)).min() <= 0.0:
                raise GainError(f"{name} must be 6x6 positive definite")
            setattr(self, name, m)
        for name in ("gamma_theta", "q_thetaddot"):
            m = np.asarray(getattr(self, name), dtype=float)
            if m.shape != (3, 3) or np.linalg.eigvalsh(0.5 * (m + m.T)).min() <= 0.0:
                raise GainError(f"{name} must be 3x3 positive definite")
            setattr(self, name, m)


@dataclass
class DobState:
    """Second-order filter states: xq tracks q, xp tracks the commanded input."""

    xq: np.ndarray = field(default_factory=lambda: np.zeros((2, 6)))
    xp: np.ndarray = field(default_factory=lambda: np.zeros((2, 6)))

    @classmethod
    def initialize(cls, q) -> "DobState":
        s = cls()
        s.xq[0] = np.asarray(q, dtype=float)
        return s

    def copy(self) -> "DobState":
        s = DobState()
        s.xq = self.xq.copy()
        s.xp = self.xp.copy()
        return s


def _filter_rates(x, u, a0e2, a1e1):
    """Per-axis rates of xdot0 = x1, xdot1 = a0/e^2 (u - x0) - a1/e x1."""
    return np.stack([x[1], a0e2 * (u - x[0]) - a1e1 * x[1]])


def dob_update(state: DobState, q, qdot, T, params: dyn.ModelParams,
               gains: GainSet, dt: float):
    """Advance the observer one step and return (new state, disturbance estimate).

    The estimate compares the filtered commanded generalized acceleration with
    the filtered measured acceleration, then re-adds the nominal Coriolis and
    gravity terms; all model terms use the controller's nominal parameters.
    """
    q = np.asarray(q, dtype=float)
    qdot = np.asarray(qdot, dtype=float)
    phi = q[3:]
    a0e2 = gains.a0 / gains.eps ** 2
    a1e1 = gains.a1 / gains.eps

    M_hat = dyn.mass_matrix(phi, params, nominal=True)
    u_cmd = np.linalg.solve(M_hat, dyn.allocation(phi, params) @ np.asarray(T, dtype=float))
    # midpoint reconstruction of q over the hold interval: a plain zero-order
    # hold of a quadratically growing position drifts the acceleration estimate
    q_in = q + 0.5 * dt * qdot

    def rates(y):
        xq, xp = y[0], y[1]
        return np.stack([_filter_rates(xq, q_in, a0e2, a1e1),
                         _filter_rates(xp, u_cmd, a0e2, a1e1)])

    y = np.stack([state.xq, state.xp])
    k1 = rates(y)
    k2 = rates(y + 0.5 * dt * k1)
    k3 = rates(y + 0.5 * dt * k2)
    k4 = rates(y + dt * k3)
    y = y + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)

    new = DobState(xq=y[0], xp=y[1])
    # output equation pairs the end-of-step state with the end-of-step input
    qddot_f = a0e2 * (q + dt * qdot - new.xq[0]) - a1e1 * new.xq[1]
    d_hat = (-M_hat @ (new.xp[0] - qddot_f)
             + dyn.coriolis_vec(phi, qdot[3:], params, nominal=True)
             + dyn.gravity_vec(params, nominal=True))
    return new, d_hat


def inner_loop(q_d, qdot_d, q, qdot, d_hat, params: dyn.ModelParams,
               gains: GainSet) -> np.ndarray:
    """Per-rotor thrusts from the computed-torque law with DOB compensation."""
    q = np.asarray(q, dtype=float)
    qdot = np.asarray(qdot, dtype=float)
    phi = q[3:]
    e = np.asarray(q_d, dtype=float) - q
    edot = np.asarray(qdot_d, dtype=float) - qdot
    v = gains.kd @ edot + gains.kp @ e
    wrench = (dyn.mass_matrix(phi, params, nominal=True) @ v
              + dyn.coriolis_vec(phi, qdot[3:], params, nominal=True)
              + dyn.gravity_vec(params, nominal=True)
              - np.asarray(d_hat, dtype=float))
    return np.linalg.solve(dyn.allocation(phi, params), wrench)


def thrust_limit_rows(q_d, q, qdot, d_hat, params: dyn.ModelParams, gains: GainSet,
                      t_min: float, t_max: float):
    """Linear rows A x <= b keeping every rotor thrust inside [t_min, t_max].

    The thrust law is affine in the commanded base velocity, T = S qdot_d + c;
    the rows are exact for the thrust computed from the same q_d, q and d_hat.
    """
    q = np.asarray(q, dtype=float)
    qdot = np.asarray(qdot, dtype=float)
    phi = q[3:]
    M_hat = dyn.mass_matrix(phi, params, nominal=True)
    B = dyn.allocation(phi, params)
    Binv = np.linalg.inv(B)
    S = Binv @ M_hat @ gains.kd
    e = np.asarray(q_d, dtype=float) - q
    c = Binv @ (M_hat @ (gains.kp @ e - gains.kd @ qdot)
                + dyn.coriolis_vec(phi, qdot[3:], params, nominal=True)
                + dyn.gravity_vec(params, nominal=True)
                - np.asarray(d_hat, dtype=float))
    A = np.zeros((12, 9))
    A[:6, :6] = -S
    A[6:, :6] = S
    b = np.concatenate([c - t_min, t_max - c])
    return A, b


# --- 3D proxy-point kinematics -------------------------------------------------

_EZ = np.array([0.0, 0.0, 1.0])
_EY = np.array([0.0, 1.0, 0.0])


def _rotz(a):
    c, s = math.cos(a), math.sin(a)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


def _roty(a):
    c, s = math.cos(a), math.sin(a)
    return np.array([[c, 0.0, s], [0.0, 1.0, 0.0], [-s, 0.0, c]])


def rotation_derivs(phi):
    """dR/droll, dR/dpitch, dR/dyaw for the ZYX Euler rotation."""
    r, p, y = phi
    cr, sr = math.cos(r), math.sin(r)
    cp, sp = math.cos(p), math.sin(p)
    cy, sy = math.cos(y), math.sin(y)
    Rz = np.array([[cy, -sy, 0], [sy, cy, 0], [0, 0, 1]])
    Ry = np.array([[cp, 0, sp], [0, 1, 0], [-sp, 0, cp]])
    Rx = np.array([[1, 0, 0], [0, cr, -sr], [0, sr, cr]])
    dRz = np.array([[-sy, -cy, 0], [cy, -sy, 0], [0, 0, 0]])
    dRy = np.array([[-sp, 0, cp], [0, 0, 0], [-cp, 0, -sp]])
    dRx = np.array([[0, 0, 0], [0, -sr, -cr], [0, cr, -sr]])
    return Rz @ Ry @ dRx, Rz @ dRy @ Rx, dRz @ Ry @ Rx


def _part_body_point(geom: VehicleGeometry, part: int, gamma: float, theta):
    """Body-frame location of part proxy p(gamma), in the vehicle plane."""
    a1, a2, eps = geom.part_axes
    lx = a1[part] * signed_pow(math.cos(gamma), eps[part])
    ly = a2[part] * signed_pow(math.sin(gamma), eps[part])
    t1, t2, t3 = theta
    b0 = np.array([geom.arm_base_offset, 0.0, 0.0])
    if part < 6:
        beta = part * (math.pi / 3.0)
        off = geom.rotor_arm * np.array([math.cos(beta), math.sin(beta), 0.0])
        return off + np.array([lx, ly, 0.0]), b0, None, None
    R1 = _rotz(t1)
    joint2 = b0 + R1 @ np.array([geom.l1, 0.0, 0.0])
    if part == 6:
        c = b0 + R1 @ np.array([geom.l1 / 2.0 + lx, ly, 0.0])
        return c, b0, joint2, R1
    R23 = R1 @ _roty(t2) @ _rotz(t3)
    c = joint2 + R23 @ np.array([geom.l2 / 2.0 + lx, ly, 0.0])
    return c, b0, joint2, R1


def proxy_point_kinematics(geom: VehicleGeometry, part: int, gamma: float, q, theta):
    """World proxy point X and its 3x9 Jacobian wrt (q, theta)."""
    q = np.asarray(q, dtype=float)
    theta = np.asarray(theta, dtype=float)
    phi = q[3:]
    R = dyn.rotation(phi)
    c, b0, joint2, R1 = _part_body_point(geom, part, gamma, theta)
    X = q[:3] + R @ c

    J = np.zeros((3, 9))
    J[:, :3] = np.eye(3)
    for k, dR in enumerate(rotation_derivs(phi)):
        J[:, 3 + k] = dR @ c
    if part >= 6:
        J[:, 6] = R @ np.cross(_EZ, c - b0)
        if part == 7:
            ax2 = R1 @ _EY
            ax3 = R1 @ _roty(theta[1]) @ _EZ
            J[:, 7] = R @ np.cross(ax2, c - joint2)
            J[:, 8] = R @ np.cross(ax3, c - joint2)
    return X, J


def jacobian_rate_times_velocity(geom, part, gamma, q, theta, qdot, thetadot,
                                 h: float = 1e-6):
    """Jdot @ v by a directional finite difference of J along the velocity."""
    qdot = np.asarray(qdot, dtype=float)
    thetadot = np.asarray(thetadot, dtype=float)
    v = np.concatenate([qdot, thetadot])
    _, Jp = proxy_point_kinematics(geom, part, gamma, np.asarray(q) + h * qdot,
                                   np.asarray(theta) + h * thetadot)
    _, Jm = proxy_point_kinematics(geom, part, gamma, np.asarray(q) - h * qdot,
                                   np.asarray(theta) - h * thetadot)
    return ((Jp - Jm) / (2.0 * h)) @ v


# --- barrier function ----------------------------------------------------------

def extrude_obstacle(sq: Superquadric2, height: float, eps1: float = 0.1) -> Superquadric3:
    """Lift a planar obstacle to a vertical 3D superquadric of the given height."""
    if height <= 0.0:
        raise ControlError("obstacle height must be positive")
    return Superquadric3(a1=sq.a1, a2=sq.a2, a3=height / 2.0,
                         eps1=eps1, eps2=sq.eps,
                         rotation=_rotz(sq.angle),
                         translation=np.array([sq.center[0], sq.center[1], height / 2.0]))


def h_co(dx, obs: Superquadric3) -> float:
    """Barrier h = ln of the obstacle's inside-outside bracket: 0 on the boundary."""
    x, y, z = np.asarray(dx, dtype=float)
    e2, e1 = 2.0 / obs.eps2, 2.0 / obs.eps1
    u = abs(x / obs.a1) ** e2 + abs(y / obs.a2) ** e2
    g = u ** (obs.eps2 / obs.eps1) + abs(z / obs.a3) ** e1
    if g < 1e-12:
        raise ControlError("barrier degenerate: proxy at the obstacle center")
    return math.log(g)


def h_co_derivs(dx, obs: Superquadric3):
    """(h, grad h, hess h) wrt the obstacle-frame point dx, analytic."""
    x, y, z = np.asarray(dx, dtype=float)
    e2, e1 = 2.0 / obs.eps2, 2.0 / obs.eps1
    r = obs.eps2 / obs.eps1

    def f(v, a, p):
        # |v/a|^p and its first two derivatives in v, with an axis floor
        w = abs(v) / a
        val = w ** p
        s = math.copysign(1.0, v) if v != 0.0 else 0.0
        wf = max(w, 1e-12)
        d1 = p * wf ** (p - 1.0) * s / a
        d2 = p * (p - 1.0) * wf ** (p - 2.0) / a ** 2
        return val, d1, d2

    ux, ux1, ux2 = f(x, obs.a1, e2)
    uy, uy1, uy2 = f(y, obs.a2, e2)
    uz, uz1, uz2 = f(z, obs.a3, e1)
    u = ux + uy
    uf = max(u, 1e-300)
    g = u ** r + uz
    if g < 1e-12:
        raise ControlError("barrier degenerate: proxy at the obstacle center")

    gx = r * uf ** (r - 1.0) * ux1
    gy = r * uf ** (r - 1.0) * uy1
    grad_g = np.array([gx, gy, uz1])
    hg = np.zeros((3, 3))
    hg[0, 0] = r * ((r - 1.0) * uf ** (r - 2.0) * ux1 ** 2 + uf ** (r - 1.0) * ux2)
    hg[1, 1] = r * ((r - 1.0) * uf ** (r - 2.0) * uy1 ** 2 + uf ** (r - 1.0) * uy2)
    hg[0, 1] = hg[1, 0] = r * (r - 1.0) * uf ** (r - 2.0) * ux1 * uy1
    hg[2, 2] = uz2

    h = math.log(g)
    grad = grad_g / g
    hess = hg / g - np.outer(grad_g, grad_g) / g ** 2
    return h, grad, hess


@dataclass
class SafetyParams:
    alpha_co: float = 5.0
    sigma_co: float = 1.0
    t_min: float = 1.0
    t_max: float = 15.0
    obstacle_height: float = 3.0

    def __post_init__(self):
        if self.alpha_co <= 0.0 or self.sigma_co < 0.0:
            raise ControlError("need alpha_co > 0 and sigma_co >= 0")
        if not (0.0 <= self.t_min < self.t_max):
            raise ControlError("need 0 <= t_min < t_max")


@dataclass
class ProxyTracker:
    """Warm-started planar proxy angles for every (part, obstacle) pair.

    Each refresh solves all pairs in one closest_pairs call, started from the
    previous refresh's proxy angles (from the center-to-center directions on
    the first call).
    """

    geom: VehicleGeometry
    obstacles: list            # planar Superquadric2 obstacles

    def __post_init__(self):
        self.obs = ObstacleSet(list(self.obstacles))
        self.pi, self.oi = pair_index(self.geom.n_parts, len(self.obs))
        self.gammas = None

    def refresh(self, q, theta):
        """Re-solve the planar closest pairs at the current pose; returns
        a list of (part, obstacle, gamma_part, gap)."""
        if self.pi.size == 0:
            return []
        z2d = np.array([q[0], q[1], q[5], theta[0], theta[2]])
        res = closest_pairs(*pair_rows(self.geom, self.obs, z2d), init=self.gammas)
        self.gammas = res.gammas
        return [(int(p), int(o), float(g), float(d))
                for p, o, g, d in zip(self.pi, self.oi, res.gammas[0], res.gap)]


def cbf_rows(geom: VehicleGeometry, obstacles3d: list, proxies, q, qdot, theta,
             thetadot, q_d, gains: GainSet, safety: SafetyParams,
             h_threshold: float | None = None):
    """HOCBF rows A x <= b for the outer-loop decision x = [qdot_d; thetaddot_d].

    Under the inner loop the base acceleration is Kd (qdot_d - qdot) +
    Kp (q_d - q) and the arm tracks thetaddot_d directly, so the second
    barrier derivative is affine in x.

    With an h_threshold, pairs whose barrier value exceeds it still report
    their h but contribute no row (their constraint cannot become active).
    """
    q = np.asarray(q, dtype=float)
    qdot = np.asarray(qdot, dtype=float)
    theta = np.asarray(theta, dtype=float)
    thetadot = np.asarray(thetadot, dtype=float)
    v9 = np.concatenate([qdot, thetadot])
    drift = np.concatenate([gains.kp @ (np.asarray(q_d, dtype=float) - q)
                            - gains.kd @ qdot, np.zeros(3)])
    gain_map = np.zeros((9, 9))
    gain_map[:6, :6] = gains.kd
    gain_map[6:, 6:] = np.eye(3)
    R = dyn.rotation(q[3:])

    rows_a, rows_b, h_vals = [], [], []
    for (part, o, gamma, _gap) in proxies:
        obs = obstacles3d[o]
        Rj = obs.rotation
        if h_threshold is not None:
            c, *_ = _part_body_point(geom, part, gamma, theta)
            dx_fast = Rj.T @ (q[:3] + R @ c - obs.translation)
            h_fast = h_co(dx_fast, obs)
            if h_fast > h_threshold:
                h_vals.append(h_fast)
                continue
        X, J = proxy_point_kinematics(geom, part, gamma, q, theta)
        dx = Rj.T @ (X - obs.translation)
        A_dx = Rj.T @ J
        dxdot = A_dx @ v9
        h, grad, hess = h_co_derivs(dx, obs)
        hdot = float(grad @ dxdot)
        jdv = jacobian_rate_times_velocity(geom, part, gamma, q, theta, qdot, thetadot)
        b = (float(dxdot @ hess @ dxdot)
             + float(grad @ (A_dx @ drift + Rj.T @ jdv))
             + 2.0 * safety.alpha_co * hdot
             + safety.alpha_co ** 2 * h
             - safety.sigma_co)
        rows_a.append(-(grad @ A_dx) @ gain_map)
        rows_b.append(b)
        h_vals.append(h)
    if not rows_a:
        return np.zeros((0, 9)), np.zeros(0), np.asarray(h_vals, dtype=float)
    return np.array(rows_a), np.array(rows_b), np.array(h_vals)


@dataclass
class OuterLoopResult:
    x: np.ndarray
    qdot_d: np.ndarray
    thetaddot_d: np.ndarray
    feasible: bool
    status: str


def outer_loop(solver: ActiveSetSolver, q_t, theta_t, q_d, theta_d, thetadot_d,
               A, b, gains: GainSet, prev_x=None) -> OuterLoopResult:
    """Reference-tracking QP over x = [qdot_d; thetaddot_d] with safety rows.

    On infeasibility (or solver failure) the previous solution is reused at
    half magnitude and the result is flagged.
    """
    v_ref = gains.gamma_q @ (np.asarray(q_t, dtype=float) - np.asarray(q_d, dtype=float))
    a_ref = (-2.0 * gains.gamma_theta @ np.asarray(thetadot_d, dtype=float)
             + gains.gamma_theta @ gains.gamma_theta
             @ (np.asarray(theta_t, dtype=float) - np.asarray(theta_d, dtype=float)))
    H = np.zeros((9, 9))
    H[:6, :6] = 2.0 * gains.q_qdot
    H[6:, 6:] = 2.0 * gains.q_thetaddot
    g = np.concatenate([-2.0 * gains.q_qdot @ v_ref, -2.0 * gains.q_thetaddot @ a_ref])
    sol = solver.solve(QpProblem(H, g, A, b))
    if sol.status == "optimal":
        x = sol.x
        feasible = True
    else:
        x = 0.5 * (np.zeros(9) if prev_x is None else np.asarray(prev_x, dtype=float))
        feasible = False
    return OuterLoopResult(x=x, qdot_d=x[:6], thetaddot_d=x[6:],
                           feasible=feasible, status=sol.status)
