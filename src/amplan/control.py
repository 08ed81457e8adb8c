"""Two-loop safety-critical flight control.

Inner loop: computed-torque thrust law on the 6-DOF base with a second-order
disturbance observer (DOB) canceling the lumped disturbance.  Outer loop: a
small QP choosing the base velocity reference and arm acceleration reference,
subject to per-rotor thrust band limits and high-order control barrier
function (HOCBF) rows that keep every vehicle part out of every obstacle.

The barrier acts on the obstacle-frame coordinates dX of a vehicle proxy
point; proxies are tracked in the horizontal plane, and ProxyTracker extrudes
every planar obstacle to a vertical 3D superquadric.

As in dynamics, the per-channel elementwise arithmetic of a tick (the
observer's RK4) runs on Python floats, and every matrix product stays in
numpy, whose BLAS fused multiply-adds round differently: through np.dot,
on the same operands and in the same association.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from types import SimpleNamespace
from typing import NamedTuple

import numpy as np

from . import dynamics as dyn
from .geometry import _body_curve, center_angles, check_numbers, closest_pairs, shape_rows
from .planner import PairTable, VehicleGeometry, set_part_poses
from .qp import QpProblem, solve


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


@dataclass(frozen=True)
class GainSet:
    """Controller gains; defaults follow the reference tuning.  Frozen, so that
    the factors and the QP derived from them cannot go stale;
    dataclasses.replace derives them afresh."""

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
        for name in ("a0", "a1", "eps"):
            object.__setattr__(self, name, _as_diag6(getattr(self, name)))
        if np.any(self.a0 <= 0.0) or np.any(self.a1 <= 0.0):
            raise GainError("observer gains a0, a1 must be positive")
        # stable observer envelope: a0 / a1^2 strictly below one half
        if np.any(self.a0 / self.a1 ** 2 >= 0.5):
            raise GainError("observer gains must satisfy a0 / a1^2 < 1/2")
        if np.any(self.eps <= 0.0) or np.any(self.eps >= 1.0):
            raise GainError("observer bandwidth eps must lie in (0, 1)")
        for name in ("kp", "kd", "gamma_q", "q_qdot"):
            m = np.array(getattr(self, name), dtype=float)
            if m.shape != (6, 6) or np.linalg.eigvalsh(0.5 * (m + m.T)).min() <= 0.0:
                raise GainError(f"{name} must be 6x6 positive definite")
            object.__setattr__(self, name, m)
        for name in ("gamma_theta", "q_thetaddot"):
            m = np.array(getattr(self, name), dtype=float)
            if m.shape != (3, 3) or np.linalg.eigvalsh(0.5 * (m + m.T)).min() <= 0.0:
                raise GainError(f"{name} must be 3x3 positive definite")
            object.__setattr__(self, name, m)
        # private, read-only copies: no in-place write can leave the caches below stale
        for f in fields(self):
            getattr(self, f.name).flags.writeable = False
        # the observer's per-channel coefficients a0/eps^2 and a1/eps, as floats
        object.__setattr__(self, "dob_factors", (tuple((self.a0 / self.eps ** 2).tolist()),
                                                 tuple((self.a1 / self.eps).tolist())))
        # outer_loop's per-mission QP (H checked once; every tick's QP shares H
        # and its factor) and the factors of g and a_ref, all read-only too
        H = np.zeros((9, 9))
        H[:6, :6], H[6:, 6:] = 2.0 * self.q_qdot, 2.0 * self.q_thetaddot
        qp = QpProblem(H, np.zeros(9), np.zeros((0, 9)), np.zeros(0))
        factors = (-2.0 * self.q_qdot, -2.0 * self.q_thetaddot,
                   -2.0 * self.gamma_theta, self.gamma_theta @ self.gamma_theta)
        for a in (qp.H, qp.Linv, *factors):
            a.flags.writeable = False
        object.__setattr__(self, "outer_qp", qp)
        object.__setattr__(self, "outer_factors", factors)


@dataclass
class DobState:
    """Filter states [x0, x1] of six floats each: xq tracks q, xp the commanded input."""

    xq: list = field(default_factory=lambda: [[0.0] * 6, [0.0] * 6])
    xp: list = field(default_factory=lambda: [[0.0] * 6, [0.0] * 6])

    @classmethod
    def initialize(cls, q) -> "DobState":
        return cls(xq=[np.asarray(q, dtype=float).tolist(), [0.0] * 6])


def _filter_rk4(x, u, a0e2, a1e1, dt):
    """One RK4 step of the second-order filters x = [x0, x1] (per-channel
    float lists) on the held input u: x0dot = x1, x1dot = a0/e^2 (u - x0) - a1/e x1."""
    h, dt6 = 0.5 * dt, dt / 6.0
    x0, x1 = [], []
    for y0, y1, ui, a, b in zip(*x, u, a0e2, a1e1):
        k1a, k1b = y1, a * (ui - y0) - b * y1
        s0, s1 = y0 + h * k1a, y1 + h * k1b
        k2a, k2b = s1, a * (ui - s0) - b * s1
        s0, s1 = y0 + h * k2a, y1 + h * k2b
        k3a, k3b = s1, a * (ui - s0) - b * s1
        s0, s1 = y0 + dt * k3a, y1 + dt * k3b
        k4a, k4b = s1, a * (ui - s0) - b * s1
        x0.append(y0 + dt6 * (k1a + 2.0 * k2a + 2.0 * k3a + k4a))
        x1.append(y1 + dt6 * (k1b + 2.0 * k2b + 2.0 * k3b + k4b))
    return [x0, x1]


def dob_update(state: DobState, q, qdot, T, model: dyn.ControlTerms,
               gains: GainSet, dt: float):
    """Advance the observer one step and return (new state, disturbance estimate).

    The estimate compares the filtered commanded generalized acceleration with
    the filtered measured acceleration, then re-adds the Coriolis and gravity
    terms; model holds the controller's nominal terms at (q, qdot).
    """
    q = np.asarray(q, dtype=float).tolist()
    qdot = np.asarray(qdot, dtype=float).tolist()
    a0e2, a1e1 = gains.dob_factors
    u_cmd = np.dot(model.MinvB, np.asarray(T, dtype=float)).tolist()
    # midpoint reconstruction of q over the hold interval: a plain zero-order
    # hold of a quadratically growing position drifts the acceleration estimate
    h = 0.5 * dt
    u_q = [x + h * v for x, v in zip(q, qdot)]
    xq = _filter_rk4(state.xq, u_q, a0e2, a1e1, dt)
    xp = _filter_rk4(state.xp, u_cmd, a0e2, a1e1, dt)

    # output equation pairs the end-of-step state with the end-of-step input
    lag = [p - (a * (x + dt * v - y0) - b * y1)
           for p, x, v, y0, y1, a, b in zip(xp[0], q, qdot, *xq, a0e2, a1e1)]
    d_hat = np.dot(-model.M, np.array(lag)) + model.C + model.G
    return DobState(xq=xq, xp=xp), d_hat


class ThrustRows(NamedTuple):
    """The thrust law T = S qdot_d + c, affine in the commanded base velocity,
    and its band rows A x <= b on x = [qdot_d; thetaddot_d]."""

    A: np.ndarray
    b: np.ndarray
    S: np.ndarray
    c: np.ndarray

    def thrust(self, qdot_d) -> np.ndarray:
        """Per-rotor thrusts at the commanded base velocity qdot_d."""
        return np.dot(self.S, qdot_d) + self.c


def thrust_limit_rows(q_d, q, qdot, d_hat, model: dyn.ControlTerms, gains: GainSet,
                      t_min: float, t_max: float) -> ThrustRows:
    """The computed-torque thrust law with DOB compensation, B T = M (Kd (qdot_d
    - qdot) + Kp (q_d - q)) + C + G - d_hat on the nominal terms model at
    (q, qdot), and the rows keeping every rotor thrust inside [t_min, t_max].

    The rows hold exactly for the thrust the law gives, since both are the one
    affine map S, c.
    """
    q = np.asarray(q, dtype=float)
    qdot = np.asarray(qdot, dtype=float)
    S = np.dot(np.dot(model.Binv, model.M), gains.kd)
    e = np.asarray(q_d, dtype=float) - q
    c = np.dot(model.Binv, np.dot(model.M, np.dot(gains.kp, e) - np.dot(gains.kd, qdot))
               + model.C + model.G - np.asarray(d_hat, dtype=float))
    A = np.zeros((12, 9))
    A[:6, :6] = -S
    A[6:, :6] = S
    b = np.concatenate([c - t_min, t_max - c])
    return ThrustRows(A, b, S, c)


# --- 3D proxy-point kinematics -------------------------------------------------

# axis j of (roll, pitch, yaw, th1, th2, th3) turns frame f (base, shoulder,
# forearm) iff _MOVES[f, j]; it passes through the pivot of frame _AXIS_PIVOT[j]
_MOVES = np.array([[1.0, 1.0, 1.0, 0.0, 0.0, 0.0],
                   [1.0, 1.0, 1.0, 1.0, 0.0, 0.0],
                   [1.0, 1.0, 1.0, 1.0, 1.0, 1.0]])
_AXIS_PIVOT = np.array([0, 0, 0, 1, 2, 2])


def vehicle_frames(geom: VehicleGeometry, q, R0, theta):
    """(pivots, rotations) of the base, shoulder and forearm frames: pivots at
    the base center, arm base and elbow; the base turns by R0, the rotation of
    q's attitude (dynamics.rotation), the shoulder by th1 about z, the forearm
    by th2 about y, then by th3 about z."""
    # the entries of Rz(th1) and of the ZYX rotation of (0, -th2, -th3), whose
    # transpose is Ry(th2) Rz(th3), are single products: dynamics.rotation of
    # the same angles gives them bit for bit, up to the sign of exact zeros
    c1, s1 = math.cos(theta[0]), math.sin(theta[0])
    R1 = np.dot(R0, np.array([[c1, -s1, 0.0], [s1, c1, 0.0], [0.0, 0.0, 1.0]]))
    cp, sp = math.cos(-theta[1]), math.sin(-theta[1])
    cy, sy = math.cos(-theta[2]), math.sin(-theta[2])
    R2 = np.dot(R1, np.array([[cy * cp, -sy, cy * sp], [sy * cp, cy, sy * sp], [-sp, 0.0, cp]]).T)
    p1 = q[:3] + geom.arm_base_offset * R0[:, 0]
    return np.array([q[:3], p1, p1 + geom.l1 * R1[:, 0]]), np.array([R0, R1, R2])


def proxy_points(tracker: ProxyTracker, gammas, frames, pairs):
    """World proxy points X (K, 3) of the parts of pairs (an index array of K
    pairs) at planar proxy angles gammas (K,), in the vehicle_frames frames."""
    pivots, rotations = frames
    body = tracker.part_offsets[pairs]
    x, y = _body_curve(tracker.part_axes[:, pairs], np.cos(gammas), np.sin(gammas))
    body[:, 0] += x
    body[:, 1] += y
    link = tracker.link[pairs]
    return pivots[link] + np.einsum("pij,pj->pi", rotations[link], body)


def _rigid_accel(acc, alpha, omega, r):
    """Acceleration of points r away from a pivot with acceleration acc, fixed in
    a frame of angular velocity omega and angular acceleration alpha."""
    return acc + np.cross(alpha, r) + np.cross(omega, np.cross(omega, r))


def proxy_jacobians(frames, links, X, phi, v):
    """Jacobians J (K, 3, 9) wrt (q, theta) of world points X (K, 3) fixed in
    frames links, and Jdot v (K, 3) along v = (qdot, thetadot).

    Column 3 + j is axis_j x (X - pivot_j) for each axis turning the point's
    frame: the Euler axes R Q(phi), then the joint axes.  Jdot v is the
    acceleration of X at zero generalized acceleration.
    """
    pivots, (R0, R1, R2) = frames
    axes = np.vstack([(R0 @ dyn.euler_rate_map(phi)).T, R0[:, 2], R1[:, 1], R2[:, 2]])
    spin = axes * v[3:, None]
    omega = _MOVES @ spin
    # the th1, th2, th3 axes turn with the base, the shoulder, and the shoulder
    # turned by th2
    carrier = np.array([omega[0], omega[1], omega[1] + spin[4]])
    alpha = (R0 @ dyn.euler_rate_map_dot(phi, v[3:6]) @ v[3:6]
             + _MOVES[:, 3:] @ np.cross(carrier, spin[3:]))
    # the base center does not accelerate at zero generalized acceleration
    pivot_acc = np.cumsum([np.zeros(3), *_rigid_accel(0.0, alpha[:2], omega[:2],
                                                      np.diff(pivots, axis=0))], axis=0)
    jdv = _rigid_accel(pivot_acc[links], alpha[links], omega[links], X - pivots[links])

    J = np.empty((len(X), 3, 9))
    J[:, :, :3] = np.eye(3)
    J[:, :, 3:] = (np.cross(axes, X[:, None] - pivots[_AXIS_PIVOT])
                   * _MOVES[links][..., None]).transpose(0, 2, 1)
    return J, jdv


# --- barrier function ----------------------------------------------------------

def _bracket(dx, obs):
    """Inside-outside bracket g = u^(eps2/eps1) + w_z^(2/eps1), u = w_x^(2/eps2)
    + w_y^(2/eps2), of obstacle-frame points dx (..., 3), with w = |dx| / a.

    obs holds the semi-axes a1, a2, a3 and exponents eps1, eps2, as numbers or
    as arrays with one entry per point (ProxyTracker).  Only g = 0, whose log
    is not finite, raises: deep inside, g is tiny but positive (9e-13 a
    quarter of the semi-axes from the axis, near mid-height, with eps1 = 0.1).
    """
    w = [np.abs(dx[..., i]) / a for i, a in enumerate((obs.a1, obs.a2, obs.a3))]
    e2 = 2.0 / obs.eps2
    u = w[0] ** e2 + w[1] ** e2
    g = u ** (obs.eps2 / obs.eps1) + w[2] ** (2.0 / obs.eps1)
    if np.any(g == 0.0):
        raise ControlError("barrier degenerate: proxy at the obstacle center")
    return g, w, u


def h_co(dx, obs):
    """Barrier h = log g, 0 on the boundary, at obstacle-frame points dx (..., 3)."""
    return np.log(_bracket(np.asarray(dx, dtype=float), obs)[0])


def h_co_derivs(dx, obs):
    """(h, grad h, hess h) wrt obstacle-frame points dx (..., 3), analytic;
    obs as in _bracket."""
    dx = np.asarray(dx, dtype=float)
    g, w, u = _bracket(dx, obs)
    e2, e1 = 2.0 / obs.eps2, 2.0 / obs.eps1
    r = obs.eps2 / obs.eps1

    def d(i, a, p):
        # first two derivatives of w_i^p in dx_i, with an axis floor
        wf = np.maximum(w[i], 1e-12)
        return (p * wf ** (p - 1.0) * np.sign(dx[..., i]) / a,
                p * (p - 1.0) * wf ** (p - 2.0) / a ** 2)

    ux1, ux2 = d(0, obs.a1, e2)
    uy1, uy2 = d(1, obs.a2, e2)
    uz1, uz2 = d(2, obs.a3, e1)
    uf = np.maximum(u, 1e-300)
    du = r * uf ** (r - 1.0)
    ddu = r * (r - 1.0) * uf ** (r - 2.0)
    grad = np.stack([du * ux1, du * uy1, uz1], axis=-1) / g[..., None]
    hg = np.zeros(dx.shape[:-1] + (3, 3))
    hg[..., 0, 0] = ddu * ux1 ** 2 + du * ux2
    hg[..., 1, 1] = ddu * uy1 ** 2 + du * uy2
    hg[..., 0, 1] = hg[..., 1, 0] = ddu * ux1 * uy1
    hg[..., 2, 2] = uz2
    hess = hg / g[..., None, None] - grad[..., :, None] * grad[..., None, :]
    return np.log(g), grad, hess


@dataclass
class SafetyParams:
    alpha_co: float = 5.0
    sigma_co: float = 1.0
    t_min: float = 1.0
    t_max: float = 15.0
    obstacle_height: float = 3.0

    def __post_init__(self):
        check_numbers(self, ControlError,
                      ("alpha_co", "sigma_co", "t_min", "t_max", "obstacle_height"))
        if self.alpha_co <= 0.0 or self.sigma_co < 0.0:
            raise ControlError("need alpha_co > 0 and sigma_co >= 0")
        if not (0.0 <= self.t_min < self.t_max):
            raise ControlError("need 0 <= t_min < t_max")
        if self.obstacle_height <= 0.0:
            raise ControlError("need obstacle_height > 0")


# exponent of the vertical profile of every extruded obstacle
EXTRUDE_EPS1 = 0.1
# h_bounds' floor on rho / r_obs
_TINY = np.finfo(float).tiny


class ProxyTracker(PairTable):
    """Warm-started planar proxy angles gammas (2, P) of the (part pi,
    obstacle oi) pairs, and the per-pair constants of their barrier rows,
    built once per mission; gammas[0] is the part side.

    Each refresh rewrites the part poses of rows (planner.set_part_poses)
    and solves the pairs it is given in one closest_pairs call.  gammas
    holds the angles of the pairs the last refresh solved and NaN for every
    other pair (cbf_rows also clears them on a tick that refreshes no pair):
    a pair with angles starts from them, any other from its center-to-center
    directions (geometry.center_angles).  closest_pairs never mixes pairs,
    so which pairs share a call does not change any pair's result.

    The barrier constants of each pair are its part's frame (link),
    semi-axes and exponent (part_axes) and center in its frame
    (part_offsets), and its obstacle extruded to a vertical 3D superquadric
    of the given height standing on z = 0: rotation and translation,
    semi-axes a1, a2 and exponent eps2 of the planar shape, a3 of half the
    height, and exponent eps1 = EXTRUDE_EPS1.
    """

    def __init__(self, geom: VehicleGeometry, obstacles, height: float):
        super().__init__(geom, shape_rows(obstacles))
        self.gammas = np.full((2, self.pi.size), np.nan)
        self.link = geom.part_links[self.pi]
        self.part_axes = geom.part_axes[:, self.pi]
        self.part_offsets = np.pad(geom.part_offsets[self.pi], ((0, 0), (0, 1)))
        self.rotation = np.array([dyn.rotation((0.0, 0.0, obstacles[o].angle))
                                  for o in self.oi]).reshape(-1, 3, 3)
        self.a1, self.a2, self.eps2, _, _, cx, cy = self.rows[1]
        self.a3 = np.full(self.oi.size, height / 2.0)
        self.eps1 = np.full(self.oi.size, EXTRUDE_EPS1)
        self.translation = np.column_stack([cx, cy, self.a3])

    def refresh(self, q, theta, pairs=None):
        """Re-solve the planar closest pairs of pairs (an index array; every
        pair when None) at the current pose; returns their signed gaps."""
        if pairs is None:
            pairs = np.arange(self.pi.size)
        if pairs.size == 0:
            return np.zeros(0)
        set_part_poses(self.rows[0], self.geom, self.pi, [q[0], q[1], q[5], theta[0], theta[2]])
        sides = self.rows[:, :, pairs]
        last = self.gammas[:, pairs]
        res = closest_pairs(*sides, init=np.where(np.isnan(last), center_angles(*sides), last))
        self.gammas.fill(np.nan)
        self.gammas[:, pairs] = res.gammas
        return res.gap

    def shapes(self, pairs):
        """The extruded obstacles of pairs (an index array), as h_co takes them."""
        return SimpleNamespace(a1=self.a1[pairs], a2=self.a2[pairs], a3=self.a3[pairs],
                               eps1=self.eps1[pairs], eps2=self.eps2[pairs])

    def h_bounds(self, frames):
        """A lower bound on every pair's h at any proxy angle, in the
        vehicle_frames frames: (2 / EXTRUDE_EPS1) log(rho / r_obs), with
        rho / r_obs floored at the smallest normal float (below -14000).

        A part's boundary points lie within r_part of its center C, tilt
        included, so at least rho = PairTable.rho of the centers' projections
        C_xy from the obstacle's axis.  The planar bracket u is homogeneous
        and is 1 within r_obs of the axis, so u >= (rho / r_obs)^(2 / eps2),
        and the extruded bracket is at least u^(eps2 / eps1).
        """
        pivots, rotations = frames
        link = self.geom.part_links
        centers = pivots[link, :2] + np.einsum("pij,pj->pi", rotations[link, :2, :2],
                                               self.geom.part_offsets)
        rho = self.rho(centers.T[..., None])
        return (2.0 / EXTRUDE_EPS1) * np.log(np.maximum(rho / self.r_obs, _TINY))


# Pairs with h above this emit no row: their obstacle is far (e^4 is about 55
# on the inside-outside bracket), and the cull keeps the QP within qp.MAX_ROWS.
H_CULL = 4.0


def cbf_rows(tracker: ProxyTracker, q, R, qdot, theta, thetadot, q_d, gains: GainSet,
             safety: SafetyParams):
    """HOCBF rows A x <= b for the outer-loop decision x = [qdot_d; thetaddot_d],
    and a value of h for every pair; R is the rotation of q's attitude.

    Each tick first bounds every pair's h from below (ProxyTracker.h_bounds).
    A pair whose bound exceeds H_CULL is far: it could emit no row at any
    proxy angle, so it gets no proxy refresh and no barrier pass, and its
    value is the bound.  The near pairs are refreshed (ProxyTracker.refresh)
    and their value is h at the refreshed part-side angles; those with
    h <= H_CULL become rows, in pair order.

    Under the inner loop the base acceleration is Kd (qdot_d - qdot) +
    Kp (q_d - q) and the arm tracks thetaddot_d directly, so the second
    barrier derivative is affine in x.
    """
    if tracker.pi.size == 0:
        return np.zeros((0, 9)), np.zeros(0), np.zeros(0)
    q = np.asarray(q, dtype=float)
    qdot = np.asarray(qdot, dtype=float)
    frames = vehicle_frames(tracker.geom, q, R, theta)
    h = tracker.h_bounds(frames)
    near = np.flatnonzero(h <= H_CULL)
    if near.size == 0:
        # no pair keeps its angles, as after a refresh of no pair
        tracker.gammas.fill(np.nan)
        return np.zeros((0, 9)), np.zeros(0), h
    tracker.refresh(q, theta, near)
    X = proxy_points(tracker, tracker.gammas[0, near], frames, near)
    dx = np.einsum("pji,pj->pi", tracker.rotation[near], X - tracker.translation[near])
    h[near] = h_co(dx, tracker.shapes(near))
    keep = np.flatnonzero(h[near] <= H_CULL)
    if keep.size == 0:
        return np.zeros((0, 9)), np.zeros(0), h
    rows = near[keep]
    _, grad, hess = h_co_derivs(dx[keep], tracker.shapes(rows))

    v = np.concatenate([qdot, thetadot])
    J, jdv = proxy_jacobians(frames, tracker.link[rows], X[keep], q[3:], v)
    RT = tracker.rotation[rows].transpose(0, 2, 1)
    A_dx = RT @ J
    dxdot = A_dx @ v
    drift = np.concatenate([gains.kp @ (np.asarray(q_d, dtype=float) - q)
                            - gains.kd @ qdot, np.zeros(3)])
    b = (np.einsum("ki,kij,kj->k", dxdot, hess, dxdot)
         + np.einsum("ki,ki->k", grad, A_dx @ drift + np.einsum("kij,kj->ki", RT, jdv))
         + 2.0 * safety.alpha_co * np.einsum("ki,ki->k", grad, dxdot)
         + safety.alpha_co ** 2 * h[rows]
         - safety.sigma_co)
    gA = np.einsum("ki,kij->kj", grad, A_dx)
    return -np.hstack([gA[:, :6] @ gains.kd, gA[:, 6:]]), b, h


@dataclass
class OuterLoopResult:
    x: np.ndarray
    qdot_d: np.ndarray
    thetaddot_d: np.ndarray
    feasible: bool
    status: str


def outer_loop(q_t, theta_t, q_d, theta_d, thetadot_d, A, b, gains: GainSet,
               prev_x=None) -> OuterLoopResult:
    """Reference-tracking QP over x = [qdot_d; thetaddot_d] with safety rows,
    solved afresh each call on the gains' per-mission QP (gains.outer_qp).

    When the rows are infeasible (or the solve hits its iteration cap) the
    previous solution is reused at half magnitude and the result is flagged.
    """
    gq, gt, a_dot, a_err = gains.outer_factors
    v_ref = np.dot(gains.gamma_q, np.asarray(q_t, dtype=float) - q_d)
    a_ref = np.dot(a_dot, thetadot_d) + np.dot(a_err, np.asarray(theta_t, dtype=float) - theta_d)
    g = np.concatenate([np.dot(gq, v_ref), np.dot(gt, a_ref)])
    sol = solve(gains.outer_qp.with_rows(g, A, b))
    feasible = sol.status == "optimal"
    x = sol.x if feasible else 0.5 * (np.zeros(9) if prev_x is None
                                      else np.asarray(prev_x, dtype=float))
    return OuterLoopResult(x=x, qdot_d=x[:6], thetaddot_d=x[6:],
                           feasible=feasible, status=sol.status)
