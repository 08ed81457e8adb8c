"""Independent oracles shared by the test modules.

Everything here deliberately avoids the library's own kernels and solvers:
superquadric boundaries, inside-outside values and the obstacle extrusion
come from their closed forms written out here, gaps from dense boundary
sampling, path costs from exhaustive enumeration, QP optima from trying every
active subset as an equality system, and vehicle part poses from per-part
trigonometry rather than the joint frames.  The one exception is the dense
metric pass, which solves every part/obstacle pair with the library's own
closest-pair kernel: it checks the pruning of harness.min_distance_profile,
not the solver.  The few helpers only the tests need (the QP solve, KKT
residuals, the observer's settling time, the hover thrust, a polygon's area,
the closed-form inverse Euler rate map, the per-value trajectory CSV
formatter) live here too.  So do the array
forms of the tick's layers (the observer's RK4, the model terms, the plant
step, the thrust rows and law, the outer loop, the QP solve and the target
pose), which the library runs on Python
floats and np.dot: the library's forms must match them bit for bit.  Likewise the dense form of the planner's pair sums, which evaluates
every pair's contact terms and both proxy curves on each call: the fused
pass, which skips what cannot change, must match it bit for bit.
"""

import itertools
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.spatial import cKDTree

from amplan import dynamics as dyn
from amplan.geometry import (AXIS_FLOOR, Superquadric2, boundary_points, closest_pairs,
                             shape_rows, stiffness_terms)
from amplan.planner import PlannerError, pair_rows, set_part_poses
from amplan.qp import MAX_ITER, MAX_ROWS, TOL, QpDimensionError, solve


def _signed_pow(v, e):
    return np.sign(v) * np.abs(v) ** e


def sq2_boundary(sq, gamma):
    """World boundary point(s) (..., 2) of a planar SQ at angle(s) gamma:
    the body point (a1 sgn(c)|c|^eps, a2 sgn(s)|s|^eps), c, s = cos, sin gamma,
    rotated by the shape's angle and moved to its center."""
    g = np.asarray(gamma, dtype=float)
    bx = sq.a1 * _signed_pow(np.cos(g), sq.eps)
    by = sq.a2 * _signed_pow(np.sin(g), sq.eps)
    ca, sa = math.cos(sq.angle), math.sin(sq.angle)
    return np.stack([sq.center[0] + ca * bx - sa * by,
                     sq.center[1] + sa * bx + ca * by], axis=-1)


def sq2_inside_outside(sq, pts):
    """|x/a1|^(2/eps) + |y/a2|^(2/eps) - 1 at world point(s) pts (..., 2), with
    (x, y) the point in the shape's body frame: negative inside, 0 on the
    boundary, positive outside."""
    p = np.asarray(pts, dtype=float)
    dx, dy = p[..., 0] - sq.center[0], p[..., 1] - sq.center[1]
    ca, sa = math.cos(sq.angle), math.sin(sq.angle)
    x, y = ca * dx + sa * dy, -sa * dx + ca * dy
    return np.abs(x / sq.a1) ** (2.0 / sq.eps) + np.abs(y / sq.a2) ** (2.0 / sq.eps) - 1.0


def sq2_boundary_samples(sq, n):
    return sq2_boundary(sq, np.linspace(-np.pi, np.pi, n, endpoint=False))


@dataclass(frozen=True)
class Superquadric3:
    """3D superquadric with semi-axes (a1, a2, a3), exponents (eps1, eps2) and
    rigid pose (rotation, translation): body point b = R^T (p - t)."""

    a1: float
    a2: float
    a3: float
    eps1: float
    eps2: float
    rotation: np.ndarray = field(default_factory=lambda: np.eye(3))
    translation: np.ndarray = field(default_factory=lambda: np.zeros(3))

    def to_body(self, pts_world):
        return (np.asarray(pts_world, dtype=float) - self.translation) @ self.rotation

    def to_world(self, pts_body):
        return np.asarray(pts_body, dtype=float) @ self.rotation.T + self.translation

    def inside_outside(self, pts_world):
        """(|x/a1|^(2/eps2) + |y/a2|^(2/eps2))^(eps2/eps1) + |z/a3|^(2/eps1) - 1
        at the body point (x, y, z)."""
        b = self.to_body(pts_world)
        planar = (np.abs(b[..., 0] / self.a1) ** (2.0 / self.eps2)
                  + np.abs(b[..., 1] / self.a2) ** (2.0 / self.eps2))
        return (planar ** (self.eps2 / self.eps1)
                + np.abs(b[..., 2] / self.a3) ** (2.0 / self.eps1) - 1.0)

    def boundary_point(self, gamma1, gamma2=0.0):
        """World boundary point at latitude gamma1 and longitude gamma2."""
        c1 = _signed_pow(np.cos(gamma1), self.eps1)
        return self.to_world(np.stack(
            [self.a1 * c1 * _signed_pow(np.cos(gamma2), self.eps2),
             self.a2 * c1 * _signed_pow(np.sin(gamma2), self.eps2),
             self.a3 * _signed_pow(np.sin(gamma1), self.eps1)], axis=-1))


def extrude(sq, height, eps1=0.1):
    """A planar obstacle lifted to a vertical 3D SQ of the given height standing
    on z = 0: turned by the shape's angle about z, exponent eps1 along z."""
    c, s = math.cos(sq.angle), math.sin(sq.angle)
    return Superquadric3(a1=sq.a1, a2=sq.a2, a3=height / 2.0, eps1=eps1, eps2=sq.eps,
                         rotation=np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]]),
                         translation=np.array([sq.center[0], sq.center[1], height / 2.0]))


# every STRIDE-th sample of sq_i bounds the disjoint gap for sampled_gap's query
STRIDE = 16


def sampled_gap(sq_i, sq_j, n=10_000):
    """Signed gap between two planar SQs from dense boundary sampling.

    Disjoint shapes: minimum pairwise boundary distance.  Penetrating shapes:
    negative of the deepest excursion of one boundary into the other shape
    (distance from the deepest point to the other boundary).

    Only the nearest-neighbour queries the value needs are made: the inside
    samples when the shapes penetrate, and otherwise the samples of sq_i
    within a bound on the gap taken from every STRIDE-th of them.  The value
    is the same as that of querying every sample of each boundary against
    the other (full_sampled_gap in the tests).
    """
    pi = sq2_boundary_samples(sq_i, n)
    pj = sq2_boundary_samples(sq_j, n)
    inside_ij = sq2_inside_outside(sq_j, pi) < 0.0
    inside_ji = sq2_inside_outside(sq_i, pj) < 0.0
    if inside_ij.any() or inside_ji.any():
        depth = 0.0
        for pts, inside, other in ((pi, inside_ij, pj), (pj, inside_ji, pi)):
            if inside.any():
                depth = max(depth, float(cKDTree(other).query(pts[inside])[0].max()))
        return -depth
    tree_j = cKDTree(pj)
    bound = tree_j.query(pi[::STRIDE])[0].min()
    # a margin above the bound, so that the nearest pair is never cut off
    return float(tree_j.query(pi, distance_upper_bound=bound * (1.0 + 1e-6) + 1e-12)[0].min())


def part_poses(geom, z):
    """Part centers (8, 2), angles (8,) and end-effector pose (3,) of the
    vehicle at z = [x, y, psi, th1, th3], from trigonometry written out per
    part: the rotors at rotor_arm (cos, sin)(psi + beta), the links at their
    midpoints along the arm, the end effector at the forearm tip."""
    x, y, psi, t1, t3 = np.asarray(z, dtype=float)
    beta = np.arange(6) * (np.pi / 3.0)
    a1, a2 = psi + t1, psi + t1 + t3
    bx = x + geom.arm_base_offset * np.cos(psi)
    by = y + geom.arm_base_offset * np.sin(psi)
    jx, jy = bx + geom.l1 * np.cos(a1), by + geom.l1 * np.sin(a1)
    centers = np.vstack([np.column_stack([x + geom.rotor_arm * np.cos(psi + beta),
                                          y + geom.rotor_arm * np.sin(psi + beta)]),
                         [bx + (geom.l1 / 2.0) * np.cos(a1), by + (geom.l1 / 2.0) * np.sin(a1)],
                         [jx + (geom.l2 / 2.0) * np.cos(a2), jy + (geom.l2 / 2.0) * np.sin(a2)]])
    angles = np.array([psi] * 6 + [a1, a2])
    eef = np.array([jx + geom.l2 * np.cos(a2), jy + geom.l2 * np.sin(a2), a2])
    return centers, angles, eef


def part_superquadrics(geom, z):
    """The vehicle's part shapes at z as Superquadric2 objects, posed by part_poses."""
    centers, angles, _ = part_poses(geom, z)
    a1, a2, eps = geom.part_axes
    return [Superquadric2(a1=a1[k], a2=a2[k], eps=eps[k], angle=float(angles[k]),
                          center=tuple(centers[k]))
            for k in range(geom.n_parts)]


# trajectory samples whose pairs the dense metric pass solves per closest_pairs call
DENSE_BATCH = 32


def dense_min_distance_profile(z, geom, obstacles):
    """Min signed gap over all part/obstacle pairs at each sample of z (B, 5),
    every pair solved cold, DENSE_BATCH samples per call; inf with no obstacles."""
    z = np.asarray(z, dtype=float)
    if not obstacles:
        return np.full(len(z), math.inf)
    obs_rows = shape_rows(obstacles)
    out = np.empty(len(z))
    for k in range(0, len(z), DENSE_BATCH):
        block = z[k:k + DENSE_BATCH]
        gap = closest_pairs(*pair_rows(geom, obs_rows, block)).gap
        out[k:k + len(block)] = gap.reshape(len(block), -1).min(axis=1)
    return out


def enumerate_shortest_path(nodes, edges, src, dst):
    """Cost of the cheapest simple path by exhaustive enumeration (small graphs)."""
    adj = {}
    for (a, b, w) in edges:
        adj.setdefault(a, []).append((b, w))
        adj.setdefault(b, []).append((a, w))
    best = [np.inf]

    def walk(v, cost, seen):
        if cost >= best[0]:
            return
        if v == dst:
            best[0] = cost
            return
        for (u, w) in adj.get(v, []):
            if u not in seen:
                walk(u, cost + w, seen | {u})

    walk(src, 0.0, {src})
    return best[0]


def qp_enumeration(H, g, A, b):
    """Optimal objective of min 0.5 x'Hx + g'x s.t. Ax <= b by active-subset enumeration."""
    n = H.shape[0]
    m = A.shape[0]
    best_obj, best_x = np.inf, None
    for r in range(0, min(m, n) + 1):
        # one KKT matrix [[H, As'], [As, 0]] and right side [-g; b_s] per
        # subset size; each subset rewrites only its rows' blocks
        K = np.zeros((n + r, n + r))
        K[:n, :n] = H
        rhs = np.empty(n + r)
        rhs[:n] = -g
        for subset in itertools.combinations(range(m), r):
            As = A[list(subset)]
            K[n:, :n] = As
            K[:n, n:] = As.T
            rhs[n:] = b[list(subset)]
            try:
                sol = np.linalg.solve(K, rhs)
            except np.linalg.LinAlgError:
                continue
            x = sol[:n]
            if np.all(A @ x <= b + 1e-9):
                obj = 0.5 * x @ H @ x + g @ x
                if obj < best_obj:
                    best_obj, best_x = obj, x
    return best_obj, best_x


def central_diff_gradient(f, x, h=1e-6):
    x = np.asarray(x, dtype=float)
    g = np.zeros_like(x)
    for k in range(x.size):
        e = np.zeros_like(x)
        e[k] = h
        g[k] = (f(x + e) - f(x - e)) / (2.0 * h)
    return g


@dataclass
class QpSolution:
    """A QP solve's terms, with the dual of every row (0 off the active set)."""

    x: np.ndarray
    status: str
    duals: np.ndarray
    iterations: int
    active_set: tuple = ()


def qp_solution(m, x, status, active, lam, iterations):
    """The QpSolution of one solve's terms on m rows."""
    duals = np.zeros(m)
    duals[list(active)] = lam
    return QpSolution(x, status, duals, iterations, tuple(active))


def qp_solve(prob):
    """The library's QP solve of prob's own data: it keeps no state, so every
    call is a cold solve."""
    return qp_solution(len(prob.b), *solve(prob, prob.g, prob.A, prob.b))


def kkt_residuals(prob, sol):
    """(primal infeasibility, stationarity, complementary slackness) norms."""
    primal = max(0.0, float((prob.A @ sol.x - prob.b).max())) if prob.A.size else 0.0
    stat = float(np.linalg.norm(prob.H @ sol.x + prob.g + prob.A.T @ sol.duals))
    comp = float(np.abs(sol.duals * (prob.A @ sol.x - prob.b)).max()) if prob.A.size else 0.0
    return primal, stat, comp


def dob_settling_time(gains, band=0.02):
    """Last time the observer's unit-step error (1 + lam t) exp(-lam t) leaves
    the band, for the real double pole lam = a1 / (2 eps) of a0 = a1^2 / 4."""
    a0, a1, eps = float(gains.a0[0]), float(gains.a1[0]), float(gains.eps[0])
    assert abs(a0 - a1 * a1 / 4.0) < 1e-12, "double pole a0 = a1^2 / 4 only"
    lam = a1 / (2.0 * eps)
    t = 1.0
    for _ in range(100):
        t = -math.log(band / (1.0 + lam * t)) / lam
    return t


def hover_thrust(params):
    """Per-rotor thrust balancing gravity at level attitude."""
    return params.m * params.g / (6.0 * math.cos(params.alpha_p))


def polygon_area(vertices):
    """Signed (shoelace) area of a polygon (N, 2), positive counter-clockwise."""
    x, y = vertices[:, 0], vertices[:, 1]
    return 0.5 * float(np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y))


# --- array forms of the tick's elementwise layers ------------------------------

def stacked_rk4_dob_update(state, q, qdot, T, model, gains, dt):
    """Reference observer: the per-stage np.stack form of the RK4 on the two
    filters, on the same model terms (the commanded acceleration from their
    closed-form M^-1 B); the state and the new state as arrays (2, 2, 6)."""
    M, C, G, _, MinvB, _ = model
    a0e2 = gains.a0 / gains.eps ** 2
    a1e1 = gains.a1 / gains.eps
    q = np.asarray(q, dtype=float)
    qdot = np.asarray(qdot, dtype=float)
    u_cmd = MinvB @ T
    q_in = q + 0.5 * dt * qdot

    def filter_rates(x, u):
        return np.stack([x[1], a0e2 * (u - x[0]) - a1e1 * x[1]])

    def rates(y):
        return np.stack([filter_rates(y[0], q_in), filter_rates(y[1], u_cmd)])

    y = np.asarray(state, dtype=float)
    k1 = rates(y)
    k2 = rates(y + 0.5 * dt * k1)
    k3 = rates(y + 0.5 * dt * k2)
    k4 = rates(y + dt * k3)
    y = y + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    qddot_f = a0e2 * (q + dt * qdot - y[0, 0]) - a1e1 * y[0, 1]
    return y, -M @ (y[1, 0] - qddot_f) + C + G


def skew(v):
    """The cross-product matrix of a 3-vector v."""
    x, y, z = v
    return np.array([[0.0, -z, y], [z, 0.0, -x], [-y, x, 0.0]])


def product_rotation(phi):
    """dynamics.rotation as the product Rz @ Ry @ Rx of its three elementary
    rotations."""
    r, p, y = phi
    cr, sr, cp, sp = math.cos(r), math.sin(r), math.cos(p), math.sin(p)
    cy, sy = math.cos(y), math.sin(y)
    Rz = np.array([[cy, -sy, 0], [sy, cy, 0], [0, 0, 1]])
    Ry = np.array([[cp, 0, sp], [0, 1, 0], [-sp, 0, cp]])
    Rx = np.array([[1, 0, 0], [0, cr, -sr], [0, sr, cr]])
    return Rz @ Ry @ Rx


def euler_rate_map_inv(phi) -> np.ndarray:
    """Q^-1, the Euler rates per unit body angular velocity, from dynamics'
    closed-form builder, behind the same pitch check as Q."""
    dyn._check_pitch(phi)
    r, p, _ = phi
    return dyn._matrix(dyn._rate_map_inv(math.cos(r), math.sin(r), math.cos(p), math.tan(p)))


def array_model_terms(phi, phidot, params):
    """dynamics.model_terms with Q, Q^-1 and Qdot each from its own public
    function, so each evaluates its own cosines and sines, R from
    product_rotation, skew(w), products by @ and G built per call."""
    Q = dyn.euler_rate_map(phi)
    Qinv = euler_rate_map_inv(phi)
    Qd = dyn.euler_rate_map_dot(phi, phidot)
    R = product_rotation(phi)
    pd = np.asarray(phidot, dtype=float)
    w = Q @ pd
    Qdpd = Qd @ pd
    A = params.allocation_body

    def blockdiag(a, b):
        out = np.zeros((6, 6))
        out[:3, :3] = a
        out[3:, 3:] = b
        return out

    B = blockdiag(R, Q.T) @ A

    def terms(m, J):
        M = np.zeros((6, 6))
        M[0, 0] = M[1, 1] = M[2, 2] = m
        M[3:, 3:] = Q.T @ J @ Q
        C = np.zeros(6)
        C[3:] = Q.T @ (J @ Qdpd + skew(w) @ (J @ w))
        G = np.zeros(6)
        G[2] = m * params.g
        return M, C, G

    nominal = terms(params.m_hat, params.J_hat)
    true = nominal if params.nominal_is_true else terms(params.m, params.J)
    MinvB = blockdiag(R / params.m_hat, Qinv @ params.J_hat_inv) @ A
    Binv = params.allocation_body_inv @ blockdiag(R.T, Qinv.T)
    return (*true, B), (*nominal, B, MinvB, Binv), R


def array_step(x, plant, T, theta_d, thetadot_d, thetaddot_d, d_true, dt, params):
    """dynamics.step on arrays: np.clip, then the semi-implicit Euler and the
    arm tracking law as whole-vector operations on the state x (18,)."""
    M, C, G, B = plant
    x = np.asarray(x, dtype=float)
    q, qdot, theta, thetadot = x[:6], x[6:12], x[12:15], x[15:]
    T = np.clip(np.asarray(T, dtype=float), params.thrust_sat[0], params.thrust_sat[1])
    qddot = np.linalg.solve(M, B @ T + np.asarray(d_true, dtype=float) - C - G)
    if not np.isfinite(qddot).all():
        raise dyn.PlantError("non-finite acceleration in plant step")
    qdot = qdot + dt * qddot
    k = dyn.ARM_TRACK_GAIN
    thddot = (np.asarray(thetaddot_d, dtype=float)
              + 2.0 * k * (np.asarray(thetadot_d, dtype=float) - thetadot)
              + k ** 2 * (np.asarray(theta_d, dtype=float) - theta))
    thetadot = thetadot + dt * thddot
    return np.concatenate([q + dt * qdot, qdot, theta + dt * thetadot, thetadot])


def array_thrust_limit_rows(q_d, q, qdot, d_hat, model, gains, t_min, t_max):
    """control.thrust_limit_rows with its products by @: (A, b, S, c)."""
    M, C, G, _, _, Binv = model
    q = np.asarray(q, dtype=float)
    qdot = np.asarray(qdot, dtype=float)
    S = Binv @ M @ gains.kd
    e = np.asarray(q_d, dtype=float) - q
    c = Binv @ (M @ (gains.kp @ e - gains.kd @ qdot) + C + G - np.asarray(d_hat, dtype=float))
    A = np.zeros((12, 9))
    A[:6, :6] = -S
    A[6:, :6] = S
    b = np.concatenate([c - t_min, t_max - c])
    return A, b, S, c


def array_thrust(S, c, qdot_d):
    """The thrust law T = S qdot_d + c by @."""
    return S @ qdot_d + c


def array_qp_solve(prob, g, A, b):
    """qp.solve of prob's factor with g, A and b, with its products by @, as
    a QpSolution."""
    if len(b) > MAX_ROWS:
        raise QpDimensionError(f"problem too large: m={len(b)}")
    Linv = prob.Linv
    x = -Linv.T @ (Linv @ g)
    work, lam = [], np.zeros(0)
    p = None
    status = "max_iter"
    for it in range(1, MAX_ITER + 1):
        if p is None:
            resid = A @ x - b
            if work:
                resid[work] = -np.inf
            if resid.size == 0 or resid.max() <= TOL:
                if not resid.size and np.isnan(x).any():
                    raise QpDimensionError("QP data g holds a NaN")
                status = "optimal"
                break
            p, lam_p = int(np.argmax(resid)), 0.0
            if np.isnan(resid[p]):
                raise QpDimensionError("QP data g, A or b holds a NaN")
        q = len(work)
        Q, R = np.linalg.qr(Linv @ A[work].T, mode="complete")
        d = Q.T @ (Linv @ A[p])
        r = np.linalg.solve(R[:q], d[:q])
        curv = d[q:] @ d[q:]
        falling = np.flatnonzero(r > TOL)
        t_drop, k = np.inf, None
        if falling.size:
            k = falling[np.argmin(lam[falling] / r[falling])]
            t_drop = lam[k] / r[k]
        t_add = (A[p] @ x - b[p]) / curv if curv > TOL * TOL * (d @ d) else np.inf
        if t_drop == t_add == np.inf:
            status = "infeasible"
            break
        t = min(t_drop, t_add)
        if t_add < np.inf:
            x = x - t * (Linv.T @ (Q[:, q:] @ d[q:]))
        lam, lam_p = lam - t * r, lam_p + t
        if t_add <= t_drop:
            work.append(p)
            lam, p = np.append(lam, lam_p), None
        else:
            del work[k]
            lam = np.delete(lam, k)
    return qp_solution(len(b), x, status, work, np.maximum(lam, 0.0), it)


def array_outer_loop(q_t, theta_t, q_d, theta_d, thetadot_d, A, b, gains, prev_x=None):
    """control.outer_loop with its products by @ and array_qp_solve: (x, feasible)."""
    gq, gt, a_dot, a_err = gains.outer_factors
    v_ref = gains.gamma_q @ (np.asarray(q_t, dtype=float) - np.asarray(q_d, dtype=float))
    a_ref = (a_dot @ np.asarray(thetadot_d, dtype=float)
             + a_err @ (np.asarray(theta_t, dtype=float) - np.asarray(theta_d, dtype=float)))
    g = np.concatenate([gq @ v_ref, gt @ a_ref])
    sol = array_qp_solve(gains.outer_qp, g, A, b)
    if sol.status == "optimal":
        return sol.x, True
    return 0.5 * (np.zeros(9) if prev_x is None else np.asarray(prev_x, dtype=float)), False


def scalar_target_pose(traj, t, duration, height):
    """planner.target_pose at one mission time t, on Python floats."""
    if duration <= 0.0:
        raise PlannerError("duration must be positive")
    s = min(max(t / duration, 0.0), 1.0)
    k = int(np.searchsorted(traj.s, s, side="right") - 1)
    k = min(max(k, 0), len(traj.s) - 2)
    w = (s - traj.s[k]) / (traj.s[k + 1] - traj.s[k])
    z = (1.0 - w) * traj.z[k] + w * traj.z[k + 1]
    return np.array([z[0], z[1], height, 0.0, 0.0, z[2]]), np.array([z[3], 0.0, z[4]])


_EYE2 = np.eye(2)[:, :, None]


def dense_pair_sums(ev, z, Gp, Go, jf):
    """planner._pair_sums as it was before the loaded-pair and proxy-curve
    shortcuts: every proxy point from one boundary call, every pair's contact
    terms evaluated.  Poses the part rows of ev.rows at z as the fused pass does."""
    P, st, rows = ev.P, ev.stiff, ev.rows
    set_part_poses(rows[:, 0], jf, ev.table.gather)
    X = boundary_points(rows.reshape(7, 2 * P), np.concatenate((Gp, Go), axis=None))
    p, q = X[:, :P], X[:, P:]

    d = p - rows[5:, 1]
    w = ev.oscale[:, 0] * d[0] + ev.oscale[:, 1] * d[1]
    aw = np.abs(w)
    g = (aw ** ev.oexp).sum(axis=0) - 1.0 - st.d_prime
    D = p - q
    d2 = (D * D).sum(axis=0)
    k0, k1, k2 = stiffness_terms(g, st)

    fb = ev.fgrad * np.sign(w) * aw ** ev.e1
    hb = ev.fcurv * np.maximum(aw, AXIS_FLOOR) ** ev.e2
    f = ev.orot[:, 0] * fb[0] + ev.orot[:, 1] * fb[1]
    A = 0.5 * k1 * d2
    Gr = A * f + k0 * D
    fD = f[:, None] * D
    Hp = (0.5 * k2 * d2 * f[:, None] * f
          + A * (ev.orot2[:, :, 0] * hb[0] + ev.orot2[:, :, 1] * hb[1])
          + k1 * (fD + fD.transpose(1, 0, 2)) + k0 * _EYE2)

    V = (p[:, :, None] - jf[:, :2].T[:, None]) * ev.moved
    Jp = ev.jp.copy()
    Jp[0, :, 2:] = -V[1]
    Jp[1, :, 2:] = V[0]
    HJ = Hp[:, 0, :, None] * Jp[0] + Hp[:, 1, :, None] * Jp[1]

    Jp, Gr = Jp.reshape(2 * P, 5), Gr.reshape(2 * P)
    gz = Gr @ Jp
    H = Jp.T @ HJ.reshape(2 * P, 5)
    curv = -(Gr @ V.reshape(2 * P, 3))
    return gz, H, curv, (0.5 * k0 * d2).sum()


def per_value_trajectory_csv(traj, spec):
    """harness.trajectory_csv's text, one format(float(v), spec) call per
    value of each sample's [s, z, eef, u]."""
    rows = ["s,x,y,psi,theta1,theta3,eef_x,eef_y,eef_yaw,u_x,u_y,u_yaw"]
    for k in range(len(traj.s)):
        vals = [traj.s[k]] + list(traj.z[k]) + list(traj.eef[k]) + list(traj.u[k])
        rows.append(",".join(format(float(v), spec) for v in vals))
    return "\n".join(rows) + "\n"


def per_value_telemetry_csv(tel, spec):
    """harness.telemetry_csv's text, one format(float(v), spec) call per
    value of each tick's [t, q, qdot, theta, thrust, d_hat, d_true, h_min],
    then the tick's feasible flag as 0 or 1."""
    header = ",".join(["t"] + [f"{name}{i}" for name, n in (
        ("q", 6), ("qdot", 6), ("theta", 3), ("T", 6), ("dhat", 6), ("dtrue", 6))
        for i in range(n)] + ["h_min", "feasible"])
    rows = [header]
    for k in range(len(tel.t)):
        vals = ([tel.t[k]] + list(tel.q[k]) + list(tel.qdot[k]) + list(tel.theta[k])
                + list(tel.thrust[k]) + list(tel.d_hat[k]) + list(tel.d_true[k])
                + [tel.h_min[k]])
        rows.append(",".join(format(float(v), spec) for v in vals) + f",{int(tel.feasible[k])}")
    return "\n".join(rows) + "\n"
