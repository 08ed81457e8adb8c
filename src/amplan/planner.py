"""Whole-body planner: potential-field equilibrium tracking along a clearance path.

The planar system configuration is z = [x, y, psi, th1, th3] (base position,
base heading, two arm joints).  The vehicle footprint is a set of planar SQ
parts (six rotor disks plus two arm links), each fixed in the base, shoulder
or forearm frame; set_part_poses places them from those joint frames for every
caller.  Each part and obstacle interact through a stiff short-range potential
on their proxy points, the pair's closest points (geometry.closest_pairs),
re-solved along the plan while the pair is near.  A moving
end-effector attractor u(s) slides along the clearance path; the configuration
follows the potential's equilibrium manifold grad_z W = 0, traced in the path
parameter s by predictor-corrector continuation on a fixed grid.

The potential, its configuration-space gradient and Hessian and the
end-effector Jacobian are closed-form, computed in one batched pass over the
part/obstacle pairs per continuation evaluation, on the proxy points of
geometry's superquadric boundary kernel.  Each pass finds one near set
with the far-pair test of PairTable (the safety filter's too): none where
the vehicle gate (PairTable.beyond), one circle about the base center,
clears every obstacle, else the pairs whose bound rho is within their
obstacle's reach (PairTable.near).  Only the near pairs take the stiffness
law, every other pair's stiffness is k_min, and after each sample the near
set of its accepting pass is re-solved.

Arithmetic follows dynamics' rule.  Elementwise work on a few scalars runs on
Python floats; every matrix product, solve and reduction stays in numpy.
Products are called as a.dot(b), on the same operands and in the same
association as the formulas above, never regrouped or written out as float
formulas.  A square solve goes through dynamics.linsolve, and the Hessian
check's eigenvalues through dynamics.eigvalsh, each bit for bit with its
np.linalg namesake.  A vector norm is math.sqrt(v.dot(v)), np.linalg.norm's
own formula.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .dynamics import eigvalsh, linsolve
from .geometry import (_ULPS, AXIS_FLOOR, TANH_SATURATION, GeometryError, StiffnessParams,
                       _body_curve, _pose_operands, _posed, boundary_points, bounding_radius,
                       circle_bound, closest_pairs, shape_rows, stiffness_terms, wrap_angle)
from .voronoi import SolutionPath


class PlannerError(RuntimeError):
    pass


# Newton corrector steps allowed at one sample of the continuation
CORRECTOR_MAX_ITER = 8
# the vehicle gate's rounding slack per unit of scale, four times circle_bound's
# (PairTable.beyond)
_GATE_ULPS = 4.0 * _ULPS


@dataclass(frozen=True)
class VehicleGeometry:
    """Planar SQ decomposition of the aerial manipulator footprint.

    Parts 0..5 are the rotor disks, part 6 is the shoulder link, part 7 the
    forearm link; the end effector sits at the forearm tip.  Every part is
    fixed in one joint frame (part_links) at a constant offset (part_offsets);
    set_part_poses places them all from joint_frames.
    """

    rotor_arm: float = 0.278
    blade_radius: float = 0.11
    arm_base_offset: float = 0.15
    l1: float = 0.25
    l2: float = 0.25
    link_halfwidth: float = 0.02
    link_eps: float = 0.4

    @property
    def n_parts(self) -> int:
        return 8

    # part constants: one cached read-only copy (frozen, so never stale) for all callers

    @cached_property
    def part_axes(self) -> np.ndarray:
        """Rows [a1, a2, eps] of the part shapes, (3, 8)."""
        a = np.array([[self.blade_radius] * 6 + [self.l1 / 2, self.l2 / 2],
                      [self.blade_radius] * 6 + [self.link_halfwidth] * 2,
                      [1.0] * 6 + [self.link_eps] * 2])
        a.flags.writeable = False
        return a

    @cached_property
    def part_links(self) -> np.ndarray:
        """Index of the frame each part is fixed in: 0 base, 1 shoulder link, 2 forearm."""
        link = np.array([0] * 6 + [1, 2])
        link.flags.writeable = False
        return link

    @cached_property
    def part_offsets(self) -> np.ndarray:
        """Part centers (8, 2) in the frame of their part (part_links): the
        rotors at rotor_arm (cos beta, sin beta), beta = 0, 60, ..., 300 deg,
        and each link at its midpoint."""
        beta = np.arange(6) * (math.pi / 3.0)
        off = np.vstack([self.rotor_arm * np.column_stack([np.cos(beta), np.sin(beta)]),
                         [[self.l1 / 2.0, 0.0], [self.l2 / 2.0, 0.0]]])
        off.flags.writeable = False
        return off

    def joint_frames(self, x, y, psi, t1, t3):
        """Rows [pivot x, pivot y, cos phi, sin phi] of the base, shoulder and
        forearm frames at z = [x, y, psi, t1, t3], as nested lists of floats.

        The frame angles phi are psi, psi + th1 and psi + th1 + th3; the pivots
        are the base center, the arm base and the elbow.
        """
        a1 = psi + t1
        a2 = a1 + t3
        c0, s0, c1, s1 = math.cos(psi), math.sin(psi), math.cos(a1), math.sin(a1)
        bx = x + self.arm_base_offset * c0
        by = y + self.arm_base_offset * s0
        return [[x, y, c0, s0],
                [bx, by, c1, s1],
                [bx + self.l1 * c1, by + self.l1 * s1, math.cos(a2), math.sin(a2)]]

    def frame_stack(self, z) -> np.ndarray:
        """joint_frames at each sample of a stack z (B, 5), or at one z (5,) as
        a stack of one: (B, 3, 4)."""
        rows = (v for zz in np.asarray(z, dtype=float).reshape(-1, 5).tolist()
                for fr in self.joint_frames(*zz) for v in fr)
        return np.fromiter(rows, float).reshape(-1, 3, 4)

    def forward_kinematics_eef(self, z):
        """End-effector pose [x_e, y_e, theta_e], the forearm tip, at z (5,),
        or (B, 3) at each sample of a stack z (B, 5); theta_e = psi + th1 + th3
        is not wrapped."""
        z = np.asarray(z, dtype=float)
        fr = self.frame_stack(z)[:, 2]
        zs = z.reshape(-1, 5)
        eef = np.column_stack([fr[:, :2] + self.l2 * fr[:, 2:], zs[:, 2] + zs[:, 3] + zs[:, 4]])
        return eef if z.ndim == 2 else eef[0]


@dataclass
class PlannerParams:
    eta: float = 20.0
    k_tgt: np.ndarray = field(default_factory=lambda: 800.0 * np.diag([2.0, 2.0, 1.0]))
    k_reg: float = 1.0
    n_s: int = 400
    stiffness: StiffnessParams = field(default_factory=StiffnessParams)
    cond_limit: float = 1e10
    prerelax_tol: float = 1e-4
    prerelax_max_iter: int = 200


def pair_index(n_parts: int, n_obs: int):
    """Flat pair ordering: pair q = (part q // n_obs, obstacle q % n_obs)."""
    return np.repeat(np.arange(n_parts), n_obs), np.tile(np.arange(n_obs), n_parts)


def pair_rows(geom: VehicleGeometry, obs_rows, z):
    """closest_pairs inputs (part side, obstacle side) of every pair at
    configuration z, in pair_index order; for a stack z (B, 5), one such block
    of columns per sample, sample by sample.  obs_rows is the obstacles'
    geometry.shape_rows layout."""
    pi, oi = pair_index(geom.n_parts, obs_rows.shape[1])
    B = len(np.atleast_2d(z))
    parts = np.vstack([np.tile(geom.part_axes[:, pi], B), np.empty((4, B * pi.size))])
    set_part_poses(parts, geom.frame_stack(z), part_gather(geom, pi))
    return parts, obs_rows[:, np.tile(oi, B)]


def part_gather(geom: VehicleGeometry, pi):
    """set_part_poses' operands for the parts pi (P,), built once per list:
    the index (4, P) of each part's frame row read as a pose [cos, sin, x, y]
    in a flat joint_frames block, and its offset as _posed takes it, (2, 1, P)."""
    ox, oy = geom.part_offsets[pi].T
    return 4 * geom.part_links[pi] + [[2], [3], [0], [1]], *_pose_operands(ox[None], oy[None])


def set_part_poses(parts, frames, gather):
    """Write the poses of gather's parts (part_gather) at the joint frames of
    one z (3, 4), or of each sample of a stack (B, 3, 4) in its own block of
    columns, into the rows [cos, sin, center x, center y] of parts: a part
    fixed at offset off in joint frame l has the angle phi_l and the center
    pivot_l + R(phi_l) off, the offset posed (geometry._posed) in the frame."""
    idx, ox, oy = gather
    pose = frames.reshape(-1, 12).take(idx, axis=1).transpose(1, 0, 2)    # (4, B, P)
    parts[3:5] = pose[:2].reshape(2, -1)
    parts[5:7] = _posed(pose, ox, oy).reshape(2, -1)


class PairTable:
    """The (part pi, obstacle oi) pairs of geom and obs_rows in pair_index
    order, their bound rho and the one far-pair test of the planner and the
    safety filter.  rows holds the pair_rows sides (2, 7, P) at z = 0, whose
    part side callers pose with gather; r_part (n_parts, 1) and r_obs (P,)
    are the bounding radii (bounding_radius) of the parts and of each pair's
    obstacle, scale the scene scale's fixed share, and r_vehicle the radius
    about the base center of the circle that holds every part.

    radius (n_obs,) is the consumer's far-pair radius about each obstacle's
    center, beyond which a pair has no effect at any proxy angle, widened
    once by a relative 1e-9 for the rounding of what the consumer derives
    from rho: near reads it pair by pair, beyond (the vehicle gate) for every
    pair at once.  The metric pass, which takes rho alone, leaves it 0."""

    def __init__(self, geom: VehicleGeometry, obs_rows, radius=0.0):
        self.geom = geom
        self.pi, self.oi = pair_index(geom.n_parts, obs_rows.shape[1])
        self.gather = part_gather(geom, self.pi)
        self.rows = np.array(pair_rows(geom, obs_rows, np.zeros(5)))
        self.c_obs = obs_rows[5:]
        self.c_pair = self.rows[1, 5:].reshape(2, geom.n_parts, obs_rows.shape[1])
        self.r_part = bounding_radius(*geom.part_axes)[:, None]
        self.r_obs = bounding_radius(*self.rows[1, :3])
        self.scale = sum(v.max(initial=0.0) for v in (abs(self.c_obs), self.r_part, self.r_obs))
        self.radius = np.broadcast_to(radius, obs_rows.shape[1]) * (1.0 + 1e-9)
        # the vehicle gate: each part's offset chain from the base center (its
        # reach) plus its bounding radius, and one (cx, cy, radius) per obstacle
        reach = [geom.rotor_arm] * 6 + [geom.arm_base_offset + geom.l1 / 2.0,
                                        geom.arm_base_offset + geom.l1 + geom.l2 / 2.0]
        self.r_vehicle = float((np.array(reach) + self.r_part[:, 0]).max())
        self._gate_scale = self.r_vehicle + float(self.scale)
        self._gate = list(zip(*self.c_obs.tolist(), self.radius.tolist()))

    def beyond(self, x, y) -> bool:
        """Whether every pair's rho exceeds its obstacle's radius with the base
        center at (x, y), at any heading, tilt and joint angles: the vehicle
        gate.  Where it passes, near finds no pair at any such pose.

        Each part's center lies within reach_p of the base center (its offset
        chain, which a tilt's projection only shortens), so every part's
        bounding circle lies in the vehicle circle of radius r_vehicle =
        max(reach_p + r_part) about (x, y), and each of obstacle o's pairs has
        rho >= circle_bound from o's center to that circle.  The gate asks that
        bound to exceed the radius with four times circle_bound's slack
        (_GATE_ULPS) on the scale |x| + |y| + r_vehicle + scale, which bounds
        every part center's coordinates and so rho's own scale: one slack
        covers the gate's rounding, one rho's, the rest the rounding of the
        part centers and of the points within r_part of them.  On Python
        floats: np.hypot's per-call cost on scalars would be most of the
        gate's time.
        """
        r_slack = self.r_vehicle + _GATE_ULPS * (abs(x) + abs(y) + self._gate_scale)
        return all(math.hypot(x - cx, y - cy) - r_slack > r for cx, cy, r in self._gate)

    def near(self, centers):
        """Indices, in pair order, of the pairs whose rho is below their
        obstacle's radius with the parts centered at centers (2, n_parts, 1
        or n_obs); every other pair is far."""
        return (self.rho(centers) < self.radius).ravel().nonzero()[0]

    def rho(self, c):
        """geometry.circle_bound (..., n_parts, n_obs), raveled in pair_index
        order, from each obstacle's center to the parts' bounding circles,
        centered at c (..., 2, n_parts, 1 or n_obs): below the distance from
        that center to any point of the part.  Each sample's scale is its own
        largest center coordinate plus the fixed share, so a sample's rho does
        not depend on the stack it is computed in."""
        scale = abs(c).max(axis=(-3, -2, -1), initial=0.0)[..., None, None] + self.scale
        d = c - self.c_pair
        return circle_bound((d[..., 0, :, :], d[..., 1, :, :]), self.r_part, scale)


# the largest power of a scaled body coordinate the contact terms take
# (_Evaluator.w_cap): at 1e200, the products that follow it stay finite
_POWER_CAP = 1e200


class _Evaluator:
    """One plan's per-pair constants, the pose gather (PairTable.gather) among
    them, and its last proxy curves, so each evaluation is one fused batch."""

    def __init__(self, geom: VehicleGeometry, obs_rows, stiff: StiffnessParams):
        self.geom = geom
        self.stiff = stiff
        # the far-pair radius of each obstacle, its reach r_obs (1 + d' +
        # TANH_SATURATION d0)^(eps / 2): F + 1 is homogeneous of degree 2 / eps
        # and 1 within r_obs of the center, so a pair whose rho exceeds it has g
        # past tanh saturation at every proxy angle
        reach = (bounding_radius(*obs_rows[:3])
                 * (1.0 + stiff.d_prime + TANH_SATURATION * stiff.d0) ** (obs_rows[2] / 2.0))
        self.table = table = PairTable(geom, obs_rows, reach)
        self.pi = table.pi
        self.P = self.pi.size

        # pair_rows layout of every proxy's shape, (7, 2, P): side 0 the part of
        # each pair, side 1 its obstacle.  Per evaluation only the part side's
        # cos, sin and center change, which set_part_poses writes: rows holds the
        # poses of the last evaluation.
        self.rows = table.rows.transpose(1, 0, 2)
        a = self.rows[:2, 1]
        oeps, ocos, osin = self.rows[2:5, 1]
        # the near test's operand (PairTable.near): rows' part centers, (2,
        # n_parts, n_obs), and the near set of the last evaluation
        self.centers = table.rows[0, 5:].reshape(table.c_pair.shape)
        self.near = ()
        # the stiffness (k, k', k'') of a far pair: stiffness_terms' values at
        # tanh 1, k_min + 0.5 (1 - tanh) k_max for StiffnessParams' positive bounds
        self.k_far = np.full(self.P, stiff.k_min), np.full(self.P, -0.0), np.zeros(self.P)
        self.oexp = 2.0 / oeps
        # joint angle j moves a part proxy iff j <= l, l the frame of its part
        self.moved = (np.arange(3) <= geom.part_links[self.pi][:, None]).astype(float)
        # the proxy Jacobian, whose columns 2: each pass rewrites
        self.jp = np.zeros((2, self.P, 5))
        self.jp[0, :, 0] = self.jp[1, :, 1] = 1.0
        # obstacle rotation R[a, k], scaled inverse diag(1/a) R^T, and R[a, k] R[b, k]
        self.orot = np.array([[ocos, -osin], [osin, ocos]])
        self.oscale = self.orot.transpose(1, 0, 2) / a[:, None]
        self.orot2 = self.orot[:, None] * self.orot[None, :]
        # dF/db = e |w|^(e-1) sign(w) / a and d2F/db2 = e (e-1) |w|^(e-2) / a^2 on
        # each obstacle axis, w = b / a the scaled body coordinate
        self.fgrad = self.oexp / a
        self.fcurv = self.oexp * (self.oexp - 1.0) / a ** 2
        self.e1, self.e2 = self.oexp - 1.0, self.oexp - 2.0
        # the bound on |w| in the contact terms: |w|^e1 and |w|^e2 stay within
        # _POWER_CAP, which no pair with k' or k'' non-zero reaches (its g, and
        # so |w|^(e1 + 1), is small), and beyond which a pair's k' = k'' = 0
        # contact terms would overflow to NaN instead of signed zeros
        self.w_cap = np.full(self.P, np.inf)
        steep = self.e1 > 1.0
        self.w_cap[steep] = _POWER_CAP ** (1.0 / self.e1[steep])
        # the proxy curves, each with the bytes of the angles it was computed at:
        # the part side's body-frame points and the obstacle side's world points
        self._part_curve = self._obs_points = (None, None)

    def part_curve(self, Gp):
        """Body-frame points of the part proxies at the angles Gp (P,), as _posed
        takes them (_pose_operands)."""
        key = np.asarray(Gp, dtype=float).tobytes()
        if key != self._part_curve[0]:
            self._part_curve = key, _pose_operands(*_body_curve(self.rows[:3, 0], np.cos(Gp),
                                                                np.sin(Gp)))
        return self._part_curve[1]

    def obstacle_points(self, Go):
        """World points (2, P) of the obstacle proxies at the angles Go (P,)."""
        key = np.asarray(Go, dtype=float).tobytes()
        if key != self._obs_points[0]:
            self._obs_points = key, boundary_points(self.rows[:, 1], Go)
        return self._obs_points[1]

    def scaled_body(self, p, idx):
        """The part proxies p (2, P) of the pairs idx in their obstacle's frame,
        divided by its semi-axes: w (2, len(idx))."""
        d = p[:, idx] - self.rows[5:, 1, idx]
        return self.oscale[:, 0, idx] * d[0] + self.oscale[:, 1, idx] * d[1]


# d^2 p / dphi_i dphi_j = -V_max(i,j): the joint angles act on nested frames
_MAX_JOINT = np.maximum.outer(np.arange(3), np.arange(3))
_EYE2 = np.eye(2)[:, :, None]


def _pair_sums(ev: _Evaluator, z, Gp, Go, jf, cleared):
    """The pair terms of _fused_derivatives, summed over the pairs: grad_z (5,),
    hess_z (5, 5) without the joint-frame curvature, that curvature -G.V (3,)
    and W; jf holds the joint frames (3, 4) at z, where the part rows of ev.rows
    are posed with the plan's pose gather.

    cleared is the vehicle gate's verdict at z (PairTable.beyond).  The pass
    records its near set in ev.near: no pair where the gate cleared z, else
    PairTable.near at the posed part centers.  The near pairs alone take the
    stiffness law on g = F - d'; every other pair is out of reach, past tanh
    saturation at every proxy angle, and takes (k_min, -0.0, +0.0), the
    values stiffness_terms returns there.  A W that is not finite (a NaN in z
    or in a proxy angle, or an overflow) raises GeometryError.

    The contact terms, those of k' and k'', are evaluated on the loaded pairs
    alone, where k' or k'' is non-zero or k D has a zero entry (whose sign the
    contact terms may set).  Every other pair's are signed zeros that leave
    its p-space gradient k D and Hessian k I bit for bit as they are.  With
    none loaded, Hp J_p is k J_p: no block is formed, and no sum of H ends on
    a zero's sign.
    """
    st, rows = ev.stiff, ev.rows
    set_part_poses(rows[:, 0], jf, ev.table.gather)
    ev.near = near = () if cleared else ev.table.near(ev.centers)
    p = _posed(rows[3:, 0], *ev.part_curve(Gp))
    D = p - ev.obstacle_points(Go)
    d2 = (D * D).sum(axis=0)

    # stiffness of each pair, and its p-space gradient Gr (2, P)
    k0, k1, k2 = ev.k_far
    if len(near):
        g = (np.abs(ev.scaled_body(p, near)) ** ev.oexp[near]).sum(axis=0) - 1.0 - st.d_prime
        k0, k1, k2 = (k.copy() for k in ev.k_far)
        k0[near], k1[near], k2[near] = stiffness_terms(g, st)
    Gr = k0 * D
    W = (0.5 * k0 * d2).sum()
    if not math.isfinite(W):
        raise GeometryError("non-finite distance in the pair terms")

    # chain rule to z through the proxy Jacobian Jp = [I | S V], (2, P, 5)
    P = ev.P
    V = (p[:, :, None] - jf[:, :2].T[:, None]) * ev.moved
    Jp = ev.jp
    Jp[0, :, 2:] = -V[1]
    Jp[1, :, 2:] = V[0]

    # and Hessian Hp (2, 2, P), the contact terms on the loaded pairs
    if (len(near) and (np.count_nonzero(k1) or np.count_nonzero(k2))
            or np.count_nonzero(Gr) < Gr.size):
        Hp = k0 * _EYE2
        L = ((k1 != 0.0) | (k2 != 0.0) | (Gr == 0.0).any(axis=0)).nonzero()[0]
        wL = ev.scaled_body(p, L)
        awL = np.minimum(np.abs(wL), ev.w_cap[L])
        k0L, k1L, d2L, DL = k0[L], k1[L], d2[L], D[:, L]
        orot = ev.orot[..., L]
        fb = ev.fgrad[:, L] * np.sign(wL) * awL ** ev.e1[L]
        hb = ev.fcurv[:, L] * np.maximum(awL, AXIS_FLOOR) ** ev.e2[L]
        f = orot[:, 0] * fb[0] + orot[:, 1] * fb[1]
        A = 0.5 * k1L * d2L
        Gr[:, L] = A * f + k0L * DL
        fD = f[:, None] * DL
        orot2 = ev.orot2[..., L]
        Hp[..., L] = (0.5 * k2[L] * d2L * f[:, None] * f
                      + A * (orot2[:, :, 0] * hb[0] + orot2[:, :, 1] * hb[1])
                      + k1L * (fD + fD.transpose(1, 0, 2)) + k0L * _EYE2)
        HJ = Hp[:, 0, :, None] * Jp[0] + Hp[:, 1, :, None] * Jp[1]
    else:
        HJ = k0[:, None] * Jp

    Jp, Gr = Jp.reshape(2 * P, 5), Gr.reshape(2 * P)
    gz = Gr.dot(Jp)
    H = Jp.T.dot(HJ.reshape(2 * P, 5))
    curv = -Gr.dot(V.reshape(2 * P, 3))
    return gz, H, curv, W


def _fused_derivatives(ev: _Evaluator, params, z, Gp, Go, u):
    """(grad_z W, hess_z W, J_eef, W) at z (5,), fixed proxy angles Gp, Go (P,)
    and attractor u (3,), from one batched pass over the pairs.

    W is the sum of the pair terms, the target term and the joint regulariser;
    all its derivatives are closed-form.  The pair terms come from _pair_sums,
    which poses the part proxies' body-frame curve at z and reads the obstacle
    proxies' world points; the evaluator recomputes either curve only when its
    angles change.  With no pairs it is not called.  A pair term
    0.5 k(F(p) - d') |p - q|^2 has p-space gradient Gr = 0.5 k' |D|^2 dF + k D and
    Hessian 0.5 k'' |D|^2 dF dF^T + 0.5 k' |D|^2 d2F + k' (dF D^T + D dF^T) + k I,
    D = p - q, mapped to z through the proxy's Jacobian [I | S V] plus the
    -G.V_max(i,j) curvature of the nested joint frames.  The pass asks the
    vehicle gate at z's base position, and _pair_sums records the near set
    in ev.near; it leaves ev.rows posed at z, where integrate_em re-solves
    the near pairs.
    """
    geom, k_reg = ev.geom, params.k_reg
    x, y, psi, t1, t3 = z.tolist()
    ux, uy, ut = np.asarray(u, dtype=float).tolist()

    # in plain floats: the joint frames (VehicleGeometry.joint_frames), the
    # end-effector Jacobian J, with rows [1, 0, -Vy] and [0, 1, Vx] for the eef
    # lever arm V of each joint frame, the target residual r = u - eef with its
    # angle wrapped and the regulariser's gradient; then all of them as one array
    fr = geom.joint_frames(x, y, psi, t1, t3)
    ex, ey = fr[2][0] + geom.l2 * fr[2][2], fr[2][1] + geom.l2 * fr[2][3]
    vy = [f[1] - ey for f in fr]
    vx = [ex - f[0] for f in fr]
    flat = np.array([1.0, 0.0, *vy, 0.0, 1.0, *vx, 0.0, 0.0, 1.0, 1.0, 1.0,
                     ux - ex, uy - ey, wrap_angle(ut - (psi + t1 + t3)), k_reg * t1, k_reg * t3,
                     *fr[0], *fr[1], *fr[2]])
    J, r, jf = flat[:15].reshape(3, 5), flat[15:18], flat[20:].reshape(3, 4)

    if ev.P:
        gz, H, curv, W = _pair_sums(ev, z, Gp, Go, jf, ev.table.beyond(x, y))
    else:
        # no pairs: no proxy to evaluate, and every pair sum is zero
        gz, H, curv, W = np.zeros(5), np.zeros((5, 5)), np.zeros(3), 0.0

    # target term 0.5 r^T K r and the joint regulariser 0.5 k_reg (th1^2 + th3^2)
    Kr = params.k_tgt.dot(r)
    gz -= J.T.dot(Kr)
    H += J.T.dot(params.k_tgt).dot(J)
    kx, ky, _ = Kr.tolist()
    curv += [kx * v - ky * w for v, w in zip(vx, vy)]
    H[2:, 2:] += curv[_MAX_JOINT]
    gz[3:] += flat[18:20]
    H[3, 3] += k_reg
    H[4, 4] += k_reg
    W = W + 0.5 * r.dot(Kr) + 0.5 * k_reg * (t1 * t1 + t3 * t3)
    return gz, H, J, W


def _init_gammas(geom, obs_rows, z):
    """Proxy angles (2, P), part side first, of one cold closest_pairs solve at z."""
    return closest_pairs(*pair_rows(geom, obs_rows, z)).gammas


def _prerelax(ev: _Evaluator, params, z0, Gp, Go, u0):
    """Damped Newton flow on z down to a local equilibrium, at fixed proxy angles."""
    z = np.asarray(z0, dtype=float).copy()
    for _ in range(params.prerelax_max_iter):
        gz, H, _, w0 = _fused_derivatives(ev, params, z, Gp, Go, u0)
        if math.sqrt(gz.dot(gz)) < params.prerelax_tol:
            return z
        Hs = 0.5 * (H + H.T)
        try:
            dz = linsolve(Hs + 1e-10 * np.eye(5), -gz)
        except np.linalg.LinAlgError:
            dz = -gz
        if dz.dot(gz) > 0.0:
            dz = -gz
        slope = dz.dot(gz)
        step = 1.0
        for _ in range(30):
            z_new = z + step * dz
            w = _fused_derivatives(ev, params, z_new, Gp, Go, u0)[3]
            if w < w0 + 1e-4 * step * slope:
                z = z_new
                break
            step *= 0.5
        else:
            break
    gz = _fused_derivatives(ev, params, z, Gp, Go, u0)[0]
    norm = math.sqrt(gz.dot(gz))
    if norm >= params.prerelax_tol:
        raise PlannerError(f"pre-relaxation stalled with |grad| = {norm:.3e}")
    return z


def attractors_from_path(path: SolutionPath, start_heading: float, goal_pose):
    """Attractor poses: one per clearance-path node, then the goal pose.

    Each node's heading is the normal of its outgoing path edge, flipped by pi
    when that points away from the previously resolved heading, then unwrapped
    so consecutive attractor angles stay continuous.
    """
    if not path.found:
        raise PlannerError("no clearance path to build attractors from")
    goal_pose = np.asarray(goal_pose, dtype=float)
    attrs = []
    prev = float(start_heading)
    n_nodes = len(path.nodes)
    for k in range(n_nodes):
        if len(path.edge_normals) == 0:
            raw = prev
        else:
            raw = float(path.edge_normals[min(k, len(path.edge_normals) - 1)])
        cand = min((raw, raw + math.pi), key=lambda a: abs(wrap_angle(a - prev)))
        ang = prev + wrap_angle(cand - prev)
        attrs.append(np.array([path.nodes[k][0], path.nodes[k][1], ang]))
        prev = ang
    g_ang = prev + wrap_angle(goal_pose[2] - prev)
    attrs.append(np.array([goal_pose[0], goal_pose[1], g_ang]))
    return attrs


@dataclass
class PlannedTrajectory:
    s: np.ndarray          # (N+1,) path parameter samples in [0, 1]
    z: np.ndarray          # (N+1, 5) configurations [x, y, psi, th1, th3]
    eef: np.ndarray        # (N+1, 3) end-effector poses
    u: np.ndarray          # (N+1, 3) attractor schedule samples
    gammas: np.ndarray     # (N+1, 2P) proxy angles, part block then obstacle block
    evals: int = 0         # derivative evaluations of the continuation
    max_corrector: int = 0  # most corrector steps taken at one sample
    residuals: np.ndarray | None = None  # (N+1,) |dW/dz| of each sample's accepting evaluation


def integrate_em(geom: VehicleGeometry, obstacles, z0, attractors,
                 params: PlannerParams | None = None) -> PlannedTrajectory:
    """Track the potential equilibrium while the attractor slides along the path.

    Predictor-corrector continuation along grad_z W = 0 over s in [0, 1], one
    sample per step, with the steps aligned to the piecewise-linear attractor
    segments.  From the last sample's evaluation, the predictor takes the
    tangent step z' = H^{-1} (J^T K u' - eta dW/dz), H the configuration Hessian
    of W; the corrector then takes Newton steps on z with the fresh H at the new
    attractor until |dW/dz| < params.prerelax_tol, and raises PlannerError after
    CORRECTOR_MAX_ITER of them, at fixed proxy angles Gamma.  Gamma comes from
    a cold closest_pairs solve at z0; after each accepted sample, one
    closest_pairs call warm-started at Gamma re-solves the near pairs of the
    evaluation that accepted it (_pair_sums), at that evaluation's poses, and
    the others keep theirs; with none near, no call runs.  Every evaluation
    checks that H is positive definite and well-conditioned.  The trajectory
    records the evaluations made, the most corrector steps taken at one sample
    and, per sample, |dW/dz| at the stored (z, Gamma, u) from the evaluation
    that accepted it.
    """
    params = params or PlannerParams()
    obs_rows = shape_rows(obstacles)
    z0 = np.asarray(z0, dtype=float)
    if z0.shape != (5,):
        raise PlannerError("configuration must be [x, y, psi, th1, th3]")

    ev = _Evaluator(geom, obs_rows, params.stiffness)
    G = _init_gammas(geom, obs_rows, z0)
    z = _prerelax(ev, params, z0, G[0], G[1], geom.forward_kinematics_eef(z0))
    u0 = geom.forward_kinematics_eef(z)

    attrs = [np.asarray(u0, dtype=float)] + [np.asarray(a, dtype=float) for a in attractors]
    K = len(attrs) - 1
    if K < 1:
        raise PlannerError("need at least one attractor")
    n_seg = max(1, params.n_s // K)
    h = (1.0 / K) / n_seg
    evals = 0

    def evaluate(zz, u):
        nonlocal evals
        evals += 1
        try:
            gz, H, J, _ = _fused_derivatives(ev, params, zz, G[0], G[1], u)
            Hs = 0.5 * (H + H.T)
            lam = eigvalsh(Hs)
        except (GeometryError, np.linalg.LinAlgError) as exc:
            raise PlannerError("non-finite state during equilibrium tracking") from exc
        # the tracked equilibrium is a minimum: H must be well-conditioned positive
        # definite (in Python floats, a product past the largest float is inf, unwarned)
        lo, hi = lam[0].item(), lam[-1].item()
        if not (lo > 0.0 and hi <= params.cond_limit * lo):
            raise PlannerError(
                "singular or indefinite potential Hessian along the equilibrium "
                f"manifold (eigenvalues {lo:.3e} .. {hi:.3e})")
        return gz, Hs, J

    N = K * n_seg
    s_grid = np.empty(N + 1)
    z_out = np.empty((N + 1, 5))
    u_out = np.empty((N + 1, 3))
    g_out = np.empty((N + 1, G.size))
    res = np.empty(N + 1)
    gz, Hs, J = evaluate(z, attrs[0])
    s_grid[0], z_out[0], u_out[0], res[0] = 0.0, z, attrs[0], math.sqrt(gz.dot(gz))
    g_out[0] = G.ravel()
    most = idx = 0
    for seg in range(K):
        ua, ub = attrs[seg], attrs[seg + 1]
        du = (ub - ua)
        du[2] = wrap_angle(du[2])
        udot = K * du
        ktu = params.k_tgt.dot(udot)
        for n in range(n_seg):
            s = seg / K + (n + 1) * h
            u = ua + (n + 1) * h * udot
            # re-solve the near set of the evaluation that accepted z, at its poses
            near = ev.near
            if len(near):
                G[:, near] = closest_pairs(ev.rows[:, 0, near], ev.rows[:, 1, near],
                                           init=G[:, near]).gammas
            z_new = z + h * linsolve(Hs, J.T.dot(ktu) - params.eta * gz)
            for it in range(CORRECTOR_MAX_ITER + 1):
                gz_new, Hs, J = evaluate(z_new, u)
                norm = math.sqrt(gz_new.dot(gz_new))
                if norm < params.prerelax_tol:
                    break
                if it == CORRECTOR_MAX_ITER:
                    raise PlannerError(
                        f"corrector stalled at s = {s:.4f} with |grad| = {norm:.3e}")
                z_new = z_new - linsolve(Hs, gz_new)
            most = max(most, it)
            z, gz = z_new, gz_new
            idx += 1
            s_grid[idx], z_out[idx], u_out[idx], g_out[idx], res[idx] = s, z, u, G.ravel(), norm

    return PlannedTrajectory(s=s_grid, z=z_out, eef=geom.forward_kinematics_eef(z_out),
                             u=u_out, gammas=g_out, evals=evals, max_corrector=most,
                             residuals=res)


def target_pose(traj: PlannedTrajectory, t, duration: float, height: float):
    """References (q_t, theta_t), of shapes t.shape + (6,) and t.shape + (3,),
    at the mission times t (a number or an array) from the planned trajectory.

    The path parameter advances linearly, s = t / duration clamped to [0, 1];
    configurations are interpolated linearly between stored samples.
    """
    if duration <= 0.0:
        raise PlannerError("duration must be positive")
    s = np.clip(np.asarray(t, dtype=float) / duration, 0.0, 1.0)
    k = np.clip(np.searchsorted(traj.s, s, side="right") - 1, 0, len(traj.s) - 2)
    w = ((s - traj.s[k]) / (traj.s[k + 1] - traj.s[k]))[..., None]
    z = (1.0 - w) * traj.z[k] + w * traj.z[k + 1]
    q_t = np.zeros(s.shape + (6,))
    q_t[..., [0, 1, 5]] = z[..., :3]
    q_t[..., 2] = height
    theta_t = np.zeros(s.shape + (3,))
    theta_t[..., [0, 2]] = z[..., 3:]
    return q_t, theta_t
