"""Rigid-body model of the tilted-rotor hexarotor with attached arm.

Generalized coordinates q = [position; ZYX Euler angles] in R^6.  The arm is
not part of the generalized coordinates; its reaction on the base enters the
plant as part of the lumped disturbance, and its joints follow commanded
references through a critically damped second-order tracking law.

Elementwise arithmetic on the few entries of one state runs on Python
floats, and every matrix product, solve and reduction stays in numpy: IEEE
+, -, * and / round alike in both, while numpy's BLAS products use fused
multiply-adds that an explicit float formula does not reproduce.  Products
go through np.dot (the BLAS routine of @, with less dispatch) and keep their
operands and association, never split into blocks: the bits of a regrouped
or blocked product depend on the kernel the CPU selects.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

import numpy as np

PITCH_MARGIN = 1e-3
DT_MAX = 0.01  # [s], longest plant step


class EulerSingularityError(RuntimeError):
    """Pitch too close to +-pi/2 for the Euler-rate map to be regular."""


class PlantError(RuntimeError):
    """Non-finite state in the plant step."""


def _floats(v) -> list:
    """The entries of a vector (an array or a list) as Python floats."""
    return np.asarray(v, dtype=float).tolist()


# The builders below take the cosines, sines and tangent of phi, so that
# model_terms evaluates each once for Q, Q^-1, Qdot and R.

def _rotation(cr, sr, cp, sp, cy, sy) -> np.ndarray:
    # Rz @ Ry: each entry is one float product, which BLAS rounds exactly, and
    # an exact zero comes out +0.0, as "0.0 -" and "+ 0.0" make it here
    RzRy = np.array([[cy * cp, 0.0 - sy, cy * sp + 0.0],
                     [sy * cp + 0.0, cy, sy * sp + 0.0],
                     [0.0 - sp, 0.0, cp]])
    return np.dot(RzRy, np.array([[1.0, 0.0, 0.0], [0.0, cr, -sr], [0.0, sr, cr]]))


def _rate_map(cr, sr, cp, sp) -> np.ndarray:
    return np.array([[1.0, 0.0, -sp],
                     [0.0, cr, sr * cp],
                     [0.0, -sr, cr * cp]])


def _rate_map_inv(cr, sr, cp, tp) -> np.ndarray:
    return np.array([[1.0, sr * tp, cr * tp],
                     [0.0, cr, -sr],
                     [0.0, sr / cp, cr / cp]])


def _rate_map_dot(cr, sr, cp, sp, rd, pd) -> np.ndarray:
    return np.array([
        [0.0, 0.0, -cp * pd],
        [0.0, -sr * rd, cr * cp * rd - sr * sp * pd],
        [0.0, -cr * rd, -sr * cp * rd - cr * sp * pd]])


def rotation(phi) -> np.ndarray:
    """Body-to-world rotation for ZYX Euler angles phi = [roll, pitch, yaw]."""
    r, p, y = phi
    return _rotation(math.cos(r), math.sin(r), math.cos(p), math.sin(p),
                     math.cos(y), math.sin(y))


def _check_pitch(phi):
    if abs(phi[1]) >= math.pi / 2 - PITCH_MARGIN:
        raise EulerSingularityError(f"pitch {phi[1]:.4f} too close to +-pi/2")


def euler_rate_map(phi) -> np.ndarray:
    """Q with body angular velocity omega = Q @ phidot, phi = [roll, pitch, yaw]."""
    _check_pitch(phi)
    r, p, _ = phi
    return _rate_map(math.cos(r), math.sin(r), math.cos(p), math.sin(p))


def euler_rate_map_dot(phi, phidot) -> np.ndarray:
    """Time derivative of Q along (phi, phidot)."""
    r, p, _ = phi
    rd, pd, _ = phidot
    return _rate_map_dot(math.cos(r), math.sin(r), math.cos(p), math.sin(p), rd, pd)


def _read_only(a: np.ndarray) -> np.ndarray:
    """a, marked read-only: ModelParams caches one copy for every caller."""
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class ModelParams:
    """True plant parameters plus the controller's nominal copies."""

    m: float = 3.5
    J: np.ndarray = field(default_factory=lambda: np.diag([0.055, 0.055, 0.095]))
    L: float = 0.278
    alpha_p: float = math.pi / 12
    k_f: float = 0.016
    g: float = 9.81
    m_hat: float | None = None
    J_hat: np.ndarray | None = None
    thrust_sat: tuple = (0.0, 18.0)  # plant-side physical saturation, wider than the control band

    def __post_init__(self):
        # frozen, with read-only copies of the inertias, so that the cached
        # properties cannot go stale
        J = np.array(self.J, dtype=float)
        J_hat = J.copy() if self.J_hat is None else np.array(self.J_hat, dtype=float)
        J.flags.writeable = J_hat.flags.writeable = False
        object.__setattr__(self, "J", J)
        object.__setattr__(self, "J_hat", J_hat)
        if self.m_hat is None:
            object.__setattr__(self, "m_hat", self.m)
        if self.m <= 0 or self.m_hat <= 0 or self.g <= 0:
            raise ValueError("mass, nominal mass and gravity must be positive")
        if not (0.0 < self.alpha_p < math.pi / 2):
            raise ValueError("motor tilt must lie in (0, pi/2)")
        for name, inertia in (("J", J), ("J_hat", self.J_hat)):
            if (inertia.shape != (3, 3) or np.abs(inertia - inertia.T).max() > 1e-12
                    or np.linalg.eigvalsh(inertia).min() <= 0):
                raise ValueError(f"{name} must be a symmetric positive definite 3x3 matrix")

    @cached_property
    def allocation_body(self) -> np.ndarray:
        """Constant thrust-to-wrench matrix in the body frame (6 tilted rotors)."""
        sa, ca = math.sin(self.alpha_p), math.cos(self.alpha_p)
        P1 = self.L * ca + self.k_f * sa
        P2 = self.L * sa - self.k_f * ca
        h = 0.5
        r3 = math.sqrt(3.0) / 2.0
        return _read_only(np.array([
            [h * sa, -sa, h * sa, h * sa, -sa, h * sa],
            [-r3 * sa, 0.0, r3 * sa, -r3 * sa, 0.0, r3 * sa],
            [ca, ca, ca, ca, ca, ca],
            [-h * P1, -P1, -h * P1, h * P1, P1, h * P1],
            [r3 * P1, 0.0, -r3 * P1, -r3 * P1, 0.0, r3 * P1],
            [P2, -P2, P2, -P2, P2, -P2]]))

    @cached_property
    def allocation_body_inv(self) -> np.ndarray:
        """A_body^-1, the rotor thrusts per unit body wrench."""
        return _read_only(np.linalg.inv(self.allocation_body))

    @cached_property
    def nominal_is_true(self) -> bool:
        """Whether the controller's m_hat, J_hat are the true m, J."""
        return self.m_hat == self.m and np.array_equal(self.J_hat, self.J)

    @cached_property
    def gravity(self) -> tuple:
        """The gravity vectors G of the true and of the nominal mass."""
        return tuple(_read_only(np.array([0.0, 0.0, m * self.g, 0.0, 0.0, 0.0]))
                     for m in (self.m, self.m_hat))

    @cached_property
    def J_hat_inv(self) -> np.ndarray:
        """The controller's nominal inverse inertia."""
        return _read_only(np.linalg.inv(self.J_hat))


def _blockdiag(a, b) -> np.ndarray:
    out = np.zeros((6, 6))
    out[:3, :3] = a
    out[3:, 3:] = b
    return out


class ModelTerms(NamedTuple):
    """Model terms at one state: M(phi) qddot + C + G = B(phi) T + d."""

    M: np.ndarray              # (6, 6) mass matrix
    C: np.ndarray              # (6,) Coriolis and centrifugal vector
    G: np.ndarray              # (6,) gravity vector
    B: np.ndarray              # (6, 6) allocation of the six rotor thrusts


class ControlTerms(NamedTuple):
    """The controller's nominal model terms (m_hat, J_hat) at one state, with
    M^-1 B and B^-1 in closed form."""

    M: np.ndarray
    C: np.ndarray
    G: np.ndarray
    B: np.ndarray
    MinvB: np.ndarray          # (6, 6) M^-1 B, the acceleration per unit thrust
    Binv: np.ndarray           # (6, 6) B^-1


class StateTerms(NamedTuple):
    """Everything one state's model gives: the plant's terms on the true m, J,
    the controller's on m_hat, J_hat, and the body-to-world rotation R."""

    plant: ModelTerms
    control: ControlTerms
    R: np.ndarray


def model_terms(phi, phidot, params: ModelParams) -> StateTerms:
    """The plant's and the controller's terms at attitude phi and Euler rates
    phidot, from one Q(phi), Qdot and R(phi), which share one evaluation of
    the cosines, sines and tangent of phi.

    With M = blockdiag(m I, Q' J Q) and B = blockdiag(R, Q') A_body,
    M^-1 B = blockdiag(R / m, Q^-1 J^-1) A_body and
    B^-1 = A_body^-1 blockdiag(R', Q^-T); B, g and R are shared.
    """
    _check_pitch(phi)
    r, p, y = phi
    cr, sr = math.cos(r), math.sin(r)
    cp, sp, tp = math.cos(p), math.sin(p), math.tan(p)
    Q = _rate_map(cr, sr, cp, sp)
    Qinv = _rate_map_inv(cr, sr, cp, tp)
    pd = np.asarray(phidot, dtype=float)
    Qd = _rate_map_dot(cr, sr, cp, sp, *pd.tolist()[:2])
    R = _rotation(cr, sr, cp, sp, math.cos(y), math.sin(y))
    w = np.dot(Q, pd)
    Qdpd = np.dot(Qd, pd)
    wx, wy, wz = w.tolist()
    skew_w = np.array([[0.0, -wz, wy], [wz, 0.0, -wx], [-wy, wx, 0.0]])
    A = params.allocation_body
    B = np.dot(_blockdiag(R, Q.T), A)

    def terms(m, J, G):
        M = np.zeros((6, 6))
        M[0, 0] = M[1, 1] = M[2, 2] = m
        M[3:, 3:] = np.dot(np.dot(Q.T, J), Q)
        C = np.zeros(6)
        C[3:] = np.dot(Q.T, np.dot(J, Qdpd) + np.dot(skew_w, np.dot(J, w)))
        return M, C, G

    G, G_hat = params.gravity
    nominal = terms(params.m_hat, params.J_hat, G_hat)
    # a controller on the true parameters shares the plant's M, C and G
    true = nominal if params.nominal_is_true else terms(params.m, params.J, G)
    MinvB = np.dot(_blockdiag(R / params.m_hat, np.dot(Qinv, params.J_hat_inv)), A)
    Binv = np.dot(params.allocation_body_inv, _blockdiag(R.T, Qinv.T))
    return StateTerms(ModelTerms(*true, B), ControlTerms(*nominal, B, MinvB, Binv), R)


@dataclass
class VehicleState:
    q: np.ndarray = field(default_factory=lambda: np.zeros(6))
    qdot: np.ndarray = field(default_factory=lambda: np.zeros(6))
    theta: np.ndarray = field(default_factory=lambda: np.zeros(3))
    thetadot: np.ndarray = field(default_factory=lambda: np.zeros(3))

    def __post_init__(self):
        # np.array copies, so a state never shares its arrays with the caller
        self.q = np.array(self.q, dtype=float)
        self.qdot = np.array(self.qdot, dtype=float)
        self.theta = np.array(self.theta, dtype=float)
        self.thetadot = np.array(self.thetadot, dtype=float)


ARM_TRACK_GAIN = 20.0  # [1/s], critically damped joint tracking


def step(state: VehicleState, terms: ModelTerms, T, theta_d, thetadot_d, thetaddot_d,
         d_true, dt, params: ModelParams) -> VehicleState:
    """Advance the true plant one step (semi-implicit Euler) on terms, the
    plant's model terms at state (model_terms(...).plant).

    The injected lumped disturbance d_true enters as the external generalized
    wrench; rotor thrusts saturate at the physical band before allocation.
    """
    if not (0.0 < dt <= DT_MAX):
        raise ValueError(f"dt must lie in (0, {DT_MAX}]")
    M, C, G, B = terms
    lo, hi = params.thrust_sat
    # min(max(.)) keeps NaN and -0.0 as np.clip does
    T = np.array([min(max(t, lo), hi) for t in _floats(T)])
    qddot = np.linalg.solve(M, np.dot(B, T) + np.asarray(d_true, dtype=float) - C - G).tolist()
    if not all(map(math.isfinite, qddot)):
        raise PlantError("non-finite acceleration in plant step")

    qdot = [v + dt * a for v, a in zip(state.qdot.tolist(), qddot)]
    q = [x + dt * v for x, v in zip(state.q.tolist(), qdot)]

    kd, kp = 2.0 * ARM_TRACK_GAIN, ARM_TRACK_GAIN ** 2
    theta = state.theta.tolist()
    thetadot = [w + dt * (a + kd * (wd - w) + kp * (xd - x))
                for x, w, xd, wd, a in zip(theta, state.thetadot.tolist(), _floats(theta_d),
                                           _floats(thetadot_d), _floats(thetaddot_d))]
    theta = [x + dt * w for x, w in zip(theta, thetadot)]
    return VehicleState(q, qdot, theta, thetadot)
