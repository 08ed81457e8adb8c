"""Rigid-body model of the tilted-rotor hexarotor with attached arm.

Generalized coordinates q = [position; ZYX Euler angles] in R^6.  The arm is
not part of the generalized coordinates; its reaction on the base enters the
plant as part of the lumped disturbance, and its joints follow commanded
references through a critically damped second-order tracking law.

Elementwise arithmetic on the few entries of one state runs on Python
floats, and every matrix product, solve and reduction stays in numpy: IEEE
+, -, * and / round alike in both, while numpy's BLAS products use fused
multiply-adds that an explicit float formula does not reproduce.  Products
go through np.dot's routine (the BLAS routine of @), called on the tick as
the array method a.dot(b), which is np.dot without its dispatch.  They keep
their operands and association, never split into blocks: the bits of a
regrouped or blocked product depend on the kernel the CPU selects.

A square solve goes through linsolve, a symmetric eigenvalue check through
eigvalsh and a complete QR factorization through qr_complete: each calls the
LAPACK gufuncs its np.linalg namesake calls, under the same error state, bit
for bit without the wrapper.  The operands of one state's products are
built in as few arrays as hold them: Q, Q^-1, Qdot and the factors of R
from one flat tuple of floats, the block-diagonal operands of B, M^-1 B and
B^-1 in one zero array, and each M from a per-parameter template of its
fixed entries (ModelParams.mass_templates), copied, so that no buffer
outlives the call that fills it.

The 200 Hz tick (harness.simulate) keeps one representation rule.  Floats
once per tick: the state is one array of 18 floats (q, qdot, theta,
thetadot), which the tick turns into Python floats once and hands, with the
mission's constants, to every stage that needs them; its arrays are views
of the one array.  Terms in and out: each stage (model_terms, the control
stages, qp.solve and step) takes and returns the terms themselves, tuples
of matrices and float lists, and builds no record.  Mission-constant checks
once: dt (check_dt), the QP's factor and the thrust rows' shape are checked
before the first tick; what changes per tick (the pitch, the plant's
finiteness, a singular solve, a NaN in the QP data) is checked per tick.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from numpy.linalg._umath_linalg import eigvalsh_lo as _syevd
from numpy.linalg._umath_linalg import qr_complete as _orgqr
from numpy.linalg._umath_linalg import qr_r_raw as _geqrf
from numpy.linalg._umath_linalg import solve1 as _gesv

PITCH_MARGIN = 1e-3
DT_MAX = 0.01  # [s], longest plant step


class EulerSingularityError(RuntimeError):
    """Pitch too close to +-pi/2 for the Euler-rate map to be regular."""


class PlantError(RuntimeError):
    """Non-finite state in the plant step."""


def _singular(err, flag):
    raise np.linalg.LinAlgError("Singular matrix")


@np.errstate(call=_singular, invalid="call", over="ignore", divide="ignore", under="ignore")
def linsolve(a, b) -> np.ndarray:
    """np.linalg.solve(a, b) for a square float64 matrix a and a vector b, bit
    for bit: the same LAPACK gesv gufunc under the same error state, so a
    singular a raises LinAlgError and nothing warns, without the wrapper's
    type and shape handling, which costs more than the 6x6 solve itself."""
    return _gesv(a, b, signature="dd->d")


def _no_convergence(err, flag):
    raise np.linalg.LinAlgError("Eigenvalues did not converge")


@np.errstate(call=_no_convergence, invalid="call", over="ignore", divide="ignore",
             under="ignore")
def eigvalsh(a) -> np.ndarray:
    """np.linalg.eigvalsh(a), ascending, for a symmetric float64 matrix a, bit
    for bit: the LAPACK syevd gufunc on its lower triangle under the same
    error state, so it raises LinAlgError where np.linalg.eigvalsh does (no
    convergence, which a NaN in a full matrix causes) and nothing warns."""
    return _syevd(a, signature="d->d")


def _qr_failed(err, flag):
    raise np.linalg.LinAlgError("Incorrect argument found while performing QR factorization")


@np.errstate(call=_qr_failed, invalid="call", over="ignore", divide="ignore", under="ignore")
def qr_complete(a):
    """(Q, R[:n]) of np.linalg.qr(a, mode="complete") for a float64 matrix a
    (m, n), m >= n, bit for bit: the LAPACK geqrf and orgqr gufuncs under the
    same error state, then R's strict lower triangle zeroed as triu zeroes
    it.  R is the upper triangle n x n; a is overwritten and holds R's rows."""
    tau = _geqrf(a, signature="d->d")
    q = _orgqr(a, tau, signature="dd->d")
    r = a[:a.shape[1]]
    for i in range(1, len(r)):
        r[i, :i] = 0.0
    return q, r


# The builders below give the entries of a 3x3 matrix row by row, as a tuple
# of floats, from the cosines, sines and tangent of phi, so that model_terms
# evaluates each once and builds Q, Q^-1, Qdot and the factors of R in one
# array.

def _rotation_factors(cr, sr, cp, sp, cy, sy):
    """The entries of Rz @ Ry and of Rx, row by row, whose product is R."""
    # Rz @ Ry: each entry is one float product, which BLAS rounds exactly, and
    # an exact zero comes out +0.0, as "0.0 -" and "+ 0.0" make it here
    return ((cy * cp, 0.0 - sy, cy * sp + 0.0,
             sy * cp + 0.0, cy, sy * sp + 0.0,
             0.0 - sp, 0.0, cp),
            (1.0, 0.0, 0.0, 0.0, cr, -sr, 0.0, sr, cr))


def _rate_map(cr, sr, cp, sp) -> tuple:
    return (1.0, 0.0, -sp,
            0.0, cr, sr * cp,
            0.0, -sr, cr * cp)


def _rate_map_inv(cr, sr, cp, tp) -> tuple:
    return (1.0, sr * tp, cr * tp,
            0.0, cr, -sr,
            0.0, sr / cp, cr / cp)


def _rate_map_dot(cr, sr, cp, sp, rd, pd) -> tuple:
    return (0.0, 0.0, -cp * pd,
            0.0, -sr * rd, cr * cp * rd - sr * sp * pd,
            0.0, -cr * rd, -sr * cp * rd - cr * sp * pd)


def _matrix(entries) -> np.ndarray:
    """The 3x3 array of nine entries given row by row."""
    return np.array(entries).reshape(3, 3)


def rotation(phi) -> np.ndarray:
    """Body-to-world rotation for ZYX Euler angles phi = [roll, pitch, yaw]:
    bit for bit model_terms' R at the same angles."""
    r, p, y = np.asarray(phi, dtype=float).tolist()
    RzRy, Rx = _rotation_factors(math.cos(r), math.sin(r), math.cos(p), math.sin(p),
                                 math.cos(y), math.sin(y))
    return _matrix(RzRy).dot(_matrix(Rx))


def _check_pitch(phi):
    if abs(phi[1]) >= math.pi / 2 - PITCH_MARGIN:
        raise EulerSingularityError(f"pitch {phi[1]:.4f} too close to +-pi/2")


def euler_rate_map(phi) -> np.ndarray:
    """Q with body angular velocity omega = Q @ phidot, phi = [roll, pitch, yaw]."""
    _check_pitch(phi)
    r, p, _ = phi
    return _matrix(_rate_map(math.cos(r), math.sin(r), math.cos(p), math.sin(p)))


def euler_rate_map_dot(phi, phidot) -> np.ndarray:
    """Time derivative of Q along (phi, phidot)."""
    r, p, _ = phi
    rd, pd, _ = phidot
    return _matrix(_rate_map_dot(math.cos(r), math.sin(r), math.cos(p), math.sin(p), rd, pd))


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
    def mass_templates(self) -> tuple:
        """The fixed entries of the mass matrices M of the true and of the
        nominal mass: m I in the translational block, zeros elsewhere."""
        out = []
        for m in (self.m, self.m_hat):
            M = np.zeros((6, 6))
            M[0, 0] = M[1, 1] = M[2, 2] = m
            out.append(_read_only(M))
        return tuple(out)

    @cached_property
    def J_hat_inv(self) -> np.ndarray:
        """The controller's nominal inverse inertia."""
        return _read_only(np.linalg.inv(self.J_hat))


def model_terms(phi, phidot, params: ModelParams):
    """The plant's and the controller's terms at attitude phi and Euler rates
    phidot (three floats each), from one Q(phi), Qdot and R(phi), which share
    one evaluation of the cosines, sines and tangent of phi.

    Returns (plant, control, R): plant = (M, C, G, B) on the true m, J, with
    M(phi) qddot + C + G = B(phi) T + d; control = (M, C, G, B, M^-1 B, B^-1)
    on the nominal m_hat, J_hat; R the body-to-world rotation.  With
    M = blockdiag(m I, Q' J Q) and B = blockdiag(R, Q') A_body,
    M^-1 B = blockdiag(R / m, Q^-1 J^-1) A_body and
    B^-1 = A_body^-1 blockdiag(R', Q^-T); B, G's zeros and R are shared, and
    a controller on the true parameters shares the plant's M, C and G.
    """
    r, p, y = phi
    _check_pitch(phi)
    rd, ptd, yd = phidot
    cr, sr = math.cos(r), math.sin(r)
    cp, sp, tp = math.cos(p), math.sin(p), math.tan(p)
    RzRy, Rx = _rotation_factors(cr, sr, cp, sp, math.cos(y), math.sin(y))
    # one array of five matrices, each C-contiguous as if built alone, and of
    # phidot
    F = np.array(_rate_map(cr, sr, cp, sp) + _rate_map_inv(cr, sr, cp, tp)
                 + _rate_map_dot(cr, sr, cp, sp, rd, ptd) + RzRy + Rx
                 + (rd, ptd, yd)).reshape(16, 3)
    Q, Qinv, Qd, RzRy, Rx, pd = F[:3], F[3:6], F[6:9], F[9:12], F[12:15], F[15]
    R = RzRy.dot(Rx)
    w = Q.dot(pd)
    Qdpd = Qd.dot(pd)
    wx, wy, wz = w.tolist()
    skew_w = _matrix((0.0, -wz, wy, wz, 0.0, -wx, -wy, wx, 0.0))
    A = params.allocation_body
    QT = Q.T
    # the block-diagonal left operands of B, M^-1 B and B^-1, in that order:
    # blocks [k, 0, :, 0] and [k, 1, :, 1] of a zero array, matrix k of its
    # (3, 6, 6) reshape
    diag = np.zeros((3, 2, 3, 2, 3))
    diag[0, 0, :, 0] = R
    diag[0, 1, :, 1] = QT
    diag[1, 0, :, 0] = R / params.m_hat
    diag[1, 1, :, 1] = Qinv.dot(params.J_hat_inv)
    diag[2, 0, :, 0] = R.T
    diag[2, 1, :, 1] = Qinv.T
    diag = diag.reshape(3, 6, 6)
    B = diag[0].dot(A)

    def terms(M, J, G):
        # M: the template of the fixed entries, m I and zeros
        M = M.copy()
        M[3:, 3:] = QT.dot(J).dot(Q)
        C = np.zeros(6)
        QT.dot(J.dot(Qdpd) + skew_w.dot(J.dot(w)), out=C[3:])
        return M, C, G, B

    (M, M_hat), (G, G_hat) = params.mass_templates, params.gravity
    nominal = terms(M_hat, params.J_hat, G_hat)
    plant = nominal if params.nominal_is_true else terms(M, params.J, G)
    return (plant, nominal + (diag[1].dot(A), params.allocation_body_inv.dot(diag[2])), R)


def check_dt(dt):
    """Raise ValueError unless 0 < dt <= DT_MAX, the plant step's range; a
    mission checks its dt once, before its first step."""
    if not (0.0 < dt <= DT_MAX):
        raise ValueError(f"dt must lie in (0, {DT_MAX}]")


ARM_TRACK_GAIN = 20.0  # [1/s], critically damped joint tracking


def step(x, plant, T, theta_d, thetadot_d, thetaddot_d, d_true, dt,
         params: ModelParams) -> np.ndarray:
    """Advance the true plant one step (semi-implicit Euler) from the state x,
    the 18 floats of q, qdot, theta and thetadot, on plant, the plant's model
    terms (M, C, G, B) at x (model_terms(...)[0]); returns the new state as
    one array of 18 floats, in the same order.

    T is the array of the six rotor thrusts, which saturate at the physical
    band before allocation; theta_d, thetadot_d and thetaddot_d are the arm's
    references, three floats each; the injected lumped disturbance d_true
    enters as the external generalized wrench.  dt is the caller's to check
    (check_dt), once per mission.
    """
    M, C, G, B = plant
    lo, hi = params.thrust_sat
    # NaN and -0.0 pass the comparisons, as np.clip keeps them
    T = np.array([lo if t < lo else hi if t > hi else t for t in T.tolist()])
    qddot = linsolve(M, B.dot(T) + d_true - C - G).tolist()
    if not all(map(math.isfinite, qddot)):
        raise PlantError("non-finite acceleration in plant step")

    qdot = [v + dt * a for v, a in zip(x[6:12], qddot)]
    q = [p + dt * v for p, v in zip(x[:6], qdot)]

    kd, kp = 2.0 * ARM_TRACK_GAIN, ARM_TRACK_GAIN ** 2
    theta = x[12:15]
    thetadot = [w + dt * (a + kd * (wd - w) + kp * (xd - th))
                for th, w, xd, wd, a in zip(theta, x[15:18], theta_d, thetadot_d, thetaddot_d)]
    theta = [th + dt * w for th, w in zip(theta, thetadot)]
    return np.array(q + qdot + theta + thetadot)
