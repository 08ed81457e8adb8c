"""Superquadric shapes, inside-outside tests, boundary proxies and closest-pair solving.

A superquadric (SQ) is the implicit surface F(x) = 0 with F negative inside.
Boundary points are parameterized by angular variables through signed-power
trigonometric functions, which lets a "proxy" point slide along the surface.
All functions here are pure; shape objects are immutable after construction.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np


class GeometryError(ValueError):
    """Invalid shape parameters or non-finite geometric input."""


def wrap_angle(a):
    """Wrap angle(s) into (-pi, pi]."""
    a = np.asarray(a, dtype=float)
    out = -((-a + np.pi) % (2.0 * np.pi) - np.pi)
    return out if out.ndim else float(out)


def check_numbers(obj, error, reals=(), ints=()):
    """Raise error unless every field of obj named in reals is a finite real
    number and every one named in ints an integer; a bool is neither."""
    for name in reals:
        v = getattr(obj, name)
        if isinstance(v, bool) or not isinstance(v, numbers.Real) or not math.isfinite(v):
            raise error(f"{name} must be a finite number, got {v!r}")
    for name in ints:
        v = getattr(obj, name)
        if isinstance(v, bool) or not isinstance(v, numbers.Integral):
            raise error(f"{name} must be an integer, got {v!r}")


@dataclass(frozen=True)
class Superquadric2:
    """Planar superquadric: semi-axes a1, a2, exponent eps, pose (angle, center)."""

    a1: float
    a2: float
    eps: float
    angle: float = 0.0
    center: tuple = (0.0, 0.0)

    def __post_init__(self):
        check_numbers(self, GeometryError, ("a1", "a2", "eps", "angle"))
        if not (self.a1 > 0.0 and self.a2 > 0.0):
            raise GeometryError(f"semi-axes must be positive, got {self.a1}, {self.a2}")
        if not (0.0 < self.eps <= 2.0):
            raise GeometryError(f"shape exponent must lie in (0, 2], got {self.eps}")
        center = tuple(float(c) for c in self.center)
        if len(center) != 2 or not all(map(math.isfinite, center)):
            raise GeometryError(f"center must be two finite numbers, got {self.center}")
        object.__setattr__(self, "center", center)


def radial_excess(eps: float) -> float:
    """Largest ratio of a planar SQ's boundary radius to max(a1, a2):
    2^((1 - eps) / 2) for eps < 1, 1 otherwise.

    A boundary point's body radius squared is a1^2 |c|^(2 eps) + a2^2 |s|^(2 eps)
    <= max(a1, a2)^2 (|c|^(2 eps) + |s|^(2 eps)) with c^2 + s^2 = 1; the sum is at
    most 1 for eps >= 1 (on the axes) and, t^eps being concave, 2^(1 - eps) for
    eps < 1 (on the diagonals).  So a circle of radius max(a1, a2) times this
    contains the shape, and the same-axes ellipse scaled by it does too.
    Computed in Python floats: numpy's vectorized power may round differently.
    """
    return max(1.0, 2.0 ** ((1.0 - float(eps)) / 2.0))


def bounding_radius(a1, a2, eps) -> np.ndarray:
    """Radius max(a1, a2) radial_excess(eps) of the circle about each planar
    SQ's center that contains it, for arrays of semi-axes and exponents."""
    return np.maximum(a1, a2) * [radial_excess(e) for e in eps]


def circle_bound(d, r, scale):
    """Lower bound |d| - r on the distance from c to every point within r of C,
    d = C - c (2, ...), less _ULPS of scale (the scene's largest coordinate plus
    its largest radii): rounding cannot lift it above the true distance."""
    return np.hypot(d[0], d[1]) - r - _ULPS * scale


def _tanh_saturation(lo=0.0, hi=64.0) -> float:
    """The smallest double x with np.tanh(x) == 1.0, by bisection on doubles:
    stiffness_terms(d) is exactly (k_min, 0, 0) for d >= x d0."""
    while (mid := 0.5 * (lo + hi)) not in (lo, hi):
        lo, hi = (lo, mid) if np.tanh(mid) == 1.0 else (mid, hi)
    return hi


TANH_SATURATION = _tanh_saturation()


@dataclass(frozen=True)
class StiffnessParams:
    """Bounds and scales of the nonlinear proxy stiffness."""

    k_min: float = 1.0e-7
    k_max: float = 1.0e3
    d0: float = 1.0e-3
    d_prime: float = 0.05

    def __post_init__(self):
        check_numbers(self, GeometryError, ("k_min", "k_max", "d0", "d_prime"))
        if not (0.0 < self.k_min < self.k_max):
            raise GeometryError("need 0 < k_min < k_max")
        if self.d0 <= 0.0 or self.d_prime < 0.0:
            raise GeometryError("need d0 > 0 and d_prime >= 0")


def stiffness_terms(d, params: StiffnessParams):
    """Nonlinear stiffness k(d), large when d is small and decaying to k_min for
    large d, with its analytic slope dk/dd and curvature d^2k/dd^2; one tanh
    serves all three."""
    d = np.asarray(d, dtype=float)
    if not np.isfinite(d).all():
        raise GeometryError("non-finite distance in stiffness")
    t = np.tanh(d / params.d0)
    # sech^2 as 1 - tanh^2: cosh overflows for |d| > 710 d0
    sech2 = 1.0 - t * t
    return (params.k_min + 0.5 * (1.0 - t) * params.k_max,
            -0.5 * params.k_max / params.d0 * sech2,
            params.k_max / params.d0 ** 2 * sech2 * t)


# --- closest proxy pairs -------------------------------------------------------

# floor on the bases of power terms that are unbounded on a shape's axes: |cos|,
# |sin| in the boundary derivatives (eps < 1) and the scaled body coordinates in
# the inside-outside curvature (eps > 1)
AXIS_FLOOR = 1e-12
# longest accepted step in the proxy angles [rad], to stay within the local basin
MAX_STEP = 0.25
# circle_bound's rounding slack per unit of scene scale
_ULPS = 32.0 * np.finfo(float).eps


def shape_rows(shapes) -> np.ndarray:
    """closest_pairs layout of planar SQs: rows [a1, a2, eps, cos(angle),
    sin(angle), center x, center y], one column per shape."""
    a1, a2, eps, angle, cx, cy = np.array([[s.a1, s.a2, s.eps, s.angle, *s.center]
                                           for s in shapes], dtype=float).reshape(-1, 6).T
    return np.array([a1, a2, eps, np.cos(angle), np.sin(angle), cx, cy])


def _body_curve(axes, c, s):
    """Body-frame boundary points (x, y), each (N,), of the shapes with rows
    axes = [a1, a2, eps] at the angles of cosines c and sines s:
    (a1 sign(c)|c|^eps, a2 sign(s)|s|^eps)."""
    a1, a2, eps = axes
    return a1 * (np.sign(c) * np.abs(c) ** eps), a2 * (np.sign(s) * np.abs(s) ** eps)


def _posed(pose, x, y):
    """World points (2, N) of the body-frame points (x, y) under the pose rows
    [cos(angle), sin(angle), center x, center y] of shape_rows."""
    ca, sa, cx, cy = pose
    return np.array([cx + ca * x - sa * y, cy + sa * x + ca * y])


def boundary_points(rows, g):
    """World points p(g) (2, N) of the shapes of shape_rows columns rows at
    the proxy angles g (N,)."""
    return _posed(rows[3:], *_body_curve(rows[:3], np.cos(g), np.sin(g)))


def _boundary(rows, g):
    """World point p(g), tangent p'(g) and second derivative p''(g), each (2, N).

    The point is boundary_points' (_body_curve placed by _posed); the
    derivatives use |c|, |s| floored at AXIS_FLOOR, c and s the cosine and
    sine of g.
    """
    c, s = np.cos(g), np.sin(g)
    x, y = _body_curve(rows[:3], c, s)
    p = _posed(rows[3:], x, y)
    a1, a2, eps, ca, sa = rows[:5]
    ac, as_ = np.maximum(np.abs(c), AXIS_FLOOR), np.maximum(np.abs(s), AXIS_FLOOR)
    e2, ae1, ae2 = eps - 2.0, a1 * eps, a2 * eps
    wc, ws = ac ** e2, as_ ** e2
    tx = -ae1 * wc * ac * s
    ty = ae2 * ws * as_ * c
    t = np.array([ca * tx - sa * ty, sa * tx + ca * ty])
    e1 = eps - 1.0
    kx = ae1 * e1 * np.sign(c) * wc * s * s - eps * x
    ky = ae2 * e1 * np.sign(s) * ws * c * c - eps * y
    return p, t, np.array([ca * kx - sa * ky, sa * kx + ca * ky])


def _objective(rows, g):
    """Rows [f, df/dg_i, df/dg_j, h_ii, h_ij, h_jj, p_j x, p_i x, p_j y, p_i y],
    each (P,), of f = |p_i - p_j|^2 and its proxies; rows holds side i in its
    first P columns and side j in the last P."""
    P = g.shape[1]
    (px, py), (tx, ty), (kx, ky) = _boundary(rows, g.reshape(-1))
    dx, dy = px[:P] - px[P:], py[:P] - py[P:]
    tix, tiy, tjx, tjy = tx[:P], ty[:P], tx[P:], ty[P:]
    return np.array([dx * dx + dy * dy,
                     2.0 * (dx * tix + dy * tiy),
                     -2.0 * (dx * tjx + dy * tjy),
                     2.0 * ((tix * tix + tiy * tiy) + (dx * kx[:P] + dy * ky[:P])),
                     -2.0 * (tix * tjx + tiy * tjy),
                     2.0 * ((tjx * tjx + tjy * tjy) - (dx * kx[P:] + dy * ky[P:])),
                     px[P:], px[:P], py[P:], py[:P]])


def _step(ev):
    """Newton step (2, P) on the exact 2x2 Hessian, or the gradient step where
    that is not positive definite; capped at MAX_STEP."""
    _, g1, g2, h11, h12, h22 = ev[:6]
    det = h11 * h22 - h12 * h12
    pd = (h11 > 0.0) & (det > 0.0)
    det = np.where(pd, det, 1.0)
    s = np.where(pd, np.array([h12 * g2 - h22 * g1, h12 * g1 - h11 * g2]) / det, -ev[1:3])
    return s * np.minimum(1.0, MAX_STEP / np.maximum(np.hypot(s[0], s[1]), 1e-300))


def _inside_outside(rows, pts):
    """Inside-outside value of points (2, ...) in the shapes of rows."""
    a1, a2, eps, ca, sa, cx, cy = rows
    dx, dy = pts[0] - cx, pts[1] - cy
    return (np.abs((ca * dx + sa * dy) / a1) ** (2.0 / eps)
            + np.abs((ca * dy - sa * dx) / a2) ** (2.0 / eps) - 1.0)


def center_angles(sq_i, sq_j) -> np.ndarray:
    """Proxy angles (2, P) of the center-to-center direction of each pair in
    each shape's body frame, the cold start of closest_pairs; sq_i and sq_j
    as there."""
    _, _, _, ca, sa, cx, cy = np.concatenate([sq_i, sq_j], axis=1)
    P = cx.size // 2
    d = np.array([cx[P:] - cx[:P], cy[P:] - cy[:P]])
    dx, dy = np.concatenate([d, -d], axis=1)
    return np.arctan2(ca * dy - sa * dx, ca * dx + sa * dy).reshape(2, P)


@dataclass(frozen=True)
class ClosestPairs:
    """Per-pair results of closest_pairs: proxy angles (2, P), signed gap,
    convergence flag and Newton iterations taken, each (P,)."""

    gammas: np.ndarray
    gap: np.ndarray
    converged: np.ndarray
    iterations: np.ndarray


# overflow is handled in the solver itself: a non-finite trial is rejected and
# a non-finite objective raises, so numpy's warnings would only add noise
@np.errstate(over="ignore", invalid="ignore")
def closest_pairs(sq_i, sq_j, init=None, tol: float = 1e-8,
                  max_iter: int = 200) -> ClosestPairs:
    """Closest proxy pairs between P shape pairs, solved together.

    sq_i and sq_j are shape_rows layouts (7, P); init is (2, P) proxy angles,
    or None for the center-to-center direction in each body frame.  Each pair
    runs damped Newton on f = |p_i - p_j|^2 with its own Armijo backtracking:
    every round evaluates the trial points of all pairs in one call, then
    accepts or halves the step of each pending one; settled pairs ride along
    masked.  Pairs never mix, so a batch gives each pair bit for bit its
    single-pair result.  A pair converges when its step is below tol
    or its predicted decrease is below the float resolution of f; a pair that
    takes max_iter steps keeps its best iterate and reports converged=False.
    A non-finite objective or predicted decrease (f overflows far from the
    origin) raises GeometryError.
    The gap comes from the proxies of each pair's last accepted evaluation;
    it is negative when either proxy lies strictly inside the other shape.
    """
    rows = np.concatenate([sq_i, sq_j], axis=1)
    if not np.isfinite(rows).all():
        raise GeometryError("non-finite shape parameters")
    P = rows.shape[1] // 2
    g = np.array(center_angles(sq_i, sq_j) if init is None else init, dtype=float).reshape(2, P)
    if not np.isfinite(g).all():
        raise GeometryError("non-finite proxy initialization")

    ev = _objective(rows, g)
    iterations = np.zeros(P, dtype=int)
    converged = np.zeros(P, dtype=bool)
    alpha = np.ones(P)
    pending = iterations < max_iter
    while True:
        s = alpha * _step(ev)
        pred = -(ev[1] * s[0] + ev[2] * s[1])
        # an overflowed objective gives a NaN step, which no halving would
        # accept.  Every f * pred is >= 0, so the sum is finite iff each term
        # is, short of coordinates near 1e100
        if not math.isfinite(ev[0] @ pred):
            raise GeometryError("closest-pair objective is not finite")
        done = pending & ((np.hypot(s[0], s[1]) < tol) | (pred <= 1e-14 * ev[0]))
        converged |= done
        pending ^= done
        if not pending.any():
            break
        trial = g + s
        et = _objective(rows, trial)
        ok = pending & (et[0] <= ev[0] - 1e-4 * pred)
        g = np.where(ok, trial, g)
        ev = np.where(ok, et, ev)
        iterations += ok
        alpha = np.where(ok, 1.0, 0.5 * alpha)
        pending &= iterations < max_iter

    # proxies of the last accepted iterates; reshaped, p_j meets shape i and p_i shape j
    gap = np.hypot(ev[7] - ev[6], ev[9] - ev[8])
    inside = _inside_outside(rows, ev[6:].reshape(2, 2 * P)) < 0.0
    return ClosestPairs(g, np.where(inside[:P] | inside[P:], -gap, gap), converged, iterations)
