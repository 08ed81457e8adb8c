"""Small dense convex QP solver for the per-tick outer-loop problem.

Solves min 0.5 x'Hx + g'x subject to Ax <= b by the dual active-set method of
Goldfarb and Idnani (Math. Programming 27, 1983): start at the unconstrained
minimiser and add the most violated row with a step length, dropping a working
row whose multiplier would turn negative first.  A violated row that admits
neither a primal nor a dual step proves the rows infeasible.  H is factored
once, when the problem is checked, and the start is taken from that factor;
the working rows, a few at most, are refactored densely at each step.
Products, the step's QR factorization and its triangular solve follow the
rules of dynamics (a.dot(b), dynamics.qr_complete and dynamics.linsolve).

A QpProblem is checked once: its H, its factor and its dimensions.  solve
takes a checked problem's factor with a g, A and b of its dimensions, so
the outer loop checks one problem per mission and passes each tick's data
as it is; it returns the solution's terms, with no record.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dynamics import linsolve, qr_complete

MAX_DIM = 16
MAX_ROWS = 64
TOL = 1e-9        # constraint-violation and multiplier-rate tolerance
MAX_ITER = 200    # added plus dropped rows per solve


class QpDimensionError(ValueError):
    pass


@dataclass
class QpProblem:
    H: np.ndarray
    g: np.ndarray
    A: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        self.H = np.asarray(self.H, dtype=float)
        self._set_rows(self.g, self.A, self.b)
        if np.abs(self.H - self.H.T).max() > 1e-10:
            raise QpDimensionError("H must be symmetric to 1e-10")
        # regularize near-singular Hessians so the factor stays well posed
        w = np.linalg.eigvalsh(0.5 * (self.H + self.H.T))
        if w.min() <= 1e-9:
            self.H = self.H + (1e-9 - min(w.min(), 0.0) + 1e-9) * np.eye(len(self.H))
        # H = L L'; the steps are taken in the coordinates L' x, and the start
        # -H^-1 g = -L^-T L^-1 g takes -L^-T, built here once
        self.Linv = np.linalg.inv(np.linalg.cholesky(self.H))
        self.neg_LinvT = -self.Linv.T

    def _set_rows(self, g, A, b):
        n = self.H.shape[0]
        self.g = np.asarray(g, dtype=float)
        self.A = np.asarray(A, dtype=float).reshape(-1, n)
        self.b = np.asarray(b, dtype=float).ravel()
        m = self.A.shape[0]
        if n > MAX_DIM or m > MAX_ROWS:
            raise QpDimensionError(f"problem too large: n={n}, m={m}")
        if self.H.shape != (n, n) or self.g.shape != (n,) or self.b.shape != (m,):
            raise QpDimensionError("inconsistent problem dimensions")
        return self


def solve(prob: QpProblem, g, A, b):
    """Solve min 0.5 x'Hx + g'x subject to Ax <= b on prob's checked H and
    factor; every call starts afresh from the unconstrained minimiser, and
    returns it at once when no row is violated.  g, A and b are float64
    arrays shaped as prob's (n,), (m, n) and (m,); solve checks only m:
    more than MAX_ROWS rows raise QpDimensionError, as does a NaN in g, A
    or b.

    Returns (x, status, active, duals, iterations): status is "optimal",
    "infeasible" or "max_iter", active the working rows in the order they
    were added, duals their multipliers (clamped at 0) in that order, and
    iterations the passes of the loop, 1 where the start is optimal.
    """
    if len(b) > MAX_ROWS:
        raise QpDimensionError(f"problem too large: m={len(b)}")
    Linv = prob.Linv
    x = prob.neg_LinvT.dot(Linv.dot(g))   # -H^-1 g, from the held factor
    resid = A.dot(x) - b
    if not resid.size:
        # with no rows, a NaN in g shows in x alone
        if np.isnan(x).any():
            raise QpDimensionError("QP data g holds a NaN")
        return x, "optimal", (), (), 1
    # ndarray.max's own reduction, without its wrapper; a NaN residual makes
    # it NaN, which fails the test
    if np.maximum.reduce(resid) <= TOL:
        return x, "optimal", (), (), 1
    work, lam = [], np.zeros(0)     # working rows and their multipliers
    p = None                        # the violated row being added
    status = "max_iter"
    for it in range(1, MAX_ITER + 1):
        if p is None:
            if work:
                # the residuals at the new x, past the first pass's
                resid = A.dot(x) - b
                resid[work] = -np.inf
                if np.maximum.reduce(resid) <= TOL:
                    status = "optimal"
                    break
            p, lam_p = int(np.argmax(resid)), 0.0   # lowest index among ties
            # a NaN in g, A or b makes a residual NaN, which argmax picks first
            # and the test above never passes
            if np.isnan(resid[p]):
                raise QpDimensionError("QP data g, A or b holds a NaN")
        # split L^-1 a_p into its part spanned by the working rows, whose
        # coefficients r are the rates their multipliers fall at, and the rest
        q = len(work)
        Q, R = qr_complete(Linv.dot(A[work].T))
        d = Q.T.dot(Linv.dot(A[p]))
        r = linsolve(R, d[:q])
        curv = d[q:].dot(d[q:])
        # partial step: the first working multiplier to reach zero
        falling = (r > TOL).nonzero()[0]
        t_drop, k = np.inf, None
        if falling.size:
            k = falling[np.argmin(lam[falling] / r[falling])]
            t_drop = lam[k] / r[k]
        # full step: a_p x reaches b_p; none when a_p depends on the working rows
        t_add = (A[p].dot(x) - b[p]) / curv if curv > TOL * TOL * d.dot(d) else np.inf
        if t_drop == t_add == np.inf:
            status = "infeasible"
            break
        t = min(t_drop, t_add)
        if t_add < np.inf:
            x = x - t * Linv.T.dot(Q[:, q:].dot(d[q:]))
        lam, lam_p = lam - t * r, lam_p + t
        if t_add <= t_drop:
            work.append(p)
            lam, p = np.append(lam, lam_p), None
        else:
            del work[k]
            lam = np.delete(lam, k)
    return x, status, tuple(work), np.maximum(lam, 0.0), it
