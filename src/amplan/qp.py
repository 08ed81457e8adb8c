"""Small dense convex QP solver for the per-tick outer-loop problem.

Solves min 0.5 x'Hx + g'x subject to Ax <= b by the dual active-set method of
Goldfarb and Idnani (Math. Programming 27, 1983): start at the unconstrained
minimiser and add the most violated row with a step length, dropping a working
row whose multiplier would turn negative first.  A violated row that admits
neither a primal nor a dual step proves the rows infeasible.  H is factored
once, when the problem is checked, and the start is taken from that factor;
the working rows, a few at most, are refactored densely at each step.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

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
        # H = L L'; the steps are taken in the coordinates L' x
        self.Linv = np.linalg.inv(np.linalg.cholesky(self.H))

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

    def with_rows(self, g, A, b) -> "QpProblem":
        """This problem's checked H with a new g, A and b; only the dimensions are rechecked."""
        prob = object.__new__(QpProblem)
        prob.H, prob.Linv = self.H, self.Linv
        return prob._set_rows(g, A, b)


@dataclass
class QpSolution:
    x: np.ndarray
    status: str  # "optimal" | "infeasible" | "max_iter"
    duals: np.ndarray
    iterations: int
    active_set: tuple = ()


def solve(prob: QpProblem) -> QpSolution:
    """Solve prob; every call starts afresh from the unconstrained minimiser.
    A NaN in g, A or b raises QpDimensionError."""
    A, b, Linv = prob.A, prob.b, prob.Linv
    x = np.dot(-Linv.T, np.dot(Linv, prob.g))   # -H^-1 g, from the held factor
    work, lam = [], np.zeros(0)     # working rows and their multipliers
    p = None                        # the violated row being added
    status = "max_iter"
    for it in range(1, MAX_ITER + 1):
        if p is None:
            resid = np.dot(A, x) - b
            if work:
                resid[work] = -np.inf
            if resid.size == 0 or resid.max() <= TOL:
                # with no rows, a NaN in g shows in x alone
                if not resid.size and np.isnan(x).any():
                    raise QpDimensionError("QP data g holds a NaN")
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
        Q, R = np.linalg.qr(np.dot(Linv, A[work].T), mode="complete")
        d = np.dot(Q.T, np.dot(Linv, A[p]))
        r = np.linalg.solve(R[:q], d[:q])
        curv = np.dot(d[q:], d[q:])
        # partial step: the first working multiplier to reach zero
        falling = np.flatnonzero(r > TOL)
        t_drop, k = np.inf, None
        if falling.size:
            k = falling[np.argmin(lam[falling] / r[falling])]
            t_drop = lam[k] / r[k]
        # full step: a_p x reaches b_p; none when a_p depends on the working rows
        t_add = (np.dot(A[p], x) - b[p]) / curv if curv > TOL * TOL * np.dot(d, d) else np.inf
        if t_drop == t_add == np.inf:
            status = "infeasible"
            break
        t = min(t_drop, t_add)
        if t_add < np.inf:
            x = x - t * np.dot(Linv.T, np.dot(Q[:, q:], d[q:]))
        lam, lam_p = lam - t * r, lam_p + t
        if t_add <= t_drop:
            work.append(p)
            lam, p = np.append(lam, lam_p), None
        else:
            del work[k]
            lam = np.delete(lam, k)
    duals = np.zeros(len(b))
    if work:
        duals[work] = np.maximum(lam, 0.0)
    return QpSolution(x=x, status=status, duals=duals, iterations=it,
                      active_set=tuple(work))
