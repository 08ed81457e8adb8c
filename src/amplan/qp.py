"""Small dense convex QP solver for the per-tick outer-loop problem.

Solves min 0.5 x'Hx + g'x subject to Ax <= b with an active-set iteration:
start from the previous solve's working set (empty on a fresh solver),
solve the equality-constrained KKT system, drop rows with negative
multipliers, add the most violated row.  Problem sizes here are tiny
(n <= 16, a few dozen rows), so dense factorizations per iteration are the
right trade-off.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field

import numpy as np

MAX_DIM = 16
MAX_ROWS = 64
TOL = 1e-9        # multiplier and constraint-violation tolerance
MAX_ITER = 200    # active-set iterations per solve


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
        # regularize near-singular Hessians so the KKT solves stay well posed
        w = np.linalg.eigvalsh(0.5 * (self.H + self.H.T))
        if w.min() <= 1e-9:
            self.H = self.H + (1e-9 - min(w.min(), 0.0) + 1e-9) * np.eye(len(self.H))
            self.regularized = True
        else:
            self.regularized = False

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
        return copy.copy(self)._set_rows(g, A, b)


@dataclass
class QpSolution:
    x: np.ndarray
    status: str  # "optimal" | "infeasible" | "max_iter"
    duals: np.ndarray
    iterations: int
    active_set: tuple = ()


@dataclass
class ActiveSetSolver:
    """Holds the warm-start working set between consecutive solves; a fresh
    solver starts cold."""

    _warm: tuple = field(default=(), repr=False)

    def solve(self, prob: QpProblem) -> QpSolution:
        H, g, A, b = prob.H, prob.g, prob.A, prob.b
        n, m = H.shape[0], A.shape[0]
        work = sorted(i for i in self._warm if i < m)

        x = np.zeros(n)
        lam = np.zeros(m)
        status = "max_iter"
        it = 0
        for it in range(1, MAX_ITER + 1):
            k = len(work)
            K = np.zeros((n + k, n + k))
            K[:n, :n] = H
            if k:
                As = A[work]
                K[:n, n:] = As.T
                K[n:, :n] = As
            rhs = np.concatenate([-g, b[work]])
            try:
                sol = np.linalg.solve(K, rhs)
            except np.linalg.LinAlgError:
                # dependent working set: drop the newest row and retry
                work = work[:-1]
                continue
            x = sol[:n]
            lam_work = sol[n:]

            if k and lam_work.min() < -TOL:
                # drop the most negative multiplier (lowest row index on ties)
                worst = int(np.argmin(lam_work))
                work.pop(worst)
                continue

            resid = A @ x - b if m else np.zeros(0)
            if m == 0 or resid.max() <= TOL:
                lam = np.zeros(m)
                lam[work] = np.maximum(lam_work, 0.0)
                status = "optimal"
                break

            if len(work) >= n:
                status = "infeasible"
                break
            # add the most violated row (argmax takes the lowest index among ties)
            cand = int(np.argmax(resid))
            if cand in work:
                status = "infeasible"
                break
            work = sorted(work + [cand])

        self._warm = tuple(work)
        return QpSolution(x=x, status=status, duals=lam, iterations=it,
                         active_set=tuple(work))
