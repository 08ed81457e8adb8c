"""Independent brute-force oracles shared by the test modules.

Everything here deliberately avoids the library's own solvers: gaps come from
dense boundary sampling, path costs from exhaustive enumeration, QP optima
from trying every active subset as an equality system, and vehicle part poses
from per-part trigonometry rather than the joint frames.
"""

import itertools

import numpy as np
from scipy.spatial import cKDTree

from amplan.geometry import Superquadric2


def sq2_boundary_samples(sq, n):
    gammas = np.linspace(-np.pi, np.pi, n, endpoint=False)
    return sq.boundary_point(gammas)


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
    inside_ij = sq_j.inside_outside(pi) < 0.0
    inside_ji = sq_i.inside_outside(pj) < 0.0
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
        for subset in itertools.combinations(range(m), r):
            As = A[list(subset)]
            K = np.block([[H, As.T], [As, np.zeros((r, r))]])
            rhs = np.concatenate([-g, b[list(subset)]])
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
