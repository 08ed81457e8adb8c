import copy
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.spatial import cKDTree

from amplan import geometry
from amplan.control import h_co
from amplan.harness import ScenarioError, load_scenario
from amplan.geometry import (
    GeometryError,
    StiffnessParams,
    Superquadric2,
    _body_curve,
    _inside_outside,
    boundary_points,
    closest_pairs,
    shape_rows,
    stiffness_terms,
    wrap_angle,
)
from oracles import (Superquadric3, sampled_gap, sq2_boundary, sq2_boundary_samples,
                     sq2_inside_outside)
from test_harness import BASE, write_scenario


def unit_sphere():
    return Superquadric3(1.0, 1.0, 1.0, 1.0, 1.0)


def bracket(sq3, pts_world):
    """The barrier's 3D inside-outside value, e^h - 1, at world points."""
    return np.expm1(h_co(sq3.to_body(pts_world), sq3))


def inside_outside(sq, pts):
    """The closest-pair kernel's planar inside-outside value at points (..., 2)."""
    return _inside_outside(shape_rows([sq])[:, 0], np.moveaxis(np.asarray(pts, dtype=float),
                                                               -1, 0))


def boundary(sq, gamma):
    """The closest-pair kernel's boundary point(s) (..., 2) of one shape, its
    rows repeated once per angle as the pipeline's callers pass them."""
    g = np.asarray(gamma, dtype=float)
    p = boundary_points(np.repeat(shape_rows([sq]), g.size, axis=1), g.ravel())
    return np.moveaxis(p.reshape(2, *g.shape), 0, -1)


class TestInsideOutside:
    def test_unit_sphere_boundary(self):
        assert bracket(unit_sphere(), [1.0, 0.0, 0.0]) == pytest.approx(0.0, abs=1e-14)

    def test_unit_sphere_outside(self):
        assert bracket(unit_sphere(), [2.0, 0.0, 0.0]) == pytest.approx(3.0, abs=1e-12)

    def test_box_like_matches_direct_formula(self):
        sq = Superquadric3(1.0, 1.0, 1.0, 0.2, 0.2)
        x, y, z = 0.9, 0.9, 0.0
        expected = (abs(x) ** 10 + abs(y) ** 10) ** 1.0 + abs(z) ** 10 - 1.0
        assert bracket(sq, [x, y, z]) == pytest.approx(expected, abs=1e-12)

    def test_2d_overload(self):
        sq = Superquadric2(2.0, 1.0, 1.0)
        assert inside_outside(sq, [2.0, 0.0]) == pytest.approx(0.0, abs=1e-14)
        assert inside_outside(sq, [0.0, 0.5]) < 0.0

    def test_invalid_params_rejected(self):
        with pytest.raises(GeometryError):
            Superquadric2(-1.0, 1.0, 1.0)
        with pytest.raises(GeometryError):
            Superquadric2(1.0, 1.0, 2.5)
        for bad in ({"angle": math.nan}, {"center": (0.0, math.inf)}, {"center": (0.0,)}):
            with pytest.raises(GeometryError):
                Superquadric2(1.0, 1.0, 1.0, **bad)


class TestProxyPoint:
    """The oracle's 3D boundary, and the kernel's planar one."""

    def test_axis_point(self):
        sq = Superquadric3(1.5, 1.0, 0.5, 0.7, 1.3)
        np.testing.assert_allclose(sq.boundary_point(0.0, 0.0), [1.5, 0.0, 0.0], atol=1e-14)

    def test_pole(self):
        sq = Superquadric3(1.5, 1.0, 0.5, 0.7, 1.3)
        np.testing.assert_allclose(sq.boundary_point(math.pi / 2, 0.3), [0.0, 0.0, 0.5], atol=1e-10)

    def test_2d_translated_circle(self):
        sq = Superquadric2(2.0, 2.0, 1.0, center=(1.0, 1.0))
        np.testing.assert_allclose(boundary(sq, math.pi), [-1.0, 1.0], atol=1e-12)
        np.testing.assert_allclose(sq2_boundary(sq, math.pi), [-1.0, 1.0], atol=1e-12)

    def test_signed_pow_zero(self):
        # the boundary's signed powers sign(c)|c|^eps are 0, not NaN, at c = 0
        assert _body_curve((2.0, 3.0, 0.3), 0.0, -0.0) == (0.0, 0.0)


class TestStiffness:
    def test_at_zero(self):
        p = StiffnessParams(1.0, 10.0, 0.5, 0.0)
        assert stiffness_terms(0.0, p)[0] == pytest.approx(1.0 + 5.0)

    def test_limit(self):
        p = StiffnessParams(1.0, 10.0, 0.5, 0.0)
        assert stiffness_terms(1e6, p)[0] == pytest.approx(1.0, abs=1e-9)

    def test_table_values_at_d0(self):
        p = StiffnessParams(1e-7, 1e3, 1.0, 0.0)
        assert stiffness_terms(1.0, p)[0] == pytest.approx(1e-7 + 1e3 * (1 - math.tanh(1.0)) / 2)

    @given(st.floats(-0.4, 0.4), st.floats(1e-3, 1.0))
    def test_monotone_decreasing(self, d1, delta):
        p = StiffnessParams(1e-7, 1e3, 0.1, 0.0)
        assert stiffness_terms(d1, p)[0] > stiffness_terms(d1 + delta, p)[0]
        k = stiffness_terms(d1, p)[0]
        assert p.k_min < k < p.k_min + p.k_max

    def test_invalid_params(self, tmp_path):
        # a scenario's stiffness overrides are checked where the file loads
        for stiffness, message in (
                ({"k_min": 2.0, "k_max": 1.0}, r"planner\.stiffness\.k_min: must be below "
                                               r"planner\.stiffness\.k_max = 1, got 2"),
                ({"d0": -0.1}, r"planner\.stiffness\.d0: must lie in \[1e-06, 1e\+06\], got -0\.1")):
            data = copy.deepcopy(BASE)
            data["planner"] = {"stiffness": stiffness}
            with pytest.raises(ScenarioError, match=f"^{message}$"):
                load_scenario(write_scenario(tmp_path, data))


def random_convex_sq(rng, box=3.0):
    return Superquadric2(
        a1=rng.uniform(0.3, 1.0),
        a2=rng.uniform(0.3, 1.0),
        eps=rng.uniform(0.3, 1.8),
        angle=rng.uniform(-math.pi, math.pi),
        center=tuple(rng.uniform(-box, box, size=2)),
    )


def random_disjoint_pair(rng):
    while True:
        a, b = random_convex_sq(rng), random_convex_sq(rng)
        if sampled_gap(a, b, n=600) > 0.05:
            return a, b


def solve(side_i, side_j, **kw):
    """closest_pairs on the shape pairs (side_i[k], side_j[k])."""
    return closest_pairs(shape_rows(side_i), shape_rows(side_j), **kw)


class TestClosestPair:
    def test_two_unit_circles(self):
        a = Superquadric2(1, 1, 1.0, center=(0, 0))
        b = Superquadric2(1, 1, 1.0, center=(3, 0))
        res = solve([a], [b])
        assert res.gap[0] == pytest.approx(1.0, abs=1e-8)
        np.testing.assert_allclose(sq2_boundary(a, res.gammas[0, 0]), [1, 0], atol=1e-6)
        np.testing.assert_allclose(sq2_boundary(b, res.gammas[1, 0]), [2, 0], atol=1e-6)

    def test_face_to_face_squares(self):
        gap = 0.4
        a = Superquadric2(0.5, 0.5, 0.2, center=(0, 0))
        b = Superquadric2(0.5, 0.5, 0.2, center=(1.0 + gap, 0))
        res = solve([a], [b])
        assert res.gap[0] == pytest.approx(sampled_gap(a, b), abs=1e-4)

    def test_overlapping_circles_signed(self):
        a = Superquadric2(1, 1, 1.0, center=(0, 0))
        b = Superquadric2(1, 1, 1.0, center=(1.5, 0))
        res = solve([a], [b])
        assert res.gap[0] == pytest.approx(-0.5, abs=1e-4)
        assert res.gap[0] == pytest.approx(sampled_gap(a, b), abs=1e-4)

    def test_symmetry(self, rng):
        side_a, side_b = zip(*(random_disjoint_pair(rng) for _ in range(20)))
        g1 = solve(side_a, side_b).gap
        g2 = solve(side_b, side_a).gap
        assert g1 == pytest.approx(g2, abs=1e-8)

    def test_oracle_equivalence(self, rng):
        pairs = [random_disjoint_pair(rng) for _ in range(30)]
        res = solve(*zip(*pairs))
        for (a, b), gap in zip(pairs, res.gap):
            oracle = sampled_gap(a, b)
            assert gap == pytest.approx(oracle, abs=max(1e-3, 0.005 * oracle))

    def test_warm_start(self):
        a = Superquadric2(1, 1, 1.0, center=(0, 0))
        b = Superquadric2(1, 1, 1.0, center=(3, 0))
        res = solve([a], [b], init=[[0.3], [math.pi - 0.3]])
        assert res.gap[0] == pytest.approx(1.0, abs=1e-6)

    def test_boxy_pairs_vs_oracle(self):
        """Pairs in the shipped boxy range (eps 0.3-0.4) meet criterion 1's bound,
        and no pair that ran to max_iter reports convergence."""
        rng = np.random.default_rng(404)
        pairs = []
        while len(pairs) < 60:
            ci = rng.uniform(-1.0, 1.0, 2)
            d = rng.uniform(0.8, 3.0)
            ang = rng.uniform(-math.pi, math.pi)
            cj = ci + d * np.array([math.cos(ang), math.sin(ang)])
            a, b = [Superquadric2(a1=rng.uniform(0.2, 0.8), a2=rng.uniform(0.2, 0.8),
                                  eps=rng.uniform(0.3, 0.4),
                                  angle=rng.uniform(-math.pi, math.pi), center=tuple(c))
                    for c in (ci, cj)]
            if sampled_gap(a, b, 600) > 0.02:
                pairs.append((a, b))
        res = solve(*zip(*pairs))
        for (a, b), gap in zip(pairs, res.gap):
            oracle = sampled_gap(a, b, 10_000)
            assert abs(gap - oracle) <= max(1e-3, 0.005 * abs(oracle))
        assert not np.any(res.converged & (res.iterations == 200))

    def test_overflowing_objective_raises(self):
        # f = |p_i - p_j|^2 overflows to inf and the Newton step to NaN, which no
        # halving of the step accepts; a finite pair in the same batch does not help
        far = Superquadric2(1, 1, 1.0, center=(1e300, 0))
        a = Superquadric2(1, 1, 1.0, center=(0, 0))
        b = Superquadric2(1, 1, 1.0, center=(3, 0))
        for side_i, side_j in (([far], [a]), ([a, far], [b, a])):
            with pytest.raises(GeometryError, match="not finite"):
                solve(side_i, side_j)

    def test_unconverged_flag(self):
        a = Superquadric2(1, 1, 1.0, center=(0, 0))
        b = Superquadric2(1, 1, 1.0, center=(3, 0))
        res = solve([a], [b], init=[[2.0], [0.5]], tol=1e-16, max_iter=1)
        assert not res.converged[0]
        assert res.iterations[0] == 1


def full_sampled_gap(sq_i, sq_j, n):
    """sampled_gap with every sample of each boundary queried against the other."""
    pi, pj = sq2_boundary_samples(sq_i, n), sq2_boundary_samples(sq_j, n)
    d_ij, d_ji = cKDTree(pj).query(pi)[0], cKDTree(pi).query(pj)[0]
    inside_ij = sq2_inside_outside(sq_j, pi) < 0.0
    inside_ji = sq2_inside_outside(sq_i, pj) < 0.0
    if inside_ij.any() or inside_ji.any():
        return -max([0.0] + [float(d[m].max()) for d, m in ((d_ij, inside_ij), (d_ji, inside_ji))
                             if m.any()])
    return float(d_ij.min())


class TestSampledGapOracle:
    def test_pruned_queries_equal_full_query(self, rng):
        disjoint = [random_disjoint_pair(rng) for _ in range(8)]
        penetrating = []
        while len(penetrating) < 8:
            a, b = random_convex_sq(rng, box=0.6), random_convex_sq(rng, box=0.6)
            if full_sampled_gap(a, b, 600) < 0.0:
                penetrating.append((a, b))
        for k, (a, b) in enumerate(disjoint + penetrating):
            n = 10_000 if k % 8 == 0 else 3000
            full = full_sampled_gap(a, b, n)
            assert (full > 0.0) == (k < len(disjoint))
            assert sampled_gap(a, b, n) == full


class TestBatching:
    """closest_pairs runs every pair on its own arithmetic: a batch of P pairs
    gives bit for bit the results of P single-pair calls."""

    @staticmethod
    def pairs(rng, n=40):
        # random layouts in a small box, so that some pairs overlap
        return [(random_convex_sq(rng, box=1.5), random_convex_sq(rng, box=1.5))
                for _ in range(n)]

    @pytest.mark.parametrize("case", ["cold", "warm", "capped"])
    def test_batch_equals_single_pairs(self, rng, case):
        pairs = self.pairs(rng)
        side_i, side_j = zip(*pairs)
        init = rng.uniform(-math.pi, math.pi, (2, len(pairs))) if case == "warm" else None
        kw = {"max_iter": 3} if case == "capped" else {}
        batch = solve(side_i, side_j, init=init, **kw)
        for k, (a, b) in enumerate(pairs):
            one = solve([a], [b], init=None if init is None else init[:, k:k + 1], **kw)
            assert np.array_equal(batch.gammas[:, k:k + 1], one.gammas)
            for name in ("gap", "converged", "iterations"):
                assert np.array_equal(getattr(batch, name)[k:k + 1], getattr(one, name))
        assert (batch.gap < 0.0).any() and (batch.gap > 0.0).any()
        if case == "capped":
            assert (~batch.converged).any() and (batch.iterations <= 3).all()

    def test_compacted_boxy_batch_equals_single_pairs(self, rng):
        # disjoint eps = 0.3 pairs: those facing each other across flat faces
        # outlast the rest by far, so most rounds carry settled pairs masked
        def box(center):
            return Superquadric2(a1=rng.uniform(0.2, 0.6), a2=rng.uniform(0.2, 0.6), eps=0.3,
                                 angle=rng.uniform(-math.pi, math.pi), center=tuple(center))

        pairs = []
        for _ in range(128):
            ci, ang = rng.uniform(-1.0, 1.0, 2), rng.uniform(-math.pi, math.pi)
            cj = ci + rng.uniform(1.8, 3.0) * np.array([math.cos(ang), math.sin(ang)])
            pairs.append((box(ci), box(cj)))
        side_i, side_j = zip(*pairs)
        batch = solve(side_i, side_j)
        for k, (a, b) in enumerate(pairs):
            one = solve([a], [b])
            assert np.array_equal(batch.gammas[:, k:k + 1], one.gammas)
            for name in ("gap", "converged", "iterations"):
                assert np.array_equal(getattr(batch, name)[k:k + 1], getattr(one, name))

    def test_gap_is_signed_proxy_distance(self, rng):
        pairs = self.pairs(rng)
        side_i, side_j = zip(*pairs)
        rows_i, rows_j = shape_rows(side_i), shape_rows(side_j)
        res = closest_pairs(rows_i, rows_j)
        pi = boundary_points(rows_i, res.gammas[0])
        pj = boundary_points(rows_j, res.gammas[1])
        assert np.array_equal(np.abs(res.gap), np.hypot(*(pi - pj)))
        inside = [sq2_inside_outside(a, pj[:, k]) < 0.0 or sq2_inside_outside(b, pi[:, k]) < 0.0
                  for k, (a, b) in enumerate(pairs)]
        assert np.array_equal(res.gap < 0.0, inside)


class TestBoundingRadius:
    """max(a1, a2) radial_excess(eps) bounds every boundary point's distance
    from the center, and no smaller radius does."""

    @settings(max_examples=60, deadline=None)
    @given(a1=st.floats(0.05, 2.0), a2=st.floats(0.05, 2.0),
           eps=st.floats(0.0, 2.0, exclude_min=True), angle=st.floats(-math.pi, math.pi))
    def test_circle_contains_shape_and_touches_it(self, a1, a2, eps, angle):
        center = (0.3, -0.7)
        radius = max(a1, a2) * geometry.radial_excess(eps)
        pts = sq2_boundary_samples(Superquadric2(a1, a2, eps, angle, center), 2000) - center
        assert np.hypot(pts[:, 0], pts[:, 1]).max() <= radius + 1e-12
        # attained on the diagonal of an equal-axes shape when eps < 1, at the
        # tip of the major axis when eps >= 1
        if eps < 1.0:
            a = max(a1, a2)
            tip = sq2_boundary(Superquadric2(a, a, eps, angle, center), math.pi / 4.0)
        else:
            tip = sq2_boundary(Superquadric2(a1, a2, eps, angle, center),
                               0.0 if a1 >= a2 else math.pi / 2.0)
        assert abs(math.hypot(*(tip - center)) - radius) <= 1e-12


class TestBoundaryConsistency:
    @given(st.floats(-math.pi, math.pi), st.floats(0.3, 1.8))
    @settings(max_examples=60)
    def test_proxy_on_boundary_2d(self, gamma, eps):
        sq = Superquadric2(1.3, 0.7, eps, angle=0.4, center=(1.0, -2.0))
        assert abs(sq2_inside_outside(sq, boundary(sq, gamma))) < 1e-9
        assert abs(inside_outside(sq, sq2_boundary(sq, gamma))) < 1e-9

    @given(st.floats(-math.pi / 2, math.pi / 2), st.floats(-math.pi, math.pi))
    @settings(max_examples=60)
    def test_proxy_on_boundary_3d(self, g1, g2):
        sq = Superquadric3(1.2, 0.8, 0.5, 0.8, 1.2, translation=np.array([0.3, 0.1, -0.2]))
        assert abs(bracket(sq, sq.boundary_point(g1, g2))) < 1e-9


class TestEllipseSpecialization:
    @given(st.floats(-2, 2), st.floats(-2, 2))
    @settings(max_examples=60)
    def test_eps_one_matches_analytic_ellipse(self, x, y):
        sq = Superquadric2(1.4, 0.6, 1.0)
        analytic = (x / 1.4) ** 2 + (y / 0.6) ** 2 - 1.0
        assert inside_outside(sq, [x, y]) == pytest.approx(analytic, abs=1e-12)


def test_wrap_angle():
    assert wrap_angle(math.pi) == pytest.approx(math.pi)
    assert wrap_angle(-math.pi) == pytest.approx(math.pi)
    assert wrap_angle(3 * math.pi) == pytest.approx(math.pi)
    assert wrap_angle(0.1) == pytest.approx(0.1)
