import math
import os

import numpy as np
import pytest

from amplan import control as ctl
from amplan import harness as hz
from amplan import planner as pl
from amplan.geometry import (TANH_SATURATION, StiffnessParams, Superquadric2, closest_pairs,
                             shape_rows, stiffness_terms, wrap_angle)
from amplan.voronoi import SolutionPath
from oracles import (central_diff_gradient, dense_pair_sums, part_poses, part_superquadrics,
                     scalar_target_pose, sq2_boundary, sq2_inside_outside)

SCENARIO_DIR = os.path.join(os.path.dirname(__file__), "..", "scenarios")


def far_obstacle():
    return [Superquadric2(a1=0.3, a2=0.3, eps=1.0, center=(50.0, 50.0))]


def fused(geom, obs, params, z, Gp, Go, u):
    """One fused pass with a fresh evaluator: (grad_z W, hess_z W, J_eef, W)."""
    ev = pl._Evaluator(geom, shape_rows(obs), params.stiffness)
    return pl._fused_derivatives(ev, params, np.asarray(z, dtype=float), Gp, Go, u)


def scalar_terms(geom, obs, z, Gp, Go, stiff):
    """Per-pair terms 0.5 k(F - d') |p - q|^2, one shape pair at a time, on
    the oracle's part poses."""
    parts = part_superquadrics(geom, z)
    pi, oi = pl.pair_index(geom.n_parts, len(obs))
    out = np.empty(pi.size)
    for q in range(pi.size):
        p = sq2_boundary(parts[pi[q]], Gp[q])
        o = sq2_boundary(obs[oi[q]], Go[q])
        F = sq2_inside_outside(obs[oi[q]], p)
        k = stiffness_terms(F - stiff.d_prime, stiff)[0]
        out[q] = 0.5 * k * float((p - o) @ (p - o))
    return out


def scalar_w(geom, obs, params, z, Gp, Go, u):
    """W recomputed without the planner's kernel or part poses: pair terms,
    target term and joint regulariser."""
    r = np.asarray(u, dtype=float) - part_poses(geom, z)[2]
    r[2] = wrap_angle(r[2])
    return (scalar_terms(geom, obs, z, Gp, Go, params.stiffness).sum()
            + 0.5 * r @ params.k_tgt @ r + 0.5 * params.k_reg * (z[3] ** 2 + z[4] ** 2))


def oracle_part_rows(geom, pi, Z):
    """Rows [cos, sin, center x, center y] of the parts pi at each sample of a
    stack Z, block by block, from the oracle's part poses."""
    rows = []
    for z in Z:
        centers, angles, _ = part_poses(geom, z)
        rows.append(np.vstack([np.cos(angles[pi]), np.sin(angles[pi]), centers[pi].T]))
    return np.hstack(rows)


def gaps(parts, obstacles):
    """Signed gaps of the shape pairs (parts[k], obstacles[k]) from one closest_pairs call."""
    return closest_pairs(shape_rows(parts), shape_rows(obstacles)).gap


class TestForwardKinematics:
    def test_straight_arm(self):
        geom = pl.VehicleGeometry()
        eef = geom.forward_kinematics_eef([0, 0, 0, 0, 0])
        np.testing.assert_allclose(eef, [0.65, 0.0, 0.0], atol=1e-12)

    def test_translated_rotated_base(self):
        geom = pl.VehicleGeometry()
        eef = geom.forward_kinematics_eef([1.0, 2.0, math.pi / 2, 0.0, 0.0])
        np.testing.assert_allclose(eef, [1.0, 2.65, math.pi / 2], atol=1e-12)

    def test_elbow_bend(self):
        geom = pl.VehicleGeometry()
        eef = geom.forward_kinematics_eef([0, 0, 0, math.pi / 2, -math.pi / 2])
        # shoulder points +y from the base offset, forearm folds back to +x
        np.testing.assert_allclose(eef, [0.15 + 0.25, 0.25, 0.0], atol=1e-12)

    def test_rotor_disk_positions(self):
        geom = pl.VehicleGeometry()
        parts, _ = pl.pair_rows(geom, shape_rows(far_obstacle()), np.zeros(5))
        np.testing.assert_allclose(parts[5:, 0], [geom.rotor_arm, 0.0], atol=1e-12)
        np.testing.assert_allclose(parts[5:, 3], [-geom.rotor_arm, 0.0], atol=1e-12)
        assert np.all(parts[3, :6] == 1.0) and np.all(parts[4, :6] == 0.0)

    def test_part_shapes_match_batched_poses(self, rng):
        # every place the pipeline writes the part rows agrees with the oracle's
        # per-part trigonometry: one z, a 32-sample stack, a tracker refresh and
        # the part side of the fused pass
        geom, params = pl.VehicleGeometry(), pl.PlannerParams()
        obs = [Superquadric2(a1=0.4, a2=0.3, eps=0.5, angle=0.3, center=(1.5, 0.2)),
               Superquadric2(a1=0.3, a2=0.3, eps=1.0, center=(-1.0, 1.0))]
        pi, _ = pl.pair_index(geom.n_parts, len(obs))
        P = pi.size
        Z = rng.uniform(-1.0, 1.0, size=(32, 5))

        def check(rows, Z):
            assert np.array_equal(rows[:3], np.tile(geom.part_axes[:, pi], len(Z)))
            np.testing.assert_allclose(rows[3:], oracle_part_rows(geom, pi, Z), rtol=0,
                                       atol=1e-14)

        check(pl.pair_rows(geom, shape_rows(obs), Z[0])[0], Z[:1])
        check(pl.pair_rows(geom, shape_rows(obs), Z)[0], Z)
        # the end effector, a stack of poses at once as in the trajectory's column
        eef = geom.forward_kinematics_eef(Z)
        assert np.array_equal(eef, [geom.forward_kinematics_eef(z) for z in Z])
        np.testing.assert_allclose(eef, [part_poses(geom, z)[2] for z in Z], rtol=0, atol=1e-14)
        tracker = ctl.ProxyTracker(geom, obs, 3.0)
        x, y, psi, t1, t3 = Z[0]
        tracker.refresh([x, y, 1.0, 0.0, 0.0, psi], [t1, 0.0, t3])
        check(tracker.rows[0], Z[:1])

        # the fused pass leaves the part rows posed at its z
        ev = pl._Evaluator(geom, shape_rows(obs), params.stiffness)
        G = np.zeros(P)
        pl._fused_derivatives(ev, params, Z[0], G, G, geom.forward_kinematics_eef(Z[0]))
        check(ev.rows[:, 0], Z[:1])


class TestPotential:
    def test_pair_terms_match_scalar_recomputation(self, rng):
        geom = pl.VehicleGeometry()
        obs = [Superquadric2(a1=0.4, a2=0.3, eps=0.5, angle=0.3, center=(1.5, 0.2)),
               Superquadric2(a1=0.3, a2=0.3, eps=1.0, center=(-1.0, 1.0))]
        params = pl.PlannerParams()
        for _ in range(5):
            z = rng.uniform(-0.5, 0.5, size=5)
            P = geom.n_parts * len(obs)
            Gp = rng.uniform(-math.pi, math.pi, size=P)
            Go = rng.uniform(-math.pi, math.pi, size=P)
            u = geom.forward_kinematics_eef(z) + rng.uniform(-0.3, 0.3, size=3)
            got = fused(geom, obs, params, z, Gp, Go, u)[3]
            want = scalar_w(geom, obs, params, z, Gp, Go, u)
            np.testing.assert_allclose(got, want, rtol=1e-12)

    def test_target_term_arithmetic(self):
        geom = pl.VehicleGeometry()
        params = pl.PlannerParams()
        z = np.zeros(5)
        P = geom.n_parts
        eef = geom.forward_kinematics_eef(z)
        args = (geom, far_obstacle(), params, z, np.zeros(P), np.zeros(P))
        base = scalar_w(*args, eef)
        w = scalar_w(*args, eef + np.array([0.1, 0.0, 0.0]))
        # 0.5 * 0.1^2 * 1600 on top of the (residual-free) proxy background
        assert w - base == pytest.approx(8.0, abs=1e-9)
        assert fused(*args, eef)[3] == pytest.approx(base, rel=1e-12)
        assert fused(*args, eef + np.array([0.1, 0.0, 0.0]))[3] == pytest.approx(w, rel=1e-12)

    def test_angle_residual_wraps(self):
        geom = pl.VehicleGeometry()
        params = pl.PlannerParams()
        z = np.zeros(5)
        P = geom.n_parts
        eef = geom.forward_kinematics_eef(z)
        args = (geom, far_obstacle(), params, z, np.zeros(P), np.zeros(P))
        base = scalar_w(*args, eef)
        w = scalar_w(*args, eef + np.array([0.0, 0.0, 2.0 * math.pi]))
        assert w - base == pytest.approx(0.0, abs=1e-9)
        assert fused(*args, eef + np.array([0.0, 0.0, 2.0 * math.pi]))[3] \
            == pytest.approx(base, rel=1e-12)


class TestDerivatives:
    def setup_case(self, rng):
        geom = pl.VehicleGeometry()
        obs = [Superquadric2(a1=0.4, a2=0.35, eps=0.8, center=(1.2, 0.4))]
        params = pl.PlannerParams()
        z = np.array([0.1, -0.05, 0.2, 0.3, -0.2])
        P = geom.n_parts * len(obs)
        Gp = rng.uniform(-math.pi, math.pi, size=P)
        Go = rng.uniform(-math.pi, math.pi, size=P)
        u = geom.forward_kinematics_eef(z) + np.array([0.2, 0.1, 0.1])
        return geom, obs, params, z, Gp, Go, u

    def stiff_case(self, rng):
        """Further inputs where the stiffness law and the obstacle curvature matter.

        Beside the obstacle of setup_case: a boxy one (eps 0.3, as in tree)
        placed so that the forearm proxy sits in the stiffness transition,
        F - d' = d0 / 2, where k' and k'' dominate the Hessian; and an eps 1.5
        one whose x-axis passes exactly through rotor 0's proxy (psi = 0 and
        gamma = 0 keep that proxy's y exact), where the curvature factor
        |u|^(2/eps - 2) of its inside-outside function is unbounded.
        """
        geom = pl.VehicleGeometry()
        params = pl.PlannerParams()
        st = params.stiffness
        z = np.array([0.1, -0.05, 0.0, 0.3, -0.2])
        n_obs = 3
        P = geom.n_parts * n_obs
        Gp = rng.uniform(-math.pi, math.pi, size=P)
        Go = rng.uniform(-math.pi, math.pi, size=P)
        Gp[0 * n_obs + 2] = 0.0
        parts = part_superquadrics(geom, z)
        p_link = sq2_boundary(parts[7], Gp[7 * n_obs + 1])
        p_rotor = sq2_boundary(parts[0], 0.0)
        a1, a2, eps, angle = 0.55, 0.5, 0.3, 0.3
        by = 0.4 * a2
        bx = a1 * (1.0 + st.d_prime + 0.5 * st.d0 - (by / a2) ** (2.0 / eps)) ** (eps / 2.0)
        c, s = math.cos(angle), math.sin(angle)
        center = p_link - np.array([[c, -s], [s, c]]) @ np.array([bx, by])
        obs = [Superquadric2(a1=0.4, a2=0.35, eps=0.8, center=(1.2, 0.4)),
               Superquadric2(a1=a1, a2=a2, eps=eps, angle=angle, center=center),
               Superquadric2(a1=0.3, a2=0.25, eps=1.5,
                             center=(p_rotor[0] - 1.3, p_rotor[1]))]
        u = geom.forward_kinematics_eef(z) + np.array([0.2, 0.1, 0.1])
        return geom, obs, params, z, Gp, Go, u

    @staticmethod
    def hessian_of_gradient(geom, obs, params, z, Gp, Go, u, h):
        return np.column_stack([
            (fused(geom, obs, params, z + e, Gp, Go, u)[0]
             - fused(geom, obs, params, z - e, Gp, Go, u)[0]) / (2.0 * h)
            for e in h * np.eye(5)])

    def test_configuration_gradient(self, rng):
        geom, obs, params, z, Gp, Go, u = self.setup_case(rng)
        gz, H, J, _ = fused(geom, obs, params, z, Gp, Go, u)
        oracle = central_diff_gradient(
            lambda zz: scalar_w(geom, obs, params, zz, Gp, Go, u), z, h=1e-5)
        np.testing.assert_allclose(gz, oracle, atol=1e-4)
        np.testing.assert_allclose(H, H.T, atol=1e-12)
        fd_H = self.hessian_of_gradient(geom, obs, params, z, Gp, Go, u, h=1e-6)
        assert np.linalg.norm(H - fd_H) <= 1e-6 * np.linalg.norm(fd_H)

        # in the stiffness transition: steps well below its width d0 = 1e-3,
        # and relative bounds, since the gradient reaches 1e6 there
        geom, obs, params, z, Gp, Go, u = self.stiff_case(rng)
        outputs = fused(geom, obs, params, z, Gp, Go, u)
        assert all(np.all(np.isfinite(a)) for a in outputs)
        gz, H, _, _ = outputs
        oracle = central_diff_gradient(
            lambda zz: scalar_w(geom, obs, params, zz, Gp, Go, u), z, h=3e-8)
        assert np.linalg.norm(gz - oracle) <= 1e-6 * np.linalg.norm(oracle)
        fd_H = self.hessian_of_gradient(geom, obs, params, z, Gp, Go, u, h=1e-8)
        assert np.linalg.norm(H - fd_H) <= 1e-6 * np.linalg.norm(fd_H)

    def test_eef_jacobian(self, rng):
        geom, obs, params, z, Gp, Go, u = self.setup_case(rng)
        J = fused(geom, obs, params, z, Gp, Go, u)[2]
        for k in range(5):
            e = np.zeros(5)
            e[k] = 1e-5
            d = (geom.forward_kinematics_eef(z + e) - geom.forward_kinematics_eef(z - e)) / 2e-5
            np.testing.assert_allclose(J[:, k], d, atol=1e-5)
        np.testing.assert_allclose(J[2], [0, 0, 1, 1, 1], atol=1e-9)


class TestPairTable:
    ANGLES = np.linspace(-math.pi, math.pi, 256, endpoint=False)

    @classmethod
    def sampled_distances(cls, geom, obstacles, z):
        """(P,) in pair_index order: the least distance from each pair's
        obstacle center to its part's boundary at ANGLES, each part posed by
        the oracle; a round part (the rotors) also gets the point facing the
        center, where the bound is tight up to rounding."""
        out = []
        for part in part_superquadrics(geom, z):
            for obs in obstacles:
                d = np.subtract(obs.center, part.center)
                gammas = cls.ANGLES
                if part.a1 == part.a2 and part.eps == 1.0:
                    gammas = np.append(gammas, math.atan2(d[1], d[0]) - part.angle)
                out.append(np.hypot(*(sq2_boundary(part, gammas) - obs.center).T).min())
        return np.array(out)

    def test_rho_below_the_distance_to_every_part_point(self, rng):
        # random vehicles and scenes, around the origin and near 1e3, where
        # rounding is largest; both center layouts
        n = 6
        for shift in (0.0, 1e3, -1e3):
            for _ in range(8):
                geom = pl.VehicleGeometry(blade_radius=rng.uniform(0.05, 0.13),
                                          link_halfwidth=rng.uniform(0.01, 0.05),
                                          link_eps=rng.uniform(0.2, 2.0),
                                          l1=rng.uniform(0.1, 0.4), l2=rng.uniform(0.1, 0.4))
                obstacles = [Superquadric2(rng.uniform(0.1, 0.6), rng.uniform(0.1, 0.6),
                                           rng.choice([0.3, 1.0, 1.7]), rng.uniform(-3.0, 3.0),
                                           tuple(shift + rng.uniform(-1.5, 1.5, 2)))
                             for _ in range(3)]
                table = pl.PairTable(geom, shape_rows(obstacles))
                Z = np.column_stack([shift + rng.uniform(-1.0, 1.0, (n, 2)),
                                     rng.uniform(-math.pi, math.pi, (n, 3))])
                parts = np.vstack([np.tile(geom.part_axes, n), np.empty((4, geom.n_parts * n))])
                pl.set_part_poses(parts, geom, np.arange(geom.n_parts), Z)
                centers = parts[5:].reshape(2, n, geom.n_parts, 1)
                stacked = table.rho(centers)
                assert stacked.shape == (n, table.pi.size)
                for k, z in enumerate(Z):
                    one = table.rho(centers[:, k])
                    assert one.shape == (table.pi.size,)
                    dist = self.sampled_distances(geom, obstacles, z)
                    assert np.all(one <= dist) and np.all(stacked[k] <= dist)


class TestReach:
    ANGLES = np.linspace(-math.pi, math.pi, 720, endpoint=False)

    @classmethod
    def far_terms(cls, geom, obs, ev, z):
        """Stiffness terms of every pair out of reach at z, each at ANGLES on
        the oracle's part shape, and the number of such pairs."""
        pl.set_part_poses(ev.rows[:, 0], geom, ev.pi, z)
        far = np.setdiff1d(np.arange(ev.P), ev.within_reach())
        parts = part_superquadrics(geom, z)
        _, oi = pl.pair_index(geom.n_parts, len(obs))
        F = np.array([sq2_inside_outside(obs[oi[q]], sq2_boundary(parts[ev.pi[q]], cls.ANGLES))
                      for q in far]).reshape(-1)
        return stiffness_terms(F - ev.stiff.d_prime, ev.stiff), far.size

    def test_pairs_out_of_reach_have_k_min_at_every_angle(self, rng):
        # out of reach, a pair's term is exactly 0.5 k_min |p - q|^2 with
        # k' = k'' = 0 wherever its part proxy sits, so holding its angles
        # holds no stiffness: on stiff_case's obstacles (boxy, in the
        # stiffness transition, on an eps 1.5 axis) at its pose and at
        # random poses among them
        geom = pl.VehicleGeometry()
        obs = TestDerivatives().stiff_case(rng)[1]
        st = pl.PlannerParams().stiffness
        ev = pl._Evaluator(geom, shape_rows(obs), st)
        z_case = np.array([0.1, -0.05, 0.0, 0.3, -0.2])
        poses = [z_case] + [np.concatenate([rng.uniform(-1.0, 1.5, 2), rng.uniform(-math.pi,
                                                                                  math.pi, 3)])
                            for _ in range(40)]
        checked = near = 0
        for z in poses:
            (k0, k1, k2), n_far = self.far_terms(geom, obs, ev, z)
            assert np.all(k0 == st.k_min) and np.all(k1 == 0.0) and np.all(k2 == 0.0)
            checked += n_far
            near += ev.P - n_far
        assert checked >= 500 and near >= 50

    def test_reach_is_tight(self):
        # a circle just beyond rotor 3's reach: exactly k_min at the part's
        # nearest proxy angle; 10 nm nearer, within reach and above k_min
        geom = pl.VehicleGeometry()
        st = pl.PlannerParams().stiffness
        r = 0.3
        reach = r * math.sqrt(1.0 + st.d_prime + TANH_SATURATION * st.d0)
        edge = -geom.rotor_arm - geom.blade_radius
        for shift, within in ((1e-9, False), (-1e-8, True)):
            obs = [Superquadric2(a1=r, a2=r, eps=1.0, center=(edge - reach - shift, 0.0))]
            ev = pl._Evaluator(geom, shape_rows(obs), st)
            (k0, _, _), _ = self.far_terms(geom, obs, ev, np.zeros(5))
            assert (3 in ev.within_reach()) is within
            F = sq2_inside_outside(obs[0], sq2_boundary(part_superquadrics(geom, np.zeros(5))[3],
                                                        math.pi))
            k = stiffness_terms(F - st.d_prime, st)[0]
            assert bool(k > st.k_min) is within
            assert np.all(k0 == st.k_min)


class TestFusedPassShortcuts:
    """_pair_sums evaluates the contact terms on the loaded pairs alone and
    each proxy curve only when its angles change: its sums are the dense
    form's (oracles.dense_pair_sums) bit for bit."""

    @staticmethod
    def recording_stiffness(monkeypatch):
        """Count, per planner call of stiffness_terms, the pairs with k' or k'' non-zero."""
        loaded, terms = [], pl.stiffness_terms

        def record(d, st):
            k = terms(d, st)
            loaded.append(np.count_nonzero((k[1] != 0.0) | (k[2] != 0.0)))
            return k

        monkeypatch.setattr(pl, "stiffness_terms", record)
        return loaded

    @staticmethod
    def assert_dense(ev, z, Gp, Go):
        """_pair_sums on ev equals the dense form on a fresh evaluator of the same scene."""
        dense_ev = pl._Evaluator(ev.geom, ev.rows[:, 1, :ev.P // ev.geom.n_parts], ev.stiff)
        jf = np.array(ev.geom.joint_frames(*z.tolist()))
        out = pl._pair_sums(ev, z, Gp, Go, jf)
        for a, b in zip(out, dense_pair_sums(dense_ev, z, Gp, Go, jf)):
            assert np.array_equal(a, b)
        return out

    def test_far_poses(self, rng, monkeypatch):
        loaded = self.recording_stiffness(monkeypatch)
        geom, st = pl.VehicleGeometry(), StiffnessParams()
        for _ in range(50):
            # centers 3-6 m out on each axis, beyond the vehicle's reach
            centers = rng.choice([-1.0, 1.0], (3, 2)) * rng.uniform(3.0, 6.0, (3, 2))
            obs = [Superquadric2(a1=rng.uniform(0.1, 1.0), a2=rng.uniform(0.1, 1.0),
                                 eps=rng.uniform(0.2, 2.0), angle=rng.uniform(-3.0, 3.0),
                                 center=tuple(c)) for c in centers]
            ev = pl._Evaluator(geom, shape_rows(obs), st)
            for _ in range(4):
                Gp, Go = rng.uniform(-math.pi, math.pi, size=(2, ev.P))
                self.assert_dense(ev, rng.uniform(-1.0, 1.0, 5), Gp, Go)
        assert len(loaded) == 200 and not any(loaded)

    def test_parts_just_outside_the_inflated_boundary(self, rng, monkeypatch):
        # one part's proxy outside a round obstacle's inflated boundary, its
        # stiffness argument g = F - d' 0 to 19 mm (19 d0): in the stiffness
        # transition, where k' and k'' are non-zero short of tanh saturation
        loaded = self.recording_stiffness(monkeypatch)
        geom, st = pl.VehicleGeometry(), StiffnessParams()
        for _ in range(200):
            z = rng.uniform(-1.0, 1.0, 5)
            Gp, Go = rng.uniform(-math.pi, math.pi, size=(2, geom.n_parts))
            j = rng.integers(geom.n_parts)
            p = sq2_boundary(part_superquadrics(geom, z)[j], Gp[j])
            a, phi = rng.uniform(0.2, 1.0), rng.uniform(-math.pi, math.pi)
            r = a * math.sqrt(1.0 + st.d_prime + rng.uniform(0.0, 19.0 * st.d0))
            obs = [Superquadric2(a1=a, a2=a, eps=1.0,
                                 center=tuple(p + r * np.array([math.cos(phi), math.sin(phi)])))]
            self.assert_dense(pl._Evaluator(geom, shape_rows(obs), st), z, Gp, Go)
        assert len(loaded) == 200 and sum(map(bool, loaded)) >= 150

    def test_grazing_route(self, monkeypatch):
        # every pass of the grazing-route plan (TestContinuation), whose arm tip
        # slides 3 mm above an eps 0.3 face, with the angles re-solved in place
        loaded = self.recording_stiffness(monkeypatch)
        geom = pl.VehicleGeometry()
        box = Superquadric2(a1=0.6, a2=0.3, eps=0.3, center=(1.6, -0.6))
        params = pl.PlannerParams(n_s=200, stiffness=StiffnessParams(d0=0.02, k_max=100.0),
                                  k_reg=50.0)
        dense_ev = pl._Evaluator(geom, shape_rows([box]), params.stiffness)
        pair_sums, passes = pl._pair_sums, []

        def checked(ev, z, Gp, Go, jf):
            passes.append(1)
            out = pair_sums(ev, z, Gp, Go, jf)
            for a, b in zip(out, dense_pair_sums(dense_ev, z, Gp, Go, jf)):
                assert np.array_equal(a, b)
            return out

        monkeypatch.setattr(pl, "_pair_sums", checked)
        down = -math.pi / 2
        traj = pl.integrate_em(geom, [box], np.array([1.3, 0.55, down, 0.0, 0.0]),
                               [np.array([1.3, -0.297, down]), np.array([1.9, -0.297, down]),
                                np.array([1.9, 0.2, down])], params)
        assert len(passes) >= traj.evals and sum(map(bool, loaded)) >= 100
        assert np.abs(traj.gammas - traj.gammas[0]).max() > 1e-2

    def test_changed_angles_recompute_their_curve(self, rng):
        # the same z with new part angles, then new obstacle angles, each
        # written in place as integrate_em does: the cached evaluator agrees
        # with a fresh one and with the dense form
        geom, st = pl.VehicleGeometry(), StiffnessParams(d0=0.05)
        obs = [Superquadric2(a1=0.4, a2=0.3, eps=0.5, angle=0.3, center=(0.9, 0.2)),
               Superquadric2(a1=0.3, a2=0.3, eps=1.0, center=(-0.8, 0.6))]
        ev = pl._Evaluator(geom, shape_rows(obs), st)
        G = rng.uniform(-math.pi, math.pi, size=(2, ev.P))
        for _ in range(20):
            z = rng.uniform(-0.3, 0.3, 5)
            first = self.assert_dense(ev, z, G[0], G[1])
            for side in (0, 1):
                G[side, rng.integers(ev.P)] += rng.uniform(0.1, 1.0)
                out = self.assert_dense(ev, z, G[0], G[1])
                fresh = self.assert_dense(pl._Evaluator(geom, shape_rows(obs), st), z, G[0], G[1])
                for a, b in zip(out, fresh):
                    assert np.array_equal(a, b)
                assert not np.array_equal(out[0], first[0])


class TestAttractors:
    def test_normal_flip_toward_heading(self):
        path = SolutionPath(found=True, nodes=np.array([[0.0, 0.0], [1.0, 0.0]]),
                            edge_normals=np.array([math.pi]), cost=1.0)
        attrs = pl.attractors_from_path(path, start_heading=0.0, goal_pose=(2.0, 0.0, 0.1))
        assert len(attrs) == 3
        assert attrs[0][2] == pytest.approx(0.0, abs=1e-12)
        assert attrs[1][2] == pytest.approx(0.0, abs=1e-12)
        assert attrs[2][2] == pytest.approx(0.1, abs=1e-12)

    def test_angles_stay_continuous(self):
        path = SolutionPath(found=True,
                            nodes=np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 1.0]]),
                            edge_normals=np.array([3.0, -3.0]), cost=2.0)
        attrs = pl.attractors_from_path(path, start_heading=2.8, goal_pose=(3.0, 1.0, -3.1))
        angles = [a[2] for a in attrs]
        for a, b in zip(angles, angles[1:]):
            assert abs(b - a) < math.pi / 2 + 1e-9

    def test_not_found_raises(self):
        path = SolutionPath(found=False, nodes=np.zeros((0, 2)), edge_normals=np.zeros(0))
        with pytest.raises(pl.PlannerError):
            pl.attractors_from_path(path, 0.0, (0, 0, 0))


class TestIntegration:
    def test_free_space_convergence(self):
        geom = pl.VehicleGeometry()
        params = pl.PlannerParams(n_s=200)
        goal = np.array([1.5, 0.5, 0.5])
        traj = pl.integrate_em(geom, far_obstacle(), np.zeros(5), [goal], params)
        np.testing.assert_allclose(traj.eef[-1][:2], goal[:2], atol=1e-3)
        assert abs(traj.eef[-1][2] - goal[2]) < 1e-2

    def test_step_doubling_consistency(self):
        geom = pl.VehicleGeometry()
        goal = np.array([1.0, 0.3, 0.2])
        t1 = pl.integrate_em(geom, far_obstacle(), np.zeros(5), [goal],
                             pl.PlannerParams(n_s=100))
        t2 = pl.integrate_em(geom, far_obstacle(), np.zeros(5), [goal],
                             pl.PlannerParams(n_s=200))
        assert np.abs(t1.z[-1] - t2.z[-1]).max() < 1e-4

    def test_prerelax_line_search(self):
        # a bent arm away from equilibrium: the joint regulariser straightens it
        # through line-searched Newton steps while the target term holds the end
        # effector where it started
        geom = pl.VehicleGeometry()
        obs = far_obstacle()
        params = pl.PlannerParams()
        ev = pl._Evaluator(geom, shape_rows(obs), params.stiffness)
        z0 = np.array([0.0, 0.0, 0.0, 0.4, -0.3])
        Gp0, Go0 = pl._init_gammas(geom, shape_rows(obs), z0)
        u0 = geom.forward_kinematics_eef(z0)
        assert np.linalg.norm(pl._fused_derivatives(ev, params, z0, Gp0, Go0, u0)[0]) \
            >= params.prerelax_tol
        z = pl._prerelax(ev, params, z0, Gp0, Go0, u0)
        assert np.linalg.norm(pl._fused_derivatives(ev, params, z, Gp0, Go0, u0)[0]) \
            < params.prerelax_tol
        assert scalar_w(geom, obs, params, z, Gp0, Go0, u0) \
            < scalar_w(geom, obs, params, z0, Gp0, Go0, u0)
        assert np.abs(z[3:]).max() < 1e-3
        np.testing.assert_allclose(geom.forward_kinematics_eef(z), u0, atol=1e-3)

    def test_singular_hessian_raises(self):
        geom = pl.VehicleGeometry()
        params = pl.PlannerParams(k_tgt=np.zeros((3, 3)), k_reg=1.0, n_s=10)
        with pytest.raises(pl.PlannerError):
            pl.integrate_em(geom, far_obstacle(), np.zeros(5), [np.array([1.0, 0.0, 0.0])],
                            params)

    def test_cleared_route_stays_clear(self):
        # attractors detour above the obstacle, mimicking a clearance-path route
        geom = pl.VehicleGeometry()
        shape = Superquadric2(a1=0.35, a2=0.35, eps=1.0, center=(1.6, 0.0))
        obs = [shape]
        params = pl.PlannerParams(n_s=240)
        attrs = [np.array([1.6, 1.4, 0.0]), np.array([3.3, 1.4, 0.0]),
                 np.array([3.3, 0.2, -0.5])]
        traj = pl.integrate_em(geom, obs, np.zeros(5), attrs, params)
        for k in range(0, len(traj.z), 8):
            assert np.all(gaps(part_superquadrics(geom, traj.z[k]), [shape] * geom.n_parts) > 0.0)
        np.testing.assert_allclose(traj.eef[-1][:2], [3.3, 0.2], atol=0.05)

    def test_slow_approach_stops_short_of_face(self):
        # goal pose 0.05 outside the obstacle face: planner reaches it cleanly
        geom = pl.VehicleGeometry()
        shape = Superquadric2(a1=0.35, a2=0.35, eps=1.0, center=(1.6, 0.0))
        obs = [shape]
        traj = pl.integrate_em(geom, obs, np.zeros(5), [np.array([1.2, 0.0, 0.0])],
                               pl.PlannerParams(n_s=200))
        np.testing.assert_allclose(traj.eef[-1], [1.2, 0.0, 0.0], atol=1e-3)
        gap = gaps(part_superquadrics(geom, traj.z[-1]), [shape] * geom.n_parts).min()
        assert gap == pytest.approx(0.05, abs=5e-3)

    def test_determinism(self):
        geom = pl.VehicleGeometry()
        goal = np.array([1.0, 0.4, 0.0])
        a = pl.integrate_em(geom, far_obstacle(), np.zeros(5), [goal],
                            pl.PlannerParams(n_s=64))
        b = pl.integrate_em(geom, far_obstacle(), np.zeros(5), [goal],
                            pl.PlannerParams(n_s=64))
        assert np.array_equal(a.z, b.z)
        assert np.array_equal(a.gammas, b.gammas)


    def test_no_pairs_skips_pair_kernels(self, monkeypatch, rng):
        # with no obstacles the fused pass evaluates no proxy, and its outputs,
        # the plan and its recorded residuals are bit for bit those of running
        # the pair kernels on the empty pair arrays, as the fused pass once did
        geom, params = pl.VehicleGeometry(), pl.PlannerParams(n_s=100)
        goal = np.array([2.0, 0.5, 0.3])

        def run():
            ev = pl._Evaluator(geom, shape_rows([]), params.stiffness)
            out = list(pl._fused_derivatives(ev, params, rng.uniform(-1.0, 1.0, 5),
                                             np.zeros(0), np.zeros(0),
                                             rng.uniform(-1.0, 1.0, 3)))
            traj = pl.integrate_em(geom, [], np.zeros(5), [goal], params)
            return out + [traj.z, traj.eef, traj.u, traj.gammas, np.array(traj.evals),
                          traj.residuals]

        calls = []
        boundary = pl.boundary_points
        monkeypatch.setattr(pl, "boundary_points",
                            lambda *a, **kw: calls.append(1) or boundary(*a, **kw))
        state = rng.bit_generator.state
        skipped = run()
        assert not calls

        class TruthyZero(int):
            def __bool__(self):
                return True

        class PairKernelsOnNoPairs(pl._Evaluator):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                self.P = TruthyZero(self.P)

        monkeypatch.setattr(pl, "_Evaluator", PairKernelsOnNoPairs)
        rng.bit_generator.state = state
        kernels = run()
        assert calls
        assert len(skipped) == len(kernels) == 10
        for a, b in zip(skipped, kernels):
            assert a.shape == b.shape and a.tobytes() == b.tobytes()


def pair_stiffness(geom, obs, traj, stiff):
    """Stiffness k(F(p) - d') of every pair at every stored sample, (N+1, P),
    one shape pair at a time."""
    P = traj.gammas.shape[1] // 2
    pi, oi = pl.pair_index(geom.n_parts, len(obs))
    out = np.empty((len(traj.s), P))
    for k, (z, g) in enumerate(zip(traj.z, traj.gammas)):
        parts = part_superquadrics(geom, z)
        for q in range(P):
            F = sq2_inside_outside(obs[oi[q]], sq2_boundary(parts[pi[q]], g[q]))
            out[k, q] = stiffness_terms(F - stiff.d_prime, stiff)[0]
    return out


class TestContinuation:
    @pytest.fixture(scope="class")
    def shipped_plans(self):
        """(scenario, mode) -> (scenario, PlanResult, fused calls made while
        planning: pre-relaxation and continuation)."""
        fused, calls = pl._fused_derivatives, []

        def counting(*args):
            calls.append(1)
            return fused(*args)

        out = {}
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(pl, "_fused_derivatives", counting)
            for name in ("tree", "pillar"):
                s = hz.load_scenario(os.path.join(SCENARIO_DIR, f"{name}.yaml"))
                for mode in ("sq", "ellipse"):
                    del calls[:]
                    pr = hz.plan(s, mode)
                    out[(name, mode)] = (s, pr, sum(calls))
        return out

    def test_shipped_samples_sit_on_the_manifold(self, shipped_plans):
        for s, pr, _ in shipped_plans.values():
            assert pr.grad_norms[1:].max() < s.planner.prerelax_tol

    def test_shipped_plans_take_at_most_800_evaluations(self, shipped_plans):
        for s, pr, calls in shipped_plans.values():
            assert pr.traj.evals <= calls <= 800
            assert 1 <= pr.traj.max_corrector <= pl.CORRECTOR_MAX_ITER

    def test_corrector_cap_raises(self, monkeypatch):
        geom = pl.VehicleGeometry()
        goal = np.array([1.5, 0.5, 0.5])
        params = pl.PlannerParams(n_s=50)
        traj = pl.integrate_em(geom, far_obstacle(), np.zeros(5), [goal], params)
        assert traj.max_corrector >= 1
        monkeypatch.setattr(pl, "CORRECTOR_MAX_ITER", 0)
        with pytest.raises(pl.PlannerError, match="corrector stalled"):
            pl.integrate_em(geom, far_obstacle(), np.zeros(5), [goal], params)

    def test_grazing_route_moves_proxies(self):
        # the arm points down at the flat top face of an eps 0.3 box and its tip
        # slides along the face 3 mm above it, inside the stiffness transition
        # of a softened law; k_reg stiffens the self-motion the contact loads
        geom = pl.VehicleGeometry()
        box = Superquadric2(a1=0.6, a2=0.3, eps=0.3, center=(1.6, -0.6))
        down = -math.pi / 2
        z0 = np.array([1.3, 0.55, down, 0.0, 0.0])
        attrs = [np.array([1.3, -0.297, down]), np.array([1.9, -0.297, down]),
                 np.array([1.9, 0.2, down])]
        stiff = StiffnessParams(d0=0.02, k_max=100.0)
        traj, double = (pl.integrate_em(geom, [box], z0, attrs,
                                        pl.PlannerParams(n_s=n, stiffness=stiff, k_reg=50.0))
                        for n in (200, 400))
        assert np.all(np.isfinite(traj.z)) and np.all(np.isfinite(traj.gammas))
        assert pair_stiffness(geom, [box], traj, stiff).max() > 1.0
        assert np.abs(traj.gammas - traj.gammas[0]).max() > 1e-2
        gap = closest_pairs(*pl.pair_rows(geom, shape_rows([box]), traj.z)).gap
        assert gap.min() > 0.0
        assert np.abs(double.z[-1] - traj.z[-1]).max() < 1e-4

    def test_grazing_route_proxies_are_closest_pairs(self):
        # on the grazing route, the angles each sample is accepted with are,
        # for every pair within reach at the previous sample, that pose's
        # closest points (criterion 1's tolerance: the cold solve itself stops
        # short on the eps 0.3 face), and every other pair's previous angles;
        # its recorded residual is |dW/dz| at them, bit for bit
        geom = pl.VehicleGeometry()
        box = Superquadric2(a1=0.6, a2=0.3, eps=0.3, center=(1.6, -0.6))
        down = -math.pi / 2
        attrs = [np.array([1.3, -0.297, down]), np.array([1.9, -0.297, down]),
                 np.array([1.9, 0.2, down])]
        params = pl.PlannerParams(n_s=200, stiffness=StiffnessParams(d0=0.02, k_max=100.0),
                                  k_reg=50.0)
        traj = pl.integrate_em(geom, [box], np.array([1.3, 0.55, down, 0.0, 0.0]), attrs,
                               params)
        rows = shape_rows([box])
        ev = pl._Evaluator(geom, rows, params.stiffness)
        P = ev.P
        cold = closest_pairs(*pl.pair_rows(geom, rows, traj.z[:-1])).gap.reshape(-1, P)
        checked = 0
        for k in range(1, len(traj.s)):
            z, g = traj.z[k - 1], traj.gammas[k]
            pl.set_part_poses(ev.rows[:, 0], geom, ev.pi, z)
            near = ev.within_reach()
            held = np.setdiff1d(np.arange(P), near)
            assert np.array_equal(g[held], traj.gammas[k - 1, held])
            assert np.array_equal(g[P + held], traj.gammas[k - 1, P + held])
            parts = part_superquadrics(geom, z)
            for q, gap in zip(near, cold[k - 1, near]):
                d = sq2_boundary(parts[ev.pi[q]], g[q]) - sq2_boundary(box, g[P + q])
                assert abs(math.hypot(*d) - gap) <= max(1e-3, 0.005 * abs(gap))
            checked += near.size
        assert checked >= 400
        fresh = [np.linalg.norm(pl._fused_derivatives(ev, params, traj.z[k], traj.gammas[k, :P],
                                                      traj.gammas[k, P:], traj.u[k])[0])
                 for k in range(len(traj.s))]
        assert np.array_equal(traj.residuals, fresh)


class TestTargetPose:
    def traj(self):
        geom = pl.VehicleGeometry()
        return pl.integrate_em(geom, far_obstacle(), np.zeros(5),
                               [np.array([1.0, 0.0, 0.0])], pl.PlannerParams(n_s=50))

    def test_endpoints_and_clamping(self):
        traj = self.traj()
        q0, th0 = pl.target_pose(traj, 0.0, 30.0, 1.2)
        np.testing.assert_allclose(q0[:2], traj.z[0][:2], atol=1e-12)
        assert q0[2] == 1.2
        np.testing.assert_allclose(q0[3:5], [0.0, 0.0], atol=1e-12)
        q1, th1 = pl.target_pose(traj, 99.0, 30.0, 1.2)
        np.testing.assert_allclose(q1[:2], traj.z[-1][:2], atol=1e-12)
        np.testing.assert_allclose(th1, [traj.z[-1][3], 0.0, traj.z[-1][4]], atol=1e-12)

    def test_interpolation_midway(self):
        traj = self.traj()
        qa, _ = pl.target_pose(traj, 14.999, 30.0, 1.0)
        qb, _ = pl.target_pose(traj, 15.001, 30.0, 1.0)
        assert np.abs(qa - qb).max() < 1e-3

    def test_bad_duration(self):
        with pytest.raises(pl.PlannerError):
            pl.target_pose(self.traj(), 1.0, 0.0, 1.0)

    def test_batched_times_match_the_scalar_form(self):
        # every tick time of a mission, from before the settle time to past
        # the end, in one call: bit for bit the per-time float form
        traj = self.traj()
        settle, duration, dt = 4.0, 20.0, 0.005
        t = np.arange(int(round((settle + duration + 2.0) / dt))) * dt - settle
        on_sample = np.isin(t / duration, traj.s)
        assert (t < 0.0).any() and (t > duration).any() and on_sample.sum() >= 10
        q_t, theta_t = pl.target_pose(traj, t, duration, 1.2)
        assert q_t.shape == (t.size, 6) and theta_t.shape == (t.size, 3)
        for k in range(t.size):
            q_ref, theta_ref = scalar_target_pose(traj, t[k], duration, 1.2)
            assert np.array_equal(q_t[k], q_ref) and np.array_equal(theta_t[k], theta_ref)
