import dataclasses
import math
import os

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from amplan import control as ctl
from amplan import dynamics as dyn
from amplan import harness as hz
from amplan.geometry import Superquadric2, closest_pairs, shape_rows
from amplan.planner import VehicleGeometry, pair_index, pair_rows
from amplan.qp import MAX_ROWS, QpDimensionError, QpProblem, solve

from oracles import (array_outer_loop, array_thrust, array_thrust_limit_rows, extrude,
                     hover_thrust, part_superquadrics, product_rotation, qp_enumeration,
                     stacked_rk4_dob_update)

SCENARIO_DIR = os.path.join(os.path.dirname(__file__), "..", "scenarios")


def random_state(rng):
    q = np.concatenate([rng.uniform(-2, 2, size=3),
                        rng.uniform(-0.4, 0.4, size=2),
                        rng.uniform(-math.pi, math.pi, size=1)])
    qdot = rng.normal(scale=0.5, size=6)
    theta = rng.uniform(-1.0, 1.0, size=3)
    thetadot = rng.normal(scale=0.3, size=3)
    return q, qdot, theta, thetadot


class TestGainSet:
    def test_frozen_caches_cannot_go_stale(self):
        # assigning a weight used to leave the QP on the old one; replace
        # derives every cache from the new gains
        g = ctl.GainSet()
        with pytest.raises(dataclasses.FrozenInstanceError):
            g.q_qdot = 100.0 * np.eye(6)
        assert g.outer_qp.H[0, 0] == 2.0
        h = dataclasses.replace(g, q_qdot=100.0 * np.eye(6), a0=0.5, gamma_theta=2.0 * np.eye(3))
        fresh = ctl.GainSet(q_qdot=100.0 * np.eye(6), a0=0.5, gamma_theta=2.0 * np.eye(3))
        assert h.outer_qp.H[0, 0] == 200.0 and h.outer_qp is not g.outer_qp
        assert np.array_equal(h.outer_qp.H, fresh.outer_qp.H)
        assert np.array_equal(h.outer_qp.Linv, fresh.outer_qp.Linv)
        assert h.dob_factors == fresh.dob_factors != g.dob_factors
        for a, b in zip(h.outer_factors, fresh.outer_factors):
            assert np.array_equal(a, b)
        # the derived caches of the new set are fresh and read-only too
        for a in (h.outer_qp.H, h.outer_qp.Linv, *h.outer_factors):
            assert not a.flags.writeable
            assert not any(np.shares_memory(a, b) for b in
                           (g.outer_qp.H, g.outer_qp.Linv, *g.outer_factors))

    def test_derived_caches_are_read_only(self):
        # an in-place write into H used to reach every tick's QP while the
        # held factor still inverted the old H
        g = ctl.GainSet()
        for a in (g.outer_qp.H, g.outer_qp.Linv, *g.outer_factors):
            with pytest.raises(ValueError, match="read-only"):
                a[0, 0] = 100.0
        assert all(type(f) is tuple for f in g.dob_factors)
        with pytest.raises(TypeError):
            g.dob_factors[0][0] = 100.0
        assert g.outer_qp.H[0, 0] == 2.0
        assert g.outer_qp.with_rows(np.zeros(9), np.zeros((0, 9)), np.zeros(0)).H[0, 0] == 2.0

    def test_gains_are_read_only_copies(self):
        # an in-place write used to leave the QP on the old weight
        q = np.diag([1.0, 1.0, 1.0, 3.0, 3.0, 3.0])
        g = ctl.GainSet(q_qdot=q)
        for f in dataclasses.fields(g):
            with pytest.raises(ValueError, match="read-only"):
                getattr(g, f.name)[0] = 100.0
        q[0, 0] = 100.0             # the caller's array stays writable, and apart
        assert g.q_qdot[0, 0] == 1.0 and g.outer_qp.H[0, 0] == 2.0

    def test_defaults_accepted(self):
        g = ctl.GainSet()
        np.testing.assert_allclose(g.a0, np.ones(6))
        np.testing.assert_allclose(g.a1, 2.0 * np.ones(6))
        np.testing.assert_allclose(g.eps, 0.95 * np.ones(6))

    def test_envelope_violation_rejected(self):
        # a0 / a1^2 = 1 is outside the stable envelope
        with pytest.raises(ctl.GainError):
            ctl.GainSet(a0=1.0, a1=1.0)

    def test_nonpositive_rejected(self):
        with pytest.raises(ctl.GainError):
            ctl.GainSet(a0=0.0)
        with pytest.raises(ctl.GainError):
            ctl.GainSet(a1=-2.0)

    def test_eps_bounds(self):
        with pytest.raises(ctl.GainError):
            ctl.GainSet(eps=1.0)
        with pytest.raises(ctl.GainError):
            ctl.GainSet(eps=0.0)

    def test_matrix_forms(self):
        g = ctl.GainSet(a0=np.eye(6), a1=2.0 * np.eye(6), eps=0.95 * np.eye(6))
        np.testing.assert_allclose(g.a0, np.ones(6))
        with pytest.raises(ctl.GainError):
            ctl.GainSet(a0=np.ones((6, 6)))

    def test_indefinite_weight_rejected(self):
        with pytest.raises(ctl.GainError):
            ctl.GainSet(kp=np.zeros((6, 6)))


def nominal(p, q, qdot):
    """The controller's nominal model terms at (q, qdot)."""
    return dyn.model_terms(np.asarray(q)[3:], np.asarray(qdot)[3:], p).control


def plant_terms(p, q, qdot):
    """The plant's true model terms at (q, qdot)."""
    return dyn.model_terms(np.asarray(q)[3:], np.asarray(qdot)[3:], p).plant


class TestDob:
    def test_factors_are_the_gains_per_channel(self):
        g = ctl.GainSet(a0=np.arange(1.0, 7.0), a1=np.full(6, 4.0), eps=np.linspace(0.5, 0.9, 6))
        a0e2, a1e1 = g.dob_factors
        assert all(type(v) is float for v in a0e2 + a1e1)
        assert np.array_equal(a0e2, g.a0 / g.eps ** 2) and np.array_equal(a1e1, g.a1 / g.eps)

    def test_initial_estimate_is_model_bias(self):
        p = dyn.ModelParams()
        g = ctl.GainSet()
        q = np.array([0.0, 0.0, 1.0, 0.0, 0.0, 0.0])
        state = ctl.DobState.initialize(q)
        _, d_hat = ctl.dob_update(state, q, np.zeros(6), np.zeros(6),
                                  nominal(p, q, np.zeros(6)), g, 1e-9)
        np.testing.assert_allclose(d_hat, plant_terms(p, q, np.zeros(6)).G, atol=1e-6)

    def test_bit_equal_to_stacked_rk4(self, rng):
        p = dyn.ModelParams(m_hat=3.2, J_hat=np.diag([0.05, 0.06, 0.1]))
        g = ctl.GainSet()
        for i in range(200):
            q, qdot, _, _ = random_state(rng)
            state = ctl.DobState(xq=rng.normal(size=(2, 6)), xp=rng.normal(size=(2, 6)))
            T = rng.uniform(1.0, 15.0, size=6)
            terms = nominal(p, q, qdot)
            # the filter states as arrays, or as the float lists dob_update returns
            given = state if i % 2 else ctl.DobState(xq=state.xq.tolist(), xp=state.xp.tolist())
            got, d_hat = ctl.dob_update(given, q, qdot, T, terms, g, 0.005)
            ref, d_ref = stacked_rk4_dob_update(state, q, qdot, T, terms, g, 0.005)
            # byte equality: the sign of a zero counts
            for a, b in ((got.xq, ref.xq), (got.xp, ref.xp), (d_hat, d_ref)):
                assert np.asarray(a).tobytes() == b.tobytes()

    def test_converges_to_zero_at_hover(self):
        p = dyn.ModelParams()
        g = ctl.GainSet()
        q = np.zeros(6)
        T = np.full(6, hover_thrust(p))
        state = ctl.DobState.initialize(q)
        for _ in range(4000):
            state, d_hat = ctl.dob_update(state, q, np.zeros(6), T,
                                          nominal(p, q, np.zeros(6)), g, 0.005)
        np.testing.assert_allclose(d_hat, np.zeros(6), atol=1e-6)

    def test_tracks_constant_disturbance(self):
        p = dyn.ModelParams()
        g = ctl.GainSet()
        d_true = np.zeros(6)
        d_true[0] = 2.0
        T = np.full(6, hover_thrust(p))
        s = dyn.VehicleState()
        dob = ctl.DobState.initialize(s.q)
        d_hat = np.zeros(6)
        for _ in range(4000):
            dob, d_hat = ctl.dob_update(dob, s.q, s.qdot, T, nominal(p, s.q, s.qdot), g, 0.005)
            s = dyn.step(s, plant_terms(p, s.q, s.qdot), T, np.zeros(3), np.zeros(3),
                         np.zeros(3), d_true, 0.005, p)
        assert d_hat[0] == pytest.approx(2.0, abs=1e-2)
        np.testing.assert_allclose(d_hat[1:], np.zeros(5), atol=1e-2)

    def test_matches_exact_zoh_filter(self, rng):
        # the x axis decouples at level attitude: compare against an exact
        # zero-order-hold discretization of the same linear filter
        from scipy.linalg import expm
        p = dyn.ModelParams()
        g = ctl.GainSet()
        dt = 0.005
        a0e2 = g.a0[0] / g.eps[0] ** 2
        a1e1 = g.a1[0] / g.eps[0]
        Ax = np.array([[0.0, 1.0], [-a0e2, -a1e1]])
        Bx = np.array([0.0, a0e2])
        M = expm(np.block([[Ax, Bx[:, None]], [np.zeros((1, 3))]]) * dt)
        Ad, Bd = M[:2, :2], M[:2, 2]

        state = ctl.DobState.initialize(np.zeros(6))
        xq_ref = np.zeros(2)
        for _ in range(200):
            qx = float(rng.normal())
            q = np.zeros(6)
            q[0] = qx
            state, _ = ctl.dob_update(state, q, np.zeros(6), np.zeros(6),
                                      nominal(p, q, np.zeros(6)), g, dt)
            xq_ref = Ad @ xq_ref + Bd * qx
            np.testing.assert_allclose(np.asarray(state.xq)[:, 0], xq_ref, atol=1e-8)


class TestNominalTerms:
    """The controller runs on m_hat, J_hat and the plant on m, J."""

    MODEL = dict(m_hat=3.0, J_hat=np.diag([0.05, 0.06, 0.1]))

    def test_terms_pick_their_parameters(self, rng):
        p = dyn.ModelParams(**self.MODEL)
        for _ in range(20):
            q, qdot, _, _ = random_state(rng)
            nom, true = nominal(p, q, qdot), plant_terms(p, q, qdot)
            Q = dyn.euler_rate_map(q[3:])
            for terms, m, J in ((nom, p.m_hat, p.J_hat), (true, p.m, p.J)):
                np.testing.assert_allclose(terms.M[:3, :3], m * np.eye(3), rtol=0, atol=0)
                np.testing.assert_allclose(terms.M[3:, 3:], Q.T @ J @ Q, rtol=1e-14)
                assert terms.G[2] == m * p.g
            assert not np.allclose(nom.C, true.C)
            assert np.array_equal(nom.B, true.B)

    def test_true_parameters_share_one_evaluation(self, rng):
        # with m_hat, J_hat equal to m, J the plant reuses the controller's
        # M, C and G, bit for bit what its own evaluation gives
        exact, mismatch = dyn.ModelParams(), dyn.ModelParams(**self.MODEL)
        assert exact.nominal_is_true and not mismatch.nominal_is_true
        for _ in range(20):
            q, qdot, _, _ = random_state(rng)
            true = plant_terms(exact, q, qdot)
            assert all(np.array_equal(a, b) for a, b in zip(true, plant_terms(mismatch, q, qdot)))
            assert all(np.array_equal(a, b) for a, b in zip(true, nominal(exact, q, qdot)))

    def test_plant_steps_on_true_terms(self, rng):
        p = dyn.ModelParams(**self.MODEL)
        q, qdot, theta, thetadot = random_state(rng)
        s = dyn.VehicleState(q=q, qdot=qdot, theta=theta, thetadot=thetadot)
        T, d = rng.uniform(2.0, 10.0, size=6), rng.normal(size=6)
        s2 = dyn.step(s, plant_terms(p, q, qdot), T, theta, thetadot, np.zeros(3), d, 0.005, p)
        for terms, equal in ((plant_terms(p, q, qdot), True), (nominal(p, q, qdot), False)):
            qddot = np.linalg.solve(terms.M, terms.B @ T + d - terms.C - terms.G)
            assert np.array_equal(s2.qdot, qdot + 0.005 * qddot) == equal

    def test_simulate_feeds_nominal_terms_of_the_tick_state(self, monkeypatch):
        model = dyn.ModelParams(**self.MODEL)
        s = hz.Scenario(name="mismatch", world_box=(-5.0, -5.0, 8.0, 8.0), obstacles=[],
                        start=np.zeros(5), goal=np.array([2.0, 0.0, 0.0]),
                        duration=0.05, settle_time=0.05, model=model)
        traj = hz.plan(s).traj
        calls = {"dob_update": 0, "thrust_limit_rows": 0, "step": 0}

        def same(terms, expect):
            return all(np.array_equal(a, b) for a, b in zip(terms, expect, strict=True))

        def checked(name, fn):
            # the observer and the rows (whose affine map is the thrust law)
            # take the nominal terms of the tick state
            def wrapper(*args):
                q, qdot, terms = args[1], args[2], args[4]
                assert same(terms, nominal(model, q, qdot))
                calls[name] += 1
                return fn(*args)
            return wrapper

        monkeypatch.setattr(ctl, "dob_update", checked("dob_update", ctl.dob_update))
        monkeypatch.setattr(ctl, "thrust_limit_rows",
                            checked("thrust_limit_rows", ctl.thrust_limit_rows))
        step = dyn.step

        def plant(*args):
            # the plant takes the true terms of the same state
            state, terms = args[0], args[1]
            assert same(terms, plant_terms(model, state.q, state.qdot))
            assert not same(terms, nominal(model, state.q, state.qdot)[:4])
            assert args[-1] is model
            calls["step"] += 1
            return step(*args)

        monkeypatch.setattr(dyn, "step", plant)
        tel = hz.simulate(s, traj)
        assert set(calls.values()) == {len(tel.t)} and len(tel.t) == 20


class TestInnerLoop:
    """The inner loop's thrust law, the affine map that thrust_limit_rows forms."""

    def test_hover_equilibrium(self):
        p = dyn.ModelParams()
        g = ctl.GainSet()
        rows = ctl.thrust_limit_rows(np.zeros(6), np.zeros(6), np.zeros(6), np.zeros(6),
                                     nominal(p, np.zeros(6), np.zeros(6)), g, 1.0, 15.0)
        np.testing.assert_allclose(rows.thrust(np.zeros(6)), np.full(6, hover_thrust(p)),
                                   atol=1e-10)

    def test_disturbance_compensation(self):
        p = dyn.ModelParams()
        g = ctl.GainSet()
        d_hat = np.zeros(6)
        d_hat[2] = -3.0
        terms = nominal(p, np.zeros(6), np.zeros(6))
        rows = ctl.thrust_limit_rows(np.zeros(6), np.zeros(6), np.zeros(6), d_hat, terms, g,
                                     1.0, 15.0)
        true = plant_terms(p, np.zeros(6), np.zeros(6))
        np.testing.assert_allclose(true.B @ rows.thrust(np.zeros(6)), true.G - d_hat,
                                   atol=1e-10)

    def test_thrust_rows_substitute_exactly(self, rng):
        # the law is the computed-torque one, B T = M (Kd (qdot_d - qdot) +
        # Kp (q_d - q)) + C + G - d_hat, and the rows give exactly the band
        # slack of that T
        p = dyn.ModelParams(m_hat=3.2, J_hat=np.diag([0.05, 0.06, 0.1]))
        g = ctl.GainSet()
        for _ in range(100):
            q, qdot, _, _ = random_state(rng)
            q_d = q + rng.normal(scale=0.05, size=6)
            qdot_d = rng.normal(scale=0.5, size=6)
            d_hat = rng.normal(scale=1.0, size=6)
            terms = nominal(p, q, qdot)
            rows = ctl.thrust_limit_rows(q_d, q, qdot, d_hat, terms, g, 1.0, 15.0)
            T = rows.thrust(qdot_d)
            wrench = (terms.M @ (g.kd @ (qdot_d - qdot) + g.kp @ (q_d - q))
                      + terms.C + terms.G - d_hat)
            np.testing.assert_allclose(terms.B @ T, wrench, rtol=0,
                                       atol=1e-12 * max(1.0, np.abs(wrench).max()))
            x = np.concatenate([qdot_d, np.zeros(3)])
            np.testing.assert_allclose(rows.b[:6] - rows.A[:6] @ x, T - 1.0, atol=1e-8)
            np.testing.assert_allclose(rows.b[6:] - rows.A[6:] @ x, 15.0 - T, atol=1e-8)

    def test_rows_and_law_match_the_array_forms(self, rng):
        # np.dot reaches the BLAS routines of @ on the same operands: byte for
        # byte the rows and the thrust, signed zeros included
        g = ctl.GainSet()
        for i in range(1000):
            p = dyn.ModelParams(**(TestNominalTerms.MODEL if i % 2 else {}))
            q, qdot, _, _ = random_state(rng)
            q_d = q + rng.normal(scale=0.05, size=6)
            d_hat, qdot_d = rng.normal(size=(2, 6))
            for v in (q, qdot, q_d, d_hat, qdot_d):
                v[rng.random(6) < 0.2] = rng.choice([0.0, -0.0])
            terms = nominal(p, q, qdot)
            t_min, t_max = rng.uniform(0.0, 2.0), rng.uniform(10.0, 20.0)
            rows = ctl.thrust_limit_rows(q_d, q, qdot, d_hat, terms, g, t_min, t_max)
            ref = array_thrust_limit_rows(q_d, q, qdot, d_hat, terms, g, t_min, t_max)
            for a, b in zip(rows, ref, strict=True):
                assert a.tobytes() == b.tobytes()
            assert rows.thrust(qdot_d).tobytes() == array_thrust(ref, qdot_d).tobytes()

    def test_applied_thrust_is_the_rows_affine_map(self, monkeypatch):
        # over a short tree mission, every tick applies T = S qdot_d + c of its
        # own rows at the QP's velocity reference, bit for bit
        s = dataclasses.replace(hz.load_scenario(os.path.join(SCENARIO_DIR, "tree.yaml")),
                                duration=0.5, settle_time=0.1)
        traj = hz.plan(s).traj
        laws, refs = [], []
        rows_fn, outer_fn = ctl.thrust_limit_rows, ctl.outer_loop

        def rows(*args):
            laws.append(rows_fn(*args))
            return laws[-1]

        def outer(*args):
            refs.append(outer_fn(*args))
            return refs[-1]

        monkeypatch.setattr(ctl, "thrust_limit_rows", rows)
        monkeypatch.setattr(ctl, "outer_loop", outer)
        tel = hz.simulate(s, traj, seed=1)
        assert len(laws) == len(refs) == len(tel.t) == 120
        for k, (law, res) in enumerate(zip(laws, refs)):
            assert np.array_equal(tel.thrust[k], law.S @ res.qdot_d + law.c)


def obstacle_frame(tracker, X, pairs=slice(None)):
    """Points X (..., K, 3) in the obstacle frame of each of the K pairs (all
    of them by default), as cbf_rows maps them."""
    return np.einsum("pji,...pj->...pi", tracker.rotation[pairs],
                     X - tracker.translation[pairs])


def proxy_kinematics(geom, part, gamma, q, theta, qdot=np.zeros(6), thetadot=np.zeros(3)):
    """X, J and Jdot v of one part's proxy point, from the batched kernel."""
    # one obstacle: one pair per part
    tracker = ctl.ProxyTracker(geom, [Superquadric2(a1=1.0, a2=1.0, eps=1.0)], 1.0)
    frames = ctl.vehicle_frames(geom, q, dyn.rotation(q[3:]), theta)
    X = ctl.proxy_points(tracker, np.full(geom.n_parts, gamma), frames, np.arange(geom.n_parts))
    J, jdv = ctl.proxy_jacobians(frames, tracker.link, X, q[3:],
                                 np.concatenate([qdot, thetadot]))
    return X[part], J[part], jdv[part]


class TestProxyKinematics:
    def test_frames_match_the_rotation_form(self, rng):
        # the arm frames are built from their single-product entries: bit for
        # bit R0 Rz(th1) and that times the transposed ZYX rotation of (0, -th2, -th3)
        geom = VehicleGeometry()
        for _ in range(1000):
            q, _, theta, _ = random_state(rng)
            theta = rng.uniform(-math.pi, math.pi, size=3)
            R0 = dyn.rotation(q[3:])
            pivots, (F0, F1, F2) = ctl.vehicle_frames(geom, q, R0, theta)
            R1 = R0 @ product_rotation((0.0, 0.0, theta[0]))
            R2 = R1 @ product_rotation((0.0, -theta[1], -theta[2])).T
            assert np.array_equal(F0, R0) and np.array_equal(F1, R1) and np.array_equal(F2, R2)
            p1 = q[:3] + geom.arm_base_offset * R0[:, 0]
            assert np.array_equal(pivots, [q[:3], p1, p1 + geom.l1 * R1[:, 0]])

    def test_rotor_point_at_identity(self):
        geom = VehicleGeometry()
        X, J, _ = proxy_kinematics(geom, 0, 0.0, np.zeros(6), np.zeros(3))
        np.testing.assert_allclose(X, [geom.rotor_arm + geom.blade_radius, 0.0, 0.0],
                                   atol=1e-12)
        np.testing.assert_allclose(J[:, :3], np.eye(3), atol=1e-15)
        np.testing.assert_allclose(J[:, 6:], np.zeros((3, 3)), atol=1e-15)

    def test_forearm_tip_matches_planar_kinematics(self):
        geom = VehicleGeometry()
        q = np.array([0.5, -0.2, 1.0, 0.0, 0.0, 0.7])
        theta = np.array([0.4, 0.0, -0.3])
        X, _, _ = proxy_kinematics(geom, 7, 0.0, q, theta)
        eef = geom.forward_kinematics_eef([q[0], q[1], q[5], theta[0], theta[2]])
        np.testing.assert_allclose(X[:2], eef[:2], atol=1e-12)
        assert X[2] == pytest.approx(1.0, abs=1e-12)

    def test_jacobian_matches_fd(self, rng):
        geom = VehicleGeometry()
        for part in (0, 3, 6, 7):
            q, _, theta, _ = random_state(rng)
            gamma = float(rng.uniform(-math.pi, math.pi))
            _, J, _ = proxy_kinematics(geom, part, gamma, q, theta)
            for k in range(9):
                e = np.zeros(9)
                e[k] = 1e-6
                Xp, _, _ = proxy_kinematics(geom, part, gamma, q + e[:6], theta + e[6:])
                Xm, _, _ = proxy_kinematics(geom, part, gamma, q - e[:6], theta - e[6:])
                np.testing.assert_allclose(J[:, k], (Xp - Xm) / 2e-6, atol=1e-6)

    def test_delta_x_rate_matches_time_fd(self, rng):
        geom = VehicleGeometry()
        obs = extrude(Superquadric2(a1=0.4, a2=0.3, eps=0.6, angle=0.3, center=(2.0, 1.0)), 3.0)
        q, qdot, theta, thetadot = random_state(rng)
        gamma = 0.8
        part = 7

        def dx_at(t):
            X, _, _ = proxy_kinematics(geom, part, gamma, q + t * qdot, theta + t * thetadot)
            return obs.rotation.T @ (X - obs.translation)

        _, J, _ = proxy_kinematics(geom, part, gamma, q, theta)
        rate = obs.rotation.T @ J @ np.concatenate([qdot, thetadot])
        h = 1e-6
        np.testing.assert_allclose(rate, (dx_at(h) - dx_at(-h)) / (2 * h), atol=1e-4)

        # second order: Jdot v is the second time difference of X along v
        q[3:5] = [0.3, -0.25]
        theta[1] = 0.6
        h = 1e-4
        for part in (0, 6, 7):
            def x_at(t):
                return proxy_kinematics(geom, part, gamma, q + t * qdot, theta + t * thetadot)[0]

            _, _, jdv = proxy_kinematics(geom, part, gamma, q, theta, qdot, thetadot)
            assert np.abs(jdv).max() > 1e-2
            np.testing.assert_allclose(jdv, (x_at(h) - 2.0 * x_at(0.0) + x_at(-h)) / h ** 2,
                                       atol=1e-5)


class TestBarrier:
    def sphere(self):
        return extrude(Superquadric2(a1=1.0, a2=1.0, eps=1.0), 2.0, eps1=1.0)

    def test_value_on_sphere(self):
        obs = self.sphere()
        assert ctl.h_co_derivs([2.0, 0.0, 0.0], obs)[0] == pytest.approx(math.log(4.0),
                                                                         abs=1e-12)
        assert ctl.h_co_derivs([1.0, 0.0, 0.0], obs)[0] == pytest.approx(0.0, abs=1e-12)
        assert ctl.h_co_derivs([0.3, 0.0, 0.0], obs)[0] < 0.0

    def test_sign_agrees_with_inside_outside(self, rng):
        # h of every pair of the pipeline's barrier constants against the oracle extrusion
        shape = Superquadric2(a1=0.5, a2=0.3, eps=0.7, angle=0.4, center=(0.0, 0.0))
        tracker = ctl.ProxyTracker(VehicleGeometry(), [shape], 2.0)
        obs = extrude(shape, 2.0)
        for _ in range(200):
            p = rng.uniform(-1.0, 1.0, size=3)
            p[2] = rng.uniform(0.2, 1.8)
            dx = obstacle_frame(tracker, np.tile(p, (tracker.a1.size, 1)))
            h = ctl.h_co_derivs(dx, tracker)[0]
            io = obs.inside_outside(p)
            assert np.all((h > 0) == (io > 0)) or abs(io) < 1e-9

    def test_extrusion_equals_oracle(self):
        # every pair's constants are exactly its obstacle's oracle extrusion
        s = hz.load_scenario(os.path.join(SCENARIO_DIR, "tree.yaml"))
        for obstacles in (s.obstacles, hz.ellipse_obstacles(s.obstacles)):
            tracker = ctl.ProxyTracker(s.vehicle, obstacles, 2.5)
            oi = tracker.oi
            assert oi.size == s.vehicle.n_parts * len(obstacles)
            for name in ("rotation", "translation", "a1", "a2", "a3", "eps1", "eps2"):
                want = np.array([getattr(extrude(obstacles[o], 2.5), name) for o in oi])
                assert np.array_equal(getattr(tracker, name), want), name

    def test_derivatives_match_fd(self, rng):
        obs = extrude(Superquadric2(a1=0.5, a2=0.3, eps=0.7), 2.0)
        points = rng.uniform(0.1, 1.0, size=(50, 3)) * rng.choice([-1.0, 1.0], size=(50, 3))
        batch = ctl.h_co_derivs(points, obs)
        for n, dx in enumerate(points):
            h, grad, hess = ctl.h_co_derivs(dx, obs)
            # a batch evaluates every point as a single call does, up to rounding
            for single, batched in zip((h, grad, hess), batch):
                np.testing.assert_allclose(single, batched[n], rtol=1e-12, atol=1e-12)
            for k in range(3):
                e = np.zeros(3)
                e[k] = 1e-6
                fd = (ctl.h_co_derivs(dx + e, obs)[0] - ctl.h_co_derivs(dx - e, obs)[0]) / 2e-6
                assert grad[k] == pytest.approx(fd, abs=1e-5)
                hp = ctl.h_co_derivs(dx + e, obs)[1]
                hm = ctl.h_co_derivs(dx - e, obs)[1]
                np.testing.assert_allclose(hess[:, k], (hp - hm) / 2e-6, atol=1e-4)

    def test_degenerate_center_raises(self):
        for fn in (ctl.h_co, ctl.h_co_derivs):
            with pytest.raises(ctl.ControlError):
                fn([0.0, 0.0, 0.0], self.sphere())

    def test_deep_inside_point_is_finite(self):
        # a quarter of the radius from the axis, near mid-height of a 0.5 m
        # round obstacle of height 3: g = 0.25^20 + 0.2^20, about 9.2e-13
        obs = extrude(Superquadric2(a1=0.5, a2=0.5, eps=1.0), 3.0)
        dx = np.array([0.125, 0.0, 0.3])
        assert ctl.h_co(dx, obs) == pytest.approx(math.log(0.25 ** 20 + 0.2 ** 20),
                                                  rel=1e-12)
        h, grad, hess = ctl.h_co_derivs(dx, obs)
        assert np.isfinite(h) and np.all(np.isfinite(grad)) and np.all(np.isfinite(hess))

    def test_value_path_bit_equal_on_tree_pose(self):
        # next to the boxy trunk: near pairs with and without rows, and far pairs
        s = hz.load_scenario(os.path.join(SCENARIO_DIR, "tree.yaml"))
        tracker = ctl.ProxyTracker(s.vehicle, s.obstacles, 3.0)
        q, theta = np.array([3.3, 3.1, 1.0, 0.05, -0.04, 0.4]), np.array([0.3, 0.1, -0.5])
        R = dyn.rotation(q[3:])
        _, _, h_rows = ctl.cbf_rows(tracker, q, R, np.zeros(6), theta, np.zeros(3), q,
                                    ctl.GainSet(), ctl.SafetyParams())
        frames = ctl.vehicle_frames(s.vehicle, q, R, theta)
        bound = tracker.h_bounds(frames)
        near = np.flatnonzero(bound <= ctl.H_CULL)
        far = np.flatnonzero(bound > ctl.H_CULL)
        assert h_rows.shape == (24,) and 0 < near.size < 24
        assert np.any(h_rows[near] <= ctl.H_CULL) and np.any(h_rows[near] > ctl.H_CULL)
        # near pairs: the cull's h-only pass and the derivative pass share one bracket
        X = ctl.proxy_points(tracker, tracker.gammas[0, near], frames, near)
        dx = obstacle_frame(tracker, X, near)
        h = ctl.h_co(dx, tracker.shapes(near))
        assert np.array_equal(h, ctl.h_co_derivs(dx, tracker.shapes(near))[0])
        assert np.array_equal(h_rows[near], h)
        # far pairs report their bound, below their h at the cold-solved angles
        assert np.array_equal(h_rows[far], bound[far])
        tracker.refresh(q, theta)
        X = ctl.proxy_points(tracker, tracker.gammas[0], frames, np.arange(24))
        exact = ctl.h_co(obstacle_frame(tracker, X), tracker)
        assert np.all(h_rows[far] <= exact[far])


def ungated_rows(geom, obstacles, height, q, qdot, theta, thetadot, q_d, g, safety,
                 gammas=None):
    """h of every pair and the rows of those with h <= H_CULL, each built from
    the direct expression lhs >= sigma at the part-side angles gammas, or at
    cold-solved ones."""
    if gammas is None:
        tracker = ctl.ProxyTracker(geom, obstacles, height)
        tracker.refresh(q, theta)
        gammas = tracker.gammas[0]
    pi, oi = pair_index(geom.n_parts, len(obstacles))
    v9 = np.concatenate([qdot, thetadot])
    # lhs is affine in x = [qdot_d; thetaddot_d]: the accelerations at x = 0,
    # and their slope
    accel0 = np.concatenate([g.kp @ (q_d - q) - g.kd @ qdot, np.zeros(3)])
    slope = np.zeros((9, 9))
    slope[:6, :6], slope[6:, 6:] = g.kd, np.eye(3)
    h_all, A, b = [], [], []
    for pair in range(pi.size):
        obs = extrude(obstacles[oi[pair]], height)
        X, J, jdv = proxy_kinematics(geom, pi[pair], gammas[pair], q, theta, qdot, thetadot)
        A_dx = obs.rotation.T @ J
        h, grad, hess = ctl.h_co_derivs(obs.rotation.T @ (X - obs.translation), obs)
        h_all.append(h)
        if h <= ctl.H_CULL:
            dxdot = A_dx @ v9
            lhs0 = (dxdot @ hess @ dxdot + grad @ (A_dx @ accel0 + obs.rotation.T @ jdv)
                    + 2 * safety.alpha_co * (grad @ dxdot) + safety.alpha_co ** 2 * h)
            A.append(-(grad @ A_dx) @ slope)
            b.append(lhs0 - safety.sigma_co)
    return np.array(h_all), np.reshape(A, (-1, 9)), np.array(b)


class TestCbfRows:
    def setup_scene(self, center=(2.0, 0.0)):
        geom = VehicleGeometry()
        shape = Superquadric2(a1=0.35, a2=0.35, eps=1.0, center=center)
        safety = ctl.SafetyParams()
        obs3d = [extrude(shape, safety.obstacle_height)]
        tracker = ctl.ProxyTracker(geom, [shape], safety.obstacle_height)
        return geom, shape, obs3d, tracker, safety

    def test_row_algebra_matches_direct_expression(self, rng):
        g = ctl.GainSet()
        q = np.array([0.3, 0.1, 1.5, 0.02, -0.03, 0.2])
        theta = np.array([0.3, 0.0, -0.2])
        # close to rotors 0 and 5, then to the forearm
        for center in ((1.0, -0.15), (1.15, 0.0)):
            geom, _, obs3d, tracker, safety = self.setup_scene(center)
            qdot = rng.normal(scale=0.3, size=6)
            thetadot = rng.normal(scale=0.2, size=3)
            q_d = q + rng.normal(scale=0.02, size=6)
            tracker.refresh(q, theta)
            A, b, h_vals = ctl.cbf_rows(tracker, q, dyn.rotation(q[3:]), qdot, theta,
                                        thetadot, q_d, g, safety)
            assert h_vals.shape == (8,)
            assert np.all(h_vals > 0.0)
            rows = np.flatnonzero(h_vals <= ctl.H_CULL)
            assert 0 < rows.size < 8
            assert A.shape == (rows.size, 9) and b.shape == (rows.size,)

            x = rng.normal(size=9)
            qddot = g.kd @ (x[:6] - qdot) + g.kp @ (q_d - q)
            accel9 = np.concatenate([qddot, x[6:]])
            v9 = np.concatenate([qdot, thetadot])
            for row, pair in enumerate(rows):
                part, obs = tracker.pi[pair], obs3d[tracker.oi[pair]]
                X, J, jdv = proxy_kinematics(geom, part, tracker.gammas[0, pair], q, theta,
                                             qdot, thetadot)
                dx = obs.rotation.T @ (X - obs.translation)
                A_dx = obs.rotation.T @ J
                h, grad, hess = ctl.h_co_derivs(dx, obs)
                assert h == pytest.approx(h_vals[pair], abs=1e-12)
                dxdot = A_dx @ v9
                hddot = (dxdot @ hess @ dxdot
                         + grad @ (A_dx @ accel9 + obs.rotation.T @ jdv))
                lhs = hddot + 2 * safety.alpha_co * (grad @ dxdot) + safety.alpha_co ** 2 * h
                # the row encodes exactly lhs >= sigma
                assert b[row] - A[row] @ x == pytest.approx(lhs - safety.sigma_co, abs=1e-8)

    def test_tracker_warm_start_consistency(self):
        geom, shape, _, tracker, _ = self.setup_scene()
        # a second input: between the boxy and the round trunk of the tree scenario
        tree = hz.load_scenario(os.path.join(SCENARIO_DIR, "tree.yaml")).obstacles
        cases = [(tracker, [shape], np.zeros(6), np.zeros(3)),
                 (ctl.ProxyTracker(geom, tree, 3.0), tree,
                  np.array([3.3, 2.6, 1.0, 0.0, 0.0, 0.4]), np.array([0.3, 0.0, -0.5]))]
        for tracker, obstacles, q, theta in cases:
            first = tracker.refresh(q, theta)
            second = tracker.refresh(q, theta)
            assert first.shape == second.shape == (geom.n_parts * len(obstacles),)
            np.testing.assert_allclose(first, second, atol=1e-8)
            assert second.min() > 0.0
            # the tracker solves the same problem as a cold closest_pairs call on
            # the part shapes
            parts = part_superquadrics(geom, [q[0], q[1], q[5], theta[0], theta[2]])
            cold = closest_pairs(shape_rows([parts[p] for p in tracker.pi]),
                                 shape_rows([obstacles[o] for o in tracker.oi])).gap
            assert second == pytest.approx(cold, abs=1e-9)


    def test_gated_rows_match_ungated_oracle_along_sweep(self):
        # the vehicle sweeps past the obstacle, turning: rotors 4 and 3 enter
        # the near set, emit rows, and leave it again
        geom, shape, _, tracker, safety = self.setup_scene()
        g = ctl.GainSet()
        qdot = np.array([0.5, 0.0, 0.05, 0.1, -0.1, 0.4])
        thetadot = np.array([-0.3, 0.1, 0.0])
        seen = []
        for s in np.linspace(0.0, 1.0, 41):
            q = np.array([0.4 + 3.2 * s, 0.72, 1.2, 0.1 * math.sin(5.0 * s), -0.08, 2.0 * s])
            theta = np.array([0.6 - 1.2 * s, 0.3 * s, 0.5])
            q_d = q + 0.01
            R = dyn.rotation(q[3:])
            A, b, h = ctl.cbf_rows(tracker, q, R, qdot, theta, thetadot, q_d, g, safety)
            near = np.flatnonzero(tracker.h_bounds(ctl.vehicle_frames(geom, q, R, theta))
                                  <= ctl.H_CULL)
            far = np.setdiff1d(np.arange(8), near)
            seen.append(tuple(near))
            h_cold, A_cold, b_cold = ungated_rows(geom, [shape], safety.obstacle_height, q, qdot,
                                                  theta, thetadot, q_d, g, safety)
            rows = np.flatnonzero(h <= ctl.H_CULL)
            assert np.array_equal(rows, np.flatnonzero(h_cold <= ctl.H_CULL))
            assert np.all(h[far] <= h_cold[far]) and np.all(h[far] > ctl.H_CULL)
            np.testing.assert_allclose(h[near], h_cold[near], rtol=0, atol=1e-8)
            # at the gated angles the rows are the direct expression's (a far
            # pair emits none at any angle); the cold-solved angles agree with
            # warm-started ones to the closest-pair solver's stopping
            # precision only
            _, A_warm, b_warm = ungated_rows(geom, [shape], safety.obstacle_height, q, qdot,
                                             theta, thetadot, q_d, g, safety,
                                             np.nan_to_num(tracker.gammas[0]))
            for got, warm, cold in ((A, A_warm, A_cold), (b, b_warm, b_cold)):
                assert got.shape == cold.shape
                np.testing.assert_allclose(got, warm, rtol=0, atol=1e-8)
                assert np.abs(got - cold).max(initial=0.0) <= 1e-7 * np.abs(cold).max(initial=0.0)
        assert {(), (4,), (3, 4), (3,)} <= set(seen)


class TestFarPairGate:
    @settings(max_examples=100, deadline=None)
    @given(blade=st.floats(0.05, 0.2), link_hw=st.floats(0.01, 0.1),
           link_eps=st.floats(0.1, 2.0), l1=st.floats(0.1, 0.5), l2=st.floats(0.1, 0.5),
           a1=st.floats(0.1, 1.0), a2=st.floats(0.1, 1.0), eps=st.floats(0.1, 2.0),
           angle=st.floats(-math.pi, math.pi), dist=st.floats(0.0, 3.0),
           bearing=st.floats(-math.pi, math.pi), height=st.floats(1.0, 3.0),
           z=st.floats(-0.5, 3.5), tilt=st.tuples(st.floats(-0.3, 0.3), st.floats(-0.3, 0.3)),
           yaw=st.floats(-math.pi, math.pi),
           arm=st.tuples(st.floats(-math.pi, math.pi), st.floats(-1.5, 1.5),
                         st.floats(-math.pi, math.pi)))
    def test_bound_below_h_at_every_proxy_angle(self, blade, link_hw, link_eps, l1, l2, a1,
                                                 a2, eps, angle, dist, bearing, height, z,
                                                 tilt, yaw, arm):
        geom = VehicleGeometry(blade_radius=blade, link_halfwidth=link_hw, link_eps=link_eps,
                               l1=l1, l2=l2)
        center = (dist * math.cos(bearing), dist * math.sin(bearing))
        tracker = ctl.ProxyTracker(geom, [Superquadric2(a1, a2, eps, angle, center)], height)
        q, theta = np.array([0.0, 0.0, z, *tilt, yaw]), np.array(arm)
        frames = ctl.vehicle_frames(geom, q, dyn.rotation(q[3:]), theta)
        bound = tracker.h_bounds(frames)
        # below -10 the part overlaps the obstacle, its bracket may reach the
        # degenerate floor, and every such pair is near anyway
        pairs = np.repeat(np.flatnonzero(bound > -10.0), 720)
        gammas = np.tile(np.linspace(-math.pi, math.pi, 720, endpoint=False), pairs.size // 720)
        X = ctl.proxy_points(tracker, gammas, frames, pairs)
        h = ctl.h_co(obstacle_frame(tracker, X, pairs), tracker.shapes(pairs))
        assert np.all(h >= bound[pairs])

    def test_bound_tight_for_circle_facing_circle(self):
        # rotor 0 faces a round obstacle 0.5 beyond its rim, level, at the
        # obstacle's mid-height: its bound is its h at the facing proxy
        geom = VehicleGeometry()
        x0 = geom.rotor_arm + geom.blade_radius + 0.5
        for radius, height in ((0.35, 3.0), (0.6, 2.0)):
            tracker = ctl.ProxyTracker(geom, [Superquadric2(radius, radius, 1.0, 0.3, (x0, 0.0))],
                                     height)
            q = np.array([0.0, 0.0, height / 2.0, 0.0, 0.0, 0.0])
            frames = ctl.vehicle_frames(geom, q, dyn.rotation(q[3:]), np.zeros(3))
            bound = tracker.h_bounds(frames)[0]
            X = ctl.proxy_points(tracker, np.zeros(1), frames, np.zeros(1, dtype=int))
            h = ctl.h_co(obstacle_frame(tracker, X, [0]), tracker.shapes([0]))[0]
            assert h == pytest.approx(20.0 * math.log(0.5 / radius), abs=1e-12)
            assert h - 1e-9 <= bound <= h


class TestProxyTracker:
    def test_cached_layout_matches_pair_rows(self):
        # warm refreshes along the shipped tree plan equal the explicit chain
        # through a fresh pair_rows layout on every pose
        s = hz.load_scenario(os.path.join(SCENARIO_DIR, "tree.yaml"))
        traj = hz.plan(s, "sq").traj
        tracker = ctl.ProxyTracker(s.vehicle, s.obstacles, 3.0)
        obs_rows = shape_rows(s.obstacles)
        prev = None
        for z in traj.z[150:200]:
            gap = tracker.refresh(np.array([z[0], z[1], 1.0, 0.0, 0.0, z[2]]),
                                  np.array([z[3], 0.0, z[4]]))
            res = closest_pairs(*pair_rows(s.vehicle, obs_rows, z), init=prev)
            prev = res.gammas
            assert np.array_equal(gap, res.gap)
            assert np.array_equal(tracker.gammas, res.gammas)


class TestOuterLoop:
    def test_unconstrained_tracks_references(self):
        g = ctl.GainSet()
        q_t = np.array([1.0, 0.0, 1.5, 0, 0, 0.3])
        theta_t = np.array([0.2, 0.0, -0.1])
        res = ctl.outer_loop(q_t, theta_t, np.zeros(6), np.zeros(3),
                             np.zeros(3), np.zeros((0, 9)), np.zeros(0), g)
        assert res.feasible
        np.testing.assert_allclose(res.qdot_d, g.gamma_q @ q_t, atol=1e-8)
        np.testing.assert_allclose(res.thetaddot_d,
                                   g.gamma_theta @ g.gamma_theta @ theta_t, atol=1e-8)

    def test_active_row_respected(self):
        g = ctl.GainSet()
        q_t = np.zeros(6)
        q_t[0] = 1.0
        A = np.zeros((1, 9))
        A[0, 0] = 1.0
        b = np.array([0.5])  # cap the x velocity command
        res = ctl.outer_loop(q_t, np.zeros(3), np.zeros(6), np.zeros(3),
                             np.zeros(3), A, b, g)
        assert res.feasible
        assert res.qdot_d[0] == pytest.approx(0.5, abs=1e-8)

    @staticmethod
    def qp_built_per_call(g, q_t, theta_t, q_d, theta_d, thetadot_d):
        """(H, grad) of the outer-loop QP, built from the gains as a tick did."""
        v_ref = g.gamma_q @ (q_t - q_d)
        a_ref = -2.0 * g.gamma_theta @ thetadot_d + g.gamma_theta @ g.gamma_theta @ (
            theta_t - theta_d)
        H = np.zeros((9, 9))
        H[:6, :6] = 2.0 * g.q_qdot
        H[6:, 6:] = 2.0 * g.q_thetaddot
        grad = np.concatenate([-2.0 * g.q_qdot @ v_ref, -2.0 * g.q_thetaddot @ a_ref])
        return H, grad

    def test_matches_qp_built_per_call(self, rng):
        # the per-mission H and factors give the QP the tick built before
        g = ctl.GainSet()
        q_t, q_d = rng.normal(size=6), rng.normal(size=6)
        theta_t, theta_d, thetadot_d = rng.normal(size=(3, 3))
        A, b = 0.1 * rng.normal(size=(3, 9)), rng.uniform(0.5, 1.0, 3)
        res = ctl.outer_loop(q_t, theta_t, q_d, theta_d, thetadot_d, A, b, g)
        H, grad = self.qp_built_per_call(g, q_t, theta_t, q_d, theta_d, thetadot_d)
        sol = solve(QpProblem(H, grad, A, b))
        assert res.status == sol.status == "optimal" and sol.active_set
        assert np.array_equal(res.x, sol.x)

    def test_adds_most_violated_row_at_large_violations(self, rng):
        # unconstrained residuals of about [13, -11, 44]; x = 0 is feasible.  A
        # row pick that looked for violations within 1e-15 of the largest found
        # none above about 8, re-added row 0 and reported infeasible.
        g = ctl.GainSet()
        q_t, q_d = rng.normal(size=6), rng.normal(size=6)
        theta_t, theta_d, thetadot_d = rng.normal(size=(3, 3))
        A, b = rng.normal(size=(3, 9)), rng.uniform(0.5, 1.0, 3)
        res = ctl.outer_loop(q_t, theta_t, q_d, theta_d, thetadot_d, A, b, g)
        assert res.status == "optimal"
        H, grad = self.qp_built_per_call(g, q_t, theta_t, q_d, theta_d, thetadot_d)
        best, _ = qp_enumeration(H, grad, A, b)
        assert 0.5 * res.x @ H @ res.x + grad @ res.x == pytest.approx(best, rel=1e-9)

    def test_matches_the_array_form(self, rng):
        # byte for byte the @ form of the loop and of its QP solve, on ticks
        # with no row, with thrust-like rows that bind, and with rows that
        # cannot all hold (the half-previous fallback)
        g = ctl.GainSet()
        statuses = set()
        for i in range(1000):
            q_t, q_d = rng.normal(size=(2, 6))
            theta_t, theta_d, thetadot_d = rng.normal(size=(3, 3))
            m = (0, 3, 12)[i % 3]
            A = rng.normal(size=(m, 9))
            b = rng.uniform(-0.5, 1.0, m) if i % 7 else -rng.uniform(0.0, 1.0, m)
            args = (q_t, theta_t, q_d, theta_d, thetadot_d, A, b, g, rng.normal(size=9))
            res, ref = ctl.outer_loop(*args), array_outer_loop(*args)
            assert res.x.tobytes() == ref.x.tobytes()
            assert (res.status, res.feasible) == (ref.status, ref.feasible)
            statuses.add(res.status)
        assert statuses == {"optimal", "infeasible"}

    def test_too_many_rows_rejected(self):
        g = ctl.GainSet()
        for m in (MAX_ROWS, MAX_ROWS + 1):
            args = (np.zeros(6), np.zeros(3), np.zeros(6), np.zeros(3), np.zeros(3),
                    np.zeros((m, 9)), np.ones(m), g)
            if m > MAX_ROWS:
                with pytest.raises(QpDimensionError):
                    ctl.outer_loop(*args)
            else:
                assert ctl.outer_loop(*args).feasible

    def test_infeasible_falls_back_to_half_previous(self):
        g = ctl.GainSet()
        A = np.array([[1.0] + [0.0] * 8, [-1.0] + [0.0] * 8])
        b = np.array([-1.0, -1.0])
        prev = np.arange(9.0)
        res = ctl.outer_loop(np.zeros(6), np.zeros(3), np.zeros(6), np.zeros(3),
                             np.zeros(3), A, b, g, prev_x=prev)
        assert not res.feasible
        np.testing.assert_allclose(res.x, 0.5 * prev, atol=1e-12)
