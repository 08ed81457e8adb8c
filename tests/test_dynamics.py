import dataclasses
import itertools
import math

import numpy as np
import pytest

from amplan import dynamics as dyn

from oracles import (array_model_terms, array_step, euler_rate_map_inv, hover_thrust,
                     product_rotation)


def random_regular_phi(rng, max_tilt=0.5):
    phi = rng.uniform(-max_tilt, max_tilt, size=3)
    phi[2] = rng.uniform(-math.pi, math.pi)
    return phi


def envelope_attitudes(rng, n=200):
    """Attitudes across the flight envelope: roll and pitch up to 0.52 rad."""
    for _ in range(n):
        yield np.array([rng.uniform(-0.52, 0.52), rng.uniform(-0.52, 0.52),
                        rng.uniform(-math.pi, math.pi)])


def plant_terms(state, params):
    """The plant's model terms at state."""
    return dyn.model_terms(state.q[3:], state.qdot[3:], params).plant


def kinetic_energy(phi, phidot, params):
    w = dyn.euler_rate_map(phi) @ phidot
    return 0.5 * float(w @ params.J @ w)


class TestEulerRateMap:
    def test_identity_at_zero(self):
        np.testing.assert_allclose(dyn.euler_rate_map(np.zeros(3)), np.eye(3), atol=1e-15)

    def test_pure_yaw_rate(self):
        w = dyn.euler_rate_map(np.zeros(3)) @ np.array([0.0, 0.0, 2.0])
        np.testing.assert_allclose(w, [0.0, 0.0, 2.0], atol=1e-15)

    def test_matches_rotation_finite_difference(self, rng):
        for _ in range(100):
            phi = random_regular_phi(rng)
            phidot = rng.normal(size=3)
            h = 1e-7
            R0 = dyn.rotation(phi)
            Rdot = (dyn.rotation(phi + h * phidot) - dyn.rotation(phi - h * phidot)) / (2 * h)
            Wx = R0.T @ Rdot
            w_fd = np.array([Wx[2, 1], Wx[0, 2], Wx[1, 0]])
            np.testing.assert_allclose(dyn.euler_rate_map(phi) @ phidot, w_fd, atol=1e-6)

    def test_qdot_matches_fd(self, rng):
        phi = random_regular_phi(rng)
        phidot = rng.normal(size=3)
        h = 1e-7
        Qd_fd = (dyn.euler_rate_map(phi + h * phidot) - dyn.euler_rate_map(phi - h * phidot)) / (2 * h)
        np.testing.assert_allclose(dyn.euler_rate_map_dot(phi, phidot), Qd_fd, atol=1e-6)

    def test_singularity_raises(self):
        with pytest.raises(dyn.EulerSingularityError):
            dyn.euler_rate_map(np.array([0.0, math.pi / 2, 0.0]))

    @pytest.mark.parametrize("pitch", [math.pi / 2 - dyn.PITCH_MARGIN,
                                       -(math.pi / 2 - 0.5 * dyn.PITCH_MARGIN)])
    def test_closed_form_inverse_keeps_the_pitch_check(self, pitch):
        phi = np.array([0.2, pitch, -0.4])
        with pytest.raises(dyn.EulerSingularityError):
            euler_rate_map_inv(phi)
        with pytest.raises(dyn.EulerSingularityError):
            dyn.model_terms(phi, np.zeros(3), dyn.ModelParams())


class TestMassCoriolisGravity:
    def test_level_attitude(self):
        p = dyn.ModelParams()
        M = dyn.model_terms(np.zeros(3), np.zeros(3), p).plant.M
        np.testing.assert_allclose(M[:3, :3], p.m * np.eye(3), atol=1e-15)
        np.testing.assert_allclose(M[3:, 3:], p.J, atol=1e-15)

    def test_zero_rates_zero_coriolis(self, rng):
        p = dyn.ModelParams()
        phi = random_regular_phi(rng)
        np.testing.assert_allclose(dyn.model_terms(phi, np.zeros(3), p).plant.C, np.zeros(6),
                                   atol=1e-15)

    def test_mass_matrix_spd(self, rng):
        p = dyn.ModelParams()
        for _ in range(1000):
            M = dyn.model_terms(random_regular_phi(rng, 1.2), np.zeros(3), p).plant.M
            np.testing.assert_allclose(M, M.T, atol=1e-12)
            assert np.linalg.eigvalsh(M).min() > 0.0

    def test_lagrangian_oracle(self, rng):
        # M(phi)*phiddot + C must reproduce d/dt(dT/dphidot) - dT/dphi along a
        # smooth rotational trajectory (numeric Euler-Lagrange check).
        p = dyn.ModelParams()
        for _ in range(5):
            a = rng.uniform(-0.3, 0.3, size=3)
            b = rng.uniform(-0.3, 0.3, size=3)
            c = rng.uniform(-0.3, 0.3, size=3)

            def traj(t):
                return a + b * t + c * np.sin(t), b + c * np.cos(t), -c * np.sin(t)

            def dT_dphidot(t):
                phi, phidot, _ = traj(t)
                g = np.zeros(3)
                for k in range(3):
                    e = np.zeros(3)
                    e[k] = 1e-6
                    g[k] = (kinetic_energy(phi, phidot + e, p)
                            - kinetic_energy(phi, phidot - e, p)) / 2e-6
                return g

            t0 = 0.37
            phi, phidot, phiddot = traj(t0)
            h = 1e-5
            lhs_t = (dT_dphidot(t0 + h) - dT_dphidot(t0 - h)) / (2 * h)
            dT_dphi = np.zeros(3)
            for k in range(3):
                e = np.zeros(3)
                e[k] = 1e-6
                dT_dphi[k] = (kinetic_energy(phi + e, phidot, p)
                              - kinetic_energy(phi - e, phidot, p)) / 2e-6
            oracle = lhs_t - dT_dphi
            terms = dyn.model_terms(phi, phidot, p).plant
            model = (terms.M @ np.concatenate([np.zeros(3), phiddot]) + terms.C)[3:]
            np.testing.assert_allclose(model, oracle, atol=1e-6)


class TestAllocation:
    def test_equal_thrusts_pure_lift(self):
        p = dyn.ModelParams()
        tau = dyn.model_terms(np.zeros(3), np.zeros(3), p).plant.B @ (7.0 * np.ones(6))
        np.testing.assert_allclose(
            tau, [0, 0, 6 * 7.0 * math.cos(p.alpha_p), 0, 0, 0], atol=1e-12)

    def test_hover_thrust_value(self):
        p = dyn.ModelParams(m=3.5, alpha_p=math.pi / 12, g=9.81)
        t = hover_thrust(p)
        # the allocation turns six equal hover thrusts into the weight, no torque
        terms = dyn.model_terms(np.zeros(3), np.zeros(3), p).plant
        np.testing.assert_allclose(terms.B @ np.full(6, t), terms.G, rtol=0, atol=1e-12)
        assert t == pytest.approx(5.925, abs=5e-3)
        assert 1.0 < t < 15.0

    def test_body_allocation_built_once_and_params_frozen(self):
        p = dyn.ModelParams()
        assert p.allocation_body is p.allocation_body
        assert not p.allocation_body.flags.writeable
        # the gravity vectors too, shared by every tick's terms
        terms = dyn.model_terms(np.zeros(3), np.zeros(3), p)
        assert terms.plant.G is terms.control.G is p.gravity[1]
        assert not any(G.flags.writeable for G in p.gravity)
        mismatch = dyn.ModelParams(m_hat=3.2)
        terms = dyn.model_terms(np.zeros(3), np.zeros(3), mismatch)
        assert terms.plant.G is mismatch.gravity[0] and terms.control.G is mismatch.gravity[1]
        assert mismatch.gravity[0][2] == 3.5 * 9.81 and mismatch.gravity[1][2] == 3.2 * 9.81
        with pytest.raises(dataclasses.FrozenInstanceError):
            p.alpha_p = 0.3

    @pytest.mark.parametrize("bad", [dict(m_hat=0.0), dict(J_hat=np.diag([0.05, 0.0, 0.1])),
                                     dict(J_hat=np.eye(2)), dict(J=-np.eye(3))])
    def test_params_reject_inertias_the_closed_forms_cannot_invert(self, bad):
        with pytest.raises(ValueError):
            dyn.ModelParams(**bad)

    def test_inertias_are_read_only_copies(self):
        J = np.diag([0.055, 0.055, 0.095])
        params = (dyn.ModelParams(J=J), dyn.ModelParams(J_hat=J))
        for p in params:
            for inertia in (p.J, p.J_hat):
                with pytest.raises(ValueError, match="read-only"):
                    inertia[0, 0] = 1.0
        J[0, 0] = 1.0               # the caller's array stays writable, and apart
        assert all(p.J[0, 0] == p.J_hat[0, 0] == 0.055 for p in params)

    def test_full_rank(self):
        p = dyn.ModelParams()
        assert np.linalg.matrix_rank(dyn.model_terms(np.zeros(3), np.zeros(3), p).plant.B) == 6

    def test_conditioning_over_envelope(self, rng):
        p = dyn.ModelParams()
        for phi in envelope_attitudes(rng):
            assert np.linalg.cond(dyn.model_terms(phi, np.zeros(3), p).plant.B) < 1e4

    def test_closed_forms_match_dense_inverses_over_envelope(self, rng):
        # Q^-1, M^-1 B and B^-1 against LAPACK, each within a few ulp times
        # the condition number of the matrix inverted; nominal terms off the
        # true ones, with a non-diagonal J_hat
        p = dyn.ModelParams(m_hat=3.2, J_hat=np.array([[0.05, 0.001, 0.0],
                                                       [0.001, 0.06, 0.002],
                                                       [0.0, 0.002, 0.1]]))
        eps = np.finfo(float).eps

        def close(got, ref, cond):
            err = np.linalg.norm(got - ref, 2) / np.linalg.norm(ref, 2)
            assert err <= 16.0 * eps * cond

        for phi in envelope_attitudes(rng):
            Q = dyn.euler_rate_map(phi)
            close(euler_rate_map_inv(phi), np.linalg.inv(Q), np.linalg.cond(Q))
            terms = dyn.model_terms(phi, rng.normal(size=3), p).control
            close(terms.MinvB, np.linalg.solve(terms.M, terms.B), np.linalg.cond(terms.M))
            close(terms.Binv, np.linalg.inv(terms.B), np.linalg.cond(terms.B))


class TestStep:
    def test_free_fall(self):
        p = dyn.ModelParams()
        s = dyn.VehicleState()
        s2 = dyn.step(s, plant_terms(s, p), np.zeros(6), np.zeros(3), np.zeros(3),
                      np.zeros(3), np.zeros(6), 0.002, p)
        np.testing.assert_allclose(s2.qdot[:3] / 0.002, [0, 0, -p.g], atol=1e-12)
        np.testing.assert_allclose(s2.qdot[3:], np.zeros(3), atol=1e-12)

    def test_gravity_compensating_thrust_keeps_qdot(self, rng):
        p = dyn.ModelParams()
        s = dyn.VehicleState(q=np.array([0, 0, 1, 0.1, -0.05, 0.3]),
                             qdot=np.array([0.2, 0.1, 0.0, 0.02, -0.01, 0.03]))
        phi = s.q[3:]
        terms = dyn.model_terms(phi, s.qdot[3:], p).plant
        T = np.linalg.solve(terms.B, terms.C + terms.G)
        s2 = dyn.step(s, terms, T, np.zeros(3), np.zeros(3), np.zeros(3), np.zeros(6), 0.001, p)
        np.testing.assert_allclose(s2.qdot, s.qdot, atol=1e-12)

    def test_constant_disturbance_acceleration(self):
        p = dyn.ModelParams()
        s = dyn.VehicleState()
        phi = s.q[3:]
        terms = dyn.model_terms(phi, s.qdot[3:], p).plant
        T = np.linalg.solve(terms.B, terms.G)  # hover: cancels gravity exactly
        d = np.zeros(6)
        d[0] = 2.0
        s2 = dyn.step(s, terms, T, np.zeros(3), np.zeros(3), np.zeros(3), d, 0.002, p)
        assert s2.qdot[0] / 0.002 == pytest.approx(2.0 / p.m, abs=1e-10)

    def test_momentum_conservation_without_forces(self):
        p = dyn.ModelParams(g=1e-12)  # g must stay positive; effectively zero
        s = dyn.VehicleState(qdot=np.array([0.3, -0.2, 0.1, 0, 0, 0]))
        for _ in range(100):
            before = p.m * s.qdot[:3]
            s = dyn.step(s, plant_terms(s, p), np.zeros(6), np.zeros(3), np.zeros(3),
                         np.zeros(3), np.zeros(6), 0.005, p)
            np.testing.assert_allclose(p.m * s.qdot[:3] - before, [0, 0, -p.m * p.g * 0.005],
                                       atol=1e-10)

    def test_step_convergence_under_refinement(self):
        p = dyn.ModelParams(g=1e-12)
        w0 = np.array([0.0, 0.0, 0.0, 0.04, -0.03, 0.05])

        def rollout(dt):
            s = dyn.VehicleState(qdot=w0.copy())
            for _ in range(int(round(1.0 / dt))):
                s = dyn.step(s, plant_terms(s, p), np.zeros(6), np.zeros(3), np.zeros(3),
                             np.zeros(3), np.zeros(6), dt, p)
            return np.concatenate([s.q, s.qdot])

        diff = np.abs(rollout(0.004) - rollout(0.002)).max()
        assert diff < 1e-5

    def test_arm_tracks_reference(self):
        p = dyn.ModelParams()
        s = dyn.VehicleState()
        terms = dyn.model_terms(np.zeros(3), np.zeros(3), p).plant
        T_hover = np.linalg.solve(terms.B, terms.G)
        target = np.array([0.4, 0.0, -0.2])
        for _ in range(1000):
            s = dyn.step(s, plant_terms(s, p), T_hover, target, np.zeros(3), np.zeros(3),
                         np.zeros(6), 0.005, p)
        np.testing.assert_allclose(s.theta, target, atol=1e-3)

    def test_dt_bounds(self):
        with pytest.raises(ValueError):
            dyn.step(dyn.VehicleState(), plant_terms(dyn.VehicleState(), dyn.ModelParams()),
                     np.zeros(6), np.zeros(3), np.zeros(3), np.zeros(3), np.zeros(6), 0.02,
                     dyn.ModelParams())


def _same(a, b):
    """Byte equality of (nested tuples of) arrays: the sign of a zero counts."""
    if isinstance(a, tuple):
        return len(a) == len(b) and all(_same(x, y) for x, y in zip(a, b))
    return a.shape == b.shape and a.tobytes() == b.tobytes()


class TestFloatForms:
    """model_terms and step run their elementwise work on Python floats; they
    match the array forms (tests/oracles.py) bit for bit."""

    MISMATCH = dict(m_hat=3.2, J_hat=np.diag([0.05, 0.06, 0.1]))
    PITCH_LIMIT = math.pi / 2 - dyn.PITCH_MARGIN

    def random_state(self, rng):
        return dyn.VehicleState(q=np.concatenate([rng.uniform(-3.0, 3.0, size=3),
                                                  [rng.uniform(-1.5, 1.5),
                                                   rng.uniform(-1.5, 1.5),
                                                   rng.uniform(-math.pi, math.pi)]]),
                                qdot=rng.normal(scale=2.0, size=6),
                                theta=rng.uniform(-1.5, 1.5, size=3),
                                thetadot=rng.normal(scale=1.0, size=3))

    @pytest.mark.parametrize("model", [MISMATCH, {}])
    def test_model_terms_match_array_form(self, rng, model):
        p = dyn.ModelParams(**model)
        for _ in range(1000):
            s = self.random_state(rng)
            assert _same(dyn.model_terms(s.q[3:], s.qdot[3:], p),
                         array_model_terms(s.q[3:], s.qdot[3:], p))
        # the last regular pitch, as a list
        phi = [0.3, np.nextafter(self.PITCH_LIMIT, 0.0), -2.0]
        assert _same(dyn.model_terms(phi, [0.1, -0.2, 0.3], p),
                     array_model_terms(phi, [0.1, -0.2, 0.3], p))

    @pytest.mark.parametrize("model", [MISMATCH, {}])
    def test_model_terms_match_array_form_at_signed_zeros(self, rng, model):
        # every attitude and rate entry +0.0, -0.0 or a random value: the sign
        # of each zero in the terms is that of the array form
        p = dyn.ModelParams(**model)
        choices = (0.0, -0.0, None)
        for signs in itertools.product(choices, repeat=6):
            v = [rng.uniform(-1.2, 1.2) if c is None else c for c in signs]
            assert _same(dyn.model_terms(np.array(v[:3]), np.array(v[3:]), p),
                         array_model_terms(np.array(v[:3]), np.array(v[3:]), p))

    def test_rotation_matches_the_product_form(self, rng):
        # Rz Ry is built from its single-product entries: bit for bit the BLAS
        # product, zeros signed alike, at random angles, signed zeros and tiny
        # angles whose products underflow to signed zeros
        tiny = [0.0, -0.0, 5e-324, -5e-324, 1e-300, -1e-300]
        for _ in range(5000):
            phi = rng.uniform(-math.pi, math.pi, size=3)
            pick = rng.random(3) < 0.5
            phi[pick] = rng.choice(tiny, size=pick.sum())
            assert _same(dyn.rotation(phi), product_rotation(phi))

    @pytest.mark.parametrize("pitch", [PITCH_LIMIT, -PITCH_LIMIT, math.pi / 2])
    def test_model_terms_raise_at_the_pitch_limit(self, pitch):
        for terms in (dyn.model_terms, array_model_terms):
            with pytest.raises(dyn.EulerSingularityError):
                terms([0.1, pitch, 0.2], np.zeros(3), dyn.ModelParams(**self.MISMATCH))

    def test_step_matches_array_form(self, rng):
        p = dyn.ModelParams(**self.MISMATCH)
        lo, hi = p.thrust_sat
        clipped = 0
        for i in range(1000):
            s = self.random_state(rng)
            terms = dyn.model_terms(s.q[3:], s.qdot[3:], p).plant
            # thrusts on both sides of the physical band
            T = rng.uniform(lo - 5.0, hi + 5.0, size=6)
            clipped += int(np.count_nonzero((T < lo) | (T > hi)))
            refs = rng.normal(size=(3, 3))
            d = rng.normal(scale=3.0, size=6)
            dt = rng.uniform(0.0, dyn.DT_MAX) or dyn.DT_MAX
            args = (T, *refs, d)
            if i % 2:   # step takes lists as well as arrays
                args = tuple(a.tolist() for a in args)
            got = dyn.step(s, terms, *args, dt, p)
            ref = array_step(s, terms, *args, dt, p)
            for key in ("q", "qdot", "theta", "thetadot"):
                assert _same(getattr(got, key), getattr(ref, key)), key
        assert clipped > 1000

    def test_step_keeps_nan_thrust_an_error(self):
        p = dyn.ModelParams()
        s = dyn.VehicleState()
        T = np.full(6, hover_thrust(p))
        T[2] = np.nan
        for step in (dyn.step, array_step):
            with pytest.raises(dyn.PlantError):
                step(s, plant_terms(s, p), T, np.zeros(3), np.zeros(3), np.zeros(3),
                     np.zeros(6), 0.005, p)

    def test_step_shares_no_array_with_its_input(self):
        p = dyn.ModelParams()
        s = dyn.VehicleState()
        s2 = dyn.step(s, plant_terms(s, p), np.zeros(6), np.zeros(3), np.zeros(3),
                      np.zeros(3), np.zeros(6), 0.005, p)
        s2.q[0] = s2.theta[0] = 1.0
        assert s.q[0] == 0.0 and s.theta[0] == 0.0
