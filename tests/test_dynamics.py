import dataclasses
import itertools
import math
from types import SimpleNamespace

import numpy as np
import pytest

from amplan import dynamics as dyn
from amplan import harness as hz

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


def plant_at(phi, phidot, params):
    """The plant's model terms at (phi, phidot), by name."""
    return SimpleNamespace(**dict(zip(("M", "C", "G", "B"),
                                      dyn.model_terms(phi, phidot, params)[0])))


def control_at(phi, phidot, params):
    """The controller's nominal model terms at (phi, phidot), by name."""
    return SimpleNamespace(**dict(zip(("M", "C", "G", "B", "MinvB", "Binv"),
                                      dyn.model_terms(phi, phidot, params)[1])))


def plant_terms(x, params):
    """The plant's model terms (M, C, G, B) at the state x (18,)."""
    return dyn.model_terms(x[3:6], x[9:12], params)[0]


def state(q=(0.0,) * 6, qdot=(0.0,) * 6, theta=(0.0,) * 3, thetadot=(0.0,) * 3):
    """The state array (18,) of q, qdot, theta and thetadot."""
    return np.concatenate([q, qdot, theta, thetadot]).astype(float)


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
        M = plant_at(np.zeros(3), np.zeros(3), p).M
        np.testing.assert_allclose(M[:3, :3], p.m * np.eye(3), atol=1e-15)
        np.testing.assert_allclose(M[3:, 3:], p.J, atol=1e-15)

    def test_zero_rates_zero_coriolis(self, rng):
        p = dyn.ModelParams()
        phi = random_regular_phi(rng)
        np.testing.assert_allclose(plant_at(phi, np.zeros(3), p).C, np.zeros(6),
                                   atol=1e-15)

    def test_mass_matrix_spd(self, rng):
        p = dyn.ModelParams()
        for _ in range(1000):
            M = plant_at(random_regular_phi(rng, 1.2), np.zeros(3), p).M
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
            terms = plant_at(phi, phidot, p)
            model = (terms.M @ np.concatenate([np.zeros(3), phiddot]) + terms.C)[3:]
            np.testing.assert_allclose(model, oracle, atol=1e-6)


class TestAllocation:
    def test_equal_thrusts_pure_lift(self):
        p = dyn.ModelParams()
        tau = plant_at(np.zeros(3), np.zeros(3), p).B @ (7.0 * np.ones(6))
        np.testing.assert_allclose(
            tau, [0, 0, 6 * 7.0 * math.cos(p.alpha_p), 0, 0, 0], atol=1e-12)

    def test_hover_thrust_value(self):
        p = dyn.ModelParams(m=3.5, alpha_p=math.pi / 12, g=9.81)
        t = hover_thrust(p)
        # the allocation turns six equal hover thrusts into the weight, no torque
        terms = plant_at(np.zeros(3), np.zeros(3), p)
        np.testing.assert_allclose(terms.B @ np.full(6, t), terms.G, rtol=0, atol=1e-12)
        assert t == pytest.approx(5.925, abs=5e-3)
        assert 1.0 < t < 15.0

    def test_body_allocation_built_once_and_params_frozen(self):
        p = dyn.ModelParams()
        assert p.allocation_body is p.allocation_body
        assert not p.allocation_body.flags.writeable
        # the gravity vectors too, shared by every tick's terms
        plant, control, _ = dyn.model_terms(np.zeros(3), np.zeros(3), p)
        assert plant[2] is control[2] is p.gravity[1]
        assert not any(G.flags.writeable for G in p.gravity)
        mismatch = dyn.ModelParams(m_hat=3.2)
        plant, control, _ = dyn.model_terms(np.zeros(3), np.zeros(3), mismatch)
        assert plant[2] is mismatch.gravity[0] and control[2] is mismatch.gravity[1]
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
        assert np.linalg.matrix_rank(plant_at(np.zeros(3), np.zeros(3), p).B) == 6

    def test_conditioning_over_envelope(self, rng):
        p = dyn.ModelParams()
        for phi in envelope_attitudes(rng):
            assert np.linalg.cond(plant_at(phi, np.zeros(3), p).B) < 1e4

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
            terms = control_at(phi, rng.normal(size=3), p)
            close(terms.MinvB, np.linalg.solve(terms.M, terms.B), np.linalg.cond(terms.M))
            close(terms.Binv, np.linalg.inv(terms.B), np.linalg.cond(terms.B))


def zeros_step(x, params, T=np.zeros(6), theta_d=(0.0,) * 3, d=np.zeros(6), dt=0.005):
    """dyn.step from x on its own plant terms, with zero arm rate references."""
    return dyn.step(x, plant_terms(x, params), T, theta_d, (0.0,) * 3, (0.0,) * 3, d, dt,
                    params)


class TestStep:
    def test_free_fall(self):
        p = dyn.ModelParams()
        x2 = zeros_step(state(), p, dt=0.002)
        np.testing.assert_allclose(x2[6:9] / 0.002, [0, 0, -p.g], atol=1e-12)
        np.testing.assert_allclose(x2[9:12], np.zeros(3), atol=1e-12)

    def test_gravity_compensating_thrust_keeps_qdot(self, rng):
        p = dyn.ModelParams()
        x = state(q=[0, 0, 1, 0.1, -0.05, 0.3], qdot=[0.2, 0.1, 0.0, 0.02, -0.01, 0.03])
        M, C, G, B = plant_terms(x, p)
        x2 = zeros_step(x, p, T=np.linalg.solve(B, C + G), dt=0.001)
        np.testing.assert_allclose(x2[6:12], x[6:12], atol=1e-12)

    def test_constant_disturbance_acceleration(self):
        p = dyn.ModelParams()
        x = state()
        _, _, G, B = plant_terms(x, p)
        T = np.linalg.solve(B, G)  # hover: cancels gravity exactly
        d = np.zeros(6)
        d[0] = 2.0
        x2 = zeros_step(x, p, T=T, d=d, dt=0.002)
        assert x2[6] / 0.002 == pytest.approx(2.0 / p.m, abs=1e-10)

    def test_momentum_conservation_without_forces(self):
        p = dyn.ModelParams(g=1e-12)  # g must stay positive; effectively zero
        x = state(qdot=[0.3, -0.2, 0.1, 0, 0, 0])
        for _ in range(100):
            before = p.m * x[6:9]
            x = zeros_step(x, p)
            np.testing.assert_allclose(p.m * x[6:9] - before, [0, 0, -p.m * p.g * 0.005],
                                       atol=1e-10)

    def test_step_convergence_under_refinement(self):
        p = dyn.ModelParams(g=1e-12)
        w0 = [0.0, 0.0, 0.0, 0.04, -0.03, 0.05]

        def rollout(dt):
            x = state(qdot=w0)
            for _ in range(int(round(1.0 / dt))):
                x = zeros_step(x, p, dt=dt)
            return x[:12]

        diff = np.abs(rollout(0.004) - rollout(0.002)).max()
        assert diff < 1e-5

    def test_arm_tracks_reference(self):
        p = dyn.ModelParams()
        x = state()
        _, _, G, B = plant_terms(x, p)
        T_hover = np.linalg.solve(B, G)
        target = [0.4, 0.0, -0.2]
        for _ in range(1000):
            x = zeros_step(x, p, T=T_hover, theta_d=target)
        np.testing.assert_allclose(x[12:15], target, atol=1e-3)

    def test_dt_bounds(self, monkeypatch):
        # a mission checks its dt once, before its first step
        s = hz.Scenario(name="dt", world_box=(-5.0, -5.0, 8.0, 8.0), obstacles=[],
                        start=np.zeros(5), goal=np.array([2.0, 0.0, 0.0]),
                        duration=0.05, settle_time=0.05)
        traj = hz.plan(s).traj
        steps = []
        monkeypatch.setattr(dyn, "step", lambda *args: steps.append(args))
        for dt in (0.02, np.nextafter(dyn.DT_MAX, 1.0), 0.0, -0.005, math.nan, math.inf):
            with pytest.raises(ValueError, match="dt must lie in"):
                dyn.check_dt(dt)
            with pytest.raises(ValueError, match="dt must lie in"):
                hz.simulate(dataclasses.replace(s, dt=dt), traj)
        assert steps == []
        dyn.check_dt(dyn.DT_MAX)


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
        return state(q=np.concatenate([rng.uniform(-3.0, 3.0, size=3),
                                       [rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5),
                                        rng.uniform(-math.pi, math.pi)]]),
                     qdot=rng.normal(scale=2.0, size=6),
                     theta=rng.uniform(-1.5, 1.5, size=3),
                     thetadot=rng.normal(scale=1.0, size=3))

    @pytest.mark.parametrize("model", [MISMATCH, {}])
    def test_model_terms_match_array_form(self, rng, model):
        p = dyn.ModelParams(**model)
        for _ in range(1000):
            x = self.random_state(rng)
            # the tick's floats, and arrays
            assert _same(dyn.model_terms(x[3:6].tolist(), x[9:12].tolist(), p),
                         array_model_terms(x[3:6], x[9:12], p))
            assert _same(dyn.model_terms(x[3:6], x[9:12], p),
                         array_model_terms(x[3:6], x[9:12], p))
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
            x = self.random_state(rng)
            plant = plant_terms(x, p)
            # thrusts on both sides of the physical band
            T = rng.uniform(lo - 5.0, hi + 5.0, size=6)
            clipped += int(np.count_nonzero((T < lo) | (T > hi)))
            refs = rng.normal(size=(3, 3))
            d = rng.normal(scale=3.0, size=6)
            dt = rng.uniform(0.0, dyn.DT_MAX) or dyn.DT_MAX
            # the state and the arm's references as the tick's floats, or as arrays
            args = (x.tolist(), plant, T, *refs.tolist(), d) if i % 2 else (x, plant, T, *refs, d)
            got = dyn.step(*args, dt, p)
            assert _same(got, array_step(*args, dt, p))
        assert clipped > 1000

    def test_step_keeps_nan_thrust_an_error(self):
        p = dyn.ModelParams()
        x = state()
        T = np.full(6, hover_thrust(p))
        T[2] = np.nan
        for step in (dyn.step, array_step):
            with pytest.raises(dyn.PlantError):
                step(x, plant_terms(x, p), T, np.zeros(3), np.zeros(3), np.zeros(3),
                     np.zeros(6), 0.005, p)

    def test_step_shares_no_array_with_its_input(self):
        p = dyn.ModelParams()
        x = state()
        plant = plant_terms(x, p)
        T, d = np.zeros(6), np.zeros(6)
        x2 = dyn.step(x, plant, T, np.zeros(3), np.zeros(3), np.zeros(3), d, 0.005, p)
        x2[0] = x2[12] = 1.0
        assert x[0] == 0.0 and x[12] == 0.0
        assert not any(np.shares_memory(x2, a) for a in (x, T, d, *plant))


class TestLinsolve:
    """dynamics.linsolve calls numpy's private LAPACK gufunc for
    np.linalg.solve directly; it keeps np.linalg.solve's bits and its error
    contract, so a numpy that moves or changes the entry fails here."""

    def draws(self, rng):
        for _ in range(300):
            yield rng.standard_normal((6, 6)), rng.standard_normal(6)
            # ill-conditioned: singular values spread over up to 15 decades
            U, _, V = np.linalg.svd(rng.standard_normal((6, 6)))
            s = np.logspace(0.0, -rng.uniform(5.0, 15.0), 6)
            yield (U * s) @ V, rng.standard_normal(6)
            # subnormal entries, and a right-hand side that underflows
            yield (rng.standard_normal((6, 6)) * 1e-310,
                   rng.standard_normal(6) * rng.choice([1.0, 1e-310]))
            n = int(rng.integers(0, 7))
            # the QP's active step: an upper-triangular system, up to 6 x 6
            yield np.triu(rng.standard_normal((n, n))) + 3.0 * np.eye(n), rng.standard_normal(n)

    def test_bit_for_bit_np_linalg_solve(self):
        rng = np.random.default_rng(26)
        for a, b in self.draws(rng):
            try:
                ref = np.linalg.solve(a, b)
            except np.linalg.LinAlgError:
                with pytest.raises(np.linalg.LinAlgError):
                    dyn.linsolve(a, b)
                continue
            got = dyn.linsolve(a, b)
            assert got.dtype == ref.dtype and _same(got, ref)

    @pytest.mark.parametrize("a", [np.zeros((6, 6)), np.ones((6, 6)),
                                   np.diag([1.0, 2.0, 0.0, 4.0, 5.0, 6.0])])
    def test_singular_raises_without_a_warning(self, a):
        # filterwarnings = error makes any warning fail the test too; the
        # caller's error state holds again after the raise
        with np.errstate(invalid="raise"):
            with pytest.raises(np.linalg.LinAlgError):
                dyn.linsolve(a, np.ones(6))
            assert np.geterr()["invalid"] == "raise"
            with pytest.raises(np.linalg.LinAlgError):
                np.linalg.solve(a, np.ones(6))

    def test_nan_input_fails_the_step_as_before(self):
        # a NaN in M or in the right-hand side solves to NaN, as in
        # np.linalg.solve, and step's finiteness check raises PlantError
        p = dyn.ModelParams()
        x = state()
        terms = plant_terms(x, p)
        M = terms[0].copy()
        M[4, 4] = np.nan
        b = np.ones(6)
        assert _same(dyn.linsolve(M, b), np.linalg.solve(M, b))
        d = np.zeros(6)
        d[1] = np.nan
        for bad in ((M, *terms[1:]), terms):
            with pytest.raises(dyn.PlantError):
                dyn.step(x, bad, np.full(6, hover_thrust(p)), np.zeros(3), np.zeros(3),
                         np.zeros(3), d if bad is terms else np.zeros(6), 0.005, p)


class TestEigvalsh:
    """dynamics.eigvalsh calls numpy's private LAPACK gufunc for
    np.linalg.eigvalsh directly, as the planner's Hessian check does; it
    keeps np.linalg.eigvalsh's bits and its error contract."""

    def test_bit_for_bit_np_linalg_eigvalsh(self):
        rng = np.random.default_rng(27)
        signs = set()
        for _ in range(300):
            a = rng.standard_normal((5, 5))
            # indefinite, positive definite, and not symmetric: both read the
            # lower triangle alone
            for m in (0.5 * (a + a.T), a.dot(a.T) + 1e-3 * np.eye(5), a):
                ref = np.linalg.eigvalsh(m)
                got = dyn.eigvalsh(m)
                assert got.dtype == ref.dtype and _same(got, ref)
                signs.add(bool(ref[0] > 0.0))
        assert signs == {False, True}

    @pytest.mark.parametrize("where", [(3, 2), (4, 4), None])
    def test_nan_raises_without_a_warning(self, where):
        # a NaN in the lower triangle of a full symmetric matrix, or all NaN
        a = np.random.default_rng(27).standard_normal((5, 5))
        a = a + a.T
        if where is None:
            a[:] = np.nan
        else:
            a[where] = np.nan
        with np.errstate(invalid="raise"):
            with pytest.raises(np.linalg.LinAlgError):
                dyn.eigvalsh(a)
            assert np.geterr()["invalid"] == "raise"
            with pytest.raises(np.linalg.LinAlgError):
                np.linalg.eigvalsh(a)


class TestQrComplete:
    """dynamics.qr_complete calls numpy's private LAPACK gufuncs for
    np.linalg.qr(..., mode="complete") directly, as the QP's active step
    does, on its operands: 9 rows and 0 to 9 working columns."""

    def test_bit_for_bit_np_linalg_qr(self):
        rng = np.random.default_rng(27)
        for _ in range(300):
            q = int(rng.integers(0, 10))
            a = rng.standard_normal((9, q)) * rng.choice([1.0, 1e-310])
            if q >= 2 and rng.random() < 0.2:
                a[:, -1] = a[:, 0]      # dependent columns
            Q, R = np.linalg.qr(a, mode="complete")
            got_Q, got_R = dyn.qr_complete(a.copy())
            assert _same(got_Q, Q) and _same(got_R, R[:q])

    def test_nan_factors_as_np_linalg_qr_without_a_warning(self):
        a = np.ones((9, 2))
        a[4, 1] = np.nan
        with np.errstate(invalid="raise"):
            Q, R = np.linalg.qr(a, mode="complete")
            got_Q, got_R = dyn.qr_complete(a.copy())
            assert np.geterr()["invalid"] == "raise"
        assert np.isnan(got_Q).any() and _same(got_Q, Q) and _same(got_R, R[:2])
