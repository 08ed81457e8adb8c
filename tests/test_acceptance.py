"""End-to-end acceptance gate.

Ten numbered criteria covering geometry, the clearance diagram, the planner,
the closed-loop safety layer, the disturbance observer, derivative
consistency, the QP solver and the rigid-body model.  Each test prints one
"criterion N (...): PASS/FAIL" line (visible with pytest -s).
"""

import contextlib
import math
import os
import time
from dataclasses import replace

import numpy as np
import pytest

from amplan import control as ctl
from amplan import dynamics as dyn
from amplan import harness as hz
from amplan import planner as pl
from amplan import voronoi as vor
from amplan.geometry import (StiffnessParams, Superquadric2, boundary_points, closest_pairs,
                             shape_rows, stiffness_terms)
from amplan.qp import QpProblem

from oracles import (central_diff_gradient, dob_settling_time, enumerate_shortest_path, extrude,
                     hover_thrust, kkt_residuals, polygon_area, qp_enumeration, qp_solve,
                     sampled_gap, sq2_boundary, sq2_inside_outside)
from test_control import obstacle_frame, proxy_kinematics
from test_planner import scalar_w

SCENARIO_DIR = os.path.join(os.path.dirname(__file__), "..", "scenarios")
SHIPPED = ("tree", "pillar")


@contextlib.contextmanager
def criterion(num, label):
    try:
        yield
    except BaseException:
        print(f"criterion {num} ({label}): FAIL")
        raise
    print(f"criterion {num} ({label}): PASS")


def _rel_close(a, b, tol=1e-4):
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    return np.linalg.norm(a - b) <= tol * max(1.0, np.linalg.norm(b))


# --- shared pipeline fixtures --------------------------------------------------

@pytest.fixture(scope="module")
def shipped():
    return {name: hz.load_scenario(os.path.join(SCENARIO_DIR, f"{name}.yaml"))
            for name in SHIPPED}


@pytest.fixture(scope="module")
def plans(shipped):
    """(name, mode) -> (PlanResult, wall time); plus doubled-resolution runs."""
    out = {}
    for name, s in shipped.items():
        for mode in ("sq", "ellipse"):
            t0 = time.perf_counter()
            pr = hz.plan(s, mode)
            out[(name, mode)] = (pr, time.perf_counter() - t0)
            out[(name, mode, "double")] = hz.plan(
                replace(s, planner=replace(s.planner, n_s=800)), mode)
    return out


@pytest.fixture(scope="module")
def missions(shipped, plans):
    out = {}
    for name, s in shipped.items():
        pr, _ = plans[(name, "sq")]
        t0 = time.perf_counter()
        tel = hz.simulate(s, pr.traj, "sq")
        out[name] = (tel, time.perf_counter() - t0)
    return out


def _random_sq(rng, center):
    return Superquadric2(a1=rng.uniform(0.2, 0.8), a2=rng.uniform(0.2, 0.8),
                         eps=rng.uniform(0.3, 1.0),
                         angle=rng.uniform(-math.pi, math.pi),
                         center=tuple(center))


# --- 1: closest-pair geometry --------------------------------------------------

def test_criterion_1_closest_pair_vs_dense_sampling():
    with criterion(1, "closest pair vs dense sampling"):
        t0 = time.perf_counter()
        rng = np.random.default_rng(101)
        pairs = []
        while len(pairs) < 100:
            ci = rng.uniform(-1.0, 1.0, 2)
            d = rng.uniform(0.8, 3.0)
            ang = rng.uniform(-math.pi, math.pi)
            cj = ci + d * np.array([math.cos(ang), math.sin(ang)])
            sq_i, sq_j = _random_sq(rng, ci), _random_sq(rng, cj)
            if sampled_gap(sq_i, sq_j, 600) > 0.02:
                pairs.append((sq_i, sq_j))  # the gap is defined between disjoint shapes
        side_i, side_j = zip(*pairs)
        gaps = closest_pairs(shape_rows(side_i), shape_rows(side_j)).gap
        for (sq_i, sq_j), gap in zip(pairs, gaps):
            oracle = sampled_gap(sq_i, sq_j, 10_000)
            assert abs(gap - oracle) <= max(1e-3, 0.005 * abs(oracle))

        for _ in range(10):
            sq = _random_sq(rng, rng.uniform(-1.0, 1.0, 2))
            g = rng.uniform(-math.pi, math.pi, 1000)
            p = boundary_points(shape_rows([sq]), g)
            residual = np.abs(sq2_inside_outside(sq, p.T))
            assert residual.max() < 1e-9
        assert time.perf_counter() - t0 < 30.0


# --- 2: clearance diagram ------------------------------------------------------

def test_criterion_2_voronoi_diagram():
    with criterion(2, "clearance diagram"):
        t0 = time.perf_counter()
        rng = np.random.default_rng(202)

        # bisector points are equidistant from the two generating proxy points
        for _ in range(20):
            ci = rng.uniform(-1.0, 1.0, 2)
            cj = ci + rng.uniform(2.2, 4.0) * _unit(rng)
            sq_i, sq_j = _random_sq(rng, ci), _random_sq(rng, cj)
            res = closest_pairs(shape_rows([sq_i]), shape_rows([sq_j]))
            assert res.gap[0] > 0.0
            pi = sq2_boundary(sq_i, res.gammas[0, 0])
            pj = sq2_boundary(sq_j, res.gammas[1, 0])
            hp = vor.bisectors([sq_i, sq_j])[(0, 1)]
            n = np.asarray(hp.normal)
            tang = np.array([-n[1], n[0]])
            for s in np.linspace(-2.0, 2.0, 41):
                p = hp.offset * n + s * tang
                assert abs(np.linalg.norm(p - pi)
                           - np.linalg.norm(p - pj)) <= 1e-6

        # cells tile the world box
        box = (0.0, 0.0, 8.0, 6.0)
        box_area = (box[2] - box[0]) * (box[3] - box[1])
        for k in range(5):
            obstacles = _random_circle_layout(rng, box, n=3)
            cells = vor.build_cells(obstacles, box)
            total = sum(polygon_area(c.vertices) for c in cells)
            assert abs(total - box_area) <= 1e-6 * box_area

        # graph search equals exhaustive enumeration on small graphs
        for k in range(5):
            obstacles = _random_circle_layout(rng, box, n=2)
            graph = vor.build_graph(vor.build_cells(obstacles, box))
            assert len(graph.nodes) <= 12
            edges = [(e.a, e.b, e.weight) for e in graph.edges]
            for src in range(len(graph.nodes)):
                for dst in range(src + 1, len(graph.nodes)):
                    path = vor.solve_path(graph, graph.nodes[src],
                                          graph.nodes[dst])
                    oracle = enumerate_shortest_path(graph.nodes, edges,
                                                     src, dst)
                    assert path.found
                    assert path.cost == pytest.approx(oracle, abs=1e-9)
        assert time.perf_counter() - t0 < 10.0


def _unit(rng):
    a = rng.uniform(-math.pi, math.pi)
    return np.array([math.cos(a), math.sin(a)])


def _random_circle_layout(rng, box, n):
    xmin, ymin, xmax, ymax = box
    # equal radii: the straight bisectors then form the exact point diagram,
    # whose cells tile the box
    r = rng.uniform(0.3, 0.6)
    obstacles = []
    while len(obstacles) < n:
        c = (rng.uniform(xmin + r + 0.1, xmax - r - 0.1),
             rng.uniform(ymin + r + 0.1, ymax - r - 0.1))
        cand = Superquadric2(a1=r, a2=r, eps=1.0, angle=0.0, center=c)
        if np.all(closest_pairs(shape_rows([cand] * len(obstacles)),
                                shape_rows(obstacles)).gap > 0.3):
            obstacles.append(cand)
    return obstacles


# --- 3: planner keeps clear, model ablation orders clearance -------------------

def test_criterion_3_planner_clearance_ordering(shipped, plans):
    with criterion(3, "planner clearance and model ablation"):
        for name, s in shipped.items():
            wall = plans[(name, "sq")][1] + plans[(name, "ellipse")][1]
            t0 = time.perf_counter()
            dist = {}
            for mode in ("sq", "ellipse"):
                pr, _ = plans[(name, mode)]
                dist[mode] = float(hz.min_distance_profile(
                    pr.traj, s.vehicle, s.obstacles).min())
            wall += time.perf_counter() - t0
            assert dist["sq"] > 0.0
            assert dist["ellipse"] <= dist["sq"] + 1e-12
            assert wall < 60.0


# --- 4: planning speed ---------------------------------------------------------

def test_criterion_4_planning_speed(plans):
    with criterion(4, "planning speed"):
        for name in SHIPPED:
            for mode in ("sq", "ellipse"):
                pr, _ = plans[(name, mode)]
                assert pr.plan_time < 1.0


# --- 5: equilibrium tracking ---------------------------------------------------

def test_criterion_5_equilibrium_tracking(plans):
    with criterion(5, "equilibrium manifold tracking"):
        for name in SHIPPED:
            for mode in ("sq", "ellipse"):
                pr, _ = plans[(name, mode)]
                assert float(pr.grad_norms.max()) <= 1e-2
                double = plans[(name, mode, "double")]
                move = np.abs(double.traj.z[-1] - pr.traj.z[-1]).max()
                assert move < 1e-4


# --- 6: closed-loop safety under wind ------------------------------------------

def test_criterion_6_closed_loop_safety(shipped, plans, missions):
    with criterion(6, "closed-loop safety"):
        for name, s in shipped.items():
            tel, wall = missions[name]
            assert wall < 120.0
            assert float(tel.h_min.min()) > 0.0
            # every flown pose clears every obstacle
            assert hz.metrics(plans[(name, "sq")][0].traj, tel, s, 0.0).flight_min_distance > 0.0
            feas = tel.feasible
            frac_infeasible = float((~feas).mean())
            assert frac_infeasible < 1e-3
            thr = tel.thrust[feas]
            assert thr.min() >= s.safety.t_min - 1e-6
            assert thr.max() <= s.safety.t_max + 1e-6


# --- 7: disturbance observer ---------------------------------------------------

def _hover_with_constant_force(force, duration, dt=0.005):
    gains = ctl.GainSet()
    safety = ctl.SafetyParams()
    model = dyn.ModelParams()
    q0 = [0.0, 0.0, 1.0, 0.0, 0.0, 0.0]
    x = np.zeros(18)
    x[:6] = q0
    T, dob = hz._hover(q0, dyn.model_terms(q0[3:], np.zeros(3), model)[1])
    d_true = np.zeros(6)
    d_true[0] = force
    n = int(round(duration / dt))
    t = np.arange(n) * dt
    d_hat_x = np.empty(n)
    for k in range(n):
        xf = x.tolist()
        plant, nominal, _ = dyn.model_terms(xf[3:6], xf[9:12], model)
        dob, d_hat = ctl.dob_update(dob, xf[:6], xf[6:12], T, nominal, gains, dt)
        d_hat_x[k] = d_hat[0]
        _, _, S, c = ctl.thrust_limit_rows(np.array(q0), x[:6], x[6:12], d_hat, nominal, gains,
                                           safety.t_min, safety.t_max)
        T = S.dot(np.zeros(6)) + c
        x = dyn.step(xf, plant, T, [0.0] * 3, [0.0] * 3, [0.0] * 3, d_true, dt, model)
    return t, d_hat_x


def test_criterion_7_disturbance_observer():
    with criterion(7, "disturbance observer"):
        gains = ctl.GainSet(a0=np.eye(6), a1=2.0 * np.eye(6),
                            eps=0.95 * np.eye(6))       # reference tuning
        t_s = dob_settling_time(gains)
        force = 2.0
        t, d_hat_x = _hover_with_constant_force(force, duration=t_s + 3.0)
        tail = d_hat_x[t >= t_s]
        assert np.abs(tail - force).max() <= 0.02 * force

        with pytest.raises(ctl.GainError):
            ctl.GainSet(a0=2.0, a1=2.0)       # a0 / a1^2 = 1/2: unstable edge
        with pytest.raises(ctl.GainError):
            ctl.GainSet(a0=3.0, a1=2.0)


# --- 8: derivative consistency -------------------------------------------------

def test_criterion_8_derivative_suite():
    with criterion(8, "analytic derivatives vs finite differences"):
        rng = np.random.default_rng(808)
        stiff = StiffnessParams()

        d = rng.uniform(-4e-3, 4e-3, 100)
        fd = np.array([(stiffness_terms(x + 1e-6, stiff)[0]
                        - stiffness_terms(x - 1e-6, stiff)[0]) / 2e-6 for x in d])
        an = stiffness_terms(d, stiff)[1]
        assert np.all(np.abs(an - fd) <= 1e-4 * np.maximum(1.0, np.abs(fd)))
        fd = np.array([(stiffness_terms(x + 1e-6, stiff)[1]
                        - stiffness_terms(x - 1e-6, stiff)[1]) / 2e-6 for x in d])
        an = stiffness_terms(d, stiff)[2]
        assert np.all(np.abs(an - fd) <= 1e-4 * np.maximum(1.0, np.abs(fd)))

        # the barrier on the pipeline's constants of each (part, obstacle) pair
        geom = pl.VehicleGeometry()
        P = geom.n_parts
        E = 1e-6 * np.eye(3)
        for _ in range(100):
            sq, height = _random_sq(rng, rng.uniform(-1.0, 1.0, 2)), rng.uniform(1.0, 3.0)
            tracker = ctl.ProxyTracker(geom, [sq], height)      # one pair per part
            obs3 = extrude(sq, height)
            # one point per pair
            dx = (rng.choice([-1.0, 1.0], (P, 3)) * rng.uniform(0.3, 1.5, (P, 3))
                  * [obs3.a1, obs3.a2, obs3.a3])
            h, grad, hess = ctl.h_co_derivs(dx, tracker)
            # h is the log of the inside-outside bracket F + 1
            assert np.expm1(h) == pytest.approx(obs3.inside_outside(obs3.to_world(dx)),
                                                rel=1e-12, abs=1e-12)
            fd_g = np.stack([(ctl.h_co(dx + e, tracker) - ctl.h_co(dx - e, tracker)) / 2e-6
                             for e in E], axis=-1)
            fd_h = np.stack([(ctl.h_co_derivs(dx + e, tracker)[1]
                              - ctl.h_co_derivs(dx - e, tracker)[1]) / 2e-6 for e in E], axis=-1)
            for k in range(P):
                assert _rel_close(grad[k], fd_g[k])
                assert _rel_close(hess[k], fd_h[k])

        for _ in range(100):
            part = int(rng.integers(0, geom.n_parts))
            gamma = rng.uniform(-math.pi, math.pi)
            v0 = np.concatenate([rng.uniform(-1.0, 1.0, 3),
                                 rng.uniform(-0.3, 0.3, 3),
                                 rng.uniform(-1.0, 1.0, 3)])
            sq, height = _random_sq(rng, np.zeros(2)), rng.uniform(1.0, 3.0)
            # lift the vehicle so that the proxy sits a quarter height above the
            # obstacle's mid-plane
            v0[2] += 0.75 * height - proxy_kinematics(geom, part, gamma, v0[:6], v0[6:])[0][2]
            X0, J, _ = proxy_kinematics(geom, part, gamma, v0[:6], v0[6:])
            fd_J = np.column_stack([
                (proxy_kinematics(geom, part, gamma, (v0 + e)[:6], (v0 + e)[6:])[0]
                 - proxy_kinematics(geom, part, gamma, (v0 - e)[:6], (v0 - e)[6:])[0])
                / 2e-6 for e in 1e-6 * np.eye(9)])
            assert _rel_close(J, fd_J)

            # full barrier chain used by the constraint rows: h as a function
            # of (q, theta) through the proxy point and the obstacle pose, with
            # the obstacle moved so the proxy sits at (1.3 a1, 1.1 a2, 0.5 a3)
            # in its frame
            c, s = math.cos(sq.angle), math.sin(sq.angle)
            off = np.array([1.3 * sq.a1, 1.1 * sq.a2])
            center = X0[:2] - np.array([[c, -s], [s, c]]) @ off
            tracker = ctl.ProxyTracker(geom, [replace(sq, center=tuple(center))], height)
            gammas = np.full(P, gamma)

            def h_of(v):
                frames = ctl.vehicle_frames(geom, v[:6], dyn.rotation(v[3:6]), v[6:])
                X = ctl.proxy_points(tracker, gammas, frames, np.arange(P))
                return ctl.h_co(obstacle_frame(tracker, X), tracker)[part]

            frames = ctl.vehicle_frames(geom, v0[:6], dyn.rotation(v0[3:6]), v0[6:])
            X = ctl.proxy_points(tracker, gammas, frames, np.arange(P))
            dx = obstacle_frame(tracker, X)
            np.testing.assert_allclose(dx[part], [*off, height / 4.0], rtol=0, atol=1e-12)
            grad = ctl.h_co_derivs(dx, tracker)[1][part]
            analytic = grad @ tracker.rotation[part].T @ J
            assert _rel_close(analytic, central_diff_gradient(h_of, v0))

        # planner potential gradient
        params = pl.PlannerParams()
        obs = [Superquadric2(a1=0.5, a2=0.4, eps=0.6, angle=0.3, center=(1.6, 0.4))]
        P = geom.n_parts * len(obs)
        ev = pl._Evaluator(geom, shape_rows(obs), params.stiffness)
        for _ in range(100):
            z = np.concatenate([rng.uniform(-1.0, 1.0, 2),
                                rng.uniform(-1.5, 1.5, 1),
                                rng.uniform(-0.8, 0.8, 2)])
            Gp = rng.uniform(-math.pi, math.pi, P)
            Go = rng.uniform(-math.pi, math.pi, P)
            u = np.array([rng.uniform(-1.0, 3.0), rng.uniform(-1.0, 2.0),
                          rng.uniform(-1.5, 1.5)])
            gz = pl._fused_derivatives(ev, params, z, Gp, Go, u)[0]
            fd = central_diff_gradient(
                lambda zz: scalar_w(geom, obs, params, zz, Gp, Go, u),
                z, h=1e-5)
            assert _rel_close(gz, fd)


# --- 9: QP solver --------------------------------------------------------------

def test_criterion_9_qp_solver():
    with criterion(9, "active-set QP solver"):
        t0 = time.perf_counter()
        rng = np.random.default_rng(909)
        for _ in range(50):
            n = int(rng.integers(2, 10))
            m = int(rng.integers(1, 13))
            B = rng.standard_normal((n, n))
            H = B @ B.T + n * np.eye(n)
            g = rng.standard_normal(n)
            A = rng.standard_normal((m, n))
            x_feas = rng.standard_normal(n)
            b = A @ x_feas + rng.uniform(0.1, 1.0, m)
            prob = QpProblem(H=H, g=g, A=A, b=b)
            sol = qp_solve(prob)
            assert sol.status == "optimal"
            primal, stat, comp = kkt_residuals(prob, sol)
            assert primal <= 1e-6 and stat <= 1e-6 and comp <= 1e-6
            obj = 0.5 * sol.x @ H @ sol.x + g @ sol.x
            obj_ref, _ = qp_enumeration(H, g, A, b)
            assert abs(obj - obj_ref) <= 1e-6 * max(1.0, abs(obj_ref))
        assert time.perf_counter() - t0 < 5.0


# --- 10: rigid-body model ------------------------------------------------------

def test_criterion_10_dynamics():
    with criterion(10, "rigid-body model"):
        model = dyn.ModelParams()
        rng = np.random.default_rng(110)

        # free fall: vertical acceleration is exactly -g
        for _ in range(10):
            phi = rng.uniform(-0.5, 0.5, 3)
            M, _, G, _ = dyn.model_terms(phi, np.zeros(3), model)[0]
            qddot = np.linalg.solve(M, -G)
            assert abs(qddot[2] + model.g) < 1e-9

        # generalized force C + G keeps the velocity constant
        x = np.zeros(18)
        x[:6] = 0.2, -0.1, 1.0, 0.05, -0.04, 0.3
        x[6:12] = rng.uniform(-0.5, 0.5, 6)
        x[12:15] = 0.3, 0.0, -0.2
        plant = dyn.model_terms(x[3:6], x[9:12], model)[0]
        M, C, G, B = plant
        T = np.linalg.solve(B, C + G)
        nxt = dyn.step(x.tolist(), plant, T, x[12:15], x[15:], np.zeros(3), np.zeros(6), 0.001,
                       model)
        assert np.abs(nxt[6:12] - x[6:12]).max() < 1e-12

        # hover thrust sits comfortably inside the actuator band
        hover = hover_thrust(model)
        assert hover == pytest.approx(5.925, abs=1e-2)
        assert 1.0 < hover < 15.0
