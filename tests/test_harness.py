"""Scenario loading, metrics fixtures, pipeline invariants and file emission."""

import copy
import dataclasses
import math
import os
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
import yaml

from amplan import control as ctl
from amplan import dynamics as dyn
from amplan import harness as hz
from amplan import planner as pl
from amplan import voronoi as vor
from amplan.geometry import Superquadric2, shape_rows
from amplan.planner import PlannedTrajectory, VehicleGeometry

from oracles import (array_model_terms, array_outer_loop, array_step,
                     array_thrust_limit_rows, dense_min_distance_profile, extrude,
                     part_superquadrics,
                     per_value_telemetry_csv, per_value_trajectory_csv,
                     product_rotation, scalar_target_pose, sq2_boundary, sq2_boundary_samples,
                     sq2_inside_outside, stacked_rk4_dob_update)

SCENARIO_DIR = os.path.join(os.path.dirname(__file__), "..", "scenarios")

BASE = {
    "format": 1,
    "name": "tiny",
    "world_box": [-5.0, -5.0, 8.0, 8.0],
    "obstacles": [{"a1": 0.5, "a2": 0.5, "eps": 1.0, "center": [5.0, 6.0]}],
    "start": [0.0, 0.0, 0.0, 0.0, 0.0],
    "goal": [3.0, 0.0, 0.0],
}

EMPTY = {
    "format": 1,
    "name": "empty",
    "world_box": [-5.0, -5.0, 8.0, 8.0],
    "obstacles": [],
    "start": [0.0, 0.0, 0.0, 0.0, 0.0],
    "goal": [2.0, 0.0, 0.0],
    "duration": 2.0,
    "settle_time": 0.5,
}


def write_scenario(tmp_path, data, name="scenario.yaml"):
    path = tmp_path / name
    path.write_text(yaml.safe_dump(data))
    return str(path)


def empty_scenario():
    return hz.Scenario(name="empty", world_box=(-5.0, -5.0, 8.0, 8.0),
                       obstacles=[], start=np.array(EMPTY["start"]),
                       goal=np.array(EMPTY["goal"]), duration=2.0,
                       settle_time=0.5)


# --- scenario loading ----------------------------------------------------------

def test_load_fills_defaults(tmp_path):
    s = hz.load_scenario(write_scenario(tmp_path, BASE))
    assert s.name == "tiny"
    assert s.dt == 0.005
    assert s.flight_height == 1.0
    assert s.duration == 20.0
    assert s.wind.amplitude == 2.0 and s.wind.axis == 0
    assert s.safety.alpha_co == 5.0
    assert s.safety.t_min == 1.0 and s.safety.t_max == 15.0
    assert len(s.obstacles) == 1 and s.obstacles[0].eps == 1.0


def test_load_missing_field_paths(tmp_path):
    data = copy.deepcopy(BASE)
    del data["start"]
    with pytest.raises(hz.ScenarioError, match=r"start: required field missing"):
        hz.load_scenario(write_scenario(tmp_path, data))

    data = copy.deepcopy(BASE)
    del data["obstacles"][0]["eps"]
    with pytest.raises(hz.ScenarioError,
                       match=r"obstacles\[0\]\.eps: required field missing"):
        hz.load_scenario(write_scenario(tmp_path, data))


def test_load_rejects_wrong_format(tmp_path):
    # format must be the integer 1, obstacles a list
    for key, value in [("format", 99), ("format", "abc"), ("format", [1]),
                       ("format", {"a": 1}), ("format", 1.5), ("format", True),
                       ("obstacles", 5), ("obstacles", True)]:
        data = copy.deepcopy(BASE)
        data[key] = value
        with pytest.raises(hz.ScenarioError, match=f"^{key}: "):
            hz.load_scenario(write_scenario(tmp_path, data))


def test_exponent_notation_loads_as_its_decimal_form(tmp_path):
    # 1e-5 and 1.0e300 are floats in YAML 1.2 but strings to the YAML 1.1 resolver
    text = yaml.safe_dump(BASE)
    paths = []
    for i, (tol, k_min, x0) in enumerate([("1e-5", "1e-7", "1e-3"),
                                          ("0.00001", "0.0000001", "0.001")]):
        path = tmp_path / f"s{i}.yaml"
        path.write_text(text.replace("start:\n- 0.0", f"start:\n- {x0}") + "planner:\n"
                        f"  prerelax_tol: {tol}\n  cond_limit: 1.0e300\n"
                        f"  stiffness: {{k_min: {k_min}}}\n")
        paths.append(str(path))
    exp, dec = (hz.load_scenario(p) for p in paths)
    assert exp.planner.prerelax_tol == dec.planner.prerelax_tol == 1e-5
    assert exp.planner.cond_limit == dec.planner.cond_limit == 1e300
    assert exp.planner.stiffness == dec.planner.stiffness
    assert dec.planner.stiffness.k_min == 1e-7
    assert exp.start.tolist() == dec.start.tolist() == [1e-3, 0.0, 0.0, 0.0, 0.0]


def test_load_rejects_unknown_override(tmp_path):
    # planner.alpha is no field: the proxy angles are closest points, with no rate
    for key, field in (("wind", "speed"), ("planner", "alpha")):
        data = copy.deepcopy(BASE)
        data[key] = {field: 3.0}
        with pytest.raises(hz.ScenarioError, match=rf"{key}\.{field}: unknown field"):
            hz.load_scenario(write_scenario(tmp_path, data))


@pytest.mark.parametrize("edit, message", [
    (lambda d: d.update(durration=99), "durration: unknown field"),
    # gains and model are no scenario fields: the controller and plant keep their defaults
    (lambda d: d.update(gains={"kp": 1.0}), "gains: unknown field"),
    (lambda d: d.update(model={"m": 3.0}), "model: unknown field"),
    (lambda d: d["obstacles"][0].update(angel=0.2), r"obstacles\[0\]\.angel: unknown field"),
])
def test_load_rejects_unknown_field(tmp_path, edit, message):
    data = copy.deepcopy(BASE)
    edit(data)
    with pytest.raises(hz.ScenarioError, match=f"^{message}$"):
        hz.load_scenario(write_scenario(tmp_path, data))


def test_overlapping_obstacles_named(tmp_path):
    data = copy.deepcopy(BASE)
    data["obstacles"] = [
        {"a1": 0.5, "a2": 0.5, "eps": 1.0, "center": [5.0, 6.0]},
        {"a1": 0.5, "a2": 0.5, "eps": 1.0, "center": [5.4, 6.0]},
    ]
    with pytest.raises(hz.ScenarioError, match="obstacles 0 and 1 overlap"):
        hz.load_scenario(write_scenario(tmp_path, data))


def test_obstacle_outside_box_rejected(tmp_path):
    data = copy.deepcopy(BASE)
    data["obstacles"][0]["center"] = [7.9, 6.0]
    with pytest.raises(hz.ScenarioError, match=r"obstacles\[0\].*world_box"):
        hz.load_scenario(write_scenario(tmp_path, data))

    # 0.00005 past xmax on the 256 boundary samples the clearance diagram checks,
    # 0.0001 inside it on 128 samples offset by half a step: load applies the
    # diagram's own test, so this scenario cannot load and then fail in plan
    data["obstacles"][0].update(angle=-math.pi / 128, center=[7.50005, 6.0])
    with pytest.raises(hz.ScenarioError, match=r"obstacles\[0\].*world_box"):
        hz.load_scenario(write_scenario(tmp_path, data))


def test_start_collision_rejected(tmp_path):
    data = copy.deepcopy(BASE)
    data["obstacles"][0]["center"] = [0.2, 0.0]
    with pytest.raises(hz.ScenarioError, match="start: vehicle part"):
        hz.load_scenario(write_scenario(tmp_path, data))


def test_wind_validation(tmp_path):
    for wind, message in (({"period": -1.0}, r"wind\.period: must lie in \[1e-06, inf\), got -1\.0"),
                          ({"axis": 5}, r"wind\.axis: must lie in \[0, 2\], got 5")):
        data = copy.deepcopy(BASE)
        data["wind"] = wind
        with pytest.raises(hz.ScenarioError, match=f"^{message}$"):
            hz.load_scenario(write_scenario(tmp_path, data))


def test_mode_validation():
    s = empty_scenario()
    with pytest.raises(hz.ScenarioError, match="mode"):
        hz._model_obstacles(s, "circle")


# --- circumscribing-ellipse model ----------------------------------------------

def test_ellipse_identity_on_circles():
    circ = Superquadric2(a1=0.4, a2=0.4, eps=1.0, angle=0.0, center=(1.0, 2.0))
    (out,) = hz.ellipse_obstacles([circ])
    assert out.a1 == circ.a1 and out.a2 == circ.a2 and out.eps == 1.0
    assert out.center == circ.center


def test_ellipse_scale_and_containment():
    sq = Superquadric2(a1=0.55, a2=0.35, eps=0.3, angle=0.4, center=(1.0, -2.0))
    (ell,) = hz.ellipse_obstacles([sq])
    scale = 2.0 ** ((1.0 - sq.eps) / 2.0)
    assert ell.a1 == pytest.approx(sq.a1 * scale)
    assert ell.a2 == pytest.approx(sq.a2 * scale)
    assert ell.eps == 1.0 and ell.angle == sq.angle

    pts = sq2_boundary(sq, np.linspace(-math.pi, math.pi, 2000, endpoint=False))
    io = sq2_inside_outside(ell, pts)
    assert io.max() <= 1e-9          # original shape fully contained

    corner = sq2_boundary(sq, np.array([math.pi / 4.0]))
    assert abs(sq2_inside_outside(ell, corner)[0]) < 1e-12   # touches on the diagonal


# --- metrics fixtures ----------------------------------------------------------

def _traj_from_xy(xy, z=None):
    n = len(xy)
    eef = np.column_stack([xy, np.zeros(n)])
    if z is None:
        z = np.zeros((n, 5))
        z[:, :2] = xy
    return PlannedTrajectory(s=np.linspace(0.0, 1.0, n), z=z, eef=eef,
                             u=np.zeros((n, 3)), gammas=np.zeros((n, 0)))


def test_metrics_straight_line_exact():
    xy = np.column_stack([np.linspace(0.0, 5.0, 50), np.zeros(50)])
    rep = hz.metrics(_traj_from_xy(xy), None, empty_scenario(), plan_time=0.1)
    assert rep.arc_length == pytest.approx(5.0, abs=1e-12)
    assert rep.jerkiness == pytest.approx(0.0, abs=1e-12)
    assert math.isinf(rep.min_distance)


def test_metrics_quarter_circle_arc():
    s = np.linspace(0.0, math.pi / 2.0, 400)
    xy = np.column_stack([np.cos(s), np.sin(s)])
    rep = hz.metrics(_traj_from_xy(xy), None, empty_scenario(), plan_time=0.1)
    assert rep.arc_length == pytest.approx(math.pi / 2.0, abs=1e-3)
    assert rep.jerkiness > 0.0


def test_metrics_grazing_clearance():
    # Straight pass under a circular obstacle placed so the closest approach is
    # exactly 0.05 m: the obstacle sits 0.5 + 0.05 above the vehicle's top
    # support point (computed from densely sampled part boundaries).
    geom = VehicleGeometry()
    parts0 = part_superquadrics(geom, np.zeros(5))
    pts = np.vstack([sq2_boundary_samples(p, 4000) for p in parts0])
    i_top = int(pts[:, 1].argmax())
    px_top, py_top = pts[i_top]

    r = 0.5
    obs = Superquadric2(a1=r, a2=r, eps=1.0, angle=0.0,
                        center=(float(px_top), float(py_top) + r + 0.05))

    n = 61
    xs = np.linspace(-1.0, 1.0, n)        # includes the aligned sample x = 0
    z = np.zeros((n, 5))
    z[:, 0] = xs
    traj = _traj_from_xy(np.column_stack([xs, np.zeros(n)]), z=z)

    s = hz.Scenario(name="graze", world_box=(-5.0, -8.0, 5.0, 3.0),
                    obstacles=[obs], start=np.array([0.0, -5.0, 0.0, 0.0, 0.0]),
                    goal=np.array([1.0, -5.0, 0.0]))
    rep = hz.metrics(traj, None, s, plan_time=0.1)
    assert rep.min_distance == pytest.approx(0.05, abs=1e-3)


# --- pipeline invariants -------------------------------------------------------

@pytest.fixture(scope="module")
def empty_run():
    s = empty_scenario()
    return s, hz.run_pipeline(s, "sq")


def test_empty_world_straight_line(empty_run):
    s, (pr, tel, rep) = empty_run
    eef0 = s.vehicle.forward_kinematics_eef(s.start)
    straight = float(np.linalg.norm(np.asarray(s.goal[:2]) - eef0[:2]))
    assert rep.arc_length >= straight - 1e-9
    assert rep.arc_length <= 1.01 * straight
    assert math.isinf(rep.min_distance)
    assert rep.plan_time > 0.0


def test_pipeline_scores_each_plan_once(monkeypatch):
    # run_pipeline checks the plan's clearance on the metric pass it reports;
    # the one other pass scores the flown poses
    scored = []
    profile = hz.min_distance_profile
    monkeypatch.setattr(hz, "min_distance_profile",
                        lambda traj, *args: scored.append(traj) or profile(traj, *args))
    s = dataclasses.replace(empty_scenario(), settle_time=0.05, duration=0.2)
    pr, tel, report = hz.run_pipeline(s)
    assert sum(traj is pr.traj for traj in scored) == 1 and len(scored) == 2
    assert report.total_ticks == len(tel.t) == hz.mission_ticks(s)


def test_pipeline_deterministic(empty_run, tmp_path):
    s, (pr, tel, rep) = empty_run
    pr2, tel2, rep2 = hz.run_pipeline(s, "sq")
    a, b = tmp_path / "a", tmp_path / "b"
    hz.emit(str(a), pr.traj, tel, rep, pr.cells, pr.graph)
    hz.emit(str(b), pr2.traj, tel2, rep2, pr2.cells, pr2.graph)
    for fn in ("trajectory.csv", "telemetry.csv"):
        assert (a / fn).read_bytes() == (b / fn).read_bytes()


def test_tick_bytes_count_what_a_mission_holds():
    # the peak of traced allocations grows by _TICK_BYTES per tick: the
    # telemetry rows, the wind noise and the target schedule
    s = dataclasses.replace(empty_scenario(), settle_time=0.05, duration=0.5,
                            wind=hz.WindProfile(noise_std=0.5))
    traj = hz.plan(s).traj

    def peak(duration):
        mission = dataclasses.replace(s, duration=duration)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            hz.simulate(mission, traj, seed=1)
            return hz.mission_ticks(mission), tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()

    peak(0.5)       # first calls may fill lazily built caches
    (n1, p1), (n2, p2) = peak(0.5), peak(5.5)
    assert n2 - n1 == 1000
    assert hz._TICK_BYTES - 8 < (p2 - p1) / (n2 - n1) <= hz._TICK_BYTES


def test_sample_floats_count_what_a_plan_holds(tmp_path):
    # plan_samples sizes the trajectory's arrays: per sample, _SAMPLE_FLOATS
    # floats and the 2P proxy angles, P = 8 parts x 1 obstacle
    s = dataclasses.replace(hz.load_scenario(write_scenario(tmp_path, BASE)),
                            planner=hz.PlannerParams(n_s=40))
    traj = hz.plan(s).traj
    n = hz.plan_samples(s)
    assert len(traj.s) == n == 41
    held = sum(a.nbytes for a in (traj.s, traj.z, traj.eef, traj.u, traj.gammas,
                                  traj.residuals))
    assert held == n * 8 * (hz._SAMPLE_FLOATS + 2 * 8)


def test_flight_matches_array_forms(monkeypatch):
    # the tick's float layers, its np.dot products and the direct arm
    # rotations reproduce the array forms' telemetry byte for byte, on a
    # flight among the tree's obstacles (the arm frames enter the far-pair
    # bound), on the same flight without them, and on a controller whose
    # nominal mass and inertia are not the plant's (the plant's own terms)
    s = hz.load_scenario(os.path.join(SCENARIO_DIR, "tree.yaml"))
    s = dataclasses.replace(s, settle_time=0.5, duration=3.0,
                            wind=dataclasses.replace(s.wind, noise_std=0.5))
    mismatch = dyn.ModelParams(m_hat=3.2, J_hat=np.diag([0.05, 0.06, 0.1]))
    scenes = [s, dataclasses.replace(s, obstacles=[]), dataclasses.replace(s, model=mismatch)]
    assert not mismatch.nominal_is_true
    trajs = [hz.plan(scene).traj for scene in scenes]
    fast = [hz.simulate(scene, traj, seed=1) for scene, traj in zip(scenes, trajs)]

    def frames(geom, q, R0, theta):
        R1 = R0 @ product_rotation((0.0, 0.0, theta[0]))
        R2 = R1 @ product_rotation((0.0, -theta[1], -theta[2])).T
        p1 = q[:3] + geom.arm_base_offset * R0[:, 0]
        return np.array([q[:3], p1, p1 + geom.l1 * R1[:, 0]]), np.array([R0, R1, R2])

    def targets(traj, t, duration, height):
        return tuple(map(np.array, zip(*(scalar_target_pose(traj, ti, duration, height)
                                         for ti in t))))

    monkeypatch.setattr(dyn, "model_terms", array_model_terms)
    monkeypatch.setattr(dyn, "step", array_step)
    monkeypatch.setattr(ctl, "dob_update", stacked_rk4_dob_update)
    monkeypatch.setattr(ctl, "thrust_limit_rows", array_thrust_limit_rows)
    monkeypatch.setattr(ctl, "outer_loop", array_outer_loop)
    monkeypatch.setattr(ctl, "vehicle_frames", frames)
    monkeypatch.setattr(hz, "target_pose", targets)
    for scene, traj, tel in zip(scenes, trajs, fast):
        slow = hz.simulate(scene, traj, seed=1)
        assert hz.telemetry_csv(slow) == hz.telemetry_csv(tel)
        for f in dataclasses.fields(hz.Telemetry):
            assert getattr(slow, f.name).tobytes() == getattr(tel, f.name).tobytes(), f.name


def _fly_recording_refreshes(monkeypatch, s, traj, seed):
    """Fly s, recording per tick the refreshed pairs' h at their refreshed
    part-side angles, from the tests' own extruded obstacle; (telemetry,
    {tick: h})."""
    tick, refreshed = [-1], {}
    dob_update, refresh = ctl.dob_update, ctl.ProxyTracker.refresh

    def count_tick(*args):
        tick[0] += 1
        return dob_update(*args)

    def record(tracker, q, theta, pairs=None):
        gap = refresh(tracker, q, theta, pairs)
        frames = ctl.vehicle_frames(s.vehicle, q, dyn.rotation(q[3:]), theta)
        X = ctl.proxy_points(tracker, tracker.gammas[0, pairs], frames, pairs)
        refreshed[tick[0]] = [
            math.log1p(extrude(s.obstacles[tracker.oi[p]], s.safety.obstacle_height)
                       .inside_outside(x)) for p, x in zip(pairs, X)]
        return gap

    monkeypatch.setattr(ctl, "dob_update", count_tick)
    monkeypatch.setattr(ctl.ProxyTracker, "refresh", record)
    return hz.simulate(s, traj, seed=seed), refreshed


def test_h_min_is_the_least_h_of_the_refreshed_pairs(monkeypatch):
    # h_min is inf exactly on the ticks that refresh no pair, and elsewhere
    # the least h of the pairs the tick refreshed: on a noisy tree mission
    # past the trunk, and on a straight flight that grazes a round obstacle
    tree = hz.load_scenario(os.path.join(SCENARIO_DIR, "tree.yaml"))
    tree = dataclasses.replace(tree, settle_time=0.5, duration=8.0,
                               wind=dataclasses.replace(tree.wind, noise_std=0.5))
    line = hz.Scenario(name="sweep", world_box=(-5.0, -5.0, 8.0, 8.0), obstacles=[],
                       start=np.array([0.4, 0.72, 0.0, 0.0, 0.0]),
                       goal=np.array([4.0, 0.72, 0.0]), settle_time=0.5, duration=4.0)
    sweep = dataclasses.replace(line, obstacles=[Superquadric2(0.35, 0.35, 1.0, 0.0, (2.0, 0.0))])
    for s, traj, seed in ((tree, hz.plan(tree).traj, 2), (sweep, hz.plan(line).traj, None)):
        tel, refreshed = _fly_recording_refreshes(monkeypatch, s, traj, seed)
        monkeypatch.undo()
        assert np.array_equal(np.flatnonzero(np.isfinite(tel.h_min)), sorted(refreshed))
        for k, h in refreshed.items():
            assert tel.h_min[k] == pytest.approx(min(h), rel=1e-12)
    assert len(refreshed) > 100


def test_metrics_roundtrip_and_csv_reconstruction(empty_run, tmp_path):
    s, (pr, tel, rep) = empty_run
    out = str(tmp_path / "out")
    hz.emit(out, pr.traj, tel, rep, pr.cells, pr.graph)

    stored = hz.load_metrics(os.path.join(out, "metrics.txt"))
    for name in ("plan_time", "min_distance", "arc_length", "jerkiness",
                 "h_co_min", "flight_min_distance", "thrust_min", "thrust_max"):
        a, b = getattr(stored, name), getattr(rep, name)
        assert a == b or (math.isnan(a) and math.isnan(b))
    assert stored.infeasible_ticks == rep.infeasible_ticks
    assert stored.total_ticks == rep.total_ticks

    traj2 = hz.load_trajectory_csv(os.path.join(out, "trajectory.csv"))
    tel2 = hz.load_telemetry_csv(os.path.join(out, "telemetry.csv"))
    rep2 = hz.metrics(traj2, tel2, s, rep.plan_time)
    for name in ("min_distance", "arc_length", "jerkiness", "h_co_min",
                 "flight_min_distance", "thrust_min", "thrust_max"):
        a, b = getattr(rep2, name), getattr(rep, name)
        if math.isinf(a) or math.isnan(a):
            assert (math.isinf(b) and a == b) or (math.isnan(a) and math.isnan(b))
        else:
            assert a == pytest.approx(b, rel=1e-12, abs=1e-12)


# --- batched scoring passes ----------------------------------------------------

@pytest.fixture(scope="module")
def shipped_plans():
    """(name, mode) -> (scenario, PlanResult) of the shipped scenarios."""
    out = {}
    for name in ("tree", "pillar"):
        s = hz.load_scenario(os.path.join(SCENARIO_DIR, f"{name}.yaml"))
        for mode in ("sq", "ellipse"):
            out[(name, mode)] = (s, hz.plan(s, mode))
    return out


@pytest.mark.parametrize("plan_name", ["tree-sq", "tree-ellipse", "pillar-sq",
                                       "pillar-ellipse", "empty"])
def test_recorded_residuals_match_fresh_fused_pass(shipped_plans, empty_run, plan_name):
    # each recorded residual is |dW/dz| at the stored (z, Gamma, u), bit for
    # bit: the continuation stored the sample its accepting evaluation saw
    if plan_name == "empty":            # no obstacles, so no pairs (P = 0)
        s, (pr, _, _) = empty_run
        mode = "sq"
    else:
        name, mode = plan_name.split("-")
        s, pr = shipped_plans[(name, mode)]
    traj, params = pr.traj, s.planner
    P = traj.gammas.shape[1] // 2
    rows = shape_rows(hz._model_obstacles(s, mode))
    fresh = [np.linalg.norm(pl._fused_derivatives(
        pl._Evaluator(s.vehicle, rows, params.stiffness), params, traj.z[k],
        traj.gammas[k, :P], traj.gammas[k, P:], traj.u[k])[0]) for k in range(len(traj.s))]
    assert pr.grad_norms is traj.residuals
    assert np.array_equal(traj.residuals, fresh)


def test_metric_pass_matches_tracker_chain(shipped_plans):
    # cold-started pairs against the tracker warm-started sample to sample
    for s, pr in shipped_plans.values():
        tracker = ctl.ProxyTracker(s.vehicle, list(s.obstacles), s.safety.obstacle_height)
        chain = [tracker.refresh(np.array([z[0], z[1], 0.0, 0.0, 0.0, z[2]]),
                                 np.array([z[3], 0.0, z[4]])).min() for z in pr.traj.z]
        batched = hz.min_distance_profile(pr.traj, s.vehicle, s.obstacles)
        np.testing.assert_allclose(batched, chain, rtol=0.0, atol=1e-10)


@pytest.mark.parametrize("plan_name", ["tree-sq", "tree-ellipse", "pillar-sq",
                                       "pillar-ellipse", "tree-flight"])
def test_metric_pass_matches_dense_oracle(shipped_plans, plan_name):
    # the pruned pass gives the profile of solving every pair, bit for bit:
    # on each shipped plan, and on every 8th pose the shipped tree mission flew
    name, kind = plan_name.split("-")
    s, pr = shipped_plans[(name, "sq" if kind == "flight" else kind)]
    traj = pr.traj
    if kind == "flight":
        tel = hz.simulate(s, pr.traj)
        traj = SimpleNamespace(z=np.column_stack([tel.q[::8][:, [0, 1, 5]],
                                                  tel.theta[::8][:, [0, 2]]]))
    profile = hz.min_distance_profile(traj, s.vehicle, s.obstacles)
    assert np.array_equal(profile, dense_min_distance_profile(traj.z, s.vehicle, s.obstacles))


def test_metric_pass_matches_dense_oracle_on_random_stacks():
    # random obstacles and configurations among them, so that some samples
    # penetrate (the max(g1, 0) branch of the pruning)
    rng = np.random.default_rng(14)
    geom = VehicleGeometry()
    signs = np.zeros(2, dtype=int)
    for _ in range(5):
        obstacles = [Superquadric2(a1=rng.uniform(0.1, 0.5), a2=rng.uniform(0.1, 0.5),
                                   eps=rng.uniform(0.2, 2.0), angle=rng.uniform(-math.pi, math.pi),
                                   center=tuple(rng.uniform(-1.5, 1.5, 2)))
                     for _ in range(int(rng.integers(1, 7)))]
        z = np.column_stack([rng.uniform(-1.5, 1.5, (40, 2)),
                             rng.uniform(-math.pi, math.pi, (40, 3))])
        dense = dense_min_distance_profile(z, geom, obstacles)
        profile = hz.min_distance_profile(_traj_from_xy(z[:, :2], z), geom, obstacles)
        assert np.array_equal(profile, dense)
        signs += [(dense < 0.0).sum(), (dense > 0.0).sum()]
    assert (signs >= 50).all()


def test_metric_pass_blocks_give_each_sample_its_own_profile(monkeypatch):
    # a stack of two blocks and part of a third (blocks of 16 samples here;
    # the shipped flight's every 8th pose makes two of the real size above),
    # among obstacles that some samples penetrate: each sample's profile is
    # the one it gets alone
    monkeypatch.setattr(hz, "_PROFILE_BLOCK", 16)
    rng = np.random.default_rng(30)
    geom = VehicleGeometry()
    obstacles = [Superquadric2(a1=0.4, a2=0.25, eps=0.3, angle=0.5, center=(0.8, 0.3)),
                 Superquadric2(a1=0.3, a2=0.3, eps=1.0, center=(-0.9, -0.4))]
    n = 2 * 16 + 7
    z = np.column_stack([rng.uniform(-1.5, 1.5, (n, 2)), rng.uniform(-math.pi, math.pi, (n, 3))])
    profile = hz.min_distance_profile(SimpleNamespace(z=z), geom, obstacles)
    alone = np.concatenate([hz.min_distance_profile(SimpleNamespace(z=z[k:k + 1]), geom,
                                                    obstacles) for k in range(n)])
    assert profile.dtype == alone.dtype and profile.shape == alone.shape == (n,)
    assert profile.tobytes() == alone.tobytes()
    assert (profile < 0.0).sum() >= 5 and (profile > 0.0).sum() >= 5


def test_emit_below_a_file_raises_harness_error(empty_run, tmp_path):
    _, (pr, tel, rep) = empty_run
    (tmp_path / "afile").write_text("")
    with pytest.raises(hz.HarnessError, match="cannot create"):
        hz.emit(str(tmp_path / "afile" / "out"), pr.traj, tel, rep)


def test_csv_column_validation(empty_run, tmp_path):
    s, (pr, tel, rep) = empty_run
    out = tmp_path / "out"
    hz.emit(str(out), pr.traj, tel, rep)
    path = out / "trajectory.csv"
    lines = path.read_text().splitlines()
    lines[1] = lines[1] + ",0.0"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(hz.HarnessError, match="columns"):
        hz.load_trajectory_csv(str(path))
    path.write_text("bad header\n1,2,3\n")
    with pytest.raises(hz.HarnessError, match="header"):
        hz.load_trajectory_csv(str(path))


def test_metrics_file_validation(tmp_path):
    p = tmp_path / "metrics.txt"
    p.write_text("amplan metrics v1\nplan_time 0.5\n")
    with pytest.raises(hz.HarnessError, match="missing field"):
        hz.load_metrics(str(p))
    p.write_text("something else\n")
    with pytest.raises(hz.HarnessError, match="unrecognized"):
        hz.load_metrics(str(p))


def test_precision_env_override(empty_run, shipped_plans, monkeypatch, tmp_path):
    _, (pr, tel, rep) = empty_run
    tree = shipped_plans[("tree", "sq")][1]
    rep = copy.copy(rep)
    rep.plan_time = math.pi
    writers = {"metrics": lambda: "\n".join(rep.lines()),
               "trajectory": lambda: hz.trajectory_csv(pr.traj),
               "telemetry": lambda: hz.telemetry_csv(tel),
               "voronoi": lambda: vor.dump_diagram(tree.cells, tree.graph, hz.float_spec())}

    class CountingEnviron(dict):
        reads = 0

        def get(self, key, default=None):
            CountingEnviron.reads += key == "AMPLAN_DIGITS"
            return super().get(key, default)

    monkeypatch.setattr(os, "environ", CountingEnviron(os.environ, AMPLAN_DIGITS="6"))
    assert f"plan_time {format(math.pi, '.6g')}" in writers["metrics"]()
    for write in writers.values():      # every file reads the variable once
        before = CountingEnviron.reads
        row = write().splitlines()[1]
        assert CountingEnviron.reads == before + 1
        assert all(v == format(float(v), ".6g") for v in row.split(" ")[-1].split(","))
    hz.emit(str(tmp_path), tree.traj, None, rep, tree.cells, tree.graph)
    assert (tmp_path / "voronoi.txt").read_text() == writers["voronoi"]()
    for raw, match in (("40", r"\[1, 17\]"), ("abc", "integer")):
        os.environ["AMPLAN_DIGITS"] = raw
        for write in writers.values():
            with pytest.raises(hz.ScenarioError, match=match):
                write()
    del os.environ["AMPLAN_DIGITS"]
    x = 0.1 + 0.2
    rep.plan_time = x
    line = writers["metrics"]().splitlines()[1]
    assert float(line.split()[1]) == x  # 17 significant digits round-trip


@pytest.mark.parametrize("digits", [None, "1", "9", "17"])
def test_trajectory_csv_matches_per_value_formatter(monkeypatch, digits):
    # signed zeros, infinities, NaN, a subnormal and values that round
    # differently at each precision
    rng = np.random.default_rng(27)
    n = 7
    traj = PlannedTrajectory(s=np.linspace(0.0, 1.0, n), z=rng.standard_normal((n, 5)) * 1e3,
                             eef=rng.standard_normal((n, 3)), u=rng.standard_normal((n, 3)) / 3.0,
                             gammas=np.zeros((n, 0)))
    traj.z[0, 0], traj.z[0, 1], traj.eef[2, 2] = -0.0, 0.0, np.inf
    traj.u[3, 0], traj.z[4, 4], traj.s[5] = -np.inf, np.nan, 5e-324
    if digits is None:
        monkeypatch.delenv("AMPLAN_DIGITS", raising=False)
    else:
        monkeypatch.setenv("AMPLAN_DIGITS", digits)
    text = hz.trajectory_csv(traj)
    assert text == per_value_trajectory_csv(traj, f".{digits or 17}g")
    assert text.splitlines()[1].startswith("0,-0,0,")
    assert {"inf", "-inf", "nan"} <= set(text.replace("\n", ",").split(","))
    # the telemetry's rows come from the same writer, its flag column as 0 or 1
    tel = hz.Telemetry(t=traj.s, q=rng.standard_normal((n, 6)) * 1e3,
                       qdot=rng.standard_normal((n, 6)), theta=rng.standard_normal((n, 3)),
                       thrust=rng.standard_normal((n, 6)) / 3.0, d_hat=rng.standard_normal((n, 6)),
                       d_true=rng.standard_normal((n, 6)), h_min=np.full(n, np.inf),
                       feasible=rng.random(n) < 0.5)
    tel.q[0, 0], tel.qdot[1, 2], tel.h_min[2], tel.d_hat[3, 1] = -0.0, np.nan, 0.125, -np.inf
    text = hz.telemetry_csv(tel)
    assert text == per_value_telemetry_csv(tel, f".{digits or 17}g")
    assert text.splitlines()[0] == hz._TEL_HEADER
    assert {ln.rsplit(",", 1)[1] for ln in text.splitlines()[1:]} == {"0", "1"}


def test_metrics_requires_samples():
    xy = np.zeros((2, 2))
    with pytest.raises(hz.HarnessError, match="samples"):
        hz.metrics(_traj_from_xy(xy), None, empty_scenario(), plan_time=0.1)
