"""Exit codes and artifact emission of the command-line interface."""

import copy
import math
import os
import re
import shutil
import warnings

import pytest
import yaml

from amplan import cli
from amplan.geometry import GeometryError, StiffnessParams

from test_harness import BASE, EMPTY, SCENARIO_DIR, write_scenario


# seed 1 of the seeded clutter scenes: both modes plan through an obstacle
CLUTTER = os.path.join(os.path.dirname(__file__), "fixtures", "clutter-1.yaml")


@pytest.fixture()
def empty_yaml(tmp_path):
    return write_scenario(tmp_path, EMPTY)


def test_plan_writes_artifacts(empty_yaml, tmp_path, capsys):
    out = tmp_path / "out"
    rc = cli.main(["plan", "--scenario", empty_yaml, "--mode", "sq",
                   "--out", str(out)])
    assert rc == 0
    assert (out / "trajectory.csv").exists()
    assert (out / "metrics.txt").exists()
    assert "amplan metrics v1" in capsys.readouterr().out


def test_simulate_and_metrics_roundtrip(empty_yaml, tmp_path, capsys):
    out = tmp_path / "out"
    assert cli.main(["simulate", "--scenario", empty_yaml,
                     "--out", str(out)]) == 0
    first = capsys.readouterr().out
    assert (out / "telemetry.csv").exists()
    assert cli.main(["metrics", "--scenario", empty_yaml,
                     "--out", str(out)]) == 0
    second = capsys.readouterr().out
    for a, b in zip(first.splitlines()[1:], second.splitlines()[1:]):
        ka, _, va = a.partition(" ")
        kb, _, vb = b.partition(" ")
        assert ka == kb
        if va and va not in ("nan",):
            assert float(va) == pytest.approx(float(vb), rel=1e-12, abs=1e-12)


def test_plan_and_metrics_roundtrip_with_obstacles(tmp_path, capsys):
    # the metric pass scores the trajectory read back from its CSV as it
    # scored the planned one
    tree = os.path.join(SCENARIO_DIR, "tree.yaml")
    out = tmp_path / "out"
    assert cli.main(["plan", "--scenario", tree, "--out", str(out)]) == 0
    planned = capsys.readouterr().out.splitlines()
    assert cli.main(["metrics", "--scenario", tree, "--out", str(out)]) == 0
    rescored = capsys.readouterr().out.splitlines()
    line = [ln for ln in planned if ln.startswith("min_distance ")]
    assert len(line) == 1 and float(line[0].split()[1]) > 0.0
    assert line == [ln for ln in rescored if ln.startswith("min_distance ")]


def test_far_boxy_obstacle_leaves_the_plan_error_as_it_is(tmp_path, capsys):
    # the route past a near circle fails (its Hessian turns indefinite); an
    # eps 0.01 obstacle 7.5 m out, whose F overflows a few metres from it,
    # leaves that one error line as it is, with no overflow warned
    near = [{"a1": 0.2, "a2": 0.2, "eps": 1.0, "center": [1.0, -0.45]}]
    far = [{"a1": 0.1, "a2": 0.1, "eps": 0.01, "center": [7.5, 0.3]}]
    scene = {**BASE, "world_box": [-1.0, -2.0, 8.5, 2.0], "goal": [1.25, 0.0, 0.0]}
    errors = []
    for obstacles in (near, far + near):
        path = write_scenario(tmp_path, {**scene, "obstacles": obstacles})
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert cli.main(["plan", "--scenario", path]) == 3
        out, err = capsys.readouterr()
        assert caught == [] and out == ""
        errors.append(err.splitlines())
    assert len(errors[0]) == 1 and errors[1] == errors[0]


def test_bench_table(empty_yaml, capsys):
    assert cli.main(["bench", "--scenario", empty_yaml]) == 0
    out = capsys.readouterr().out
    lines = [ln for ln in out.splitlines() if ln.strip()]
    assert lines[0].startswith("scenario")
    assert len(lines) == 3            # header + sq + ellipse rows
    assert "empty" in lines[1]
    # the continuation's derivative evaluations, one column after plan_time
    header = lines[0].split()
    col = header.index("evals")
    assert all(int(ln.split()[col]) > 0 for ln in lines[1:])
    # the flight's clearance beside the plan's
    assert header[header.index("min_dist") + 1] == "fly_dist"


def test_missing_file_exit_2(capsys):
    assert cli.main(["plan", "--scenario", "/does/not/exist.yaml"]) == 2


def test_invalid_scenario_exit_2(tmp_path, capsys):
    data = copy.deepcopy(EMPTY)
    del data["goal"]
    path = write_scenario(tmp_path, data)
    assert cli.main(["plan", "--scenario", path]) == 2


def test_unknown_scenario_field_exit_2(tmp_path, capsys):
    # a misspelt field would otherwise load with its default
    data = copy.deepcopy(BASE)
    data["obstacles"] = [{**BASE["obstacles"][0], "center": c}
                         for c in ([5.0, 6.0], [-3.0, 6.0], [6.0, -3.0])]
    data["obstacles"][2]["angel"] = 0.2
    path = write_scenario(tmp_path, data)
    assert cli.main(["plan", "--scenario", path]) == 2
    assert capsys.readouterr().err == "error: obstacles[2].angel: unknown field\n"
    data = copy.deepcopy(EMPTY)
    data["durration"] = 99
    path = write_scenario(tmp_path, data)
    for command in ("plan", "simulate", "bench"):
        assert cli.main([command, "--scenario", path]) == 2
        assert capsys.readouterr().err == "error: durration: unknown field\n"


def test_bad_arguments_exit_2(empty_yaml, capsys):
    assert cli.main(["plan", "--scenario", empty_yaml, "--mode", "oval"]) == 2
    assert cli.main(["frobnicate"]) == 2


def test_bad_dt_exit_2(empty_yaml, capsys):
    assert cli.main(["plan", "--scenario", empty_yaml, "--dt", "-0.1"]) == 2


def test_corrupt_metrics_exit_3(empty_yaml, tmp_path, capsys):
    out = tmp_path / "out"
    assert cli.main(["plan", "--scenario", empty_yaml, "--out", str(out)]) == 0
    capsys.readouterr()
    (out / "metrics.txt").write_text("garbage\n")
    assert cli.main(["metrics", "--scenario", empty_yaml,
                     "--out", str(out)]) == 3


@pytest.fixture(scope="module")
def simulated(tmp_path_factory):
    root = tmp_path_factory.mktemp("simulated")
    scenario = write_scenario(root, EMPTY)
    assert cli.main(["simulate", "--scenario", scenario, "--out", str(root / "out")]) == 0
    return scenario, root / "out"


@pytest.mark.parametrize("fname", ["metrics.txt", "trajectory.csv", "telemetry.csv"])
def test_non_numeric_value_exit_3(simulated, tmp_path, capsys, fname):
    scenario, done = simulated
    out = tmp_path / "out"
    shutil.copytree(done, out)
    lines = (out / fname).read_text().splitlines()
    if fname == "metrics.txt":
        lines = ["arc_length abc" if ln.startswith("arc_length ") else ln for ln in lines]
    else:
        lines[1] = "abc" + lines[1][lines[1].index(","):]
    (out / fname).write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert cli.main(["metrics", "--scenario", scenario, "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error:")


@pytest.mark.parametrize("fname, damage", [("scenario.yaml", "not UTF-8"),
                                           ("trajectory.csv", "a directory"),
                                           ("telemetry.csv", "a directory"),
                                           ("metrics.txt", "not UTF-8")])
def test_unreadable_input_exit_2(simulated, tmp_path, capsys, fname, damage):
    scenario, done = simulated
    out = tmp_path / "out"
    shutil.copytree(done, out)
    scenario = str(shutil.copy(scenario, tmp_path / "scenario.yaml"))
    path = tmp_path / fname if fname == "scenario.yaml" else out / fname
    if damage == "a directory":
        path.unlink()
        path.mkdir()
    else:
        path.write_bytes(b"\xff\xfe" + path.read_bytes())
    capsys.readouterr()
    assert cli.main(["metrics", "--scenario", scenario, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: cannot read")


def test_overflowing_start_exit_2(tmp_path, no_planning, capsys):
    # x = 1e300, where the closest-pair objective overflows (its check once
    # backtracked forever), lies beyond every coordinate's bound
    data = copy.deepcopy(BASE)
    data["start"] = [1.0e300, 0.0, 0.0, 0.0, 0.0]
    assert cli.main(["plan", "--scenario", write_scenario(tmp_path, data)]) == 2
    assert capsys.readouterr().err == "error: start[0]: must lie in [-1e+06, 1e+06], got 1e+300\n"


def test_huge_start_angle_exit_2_before_planning(tmp_path, no_planning, capsys):
    # an arm angle of 1e308 used to reach the planner, whose pre-relaxation
    # stepped the configuration to inf and died in math.cos
    data = copy.deepcopy(BASE)
    data["start"] = [0.0, 0.0, 0.0, 1.0e308, 0.0]
    assert cli.main(["plan", "--scenario", write_scenario(tmp_path, data)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: start[3]:")


@pytest.mark.parametrize("command", ["simulate", "bench"])
def test_uncountable_duration_exit_2_before_planning(tmp_path, no_planning, capsys, command):
    # (settle_time + duration) / dt overflows to inf, whose tick count
    # mission_ticks used to round into an OverflowError
    data = copy.deepcopy(EMPTY)
    data["duration"] = 1e308
    assert cli.main([command, "--scenario", write_scenario(tmp_path, data)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: duration:")


def test_overflowing_trajectory_sample_exit_2(tmp_path, capsys):
    scenario = write_scenario(tmp_path, BASE)
    out = tmp_path / "out"
    assert cli.main(["plan", "--scenario", scenario, "--ns", "20", "--out", str(out)]) == 0
    lines = (out / "trajectory.csv").read_text().splitlines()
    row = lines[5].split(",")
    row[1] = "1e300"                    # the vehicle's x, not the end effector's
    lines[5] = ",".join(row)
    (out / "trajectory.csv").write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert cli.main(["metrics", "--scenario", scenario, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error:")


@pytest.mark.parametrize("command, modes, scenarios", [
    ("plan", ["--mode", "sq"], [CLUTTER]), ("plan", ["--mode", "ellipse"], [CLUTTER]),
    ("simulate", ["--mode", "sq"], [CLUTTER]), ("simulate", ["--mode", "ellipse"], [CLUTTER]),
    # bench plans and checks every scenario in both modes before it flies the first
    ("bench", [], [os.path.join(SCENARIO_DIR, "tree.yaml"), CLUTTER])])
def test_colliding_plan_exit_3_without_files(tmp_path, monkeypatch, capsys, command, modes,
                                             scenarios):
    scored = []
    profile = cli.hz.min_distance_profile
    monkeypatch.setattr(cli.hz, "min_distance_profile",
                        lambda *args: scored.append(1) or profile(*args))

    def simulate(*args, **kwargs):
        raise AssertionError("a mission flew before every plan was checked")

    monkeypatch.setattr(cli.hz, "simulate", simulate)
    out = tmp_path / "out"
    argv = [command, "--out", str(out), *modes]
    assert cli.main(argv + [a for path in scenarios for a in ("--scenario", path)]) == 3
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert re.fullmatch(r"error: the plan collides with an obstacle: min_distance -0\.05768\d* m <= 0\n",
                        err)
    assert not out.exists()
    # one metric pass per plan: tree's two and the colliding one for bench
    assert len(scored) == len(scenarios) * 2 - 1


@pytest.fixture()
def no_planning(monkeypatch):
    def plan(*args, **kwargs):
        raise AssertionError("planning started before validation")
    monkeypatch.setattr(cli.hz, "plan", plan)


def test_dt_above_plant_limit_exit_2_before_planning(empty_yaml, no_planning, capsys):
    # --dt is read with dt's own row, and the error names the flag
    assert cli.main(["simulate", "--scenario", empty_yaml, "--dt", "0.02"]) == 2
    assert capsys.readouterr().err == "error: --dt: must lie in (0, 0.01], got 0.02\n"


@pytest.mark.parametrize("command", ["simulate", "bench"])
def test_mission_too_long_to_hold_exit_2_before_planning(tmp_path, no_planning, capsys,
                                                         command):
    # 2e11 ticks: far more telemetry than any machine's memory holds, so no
    # array is allocated
    data = copy.deepcopy(EMPTY)
    data["duration"] = 1e9
    assert cli.main([command, "--scenario", write_scenario(tmp_path, data)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: duration: 200000000100 ticks")


@pytest.mark.parametrize("command", ["simulate", "bench"])
@pytest.mark.parametrize("noise_std", [0.0, 0.5])
def test_seed_without_wind_noise_is_noted(tmp_path, capsys, command, noise_std):
    # the seed drives only the wind noise: a run without any says so in one
    # stderr note, and its exit code and report are those of the run without
    # the seed (but for the wall-time plan_time)
    data = copy.deepcopy(EMPTY)
    data["wind"] = {"noise_std": noise_std}
    path = write_scenario(tmp_path, data)

    def run(*seed):
        assert cli.main([command, "--scenario", path, *seed]) == 0
        out, err = capsys.readouterr()
        if command == "bench":
            col = out.splitlines()[0].split().index("plan_time")
            return [ln.split()[:col] + ln.split()[col + 1:] for ln in out.splitlines()], err
        return [ln for ln in out.splitlines() if not ln.startswith("plan_time ")], err

    plain, err = run()
    assert err == ""
    seeded, err = run("--seed", "3")
    if noise_std:
        assert err == ""
    else:
        assert err.count("\n") == 1 and err.startswith("note: --seed 3 ")
        assert seeded == plain


@pytest.mark.parametrize("command", ["plan", "simulate", "bench"])
@pytest.mark.parametrize("from_flag", [True, False])
def test_plan_too_large_to_hold_exit_2_before_planning(tmp_path, no_planning, capsys, command,
                                                        from_flag):
    # 1e11 samples: far more trajectory than any machine's memory holds, so
    # no array is allocated; the sample count comes from --ns or the scenario
    data = copy.deepcopy(EMPTY)
    args = ["--ns", "100000000000"] if from_flag else []
    if not from_flag:
        data["planner"] = {"n_s": 100000000000}
    assert cli.main([command, "--scenario", write_scenario(tmp_path, data)] + args) == 2
    err = capsys.readouterr().err
    name = "--ns" if from_flag else "planner.n_s"
    assert err.count("\n") == 1 and err.startswith(f"error: {name}: 100000000001 plan samples")


@pytest.mark.parametrize("command", ["plan", "simulate", "bench"])
@pytest.mark.parametrize("ns", ["1", "0"])
def test_ns_below_2_exit_2_before_planning(empty_yaml, no_planning, capsys, command, ns):
    assert cli.main([command, "--scenario", empty_yaml, "--ns", ns]) == 2
    assert capsys.readouterr().err == f"error: --ns: must lie in [2, inf), got {ns}\n"


@pytest.mark.parametrize("command", ["simulate", "bench"])
def test_negative_seed_exit_2_before_planning(tmp_path, no_planning, capsys, command):
    # the wind noise draws from the seed; a negative one used to fail after the plan
    data = copy.deepcopy(EMPTY)
    data["wind"] = {"noise_std": 0.5}
    path = write_scenario(tmp_path, data)
    assert cli.main([command, "--scenario", path, "--seed", "-1"]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: --seed: ")


@pytest.mark.parametrize("command", ["plan", "simulate", "bench"])
@pytest.mark.parametrize("digits, match", [("abc", "must be an integer"), ("0", r"\[1, 17\]"),
                                           ("40", r"\[1, 17\]")])
def test_bad_digits_exit_2_before_planning(empty_yaml, no_planning, monkeypatch, capsys,
                                           command, digits, match):
    # checked before the scenario loads, not when the outputs are written
    monkeypatch.setenv("AMPLAN_DIGITS", digits)
    assert cli.main([command, "--scenario", empty_yaml]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: AMPLAN_DIGITS ")
    assert re.search(match, err)


def test_ns_override_reaches_planner(empty_yaml, monkeypatch):
    seen = []

    def plan(s, mode="sq"):
        seen.append(s.planner.n_s)
        raise cli.hz.HarnessError("stop after recording")

    monkeypatch.setattr(cli.hz, "plan", plan)
    assert cli.main(["plan", "--scenario", empty_yaml, "--ns", "50"]) == 3
    assert seen == [50]


def test_scenario_dt_above_plant_limit_exit_2(tmp_path, no_planning, capsys):
    data = copy.deepcopy(EMPTY)
    data["dt"] = 0.02
    path = write_scenario(tmp_path, data)
    assert cli.main(["simulate", "--scenario", path]) == 2
    assert capsys.readouterr().err == "error: dt: must lie in (0, 0.01], got 0.02\n"


# (key, its value, the field the error names): every case names the field
# itself, or the element of a list field, not only the section it is in
OVERRIDES = [
    ("safety", {"alpha_co": -1}, "safety.alpha_co"),
    ("safety", {"t_min": 20}, "safety.t_min"),
    ("safety", {"obstacle_height": 0}, "safety.obstacle_height"),
    ("planner", {"eta": -1}, "planner.eta"),
    ("planner", {"n_s": 1}, "planner.n_s"),
    ("planner", {"k_tgt": [1, 2]}, "planner.k_tgt"),
    ("planner", {"stiffness": {"k_min": 1.0, "spring": 2.0}}, "planner.stiffness.spring"),
    ("planner", {"stiffness": 3.0}, "planner.stiffness"),
    ("planner", {"stiffness": {"d0": math.nan}}, "planner.stiffness.d0"),
    ("planner", {"n_s": 400.5}, "planner.n_s"),
    ("planner", {"prerelax_max_iter": 2.5}, "planner.prerelax_max_iter"),
    ("planner", {"k_reg": "abc"}, "planner.k_reg"),
    ("planner", {"cond_limit": "abc"}, "planner.cond_limit"),
    ("planner", {"prerelax_tol": "abc"}, "planner.prerelax_tol"),
    ("wind", {"amplitude": "abc"}, "wind.amplitude"),
    ("wind", {"axis": 1.0}, "wind.axis"),
    ("wind", {"noise_std": math.nan}, "wind.noise_std"),
    ("safety", {"alpha_co": math.nan}, "safety.alpha_co"),
    ("safety", {"sigma_co": math.nan}, "safety.sigma_co"),
    ("goal", [math.nan, 0.0, 0.0], "goal[0]"),
    ("world_box", [-5.0, -5.0, math.inf, 8.0], "world_box[2]"),
    ("planner", {"prerelax_tol": 0.0}, "planner.prerelax_tol"),
    ("planner", {"prerelax_tol": -1e-4}, "planner.prerelax_tol"),
    ("planner", {"cond_limit": 0.5}, "planner.cond_limit"),
    ("format", "abc", "format"),
    ("obstacles", 5, "obstacles"),
    ("planner", {"eta": 1e308}, "planner.eta"),
    ("planner", {"eta": 1e300}, "planner.eta"),
    ("planner", {"k_reg": -1e308}, "planner.k_reg"),
]


@pytest.mark.parametrize("key, overrides", [case[:2] for case in OVERRIDES])
def test_out_of_range_override_exit_2_before_planning(tmp_path, no_planning, capsys,
                                                      key, overrides):
    (path,) = [p for k, o, p in OVERRIDES if (k, repr(o)) == (key, repr(overrides))]
    data = copy.deepcopy(EMPTY)
    data[key] = overrides
    assert cli.main(["simulate", "--scenario", write_scenario(tmp_path, data)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith(f"error: {path}: ")


@pytest.mark.parametrize("edit, path", [
    # a quoted string used to load digit by digit (an element out of range
    # names its index too: world_box[2], obstacles[0].center[1]): "56" as the center (5, 6),
    # "0085" as the box (0, 0, 8, 5)
    (lambda d: d["obstacles"][0].update(center="56"), "obstacles[0].center"),
    (lambda d: d.update(world_box="0085"), "world_box"),
    (lambda d: d["obstacles"][0].update(center=[5.0, 6.0, 1.0]), "obstacles[0].center"),
    (lambda d: d["obstacles"][0].update(center={"x": 5.0, "y": 6.0}), "obstacles[0].center"),
    (lambda d: d["obstacles"][0].update(center=[5.0, "abc"]), "obstacles[0].center"),
    (lambda d: d.update(world_box=[-5.0, -5.0, 8.0]), "world_box"),
    (lambda d: d.update(world_box=8.0), "world_box"),
    # out of range: a world box of 1e308 used to exit 0 or 3 after dozens of
    # overflow warnings, an eps of 1e-3 or less to warn before its error
    (lambda d: d.update(world_box=[-5.0, -5.0, 1e308, 8.0]), "world_box"),
    (lambda d: d.update(world_box=[-1e200, -5.0, 8.0, 8.0]), "world_box"),
    (lambda d: d.update(world_box=[-1e308, -5.0, 8.0, 8.0]), "world_box"),
    (lambda d: d["obstacles"][0].update(eps=1e-3), "obstacles[0].eps"),
    (lambda d: d["obstacles"][0].update(eps=1e-300), "obstacles[0].eps"),
])
def test_center_and_world_box_must_be_lists_exit_2(tmp_path, no_planning, capsys, edit, path):
    data = copy.deepcopy(BASE)
    edit(data)
    for command in ("plan", "simulate"):
        assert cli.main([command, "--scenario", write_scenario(tmp_path, data)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and re.match(rf"error: {re.escape(path)}(\[\d\])?: ", err)


@pytest.mark.parametrize("key", ["flight_height", "duration", "settle_time", "dt"])
@pytest.mark.parametrize("value", [[1.0], "abc", {"a": 1.0}, math.nan])
def test_scalar_field_errors_name_the_field_exit_2(tmp_path, no_planning, capsys, key, value):
    # flight_height: [1] used to report only float()'s own message
    data = copy.deepcopy(EMPTY)
    data[key] = value
    assert cli.main(["simulate", "--scenario", write_scenario(tmp_path, data)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith(f"error: {key}: ")


def test_stiffness_override_mapping_builds_params(tmp_path):
    data = copy.deepcopy(EMPTY)
    data["planner"] = {"stiffness": {"k_min": 1.0}}
    s = cli.hz.load_scenario(write_scenario(tmp_path, data))
    assert s.planner.stiffness == StiffnessParams(k_min=1.0)


@pytest.mark.parametrize("command", ["plan", "simulate", "bench"])
@pytest.mark.parametrize("below", [False, True])
def test_out_at_or_below_a_file_exit_2_before_loading(empty_yaml, tmp_path, monkeypatch,
                                                      capsys, command, below):
    def load(*args, **kwargs):
        raise AssertionError("scenario loaded before --out was checked")

    monkeypatch.setattr(cli.hz, "load_scenario", load)
    afile = tmp_path / "afile"
    afile.write_text("kept\n")
    out = afile / "sub" if below else afile
    assert cli.main([command, "--scenario", empty_yaml, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith(f"error: --out: {afile} exists")
    assert afile.read_text() == "kept\n"


@pytest.mark.parametrize("edit, line", [
    # one number rule everywhere: a quoted number or a boolean used to load
    # at the top level and in an obstacle, and exit 2 only in the sections
    (lambda d: d.update(duration="20"), "duration: must be a number, got '20'"),
    (lambda d: d["obstacles"][0].update(a1="0.5"), "obstacles[0].a1: must be a number, got '0.5'"),
    (lambda d: d["obstacles"][0].update(a1=True), "obstacles[0].a1: must be a number, got True"),
    (lambda d: d.update(flight_height=True), "flight_height: must be a number, got True"),
    (lambda d: d.update(start=[0.0, "1.8", 0.0, 0.0, 0.0]), "start[1]: must be a number, got '1.8'"),
    (lambda d: d.update(planner={"n_s": True}), "planner.n_s: must be an integer, got True"),
    (lambda d: d.update(wind={"axis": "0"}), "wind.axis: must be an integer, got '0'"),
    # and every error names the field, once
    (lambda d: d.update(planner={"eta": -1}), "planner.eta: must lie in (0, 1e+12], got -1"),
    (lambda d: d.update(planner={"stiffness": {"foo": 1}}), "planner.stiffness.foo: unknown field"),
    (lambda d: d.update(start="abcde"), "start: must be a list of 5 numbers, got 'abcde'"),
    (lambda d: d.update(wind={"period": -1}), "wind.period: must lie in [1e-06, inf), got -1"),
    (lambda d: d.update(planner={"k_tgt": [[1, 0, 0], [0, 1, 0], [0, 0, "x"]]}),
     "planner.k_tgt[2][2]: must be a number, got 'x'"),
    (lambda d: d.update(safety={"t_min": 20}), "safety.t_min: must be below safety.t_max = 15, got 20"),
    # magnitudes that used to warn, or fail in flight: an a1 of 1e-160 exited 2
    # with a stiffness message, a goal of 1e200 exited 3 after overflow
    # warnings, a wind of 1e200 failed in flight
    (lambda d: d["obstacles"][0].update(a1=1e-160),
     "obstacles[0].a1: must lie in [1e-06, 1e+06], got 1e-160"),
    (lambda d: d["obstacles"][0].update(a2=1e-160),
     "obstacles[0].a2: must lie in [1e-06, 1e+06], got 1e-160"),
    (lambda d: d.update(goal=[1e200, 0.0, 0.0]), "goal[0]: must lie in [-1e+06, 1e+06], got 1e+200"),
    (lambda d: d.update(goal=[0.0, -1e300, 0.0]),
     "goal[1]: must lie in [-1e+06, 1e+06], got -1e+300"),
    (lambda d: d.update(wind={"amplitude": 1e200}),
     "wind.amplitude: must lie in [-1e+06, 1e+06], got 1e+200"),
    (lambda d: d.update(wind={"noise_std": 1e308}), "wind.noise_std: must lie in [0, 1e+06], got 1e+308"),
    (lambda d: d.update(safety={"alpha_co": 1e200}), "safety.alpha_co: must lie in (0, 1e+12], got 1e+200"),
    (lambda d: d.update(safety={"obstacle_height": 1e-20}),
     "safety.obstacle_height: must lie in [1e-06, 1e+06], got 1e-20"),
])
def test_error_line_names_the_field_exit_2_before_planning(tmp_path, no_planning, capsys, edit,
                                                            line):
    data = copy.deepcopy(BASE)
    edit(data)
    for command in ("plan", "simulate"):
        assert cli.main([command, "--scenario", write_scenario(tmp_path, data)]) == 2
        assert capsys.readouterr().err == f"error: {line}\n"


@pytest.mark.parametrize("command", ["plan", "simulate", "bench"])
def test_mission_without_ticks_exit_2_before_planning(tmp_path, no_planning, capsys, command):
    # 0.001 s holds no tick of 5 ms: the flight's score used to raise on its
    # empty telemetry
    data = copy.deepcopy(EMPTY)
    data.update(settle_time=0, duration=0.001)
    assert cli.main([command, "--scenario", write_scenario(tmp_path, data)]) == 2
    assert capsys.readouterr().err == ("error: duration: settle_time + duration = 0.001 s makes "
                                       "0.2 ticks of 0.005 s; a mission needs at least one, "
                                       "and few enough to count\n")


@pytest.mark.parametrize("name", ["../escaped", "a/b", ".", "..", "", [1, 2], None, 7])
def test_name_is_one_path_component_exit_2(tmp_path, no_planning, capsys, name):
    # bench writes into --out/<name>-<mode>: ../escaped used to write beside
    # --out, [1, 2] to load as "[1, 2]" and null as "None"
    data = copy.deepcopy(EMPTY)
    data["name"] = name
    path = write_scenario(tmp_path, data)
    assert cli.main(["bench", "--scenario", path, "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: name: must be a nonempty string")
    assert os.listdir(tmp_path) == ["scenario.yaml"]


def test_geometry_error_while_running_exit_3(empty_yaml, monkeypatch, capsys):
    # every load-time failure is a ScenarioError; a GeometryError comes from
    # the pipeline, a runtime failure
    def plan(*args, **kwargs):
        raise GeometryError("closest-pair objective is not finite")

    monkeypatch.setattr(cli.hz, "plan", plan)
    assert cli.main(["plan", "--scenario", empty_yaml]) == 3
    assert capsys.readouterr().err == "error: closest-pair objective is not finite\n"


@pytest.mark.parametrize("fname", ["trajectory.csv", "telemetry.csv"])
def test_header_only_csv_exit_3(simulated, tmp_path, capsys, fname):
    # a file of no rows used to raise an IndexError traceback on its columns
    scenario, done = simulated
    out = tmp_path / "out"
    shutil.copytree(done, out)
    (out / fname).write_text((out / fname).read_text().splitlines()[0] + "\n")
    capsys.readouterr()
    assert cli.main(["metrics", "--scenario", scenario, "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: ")
