"""Exit codes and artifact emission of the command-line interface."""

import copy
import math
import os
import re
import shutil

import pytest
import yaml

from amplan import cli
from amplan.geometry import StiffnessParams

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


def test_bench_table(empty_yaml, capsys):
    assert cli.main(["bench", "--scenario", empty_yaml]) == 0
    out = capsys.readouterr().out
    lines = [ln for ln in out.splitlines() if ln.strip()]
    assert lines[0].startswith("scenario")
    assert len(lines) == 3            # header + sq + ellipse rows
    assert "empty" in lines[1]
    # the continuation's derivative evaluations, one column after plan_time
    col = lines[0].split().index("evals")
    assert all(int(ln.split()[col]) > 0 for ln in lines[1:])


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
    # so far out that the closest-pair objective overflows; its check used to
    # backtrack forever
    data = copy.deepcopy(BASE)
    data["start"] = [1.0e300, 0.0, 0.0, 0.0, 0.0]
    assert cli.main(["plan", "--scenario", write_scenario(tmp_path, data)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: start:")


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
    assert cli.main(["simulate", "--scenario", empty_yaml, "--dt", "0.02"]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: dt")


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
    assert err.count("\n") == 1 and err.startswith("error: n_s: 100000000001 plan samples")


@pytest.mark.parametrize("command", ["plan", "simulate", "bench"])
@pytest.mark.parametrize("ns", ["1", "0"])
def test_ns_below_2_exit_2_before_planning(empty_yaml, no_planning, capsys, command, ns):
    assert cli.main([command, "--scenario", empty_yaml, "--ns", ns]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: --ns: need")


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
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: dt")


@pytest.mark.parametrize("key, overrides", [
    ("safety", {"alpha_co": -1}),
    ("safety", {"t_min": 20}),
    ("safety", {"obstacle_height": 0}),
    ("planner", {"eta": -1}),
    ("planner", {"n_s": 1}),
    ("planner", {"k_tgt": [1, 2]}),
    ("planner", {"stiffness": {"k_min": 1.0, "spring": 2.0}}),
    ("planner", {"stiffness": 3.0}),
    ("planner", {"stiffness": {"d0": math.nan}}),
    ("planner", {"n_s": 400.5}),
    ("planner", {"prerelax_max_iter": 2.5}),
    ("planner", {"k_reg": "abc"}),
    ("planner", {"cond_limit": "abc"}),
    ("planner", {"prerelax_tol": "abc"}),
    ("wind", {"amplitude": "abc"}),
    ("wind", {"axis": 1.0}),
    ("wind", {"noise_std": math.nan}),
    ("safety", {"alpha_co": math.nan}),
    ("safety", {"sigma_co": math.nan}),
    ("goal", [math.nan, 0.0, 0.0]),
    ("world_box", [-5.0, -5.0, math.inf, 8.0]),
    ("planner", {"prerelax_tol": 0.0}),
    ("planner", {"prerelax_tol": -1e-4}),
    ("planner", {"cond_limit": 0.5}),
    ("format", "abc"),
    ("obstacles", 5),
])
def test_out_of_range_override_exit_2_before_planning(tmp_path, no_planning, capsys,
                                                      key, overrides):
    data = copy.deepcopy(EMPTY)
    data[key] = overrides
    path = write_scenario(tmp_path, data)
    assert cli.main(["simulate", "--scenario", path]) == 2
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
