"""The command line's input contract, as a property over the scenario fields.

One or two fields of a shipped scene are set to a value of the wrong type or
shape, to a magnitude from 1e-300 to 1e308, to nan or to inf.  Whatever the
file holds, `plan` and a short `simulate` exit 0, 2 (validation) or 3
(runtime); on 2 and 3 they print exactly one stderr line; nothing raises and
nothing warns.
"""

import contextlib
import copy
import io
import math
import os
import warnings

import numpy as np
import pytest
import yaml
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from amplan import cli
from amplan import harness as hz

from test_cli import CLUTTER
from test_harness import SCENARIO_DIR


def _scene(path):
    with open(path) as f:
        return yaml.safe_load(f)


SCENES = {"tree": _scene(os.path.join(SCENARIO_DIR, "tree.yaml")),
          "pillar": _scene(os.path.join(SCENARIO_DIR, "pillar.yaml")),
          "clutter-1": _scene(CLUTTER)}
# tree with the base 0.7 m from the round trunk's centre: its flights refresh
# pairs from the first tick, so the ranges that act only near an obstacle
# (safety.alpha_co, sigma_co, obstacle_height) reach a barrier row
FLIGHT_SCENES = dict(SCENES, near=dict(SCENES["tree"], start=[3.5, 1.6, 0.0, 0.0, 0.0]))
# k_tgt's default, for an edit of one of its entries
K_TGT = [[1600.0, 0.0, 0.0], [0.0, 1600.0, 0.0], [0.0, 0.0, 800.0]]
# a flight of 10 ticks; the fields that set the tick count are edited on plan
# alone, since a drawn duration or dt could make a flight millions of ticks long
SHORT = {"settle_time": 0.0, "duration": 0.05}


def field_paths(table=hz._FIELDS, prefix=()):
    """The path of every field of the table, every element of a list field
    and every field of the first obstacle, containers included."""
    for name, row in table.rows.items():
        path = prefix + (name,)
        yield path
        if isinstance(row.kind, hz._Table):
            yield from field_paths(row.kind, path + ((0,) if row.kind.many else ()))
        elif row.shape:
            yield from (path + index for index in np.ndindex(row.shape))


PATHS = sorted(field_paths(), key=str)
FLIGHT_PATHS = [p for p in PATHS if p[0] not in ("duration", "settle_time", "dt")]

magnitudes = st.builds(lambda sign, exp: sign * 10.0 ** exp, st.sampled_from([1.0, -1.0]),
                       st.floats(-300.0, 308.0))
values = st.one_of(
    magnitudes,
    st.sampled_from([math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, 1.7976931348623157e308,
                     0, 1, -1, 2, 10 ** 400, True, False, None, "", "20", "abc", "../x",
                     [], [1.0], [1.0, 2.0], {"a": 1.0}]),
    st.integers(-1000, 1000),
    st.lists(magnitudes, max_size=6))


def put(data, path, value):
    """data with the field at path set to value, making the tables on the
    way (and k_tgt) where the scene has none."""
    for key, inner in zip(path, path[1:]):
        if isinstance(data, list):
            data.extend({} for _ in range(key + 1 - len(data)))
        below = data[key] if isinstance(data, list) else data.get(key)
        kind = list if isinstance(inner, int) else dict
        if not isinstance(below, kind):
            below = data[key] = copy.deepcopy(K_TGT) if key == "k_tgt" else kind()
        data = below
    if isinstance(data, list):
        data.extend(0.0 for _ in range(path[-1] + 1 - len(data)))
    data[path[-1]] = value


@pytest.fixture(scope="module")
def scenario_path(tmp_path_factory):
    return str(tmp_path_factory.mktemp("contract") / "scenario.yaml")


def run(argv):
    """cli.main's exit code, stderr and recorded warnings; an exception propagates."""
    err = io.StringIO()
    with warnings.catch_warnings(record=True) as caught, contextlib.redirect_stderr(err), \
            contextlib.redirect_stdout(io.StringIO()):
        warnings.simplefilter("always")
        code = cli.main(argv)
    return code, err.getvalue(), [str(w.message) for w in caught]


@settings(max_examples=400, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(flies=st.booleans(), data=st.data())
def test_any_scenario_runs_or_exits_with_one_line(scenario_path, flies, data):
    scenes = FLIGHT_SCENES if flies else SCENES
    raw = copy.deepcopy(scenes[data.draw(st.sampled_from(sorted(scenes)), label="scene")])
    if flies:
        raw.update(SHORT)
    paths = FLIGHT_PATHS if flies else PATHS
    for _ in range(data.draw(st.integers(1, 2), label="edits")):
        put(raw, data.draw(st.sampled_from(paths), label="path"), data.draw(values, label="value"))
    with open(scenario_path, "w") as f:
        yaml.safe_dump(raw, f)
    code, err, caught = run(["simulate" if flies else "plan", "--scenario", scenario_path,
                             "--ns", "6"])
    assert code in (0, 2, 3)
    assert caught == []
    if code:
        assert err.count("\n") == 1 and err.startswith("error: ")


def test_near_scene_flight_refreshes_pairs(scenario_path):
    # the property's near scene reaches the barrier rows: its short flight
    # refreshes a pair (a finite h_min), so that coverage cannot lapse unseen
    with open(scenario_path, "w") as f:
        yaml.safe_dump(dict(FLIGHT_SCENES["near"], **SHORT), f)
    _, tel, _ = hz.run_pipeline(hz.load_scenario(scenario_path, ns=6))
    assert len(tel.t) == 10 and np.isfinite(tel.h_min).any()
