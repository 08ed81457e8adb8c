"""Time per tick of each stage of the closed-loop tick.

Flies one mission through harness.simulate, once plain and once with a
timing wrapper on each module attribute the tick looks up at call time
(dynamics.model_terms, control.dob_update, ...), so the loop that runs is
simulate's own.  Prints the microseconds per tick of each stage, the least
of --repeat runs, and exits 1 unless the timed flight's telemetry equals the
plain flight's byte for byte.  "bookkeeping" is the plain flight's time less
every stage's: the loop itself (the state's floats and views, the thrust
law T = S qdot_d + c and the references' updates), the telemetry writes and
the set-up.  A stage called inside another stage's call counts toward the
outer one (timed_stages), so no time is counted twice: qp.solve within
outer_loop, for one.

    PYTHONPATH=src python tests/tick_profile.py --scenario scenarios/tree.yaml \
        [--open] [--noise-std 0.5] [--seed 1] [--duration 20] [--repeat 3]

--open flies the scene's plan without its obstacles, so no pair exists.
pytest does not collect this file (no test_ prefix).
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import sys
import time

from amplan import control as ctl
from amplan import dynamics as dyn
from amplan import harness as hz

# stage -> the (owner, attribute) pairs whose calls it sums, in tick order
STAGES = {
    "model_terms": [(dyn, "model_terms")],
    "dob_update": [(ctl, "dob_update")],
    "thrust rows": [(ctl, "thrust_limit_rows")],
    "gate": [(ctl.ProxyTracker, "far")],
    "cbf_rows": [(ctl, "cbf_rows")],
    "outer_loop": [(ctl, "outer_loop")],
    "step": [(dyn, "step")],
    "targets": [(hz, "target_pose")],
}


def _timed(fn, stage, spent, depth):
    clock = time.perf_counter

    def wrapper(*args, **kwargs):
        if depth[0]:
            return fn(*args, **kwargs)
        depth[0] = 1
        t0 = clock()
        try:
            return fn(*args, **kwargs)
        finally:
            spent[stage] += clock() - t0
            depth[0] = 0
    return wrapper


@contextlib.contextmanager
def timed_stages(stages):
    """Wrap each (owner, attribute) of stages {stage: [(owner, name), ...]}
    for the duration of the block, which receives the seconds per stage.
    Only outermost calls are timed: a stage called inside another's call
    counts toward the outer stage."""
    spent = dict.fromkeys(stages, 0.0)
    depth = [0]
    saved = []
    for stage, sites in stages.items():
        for owner, name in sites:
            fn = vars(owner)[name]
            saved.append((owner, name, fn))
            setattr(owner, name, _timed(fn, stage, spent, depth))
    try:
        yield spent
    finally:
        for owner, name, fn in saved:
            setattr(owner, name, fn)


def timed_flight(s, traj, seed):
    """(telemetry, seconds per stage) of one flight with every stage wrapped."""
    with timed_stages(STAGES) as spent:
        tel = hz.simulate(s, traj, seed=seed)
    return tel, spent


def plain_flight(s, traj, seed):
    t0 = time.perf_counter()
    tel = hz.simulate(s, traj, seed=seed)
    return tel, time.perf_counter() - t0


def same_telemetry(a, b) -> bool:
    return hz.telemetry_csv(a) == hz.telemetry_csv(b) and all(
        getattr(a, f.name).tobytes() == getattr(b, f.name).tobytes()
        for f in dataclasses.fields(hz.Telemetry))


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--scenario", required=True)
    p.add_argument("--open", action="store_true", help="drop the scene's obstacles")
    p.add_argument("--noise-std", type=float, default=None, help="override wind.noise_std")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--duration", type=float, default=None, help="override duration [s]")
    p.add_argument("--repeat", type=int, default=3)
    args = p.parse_args(argv)

    s = hz.load_scenario(args.scenario)
    if args.open:
        s = dataclasses.replace(s, obstacles=[])
    if args.noise_std is not None:
        s = dataclasses.replace(s, wind=dataclasses.replace(s.wind, noise_std=args.noise_std))
    if args.duration is not None:
        s = dataclasses.replace(s, duration=args.duration)
    traj = hz.plan(s).traj
    n = hz.mission_ticks(s)

    plain_s, spent = float("inf"), dict.fromkeys(STAGES, float("inf"))
    for _ in range(args.repeat):
        plain, seconds = plain_flight(s, traj, args.seed)
        timed, stage_s = timed_flight(s, traj, args.seed)
        if not same_telemetry(plain, timed):
            print("error: the timed flight's telemetry differs from the plain flight's",
                  file=sys.stderr)
            return 1
        plain_s = min(plain_s, seconds)
        spent = {k: min(spent[k], v) for k, v in stage_s.items()}
    spent["bookkeeping"] = plain_s - sum(spent.values())

    us = 1e6 / n
    print(f"{s.name}{' (open)' if args.open else ''}: {n} ticks, least of {args.repeat} "
          f"runs, {plain_s * us:.1f} us per tick")
    print(f"{'stage':<14}{'us/tick':>9}")
    for stage, seconds in spent.items():
        print(f"{stage:<14}{seconds * us:>9.1f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
