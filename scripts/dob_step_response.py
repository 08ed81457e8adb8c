#!/usr/bin/env python3
"""Step response of the disturbance observer at hover.

Applies a constant force on one translational axis while the vehicle hovers
under the inner loop, and prints the estimate against the settling time
predicted by the observer's linear filter dynamics.

Usage: python3 scripts/dob_step_response.py [--force 2.0] [--axis 0]
"""

import argparse
import sys

import numpy as np

from amplan import control as ctl
from amplan import dynamics as dyn
from amplan import harness as hz


def run(force: float = 2.0, axis: int = 0, duration: float = 12.0,
        dt: float = 0.005, gains: ctl.GainSet | None = None,
        model: dyn.ModelParams | None = None):
    """Hover under constant disturbance; return (t, d_hat history, d_true)."""
    gains = gains or ctl.GainSet()
    model = model or dyn.ModelParams()
    q0 = np.array([0.0, 0.0, 1.0, 0.0, 0.0, 0.0])
    state = dyn.VehicleState(q=q0)
    terms = dyn.model_terms(q0[3:], np.zeros(3), model, nominal=True)
    dob = hz._dob_rest_state(q0, terms)
    T = np.linalg.solve(terms.B, terms.G)
    d_true = np.zeros(6)
    d_true[axis] = force

    n = int(round(duration / dt))
    times = np.arange(n) * dt
    d_hist = np.zeros((n, 6))
    for k in range(n):
        terms = dyn.model_terms(state.q[3:], state.qdot[3:], model, nominal=True)
        dob, d_hat = ctl.dob_update(dob, state.q, state.qdot, T, terms, gains, dt)
        d_hist[k] = d_hat
        T = ctl.inner_loop(q0, np.zeros(6), state.q, state.qdot, d_hat,
                           terms, gains)
        state = dyn.step(state, T, np.zeros(3), np.zeros(3), np.zeros(3),
                         d_true, dt, model)
    return times, d_hist, d_true


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--force", type=float, default=2.0)
    p.add_argument("--axis", type=int, default=0, choices=(0, 1, 2))
    p.add_argument("--duration", type=float, default=12.0)
    args = p.parse_args()

    gains = ctl.GainSet()
    t_s = ctl.dob_settling_time(gains)
    times, d_hist, d_true = run(args.force, args.axis, args.duration)
    print(f"predicted 2% settling time: {t_s:.3f} s")
    for mark in (0.5, 1.0, 2.0, 4.0, t_s, args.duration - 0.01):
        k = min(len(times) - 1, int(mark / (times[1] - times[0])))
        print(f"t = {times[k]:6.2f} s  d_hat[{args.axis}] = "
              f"{d_hist[k, args.axis]:8.4f} N  (true {args.force:.1f} N)")
    tail = d_hist[times >= t_s, args.axis]
    err = np.max(np.abs(tail - args.force)) / abs(args.force)
    print(f"max relative error after settling: {err:.4%}")
    return 0 if err <= 0.02 else 1


if __name__ == "__main__":
    sys.exit(main())
