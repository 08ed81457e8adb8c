"""Wrap targets for the traced run, and the per-layer metrics derived from them.

Each target is the place where a caller looks the function up at call time,
so the wrapper sees every call the pipeline makes through that site.
"""

from __future__ import annotations

import inspect
import os
import statistics

from recorder import Recorder, Target

CLOSEST_PAIR_MAX_ITER = 200   # used only when the default cannot be read


def _closest_pair_after(max_iter):
    def after(rec, args, kwargs, res):
        cap = kwargs.get("max_iter", max_iter)
        rec.count("geometry.closest_pair.iterations", res.iterations)
        if res.iterations >= cap:
            rec.count("geometry.closest_pair.capped")
            if res.converged:
                rec.count("geometry.closest_pair.misreported")
    return after


def _default_max_iter():
    try:
        from amplan.geometry import closest_pair
        return inspect.signature(closest_pair).parameters["max_iter"].default
    except (ImportError, KeyError, TypeError, ValueError):
        return CLOSEST_PAIR_MAX_ITER


def _cells_after(rec, args, kwargs, cells):
    rec.count("voronoi.cells", len(cells))


def _graph_after(rec, args, kwargs, graph):
    rec.count("voronoi.graph_nodes", len(graph.nodes))
    rec.count("voronoi.graph_edges", len(graph.edges))


def _residuals_after(rec, args, kwargs, res):
    if len(res):
        rec.peak("harness.residual_max", float(max(res)))


def _emit_after(rec, args, kwargs, result):
    out_dir = args[0] if args else kwargs["out_dir"]
    rec.count("harness.emit.bytes",
              sum(os.path.getsize(os.path.join(out_dir, f)) for f in os.listdir(out_dir)))


def _refresh_after(rec, args, kwargs, proxies):
    rec.count("control.refresh.pairs", len(proxies))


def _cbf_after(rec, args, kwargs, out):
    rows = int(out[0].shape[0])
    rec.count("control.cbf_rows.rows", rows)
    rec.count("control.cbf_rows.culled", len(out[2]) - rows)


def _qp_after(rec, args, kwargs, sol):
    rec.count("qp.solve.iterations", sol.iterations)
    rec.count("qp.solve.active_rows", len(sol.active_set))
    if sol.status != "optimal":
        rec.count("qp.solve.nonoptimal")


def targets() -> list[Target]:
    cp = _closest_pair_after(_default_max_iter())
    return [
        # harness: entry points the benchmark calls, and their inner stages
        Target("amplan.harness:load_scenario", "harness.load_scenario"),
        Target("amplan.harness:plan", "harness.plan"),
        Target("amplan.harness:metrics", "harness.metrics"),
        Target("amplan.harness:emit", "harness.emit", _emit_after),
        Target("amplan.harness:simulate", "harness.simulate"),
        Target("amplan.harness:equilibrium_residuals", "harness.equilibrium_residuals",
               _residuals_after),
        Target("amplan.harness:min_distance_profile", "harness.min_distance_profile"),
        Target("amplan.harness:trajectory_csv", "harness.trajectory_csv"),
        Target("amplan.harness:telemetry_csv", "harness.telemetry_csv"),
        # geometry: the scalar closest-pair solver, at each module that calls it
        Target("amplan.harness:closest_pair", "geometry.closest_pair", cp),
        Target("amplan.control:closest_pair", "geometry.closest_pair", cp),
        Target("amplan.planner:closest_pair", "geometry.closest_pair", cp),
        Target("amplan.voronoi:closest_pair", "geometry.closest_pair", cp),
        # voronoi
        Target("amplan.voronoi:build_cells", "voronoi.build_cells", _cells_after),
        Target("amplan.voronoi:build_graph", "voronoi.build_graph", _graph_after),
        Target("amplan.voronoi:solve_path", "voronoi.solve_path"),
        Target("amplan.voronoi:dump_diagram", "voronoi.dump_diagram"),
        # planner
        Target("amplan.harness:attractors_from_path", "planner.attractors_from_path"),
        Target("amplan.harness:integrate_em", "planner.integrate_em"),
        Target("amplan.harness:target_pose", "planner.target_pose"),
        Target("amplan.planner:_init_gammas", "planner.init_gammas"),
        Target("amplan.planner:_prerelax", "planner.prerelax"),
        Target("amplan.planner:_fused_derivatives", "planner.derivatives"),
        # control, qp, dynamics: one closed-loop tick
        Target("amplan.control:dob_update", "control.dob_update"),
        Target("amplan.control:ProxyTracker.refresh", "control.ProxyTracker.refresh",
               _refresh_after),
        Target("amplan.control:thrust_limit_rows", "control.thrust_limit_rows"),
        Target("amplan.control:cbf_rows", "control.cbf_rows", _cbf_after),
        Target("amplan.control:outer_loop", "control.outer_loop"),
        Target("amplan.qp:ActiveSetSolver.solve", "qp.solve", _qp_after),
        Target("amplan.control:inner_loop", "control.inner_loop"),
        Target("amplan.dynamics:step", "dynamics.step"),
    ]


def tick_latencies(rec: Recorder) -> list[float]:
    """Seconds per closed-loop tick.

    A tick runs from one ``control.dob_update`` entry (the first call of every
    tick) to the next, and the last tick of a mission ends when ``simulate``
    returns.
    """
    starts: dict[int, list[float]] = {}
    for name, parent, start, _ in rec.spans:
        if name == "control.dob_update" and parent >= 0 \
                and rec.spans[parent][0] == "harness.simulate":
            starts.setdefault(parent, []).append(start)
    out = []
    for sim, entries in starts.items():
        bounds = entries + [rec.spans[sim][3]]
        out.extend(b - a for a, b in zip(bounds, bounds[1:]))
    return out


def _percentile(values, p):
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def layer_metrics(rec: Recorder, dt: float, overhead_frac: float,
                  missing: list[str]) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced operation, as name -> (value, unit)."""
    names = rec.by_name()
    callers = rec.by_caller()
    c = rec.counters

    def calls(n):
        return float(names.get(n, {}).get("calls", 0))

    def time_s(n):
        return names.get(n, {}).get("time_s", 0.0)

    def self_s(n):
        return names.get(n, {}).get("self_s", 0.0)

    def under(parent, n, key="time_s"):
        return callers.get((parent, n), {}).get(key, 0)

    fallbacks = under("control.ProxyTracker.refresh", "geometry.closest_pair", "calls")
    pair_refreshes = c.get("control.refresh.pairs", 0.0)
    rk4 = under("planner.integrate_em", "planner.derivatives", "calls")
    ticks = tick_latencies(rec)

    return {
        "geometry.closest_pair.calls": (calls("geometry.closest_pair"), "count"),
        "geometry.closest_pair.time_s": (time_s("geometry.closest_pair"), "s"),
        "geometry.closest_pair.iterations":
            (c.get("geometry.closest_pair.iterations", 0.0), "count"),
        "geometry.closest_pair.capped": (c.get("geometry.closest_pair.capped", 0.0), "count"),
        "geometry.closest_pair.misreported":
            (c.get("geometry.closest_pair.misreported", 0.0), "count"),
        "control.ProxyTracker.refresh.calls": (calls("control.ProxyTracker.refresh"), "count"),
        "control.ProxyTracker.refresh.self_s": (self_s("control.ProxyTracker.refresh"), "s"),
        "control.refresh.fallbacks": (float(fallbacks), "count"),
        "control.refresh.fallback_s":
            (under("control.ProxyTracker.refresh", "geometry.closest_pair"), "s"),
        "control.refresh.fallback_ratio":
            (fallbacks / pair_refreshes if pair_refreshes else 0.0, "ratio"),
        "planner.integrate_em.time_s": (time_s("planner.integrate_em"), "s"),
        "planner.prerelax.time_s": (time_s("planner.prerelax"), "s"),
        "planner.init_gammas.time_s": (time_s("planner.init_gammas"), "s"),
        "planner.rk4_stages": (float(rk4), "count"),
        "harness.load_scenario.time_s": (time_s("harness.load_scenario"), "s"),
        "harness.plan.time_s": (time_s("harness.plan"), "s"),
        "harness.equilibrium_residuals.time_s": (time_s("harness.equilibrium_residuals"), "s"),
        "harness.residual_max": (c.get("harness.residual_max", 0.0), "norm"),
        "harness.metrics.time_s": (time_s("harness.metrics"), "s"),
        "harness.min_distance_profile.self_s": (self_s("harness.min_distance_profile"), "s"),
        "harness.emit.time_s": (time_s("harness.emit"), "s"),
        "harness.emit.bytes": (c.get("harness.emit.bytes", 0.0), "B"),
        "harness.simulate.time_s": (time_s("harness.simulate"), "s"),
        "voronoi.build_cells.time_s": (time_s("voronoi.build_cells"), "s"),
        "voronoi.build_graph.time_s": (time_s("voronoi.build_graph"), "s"),
        "voronoi.solve_path.time_s": (time_s("voronoi.solve_path"), "s"),
        "voronoi.cells": (c.get("voronoi.cells", 0.0), "count"),
        "voronoi.graph_nodes": (c.get("voronoi.graph_nodes", 0.0), "count"),
        "voronoi.graph_edges": (c.get("voronoi.graph_edges", 0.0), "count"),
        "control.cbf_rows.time_s": (time_s("control.cbf_rows"), "s"),
        "control.cbf_rows.rows": (c.get("control.cbf_rows.rows", 0.0), "count"),
        "control.cbf_rows.culled": (c.get("control.cbf_rows.culled", 0.0), "count"),
        "control.dob_update.time_s": (time_s("control.dob_update"), "s"),
        "control.thrust_limit_rows.time_s": (time_s("control.thrust_limit_rows"), "s"),
        "control.inner_loop.time_s": (time_s("control.inner_loop"), "s"),
        "control.outer_loop.self_s": (self_s("control.outer_loop"), "s"),
        "dynamics.step.time_s": (time_s("dynamics.step"), "s"),
        "qp.solve.calls": (calls("qp.solve"), "count"),
        "qp.solve.time_s": (time_s("qp.solve"), "s"),
        "qp.solve.iterations": (c.get("qp.solve.iterations", 0.0), "count"),
        "qp.solve.active_rows": (c.get("qp.solve.active_rows", 0.0), "count"),
        "qp.solve.nonoptimal": (c.get("qp.solve.nonoptimal", 0.0), "count"),
        "tick.count": (float(len(ticks)), "count"),
        "tick.p50_ms": (1e3 * _percentile(ticks, 50), "ms"),
        "tick.p99_ms": (1e3 * _percentile(ticks, 99), "ms"),
        "tick.deadline_miss_frac":
            (sum(t > dt for t in ticks) / len(ticks) if ticks else 0.0, "ratio"),
        "trace.overhead_frac": (overhead_frac, "ratio"),
        "trace.spans": (float(len(rec.spans)), "count"),
        "trace.missing_targets": (float(len(missing)), "count"),
    }
