"""Span and counter recorder for the traced benchmark run (standard library only).

A span is one call of a wrapped function: its name, the index of the span
that was open when it started (its parent), and its start and end times.
Spans stay in memory until the run ends. A span's self time is its duration
minus the durations of its direct children.

Wrappers are installed at the place where callers look a function up (the
module attribute or class attribute they read at call time), and the original
objects are put back when the ``installed`` context exits. A target that no
longer exists is skipped and reported as missing.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable


class Recorder:
    """In-memory spans ``[name, parent, start, end]`` plus named counters."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []
        self.counters: dict[str, float] = defaultdict(float)
        self._open: list[int] = []

    def enter(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._open[-1] if self._open else -1
        self.spans.append([name, parent, self.clock(), None])
        self._open.append(idx)
        return idx

    def exit(self, idx: int) -> None:
        self.spans[idx][3] = self.clock()
        top = self._open.pop()
        if top != idx:
            raise RuntimeError(f"span {self.spans[idx][0]!r} closed out of order")

    @contextlib.contextmanager
    def span(self, name: str):
        idx = self.enter(name)
        try:
            yield
        finally:
            self.exit(idx)

    def count(self, name: str, value: float = 1.0) -> None:
        self.counters[name] += value

    def peak(self, name: str, value: float) -> None:
        self.counters[name] = max(self.counters.get(name, value), value)

    def self_times(self) -> list[float]:
        """Duration of each span minus the durations of its direct children."""
        out = [end - start for (_, _, start, end) in self.spans]
        for (_, parent, start, end) in self.spans:
            if parent >= 0:
                out[parent] -= end - start
        return out

    def by_caller(self) -> dict[tuple[str, str], dict]:
        """Calls, total and self seconds per (parent name, name)."""
        selfs = self.self_times()
        table: dict[tuple[str, str], dict] = {}
        for k, (name, parent, start, end) in enumerate(self.spans):
            pname = self.spans[parent][0] if parent >= 0 else "-"
            row = table.setdefault((pname, name),
                                   {"calls": 0, "time_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["time_s"] += end - start
            row["self_s"] += selfs[k]
        return table

    def by_name(self) -> dict[str, dict]:
        """Calls, total and self seconds per span name, over all callers."""
        out: dict[str, dict] = {}
        for (_, name), row in self.by_caller().items():
            agg = out.setdefault(name, {"calls": 0, "time_s": 0.0, "self_s": 0.0})
            for key in agg:
                agg[key] += row[key]
        return out


@dataclass(frozen=True)
class Target:
    """One lookup site to wrap.

    ``site`` is ``"module:attr"`` or ``"module:Class.attr"``. ``after`` is
    called as ``after(recorder, args, kwargs, result)`` once the call returns.
    """

    site: str
    span: str
    after: Callable | None = None


def _resolve(site: str):
    """(owner, attribute, function) for a site, or None when it is gone."""
    modname, _, path = site.partition(":")
    try:
        owner = importlib.import_module(modname)
    except ImportError:
        return None
    *parents, attr = path.split(".")
    for part in parents:
        owner = vars(owner).get(part)
        if owner is None:
            return None
    fn = vars(owner).get(attr)
    if not inspect.isfunction(fn):
        return None
    return owner, attr, fn


def _wrap(rec: Recorder, target: Target, fn):
    name, after = target.span, target.after

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        idx = rec.enter(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            rec.exit(idx)
        if after is not None:
            after(rec, args, kwargs, result)
        return result

    return wrapper


@contextlib.contextmanager
def installed(rec: Recorder, targets):
    """Wrap every target that exists; yields the list of missing sites.

    The original functions are restored on exit, also when the body raises.
    """
    saved, missing = [], []
    try:
        for t in targets:
            found = _resolve(t.site)
            if found is None:
                missing.append(t.site)
                continue
            owner, attr, fn = found
            saved.append((owner, attr, fn))
            setattr(owner, attr, _wrap(rec, t, fn))
        yield missing
    finally:
        for owner, attr, fn in reversed(saved):
            setattr(owner, attr, fn)
