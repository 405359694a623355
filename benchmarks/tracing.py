"""Step clock and layer tracer for the machstem benchmark.

Both work by wrapping machstem's public functions and methods from the
outside; nothing inside the package changes.  A wrapped name is replaced
in every loaded ``machstem`` module that holds it, because several
modules import functions by name (``pipeline`` imports
``kxrcf_indicator``, ``positivity_guard``, ``measure_stem``,
``project_between`` and others that way).

``Clock`` is always installed.  It records when each march starts and
ends and when each step of it starts (every marcher calls
``System.stable_dt`` once per step), which is all the end-to-end metrics
need.  ``Tracer`` is installed only for traced operations: it keeps one
span per call into each layer, (name, start, end, parent, run id), in
memory, with per-call counts such as points located or cells flagged.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time

import numpy as np


class Patcher:
    """Replaces attributes and puts the originals back in reverse order."""

    def __init__(self):
        self._undo = []

    def set(self, owner, name, value):
        if isinstance(owner, dict):
            self._undo.append((owner, name, owner[name]))
            owner[name] = value
        else:
            self._undo.append((owner, name, owner.__dict__[name]))
            setattr(owner, name, value)

    def set_everywhere(self, module, name, value):
        """Replace ``module.name`` and every machstem module's alias of it."""
        original = getattr(module, name)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name.split(".")[0] == "machstem" and mod is not None:
                if mod.__dict__.get(name) is original:
                    self.set(mod, name, value)

    def restore(self):
        while self._undo:
            owner, name, value = self._undo.pop()
            if isinstance(owner, dict):
                owner[name] = value
            else:
                setattr(owner, name, value)


# ---------------------------------------------------------------------------
# step clock (end-to-end metrics)


class Clock:
    """March start/end times and step start times of the current operation."""

    def __init__(self):
        self.marches = []        # [start, end, [step starts]]
        self._patcher = Patcher()

    def install(self):
        from machstem import timestepping

        clock = self
        stable_dt = timestepping.System.stable_dt

        @functools.wraps(stable_dt)
        def stamped_stable_dt(system, *args, **kwargs):
            if clock.marches and clock.marches[-1][1] is None:
                clock.marches[-1][2].append(time.perf_counter())
            return stable_dt(system, *args, **kwargs)

        self._patcher.set(timestepping.System, "stable_dt", stamped_stable_dt)
        for name in ("march_to_steady", "advance_time"):
            self._patcher.set_everywhere(
                timestepping, name, self._timed(getattr(timestepping, name)))

    def _timed(self, fn):
        clock = self

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            entry = [time.perf_counter(), None, []]
            clock.marches.append(entry)
            try:
                return fn(*args, **kwargs)
            finally:
                entry[1] = time.perf_counter()
        return timed

    def uninstall(self):
        self._patcher.restore()

    def reset(self):
        self.marches = []

    def summary(self, op_start):
        """(setup seconds, step durations in ms) of the operation so far.

        Setup is the time spent before each march's first step that is
        not inside an earlier march: grids, geometry, assembly, seed
        projection, and for a pipeline the work between its stages.
        """
        setup = 0.0
        prev_end = op_start
        steps = []
        for start, end, stamps in self.marches:
            first = stamps[0] if stamps else end
            setup += first - prev_end
            prev_end = end
            bounds = stamps + [end]
            steps.extend(1e3 * (b - a) for a, b in zip(bounds, bounds[1:]))
        return setup, steps


# ---------------------------------------------------------------------------
# layer tracer (per-layer metrics)


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _n_points(args, kwargs):
    pts = np.asarray(_arg(args, kwargs, 1, "pts"), float)
    return pts.size // 2


def _file_bytes(args, kwargs):
    try:
        return os.path.getsize(_arg(args, kwargs, 0, "path"))
    except OSError:
        return 0


# counts kept per span: span name -> [(count name, f(args, kwargs, result))]
COUNTERS = {
    "stabilization.kxrcf_indicator": [
        ("flagged_cells", lambda a, k, out: int(np.sum(out[1])))],
    "stabilization.moment_limit": [
        ("limited_cells",
         lambda a, k, out: int(np.sum(_arg(a, k, 2, "flagged"))))],
    "stabilization.positivity_guard": [
        ("repairs", lambda a, k, out: int(out))],
    "timestepping.march_to_steady": [
        ("iterations", lambda a, k, out: int(out.iterations)),
        ("physical_time", lambda a, k, out: float(
            sum(row[3] for row in out.history)))],
    "timestepping.advance_time": [
        ("physical_time", lambda a, k, out: float(out))],
    "overset.locate": [("points", lambda a, k, out: _n_points(a, k))],
    "overset.sampler": [("points", lambda a, k, out: _n_points(a, k))],
    "io.write": [("bytes", lambda a, k, out: _file_bytes(a, k))],
}


class Tracer:
    """Spans of every call into the traced layers, kept in memory."""

    def __init__(self):
        self.spans = []          # [name, start, end, parent index, run id]
        self.counts = {}         # (span index, count name) -> value
        self.run_id = None
        self._stack = []
        self._patcher = Patcher()

    # -- wrapping -------------------------------------------------------
    def _wrap(self, name, fn):
        tracer = self
        counters = COUNTERS.get(name, [])

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(tracer.spans)
            parent = tracer._stack[-1] if tracer._stack else -1
            span = [name, time.perf_counter(), None, parent, tracer.run_id]
            tracer.spans.append(span)
            tracer._stack.append(idx)
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                tracer._stack.pop()
            for key, count in counters:
                tracer.counts[idx, key] = count(args, kwargs, out)
            return out
        return traced

    def _method(self, cls, attr, name):
        self._patcher.set(cls, attr, self._wrap(name, cls.__dict__[attr]))

    def _function(self, module, attr, name):
        self._patcher.set_everywhere(module, attr,
                                     self._wrap(name, getattr(module, attr)))

    def install(self):
        from machstem import (dg, fluxes, io, mesh, overset, pipeline,
                              stabilization, timestepping, wedge)

        self._method(dg.Discretization, "residual", "dg.residual")
        # a Discretization binds its flux once, from the registry, when
        # it is built; blocks built while the tracer is on get the wrapper
        for key, fn in list(fluxes.FLUXES.items()):
            self._patcher.set(fluxes.FLUXES, key,
                              self._wrap("fluxes.flux", fn))
        for fn in ("kxrcf_indicator", "moment_limit", "positivity_guard"):
            self._function(stabilization, fn, f"stabilization.{fn}")
        for meth in ("stable_dt", "max_wave_speed", "density_residual"):
            self._method(timestepping.System, meth, f"timestepping.{meth}")
        for fn in ("march_to_steady", "advance_time"):
            self._function(timestepping, fn, f"timestepping.{fn}")
        self._method(overset.OversetAssembly, "__init__", "overset.assembly")
        self._method(overset.OversetAssembly, "transfer", "overset.transfer")
        self._method(overset.PointLocator, "locate", "overset.locate")
        self._method(overset.CompositeSampler, "states", "overset.sampler")
        self._function(overset, "project_between", "overset.project_between")
        for fn in ("measure_stem", "build_wedge_grid"):
            self._function(wedge, fn, f"wedge.{fn}")
        for fn in ("run_coarse", "run_fine", "fit_shock_paths",
                   "build_aligned_grid"):
            self._function(pipeline, fn, f"pipeline.{fn}")
        for fn in sorted(vars(io)):
            if fn.startswith("write_") and callable(getattr(io, fn)):
                self._function(io, fn, "io.write")
        self._method(io.RunManifest, "record", "io.manifest_record")
        self._method(mesh.GridBlock, "geometry", "mesh.geometry")

    def uninstall(self):
        self._patcher.restore()

    # -- analysis -------------------------------------------------------
    def self_times(self):
        """Span duration minus the part its direct children cover."""
        own = np.array([s[2] - s[1] for s in self.spans])
        out = own.copy()
        for s in self.spans:
            if s[3] >= 0:
                out[s[3]] -= s[2] - s[1]
        return own, out

    def dump(self, path):
        """Write the spans as JSON lines."""
        with open(path, "w") as fh:
            for i, (name, start, end, parent, run) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start": start,
                                     "end": end, "parent": parent,
                                     "run": run}) + "\n")
