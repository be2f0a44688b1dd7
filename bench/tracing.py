"""Span tracing of surfield's layers, installed from outside the program.

Modules import functions by name, so a function is wrapped in the namespace
of each module that looks it up (``inference.lkc_compute``,
``lkc.metric_on_grid``, ``geometry.smooth_on_grid``, ``cli.read_srf1``, ...)
and the span is named after the module that defines it.  Cross-module
lookups are wrapped generically; calls within a module are not, except for
the stages of the replication harness and the entry points the benchmark
calls itself (``ENTRY_POINTS``).  ``GaussianKernel`` methods are wrapped on
the class, and the multistart ascent at ``scipy.optimize.minimize`` as
``inference`` sees it.

Spans (name, start, end, parent, phase) are kept in memory and written out
when the run ends; self time is a span's duration minus the durations of its
direct children.
"""
from __future__ import annotations

import importlib
import json
import time
import types
from collections import defaultdict
from pathlib import Path

import numpy as np

LAYERS = ("lattice", "kernel", "surf", "manifold", "geometry", "lkc", "inference", "fieldio", "cli")

# Functions wrapped in their own module's namespace: the harness stages
# fwer_experiment calls within inference, and what the benchmark calls.
ENTRY_POINTS = {
    "inference": ("fwer_experiment", "threshold", "count_local_maxima_above", "maximize_t_field"),
    "lkc": ("lkc_compute",),
    "manifold": ("refined_grid",),
    "cli": ("main",),
}
KERNEL_METHODS = ("pairwise_value", "pairwise_gradient", "pairwise_hessian", "axis_factor")
DISTINCT_TOL = 1e-4  # ascent end points closer than this (max-norm) are one point


class Tracer:
    """In-memory span recorder with per-phase counters."""

    def __init__(self):
        self.names: list[str] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.parent: list[int] = []
        self.phases: list[str] = []
        self.counters: dict[tuple[str, str], float] = defaultdict(float)
        self.phase = "setup"
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self._ascent_ends: list[list[np.ndarray]] = []

    # -- recording -------------------------------------------------------------

    def count(self, name: str, value: float = 1.0) -> None:
        self.counters[(self.phase, name)] += value

    def wrap(self, name: str, fn, on_result=None, on_enter=None, on_exit=None):
        def traced(*args, **kwargs):
            i = len(self.names)
            self.names.append(name)
            self.parent.append(self._stack[-1] if self._stack else -1)
            self.phases.append(self.phase)
            self.end.append(float("nan"))
            self._stack.append(i)
            if on_enter is not None:
                on_enter()
            self.start.append(time.perf_counter())
            try:
                out = fn(*args, **kwargs)
            finally:
                self.end[i] = time.perf_counter()
                self._stack.pop()
                if on_exit is not None:
                    on_exit()
            if on_result is not None:
                on_result(out)
            return out

        return traced

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    # -- installation ------------------------------------------------------------

    def install(self) -> None:
        """Wrap every layer boundary; ``uninstall`` restores the originals."""
        mods = {name: importlib.import_module(f"surfield.{name}") for name in LAYERS}
        hooks = {
            "lkc.lkc_compute": dict(on_result=lambda v: self.count(
                "lkc.psd_repaired_points", v.diagnostics.get("psd_repaired_points", 0))),
            "manifold.refined_grid": dict(on_result=self._grid_built),
            "inference.maximize_t_field": dict(
                on_enter=lambda: self._ascent_ends.append([]), on_exit=self._maximize_done),
        }
        for layer, mod in mods.items():
            own = ENTRY_POINTS.get(layer, ())
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or not isinstance(obj, types.FunctionType):
                    continue
                home = obj.__module__.rpartition(".")[2]
                if obj.__module__.startswith("surfield.") and (home != layer or attr in own):
                    name = f"{home}.{obj.__name__}"
                    self._patch(mod, attr, self.wrap(name, obj, **hooks.get(name, {})))
        kernel_cls = mods["kernel"].GaussianKernel
        for meth in KERNEL_METHODS:
            fn = getattr(kernel_cls, meth)
            hook = self._pairwise_elems if meth in ("pairwise_value", "pairwise_gradient") else None
            self._patch(kernel_cls, meth, self.wrap(f"kernel.{meth}", fn, on_result=hook))
        sciopt = mods["inference"]._sciopt
        minimize = self.wrap("inference.ascent", sciopt.minimize, on_result=self._ascent_done)
        self._patch(mods["inference"], "_sciopt", _OptimizeView(sciopt, minimize))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, value = self._patches.pop()
            setattr(owner, attr, value)

    # -- counters ----------------------------------------------------------------

    def _pairwise_elems(self, arr) -> None:
        self.count("kernel.pairwise.elems", arr.size)

    def _grid_built(self, grid) -> None:
        self.count("manifold.refined_grid.points", grid.n_points)
        self.count("manifold.refined_grid.nbytes", _nbytes(vars(grid)))

    def _ascent_done(self, res) -> None:
        self.count("inference.ascent.starts")
        if self._ascent_ends:
            self._ascent_ends[-1].append(np.asarray(res.x, dtype=np.float64).copy())

    def _maximize_done(self) -> None:
        distinct: list[np.ndarray] = []
        for x in self._ascent_ends.pop():
            if not any(np.max(np.abs(x - y)) <= DISTINCT_TOL for y in distinct):
                distinct.append(x)
        self.count("inference.ascent.distinct", len(distinct))

    # -- results -----------------------------------------------------------------

    def self_times(self) -> np.ndarray:
        """Per-span duration minus the durations of its direct children (s)."""
        dur = np.asarray(self.end) - np.asarray(self.start)
        parent = np.asarray(self.parent, dtype=np.int64)
        child = parent >= 0
        covered = np.zeros_like(dur)
        np.add.at(covered, parent[child], dur[child])
        return dur - covered

    def root_total(self) -> float:
        dur = np.asarray(self.end) - np.asarray(self.start)
        return float(dur[np.asarray(self.parent) < 0].sum())

    def write(self, path: Path) -> None:
        with open(path, "w") as fh:
            for i, name in enumerate(self.names):
                fh.write(json.dumps({
                    "id": i, "name": name, "start": self.start[i], "end": self.end[i],
                    "parent": self.parent[i], "phase": self.phases[i],
                }) + "\n")

    def layer_metrics(self, n_ops: int) -> dict[str, tuple[float, str]]:
        """Per-operation metrics of the "ops" phase; ``manifold.refined_grid.*``
        are per grid build instead, set-up builds included."""
        names = np.asarray(self.names, dtype=object)
        ops = np.asarray(self.phases, dtype=object) == "ops"
        self_ms = self.self_times() * 1e3

        def span_ms(prefix: str, mask=ops) -> float:
            sel = mask & np.array([n == prefix or n.startswith(prefix + ".") for n in names], bool)
            return float(self_ms[sel].sum())

        def calls(name: str, mask=ops) -> int:
            return int(np.sum(mask & (names == name)))

        def ctr(name: str) -> float:
            return self.counters.get(("ops", name), 0.0)

        out: dict[str, tuple[float, str]] = {}
        for name in (
            "inference.maximize_t_field", "inference.ascent", "inference.threshold",
            "inference.count_local_maxima_above", "surf.t_field", "surf.t_field_on_grid",
            "surf.smooth_on_grid", "lattice.sample_ensemble", "geometry.metric_on_grid",
            "geometry.sqrt_det_psd", "geometry.sqrt_det_sub", "geometry.theta_batch",
            "manifold.euler_characteristic", "lkc.lkc_compute", "fieldio.read_srf1", "cli.main",
        ):
            out[f"{name}.self_ms"] = (span_ms(name) / n_ops, "ms")
        for name in ("surf.t_field", "manifold.euler_characteristic", "fieldio.read_srf1"):
            out[f"{name}.calls"] = (calls(name) / n_ops, "count")
        starts = ctr("inference.ascent.starts")
        out["inference.ascent.starts"] = (starts / n_ops, "count")
        out["inference.ascent.distinct_frac"] = (
            ctr("inference.ascent.distinct") / starts if starts else 0.0, "ratio")
        out["kernel.pairwise.elems"] = (ctr("kernel.pairwise.elems") / n_ops, "count")
        out["lkc.psd_repaired_points"] = (ctr("lkc.psd_repaired_points") / n_ops, "count")
        every = np.ones(len(names), dtype=bool)
        builds = calls("manifold.refined_grid", every)
        per_build = (lambda v: v / builds) if builds else (lambda v: 0.0)
        out["manifold.refined_grid.self_ms"] = (per_build(span_ms("manifold.refined_grid", every)), "ms")
        for key, unit in (("points", "count"), ("nbytes", "B")):
            total = sum(v for (ph, n), v in self.counters.items() if n == f"manifold.refined_grid.{key}")
            out[f"manifold.refined_grid.{key}"] = (per_build(total), unit)
        for layer in LAYERS:
            out[f"{layer}.self_ms"] = (span_ms(layer) / n_ops, "ms")
        return out


class _OptimizeView:
    """``scipy.optimize`` with ``minimize`` replaced, for one module's view."""

    def __init__(self, module, minimize):
        self._module = module
        self.minimize = minimize

    def __getattr__(self, attr):
        return getattr(self._module, attr)


def _nbytes(obj) -> int:
    if isinstance(obj, np.ndarray):
        return obj.nbytes
    if isinstance(obj, dict):
        return sum(_nbytes(v) for v in obj.values())
    if isinstance(obj, (list, tuple)):
        return sum(_nbytes(v) for v in obj)
    return 0
