"""Outside-in tracer: wraps the library's public functions from the benchmark.

Nothing under src/ knows about it.  `Tracer.install()` replaces every public
module-level function of each layer module with a timed wrapper, in every
namespace and module-level registry dict that holds it (a module that did
`from .norms import lq_table` calls its own binding, so wrapping only the
defining module would book that time to the caller's layer).  The two hot
methods `Germ.__call__` and `RoughLift.second` get count-only wrappers.

Spans live in memory and go to a JSON sidecar at exit: one row per call with
id, name `<layer>.<fn>`, start/end (perf_counter_ns), parent id and run id.
The tracer assumes one thread, which is what `roughsew run` uses by default.

`layer_metrics()` turns a sidecar into the per-layer metrics; it imports
nothing from the library, so the benchmark's parent process can use it.
"""
from __future__ import annotations

import functools
import inspect
import json
import math
import resource
import sys
import time
from collections import defaultdict

LAYERS = (
    "paths", "grids", "norms", "sewing", "integrals", "calculus", "rsde",
    "scenarios", "cli", "rng",
)

# bindings outside the defining module that must be wrapped: (module, name)
REQUIRED_BINDINGS = (
    ("sewing", "lq_table"), ("sewing", "pvar_control"),
    ("norms", "p_variation"),
    ("rsde", "lq_norm"), ("rsde", "rough_path_distance"),
    ("rsde", "second_level_seminorm"), ("rsde", "two_param_seminorm"),
    ("rsde", "vp_lq_seminorm"),
    ("scenarios", "chen_residual"), ("scenarios", "lq_norm"),
    ("scenarios", "full_partition"), ("scenarios", "stream"),
)

SPAN_FIELDS = ("id", "name", "start_ns", "end_ns", "parent", "run_id")


def _arg(args, kwargs, pos, name, default=None):
    if len(args) > pos:
        return args[pos]
    return kwargs.get(name, default)


def _window(n_points, s, t):
    t = n_points - 1 if t is None else t
    return t - s + 1


def _cells(n_members, m):
    return int(n_members) * m * (m - 1) // 2


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counters: dict[str, float] = defaultdict(float)
        self.n_events_diag: list[int] = []
        self.originals: dict = {}   # wrapper -> original
        self._paths_depth = 0

    # ------------------------------------------------------------------ hooks
    # each hook runs inside its span (before the end timestamp) and reads the
    # call's arguments and result; counts come from array shapes only

    def _hook_lq_table(self, args, kwargs, out):
        import numpy as np

        v = np.asarray(args[0])
        m = _window(v.shape[1], _arg(args, kwargs, 2, "s", 0), _arg(args, kwargs, 3, "t"))
        self.counters["norms.table_cells"] += _cells(v.shape[0], m)

    def _hook_second_level(self, args, kwargs, out):
        lift = args[0]
        m = _window(lift.grid.n_steps + 1, _arg(args, kwargs, 3, "s", 0),
                    _arg(args, kwargs, 4, "t"))
        self.counters["norms.table_cells"] += _cells(lift.second_prefix.shape[0], m)

    def _hook_distance(self, args, kwargs, out):
        # the first-level table is booked by the nested lq_table call
        a, b = args[0], args[1]
        m = _window(a.grid.n_steps + 1, _arg(args, kwargs, 4, "s", 0),
                    _arg(args, kwargs, 5, "t"))
        n = max(a.second_prefix.shape[0], b.second_prefix.shape[0])
        self.counters["norms.table_cells"] += _cells(n, m)

    def _hook_paths(self, args, kwargs, out):
        from roughsew.paths import RoughLift

        lift = out if isinstance(out, RoughLift) else getattr(out, "lift", None)
        if isinstance(lift, RoughLift):
            for arr in (lift.second_prefix, lift.step_second, lift.jump_second):
                if arr is not None:
                    self.counters["paths.lift_bytes"] += arr.nbytes
        grid = getattr(out, "grid", None) or getattr(getattr(out, "path", None), "grid", None)
        if grid is not None:
            steps = self.counters["paths.grid_steps"]
            self.counters["paths.grid_steps"] = max(steps, grid.n_steps)

    def _hook_solve(self, args, kwargs, out):
        import numpy as np

        lift, mart = args[2], _arg(args, kwargs, 3, "mart")
        start = _arg(args, kwargs, 4, "start", 0)
        stop = _arg(args, kwargs, 5, "stop")
        stop = lift.grid.n_steps if stop is None else stop
        sched = _arg(args, kwargs, 6, "schedule")
        if sched is not None:
            jumps = sched.jump_indices
        else:
            jumps = lift.path.jump_indices
            if mart is not None:
                jumps = np.union1d(jumps, mart.jump_indices)
        # one continuous event per step, one more per step ending at a jump
        events = (stop - start) + int(np.count_nonzero((jumps > start) & (jumps <= stop)))
        self.counters["rsde.n_events"] += events
        self.counters["rsde.member_events"] += events * out.values.shape[0]
        self.n_events_diag.append(int(out.diagnostics["n_events"]))
        diverged = out.diagnostics.get("diverged")
        if diverged is not None:
            self.counters["rsde.diverged"] += int(np.count_nonzero(diverged))

    def _hook_picard(self, args, kwargs, out):
        tol = _arg(args, kwargs, 7, "tol", 1e-9)
        diag = out.diagnostics
        self.counters["rsde.picard_windows"] += len(diag["windows"])
        self.counters["rsde.picard_iterations"] += sum(diag["iterations"])
        self.counters["rsde.picard_unconverged"] += sum(
            1 for d in diag["distances"] if not (d and d[-1] < tol)
        )

    _HOOKS = {
        "norms.lq_table": _hook_lq_table,
        "norms.second_level_seminorm": _hook_second_level,
        "norms.rough_path_distance": _hook_distance,
        "rsde.solve": _hook_solve,
        "rsde.picard_solve": _hook_picard,
    }

    # --------------------------------------------------------------- wrappers

    def _timed(self, name, fn, hook):
        spans, stack, run_id = self.spans, self.stack, self.run_id
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [len(spans), name, clock(), 0, stack[-1] if stack else -1, run_id]
            spans.append(rec)
            stack.append(rec[0])
            try:
                out = fn(*args, **kwargs)
                if hook is not None:
                    hook(self, args, kwargs, out)
                return out
            finally:
                stack.pop()
                rec[3] = clock()

        return wrapper

    def _paths_timed(self, name, fn):
        """Timed wrapper that also books the peak-RSS growth of outermost
        paths calls and the lift bytes / grid size of their results."""
        inner = self._timed(name, fn, Tracer._hook_paths)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._paths_depth += 1
            before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            try:
                return inner(*args, **kwargs)
            finally:
                self._paths_depth -= 1
                if self._paths_depth == 0:
                    gain = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before
                    self.counters["paths.maxrss_gain_kb"] += gain

        return wrapper

    def _counted(self, key, fn):
        counters = self.counters

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counters[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    # ---------------------------------------------------------------- install

    @staticmethod
    def _modules():
        return [m for k, m in sorted(sys.modules.items())
                if (k == "roughsew" or k.startswith("roughsew.")) and m is not None]

    def install(self) -> None:
        import roughsew.cli  # noqa: F401  (with the package, loads every layer)
        from roughsew.paths import RoughLift
        from roughsew.sewing import Germ

        by_original = {}
        for layer in LAYERS:
            mod = sys.modules[f"roughsew.{layer}"]
            for fname, obj in list(vars(mod).items()):
                if (fname.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != mod.__name__):
                    continue
                name = f"{layer}.{fname}"
                if layer == "paths":
                    wrapper = self._paths_timed(name, obj)
                else:
                    wrapper = self._timed(name, obj, self._HOOKS.get(name))
                by_original[obj] = wrapper
                self.originals[wrapper] = obj

        for mod in self._modules():
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in by_original:
                    setattr(mod, attr, by_original[obj])
                elif isinstance(obj, dict):  # registries such as SCENARIOS
                    for key, val in list(obj.items()):
                        if inspect.isfunction(val) and val in by_original:
                            obj[key] = by_original[val]

        for cls, meth, key in ((Germ, "__call__", "sewing.germ_evals"),
                               (RoughLift, "second", "paths.second_calls")):
            orig = vars(cls)[meth]
            wrapper = self._counted(key, orig)
            setattr(cls, meth, wrapper)
            self.originals[wrapper] = orig

    def unwrapped_bindings(self) -> list[str]:
        """Every binding the install missed; empty when tracing is complete."""
        from roughsew.paths import RoughLift
        from roughsew.sewing import Germ

        originals = set(self.originals.values())
        missed = []
        for mod in self._modules():
            for attr, obj in vars(mod).items():
                if inspect.isfunction(obj) and obj in originals:
                    missed.append(f"{mod.__name__}.{attr}")
                elif isinstance(obj, dict):
                    missed += [f"{mod.__name__}.{attr}[{k!r}]" for k, v in obj.items()
                               if inspect.isfunction(v) and v in originals]
        for layer, attr in REQUIRED_BINDINGS:
            if getattr(sys.modules[f"roughsew.{layer}"], attr) not in self.originals:
                missed.append(f"roughsew.{layer}.{attr} (required)")
        for cls, meth in ((Germ, "__call__"), (RoughLift, "second")):
            if vars(cls)[meth] not in self.originals:
                missed.append(f"{cls.__name__}.{meth} (required)")
        return sorted(set(missed))

    def sidecar(self) -> dict:
        return {
            "run_id": self.run_id,
            "span_fields": list(SPAN_FIELDS),
            "spans": self.spans,
            "counters": dict(self.counters),
            "n_events_diagnostics": self.n_events_diag,
            "unwrapped_bindings": self.unwrapped_bindings(),
        }

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.sidecar(), fh)


# ---------------------------------------------------------------------------
# sidecar -> per-layer metrics
# ---------------------------------------------------------------------------


def self_times(spans) -> dict[str, float]:
    """Seconds per layer: each span's duration minus its children's."""
    child = defaultdict(int)
    for _, _, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    out = defaultdict(float)
    for sid, name, start, end, _, _ in spans:
        out[name.split(".", 1)[0]] += (end - start - child[sid]) * 1e-9
    return out


def _total_s(spans, name):
    return sum(end - start for _, n, start, end, _, _ in spans if n == name) * 1e-9


def _calls(spans, *names):
    return sum(1 for s in spans if s[1] in names)


def layer_metrics(side: dict) -> dict[str, float]:
    spans, c = side["spans"], side["counters"]
    selfs = self_times(spans)
    out = {f"{layer}.self_s": selfs.get(layer, 0.0) for layer in LAYERS}
    norms_calls = sum(1 for s in spans if s[1].startswith("norms."))
    cells = c.get("norms.table_cells", 0.0)
    solve_s = _total_s(spans, "rsde.solve")
    windows = c.get("rsde.picard_windows", 0.0)
    out.update({
        "norms.calls": norms_calls,
        "norms.table_cells": cells,
        "norms.cells_per_s": cells / out["norms.self_s"] if out["norms.self_s"] else 0.0,
        "grids.pvar_calls": _calls(spans, "grids.p_variation", "grids.pvar_control"),
        "sewing.germ_evals": c.get("sewing.germ_evals", 0.0),
        "paths.lift_bytes": c.get("paths.lift_bytes", 0.0),
        "paths.maxrss_gain_mb": c.get("paths.maxrss_gain_kb", 0.0) / 1024.0,
        "paths.second_calls": c.get("paths.second_calls", 0.0),
        "paths.grid_steps": c.get("paths.grid_steps", 0.0),
        "rsde.n_events": c.get("rsde.n_events", 0.0),
        "rsde.schedule_s": _total_s(spans, "rsde.build_event_schedule"),
        "rsde.solve_s": solve_s,
        "rsde.member_events_per_s": (
            c.get("rsde.member_events", 0.0) / solve_s if solve_s else 0.0
        ),
        "rsde.picard_s": _total_s(spans, "rsde.picard_solve"),
        "rsde.picard_windows": windows,
        "rsde.picard_iterations": c.get("rsde.picard_iterations", 0.0),
        "rsde.controls_per_window": (
            _calls(spans, "rsde.window_control") / windows if windows else 0.0
        ),
        "rsde.diverged": c.get("rsde.diverged", 0.0),
        "rsde.picard_unconverged": c.get("rsde.picard_unconverged", 0.0),
    })
    return out


def scaling_exponent(big: dict, small: dict, ratio: float) -> float:
    """log_ratio of member-events between two traced runs (0 if undefined)."""
    a = big["counters"].get("rsde.member_events", 0.0)
    b = small["counters"].get("rsde.member_events", 0.0)
    if a <= 0 or b <= 0:
        return 0.0
    return math.log(a / b) / math.log(ratio)
