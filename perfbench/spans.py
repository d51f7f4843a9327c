"""Spans around mcpen's public functions, recorded from outside the package.

``Tracer.install`` replaces each function named in ``TRACED`` by a wrapper in
every ``mcpen.*`` namespace that holds it.  ``from .x import f`` copies the
function object into other modules, so patching only the defining module
would miss the calls made through those copies.  The recursive
``expr.eval_one`` is left alone: its top-level entries are ``expr.eval_many``
and ``model.eval_g``, which are traced.

Spans stay in memory (name, parent, start, end) while the run goes on and
are written out by ``Tracer.write``.  Calls made while ``phase`` is
``"setup."`` are recorded under that prefix, so the per-layer metrics of the
ops do not mix with the work of building their inputs; of the set-up spans
only the functions in ``SETUP_REPORTED`` are reported.  Self time is a span's duration minus
the durations of its direct child spans; calls are synchronous and run on
one thread, so those children never overlap.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from array import array
from collections import defaultdict
from pathlib import Path

import numpy as np

TRACED = {
    "expr": ("taylor_cells", "eval_many"),
    "model": ("eval_layers", "layer_values", "residuals", "eval_g", "eval_Theta"),
    "dcalc": ("dd_Theta_batch", "dd_Psi_batch", "dd_F_batch", "forward_curves"),
    "cones": ("lift_direction", "lift_direction_batch", "tangent_membership", "radial_membership"),
    "penalty": ("estimate_moduli", "build_config", "feasibility_descent_direction"),
    "pieces": ("theta_prime_pieces", "psi_prime_pieces", "min_over_cross_polytope"),
    "stationarity": ("check_d_stationary_P0", "check_d_stationary_P1", "check_second_order"),
    "solver": ("minimize_theta", "polish_to_feasible"),
    "rnn": ("build_problem",),
}

# The traced functions that do the work of the workloads' set-ups.
SETUP_REPORTED = (
    "rnn.build_problem",
    "model.eval_layers",
    "model.eval_Theta",
    "solver.minimize_theta",
)

_COLS = ("dcalc.dd_Theta_batch", "dcalc.dd_Psi_batch", "dcalc.dd_F_batch", "dcalc.forward_curves")
_PIECES = ("pieces.theta_prime_pieces", "pieces.psi_prime_pieces")
_CHECKS = (
    "stationarity.check_d_stationary_P0",
    "stationarity.check_d_stationary_P1",
    "stationarity.check_second_order",
)


def _arg(args, kwargs, pos, key):
    return args[pos] if len(args) > pos else kwargs[key]


def _columns(d) -> int:
    d = np.asarray(d)
    return int(d.shape[1]) if d.ndim == 2 else 1


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric the traced run reports, with its unit."""
    out: dict[str, str] = {}
    for mod, funcs in TRACED.items():
        for f in funcs:
            name = f"{mod}.{f}"
            out[f"{name}.calls"] = "count"
            out[f"{name}.s"] = "s"
            out[f"{name}.self_s"] = "s"
    for name in SETUP_REPORTED:
        for suffix, unit in ((".calls", "count"), (".s", "s"), (".self_s", "s")):
            out[f"setup.{name}{suffix}"] = unit
    out["expr.taylor_cells.node_cols"] = "count"
    for name in _COLS:
        out[f"{name}.cols"] = "count"
    out["cones.radial_membership.decided_ratio"] = "ratio"
    for name in _PIECES:
        out[f"{name}.pieces"] = "count"
        out[f"{name}.exhausted"] = "count"
    out["pieces.enum_completed_ratio"] = "ratio"
    out["pieces.wasted_s"] = "s"
    for name in _CHECKS:
        out[f"{name}.samples"] = "count"
        out[f"{name}.enumerate"] = "count"
        out[f"{name}.sample"] = "count"
    out["stationarity.witness_confirmed_ratio"] = "ratio"
    out["solver.minimize_theta.iters"] = "count"
    out["trace.overhead_s"] = "s"
    return out


class Tracer:
    """Records one span per traced call while ``enabled`` is true."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.enabled = False
        self.phase = ""
        self._stack: list[list] = []
        self._calls: dict[str, int] = defaultdict(int)
        self._total: dict[str, float] = defaultdict(float)
        self._self: dict[str, float] = defaultdict(float)
        self.counts: dict[str, float] = {}
        self._nodes: dict[int, tuple[object, int]] = {}
        self._patched: list[tuple[object, str, object]] = []
        self._too_many = None

    # -- patching ---------------------------------------------------------

    def install(self) -> int:
        """Patch every mcpen namespace; returns the number of slots replaced."""
        self._too_many = importlib.import_module("mcpen.pieces").TooManyPieces
        wrappers: dict[int, tuple[object, object]] = {}
        for mod, funcs in TRACED.items():
            module = importlib.import_module(f"mcpen.{mod}")
            for f in funcs:
                fn = getattr(module, f)
                name = f"{mod}.{f}"
                wrappers[id(fn)] = (fn, self._wrap(name, fn))
        for module in self._namespaces():
            for attr, val in list(vars(module).items()):
                hit = wrappers.get(id(val))
                if hit is not None and hit[0] is val:
                    setattr(module, attr, hit[1])
                    self._patched.append((module, attr, val))
        for module in self._namespaces():
            for val in vars(module).values():
                hit = wrappers.get(id(val))
                if hit is not None and hit[0] is val:
                    raise RuntimeError(f"{module.__name__} still holds an untraced {val.__name__}")
        return len(self._patched)

    def uninstall(self) -> None:
        for module, attr, val in reversed(self._patched):
            setattr(module, attr, val)
        self._patched.clear()

    @staticmethod
    def _namespaces():
        return [m for k, m in list(sys.modules.items()) if k == "mcpen" or k.startswith("mcpen.")]

    def _wrap(self, name: str, fn):
        after = getattr(self, "_after_" + name.replace(".", "_"), None)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            key = self.phase + name
            frame = self._open(key)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                dur = self._close(key, frame)
                if isinstance(exc, self._too_many) and key in _PIECES:
                    self._add(f"{name}.exhausted")
                    self._add("pieces.wasted_s", dur)
                    self._add("pieces.enum_attempted")
                raise
            self._close(key, frame)
            if after is not None and not self.phase:
                after(name, args, kwargs, result)
            return result

        return wrapper

    # -- spans --------------------------------------------------------------

    def _open(self, key: str) -> list:
        nid = self._ids.get(key)
        if nid is None:
            nid = self._ids[key] = len(self.names)
            self.names.append(key)
        idx = len(self.span_start)
        self.span_name.append(nid)
        self.span_parent.append(self._stack[-1][0] if self._stack else -1)
        self.span_end.append(0.0)
        frame = [idx, 0.0, time.perf_counter()]
        self.span_start.append(frame[2])
        self._stack.append(frame)
        return frame

    def _close(self, name: str, frame: list) -> float:
        end = time.perf_counter()
        self._stack.pop()
        idx, child, start = frame
        self.span_end[idx] = end
        dur = end - start
        if self._stack:
            self._stack[-1][1] += dur
        self._calls[name] += 1
        self._total[name] += dur
        self._self[name] += dur - child
        return dur

    def _add(self, key: str, v: float = 1.0) -> None:
        self.counts[key] = self.counts.get(key, 0.0) + v

    # -- per-function counts ---------------------------------------------

    def _node_count(self, e) -> int:
        hit = self._nodes.get(id(e))
        if hit is not None and hit[0] is e:
            return hit[1]
        count, todo = 0, [e]
        while todo:
            node = todo.pop()
            count += 1
            todo.extend(node.args)
        self._nodes[id(e)] = (e, count)
        return count

    def _after_expr_taylor_cells(self, name, args, kwargs, result):
        exprs = _arg(args, kwargs, 0, "exprs")
        m = _columns(_arg(args, kwargs, 3, "dtheta"))
        self._add(f"{name}.node_cols", m * sum(self._node_count(e) for e in exprs))

    def _after_cols(self, name, args, kwargs, result):
        self._add(f"{name}.cols", _columns(_arg(args, kwargs, 2, "DTH")))

    _after_dcalc_dd_Theta_batch = _after_cols
    _after_dcalc_dd_Psi_batch = _after_cols
    _after_dcalc_dd_F_batch = _after_cols
    _after_dcalc_forward_curves = _after_cols

    def _after_cones_radial_membership(self, name, args, kwargs, result):
        self._add(f"{name}.decided", float(result.in_radial is not None))

    def _after_pieces(self, name, args, kwargs, result):
        self._add(f"{name}.pieces", len(result))
        self._add("pieces.enum_attempted")
        self._add("pieces.enum_completed")

    _after_pieces_theta_prime_pieces = _after_pieces
    _after_pieces_psi_prime_pieces = _after_pieces

    def _after_check(self, name, args, kwargs, report):
        self._add(f"{name}.samples", report.samples)
        self._add(f"{name}.{report.mode}")
        if report.min_found < -report.tol:
            self._add("stationarity.witness_attempts")
            self._add("stationarity.witness_confirmed", float(report.witness is not None))

    _after_stationarity_check_d_stationary_P0 = _after_check
    _after_stationarity_check_d_stationary_P1 = _after_check
    _after_stationarity_check_second_order = _after_check

    def _after_solver_minimize_theta(self, name, args, kwargs, result):
        self._add(f"{name}.iters", result.iterations)

    # -- results ------------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """The per-layer metrics, all but ``trace.overhead_s``."""
        c = self.counts
        out: dict[str, float] = {}
        ops = [f"{mod}.{f}" for mod, funcs in TRACED.items() for f in funcs]
        for name in ops + [f"setup.{name}" for name in SETUP_REPORTED]:
            out[f"{name}.calls"] = float(self._calls[name])
            out[f"{name}.s"] = self._total[name]
            out[f"{name}.self_s"] = self._self[name]

        def ratio(num: str, den: str) -> float:
            return c.get(num, 0.0) / c[den] if c.get(den) else 0.0

        for key, unit in per_layer_units().items():
            if key not in out and unit == "count":
                out[key] = c.get(key, 0.0)
        radial = "cones.radial_membership"
        out[f"{radial}.decided_ratio"] = (
            c.get(f"{radial}.decided", 0.0) / self._calls[radial] if self._calls[radial] else 0.0
        )
        out["pieces.enum_completed_ratio"] = ratio("pieces.enum_completed", "pieces.enum_attempted")
        out["pieces.wasted_s"] = c.get("pieces.wasted_s", 0.0)
        out["stationarity.witness_confirmed_ratio"] = ratio(
            "stationarity.witness_confirmed", "stationarity.witness_attempts"
        )
        return out

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(
            path,
            names=np.array(self.names),
            name=np.array(self.span_name, dtype=np.int32),
            parent=np.array(self.span_parent, dtype=np.int32),
            start=np.array(self.span_start, dtype=np.float64),
            end=np.array(self.span_end, dtype=np.float64),
        )
