"""Desk-scale minimization of the penalized objective.

The method is a probe-based descent: at each iterate the penalized
directional derivative is sampled over a batch of candidate directions
(random antipodal pairs, coordinate directions, structural feasibility
directions, and a pseudo-gradient assembled from the coordinate slopes), the
best slope drives a backtracking line search on the objective value, and the
iterate is periodically snapped onto the feasible manifold when that does
not increase the objective.  Termination is declared when the sampled probe
minimum rises above minus the stop tolerance.

This is deliberately replaceable plumbing: any monotone method meeting the
same termination contract can sit behind the same interface.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .cones import lift_direction
from .dcalc import dd_Psi_batch, dd_Theta_batch
from .model import (
    CompositeProblem,
    Point,
    check_beta,
    check_point,
    eval_layers,
    eval_Psi_plus_reg,
    eval_Theta,
    point_from_flat,
    residuals,
    split_flat,
)
from .penalty import feasibility_descent_direction

PROBE_SIZE = 32
ARMIJO_SIGMA = 1e-4


@dataclass
class SolveConfig:
    max_iters: int = 300
    step_rule: str = "fixed"  # fixed step with backtracking, or diminishing c/sqrt(k)
    step_init: float = 1.0
    diminishing_c: float = 0.1
    stop_tol: float = 1e-6
    armijo_sigma: float = ARMIJO_SIGMA
    probe_size: int = PROBE_SIZE
    seed: int = 0
    init: str = "zero"  # zero | random | user
    polish_every: int = 5
    smooth_polish: bool = True
    trace_path: str | None = None

    def __post_init__(self) -> None:
        if self.max_iters < 1:
            raise ValueError("max_iters must be positive")
        if self.stop_tol <= 0:
            raise ValueError("stop_tol must be positive")
        if self.step_init <= 0 or self.diminishing_c <= 0:
            raise ValueError("steps must be positive")
        if self.step_rule not in ("fixed", "diminishing"):
            raise ValueError("step_rule must be 'fixed' or 'diminishing'")
        if self.init not in ("zero", "random", "user"):
            raise ValueError("init must be 'zero', 'random' or 'user'")


@dataclass
class SolveTrace:
    rows: list[dict] = field(default_factory=list)
    termination: str = ""

    def record(self, **kw) -> None:
        self.rows.append(kw)

    def values(self) -> np.ndarray:
        return np.array([r["theta"] for r in self.rows])

    def write_csv(self, path: str) -> None:
        cols = ["iter", "theta", "max_residual", "step", "probe_min"]
        with open(path, "w", newline="") as fh:
            w = csv.DictWriter(fh, fieldnames=cols)
            w.writeheader()
            for r in self.rows:
                w.writerow({c: r[c] for c in cols})


@dataclass
class SolveResult:
    z: Point
    value: float
    probe_min: float
    iterations: int
    converged: bool
    termination: str
    trace: SolveTrace


def _initial_point(
    problem: CompositeProblem, cfg: SolveConfig, z_init: Point | None
) -> Point:
    if cfg.init == "user":
        if z_init is None:
            raise ValueError("init='user' needs an explicit starting point")
        check_point(problem, z_init)
        return z_init
    if cfg.init == "zero":
        return eval_layers(problem, np.zeros(problem.n))
    rng = np.random.default_rng(cfg.seed)
    base = eval_layers(problem, np.zeros(problem.n))
    level = eval_Psi_plus_reg(problem, np.zeros(problem.n))
    th = rng.standard_normal(problem.n)
    for _ in range(40):
        if eval_Psi_plus_reg(problem, th) <= level:
            return eval_layers(problem, th)
        th *= 0.5
    return base


def _probe_directions(
    problem: CompositeProblem, z: Point, rng: np.random.Generator, size: int
) -> np.ndarray:
    nbar = problem.nbar
    pairs = max(size // 2, 1)
    G = rng.standard_normal((nbar, pairs))
    G /= np.maximum(np.linalg.norm(G, axis=0), 1e-300)
    cols = [G, -G, np.eye(nbar), -np.eye(nbar)]
    res = residuals(problem, z)
    for k in range(1, problem.L + 1):
        if float(np.max(np.abs(res.per_layer[k - 1]), initial=0.0)) > 1e-11:
            f = feasibility_descent_direction(problem, z, k).flat()
            nf = np.linalg.norm(f)
            if nf > 1e-300:
                cols.append((f / nf).reshape(-1, 1))
    return np.hstack(cols)


def _slopes(problem: CompositeProblem, z: Point, b: np.ndarray, D: np.ndarray) -> np.ndarray:
    return dd_Theta_batch(problem, z, *split_flat(problem, D), b, 1)[0]


def _axis_slopes(problem: CompositeProblem, th: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """One-sided slopes of the nested objective along every +e_i and -e_i."""
    eye = np.eye(problem.n)
    s = dd_Psi_batch(problem, th, np.hstack([eye, -eye]), 1)[1]
    return s[: problem.n], s[problem.n :]


def _smooth_polish(
    problem: CompositeProblem, th: np.ndarray, iters: int = 200, gtol: float = 1e-11
) -> np.ndarray:
    """Descend the nested objective by its gradient while it stays smooth.

    One-sided slopes along +e_i and -e_i agree in magnitude exactly when the
    objective is differentiable at theta; the polish stops at the first sign
    of a kink and leaves the rest to the probe method.
    """
    val = eval_Psi_plus_reg(problem, th)
    step = 1.0
    for _ in range(iters):
        sp, sm = _axis_slopes(problem, th)
        g = (sp - sm) / 2.0
        if np.max(np.abs(sp + sm)) > 1e-9 * (1.0 + np.max(np.abs(g))):
            break
        if np.max(np.abs(g)) <= gtol:
            break
        accepted = False
        t = step
        while t > 1e-16:
            th2 = th - t * g
            v2 = eval_Psi_plus_reg(problem, th2)
            if v2 <= val - ARMIJO_SIGMA * t * float(g @ g):
                th, val = th2, v2
                step = min(t * 2.0, 1e3)
                accepted = True
                break
            t *= 0.5
        if not accepted:
            break
    return th


def polish_to_feasible(
    problem: CompositeProblem, z: Point, beta: Sequence[float]
) -> tuple[Point, bool, float]:
    """Replace u with the forward values of theta when that does not pay a cost.

    Returns (point, changed, objective delta).  The replacement is refused,
    with changed False, when lifting would increase the penalized value.
    """
    b = check_beta(problem, beta)
    lifted = eval_layers(problem, z.theta)
    before = eval_Theta(problem, z, b)
    after = eval_Theta(problem, lifted, b)
    if after <= before + 1e-12:
        return lifted, True, float(after - before)
    return z, False, float(after - before)


def minimize_theta(
    problem: CompositeProblem,
    beta: Sequence[float],
    config: SolveConfig | None = None,
    z_init: Point | None = None,
) -> SolveResult:
    cfg = config or SolveConfig()
    b = check_beta(problem, beta)
    rng = np.random.default_rng(cfg.seed)
    z = _initial_point(problem, cfg, z_init)
    value = eval_Theta(problem, z, b)
    best_z, best_value = z, value
    trace = SolveTrace()
    probe_min = np.inf
    converged = False
    k = 0
    for k in range(1, cfg.max_iters + 1):
        res = residuals(problem, z)
        D = _probe_directions(problem, z, rng, cfg.probe_size)
        if res.feasible:
            # Tangent steepest-descent candidate: moving along the lifted
            # manifold avoids paying penalty for the lift violation.
            sp, sm = _axis_slopes(problem, z.theta)
            gth = (sp - sm) / 2.0
            ngth = np.linalg.norm(gth)
            if ngth > 1e-300:
                dl = lift_direction(problem, z, -gth / ngth).flat()
                D = np.hstack([D, (dl / max(np.linalg.norm(dl), 1e-300)).reshape(-1, 1)])
        slopes = _slopes(problem, z, b, D)
        nbar = problem.nbar
        base = 2 * max(cfg.probe_size // 2, 1)
        g_est = (slopes[base : base + nbar] - slopes[base + nbar : base + 2 * nbar]) / 2.0
        ng = np.linalg.norm(g_est)
        if ng > 1e-300:
            dg = (-g_est / ng).reshape(-1, 1)
            D = np.hstack([D, dg])
            slopes = np.append(slopes, _slopes(problem, z, b, dg)[0])
        probe_min = float(np.min(slopes))
        step_used = 0.0
        if probe_min >= -cfg.stop_tol:
            trace.record(
                iter=k, theta=value, max_residual=res.max_abs, step=0.0, probe_min=probe_min
            )
            converged = True
            trace.termination = "probe-stationary"
            break
        order = np.argsort(slopes)
        moved = False
        for j in order[:5]:
            slope = float(slopes[j])
            if slope >= 0:
                break
            d = D[:, j]
            if cfg.step_rule == "diminishing":
                t = cfg.diminishing_c / np.sqrt(k)
                z2 = point_from_flat(problem, z.flat() + t * d)
                v2 = eval_Theta(problem, z2, b)
                z, value, step_used, moved = z2, v2, t, True
                break
            t = cfg.step_init
            while t > 1e-12:
                z2 = point_from_flat(problem, z.flat() + t * d)
                v2 = eval_Theta(problem, z2, b)
                if v2 <= value + cfg.armijo_sigma * t * slope:
                    z, value, step_used, moved = z2, v2, t, True
                    break
                t *= 0.5
            if moved:
                break
        if value < best_value:
            best_z, best_value = z, value
        trace.record(
            iter=k, theta=value, max_residual=res.max_abs, step=step_used, probe_min=probe_min
        )
        if not moved:
            trace.termination = "line-search-stalled"
            break
        if k % cfg.polish_every == 0:
            z2, changed, _ = polish_to_feasible(problem, z, b)
            if changed:
                z = z2
                value = eval_Theta(problem, z, b)
    else:
        trace.termination = "max-iters"

    if cfg.step_rule == "diminishing" and best_value < value:
        z, value = best_z, best_value
    z2, changed, _ = polish_to_feasible(problem, z, b)
    if changed:
        z, value = z2, eval_Theta(problem, z2, b)
    if cfg.smooth_polish and residuals(problem, z).feasible:
        th = _smooth_polish(problem, z.theta)
        z3 = eval_layers(problem, th)
        v3 = eval_Theta(problem, z3, b)
        if v3 <= value + 1e-12:
            z, value = z3, v3
    Df = _probe_directions(problem, z, rng, cfg.probe_size)
    probe_min = float(np.min(_slopes(problem, z, b, Df)))
    if probe_min >= -cfg.stop_tol:
        converged = True
        if not trace.termination or trace.termination == "max-iters":
            trace.termination = "probe-stationary"
    if not trace.termination:
        trace.termination = "max-iters"
    if cfg.trace_path:
        trace.write_csv(cfg.trace_path)
    return SolveResult(z, float(value), probe_min, k, converged, trace.termination, trace)
