"""Desk-scale minimization of the penalized objective.

The method is a probe-based descent: at each iterate the penalized
directional derivative is sampled over a batch of candidate directions
(random antipodal pairs, coordinate directions, structural feasibility
directions, and a pseudo-gradient assembled from the coordinate slopes), the
best slope drives a backtracking line search on the objective value, and the
iterate is periodically snapped onto the feasible manifold when that does
not increase the objective.  Termination is declared when the sampled probe
minimum rises above minus the stop tolerance; the solve reports
``converged`` only when it stopped there and a fresh probe draw at the
final, polished point still sees no slope below minus the stop tolerance.

The backtracking search on the penalized objective evaluates all of its
trial steps in one pass of the penalized tape (``model.eval_Theta_cols``)
and then takes the first that passes, trying them in the order of a
halving loop.  A tried step that the pass marks, because the one-point
evaluation would raise or warn there, is evaluated again one point at a
time, so it raises and warns as that loop did; the steps after the accepted
one have no effect.  The smooth polish usually accepts its first or second
step, so it keeps the one-step loop: valuing its steps in one chained pass
measured slower.  The solve keeps the penalized roots of its current point
and reads its residuals off them, and a polish reuses the known value, so
no point's value is computed twice.

This is deliberately replaceable plumbing: any monotone method meeting the
same termination contract can sit behind the same interface.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .cones import lift_direction_batch
from .dcalc import dd_Psi_batch, dd_Theta_batch
from .model import (
    CompositeProblem,
    Point,
    Residuals,
    Theta_and_roots,
    check_beta,
    check_point,
    eval_layers,
    eval_Psi_plus_reg,
    eval_Theta,
    eval_Theta_cols,
    point_from_flat,
    residuals,
    split_flat,
)
from .penalty import feasibility_descent_direction

PROBE_PAIRS = 16  # random antipodal probe pairs per iteration
ARMIJO_SIGMA = 1e-4
STEP_INIT = 1.0  # first trial step of the backtracking line search
DIMINISHING_C = 0.1  # step c/sqrt(k) of the diminishing rule
POLISH_EVERY = 5  # iterations between snaps onto the feasible manifold
SMOOTH_POLISH_ITERS = 200  # iteration cap of the final smooth polish


@dataclass
class SolveConfig:
    max_iters: int = 300
    step_rule: str = "fixed"  # fixed step with backtracking, or diminishing c/sqrt(k)
    stop_tol: float = 1e-6
    seed: int = 0
    init: str = "zero"  # zero | random | user
    trace_path: str | None = None

    def __post_init__(self) -> None:
        if self.max_iters < 1:
            raise ValueError("max_iters must be positive")
        if self.stop_tol <= 0:
            raise ValueError("stop_tol must be positive")
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
    problem: CompositeProblem, z: Point, res: Residuals, rng: np.random.Generator
) -> np.ndarray:
    """Probe columns at z; ``res`` must be ``residuals(problem, z)``."""
    nbar = problem.nbar
    G = rng.standard_normal((nbar, PROBE_PAIRS))
    G /= np.maximum(np.linalg.norm(G, axis=0), 1e-300)
    cols = [G, -G, np.eye(nbar), -np.eye(nbar)]
    for k, largest in enumerate(res.layer_max, start=1):
        if largest > 1e-11:
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


def _halvings(t0: float, floor: float) -> np.ndarray:
    """t0, t0/2, t0/4, ... while above floor: the steps of a backtracking search."""
    steps = t0 * 0.5 ** np.arange(int(np.log2(t0 / floor)) + 2)
    return steps[steps > floor]


def _line_search(
    problem: CompositeProblem,
    z: Point,
    b: np.ndarray,
    d: np.ndarray,
    value: float,
    slope: float,
) -> tuple[tuple[Point, np.ndarray], float, float] | None:
    """Armijo backtracking on Theta from z (at ``value``) along the flat direction d.

    The steps are those of a halving loop from ``STEP_INIT`` down to 1e-12.
    Every step is evaluated in one ``eval_Theta_cols`` pass, then the steps
    are tried in order and the first whose value passes is accepted.  A tried
    step whose value is not finite there is evaluated again by
    ``eval_Theta``, which raises and warns as a one-step-at-a-time loop
    would.  Steps after the accepted one have no effect.

    Returns the accepted point with the roots of its penalized pass, its
    step and its value, or None when no step passes.
    """
    steps = _halvings(STEP_INIT, 1e-12)
    with np.errstate(all="ignore"):
        Z = z.flat()[:, None] + d[:, None] * steps
    values, X = eval_Theta_cols(problem, Z, b)
    for j, t in enumerate(steps.tolist()):
        v = float(values[j])
        if not np.isfinite(v):
            v = eval_Theta(problem, point_from_flat(problem, z.flat() + t * d), b)
        if v <= value + ARMIJO_SIGMA * t * slope:
            return (point_from_flat(problem, Z[:, j]), X[:, j]), t, v
    return None


def _smooth_polish(problem: CompositeProblem, th: np.ndarray) -> np.ndarray:
    """Descend the nested objective by its gradient while it stays smooth.

    Each iteration takes one Armijo step along minus the gradient, which is
    read off the one-sided slopes along +e_i and -e_i.  Besides the
    ``SMOOTH_POLISH_ITERS`` cap, two stops end the polish:

    - kink: the two slopes differ in magnitude, so the objective is not
      differentiable at theta; the rest is left to the probe method;
    - value stall: a step passes the Armijo test without strictly lowering
      the value.  Near a minimum the Armijo margin falls below half an ulp
      of the value, and such steps only drift along the valley floor.  A
      zero gradient stalls at once, since its step leaves theta unchanged.

    The polish returns the last point whose step lowered the value, so it
    never returns a point whose value exceeds its input's.
    """
    val = eval_Psi_plus_reg(problem, th)
    step = 1.0
    for _ in range(SMOOTH_POLISH_ITERS):
        sp, sm = _axis_slopes(problem, th)
        with np.errstate(over="ignore", invalid="ignore"):
            g = (sp - sm) / 2.0
            kink = np.max(np.abs(sp + sm)) > 1e-9 * (1.0 + np.max(np.abs(g)))
        if kink:
            break
        accepted = False
        t = step
        while t > 1e-16:
            th2 = th - t * g
            v2 = eval_Psi_plus_reg(problem, th2)
            if v2 <= val - ARMIJO_SIGMA * t * float(g @ g):
                if v2 >= val:
                    return th
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
    z2, _, _, changed, delta = _polish(problem, z, check_beta(problem, beta))
    return z2, changed, delta


def _polish(
    problem: CompositeProblem, z: Point, b: np.ndarray, value: float | None = None, X: np.ndarray | None = None
) -> tuple:
    """``polish_to_feasible`` at z, given its Theta and penalized roots: (point, Theta, roots, changed, delta)."""
    lifted = eval_layers(problem, z.theta)
    before = eval_Theta(problem, z, b) if value is None else value
    after, X2 = Theta_and_roots(problem, lifted, b)
    if after <= before + 1e-12:
        return lifted, after, X2, True, float(after - before)
    return z, before, X, False, float(after - before)


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
    value, X = Theta_and_roots(problem, z, b)
    best_z, best_value, best_X = z, value, X
    trace = SolveTrace()
    probe_min = np.inf
    k = 0
    for k in range(1, cfg.max_iters + 1):
        res = residuals(problem, z, X)
        D = _probe_directions(problem, z, res, rng)
        if res.feasible:
            # Tangent steepest-descent candidate: moving along the lifted
            # manifold avoids paying penalty for the lift violation.
            sp, sm = _axis_slopes(problem, z.theta)
            with np.errstate(over="ignore", invalid="ignore"):
                gth = (sp - sm) / 2.0
                ngth = np.linalg.norm(gth)
            if ngth > 1e-300:
                dth = -gth / ngth
                DU = lift_direction_batch(problem, z, dth[:, None])
                dl = np.concatenate([dth, *(du[:, 0] for du in DU)])
                with np.errstate(over="ignore", invalid="ignore"):
                    dl /= max(np.linalg.norm(dl), 1e-300)
                D = np.hstack([D, dl.reshape(-1, 1)])
        slopes = _slopes(problem, z, b, D)
        nbar = problem.nbar
        base = 2 * PROBE_PAIRS
        with np.errstate(over="ignore", invalid="ignore"):
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
                t = DIMINISHING_C / np.sqrt(k)
                z2 = point_from_flat(problem, z.flat() + t * d)
                v2, X2 = Theta_and_roots(problem, z2, b)
                z, value, X, step_used, moved = z2, v2, X2, t, True
                break
            found = _line_search(problem, z, b, d, value, slope)
            if found is not None:
                (z, X), step_used, value = found
                moved = True
                break
        if value < best_value:
            best_z, best_value, best_X = z, value, X
        trace.record(
            iter=k, theta=value, max_residual=res.max_abs, step=step_used, probe_min=probe_min
        )
        if not moved:
            trace.termination = "line-search-stalled"
            break
        if k % POLISH_EVERY == 0:
            z, value, X = _polish(problem, z, b, value, X)[:3]
    else:
        trace.termination = "max-iters"

    if cfg.step_rule == "diminishing" and best_value < value:
        z, value, X = best_z, best_value, best_X
    z, value, X = _polish(problem, z, b, value, X)[:3]
    res = residuals(problem, z, X)
    if res.feasible:
        th = _smooth_polish(problem, z.theta)
        z3 = eval_layers(problem, th)
        v3, X3 = Theta_and_roots(problem, z3, b)
        if v3 <= value + 1e-12:
            z, value, res = z3, v3, residuals(problem, z3, X3)
    Df = _probe_directions(problem, z, res, rng)
    probe_min = float(np.min(_slopes(problem, z, b, Df)))
    converged = trace.termination == "probe-stationary" and probe_min >= -cfg.stop_tol
    if cfg.trace_path:
        trace.write_csv(cfg.trace_path)
    return SolveResult(z, float(value), probe_min, k, converged, trace.termination, trace)
