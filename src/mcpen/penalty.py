"""Penalty weights: level-set Lipschitz moduli, exactness thresholds, checks.

The exactness thresholds have the product form

    t_l = K_g * prod_{j=l}^{L-1} (1 + K_j),      t_L = K_g,

where K_g bounds the outer function on the relevant level set and K_j bounds
layer map j in its block arguments (parameter fixed).  Any beta with
beta_l > t_l for all l makes every d-stationary point of the penalized
problem inside the reference level set feasible for the lifted problem.

Moduli come from one of two routes: closed forms when the problem was built
by the recurrent-network constructor (its meta record carries the pieces),
or seeded sampling of difference quotients over the level set otherwise.
Sampled moduli are lower bounds of the true suprema and are flagged
heuristic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from . import expr as ex
from .dcalc import Direction
from .model import (
    FEAS_TOL,
    CompositeProblem,
    Point,
    check_beta,
    eval_g,
    eval_Theta,
    layer_values,
    reference_point_and_level,
    residuals,
    split_flat,
)

BETA_FLOOR = 1e-3
SAFETY = 1.05


@dataclass
class PenaltyConfig:
    beta: np.ndarray
    K_g: float
    K: np.ndarray
    thresholds: np.ndarray
    gamma_bar: float
    eps: float
    certified: bool
    heuristic: bool
    notes: list[str]


def thresholds(K_g: float, K: Sequence[float]) -> np.ndarray:
    """Threshold vector (t_1, ..., t_L) for L = len(K) + 1 layers."""
    K = np.asarray(K, dtype=float).ravel()
    L = K.size + 1
    out = np.empty(L)
    acc = 1.0
    out[L - 1] = K_g
    for ell in range(L - 1, 0, -1):
        acc *= 1.0 + K[ell - 1]
        out[ell - 1] = K_g * acc
    return out


def certify(beta: Sequence[float], t: Sequence[float]) -> bool:
    beta = np.asarray(beta, dtype=float).ravel()
    t = np.asarray(t, dtype=float).ravel()
    return beta.shape == t.shape and bool(np.all(beta > t))


def suggest_beta(t: Sequence[float]) -> np.ndarray:
    """A certified beta slightly above the thresholds, floored away from zero."""
    return np.maximum(SAFETY * np.asarray(t, dtype=float).ravel(), BETA_FLOOR)


def rnn_moduli(meta: Mapping, lam: float) -> tuple[float, float, float, np.ndarray]:
    """Closed-form moduli from a recurrent network's meta record.

    Returns (gamma_y, K_g, K_mix, K) with gamma_y = ||y||^2 / (2 nt) the
    loss at zero output, K_g = sqrt(2 gamma_y / nt), K_mix = sqrt(gamma_y /
    lam), and K_j = 1 on activation layers and K_mix on mixing layers for
    j = 1..L-1.
    """
    nt = float(meta["nt"])
    gamma_y = float(meta["y_sqnorm"]) / (2.0 * nt)
    K_g = np.sqrt(2.0 * gamma_y / nt)
    K_mix = np.sqrt(gamma_y / lam)
    K = np.array([1.0 if kind == "act" else K_mix for kind in meta["layer_kinds"][1:]])
    return gamma_y, K_g, K_mix, K


def _sample_level_set(
    problem: CompositeProblem,
    beta: np.ndarray,
    gamma_bar: float,
    eps: float,
    budget: int,
    rng: np.random.Generator,
) -> list[Point]:
    """Draw points from the gamma_bar level set of Theta, eps-inflated.

    Candidates combine a parameter inside the ball of radius
    sqrt(gamma_bar/lambda) with per-layer residual noise within the level-set
    residual bounds gamma_bar/beta_l; both bounds hold for every point of the
    level set, so the proposal covers it.  Accepted points get one extra
    eps-ball perturbation, landing inside the inflated set.
    """
    r_theta = np.sqrt(gamma_bar / problem.lam) if gamma_bar >= 0.0 else np.nan
    # Parameters are drawn from the box [-r_theta, r_theta]^n, whose width
    # must be a finite float with a clear sign bit.
    if np.signbit(r_theta) or not r_theta <= np.finfo(float).max / 2.0:
        raise ValueError(
            f"reference level gamma_bar = {gamma_bar} bounds no level set to sample; "
            "it must be nonnegative and finite (is the outer function negative?)"
        )
    pts: list[Point] = []
    tries = 0
    while len(pts) < budget and tries < 20 * budget:
        tries += 1
        th = rng.uniform(-r_theta, r_theta, size=problem.n)
        blocks: list[np.ndarray] = []
        ok = True
        for k in range(1, problem.L + 1):
            try:
                base = layer_values(problem, k, th, blocks)
            except Exception:
                ok = False
                break
            rad = gamma_bar / beta[k - 1]
            blocks.append(base + rng.uniform(-rad, rad, size=base.size))
        if not ok:
            continue
        z = Point(th, tuple(blocks))
        if eval_Theta(problem, z, beta) <= gamma_bar:
            noise = rng.normal(size=problem.nbar)
            noise *= rng.uniform(0.0, eps) / max(np.linalg.norm(noise), 1e-300)
            th2, blocks2 = split_flat(problem, z.flat() + noise)
            pts.append(Point(th2, tuple(blocks2)))
    return pts


def estimate_moduli(
    problem: CompositeProblem,
    beta_init: Sequence[float] | None = None,
    gamma_bar: float | None = None,
    eps: float = 1e-3,
    budget: int = 10_000,
    seed: int = 0,
) -> tuple[float, np.ndarray, bool]:
    """Level-set Lipschitz moduli (K_g, K_1..K_{L-1}, heuristic flag).

    Problems built by the recurrent-network constructor get exact closed
    forms (heuristic False).  Everything else gets seeded sampling of
    difference quotients over the inflated level set; those values are lower
    bounds of the true moduli and come back flagged heuristic.
    """
    meta = problem.meta
    if meta and meta.get("structure") == "rnn":
        _, K_g, _, K = rnn_moduli(meta, problem.lam)
        return K_g, K, False
    beta = (
        np.ones(problem.L) if beta_init is None else check_beta(problem, beta_init)
    )
    if gamma_bar is None:
        _, gamma_bar = reference_point_and_level(problem, beta)
    rng = np.random.default_rng(seed)
    n_pts = max(16, int(np.sqrt(budget)) * 2)
    pts = _sample_level_set(problem, beta, gamma_bar, eps, n_pts, rng)
    K_g = 0.0
    K = np.zeros(max(problem.L - 1, 0))
    if len(pts) >= 2:
        pairs = 0
        while pairs < budget:
            i, j = rng.integers(0, len(pts), size=2)
            a, b = pts[i], pts[j]
            du = np.concatenate([x - y for x, y in zip(a.u, b.u)])
            nu = np.linalg.norm(du)
            if nu > 1e-12:
                K_g = max(K_g, abs(eval_g(problem, a.u) - eval_g(problem, b.u)) / nu)
            # Layer moduli fix theta and vary the earlier blocks only.
            for ell in range(1, problem.L):
                prefix_a = [blk.copy() for blk in a.u[:ell]]
                prefix_b = [blk.copy() for blk in b.u[:ell]]
                dprefix = np.concatenate([x - y for x, y in zip(prefix_a, prefix_b)])
                npre = np.linalg.norm(dprefix)
                if npre <= 1e-12:
                    continue
                va = layer_values(problem, ell + 1, a.theta, prefix_a)
                vb = layer_values(problem, ell + 1, a.theta, prefix_b)
                K[ell - 1] = max(K[ell - 1], float(np.linalg.norm(va - vb)) / npre)
            pairs += 1
    return float(K_g), K, True


def build_config(
    problem: CompositeProblem,
    beta: Sequence[float] | None = None,
    eps: float = 1e-3,
    budget: int = 10_000,
    seed: int = 0,
) -> PenaltyConfig:
    """Bundle moduli, thresholds and a (given or suggested) beta."""
    beta_init = np.ones(problem.L) if beta is None else check_beta(problem, beta)
    _, gamma_bar = reference_point_and_level(problem, beta_init)
    K_g, K, heuristic = estimate_moduli(problem, beta_init, gamma_bar, eps, budget, seed)
    t = thresholds(K_g, K)
    b = suggest_beta(t) if beta is None else beta_init
    notes = []
    if heuristic:
        notes.append("moduli sampled; lower bounds of the true suprema")
    else:
        notes.append("moduli from closed forms")
    return PenaltyConfig(
        beta=b,
        K_g=K_g,
        K=K,
        thresholds=t,
        gamma_bar=gamma_bar,
        eps=eps,
        certified=certify(b, t),
        heuristic=heuristic,
        notes=notes,
    )


def feasibility_descent_direction(
    problem: CompositeProblem, z: Point, layer: int | None = None
) -> Direction:
    """Direction that closes the residual of one layer at first order.

    The block at the chosen layer moves straight to the layer map's value;
    later blocks follow the chained first derivatives along that move (with
    zero parameter component), so their penalty terms contribute nothing.
    With beta above the thresholds the penalized objective strictly
    decreases along the result whenever the chosen layer is infeasible.
    """
    res = residuals(problem, z)
    if layer is None:
        infeasible = [
            k
            for k in range(1, problem.L + 1)
            if float(np.max(np.abs(res.per_layer[k - 1]))) > FEAS_TOL
        ]
        if not infeasible:
            raise ValueError("point is feasible; no residual to correct")
        layer = infeasible[-1]
    if not 1 <= layer <= problem.L:
        raise ValueError(f"layer {layer} out of range")
    dth = np.zeros((problem.n, 1))
    dus: list[np.ndarray] = [np.zeros((w, 1)) for w in problem.widths[: layer - 1]]
    dus.append(-res.per_layer[layer - 1].reshape(-1, 1))
    for j in range(layer + 1, problem.L + 1):
        cells = ex.taylor_cells(problem.layers[j - 1].exprs, z.theta, z.u, dth, dus, order=1)
        dus.append(np.array([c.first for c in cells]))
    return Direction(np.zeros(problem.n), tuple(b[:, 0] for b in dus))


def check_exactness_feasibility(
    problem: CompositeProblem,
    z: Point,
    config: PenaltyConfig,
    report=None,
) -> dict:
    """Cross-check the exactness guarantee at a claimed stationary point.

    With certified beta, a d-stationary point of the penalized objective
    inside the reference level set must be feasible.  The returned record
    flags the regime (level and certification), the feasibility, and any
    observed counterexample (stationary verdict on an infeasible in-regime
    point), including a descent direction built from the residual.
    """
    from . import stationarity as st

    theta_val = eval_Theta(problem, z, config.beta)
    in_level = theta_val <= config.gamma_bar + 1e-12
    res = residuals(problem, z)
    if report is None:
        report = st.check_d_stationary_P1(problem, z, config.beta)
    out = {
        "theta_value": theta_val,
        "gamma_bar": config.gamma_bar,
        "in_level_set": bool(in_level),
        "certified": bool(config.certified),
        "feasible": bool(res.feasible),
        "max_residual": res.max_abs,
        "verdict": report.verdict,
        "consistent": True,
        "diagnostics": [],
    }
    if not in_level:
        out["diagnostics"].append("point lies outside the reference level set; no guarantee applies")
        return out
    if not config.certified:
        out["diagnostics"].append("beta not certified against the thresholds; no guarantee applies")
        return out
    if report.verdict == st.STATIONARY and not res.feasible:
        d = feasibility_descent_direction(problem, z)
        from .dcalc import dd_Theta

        slope = dd_Theta(problem, z, d, config.beta).first
        out["consistent"] = False
        out["diagnostics"].append(
            "claimed stationary but infeasible inside the level set with certified beta; "
            f"residual correction direction has slope {slope:.6e}"
        )
    return out
