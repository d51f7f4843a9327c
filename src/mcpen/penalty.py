"""Penalty weights: Lipschitz moduli, exactness thresholds, feasibility descent.

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

from .dcalc import Direction
from .model import (
    FEAS_TOL,
    CompositeProblem,
    EvaluationError,
    Point,
    check_beta,
    eval_g,
    layer_values,
    penalized_value,
    reference_point_and_level,
    residuals,
    row_dots,
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
    """Threshold vector (t_1, ..., t_L) for L = len(K) + 1 layers.

    A modulus that is not finite bounds nothing, so it raises ``ValueError``
    naming the outer function (K_g) or the map of layer j + 1 (K_j).
    """
    K = np.asarray(K, dtype=float).ravel()
    moduli = [("outer function", "K_g", K_g)] + [(f"layer {j + 1} map", f"K_{j}", k) for j, k in enumerate(K, 1)]
    for where, name, v in moduli:
        if not np.isfinite(v):
            raise ValueError(f"{where} has a non-finite Lipschitz modulus ({name} = {v}), so no threshold is finite")
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
    """A certified beta slightly above the thresholds, floored away from zero.

    Raises ``ValueError`` naming the first threshold with no finite weight above it.
    """
    t = np.asarray(t, dtype=float).ravel()
    with np.errstate(over="ignore"):
        b = SAFETY * t
    bad = np.flatnonzero(~np.isfinite(b))
    if bad.size:
        raise ValueError(f"threshold t_{bad[0] + 1} = {t[bad[0]]} leaves no finite penalty weight above it")
    return np.maximum(b, BETA_FLOOR)


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
    eps-ball perturbation, landing inside the inflated set.  A candidate's
    residuals are its blocks minus the layer values they were drawn around;
    a candidate whose layer or outer values are not finite is rejected.
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
        l1: list[float] = []
        try:
            for k in range(1, problem.L + 1):
                base = layer_values(problem, k, th, blocks)
                rad = gamma_bar / beta[k - 1]
                blocks.append(base + rng.uniform(-rad, rad, size=base.size))
                l1.append(float(np.sum(np.abs(blocks[-1] - base))))
            z = Point(th, tuple(blocks))
            accept = penalized_value(problem, z, beta, l1) <= gamma_bar
        except EvaluationError:
            continue
        if accept:
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

    The pairs are evaluated in batches, g once per point in order of first
    use and the layer maps in two passes of the fixed tape (one column per
    point, one per pair), with the values, warnings and first
    ``EvaluationError`` of a loop over the pairs in order.
    """
    meta = problem.meta
    if meta and meta.get("structure") == "rnn":
        _, K_g, _, K = rnn_moduli(meta, problem.lam)
        return K_g, K, False
    beta = np.ones(problem.L) if beta_init is None else check_beta(problem, beta_init)
    if gamma_bar is None:
        _, gamma_bar = reference_point_and_level(problem, beta)
    rng = np.random.default_rng(seed)
    n_pts = max(16, int(np.sqrt(budget)) * 2)
    pts = _sample_level_set(problem, beta, gamma_bar, eps, n_pts, rng)
    K = np.zeros(max(problem.L - 1, 0))
    if len(pts) < 2:
        return 0.0, K, True
    I, J = rng.integers(0, len(pts), size=(budget, 2)).T
    TH = np.array([p.theta for p in pts]).T
    U = [np.array(blk).T for blk in zip(*(p.u for p in pts))]
    Z = np.vstack(U).T  # row i: the blocks of point i, flattened
    D = Z[I] - Z[J]
    fail = (budget, 0)  # (pair, layer) of the first non-finite layer value
    if problem.L > 1:
        # the maps at each point, and at (theta of a, blocks of b) for each pair
        own = problem.fixed_tape.values(TH, U)
        mixed = problem.fixed_tape.values(TH[:, I], [B[:, J] for B in U])
    for ell, end in enumerate(np.cumsum(problem.widths[:-1]), start=1):
        # Layer moduli fix theta and vary the earlier blocks only.
        npre = _norms(D[:, :end])
        use = np.flatnonzero(npre > 1e-12)
        rows = problem.layer_rows[ell]
        va, vb = own[rows][:, I[use]], mixed[rows][:, use]
        bad = ~np.all(np.isfinite(va) & np.isfinite(vb), axis=0)
        if bad.any():
            fail = min(fail, (int(use[np.argmax(bad)]), ell + 1))
        else:
            K[ell - 1] = _sup(_norms((va - vb).T) / npre[use])
    # g at the points of the pairs the loop reaches, in order of first use
    nu = _norms(D[: fail[0] + 1])
    use = np.flatnonzero(nu > 1e-12)
    G = np.zeros(len(pts))
    for i in dict.fromkeys(np.column_stack([I[use], J[use]]).ravel().tolist()):
        G[i] = eval_g(problem, pts[i].u)
    if fail[1]:
        raise EvaluationError(fail[1], f"layer {fail[1]} evaluated to a non-finite value")
    return _sup(np.abs(G[I[use]] - G[J[use]]) / nu[use]), K, True


def _norms(X: np.ndarray) -> np.ndarray:
    """``np.linalg.norm`` of each row of X, by the same BLAS dot; inf past the float range, unwarned."""
    X = np.ascontiguousarray(X)
    with np.errstate(over="ignore"):
        return np.sqrt(row_dots(X, X))


def _sup(q: np.ndarray) -> float:
    """max(0.0, q_1, q_2, ...) folded left by Python's max, which skips NaNs."""
    return float(np.max(q[q > 0.0], initial=0.0))


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
    dus = [np.zeros((w, 1)) for w in problem.widths]
    dus[layer - 1] = -res.per_layer[layer - 1].reshape(-1, 1)
    # Layer j's map reads blocks below j only, so one pass of the fixed tape per later layer.
    for j in range(layer + 1, problem.L + 1):
        dus[j - 1] = problem.fixed_tape.cells(z.theta, z.u, dth, dus).first[problem.layer_rows[j - 1]]
    return Direction(np.zeros(problem.n), tuple(b[:, 0] for b in dus))

