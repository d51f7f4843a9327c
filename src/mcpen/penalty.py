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
The sampler draws its candidates as whole rows of uniforms in at most three
blocks and judges each block in one tape pass.  Sampled moduli are lower
bounds of the true suprema and are flagged heuristic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .dcalc import Direction
from .model import (
    FEAS_TOL,
    G_WARN_BELOW,
    CompositeProblem,
    EvaluationError,
    Point,
    check_beta,
    checked_g,
    penalized_cols,
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
) -> np.ndarray:
    """Draw points from the gamma_bar level set of Theta, eps-inflated; one lifted point per row.

    Candidates combine a parameter inside the ball of radius
    sqrt(gamma_bar/lambda) with per-layer residual noise within the level-set
    residual bounds gamma_bar/beta_l; both bounds hold for every point of the
    level set, so the proposal covers it.  Accepted points get one extra
    eps-ball perturbation, landing inside the inflated set.  A candidate's
    residuals are its blocks minus the layer values they were drawn around;
    a candidate whose layer or outer values are not finite is rejected.

    A candidate is one row of ``rng.random((m, nbar))``, coordinate i being
    ``low[i] + span[i] * u[i]`` as ``rng.uniform`` draws it, and it takes
    the whole row wherever it stops.  The rows come in at most three blocks
    of budget, 4 budget and 15 budget rows, up to the 20 budget tries, and
    each block is judged in one pass of the chained tape's level mode
    (``Tape.shifted``, built per call, compiling nothing): from a
    candidate's parameter and residual noise rho it gives the maps' values
    psi_k (at the shifted blocks below), the shifted blocks psi_k + rho_k
    and g.  The first ``budget`` accepted candidates are kept, in row
    order.  Only the candidates up to the one that fills the budget warn on
    a negative g, in row order, or raise numpy's ``OverflowError`` where
    they reach a layer whose noise range is not finite.  After the last
    block, ``rng.normal`` draws the kept points' perturbation directions
    and ``rng.uniform`` their lengths.
    """
    r_theta = np.sqrt(gamma_bar / problem.lam) if gamma_bar >= 0.0 else np.nan
    # Parameters are drawn from the box [-r_theta, r_theta]^n, whose width
    # must be a finite float with a clear sign bit.
    if np.signbit(r_theta) or not r_theta <= np.finfo(float).max / 2.0:
        raise ValueError(
            f"reference level gamma_bar = {gamma_bar} bounds no level set to sample; "
            "it must be nonnegative and finite (is the outer function negative?)"
        )
    n, L, nbar, widths = problem.n, problem.L, problem.nbar, problem.widths
    R = nbar - n
    with np.errstate(all="ignore"):
        rad = [gamma_bar / b for b in beta]
        low = np.repeat([-r_theta, *(-r for r in rad)], (n, *widths))
        span = np.repeat([r_theta - -r_theta, *(r - -r for r in rad)], (n, *widths))
        # the first layer whose noise range is not finite, where numpy's uniform raises (0: none)
        bad = next((k for k, r in enumerate(rad, start=1) if not np.isfinite(r - -r)), 0)
    tape = problem.chained_tape.shifted()

    def judge(W: np.ndarray):
        """Outcomes, negative-g flags, g and lifted points (one per row) of the candidates in W's rows.

        The outcome is the number of layers whose values are finite up to
        the first that is not, L + 1 if the candidate is accepted, or -1 if
        it reaches layer ``bad``.
        """
        with np.errstate(all="ignore"):
            Y = low + span * W
            Z = Y.T
            V = tape.values(Z[:n], [Z[n:]])
            X, U, g = V[:R], V[R : 2 * R], V[2 * R]
            # the first layer whose values are not finite stops a candidate
            finite = np.isfinite(X)
            if finite.all():
                code = np.full(len(W), L)
            else:
                finite = np.logical_and.reduceat(finite, problem.layer_starts, axis=0)
                code = np.where(finite.all(axis=0), L, finite.argmin(axis=0))
            if bad:
                code[code >= bad] = -1
            alive = (code == L) & np.isfinite(g)
            code += alive & (penalized_cols(problem, Z[:n], U, X, g, beta) <= gamma_bar)
        Z[n:] = U  # Y's rows become the lifted candidates: theta, then the shifted blocks
        return code, alive & (g < G_WARN_BELOW), g, Y

    kept = [np.empty((0, nbar))]
    count = 0
    for m in (budget, 4 * budget, 15 * budget):
        if count == budget:
            break
        code, negative, g, Y = judge(rng.random((m, nbar)))
        accepted = np.flatnonzero(code > L)[: budget - count]
        # the rows judged: up to the one that fills the budget, or to the first that reaches layer bad
        end = accepted[-1] + 1 if count + len(accepted) == budget else m
        stop = np.flatnonzero(code[:end] < 0)
        end = stop[0] if stop.size else end
        for i in np.flatnonzero(negative[:end]):
            checked_g(problem, float(g[i]))
        if stop.size:
            rng.uniform(-rad[bad - 1], rad[bad - 1])  # raises OverflowError
        kept.append(Y[accepted])
        count += len(accepted)
    P = np.concatenate(kept)
    N = rng.normal(size=(count, nbar))
    E = rng.uniform(0.0, eps, count)
    return P + N * (E / np.maximum(_norms(N), 1e-300))[:, None]


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

    The points come from ``_sample_level_set`` as one matrix, a point per
    row, judged in at most three blocks of candidates, one pass of the
    chained tape's level mode each.  The pairs are evaluated in batches: g
    in one pass of the outer tape over the points, and the layer maps in
    two passes of the fixed tape (one column per point, one per pair), with
    the values, warnings and first ``EvaluationError`` of a loop over the
    pairs in order: one numpy test
    finds the points whose g warns or raises, and only those go through
    ``checked_g``, in order of first use.  A residual bound gamma_bar/beta_k
    that is not finite bounds no box to sample: it raises ``ValueError``
    naming layer k and beta_k.
    """
    meta = problem.meta
    if meta and meta.get("structure") == "rnn":
        _, K_g, _, K = rnn_moduli(meta, problem.lam)
        return K_g, K, False
    beta = np.ones(problem.L) if beta_init is None else check_beta(problem, beta_init)
    if gamma_bar is None:
        _, gamma_bar = reference_point_and_level(problem, beta)
    with np.errstate(over="ignore"):
        bounded = np.isfinite(gamma_bar / beta)
    if 0.0 <= gamma_bar < np.inf and not bounded.all():
        k = int(np.argmin(bounded)) + 1
        raise ValueError(
            f"layer {k} residual bound gamma_bar / beta_{k} = {gamma_bar} / {beta[k - 1]} is not finite, "
            "so the level set has no box to sample"
        )
    rng = np.random.default_rng(seed)
    n_pts = max(16, int(np.sqrt(budget)) * 2)
    P = _sample_level_set(problem, beta, gamma_bar, eps, n_pts, rng)
    K = np.zeros(max(problem.L - 1, 0))
    if len(P) < 2:
        return 0.0, K, True
    I, J = rng.integers(0, len(P), size=(budget, 2)).T
    TH, U = split_flat(problem, P.T)
    D = P[I, problem.n :] - P[J, problem.n :]  # row k: the blocks of pair k's points, flattened, subtracted
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
    # g at every point, checked at the points of the pairs the loop reaches, in order of first use
    nu = _norms(D[: fail[0] + 1])
    use = np.flatnonzero(nu > 1e-12)
    G = problem.outer_tape.values(TH, U)[0]
    seen = np.column_stack([I[use], J[use]]).ravel()
    seen = seen[~np.isfinite(G[seen]) | (G[seen] < G_WARN_BELOW)]  # the points whose g warns or raises
    for i in seen[np.sort(np.unique(seen, return_index=True)[1])].tolist():
        checked_g(problem, float(G[i]))
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
        infeasible = [k for k, largest in enumerate(res.layer_max, start=1) if largest > FEAS_TOL]
        if not infeasible:
            raise ValueError("point is feasible; no residual to correct")
        layer = infeasible[-1]
    return _closing_direction(problem, z, res.per_layer, layer)


def _closing_direction(problem: CompositeProblem, z: Point, per_layer: Sequence[np.ndarray], layer: int) -> Direction:
    """``feasibility_descent_direction`` at z along ``layer``, from z's per-layer residuals."""
    if not 1 <= layer <= problem.L:
        raise ValueError(f"layer {layer} out of range")
    dth = np.zeros((problem.n, 1))
    dus = [np.zeros((w, 1)) for w in problem.widths]
    dus[layer - 1] = -per_layer[layer - 1].reshape(-1, 1)
    # Layer j's map reads blocks below j only, so one pass of the fixed tape per later layer.
    for j in range(layer + 1, problem.L + 1):
        dus[j - 1] = problem.fixed_tape.cells(z.theta, z.u, dth, dus).first[problem.layer_rows[j - 1]]
    return Direction(np.zeros(problem.n), tuple(b[:, 0] for b in dus))
