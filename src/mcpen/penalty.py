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
# Chunk lengths of the level-set sampler, kept per guessed outcome: FIRST_CHUNK
# candidates at first; GROW times the last chunk after one whose guesses all
# held, else twice the run that held, but at least MIN_CHUNK.  A chunk that
# guesses acceptance also judges, for each of its first AHEAD candidates, the
# candidate that would follow that one's rejection.
FIRST_CHUNK = 32
MIN_CHUNK = 8
GROW = 8
AHEAD = 2


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

    Candidates are drawn and judged in chunks, one column each in one pass
    of ``problem.level_tape()``, compiled once per call and not kept: its
    input is a candidate's parameter and residual noise rho, and its roots
    are the maps' values psi_k (each at the shifted blocks below it), the
    shifted blocks psi_k + rho_k and g.  The points, warnings, errors and
    generator state are those of a loop that draws and judges one
    candidate at a time.  Each ``rng.uniform(low, high, k)`` of that loop
    is ``low + (high - low) * rng.random(k)``, so a chunk draws all its
    candidates' shares at once, but a share depends on the outcome: a
    candidate stops drawing at a layer that is not finite, and an accepted
    one draws its perturbation before the next candidate.  So each chunk
    guesses that every candidate ends with the outcome seen most often so
    far.  At the first candidate that breaks the guess, the generator goes
    back to its state at the start of the chunk, redraws the shares that
    held and then that candidate's own.  Each guess keeps its own chunk
    length (see ``FIRST_CHUNK``): a pass over a few columns costs about
    what a pass over one does, but a chunk that guesses acceptance draws
    each candidate's perturbation in a loop.  Where such a chunk breaks
    early on a rejection, the candidate after it is already judged
    (``AHEAD``), so the chunk settles one candidate more.  The accepted
    candidates are perturbed together at the end, one point per row of a
    matrix.
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
    rad = [gamma_bar / b for b in beta]
    with np.errstate(all="ignore"):
        # coordinate i of a candidate is low[i] + span[i] * u, as rng.uniform draws it
        low = np.repeat([-r_theta, *(-r for r in rad)], (n, *widths))
        span = np.repeat([r_theta - -r_theta, *(r - -r for r in rad)], (n, *widths))
    # a candidate that draws the noise of c layers takes share[c] uniforms
    share = np.cumsum([n, *widths])
    # the first layer whose noise range is not finite, where numpy's uniform raises (0: none)
    bad = next((k for k in range(1, L + 1) if not np.isfinite(span[share[k - 1]])), 0)
    tape, bits = problem.level_tape(), rng.bit_generator

    def draw(c: int, m: int, tail: bool, ahead: int = 0):
        """m candidates' draws, one per row, if each ends with outcome c; and the perturbations if c accepts.

        With a tail, a row runs on into the next share, so the first
        candidate that outlives the guess is judged on its own draws.  Row
        m + i, for i below ``ahead``, holds the draws of the candidate after
        candidate i should that one be rejected: the uniforms that follow
        its own, drawn before its perturbation and then drawn again.
        """
        if c <= L and not tail:
            return rng.random(m * share[c]), None
        if c <= L:
            u = rng.random(m * share[c] + nbar - share[c])
            return u[share[c] * np.arange(m)[:, None] + np.arange(nbar)], None
        W, noise, length = np.empty((m + ahead, nbar)), np.empty((m, nbar)), np.empty(m)
        for i in range(m):
            rng.random(out=W[i])
            if i < ahead:
                # the next candidate's draws, should this one be rejected
                state = bits.state
                rng.random(out=W[m + i])
                bits.state = state
            noise[i], length[i] = rng.normal(size=nbar), rng.uniform(0.0, eps)
        return W, (noise, length)

    def judge(W: np.ndarray):
        """Outcomes, negative-g flags, g and lifted points (one per row) of the candidates in W's rows.

        The outcome is the number of layers whose noise the candidate draws,
        L + 1 if it is accepted, or -1 if it reaches layer ``bad``.
        """
        with np.errstate(all="ignore"):
            Y = low + span * W
            Z = Y.T
            V = tape.values(Z, [])
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

    # the accepted candidates, their noise rows and the lengths to scale them to
    P, N, E, count = np.empty((budget, nbar)), np.empty((budget, nbar)), np.empty(budget), 0

    def keep(C: np.ndarray, noise, length) -> None:
        nonlocal count
        k = len(C)
        P[count : count + k], N[count : count + k], E[count : count + k] = C, noise, length
        count += k

    def finish(k: int) -> None:
        """Candidate k of the last chunk judged: its own share, its g check and, if accepted, its perturbation."""
        c = int(code[k])
        if c < 0:
            rng.random(share[bad - 1])
            rng.uniform(-rad[bad - 1], rad[bad - 1], size=widths[bad - 1])  # raises OverflowError, as the loop did
        rng.random(share[min(c, L)])
        if negative[k]:
            checked_g(problem, float(g[k]))
        if c > L:
            keep(Y[k : k + 1], rng.normal(size=nbar), rng.uniform(0.0, eps))
        seen[c + 1] += 1

    seen = [0] * (L + 3)  # how often each outcome c came, at c + 1
    sizes = [FIRST_CHUNK] * (L + 3)  # the next chunk length for a guess of c, at c + 1
    tries, guess = 0, L
    while count < budget and tries < 20 * budget:
        m = min(sizes[guess + 1], 20 * budget - tries)
        m = min(m, budget - count) if guess > L else m
        ahead = min(AHEAD, m) if guess > L else 0
        start = bits.state
        W, perturb = draw(guess, m, tail=True, ahead=ahead)
        code, negative, g, Y = judge(W)
        miss = np.flatnonzero(code[:m] != guess)
        j = int(miss[0]) if miss.size else m
        if j < m or guess < L:
            # a miss, or the tail drawn past a chunk whose candidates stop early
            bits.state = start
            perturb = draw(guess, j, tail=False)[1]
        for i in np.flatnonzero(negative[:j]):
            checked_g(problem, float(g[i]))
        if guess > L and j:
            keep(Y[:j], *perturb)
        seen[guess + 1] += j
        sizes[guess + 1] = GROW * m if j == m else max(2 * j, MIN_CHUNK)
        if j < m:
            # the candidate that broke the guess draws its own share
            finish(j)
        tries += min(j + 1, m)
        if j < ahead and code[j] == L and count < budget and tries < 20 * budget:
            # a rejection, whose successor was judged ahead
            finish(m + j)
            tries += 1
        guess = seen.index(max(seen)) - 1
    P, N, E = P[:count], N[:count], E[:count]
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
    row, whose columns this slices into the parameter and the blocks; the
    sampler judges its candidates in chunks, one level-tape pass each, and
    rewinds the generator where a chunk's guess of their outcomes fails.
    The pairs are evaluated in batches: g in one pass of the outer tape over
    the points, checked in order of first use, and the layer maps in two
    passes of the fixed tape (one column per point, one per pair), with the
    values, warnings and first ``EvaluationError`` of a loop over the pairs
    in order.  A residual bound gamma_bar/beta_k that is not finite bounds
    no box to sample: it raises ``ValueError`` naming layer k and beta_k.
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
    for i in dict.fromkeys(np.column_stack([I[use], J[use]]).ravel().tolist()):
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
    if not 1 <= layer <= problem.L:
        raise ValueError(f"layer {layer} out of range")
    dth = np.zeros((problem.n, 1))
    dus = [np.zeros((w, 1)) for w in problem.widths]
    dus[layer - 1] = -res.per_layer[layer - 1].reshape(-1, 1)
    # Layer j's map reads blocks below j only, so one pass of the fixed tape per later layer.
    for j in range(layer + 1, problem.L + 1):
        dus[j - 1] = problem.fixed_tape.cells(z.theta, z.u, dth, dus).first[problem.layer_rows[j - 1]]
    return Direction(np.zeros(problem.n), tuple(b[:, 0] for b in dus))

