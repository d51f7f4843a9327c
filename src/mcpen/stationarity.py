"""Directional stationarity checks for the nested, lifted, and penalized problems.

First-order checks minimize the relevant directional derivative over the unit
sphere (or, exactly, over the unit cross-polytope piece by piece); a negative
minimum certifies non-stationarity with a witness direction, which is always
re-evaluated through the derivative calculus before the verdict is issued.
Second-order checks search the critical directions: tangent-cone directions
with vanishing first derivative, parametrized by their parameter component
since tangent directions are exactly the lifted ones.

Verdicts carry their evidence mode.  ``enumerate`` verdicts are exact over
the enumerated pieces; ``sample`` verdicts reflect a seeded multi-start
search and may miss structure, which is reported rather than hidden.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np
from scipy.stats import norm as _norm
from scipy.stats import qmc

from . import expr as ex
from .cones import lift_direction, lift_direction_batch, radial_membership
from .dcalc import (
    Direction,
    dd_expr,
    dd_expr_batch,
    dd_F,
    dd_F_batch,
    dd_Psi,
    dd_Psi_batch,
    dd_Theta,
    dd_Theta_batch,
    direction_from_flat,
    residual_slopes,
)
from .model import (
    FEAS_TOL,
    CompositeProblem,
    Point,
    check_beta,
    eval_Theta,
    require_feasible,
    residuals,
    split_flat,
)
from .penalty import PenaltyConfig, feasibility_descent_direction
from .pieces import (
    TooManyPieces,
    function_pieces,
    minimize_pieces,
    psi_prime_pieces,
    theta_prime_pieces,
)

STATIONARY = "stationary"
NOT_STATIONARY = "not-stationary"
INCONCLUSIVE = "inconclusive"

STAT_TOL = 1e-8
CRIT_SLACK = 1e-8
N_STARTS = 64
SEARCH_ITERS = 500
_FD_H = 1e-7
# Columns per derivative call in the lockstep searches.  A call packs as many
# whole probe blocks as fit (8 starts of the desk RNN lift, nbar = 46); a
# block wider than the cap goes alone.  Wider calls save little time and
# raise the peak memory of a certify run.
_MAX_COLS = 384
_UNCONFIRMED = "search minimum did not re-evaluate below -tol/2"


@dataclass
class StationarityReport:
    """One check's verdict and its evidence.

    ``min_found`` is the smallest derivative the search found: over the unit
    l1 cross-polytope under enumeration, over the unit l2 sphere under
    sampling.  ``witness_value`` re-evaluates along the l2-normalised
    witness.  A lifted second-order report may read stationary with
    ``min_found`` below -tol when the negative directions are not radial.
    """

    target: str
    order: int
    verdict: str
    mode: str
    min_found: float
    witness: Direction | np.ndarray | None
    witness_value: float | None
    samples: int
    tol: float
    envelope: list[float] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)


def _sphere_points(dim: int, count: int, seed: int) -> np.ndarray:
    """Quasi-random unit directions, one per column."""
    if dim == 1:
        signs = np.array([1.0 if k % 2 == 0 else -1.0 for k in range(count)])
        return signs.reshape(1, -1)
    sob = qmc.Sobol(d=dim, scramble=True, seed=seed)
    raw = sob.random_base2(max(int(np.ceil(np.log2(max(count, 1)))), 0))[:count]
    pts = _norm.ppf(np.clip(raw, 1e-12, 1.0 - 1e-12)).T
    norms = np.linalg.norm(pts, axis=0)
    norms[norms < 1e-12] = 1.0
    return pts / norms


def _with_units(dim: int, pool: np.ndarray) -> np.ndarray:
    if dim <= 64:
        eye = np.eye(dim)
        pool = np.hstack([pool, eye, -eye])
    return pool


def _normalize_cols(D: np.ndarray) -> np.ndarray:
    norms = np.linalg.norm(D, axis=0)
    norms[norms < 1e-300] = 1.0
    return D / norms


def _eval_blocks(f, points: list[np.ndarray], hI: np.ndarray | None = None) -> list:
    """f over each point's block of columns, in calls of whole blocks.

    A point's block is the point itself, or with ``hI`` its forward-difference
    probes ``point + hI``.  One call packs as many blocks as fit in
    ``_MAX_COLS`` columns (at least one).  Returns f's output on each block,
    in order; a tuple-valued f gives a tuple per block.
    """
    width = 1 if hI is None else hI.shape[1]
    per_call = max(1, _MAX_COLS // width)
    blocks = []
    for c in range(0, len(points), per_call):
        chunk = points[c : c + per_call]
        D = np.empty((chunk[0].size, width * len(chunk)))
        for j, p in enumerate(chunk):
            cols = D[:, j * width : (j + 1) * width]
            if hI is None:
                cols[:, 0] = p
            else:
                np.add(p.reshape(-1, 1), hI, out=cols)
        out = f(D)
        for j in range(len(chunk)):
            sl = slice(j * width, (j + 1) * width)
            blocks.append(tuple(o[sl] for o in out) if isinstance(out, tuple) else out[sl])
    return blocks


def _search_min_first(
    phi: Callable[[np.ndarray], np.ndarray],
    dim: int,
    seed: int,
    n_starts: int,
    iters: int,
    extra: np.ndarray | None = None,
) -> tuple[float, np.ndarray, int, list[float]]:
    """Multi-start projected descent of a positively homogeneous phi on the sphere.

    Each start takes piece-gradient steps (forward differences in the
    direction argument are exact on a linear piece) with a backtracking,
    kink-aware line search.  All starts advance in lockstep: an iteration
    makes one phi call holding the probe blocks of every live start, then
    runs the line search in rounds, each round one phi call with one trial
    column per start still backtracking.  Every start keeps its own point,
    value and step, so it walks the path it would walk alone whenever phi
    rounds each column independently of the others in its call.  The
    cumulative best over the starts, in their order, is recorded so the
    evidence only improves with more starts.
    """
    starts = _sphere_points(dim, n_starts, seed)
    if extra is not None and extra.size:
        starts = np.hstack([_normalize_cols(extra), starts])
    m = starts.shape[1]
    per_start = max(12, iters // max(m, 1))
    d = [starts[:, s].copy() for s in range(m)]
    val = [float(v[0]) for v in _eval_blocks(phi, d)]
    samples = m
    step = [0.5] * m
    hI = _FD_H * np.eye(dim)
    live = list(range(m))
    for _ in range(per_start):
        if not live:
            break
        descent = {}
        for s, pv in zip(live, _eval_blocks(phi, [d[s] for s in live], hI)):
            g = (pv - val[s]) / _FD_H
            gt = g - float(g @ d[s]) * d[s]
            ng = np.linalg.norm(gt)
            if ng >= 1e-12:
                descent[s] = (gt, ng)
        samples += dim * len(live)
        live = []
        while descent:
            descent = {s: gn for s, gn in descent.items() if step[s] > 1e-10}
            trials = []
            for s, (gt, ng) in descent.items():
                d2 = d[s] - step[s] * gt / ng
                d2 /= np.linalg.norm(d2)
                trials.append(d2)
            samples += len(trials)
            for s, d2, v in zip(list(descent), trials, _eval_blocks(phi, trials)):
                v2 = float(v[0])
                if v2 < val[s] - 1e-14:
                    d[s], val[s] = d2, v2
                    step[s] = min(step[s] * 1.5, 1.0)
                    live.append(s)
                    del descent[s]
                else:
                    step[s] *= 0.5
        live.sort()
    best_val, best_d = np.inf, starts[:, 0]
    envelope: list[float] = []
    for s in range(m):
        if val[s] < best_val:
            best_val, best_d = val[s], d[s]
        envelope.append(float(best_val))
    return float(best_val), best_d, samples, envelope


def _refute(report: StationarityReport, witness, confirmed: float | None) -> bool:
    """Record a refutation when the witness re-evaluates below -tol/2.

    Otherwise note, once per report, that it did not; the caller's verdict
    then stays inconclusive unless another witness refutes.
    """
    if confirmed is not None and confirmed < -report.tol / 2.0:
        report.verdict, report.witness = NOT_STATIONARY, witness
        report.witness_value = float(confirmed)
        return True
    if _UNCONFIRMED not in report.notes:
        report.notes.append(_UNCONFIRMED)
    return False


def _enumerate(report: StationarityReport, mode: str, pieces: Callable[[], list]):
    """Exact minimum over the enumerated pieces, or None when sampling must run.

    In ``auto`` mode a piece list over the limit falls back to sampling, and
    the report notes why; ``enumerate`` mode raises instead.
    """
    if mode not in ("auto", "enumerate"):
        return None
    try:
        ps = pieces()
    except TooManyPieces as err:
        if mode == "enumerate":
            raise
        report.notes.append(f"fell back to sampling: {err}")
        return None
    mn, wit = minimize_pieces(ps)
    report.mode, report.min_found, report.samples = "enumerate", mn, len(ps)
    return wit


# ---------------------------------------------------------------------------
# First-order checks


def check_d_stationary_P0(
    problem: CompositeProblem,
    z: Point,
    mode: str = "auto",
    seed: int = 0,
    tol: float = STAT_TOL,
) -> StationarityReport:
    """Directional stationarity of the lifted problem at a feasible point.

    Tangent directions are exactly the lifted parameter directions, along
    which the lifted derivative equals the nested one, so the search runs
    over the parameter sphere.
    """
    require_feasible(problem, z)
    report = StationarityReport("lifted", 1, INCONCLUSIVE, "sample", 0.0, None, None, 0, tol)
    wit = _enumerate(report, mode, lambda: psi_prime_pieces(problem, z.theta))
    if wit is None:
        phi = lambda D: dd_Psi_batch(problem, z.theta, D, 1)[1]
        mn, wit, samples, env = _search_min_first(phi, problem.n, seed, N_STARTS, SEARCH_ITERS)
        report.mode, report.min_found, report.samples, report.envelope = "sample", mn, samples, env
    if report.min_found >= -tol:
        report.verdict = STATIONARY
        return report
    dth = wit / max(np.linalg.norm(wit), 1e-300)
    confirmed = dd_Psi(problem, z.theta, dth, order=1).first
    _refute(report, lift_direction(problem, z, dth), confirmed)
    return report


def check_d_stationary_P1(
    problem: CompositeProblem,
    z: Point,
    beta: Sequence[float],
    mode: str = "auto",
    seed: int = 0,
    tol: float = STAT_TOL,
) -> StationarityReport:
    """Directional stationarity of the penalized problem over the full space.

    Sampling also starts from the feasibility descent direction of each
    violated layer and, at a feasible point, from every +-lifted parameter
    direction, since the sphere of R^nbar rarely comes near the tangent cone.
    """
    b = check_beta(problem, beta)
    report = StationarityReport("penalized", 1, INCONCLUSIVE, "sample", 0.0, None, None, 0, tol)
    wit = _enumerate(report, mode, lambda: theta_prime_pieces(problem, z, b))
    if wit is None:
        def phi(D):
            return dd_Theta_batch(problem, z, *split_flat(problem, D), b, 1)[0]

        seeds = []
        res = residuals(problem, z)
        for k in range(1, problem.L + 1):
            if float(np.max(np.abs(res.per_layer[k - 1]))) > FEAS_TOL:
                seeds.append(feasibility_descent_direction(problem, z, k).flat())
        if res.feasible:
            DU = lift_direction_batch(problem, z, np.eye(problem.n))
            lifted = np.vstack([np.eye(problem.n)] + DU)
            seeds.extend([lifted[:, i] for i in range(problem.n)])
            seeds.extend([-lifted[:, i] for i in range(problem.n)])
        extra = np.array(seeds).T if seeds else None
        mn, wit, samples, env = _search_min_first(
            phi, problem.nbar, seed, N_STARTS, SEARCH_ITERS, extra
        )
        report.mode, report.min_found, report.samples, report.envelope = "sample", mn, samples, env
    if report.min_found >= -tol:
        report.verdict = STATIONARY
        return report
    d = direction_from_flat(problem, wit / max(np.linalg.norm(wit), 1e-300))
    _refute(report, d, dd_Theta(problem, z, d, b, order=1).first)
    return report


# ---------------------------------------------------------------------------
# Second-order machinery


def _tangent_second_batch(
    problem: CompositeProblem,
    z: Point,
    DTH: np.ndarray,
    beta: np.ndarray | None,
    sign: float,
):
    """(phi1, phi2, bad) along lifted directions.

    phi1 is the shared first derivative of nested, lifted and penalized
    objectives on the tangent cone.  phi2 is F'' plus ``sign`` times the
    weighted l1 norm of the layer-map second derivatives: +1 gives the
    penalized second derivative on the tangent cone, -1 the strong-minimum
    margin, and beta None plain F''.
    """
    DU = lift_direction_batch(problem, z, DTH)
    first, phi2, bad, _ = dd_F_batch(problem, z, DTH, DU, order=2)
    if beta is not None:
        for bk, (_, _, psi2, bad2) in zip(beta, residual_slopes(problem, z, DTH, DU, order=2)):
            # Row by row: a pairwise np.sum over the rows would round differently.
            l1 = np.zeros(DTH.shape[1])
            for row in psi2:
                l1 += np.abs(row)
            phi2 += sign * bk * l1
            bad = bad | np.logical_or.reduce(bad2)
    return first, phi2, bad, DU


def _critical_search(
    problem: CompositeProblem,
    z: Point,
    beta: np.ndarray | None,
    sign: float,
    seed: int,
    slack: float,
    n_starts: int,
    iters: int,
):
    """Search lifted critical directions for the most negative phi2.

    Returns (crit_found, min_phi1, best), where best is a list of
    (phi2, dtheta, bad) over critical candidates sorted ascending.
    """
    n = problem.n
    pool = _with_units(n, _sphere_points(n, max(n_starts, 4 * n), seed))
    pool = _normalize_cols(pool)

    def eval_pool(D):
        return _tangent_second_batch(problem, z, D, beta, sign)[:3]

    phi1, phi2, bad = eval_pool(pool)
    min_phi1 = float(np.min(np.abs(phi1)))
    crit = np.abs(phi1) <= slack
    # Polish the most promising candidates: descend phi2 while projecting out
    # the component that moves phi1 away from zero.  The candidates advance
    # in lockstep, one call for the probes of all live ones per round and one
    # for their trial points.
    order_idx = np.argsort(np.where(bad, np.inf, phi2))
    polish = [i for i in order_idx[: max(8, n)] if not bad[i]]
    hI = _FD_H * np.eye(n)
    refined = [(float(phi1[i]), float(phi2[i]), pool[:, i].copy()) for i in polish]
    live = list(range(len(refined)))
    for _ in range(max(10, iters // 16)):
        if not live:
            break
        moving, trials = [], []
        for c, (p1, p2, _) in zip(live, _eval_blocks(eval_pool, [refined[c][2] for c in live], hI)):
            v1, v2, d = refined[c]
            g1 = (p1 - v1) / _FD_H
            g2 = (p2 - v2) / _FD_H
            # First pull toward criticality, then slide downhill along phi2.
            if abs(v1) > slack:
                ng1 = np.linalg.norm(g1)
                if ng1 < 1e-12:
                    continue
                d2 = d - (v1 / ng1**2) * g1
            else:
                gt = g2 - float(g2 @ d) * d
                n1 = np.linalg.norm(g1)
                if n1 > 1e-12:
                    gh = g1 / n1
                    gt = gt - float(gt @ gh) * gh
                if np.linalg.norm(gt) < 1e-12:
                    continue
                d2 = d - 0.25 * gt / np.linalg.norm(gt)
            d2 /= np.linalg.norm(d2)
            moving.append(c)
            trials.append(d2)
        live = []
        for c, d2, (w1, w2, wb) in zip(moving, trials, _eval_blocks(eval_pool, trials)):
            v1, v2, _ = refined[c]
            if abs(v1) <= slack and (abs(float(w1[0])) > slack or float(w2[0]) > v2 - 1e-14):
                continue
            refined[c] = (float(w1[0]), float(w2[0]), d2)
            if not bool(wb[0]):
                live.append(c)
    min_phi1 = min([min_phi1] + [abs(v1) for v1, _, _ in refined])
    best: list[tuple[float, np.ndarray, bool]] = []
    for i in np.flatnonzero(crit):
        best.append((float(phi2[i]), pool[:, i], bool(bad[i])))
    kept = [d for v1, _, d in refined if abs(v1) <= slack]
    for d, (_, w2, wb) in zip(kept, _eval_blocks(eval_pool, kept)):
        best.append((float(w2[0]), d, bool(wb[0])))
    best.sort(key=lambda t: t[0])
    return bool(best), min_phi1, best


def check_second_order(
    problem: CompositeProblem,
    z: Point,
    target: str,
    beta: Sequence[float] | None = None,
    seed: int = 0,
    tol: float = STAT_TOL,
) -> StationarityReport:
    """Second-order directional stationarity at a first-order point.

    ``target='penalized'`` tests the penalized second derivative over the
    critical directions, which under certified beta are the tangent
    directions with vanishing first derivative.  ``target='lifted'`` tests
    F'' over critical radial directions; candidates whose radial membership
    cannot be decided make the verdict inconclusive rather than silently
    passing.
    """
    if target not in ("penalized", "lifted"):
        raise ValueError("target must be 'penalized' or 'lifted'")
    require_feasible(problem, z)
    b = check_beta(problem, beta) if target == "penalized" else None
    if target == "penalized" and b is None:
        raise ValueError("the penalized target needs beta")
    report = StationarityReport(target, 2, INCONCLUSIVE, "sample", 0.0, None, None, 0, tol)
    found, min_phi1, cands = _critical_search(
        problem, z, b, 1.0, seed, CRIT_SLACK, N_STARTS, SEARCH_ITERS
    )
    report.samples = len(cands)
    if not found:
        report.verdict = STATIONARY
        if min_phi1 > CRIT_SLACK:
            report.notes.append("critical cone trivial along sampled sphere")
        else:
            report.notes.append("no critical directions located by sampling")
        return report
    unknown_radial = unconfirmed = skipped_bad = False
    for phi2, dth, bad in cands:
        if bad:
            skipped_bad = True
            continue
        report.min_found = min(report.min_found, phi2)
        if phi2 >= -tol:
            break
        d = lift_direction(problem, z, dth)
        if target == "lifted":
            membership = radial_membership(problem, z, d)
            if membership.in_radial is False:
                continue
            if membership.in_radial is None:
                unknown_radial = True
                continue
            confirmed = dd_F(problem, z, d, order=2).second
        else:
            confirmed = dd_Theta(problem, z, d, b, order=2).second
        if _refute(report, d, confirmed):
            return report
        unconfirmed = True
    # An undecided or unconfirmed candidate leaves the verdict inconclusive.
    if unknown_radial:
        report.notes.append("negative curvature found but radial membership undecided")
    elif not unconfirmed:
        report.verdict = STATIONARY
        if skipped_bad:
            report.notes.append("some candidates had unsupported second derivatives")
    return report


def check_strong_local_min_sufficient(
    problem: CompositeProblem,
    z: Point,
    config: PenaltyConfig,
    seed: int = 0,
    tol: float = STAT_TOL,
) -> dict:
    """Sufficient condition for a strong local minimum of the penalized problem.

    Requires the first derivative to be nonnegative in every direction and
    the margin F'' minus the weighted l1 norm of the layer second derivatives
    to be strictly positive over nonzero critical directions.
    """
    first = check_d_stationary_P1(problem, z, config.beta, seed=seed)
    out = {
        "verdict": INCONCLUSIVE,
        "first_order": first,
        "margin_min": None,
        "witness": None,
        "notes": [],
    }
    if first.verdict == NOT_STATIONARY:
        out["verdict"] = "fails"
        out["notes"].append("first-order condition fails")
        return out
    if first.verdict == INCONCLUSIVE:
        out["notes"].append("first-order check inconclusive")
        return out
    if not config.certified:
        out["notes"].append("beta not certified; critical directions may exceed the tangent cone")
    found, min_phi1, cands = _critical_search(
        problem, z, config.beta, -1.0, seed, CRIT_SLACK, N_STARTS, SEARCH_ITERS
    )
    if not found:
        out["verdict"] = "sufficient-holds"
        note = "critical cone trivial along sampled sphere" if min_phi1 > CRIT_SLACK else (
            "no critical directions located by sampling"
        )
        out["notes"].append(note)
        return out
    usable = [(q, d) for q, d, bad in cands if not bad]
    if not usable:
        out["notes"].append("second derivatives unsupported on all critical candidates")
        return out
    qmin, dmin = min(usable, key=lambda t: t[0])
    out["margin_min"] = float(qmin)
    if qmin <= 0.0:
        out["verdict"] = "fails"
        out["witness"] = lift_direction(problem, z, dmin)
    elif qmin > tol:
        out["verdict"] = "sufficient-holds"
    else:
        out["notes"].append("margin within tolerance of zero")
    return out


# ---------------------------------------------------------------------------
# Box-constrained checks for plain expressions


def check_box(
    e: ex.Expr,
    x: np.ndarray,
    lower: np.ndarray,
    upper: np.ndarray,
    order: int = 1,
    seed: int = 0,
    tol: float = STAT_TOL,
) -> StationarityReport:
    """Directional stationarity of an expression over a box.

    The box tangent cone at x keeps components at the lower bound nonnegative
    and components at the upper bound nonpositive; it is polyhedral, so radial
    and tangent cones coincide and first-order enumeration is exact.
    """
    x = np.asarray(x, dtype=float).ravel()
    lower = np.asarray(lower, dtype=float).ravel()
    upper = np.asarray(upper, dtype=float).ravel()
    if np.any(x < lower - 1e-12) or np.any(x > upper + 1e-12):
        raise ValueError("point lies outside the box")
    dim = x.size
    cone_rows = []
    for i in range(dim):
        if x[i] <= lower[i] + 1e-12:
            row = np.zeros(dim)
            row[i] = 1.0
            cone_rows.append(row)
        if x[i] >= upper[i] - 1e-12:
            row = np.zeros(dim)
            row[i] = -1.0
            cone_rows.append(row)

    pieces = function_pieces(e, x)
    mn, dmin = minimize_pieces(pieces, cone_rows)
    report = StationarityReport("box", order, INCONCLUSIVE, "enumerate", mn, None, None, len(pieces), tol)
    if mn < -tol:
        dunit = dmin / max(np.linalg.norm(dmin), 1e-300)
        if _refute(report, dunit, dd_expr(e, x, dunit).first) and order == 2:
            report.notes.append("already fails at first order")
        return report
    if order == 1:
        report.verdict = STATIONARY
        return report

    # Exact route for an interior point whose first derivative vanishes
    # identically: recover the second derivative as a quadratic form from
    # basis evaluations, verify the form on probe directions, then read the
    # verdict off its minimum eigenvalue over the sphere.
    first_identically_zero = not cone_rows and all(
        float(np.max(np.abs(c), initial=0.0)) <= 1e-14 for c, _ in pieces
    )
    if first_identically_zero:
        eye = np.eye(dim)
        cols = [eye] + [
            (eye[:, i] + eye[:, j]).reshape(-1, 1)
            for i in range(dim)
            for j in range(i + 1, dim)
        ]
        D = np.hstack(cols)
        cell = dd_expr_batch(e, x, D, order=2)
        if not np.any(cell.bad2):
            phi = cell.second
            Q = np.diag(phi[:dim].astype(float))
            kpos = dim
            for i in range(dim):
                for j in range(i + 1, dim):
                    Q[i, j] = Q[j, i] = (phi[kpos] - Q[i, i] - Q[j, j]) / 2.0
                    kpos += 1
            probes = _sphere_points(dim, 8, seed)
            pv = dd_expr_batch(e, x, probes, order=2)
            quad = np.einsum("im,ij,jm->m", probes, Q, probes)
            matches = not np.any(pv.bad2) and float(
                np.max(np.abs(pv.second - quad))
            ) <= 1e-10 * (1.0 + float(np.max(np.abs(pv.second))))
            if matches:
                vals, vecs = np.linalg.eigh(Q)
                report.mode = "enumerate"
                report.min_found = float(vals[0])
                report.samples = D.shape[1] + probes.shape[1]
                report.notes.append("second derivative is an exact quadratic form")
                if vals[0] >= -tol:
                    report.verdict = STATIONARY
                    return report
                _refute(report, vecs[:, 0], dd_expr(e, x, vecs[:, 0], order=2).second)
                return report

    def project(D):
        out = D.copy()
        for i in range(dim):
            if x[i] <= lower[i] + 1e-12:
                out[i] = np.abs(out[i])
            if x[i] >= upper[i] - 1e-12:
                out[i] = -np.abs(out[i])
        return _normalize_cols(out)

    pool = project(_with_units(dim, _sphere_points(dim, 8 * max(dim, 4), seed)))
    cell = dd_expr_batch(e, x, pool, order=2)
    phi1, phi2 = cell.first, cell.second
    bad = cell.bad2
    crit = (np.abs(phi1) <= CRIT_SLACK) & ~bad
    report.mode = "sample"
    report.samples = pool.shape[1]
    if not np.any(crit):
        report.verdict = STATIONARY
        report.notes.append("no critical directions located by sampling")
        return report
    idx = np.flatnonzero(crit)
    jmin = idx[np.argmin(phi2[idx])]
    report.min_found = float(phi2[jmin])
    if report.min_found < -tol:
        _refute(report, pool[:, jmin], dd_expr(e, x, pool[:, jmin], order=2).second)
        return report
    report.verdict = STATIONARY
    return report


# ---------------------------------------------------------------------------
# Cross-formulation comparison


def compare_sets_on_point(
    problem: CompositeProblem,
    z: Point,
    config: PenaltyConfig,
    seed: int = 0,
) -> dict:
    """Run all four membership checks and test the implications between them.

    Inside the reference level set with certified beta: penalized
    d-stationarity forces feasibility, first-order verdicts of the lifted and
    penalized problems agree at feasible points, and penalized second-order
    stationarity implies the lifted one.  Violations are reported as
    inconsistencies, not silently dropped.  An infeasible point flagged by
    the first implication comes with the slope of Theta along the residual
    correction direction, which certified beta would make negative.
    """
    res = residuals(problem, z)
    theta_val = eval_Theta(problem, z, config.beta)
    in_level = bool(theta_val <= config.gamma_bar + 1e-12)
    d1 = check_d_stationary_P1(problem, z, config.beta, seed=seed)
    d0 = sd0 = sd1 = None
    if res.feasible:
        d0 = check_d_stationary_P0(problem, z, seed=seed)
        sd1 = check_second_order(problem, z, "penalized", config.beta, seed=seed)
        sd0 = check_second_order(problem, z, "lifted", seed=seed)
    inconsistencies: list[str] = []
    guarded = in_level and config.certified
    if guarded and d1.verdict == STATIONARY and not res.feasible:
        slope = dd_Theta(problem, z, feasibility_descent_direction(problem, z), config.beta).first
        inconsistencies.append(
            "penalized-stationary infeasible point inside the level set; "
            f"residual correction direction has slope {slope:.1e}"
        )
    if guarded and res.feasible and d0 is not None:
        if {d0.verdict, d1.verdict} <= {STATIONARY, NOT_STATIONARY} and d0.verdict != d1.verdict:
            inconsistencies.append("first-order verdicts of lifted and penalized problems differ")
    if sd0 is not None and sd1 is not None:
        if sd1.verdict == STATIONARY and sd0.verdict == NOT_STATIONARY:
            inconsistencies.append("penalized second-order stationary but lifted is not")
    return {
        "feasible": bool(res.feasible),
        "max_residual": res.max_abs,
        "theta_value": float(theta_val),
        "gamma_bar": float(config.gamma_bar),
        "in_level_set": in_level,
        "certified": bool(config.certified),
        "d0": d0,
        "d1": d1,
        "sd0": sd0,
        "sd1": sd1,
        "consistent": not inconsistencies,
        "inconsistencies": inconsistencies,
    }
