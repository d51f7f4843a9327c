"""Directional stationarity checks for the nested, lifted, and penalized problems.

First-order checks minimize the relevant directional derivative over the unit
l1 ball with one mixed-integer program (``pieces.theta_prime_min`` and its
siblings), and the verdict comes from HiGHS's bounds: stationary when the
lower bound on the minimum is at least -tol, not stationary when the
incumbent direction, l2-normalised, re-evaluates below -tol/2 through the
derivative calculus, and inconclusive otherwise.  Second-order checks start
from the matching first-order verdict, since a second-order stationary point
is first-order stationary: a point that fails or cannot be decided at first
order gets that verdict.  At a first-order stationary point they search the
critical directions: tangent-cone directions with vanishing first
derivative, parametrized by their parameter component since tangent
directions are exactly the lifted ones.  The search draws its pool from
numpy's seeded Generator (normalised standard normals plus the signed unit
vectors), keeps its critical columns, and polishes its most negative
columns onto the critical set: a critical set of lower dimension holds no
pool column at all.

Verdicts carry their evidence mode.  ``exact`` verdicts rest on HiGHS's
bounds or on a verified quadratic form; ``sample`` verdicts reflect a seeded
search and may miss structure, which is reported rather than hidden.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from . import expr as ex
from . import pieces
from .cones import lift_direction, lift_direction_batch, radial_membership
from .dcalc import (
    Direction,
    dd_expr,
    dd_expr_batch,
    dd_F,
    dd_F_batch,
    dd_Psi,
    dd_Theta,
    direction_from_flat,
    residual_slopes,
)
from .model import (
    CompositeProblem,
    Point,
    check_beta,
    eval_Theta,
    require_feasible,
    residuals,
)
from .penalty import PenaltyConfig, feasibility_descent_direction
from .pieces import SlopeMin, function_prime_min, psi_prime_min, theta_prime_min

STATIONARY = "stationary"
NOT_STATIONARY = "not-stationary"
INCONCLUSIVE = "inconclusive"

STAT_TOL = 1e-8
CRIT_SLACK = 1e-8
N_STARTS = 64
SEARCH_ITERS = 500
_FD_H = 1e-7
# Columns per derivative call in the lockstep polish.  A call packs as many
# whole forward-difference blocks as fit (at the desk RNN, n = 22: 22
# candidates with blocks 22 columns wide, so 17 blocks per call); a block
# wider than the cap goes alone.  Wider calls save little time and raise the
# peak memory of a certify run.
_MAX_COLS = 384
_UNCONFIRMED = "search minimum did not re-evaluate below -tol/2"


@dataclass
class StationarityReport:
    """One check's verdict and its evidence.

    ``min_found`` is the smallest derivative found: at first order the
    minimum over the unit l1 ball that HiGHS returned, at second order the
    smallest curvature over the unit sphere.  ``samples`` counts the
    binaries of the first-order model, and the pool directions evaluated at
    second order, polished ones not counted (none when the point already
    fails or is undecided at first order; the first-order report then
    carries the witness and the minimum, and ``min_found`` 0.0 is no
    curvature).
    ``witness_value`` re-evaluates along the l2-normalised witness, so at
    first order it is at most ``min_found``.  A lifted second-order report
    may read stationary with ``min_found`` below -tol when the negative
    directions are not radial.
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
    notes: list[str] = field(default_factory=list)


def _directions(dim: int, count: int, seed: int) -> np.ndarray:
    """Seeded unit directions, one per column.

    ``count`` normalised standard-normal draws, uniform on the sphere, then
    the signed unit vectors +-e_i when dim <= 64.
    """
    pool = np.random.default_rng(seed).standard_normal((dim, count))
    pool /= np.linalg.norm(pool, axis=0)
    if dim <= 64:
        eye = np.eye(dim)
        pool = np.hstack([pool, eye, -eye])
    return pool


def _eval_blocks(f, points: list[np.ndarray], hI: np.ndarray | None = None) -> list:
    """f over each point's block of columns, in calls of whole blocks.

    A point's block is the point itself, or with ``hI`` its forward-difference
    probes ``point + hI``.  One call packs as many blocks as fit in
    ``_MAX_COLS`` columns (at least one).  f returns a tuple of per-column
    arrays; the result holds, per block in order, the tuple of its slices.
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
            blocks.append(tuple(o[sl] for o in out))
    return blocks


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


def _first_order(
    report: StationarityReport, sol: SlopeMin, confirm: Callable[[np.ndarray], tuple]
) -> StationarityReport:
    """The verdict that HiGHS's bounds allow on a first-order minimum.

    ``stationary`` needs the lower bound on the minimum at or above -tol;
    ``not-stationary`` needs the incumbent below -tol and its l2-normalised
    direction u to re-evaluate below -tol/2, where ``confirm(u)`` gives the
    witness and its re-evaluated slope.  Anything else is inconclusive, with
    a note that says why.
    """
    report.mode, report.samples, report.min_found = "exact", sol.binaries, sol.value
    if sol.bound is not None and sol.bound >= -report.tol:
        report.verdict = STATIONARY
    elif sol.value < -report.tol:
        _refute(report, *confirm(sol.d / np.linalg.norm(sol.d)))
    else:
        lo = "-inf" if sol.bound is None else f"{sol.bound:.3e}"
        report.notes.append(
            f"HiGHS bounds the minimum only to [{lo}, {sol.value:.3e}] within its "
            f"{pieces.MILP_TIME_LIMIT:g} s time limit"
        )
    return report


# ---------------------------------------------------------------------------
# First-order checks


def check_d_stationary_P0(
    problem: CompositeProblem, z: Point, tol: float = STAT_TOL
) -> StationarityReport:
    """Directional stationarity of the lifted problem at a feasible point.

    Tangent directions are exactly the lifted parameter directions, along
    which the lifted derivative equals the nested one, so the minimum runs
    over the parameter ball.
    """
    require_feasible(problem, z)
    report = StationarityReport("lifted", 1, INCONCLUSIVE, "exact", 0.0, None, None, 0, tol)

    def confirm(dth):
        return lift_direction(problem, z, dth), dd_Psi(problem, z.theta, dth, order=1).first

    return _first_order(report, psi_prime_min(problem, z.theta), confirm)


def check_d_stationary_P1(
    problem: CompositeProblem,
    z: Point,
    beta: Sequence[float],
    tol: float = STAT_TOL,
) -> StationarityReport:
    """Directional stationarity of the penalized problem over the full lifted space."""
    b = check_beta(problem, beta)
    report = StationarityReport("penalized", 1, INCONCLUSIVE, "exact", 0.0, None, None, 0, tol)

    def confirm(unit):
        d = direction_from_flat(problem, unit)
        return d, dd_Theta(problem, z, d, b, order=1).first

    return _first_order(report, theta_prime_min(problem, z, b), confirm)


# ---------------------------------------------------------------------------
# Second-order machinery


def _tangent_second_batch(
    problem: CompositeProblem,
    z: Point,
    DTH: np.ndarray,
    beta: np.ndarray | None,
    sign: float,
):
    """(phi1, phi2, bad) along the lifts of the columns of DTH.

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
            phi2 += sign * bk * np.sum(np.abs(psi2), axis=0)
            bad = bad | np.logical_or.reduce(bad2)
    return first, phi2, bad


def _critical(pool: np.ndarray, phi1: np.ndarray, phi2: np.ndarray, bad: np.ndarray) -> list:
    """(phi2, direction, bad) of the pool columns with |phi1| <= CRIT_SLACK, ascending in phi2."""
    crit = np.flatnonzero(np.abs(phi1) <= CRIT_SLACK)
    return sorted([(float(phi2[i]), pool[:, i], bool(bad[i])) for i in crit], key=lambda t: t[0])


def _critical_search(
    problem: CompositeProblem,
    z: Point,
    beta: np.ndarray | None,
    sign: float,
    seed: int,
) -> tuple[int, list]:
    """Search lifted critical directions for the most negative phi2.

    The pool is ``_directions(n, max(N_STARTS, 4n), seed)``, and its most
    negative columns, critical or not, are polished onto the critical set
    and down phi2 there.  Returns the pool's width and a list of (phi2,
    dtheta, bad) over the critical pool columns and polished candidates,
    ascending in phi2.
    """
    n = problem.n
    pool = _directions(n, max(N_STARTS, 4 * n), seed)

    def eval_pool(D):
        return _tangent_second_batch(problem, z, D, beta, sign)

    phi1, phi2, bad = eval_pool(pool)
    # Polish the most promising candidates: descend phi2 while projecting out
    # the component that moves phi1 away from zero.  The candidates advance
    # in lockstep, one call for the probes of all live ones per round and one
    # for their trial points.
    order_idx = np.argsort(np.where(bad, np.inf, phi2))
    polish = [i for i in order_idx[: max(8, n)] if not bad[i]]
    hI = _FD_H * np.eye(n)
    refined = [(float(phi1[i]), float(phi2[i]), pool[:, i].copy()) for i in polish]
    live = list(range(len(refined)))
    for _ in range(max(10, SEARCH_ITERS // 16)):
        if not live:
            break
        moving, trials = [], []
        for c, (p1, p2, _) in zip(live, _eval_blocks(eval_pool, [refined[c][2] for c in live], hI)):
            v1, v2, d = refined[c]
            g1 = (p1 - v1) / _FD_H
            g2 = (p2 - v2) / _FD_H
            # First pull toward criticality, then slide downhill along phi2.
            if abs(v1) > CRIT_SLACK:
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
            worse = abs(float(w1[0])) > CRIT_SLACK or float(w2[0]) > v2 - 1e-14
            if abs(v1) <= CRIT_SLACK and worse:
                continue
            refined[c] = (float(w1[0]), float(w2[0]), d2)
            if not bool(wb[0]):
                live.append(c)
    best = _critical(pool, phi1, phi2, bad)
    kept = [d for v1, _, d in refined if abs(v1) <= CRIT_SLACK]
    for d, (_, w2, wb) in zip(kept, _eval_blocks(eval_pool, kept)):
        best.append((float(w2[0]), d, bool(wb[0])))
    best.sort(key=lambda t: t[0])
    return pool.shape[1], best


def check_second_order(
    problem: CompositeProblem,
    z: Point,
    target: str,
    beta: Sequence[float] | None = None,
    seed: int = 0,
    tol: float = STAT_TOL,
) -> StationarityReport:
    """Second-order directional stationarity.

    First runs the matching exact first-order check, P0 for
    ``target='lifted'`` and P1 for ``target='penalized'``; a point that fails
    it, or that it cannot decide, gets that verdict.  At a first-order point,
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
    if target == "lifted":
        return _second_order(problem, z, check_d_stationary_P0(problem, z, tol), None, seed)
    b = check_beta(problem, beta)
    if b is None:
        raise ValueError("the penalized target needs beta")
    return _second_order(problem, z, check_d_stationary_P1(problem, z, b, tol), b, seed)


def _second_order(
    problem: CompositeProblem,
    z: Point,
    first: StationarityReport,
    beta: np.ndarray | None,
    seed: int,
) -> StationarityReport:
    """``check_second_order`` at a feasible z from its first-order report; beta None is lifted.

    A point that is not first-order stationary gets first's verdict, mode
    ``exact``, ``min_found`` 0.0 and no witness: the first-order report
    carries the witness and the minimum.
    """
    tol = first.tol
    report = StationarityReport(first.target, 2, INCONCLUSIVE, "sample", 0.0, None, None, 0, tol)
    if first.verdict != STATIONARY:
        report.verdict, report.mode = first.verdict, "exact"
        fails = first.verdict == NOT_STATIONARY
        report.notes.append(
            "already fails at first order" if fails else "first-order check inconclusive"
        )
        return report
    report.samples, cands = _critical_search(problem, z, beta, 1.0, seed)
    if not cands:
        report.notes.append("no critical directions located by sampling")
    unknown_radial = unconfirmed = skipped_bad = False
    for phi2, dth, bad in cands:
        if bad:
            skipped_bad = True
            continue
        report.min_found = min(report.min_found, phi2)
        if phi2 >= -tol:
            break
        d = lift_direction(problem, z, dth)
        if beta is None:
            membership = radial_membership(problem, z, d)
            if membership.in_radial is False:
                continue
            if membership.in_radial is None:
                unknown_radial = True
                continue
            confirmed = dd_F(problem, z, d, order=2).second
        else:
            confirmed = dd_Theta(problem, z, d, beta, order=2).second
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
    first = check_d_stationary_P1(problem, z, config.beta)
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
    _, cands = _critical_search(problem, z, config.beta, -1.0, seed)
    if not cands:
        out["verdict"] = "sufficient-holds"
        out["notes"].append("no critical directions located by sampling")
        return out
    usable = [(q, d) for q, d, bad in cands if not bad]
    if not usable:
        out["notes"].append("second derivatives unsupported on all critical candidates")
        return out
    qmin, dmin = usable[0]
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
    and tangent cones coincide, and its rows cut the first-order model's l1
    ball exactly.
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

    sol = function_prime_min(e, x, cone_rows)
    report = StationarityReport("box", order, INCONCLUSIVE, "exact", 0.0, None, None, 0, tol)
    _first_order(report, sol, lambda u: (u, dd_expr(e, x, u).first))
    if report.verdict == NOT_STATIONARY and order == 2:
        report.notes.append("already fails at first order")
    if report.verdict != STATIONARY or order == 1:
        return report
    report.verdict = INCONCLUSIVE

    # Exact route for an interior point whose first derivative vanishes
    # identically: recover the second derivative as a quadratic form from
    # basis evaluations, verify the form on probe directions, then read the
    # verdict off its minimum eigenvalue over the sphere.
    first_identically_zero = not cone_rows and float(np.max(np.abs(sol.coef), initial=0.0)) <= 1e-14
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
            probes = _directions(dim, 8, seed)[:, :8]  # the sphere draws alone
            pv = dd_expr_batch(e, x, probes, order=2)
            quad = np.einsum("im,ij,jm->m", probes, Q, probes)
            matches = not np.any(pv.bad2) and float(
                np.max(np.abs(pv.second - quad))
            ) <= 1e-10 * (1.0 + float(np.max(np.abs(pv.second))))
            if matches:
                vals, vecs = np.linalg.eigh(Q)
                report.mode = "exact"
                report.min_found = float(vals[0])
                report.samples = D.shape[1] + probes.shape[1]
                report.notes.append("second derivative is an exact quadratic form")
                if vals[0] >= -tol:
                    report.verdict = STATIONARY
                    return report
                _refute(report, vecs[:, 0], dd_expr(e, x, vecs[:, 0], order=2).second)
                return report

    # Fold the pool into the tangent cone; sign flips keep the columns unit.
    pool = _directions(dim, 8 * max(dim, 4), seed)
    for i in range(dim):
        if x[i] <= lower[i] + 1e-12:
            pool[i] = np.abs(pool[i])
        if x[i] >= upper[i] - 1e-12:
            pool[i] = -np.abs(pool[i])
    cell = dd_expr_batch(e, x, pool, order=2)
    cands = [(q, d) for q, d, bad in _critical(pool, cell.first, cell.second, cell.bad2) if not bad]
    report.mode, report.samples = "sample", pool.shape[1]
    if not cands:
        report.verdict = STATIONARY
        report.notes.append("no critical directions located by sampling")
        return report
    report.min_found, dmin = cands[0]
    if report.min_found < -tol:
        _refute(report, dmin, dd_expr(e, x, dmin, order=2).second)
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
    d1 = check_d_stationary_P1(problem, z, config.beta)
    d0 = sd0 = sd1 = None
    if res.feasible:
        d0 = check_d_stationary_P0(problem, z)
        sd1 = _second_order(problem, z, d1, config.beta, seed)
        sd0 = _second_order(problem, z, d0, None, seed)
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
