"""Directional stationarity checks for the nested, lifted, and penalized problems.

First-order checks minimize the relevant directional derivative over the unit
l1 ball through its model's ``solve`` (``pieces.theta_prime_model`` and its
siblings), and the verdict comes from the bounds: stationary when the lower
bound on the minimum is at least -tol, not stationary when the incumbent
direction, l2-normalised, re-evaluates below -tol/2 through the derivative
calculus, and inconclusive otherwise.  P0's incumbent re-evaluates in one
pass of the chained tape, whose layer roots give its lift and whose last
root gives its slope; P1's in one Taylor pass of the penalized tape
(``dcalc.dd_Theta_batch``), with no value pass.  The bounds are the exact
vertex value where the objective weighs no tie and no row cuts the ball,
else a multiplier bound, which settles a stationary point at d = 0 when it
is at least -tol, else HiGHS's.  Where the multipliers leave a tangential
residual above tol, its direction in ker Z is the incumbent instead, and
HiGHS runs only if it does not re-evaluate below -tol/2.  Second-order
checks start from the matching first-order verdict, since a second-order
stationary point is first-order stationary.  At a first-order stationary
point the critical directions (tangent, with vanishing first derivative,
parametrized by their parameter component) form a subspace S wherever P0's
model reads one off its switches (``critical_basis``); there F'' is a
quadratic form, checked on probes read in the same calls, whose smallest
eigenvalue decides.  Elsewhere a seeded pool is searched, and a note says
why.

Verdicts carry their evidence mode.  ``exact`` verdicts rest on the
first-order bounds or on a verified quadratic form; ``sample`` verdicts
reflect a seeded search and may miss structure, which is reported rather
than hidden.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from . import dcalc, pieces
from . import expr as ex
from .cones import lift_direction, lift_direction_batch, radial_membership
from .dcalc import (
    Direction,
    _as_batch,
    _F,
    _in_layer_order,
    _layer_folds,
    dd_F,
    dd_F_batch,
    dd_Theta,
    direction_from_flat,
)
from .model import (
    CompositeProblem,
    Point,
    Theta_and_roots,
    check_beta,
    check_tol,
    require_feasible,
    residuals,
)
from .penalty import PenaltyConfig, feasibility_descent_direction
from .pieces import CRIT_SLACK, function_prime_model, theta_prime_model

STATIONARY = "stationary"
NOT_STATIONARY = "not-stationary"
INCONCLUSIVE = "inconclusive"

STAT_TOL = 1e-8
N_STARTS = 64
# Columns per derivative call when a quadratic form is polarized: at n = 97
# it needs 4753, and one call would hold several nbar-row arrays that wide.
_MAX_COLS = 384
_UNCONFIRMED = "search minimum did not re-evaluate below -tol/2"


@dataclass
class StationarityReport:
    """One check's verdict and its evidence.

    ``min_found`` is the smallest derivative found: at first order the
    slope of the incumbent over the unit l1 ball, which is the exact
    minimum where the vertex form (the objective weighs no tie) or HiGHS
    gave it, the slope along the multipliers' direction in ker Z where that
    refuted, and 0.0 where the multiplier bound proved the point
    stationary; at second order the smallest eigenvalue of F'' on S (a
    lower bound for the penalized target) or the smallest sampled curvature.  ``samples`` counts the
    binaries the first-order model built, sent to HiGHS or not, and the
    directions evaluated at second order: the form's columns and probes,
    then any pool (none when the point fails or is undecided at first
    order; the first-order report then carries the witness and the
    minimum, and ``min_found`` 0.0 is no curvature).  ``witness_value``
    re-evaluates along the l2-normalised witness, so at first order it is
    at most ``min_found``.  A lifted second-order report may read
    stationary with ``min_found`` below -tol when the negative directions
    are not radial.
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


def _confirms(confirmed: float | None, tol: float) -> bool:
    """Whether a witness's re-evaluated slope or curvature lies below -tol/2."""
    return confirmed is not None and confirmed < -tol / 2.0


def _refute(report: StationarityReport, witness, confirmed: float | None) -> bool:
    """Record a refutation when the witness re-evaluates below -tol/2.

    Otherwise note, once per report, that it did not; the caller's verdict
    then stays inconclusive unless another witness refutes.
    """
    if _confirms(confirmed, report.tol):
        report.verdict, report.witness = NOT_STATIONARY, witness
        report.witness_value = float(confirmed)
        return True
    if _UNCONFIRMED not in report.notes:
        report.notes.append(_UNCONFIRMED)
    return False


def _first_order(
    report: StationarityReport,
    model: pieces._SlopeModel,
    obj: np.ndarray,
    confirm: Callable[[np.ndarray], tuple],
) -> StationarityReport:
    """The verdict that the bounds of obj's minimum allow: the vertex's, the multipliers' or HiGHS's.

    ``not-stationary`` needs the incumbent below -tol and its l2-normalised
    direction u to re-evaluate below -tol/2, where ``confirm(u)`` gives the
    witness and its re-evaluated slope; such a witness refutes before any
    bound is read.  ``stationary`` needs the lower bound on the minimum at or
    above -tol and no incumbent below -tol (a multiplier bound comes with d
    = 0 and value 0.0).  A multipliers' witness that does not re-evaluate
    that low hands the model to HiGHS.  Anything else is inconclusive, with
    a note that says why: a bound at or above -tol beside an unconfirmed
    incumbent below it is a contradiction that the note names, as HiGHS's
    time limit (status 1) or other status and message is.
    """
    tol = report.tol

    def incumbent(sol):
        return confirm(sol.d / np.linalg.norm(sol.d)) if sol.value < -tol else None

    sol = model.solve(obj, tol)
    found = incumbent(sol)
    if sol.source == "multipliers" and found is not None and not _confirms(found[1], tol):
        sol = model.solve(obj)
        found = incumbent(sol)
    report.mode, report.samples, report.min_found = "exact", sol.binaries, sol.value
    bounded = sol.bound is not None and sol.bound >= -tol
    if found is not None and (_confirms(found[1], tol) or not bounded):
        _refute(report, *found)
    elif found is not None:
        report.notes.append(
            f"lower bound {sol.bound:.3e} contradicts the incumbent {sol.value:.3e}, "
            "which did not re-evaluate below -tol/2"
        )
    elif bounded:
        report.verdict = STATIONARY
    else:
        lo = "-inf" if sol.bound is None else f"{sol.bound:.3e}"
        why = f"and stopped with status {sol.status}: {sol.message}"
        if sol.status == 1:
            why = f"within its {pieces.MILP_TIME_LIMIT:g} s time limit"
        report.notes.append(f"HiGHS bounds the minimum only to [{lo}, {sol.value:.3e}] {why}")
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
    check_tol("tol", tol)
    require_feasible(problem, z)
    return _p0_report(problem, z, tol, pieces.psi_prime_model(problem, z.theta))


def _p0_report(problem: CompositeProblem, z: Point, tol: float, p0: tuple) -> StationarityReport:
    """``check_d_stationary_P0`` at a feasible z whose P0 (model, objective) the caller built at z.theta.

    A witness dth is confirmed by one pass of the chained tape along it:
    the layer roots give its lift, and the last root, g, its slope.
    """
    model, obj = p0
    report = StationarityReport("lifted", 1, INCONCLUSIVE, "exact", 0.0, None, None, 0, tol)

    def confirm(dth):
        DTH = dth.reshape(-1, 1)
        cells = problem.chained_tape.cells(z.theta, (), DTH, (), 1)
        d = Direction(dth.copy(), tuple(cells.first[rows, 0] for rows in problem.layer_rows))
        return d, float(_F(problem, z.theta, DTH, 1, cells)[0][0])

    return _first_order(report, model, obj, confirm)


def check_d_stationary_P1(
    problem: CompositeProblem,
    z: Point,
    beta: Sequence[float],
    tol: float = STAT_TOL,
) -> StationarityReport:
    """Directional stationarity of the penalized problem over the full lifted space."""
    check_tol("tol", tol)
    b = check_beta(problem, beta)
    report = StationarityReport("penalized", 1, INCONCLUSIVE, "exact", 0.0, None, None, 0, tol)

    def confirm(unit):
        d = direction_from_flat(problem, unit)
        return d, float(dcalc.dd_Theta_batch(problem, z, *_as_batch(problem, d), b)[0][0])

    model, obj = theta_prime_model(problem, z, b)
    return _first_order(report, model, obj, confirm)


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
    if beta is None:
        return dd_F_batch(problem, z, DTH, DU, order=2)[:3]
    cells = problem.penalized_tape.cells(z.theta, z.u, DTH, DU, 2)
    first, phi2, bad, _ = _F(problem, z.theta, DTH, 2, cells)
    R = problem.layer_of_row.size
    terms = (sign * np.asarray(beta))[:, None] * _layer_folds(problem, np.abs(cells.second[:R])[None])[0]
    return first, _in_layer_order(phi2, terms), bad | cells.bad2[:R].any(axis=0)


def _curvature(problem: CompositeProblem, z: Point, d: Direction, beta) -> float | None:
    """F'' along d when beta is None, else the penalized second derivative."""
    ev = dd_F(problem, z, d, order=2) if beta is None else dd_Theta(problem, z, d, beta, order=2)
    return ev.second


def _critical(pool: np.ndarray, phi1: np.ndarray, phi2: np.ndarray, bad: np.ndarray) -> list:
    """(phi2, direction, bad) of the pool columns with |phi1| <= CRIT_SLACK, ascending in phi2."""
    crit = np.flatnonzero(np.abs(phi1) <= CRIT_SLACK)
    return sorted([(float(phi2[i]), pool[:, i], bool(bad[i])) for i in crit], key=lambda t: t[0])


def _quadratic_form(second: Callable, B: np.ndarray, seed: int) -> tuple:
    """(Q, columns evaluated, reason): a second derivative as a quadratic form on span(B).

    ``second(D)`` gives (phi2, bad) along D's columns.  Q, polarized from b_i
    and b_i + b_j, is accepted when no such column is flagged and it fits 8
    probes B u, u on the sphere, to 1e-10.  The probes follow the
    polarization columns, and all of them go in calls of at most
    ``_MAX_COLS`` columns.
    """
    k = B.shape[1]
    iu, ju = np.triu_indices(k, 1)
    u = _directions(k, 8, seed)[:, :8]  # the sphere draws alone
    D = np.hstack([B, B[:, iu] + B[:, ju], B @ u])
    parts = [second(D[:, s : s + _MAX_COLS]) for s in range(0, D.shape[1], _MAX_COLS)]
    phi, bad = (np.concatenate(p) for p in zip(*parts))
    polar = D.shape[1] - 8
    if np.any(bad[:polar]):
        return None, polar, "quadratic form has unsupported second derivatives"
    Q = np.diag(phi[:k])
    Q[iu, ju] = Q[ju, iu] = (phi[k:polar] - Q[iu, iu] - Q[ju, ju]) / 2.0
    pv = phi[polar:]
    quad = np.einsum("im,ij,jm->m", u, Q, u)
    if np.any(bad[polar:]) or float(np.max(np.abs(pv - quad))) > 1e-10 * (1.0 + float(np.max(np.abs(pv)))):
        return None, D.shape[1], "quadratic form misfits its probes"
    return Q, D.shape[1], None


def _lowest(B: np.ndarray, Q: np.ndarray) -> tuple[float, np.ndarray]:
    """Q's smallest eigenvalue and its eigenvector mapped through B, largest entry made positive."""
    vals, vecs = np.linalg.eigh(Q)
    v = B @ vecs[:, 0]
    return float(vals[0]), (v if v[np.argmax(np.abs(v))] > 0.0 else -v)


def _critical_form(problem: CompositeProblem, z: Point, seed: int, p0: tuple) -> tuple:
    """(B, Q, columns, reason) of F'' on S at z; B or Q None with the reason, 0 x 0 Q at S = {0}.

    ``p0`` is P0's (model, objective) from ``pieces.psi_prime_model`` at z.theta.
    """
    B = p0[0].critical_basis(p0[1])
    if B is None:
        return None, None, 0, "critical subspace unknown"
    if B.shape[1] == 0:
        return B, np.zeros((0, 0)), 0, None
    return B, *_quadratic_form(lambda D: _tangent_second_batch(problem, z, D, None, 1.0)[1:], B, seed)


def _pool(problem: CompositeProblem, z: Point, B, beta, sign: float, seed: int) -> tuple[int, list]:
    """Width and ``_critical`` columns of the seeded pool, drawn in B's coordinates (R^n if None)."""
    base = np.eye(problem.n) if B is None else B
    k = base.shape[1]
    pool = base @ _directions(k, max(N_STARTS, 4 * k), seed)
    return pool.shape[1], _critical(pool, *_tangent_second_batch(problem, z, pool, beta, sign))


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
    it, or that it cannot decide, gets that verdict.  ``target='penalized'``
    tests the penalized second derivative over the critical directions,
    which under certified beta are the tangent ones with vanishing first
    derivative: P0's, since a P1-stationary point is P0-stationary.
    ``target='lifted'`` tests F'' over critical radial directions; one whose
    radial membership is undecided leaves the verdict inconclusive.
    """
    if target not in ("penalized", "lifted"):
        raise ValueError("target must be 'penalized' or 'lifted'")
    check_tol("tol", tol)
    require_feasible(problem, z)
    if target == "penalized" and beta is None:
        raise ValueError("the penalized target needs beta")
    b = None if target == "lifted" else check_beta(problem, beta)
    if b is None:
        p0 = pieces.psi_prime_model(problem, z.theta)
        first = _p0_report(problem, z, tol, p0)
    else:
        first = check_d_stationary_P1(problem, z, b, tol)
        p0 = pieces.psi_prime_model(problem, z.theta) if first.verdict == STATIONARY else None
    form = _critical_form(problem, z, seed, p0) if first.verdict == STATIONARY else None
    return _second_order(problem, z, first, b, seed, form)


def _second_order(
    problem: CompositeProblem, z: Point, first: StationarityReport, beta, seed: int, form
) -> StationarityReport:
    """``check_second_order`` at a feasible z from its first-order report; beta None is lifted.

    A point that is not first-order stationary gets first's verdict, and the
    first-order report carries the witness.  Otherwise ``form`` is
    ``_critical_form`` at z: its smallest eigenvalue above tol proves both
    targets, as the penalized second derivative on tangent directions is F''
    plus a nonnegative term, and its eigenvector refutes when it re-evaluates
    below -tol/2 (radial first when lifted).  Else the pool decides, noted.
    """
    tol = first.tol
    report = StationarityReport(first.target, 2, INCONCLUSIVE, "exact", 0.0, None, None, 0, tol)
    if first.verdict != STATIONARY:
        report.verdict = first.verdict
        fails = first.verdict == NOT_STATIONARY
        report.notes.append(
            "already fails at first order" if fails else "first-order check inconclusive"
        )
        return report
    B, Q, report.samples, reason = form
    if Q is not None and Q.size == 0:
        report.verdict = STATIONARY
        report.notes.append("critical subspace is {0}")
        return report
    if Q is not None:
        report.min_found, v = _lowest(B, Q)
        if report.min_found > tol:
            report.verdict = STATIONARY
            return report
        d, reason = lift_direction(problem, z, v), "eigenvector not known radial"
        if beta is not None or radial_membership(problem, z, d).in_radial:
            curv = _curvature(problem, z, d, beta)
            if _confirms(curv, tol):
                report.verdict, report.witness, report.witness_value = NOT_STATIONARY, d, curv
                return report
            reason = "eigenvector did not re-evaluate below -tol/2"
    report.mode = "sample"
    report.notes.append(f"sampled: {reason}")
    width, cands = _pool(problem, z, B, beta, 1.0, seed)
    report.samples += width
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
            radial = radial_membership(problem, z, d).in_radial
            unknown_radial |= radial is None
            if not radial:
                continue
        if _refute(report, d, _curvature(problem, z, d, beta)):
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
    problem: CompositeProblem, z: Point, config: PenaltyConfig, seed: int = 0
) -> dict:
    """Sufficient condition for a strong local minimum of the penalized problem at a feasible point.

    Requires the first derivative to be nonnegative in every direction and
    the margin F'' minus the weighted l1 norm of the layer second derivatives
    to be strictly positive over nonzero critical directions.  The margin is
    at most F'', so an eigenvalue of F'' on S at or below zero fails it; else it is sampled.
    The critical subspace S comes from P0's tangent model, which describes
    Theta only at feasible points, so an infeasible z raises
    ``InfeasiblePointError`` as in ``check_second_order``.
    """
    require_feasible(problem, z)
    first = check_d_stationary_P1(problem, z, config.beta)
    out = dict(verdict=INCONCLUSIVE, first_order=first, margin_min=None, witness=None, notes=[])
    if first.verdict == NOT_STATIONARY:
        out["verdict"], out["notes"] = "fails", ["first-order condition fails"]
        return out
    if first.verdict == INCONCLUSIVE:
        out["notes"].append("first-order check inconclusive")
        return out
    if not config.certified:
        out["notes"].append("beta not certified; critical directions may exceed the tangent cone")
    B, Q, _, reason = _critical_form(problem, z, seed, pieces.psi_prime_model(problem, z.theta))
    if Q is not None and Q.size == 0:
        out["notes"].append("critical subspace is {0}")
        return {**out, "verdict": "sufficient-holds"}
    if Q is not None:
        lam, v = _lowest(B, Q)
        if lam <= 0.0:
            _, q, bad = _tangent_second_batch(problem, z, v.reshape(-1, 1), config.beta, -1.0)
            out["verdict"], out["witness"] = "fails", lift_direction(problem, z, v)
            out["margin_min"] = lam if bad[0] else float(q[0])
            return out
    else:
        out["notes"].append(f"sampled: {reason}")
    _, cands = _pool(problem, z, B, config.beta, -1.0, seed)
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
        out["verdict"], out["witness"] = "fails", lift_direction(problem, z, dmin)
    elif qmin > STAT_TOL:
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
) -> StationarityReport:
    """Directional stationarity of an expression over a box.

    The box tangent cone at x keeps components at the lower bound nonnegative
    and components at the upper bound nonpositive; it is polyhedral, so radial
    and tangent cones coincide, and its rows cut the first-order model's l1
    ball exactly.  Every derivative of e comes from one tape, compiled per call.
    A leaf other than a parameter below x.size raises ValueError naming it.
    """
    x = np.asarray(x, dtype=float).ravel()
    ex.validate(e, x.size, 0, ())
    lower = np.asarray(lower, dtype=float).ravel()
    upper = np.asarray(upper, dtype=float).ravel()
    if np.any(x < lower - 1e-12) or np.any(x > upper + 1e-12):
        raise ValueError("point lies outside the box")
    dim, eye = x.size, np.eye(x.size)
    tape = ex.compile_tape([e], (dim,))

    def along(D: np.ndarray) -> ex.Cell:
        """e's order-2 Taylor data along the columns of D."""
        return tape.cells(x, [], D, [], 2).cell(0)

    at_lo, at_hi = x <= lower + 1e-12, x >= upper - 1e-12
    cone_rows = [s * eye[i] for i in range(dim) for s, at in ((1.0, at_lo), (-1.0, at_hi)) if at[i]]
    model, obj = function_prime_model(e, tape, x, cone_rows)
    report = StationarityReport("box", order, INCONCLUSIVE, "exact", 0.0, None, None, 0, STAT_TOL)
    _first_order(report, model, obj, lambda u: (u, _confirmed(tape, x, u, 1)))
    if report.verdict == NOT_STATIONARY and order == 2:
        report.notes.append("already fails at first order")
    if report.verdict != STATIONARY or order == 1:
        return report
    report.verdict = INCONCLUSIVE

    # Exact route for an interior point whose first derivative vanishes, up
    # to CRIT_SLACK as for the critical subspace: the second derivative as a
    # verified quadratic form, read off at its minimum eigenvalue over the sphere.
    if not cone_rows and float(np.max(np.abs(obj), initial=0.0)) <= CRIT_SLACK:
        Q, columns, _ = _quadratic_form(lambda D: along(D)[2::2], eye, seed)  # (second, bad2)
        if Q is not None:
            vals, vecs = np.linalg.eigh(Q)
            report.min_found, report.samples = float(vals[0]), columns
            report.notes.append("second derivative is an exact quadratic form")
            if vals[0] >= -STAT_TOL:
                report.verdict = STATIONARY
                return report
            _refute(report, vecs[:, 0], _confirmed(tape, x, vecs[:, 0], 2))
            return report

    # Fold the pool into the tangent cone; sign flips keep the columns unit.
    pool = _directions(dim, 8 * max(dim, 4), seed)
    pool[at_lo] = np.abs(pool[at_lo])
    pool[at_hi] = -np.abs(pool[at_hi])
    cell = along(pool)
    cands = [(q, d) for q, d, bad in _critical(pool, cell.first, cell.second, cell.bad2) if not bad]
    report.mode, report.samples = "sample", pool.shape[1]
    if not cands:
        report.verdict = STATIONARY
        report.notes.append("no critical directions located by sampling")
        return report
    report.min_found, dmin = cands[0]
    if report.min_found < -STAT_TOL:
        _refute(report, dmin, _confirmed(tape, x, dmin, 2))
        return report
    report.verdict = STATIONARY
    return report


def _confirmed(tape: ex.Tape, x: np.ndarray, d: np.ndarray, order: int) -> float | None:
    """The derivative of this order of the tape's root at x along d, None where unsupported."""
    cell = tape.cells(x, [], d.reshape(-1, 1), [], order).cell(0)
    if order == 1:
        return float(cell.first[0])
    return None if cell.bad2[0] else float(cell.second[0])


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

    P0 minimises over the unit l1 ball of the parameters and P1 over that of
    the lifted space, where P0's witness is longer once lifted.  So where P0
    reads not-stationary and P1 stationary, the second and third
    implications are flagged only when P0's lifted witness, divided by its
    lifted l1 norm, has a slope of Theta below -tol: a P0 descent that one
    tol does not resolve on the lifted ball contradicts no P1 verdict.
    """
    theta_val, X = Theta_and_roots(problem, z, check_beta(problem, config.beta))
    res = residuals(problem, z, X)
    in_level = bool(theta_val <= config.gamma_bar + 1e-12)
    d1 = check_d_stationary_P1(problem, z, config.beta)
    d0 = sd0 = sd1 = None
    if res.feasible:
        p0 = pieces.psi_prime_model(problem, z.theta)
        d0 = _p0_report(problem, z, STAT_TOL, p0)
        form = _critical_form(problem, z, seed, p0) if STATIONARY in (d0.verdict, d1.verdict) else None
        sd1 = _second_order(problem, z, d1, config.beta, seed, form)
        sd0 = _second_order(problem, z, d0, None, seed, form)
    inconsistencies: list[str] = []
    guarded = in_level and config.certified
    excused = False
    if d0 is not None and (d0.verdict, d1.verdict) == (NOT_STATIONARY, STATIONARY):
        w = d0.witness.flat()
        unit = direction_from_flat(problem, w / np.sum(np.abs(w)))
        excused = not dd_Theta(problem, z, unit, config.beta).first < -d1.tol
    if guarded and d1.verdict == STATIONARY and not res.feasible:
        slope = dd_Theta(problem, z, feasibility_descent_direction(problem, z), config.beta).first
        inconsistencies.append(
            "penalized-stationary infeasible point inside the level set; "
            f"residual correction direction has slope {slope:.1e}"
        )
    if guarded and res.feasible and d0 is not None and not excused:
        if {d0.verdict, d1.verdict} <= {STATIONARY, NOT_STATIONARY} and d0.verdict != d1.verdict:
            inconsistencies.append("first-order verdicts of lifted and penalized problems differ")
    if sd0 is not None and sd1 is not None and not excused:
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
