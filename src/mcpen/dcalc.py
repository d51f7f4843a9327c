"""Exact first and second directional derivatives, and a finite-difference oracle.

All derivative values here are one-sided: for a function f and direction d,

    first  = lim (f(x + tau d) - f(x)) / tau                        (tau -> 0+)
    second = lim (f(x + tau d) - f(x) - tau*first) / (tau^2 / 2)    (tau -> 0+)

The structural routines (``dd_expr``, ``dd_Psi``, ``dd_F``, ``dd_Theta``)
compute these exactly from the expression trees.  ``fd_oracle`` estimates
the same limits from difference quotients with Richardson extrapolation and
is kept free of any shared code path with the structural rules, so the two
can check each other.

Batched variants accept a matrix of directions (one per column) and return
per-column arrays; the scalar API wraps batch width one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import expr as ex
from .model import (
    FEAS_TOL,
    CompositeProblem,
    DimensionError,
    Point,
    check_beta,
    check_blocks,
    check_point,
    eval_F,
    eval_g,
    eval_Theta,
    split_flat,
)

# Residual-derivative magnitudes below this count as zero when the sign of
# a zero residual's slope breaks its tie.
KINK_TOL = 1e-12

ORACLE_TAU0 = 1e-2
ORACLE_HALVINGS = 20
ORACLE_TOL = 1e-6


@dataclass(frozen=True)
class Direction:
    """A lifted direction d = (d_theta, d_u) in block form."""

    dtheta: np.ndarray
    du: tuple[np.ndarray, ...]

    def flat(self) -> np.ndarray:
        return np.concatenate([self.dtheta] + [b for b in self.du])

    def norm(self) -> float:
        return float(np.linalg.norm(self.flat()))


def direction_from_flat(problem: CompositeProblem, v: np.ndarray) -> Direction:
    dth, blocks = split_flat(problem, np.asarray(v, dtype=float).ravel())
    return Direction(dth.copy(), tuple(b.copy() for b in blocks))


def zeros_direction(problem: CompositeProblem) -> Direction:
    return Direction(np.zeros(problem.n), tuple(np.zeros(w) for w in problem.widths))


def check_direction(problem: CompositeProblem, d: Direction) -> None:
    check_blocks(problem, d.dtheta, d.du, ("d_theta", "direction", "direction block"))


@dataclass
class DDValue:
    """Function value plus one-sided derivative data along one direction."""

    value: float
    first: float
    second: float | None = None
    smooth: bool = True
    second_reason: str | None = None


def _as_batch(problem: CompositeProblem, d: Direction) -> tuple[np.ndarray, list[np.ndarray]]:
    check_direction(problem, d)
    dth = np.asarray(d.dtheta, dtype=float).reshape(problem.n, 1)
    dus = [np.asarray(b, dtype=float).reshape(-1, 1) for b in d.du]
    return dth, dus


def _stack(cells: Sequence[ex.Cell], attr: str) -> np.ndarray:
    return np.array([getattr(c, attr) for c in cells])


def _pick(first: np.ndarray, second, bad, kinked, value: float, order: int, col: int = 0) -> DDValue:
    out = DDValue(value, float(first[col]), smooth=not bool(kinked[col]))
    if order == 2:
        if bad is not None and bool(bad[col]):
            out.second = None
            out.second_reason = "second order unsupported for this nesting at this point"
        else:
            out.second = float(second[col])
    return out


# ---------------------------------------------------------------------------
# Plain expressions over the parameter space


def dd_expr(e: ex.Expr, x: np.ndarray, d: np.ndarray, order: int = 1) -> DDValue:
    """Directional derivatives of a single expression over parameter leaves."""
    x = np.asarray(x, dtype=float).ravel()
    d = np.asarray(d, dtype=float).ravel()
    if x.shape != d.shape:
        raise DimensionError("point and direction dimensions differ")
    cell = ex.taylor_cells([e], x, [], d.reshape(-1, 1), [], order=order)[0]
    return _pick(cell.first, cell.second, cell.bad2, cell.kinked, cell.value, order)


def dd_expr_batch(e: ex.Expr, x: np.ndarray, D: np.ndarray, order: int = 1) -> ex.Cell:
    x = np.asarray(x, dtype=float).ravel()
    return ex.taylor_cells([e], x, [], np.asarray(D, dtype=float), [], order=order)[0]


# ---------------------------------------------------------------------------
# Lifted objective F and penalized objective Theta


def _plus_ridge(problem: CompositeProblem, gcell: ex.Cell, th: np.ndarray, DTH: np.ndarray, order: int):
    """First and second coefficients of g plus the ridge lambda*||theta||^2."""
    first = gcell.first + 2.0 * problem.lam * (th @ DTH)
    if order == 2:
        return first, gcell.second + 2.0 * problem.lam * np.sum(DTH * DTH, axis=0)
    return first, None


def dd_F_batch(problem: CompositeProblem, z: Point, DTH: np.ndarray, DU: Sequence[np.ndarray], order: int = 1):
    """Batched F derivatives: returns (first, second, bad, kinked) arrays."""
    gcell = ex.taylor_cells([problem.outer], z.theta, z.u, DTH, DU, order=order)[0]
    return (*_plus_ridge(problem, gcell, z.theta, DTH, order), gcell.bad2, gcell.kinked)


def dd_F(problem: CompositeProblem, z: Point, d: Direction, order: int = 1) -> DDValue:
    check_point(problem, z)
    dth, dus = _as_batch(problem, d)
    first, second, bad, kinked = dd_F_batch(problem, z, dth, dus, order)
    return _pick(first, second, bad, kinked, eval_F(problem, z), order)


def residual_slopes(
    problem: CompositeProblem, z: Point, DTH: np.ndarray, DU: Sequence[np.ndarray], order: int = 1
):
    """Per layer k, the Taylor data of psi_{k-1} at z along the columns of (DTH, DU).

    Yields (value, w, second, bad2) for k = 1..L, lazily: ``value`` is
    psi_{k-1}(z) from the Taylor cells, ``w = DU_k - psi'_{k-1}(z; d)`` the
    residual slopes with one column per direction, and at order 2
    ``second``/``bad2`` the stacked second coefficients and their flags
    (None at order 1).  At a feasible z, d is tangent exactly when every w
    vanishes.
    """
    for k, lm in enumerate(problem.layers):
        cells = ex.taylor_cells(lm.exprs, z.theta, z.u, DTH, DU, order=order)
        w = DU[k] - _stack(cells, "first")
        if order == 2:
            yield _stack(cells, "value"), w, _stack(cells, "second"), _stack(cells, "bad2")
        else:
            yield _stack(cells, "value"), w, None, None


def dd_Theta_batch(
    problem: CompositeProblem,
    z: Point,
    DTH: np.ndarray,
    DU: Sequence[np.ndarray],
    beta: np.ndarray,
    order: int = 1,
):
    """Batched Theta derivatives: returns (first, second, bad, kinked) arrays.

    The penalty contribution follows the exact expansion of each l1 term:
    components with strictly signed residual contribute the signed residual
    derivative at first order and the signed negative of the layer map's
    second derivative at second order; components with zero residual
    contribute the absolute residual derivative, with the tie broken by its
    sign at second order.
    """
    first, second, bad, kinked = dd_F_batch(problem, z, DTH, DU, order)
    slopes = residual_slopes(problem, z, DTH, DU, order)
    for uk, bk, (psi_val, w, psi_second, bad2) in zip(z.u, beta, slopes):
        rho = uk - psi_val
        pos = rho > FEAS_TOL
        neg = rho < -FEAS_TOL
        zer = ~(pos | neg)
        first += bk * (
            np.sum(w[pos], axis=0) - np.sum(w[neg], axis=0) + np.sum(np.abs(w[zer]), axis=0)
        )
        kinked = kinked | np.logical_or.reduce(
            [np.abs(w[i]) > KINK_TOL for i in np.flatnonzero(zer)] or [np.zeros(w.shape[1], bool)]
        )
        if order == 2:
            bad = bad | np.logical_or.reduce(bad2)
            zsel = np.where(
                w > KINK_TOL, -psi_second, np.where(w < -KINK_TOL, psi_second, np.abs(psi_second))
            )
            second += bk * (
                -np.sum(psi_second[pos], axis=0)
                + np.sum(psi_second[neg], axis=0)
                + np.sum(zsel[zer], axis=0)
            )
    return first, second, bad, kinked


def dd_Theta(
    problem: CompositeProblem, z: Point, d: Direction, beta: Sequence[float], order: int = 1
) -> DDValue:
    b = check_beta(problem, beta)
    check_point(problem, z)
    dth, dus = _as_batch(problem, d)
    first, second, bad, kinked = dd_Theta_batch(problem, z, dth, dus, b, order)
    return _pick(first, second, bad, kinked, eval_Theta(problem, z, b), order)


# ---------------------------------------------------------------------------
# Nested objective along curves of lifted blocks


def forward_curves(problem: CompositeProblem, th: np.ndarray, DTH: np.ndarray, order: int = 1):
    """Forward pass with one-sided Taylor data chained through the layers.

    Feeds each layer the value, first and second coefficients of the curves
    tau -> u_j(theta + tau d), so the result describes the nested objective.
    Returns (ublocks, DU, EU, kinked, bad) with EU/bad None at first order.
    """
    ublocks: list[np.ndarray] = []
    DU: list[np.ndarray] = []
    EU: list[np.ndarray] | None = [] if order == 2 else None
    KU: list[np.ndarray] = []
    BU: list[np.ndarray] | None = [] if order == 2 else None
    for k in range(1, problem.L + 1):
        cells = ex.taylor_cells(
            problem.layers[k - 1].exprs,
            th,
            ublocks,
            DTH,
            DU,
            order=order,
            eublocks=EU,
            ukinked=KU,
            ubad2=BU,
        )
        ublocks.append(_stack(cells, "value"))
        DU.append(_stack(cells, "first"))
        KU.append(_stack(cells, "kinked"))
        if order == 2:
            EU.append(_stack(cells, "second"))
            BU.append(_stack(cells, "bad2"))
    return ublocks, DU, EU, KU, BU


def dd_Psi_batch(problem: CompositeProblem, th: np.ndarray, DTH: np.ndarray, order: int = 1):
    """(layer values, first, second, bad, kinked) of Psi + lambda*||.||^2 along DTH's columns."""
    ublocks, DU, EU, KU, BU = forward_curves(problem, th, DTH, order)
    gcell = ex.taylor_cells(
        [problem.outer], th, ublocks, DTH, DU, order=order, eublocks=EU, ukinked=KU, ubad2=BU
    )[0]
    first, second = _plus_ridge(problem, gcell, th, DTH, order)
    kinked = gcell.kinked | np.logical_or.reduce(
        [k.any(axis=0) for k in KU] or [np.zeros(DTH.shape[1], bool)]
    )
    return ublocks, first, second, gcell.bad2, kinked


def dd_Psi(problem: CompositeProblem, th: np.ndarray, dtheta: np.ndarray, order: int = 1) -> DDValue:
    """Derivatives of the nested objective Psi + lambda*||.||^2 at theta."""
    th = np.asarray(th, dtype=float).ravel()
    dtheta = np.asarray(dtheta, dtype=float).ravel()
    if th.size != problem.n or dtheta.size != problem.n:
        raise DimensionError(f"theta and direction must have length {problem.n}")
    ublocks, first, second, bad, kinked = dd_Psi_batch(problem, th, dtheta.reshape(-1, 1), order)
    value = eval_g(problem, ublocks) + problem.lam * float(th @ th)
    return _pick(first, second, bad, kinked, value, order)


# ---------------------------------------------------------------------------
# Finite-difference oracle


@dataclass
class OracleResult:
    value: float
    error: float
    converged: bool
    order: int
    quotients: np.ndarray
    taus: np.ndarray


def fd_oracle(
    f: Callable[[np.ndarray], float],
    x: np.ndarray,
    d: np.ndarray,
    order: int = 1,
    tau0: float = ORACLE_TAU0,
) -> OracleResult:
    """Estimate a one-sided directional derivative from difference quotients.

    First order uses forward quotients; second order uses the one-sided
    three-point quotient (f(x+2*tau*d) - 2f(x+tau*d) + f(x)) / tau^2, which
    shares the limit of the defining quotient without needing the first
    derivative.  A small Neville table extrapolates in tau; the entry with
    the most settled neighborhood wins.  Non-convergence is reported in the
    result, never raised.
    """
    if order not in (1, 2):
        raise ValueError("order must be 1 or 2")
    x = np.asarray(x, dtype=float).ravel()
    d = np.asarray(d, dtype=float).ravel()
    taus = tau0 * 0.5 ** np.arange(ORACLE_HALVINGS)
    f0 = f(x)
    q = np.empty(ORACLE_HALVINGS)
    for k, tau in enumerate(taus):
        if order == 1:
            q[k] = (f(x + tau * d) - f0) / tau
        else:
            q[k] = (f(x + 2.0 * tau * d) - 2.0 * f(x + tau * d) + f0) / (tau * tau)
    # Neville extrapolation, two levels.  An entry's error estimate is its
    # gap to both neighbors (left in the row, up in the column); raw entries
    # are never selected directly, which keeps roundoff plateaus in the raw
    # column from posing as settled values.  Stop once a whole row is far
    # worse than the best seen: smaller tau only adds noise from there.
    best_val, best_err = float(q[0]), np.inf
    prev_row = [float(q[0])]
    for k in range(1, ORACLE_HALVINGS):
        row = [float(q[k])]
        for j in range(1, min(k, 2) + 1):
            w = 2.0**j
            row.append((w * row[j - 1] - prev_row[j - 1]) / (w - 1.0))
        row_best = np.inf
        for j in range(1, len(row)):
            if not (np.isfinite(row[j]) and np.isfinite(row[j - 1]) and np.isfinite(prev_row[j - 1])):
                continue
            err = max(abs(row[j] - row[j - 1]), abs(row[j] - prev_row[j - 1]))
            row_best = min(row_best, err)
            if err <= best_err:
                best_err, best_val = err, row[j]
        if k >= 4 and row_best > 4.0 * best_err + 1e-300:
            break
        prev_row = row
    converged = bool(best_err <= ORACLE_TOL * (1.0 + abs(best_val)))
    return OracleResult(float(best_val), float(best_err), converged, order, q, taus)


def ray_quotients(
    f: Callable[[np.ndarray], float],
    x: np.ndarray,
    v_fn: Callable[[float], np.ndarray],
    first_fn: Callable[[np.ndarray], float],
    taus: Sequence[float],
) -> np.ndarray:
    """Raw second-order defining quotients along tau -> x + tau * v(tau).

    Each is (f(x + tau v) - f(x) - tau * first_fn(v)) / (tau^2/2)
    with v = v_fn(tau); the direction may move with tau, which is exactly the
    regime where one-sided second derivatives can fail to be limits of
    moving-direction quotients.  ``first_fn`` must supply the exact first
    directional derivative at x for the given direction.
    """
    x = np.asarray(x, dtype=float).ravel()
    f0 = f(x)
    out = np.empty(len(taus))
    for k, tau in enumerate(taus):
        v = np.asarray(v_fn(tau), dtype=float).ravel()
        out[k] = (f(x + tau * v) - f0 - tau * first_fn(v)) / (tau * tau / 2.0)
    return out
