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
per-column arrays, the same bytes for a column alone or in a batch; the
scalar API wraps batch width one.  Each call runs one pass of one of the
problem's four tapes, all placed from one walk of its trees
(``model.CompositeProblem.graph``): the outer tape for F (``dd_F_batch``);
the fixed tape, whose links read the point's blocks, for the stacked
residual slopes (``residual_slopes``); the penalized tape, the maps and
then g over the point's blocks, for Theta (``dd_Theta_batch``); the chained
tape, whose links read the maps' rows, for the tangent lift
(``forward_curves``) and ``dd_Psi_batch``.  ``dd_F``, ``dd_Theta`` and
``dd_Psi`` read g, Theta or F off the values of that Taylor pass, which are a
value pass's bytes (``expr``), and run no value pass.

``dd_F_batch`` and every second-order batch return kinked flags; at first
order ``dd_Theta_batch`` and ``dd_Psi_batch`` build them only when called
with ``kinks=True``, as the scalar functions are for ``smooth``, and return
kinked None otherwise.
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
    Theta_and_roots,
    check_beta,
    check_blocks,
    check_point,
    checked_g,
    row_dots,
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
    """Directional derivatives of a single expression over parameter leaves; a leaf past them raises ValueError."""
    x = np.asarray(x, dtype=float).ravel()
    ex.validate(e, x.size, 0, ())
    d = np.asarray(d, dtype=float).ravel()
    if x.shape != d.shape:
        raise DimensionError("point and direction dimensions differ")
    cell = ex.taylor_cells([e], x, [], d.reshape(-1, 1), [], order=order)[0]
    return _pick(cell.first, cell.second, cell.bad2, cell.kinked, cell.value, order)


# ---------------------------------------------------------------------------
# Lifted objective F and penalized objective Theta


def _plus_ridge(problem: CompositeProblem, gcell: ex.Cell, th: np.ndarray, DTH: np.ndarray, order: int):
    """First and second coefficients of g plus the ridge lambda*||theta||^2, by one dot per column of DTH."""
    D = np.ascontiguousarray(DTH.T)
    first = gcell.first + 2.0 * problem.lam * row_dots(D, th)
    if order == 2:
        return first, gcell.second + 2.0 * problem.lam * row_dots(D, D)
    return first, None


def _F(problem: CompositeProblem, th: np.ndarray, DTH: np.ndarray, order: int, cells: ex.Cells):
    """F's (first, second, bad, kinked) off g, the last root of ``cells``, a pass at parameter th along DTH."""
    g = cells.cell(-1)
    return (*_plus_ridge(problem, g, th, DTH, order), g.bad2, g.kinked)


def dd_F_batch(problem: CompositeProblem, z: Point, DTH: np.ndarray, DU: Sequence[np.ndarray], order: int = 1):
    """Batched F derivatives by one pass of the outer tape: returns (first, second, bad, kinked) arrays."""
    return _F(problem, z.theta, DTH, order, problem.outer_tape.cells(z.theta, z.u, DTH, DU, order, kinks=True))


def dd_F(problem: CompositeProblem, z: Point, d: Direction, order: int = 1) -> DDValue:
    check_point(problem, z)
    dth, dus = _as_batch(problem, d)
    cells = problem.outer_tape.cells(z.theta, z.u, dth, dus, order, kinks=True)
    value = checked_g(problem, float(cells.value[-1])) + problem.lam * float(z.theta @ z.theta)
    return _pick(*_F(problem, z.theta, dth, order, cells), value, order)


def residual_slopes(
    problem: CompositeProblem, z: Point, DTH: np.ndarray, DU: Sequence[np.ndarray], order: int = 1
) -> ex.Cells:
    """The ``Cells`` of one fixed-tape pass at z along (DTH, DU), ``first`` replaced by the slopes DU - psi'(z; d).

    At a feasible z, d is tangent exactly when every slope vanishes.
    """
    cells = problem.fixed_tape.cells(z.theta, z.u, DTH, DU, order)
    return cells._replace(first=np.concatenate(DU) - cells.first)


def dd_Theta_batch(
    problem: CompositeProblem, z: Point, DTH: np.ndarray, DU: Sequence[np.ndarray], beta: np.ndarray, order: int = 1,
    *, kinks: bool = False
):
    """Batched Theta derivatives: returns (first, second, bad, kinked) arrays, kinked None at order 1 unless ``kinks``.

    Each l1 term expands exactly: a component with signed residual adds
    its signed residual slope at first order and the signed negative of the
    map's second derivative at second order; one with zero residual adds
    the absolute slope, its sign breaking the tie at second order.  One
    pass of the penalized tape gives F's data off its last root, g, and the
    maps' rows; all layers' terms are read off those rows, summed by
    ``_layer_folds`` and added to F's in layer order.
    """
    cells = problem.penalized_tape.cells(z.theta, z.u, DTH, DU, order, kinks=kinks)
    return _Theta(problem, z, DTH, DU, beta, order, cells)


def _Theta(problem: CompositeProblem, z: Point, DTH: np.ndarray, DU: Sequence[np.ndarray], beta, order: int, cells):
    """``dd_Theta_batch`` off ``cells``, its penalized pass."""
    first, second, bad, kinked = _F(problem, z.theta, DTH, order, cells)
    R = problem.layer_of_row.size
    rho, W = np.concatenate(z.u) - cells.value[:R], np.concatenate(DU) - cells.first[:R]
    pos, neg = rho > FEAS_TOL, rho < -FEAS_TOL
    zer = ~(pos | neg)
    kinked = None if kinked is None else kinked | (np.abs(W[zer]) > KINK_TOL).any(axis=0)
    masks, terms = [pos, neg, zer], [W, W, np.abs(W)]
    if order == 2:
        S = cells.second[:R]
        bad = bad | cells.bad2[:R].any(axis=0)
        masks += masks
        terms += [S, S, np.where(W > KINK_TOL, -S, np.where(W < -KINK_TOL, S, np.abs(S)))]
    sums = _layer_folds(problem, np.where(np.array(masks)[:, :, None], terms, -0.0))
    b = np.asarray(beta, dtype=float)[:, None]
    first = _in_layer_order(first, b * (sums[0] - sums[1] + sums[2]))
    if order == 2:
        second = _in_layer_order(second, b * (-sums[3] + sums[4] + sums[5]))
    return first, second, bad, kinked


def _layer_folds(problem: CompositeProblem, T: np.ndarray) -> np.ndarray:
    """Per layer, 0.0 + t_1 + t_2 + ... over its rows in order: (k, R, m) -> (k, L, m).

    So ``np.sum(T_l, axis=0)`` adds two or more columns; here any width does.
    The layers of one width fold together, a row of each at a time, as
    ``model._residual_summary`` groups them.
    """
    k, _, m = T.shape
    S = np.empty((k, problem.L, m))
    for at, rows in problem.width_groups:
        acc = np.zeros((k, len(at), m))
        for j in range(rows.shape[1]):
            acc += T[:, rows[:, j]]
        S[:, at] = acc
    return S


def _in_layer_order(acc: np.ndarray, T: np.ndarray) -> np.ndarray:
    """((acc + T[0]) + T[1]) + ...: the layers' terms (L, m) added to acc in layer order."""
    return np.cumsum(np.vstack([acc[None], T]), axis=0)[-1]


def dd_Theta(
    problem: CompositeProblem, z: Point, d: Direction, beta: Sequence[float], order: int = 1
) -> DDValue:
    b = check_beta(problem, beta)
    check_point(problem, z)
    dth, dus = _as_batch(problem, d)
    cells = problem.penalized_tape.cells(z.theta, z.u, dth, dus, order, kinks=True)
    value = Theta_and_roots(problem, z, b, cells.value)[0]
    return _pick(*_Theta(problem, z, dth, dus, b, order, cells), value, order)


# ---------------------------------------------------------------------------
# Nested objective along curves of lifted blocks


def forward_curves(problem: CompositeProblem, th: np.ndarray, DTH: np.ndarray, order: int = 1):
    """Forward pass with one-sided Taylor data chained through the layers.

    One pass of the chained tape gives each layer the value, first and
    second coefficients of the curves tau -> u_j(theta + tau d), so the
    result describes the nested objective.  Returns (ublocks, DU, EU, kinked,
    bad), one array per layer in each, with EU, kinked and bad None at first order.
    """
    cells = problem.chained_tape.cells(th, (), np.asarray(DTH, dtype=float), (), order)
    return tuple(None if rows is None else [rows[r] for r in problem.layer_rows] for rows in cells)


def dd_Psi_batch(problem: CompositeProblem, th: np.ndarray, DTH: np.ndarray, order: int = 1, *, kinks: bool = False):
    """(layer values, first, second, bad, kinked) of Psi + lambda*||.||^2 along DTH's columns.

    One pass of the chained tape: its last root is g along the layer curves,
    and a column is kinked where any layer or g hit an active kink (None at order 1 unless ``kinks``).
    """
    cells = problem.chained_tape.cells(th, (), DTH, (), order, kinks=kinks)
    kinked = None if cells.kinked is None else cells.kinked.any(axis=0)
    return [cells.value[r] for r in problem.layer_rows], *_F(problem, th, DTH, order, cells)[:3], kinked


def dd_Psi(problem: CompositeProblem, th: np.ndarray, dtheta: np.ndarray, order: int = 1) -> DDValue:
    """The nested objective Psi + lambda*||.||^2 at theta and its derivatives, all from one chained pass."""
    th = np.asarray(th, dtype=float).ravel()
    DTH = np.asarray(dtheta, dtype=float).reshape(-1, 1)
    if th.size != problem.n or DTH.size != problem.n:
        raise DimensionError(f"theta and direction must have length {problem.n}")
    cells = problem.chained_tape.cells(th, (), DTH, (), order, kinks=True)
    value = checked_g(problem, float(cells.value[-1])) + problem.lam * float(th @ th)
    return _pick(*_F(problem, th, DTH, order, cells)[:3], cells.kinked.any(axis=0), value, order)


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
