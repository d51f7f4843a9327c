"""Tangent and radial cone tests for the lifted feasible set.

At a feasible point z the tangent cone of the layer-equation set is exactly
the set of directions whose u-blocks reproduce the chained first directional
derivatives of the layer maps; lifting a parameter direction through that
recursion always lands inside it.  The radial cone is smaller: staying on
the feasible set along a straight ray additionally forces the second
directional derivative of every layer map to vanish along the direction.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import expr as ex
from .dcalc import Direction, _as_batch, forward_curves, residual_slopes
from .model import (
    CompositeProblem,
    DimensionError,
    EvaluationError,
    Point,
    check_point,
    point_from_flat,
    require_feasible,
    residuals,
)

TANGENT_TOL = 1e-9
LIFT_TOL = 1e-12
RADIAL_TAUS = (1e-6, 1e-7, 1e-8)


@dataclass
class ConeMembership:
    in_tangent: bool
    in_radial: bool | None
    violations: list[np.ndarray]
    max_violation: float
    notes: list[str] = field(default_factory=list)


def tangent_membership(problem: CompositeProblem, z: Point, d: Direction) -> ConeMembership:
    """Check the chained derivative equations defining the tangent cone."""
    check_point(problem, z)
    batch = _as_batch(problem, d)
    require_feasible(problem, z)
    violations = [w[:, 0] for _, w, _, _ in residual_slopes(problem, z, *batch)]
    max_v = max(float(np.max(np.abs(v))) if v.size else 0.0 for v in violations)
    return ConeMembership(
        max_v <= TANGENT_TOL, None, violations, max_v, ["radial membership not evaluated"]
    )


def lift_direction(problem: CompositeProblem, z: Point, dtheta: np.ndarray) -> Direction:
    """Unique tangent direction over a parameter direction at a feasible z."""
    check_point(problem, z)
    require_feasible(problem, z)
    dtheta = np.asarray(dtheta, dtype=float).ravel()
    if dtheta.size != problem.n:
        raise DimensionError(f"d_theta has length {dtheta.size}, expected {problem.n}")
    DU = forward_curves(problem, z.theta, dtheta.reshape(-1, 1))[1]
    return Direction(dtheta.copy(), tuple(b[:, 0] for b in DU))


def lift_direction_batch(problem: CompositeProblem, z: Point, DTH: np.ndarray) -> list[np.ndarray]:
    """Batched lift: DTH has one parameter direction per column."""
    check_point(problem, z)
    return forward_curves(problem, z.theta, np.asarray(DTH, dtype=float))[1]


def _degree(e: ex.Expr) -> int:
    """Upper bound on polynomial degree in the inputs, kinks transparent."""
    family, data = e.family, e.data
    if family == ex.LEAF:
        return 0 if data is None else 1
    degs = [_degree(a) for a in e.args]
    if family == ex.PRODUCT:
        return max((degs[i] + degs[j] for i, j in data[0]), default=0)
    return max(degs, default=0)


def ray_decidable(problem: CompositeProblem) -> bool:
    """True when every layer map is piecewise polynomial of degree at most 2.

    For such maps the residuals along a ray are piecewise quadratics in tau
    with finitely many breakpoints, so feasibility near tau = 0 is eventually
    constant and a decreasing tau grid settles it.
    """
    return all(_degree(e) <= 2 for lm in problem.layers for e in lm.exprs)


def _feasible_at(problem: CompositeProblem, z: Point, d: Direction, tau: float) -> bool:
    moved = point_from_flat(problem, z.flat() + tau * d.flat())
    try:
        return residuals(problem, moved).feasible
    except (EvaluationError, OverflowError):
        return False


def radial_membership(problem: CompositeProblem, z: Point, d: Direction) -> ConeMembership:
    """Decide whether the feasible set contains a ray segment along d.

    The test is two-staged.  A nonzero second directional derivative of any
    layer map along d rules membership out (the necessary condition for
    radial directions).  When all of them vanish and every layer map is
    piecewise polynomial of degree at most 2, feasibility of z + tau*d at the
    small taus of ``RADIAL_TAUS`` decides, because any remaining violation
    grows linearly out of a kink switch.  Otherwise the verdict is unknown.
    """
    membership = tangent_membership(problem, z, d)
    if not membership.in_tangent:
        membership.in_radial = False
        membership.notes = ["not tangent, hence not radial"]
        return membership
    notes: list[str] = []
    second_known = True
    slopes = residual_slopes(problem, z, *_as_batch(problem, d), order=2)
    for k, (_, _, psi2, bad2) in enumerate(slopes, start=1):
        if bad2.any():
            second_known = False
            notes.append(f"layer {k} second derivative unsupported along d")
            continue
        if np.max(np.abs(psi2)) > TANGENT_TOL:
            notes.append(f"layer {k} second derivative nonzero along d")
            membership.in_radial = False
            membership.notes = notes
            return membership
    if ray_decidable(problem) and second_known:
        feas = [_feasible_at(problem, z, d, tau) for tau in RADIAL_TAUS]
        if all(feas):
            membership.in_radial = True
        elif not any(feas):
            membership.in_radial = False
            notes.append("ray leaves the feasible set at every small tau probed")
        else:
            membership.in_radial = None
            notes.append("tau grid did not settle; near a branch switch")
    else:
        membership.in_radial = None
        notes.append("layer maps outside the decidable family; returning unknown")
    membership.notes = notes
    return membership
