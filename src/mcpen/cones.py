"""Tangent and radial cone tests for the lifted feasible set.

At a feasible point z the tangent cone of the layer-equation set is exactly
the set of directions whose u-blocks reproduce the chained first directional
derivatives of the layer maps; lifting a parameter direction through that
recursion always lands inside it.  The radial cone is smaller: staying on
the feasible set along a straight ray additionally forces the second
directional derivative of every layer map to vanish along the direction.
For layer maps of degree at most 2 that condition is also sufficient, so
both cones are read off one order-2 pass of the fixed tape.  A slope that is
not finite raises ``EvaluationError`` naming its layer.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import expr as ex
from .dcalc import Direction, _as_batch, forward_curves, residual_slopes
from .model import CompositeProblem, DimensionError, EvaluationError, Point, check_point, require_feasible

TANGENT_TOL = 1e-9
LIFT_TOL = 1e-12
# Not read by the library.  Its only reader is perfbench's moduli-generic
# check, which tests each radial verdict for feasibility at tau = min(RADIAL_TAUS).
RADIAL_TAUS = (1e-6, 1e-7, 1e-8)


@dataclass
class ConeMembership:
    in_tangent: bool
    in_radial: bool | None
    violations: list[np.ndarray]
    max_violation: float
    notes: list[str] = field(default_factory=list)


def tangent_membership(problem: CompositeProblem, z: Point, d: Direction) -> ConeMembership:
    """Check the chained derivative equations defining the tangent cone; a non-finite slope raises."""
    return _tangent(problem, z, d, 1)[0]


def _tangent(problem: CompositeProblem, z: Point, d: Direction, order: int):
    """``tangent_membership`` and the residual slopes along d at ``order`` it read them from."""
    check_point(problem, z)
    batch = _as_batch(problem, d)
    require_feasible(problem, z)
    slopes = residual_slopes(problem, z, *batch, order=order)
    violations = [slopes.first[rows, 0] for rows in problem.layer_rows]
    for k, v in enumerate(violations, start=1):
        if not np.all(np.isfinite(v)):
            raise EvaluationError(k, f"layer {k} first derivative not finite along d")
    max_v = max(float(np.max(np.abs(v))) if v.size else 0.0 for v in violations)
    notes = ["radial membership not evaluated"]
    return ConeMembership(max_v <= TANGENT_TOL, None, violations, max_v, notes), slopes


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
    return forward_curves(problem, z.theta, DTH)[1]


def _degree(e: ex.Expr) -> int:
    """Upper bound on polynomial degree in the inputs, kinks transparent."""
    degs: list[int] = []
    # reversed, ``expr.nodes`` puts each node after its arguments, the last one's subtree first
    for node in reversed(list(ex.nodes(e))):
        if node.family == ex.LEAF:
            degs.append(0 if node.data is None else 1)
            continue
        args = [degs.pop() for _ in node.args]
        if node.family == ex.PRODUCT:
            degs.append(max((args[i] + args[j] for i, j in node.data[0]), default=0))
        else:
            degs.append(max(args, default=0))
    return degs[0]


def ray_decidable(problem: CompositeProblem) -> bool:
    """True when every layer map is piecewise polynomial of degree at most 2.

    For such maps the inputs move linearly along a ray, so on the branch each
    kink takes just past tau = 0 the residual of layer k is exactly
    tau*(du_k - psi') - tau^2*psi''/2, and the order-2 Taylor data decide
    whether the ray stays feasible.
    """
    return all(_degree(e) <= 2 for lm in problem.layers for e in lm.exprs)


def radial_membership(problem: CompositeProblem, z: Point, d: Direction) -> ConeMembership:
    """Decide whether the feasible set contains a ray segment along d.

    From one order-2 pass: a direction that is not tangent, or along which
    some layer map has a nonzero second derivative, is not radial.  When all
    second derivatives are supported, finite and zero, and every layer map is
    piecewise polynomial of degree at most 2 (``ray_decidable``), it is
    radial, since the Taylor rules pick the branch each kink takes just past
    tau = 0.  Otherwise the verdict is unknown, with a note that says why.
    """
    # first coefficients are the same at both orders, so one pass gives both tests
    membership, slopes = _tangent(problem, z, d, 2)
    if not membership.in_tangent:
        membership.in_radial = False
        membership.notes = ["not tangent, hence not radial"]
        return membership
    notes: list[str] = []
    second_known = True
    for k, rows in enumerate(problem.layer_rows, start=1):
        psi2, bad2 = slopes.second[rows], slopes.bad2[rows]
        if bad2.any() or not np.all(np.isfinite(psi2)):
            second_known = False
            why = "unsupported" if bad2.any() else "not finite"
            notes.append(f"layer {k} second derivative {why} along d")
            continue
        if np.max(np.abs(psi2)) > TANGENT_TOL:
            notes.append(f"layer {k} second derivative nonzero along d")
            membership.in_radial = False
            membership.notes = notes
            return membership
    decidable = ray_decidable(problem)
    if not decidable:
        notes.append("layer maps outside the decidable family; returning unknown")
    membership.in_radial = True if decidable and second_known else None
    membership.notes = notes
    return membership
