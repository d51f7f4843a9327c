"""Layered composite problems and their lifted and penalized objectives.

A problem holds parameter dimension n, an ordered list of layer maps, a
nonnegative outer function g of the layer blocks, and a ridge weight
lambda > 0.  Three objectives hang off one set of data:

* nested:     Psi(theta) + lambda*||theta||^2 with each block recomputed
              from the previous ones,
* lifted:     F(z) = g(u) + lambda*||theta||^2 subject to the layer
              equations u_l = psi_{l-1}(theta, u_1, ..., u_{l-1}),
* penalized:  Theta(z) = F(z) + sum_l beta_l * ||u_l - psi_{l-1}(...)||_1.

Points and directions are kept in block form; flattening helpers are
provided for serialization and search code.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from . import expr as ex

# Componentwise residual tolerance below which a point counts as feasible.
FEAS_TOL = 1e-9


class DimensionError(ValueError):
    """A vector or block does not match the problem dimensions."""


class EvaluationError(RuntimeError):
    """A layer map produced a non-finite value; carries the layer index."""

    def __init__(self, layer: int, msg: str):
        super().__init__(msg)
        self.layer = layer


class InfeasiblePointError(ValueError):
    """An operation that requires a feasible point received an infeasible one."""


@dataclass(frozen=True)
class LayerMap:
    """Layer ``index`` (1-based) with one scalar expression per output component."""

    index: int
    exprs: tuple[ex.Expr, ...]

    @property
    def width(self) -> int:
        return len(self.exprs)


@dataclass(frozen=True)
class CompositeProblem:
    n: int
    layers: tuple[LayerMap, ...]
    outer: ex.Expr
    lam: float
    meta: Mapping | None = None

    def __post_init__(self):
        if self.n < 1:
            raise DimensionError("parameter dimension must be positive")
        if not self.layers:
            raise DimensionError("at least one layer is required")
        if not self.lam > 0.0:
            raise ValueError("ridge weight lambda must be positive")
        widths = [lm.width for lm in self.layers]
        for k, lm in enumerate(self.layers, start=1):
            if lm.index != k:
                raise DimensionError(f"layer {k} carries index {lm.index}")
            if lm.width == 0:
                raise DimensionError(f"layer {k} has no components")
            for e in lm.exprs:
                # A layer map may reference theta and strictly earlier blocks.
                ex.validate(e, self.n, k - 1, widths)
        ex.validate(self.outer, self.n, len(widths), widths)
        if "theta" in ex.ops_used(self.outer):
            raise DimensionError("the outer function may reference layer blocks only")

    @property
    def L(self) -> int:
        return len(self.layers)

    @property
    def widths(self) -> tuple[int, ...]:
        return tuple(lm.width for lm in self.layers)

    @property
    def nbar(self) -> int:
        """Dimension of the lifted variable z = (theta, u_1, ..., u_L)."""
        return self.n + sum(self.widths)


@dataclass(frozen=True)
class Point:
    """A lifted point z = (theta, u)."""

    theta: np.ndarray
    u: tuple[np.ndarray, ...]

    def flat(self) -> np.ndarray:
        return np.concatenate([self.theta] + [b for b in self.u])


@dataclass
class Residuals:
    """Layer equation residuals rho_l = u_l - psi_{l-1}(theta, u_1..u_{l-1})."""

    per_layer: list[np.ndarray]
    l1: list[float]
    max_abs: float
    feasible: bool


def check_point(problem: CompositeProblem, z: Point) -> None:
    if z.theta.shape != (problem.n,):
        raise DimensionError(f"theta has shape {z.theta.shape}, expected ({problem.n},)")
    if len(z.u) != problem.L:
        raise DimensionError(f"point has {len(z.u)} blocks, expected {problem.L}")
    for block, w, k in zip(z.u, problem.widths, range(1, problem.L + 1)):
        if block.shape != (w,):
            raise DimensionError(f"block {k} has shape {block.shape}, expected ({w},)")


def split_flat(problem: CompositeProblem, v: np.ndarray) -> tuple[np.ndarray, list[np.ndarray]]:
    """Views of the theta part and the u-blocks of a lifted vector or matrix.

    ``v`` has shape (nbar,) or (nbar, m); the blocks keep the trailing axis.
    """
    if v.shape[0] != problem.nbar:
        raise DimensionError(f"lifted vector has length {v.shape[0]}, expected {problem.nbar}")
    blocks = []
    off = problem.n
    for w in problem.widths:
        blocks.append(v[off : off + w])
        off += w
    return v[: problem.n], blocks


def point_from_flat(problem: CompositeProblem, v: np.ndarray) -> Point:
    th, blocks = split_flat(problem, np.asarray(v, dtype=float).ravel())
    return Point(th.copy(), tuple(b.copy() for b in blocks))


def layer_values(
    problem: CompositeProblem, layer: int, th: np.ndarray, ublocks: Sequence[np.ndarray]
) -> np.ndarray:
    """Evaluate psi_{layer-1}, the map defining block ``layer`` (1-based)."""
    lm = problem.layers[layer - 1]
    vals = ex.eval_many(lm.exprs, th, ublocks)
    if not np.all(np.isfinite(vals)):
        raise EvaluationError(layer, f"layer {layer} evaluated to a non-finite value")
    return vals


def eval_layers(problem: CompositeProblem, th: np.ndarray) -> Point:
    """Forward pass: the unique feasible lift of theta."""
    th = np.asarray(th, dtype=float).ravel()
    if th.shape != (problem.n,):
        raise DimensionError(f"theta has length {th.size}, expected {problem.n}")
    blocks: list[np.ndarray] = []
    for k in range(1, problem.L + 1):
        blocks.append(layer_values(problem, k, th, blocks))
    return Point(th.copy(), tuple(blocks))


def eval_g(problem: CompositeProblem, ublocks: Sequence[np.ndarray]) -> float:
    """Outer value; warns when a supposedly nonnegative g dips below zero."""
    val = ex.eval_one(problem.outer, np.zeros(problem.n), ublocks)
    if val < -1e-12:
        warnings.warn(f"outer function evaluated to {val} < 0", RuntimeWarning, stacklevel=2)
    return val


def eval_F(problem: CompositeProblem, z: Point) -> float:
    check_point(problem, z)
    return eval_g(problem, z.u) + problem.lam * float(z.theta @ z.theta)


def check_beta(problem: CompositeProblem, beta: Sequence[float]) -> np.ndarray:
    b = np.asarray(beta, dtype=float).ravel()
    if b.size != problem.L:
        raise DimensionError(f"beta has {b.size} entries, expected {problem.L}")
    if not np.all(b > 0.0):
        raise ValueError("penalty weights must be strictly positive")
    return b


def residuals(problem: CompositeProblem, z: Point, tol: float = FEAS_TOL) -> Residuals:
    check_point(problem, z)
    per_layer: list[np.ndarray] = []
    for k in range(1, problem.L + 1):
        rho = z.u[k - 1] - layer_values(problem, k, z.theta, z.u)
        per_layer.append(rho)
    l1 = [float(np.sum(np.abs(r))) for r in per_layer]
    max_abs = max(float(np.max(np.abs(r))) if r.size else 0.0 for r in per_layer)
    return Residuals(per_layer, l1, max_abs, max_abs <= tol)


def require_feasible(problem: CompositeProblem, z: Point) -> None:
    """Guard for operations defined at feasible points only."""
    res = residuals(problem, z)
    if not res.feasible:
        raise InfeasiblePointError(f"point is infeasible (max residual {res.max_abs:.3e})")


def eval_Theta(problem: CompositeProblem, z: Point, beta: Sequence[float]) -> float:
    b = check_beta(problem, beta)
    res = residuals(problem, z)
    return eval_F(problem, z) + float(np.dot(b, res.l1))


def eval_Psi_plus_reg(problem: CompositeProblem, th: np.ndarray) -> float:
    """Nested objective Psi(theta) + lambda*||theta||^2."""
    z = eval_layers(problem, th)
    return eval_F(problem, z)


def reference_point_and_level(
    problem: CompositeProblem,
    beta: Sequence[float],
    theta0: np.ndarray | None = None,
) -> tuple[Point, float]:
    """Feasible lift of theta0 (default 0) and the level gamma = Theta there.

    At a feasible point the penalty vanishes, so the level is just F.
    """
    check_beta(problem, beta)
    th = np.zeros(problem.n) if theta0 is None else np.asarray(theta0, dtype=float).ravel()
    z0 = eval_layers(problem, th)
    return z0, eval_F(problem, z0)
