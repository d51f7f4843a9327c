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
provided for serialization and search code.  Every value at a point (the
lift, the residuals, g, F and Theta) comes from width-1 passes of the
problem's tapes, the same programs that batches and derivatives run: four
placements of one walk, for the nested objective, the residuals, F and Theta.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import cached_property
from typing import Mapping, Sequence

import numpy as np

from . import expr as ex

# Componentwise residual tolerance below which a point counts as feasible.
FEAS_TOL = 1e-9
# A nonnegative outer function never takes a value below this; eval_g warns when it does.
G_WARN_BELOW = -1e-12


class DimensionError(ValueError):
    """A vector or block does not match the problem dimensions."""


class EvaluationError(RuntimeError):
    """A layer map or the outer function produced a non-finite value; carries its index, L + 1 for g."""

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
        if any(node.family == ex.LEAF and node.data == 0 for node in ex.nodes(self.outer)):
            raise DimensionError("the outer function may reference layer blocks only")

    @property
    def L(self) -> int:
        return len(self.layers)

    @cached_property
    def widths(self) -> tuple[int, ...]:
        return tuple(lm.width for lm in self.layers)

    @cached_property
    def nbar(self) -> int:
        """Dimension of the lifted variable z = (theta, u_1, ..., u_L)."""
        return self.n + sum(self.widths)

    @cached_property
    def layer_rows(self) -> tuple[slice, ...]:
        """Per layer, its rows among the roots of ``fixed_tape``, ``penalized_tape`` and ``chained_tape``."""
        ends = np.cumsum(self.widths).tolist()
        return tuple(slice(end - w, end) for end, w in zip(ends, self.widths))

    @cached_property
    def layer_of_row(self) -> np.ndarray:
        """The 0-based layer of each layer row; ``layer_starts`` holds each layer's first row."""
        return np.repeat(np.arange(self.L), self.widths)

    @cached_property
    def layer_starts(self) -> np.ndarray:
        return np.cumsum([0, *self.widths[:-1]])

    @cached_property
    def width_groups(self) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
        """Per distinct width w: the layers of that width and their rows, shape (k, w)."""
        w = np.array(self.widths)
        return tuple((np.flatnonzero(w == v), self.layer_starts[w == v, None] + np.arange(v)) for v in sorted(set(w)))

    @cached_property
    def graph(self) -> ex.Graph:
        """The maps, then ``outer``, hash-consed in one walk at first use, each ``u`` leaf a link to its map.

        The four tapes below are placed from it at first use, and all are kept.
        """
        return ex.walk([*(e for lm in self.layers for e in lm.exprs), self.outer], (self.n, *self.widths), chain=True)

    @cached_property
    def fixed_tape(self) -> ex.Tape:
        """Every layer map on one program whose links read given blocks."""
        return ex.place(self.graph, self.graph.roots[:-1])

    @cached_property
    def chained_tape(self) -> ex.Tape:
        """The maps, then ``outer``, each link reading the row of its map: one pass gives the nested objective.

        Its roots' Taylor data are the curves of the layer blocks and of g as
        functions of theta; its level mode (``Tape.shifted``) serves the sampler.
        """
        return ex.place(self.graph, self.graph.roots, chained=True)

    @cached_property
    def outer_tape(self) -> ex.Tape:
        """``outer`` alone, on a program over the blocks (theta, u_1, ..., u_L)."""
        return ex.place(self.graph, self.graph.roots[-1:])

    @cached_property
    def penalized_tape(self) -> ex.Tape:
        """The maps, then ``outer``, each link reading its block: one pass gives Theta's maps and g, its last root."""
        return ex.place(self.graph, self.graph.roots)


@dataclass(frozen=True)
class Point:
    """A lifted point z = (theta, u)."""

    theta: np.ndarray
    u: tuple[np.ndarray, ...]

    def flat(self) -> np.ndarray:
        return np.concatenate([self.theta] + [b for b in self.u])


@dataclass
class Residuals:
    """Layer equation residuals rho_l = u_l - psi_{l-1}(theta, u_1..u_{l-1}), with each layer's largest |rho|."""

    per_layer: list[np.ndarray]
    l1: list[float]
    max_abs: float
    feasible: bool
    layer_max: list[float]


def check_blocks(
    problem: CompositeProblem,
    head: np.ndarray,
    blocks: Sequence[np.ndarray],
    names: tuple[str, str, str],
) -> None:
    """Shapes of a (theta, u_1, ..., u_L) layout; names: theta part, whole, one block."""
    head_name, whole, block_name = names
    if head.shape != (problem.n,):
        raise DimensionError(f"{head_name} has shape {head.shape}, expected ({problem.n},)")
    if len(blocks) != problem.L:
        raise DimensionError(f"{whole} has {len(blocks)} blocks, expected {problem.L}")
    for block, w, k in zip(blocks, problem.widths, range(1, problem.L + 1)):
        if block.shape != (w,):
            raise DimensionError(f"{block_name} {k} has shape {block.shape}, expected ({w},)")


def check_point(problem: CompositeProblem, z: Point) -> None:
    check_blocks(problem, z.theta, z.u, ("theta", "point", "block"))


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


def layer_values(problem: CompositeProblem, tape: ex.Tape, th: np.ndarray, ublocks: Sequence[np.ndarray]) -> np.ndarray:
    """The roots of ``tape`` (not the outer one) at one point; ``EvaluationError`` names the first non-finite layer."""
    return finite_layers(problem, ex.eval_many(tape, th, ublocks))


def finite_layers(problem: CompositeProblem, vals: np.ndarray, what: str = "evaluated to a non-finite value"):
    """``vals``, rows at one point that start with the maps'; ``EvaluationError`` names the first non-finite layer."""
    bad = ~np.isfinite(vals[: problem.layer_of_row.size])
    if bad.any():
        k = int(problem.layer_of_row[bad.argmax()]) + 1
        raise EvaluationError(k, f"layer {k} {what}")
    return vals


def _lift(problem: CompositeProblem, th: np.ndarray) -> tuple[Point, np.ndarray]:
    """The feasible lift of theta and the roots of the one ``chained_tape`` pass that gives it (g unchecked)."""
    th = np.asarray(th, dtype=float).ravel()
    if th.shape != (problem.n,):
        raise DimensionError(f"theta has length {th.size}, expected {problem.n}")
    vals = layer_values(problem, problem.chained_tape, th, [])
    return Point(th.copy(), tuple(vals[rows] for rows in problem.layer_rows)), vals


def eval_layers(problem: CompositeProblem, th: np.ndarray) -> Point:
    """Forward pass: the unique feasible lift of theta."""
    return _lift(problem, th)[0]


def eval_g(problem: CompositeProblem, ublocks: Sequence[np.ndarray]) -> float:
    """Outer value by one ``outer_tape`` pass; warns when a supposedly nonnegative g dips below zero."""
    return checked_g(problem, float(ex.eval_many(problem.outer_tape, np.zeros(problem.n), ublocks)[0]))


def checked_g(problem: CompositeProblem, val: float) -> float:
    """A value of g as ``eval_g`` returns it: ``EvaluationError`` if not finite, a warning below zero."""
    if not math.isfinite(val):
        raise EvaluationError(problem.L + 1, "outer function evaluated to a non-finite value")
    if val < G_WARN_BELOW:
        warnings.warn(f"outer function evaluated to {val} < 0", RuntimeWarning, stacklevel=3)
    return val


def eval_F(problem: CompositeProblem, z: Point) -> float:
    check_point(problem, z)
    return eval_g(problem, z.u) + problem.lam * float(z.theta @ z.theta)


def check_tol(name: str, value: float) -> None:
    if not (math.isfinite(value) and value > 0.0):
        raise ValueError(f"{name} must be a positive finite number, got {value}")


def check_beta(problem: CompositeProblem, beta: Sequence[float]) -> np.ndarray:
    b = np.asarray(beta, dtype=float).ravel()
    if b.size != problem.L:
        raise DimensionError(f"beta has {b.size} entries, expected {problem.L}")
    if not np.all(b > 0.0):
        raise ValueError("penalty weights must be strictly positive")
    return b


def residuals(problem: CompositeProblem, z: Point, X: np.ndarray | None = None) -> Residuals:
    """The residuals at z from the map rows X of a pass at z (a penalized one's roots), else a ``fixed_tape`` pass.

    ``max_abs`` is the largest layer maximum, NaN if any layer's is, and a
    NaN never reads feasible.
    """
    check_point(problem, z)
    X = layer_values(problem, problem.fixed_tape, z.theta, z.u) if X is None else X
    rho = np.concatenate(z.u) - X[: problem.layer_of_row.size]
    A = np.abs(rho)
    layer_max = np.maximum.reduceat(A, problem.layer_starts)
    max_abs = float(np.max(layer_max))
    l1 = _residual_summary(problem, A[:, None])[:, 0].tolist()
    return Residuals([rho[r] for r in problem.layer_rows], l1, max_abs, max_abs <= FEAS_TOL, layer_max.tolist())


def _residual_summary(problem: CompositeProblem, A: np.ndarray) -> np.ndarray:
    """Per layer, the l1 norms (L, m) of stacked |rho| columns A (R, m), each ``np.sum`` of the layer's column.

    ``np.sum`` of a vector adds left to right below 8 entries and pairwise
    from 8 up, so each distinct layer width gets one reduction of its own.
    """
    l1 = np.empty((problem.L, A.shape[1]))
    for at, rows in problem.width_groups:
        l1[at] = np.ascontiguousarray(A.T[:, rows]).sum(axis=-1).T
    return l1


def require_feasible(problem: CompositeProblem, z: Point, X: np.ndarray | None = None) -> None:
    """Guard for operations defined at feasible points only; X as for ``residuals``, checked by ``finite_layers``."""
    res = residuals(problem, z, None if X is None else finite_layers(problem, X))
    if not res.feasible:
        raise InfeasiblePointError(f"point is infeasible (max residual {res.max_abs:.3e})")


def eval_Theta(problem: CompositeProblem, z: Point, beta: Sequence[float]) -> float:
    """Theta at z by one ``penalized_tape`` pass, summed by ``penalized_cols``."""
    return Theta_and_roots(problem, z, check_beta(problem, beta))[0]


def Theta_and_roots(problem: CompositeProblem, z: Point, b: np.ndarray, X=None) -> tuple[float, np.ndarray]:
    """``eval_Theta`` at z and a checked beta b, and the roots of its penalized pass (maps, then g), or the given X."""
    check_point(problem, z)
    X = layer_values(problem, problem.penalized_tape, z.theta, z.u) if X is None else finite_layers(problem, X)
    g = checked_g(problem, float(X[-1]))
    U = np.concatenate(z.u)[:, None]
    return float(penalized_cols(problem, z.theta[:, None], U, X[:-1, None], np.array([g]), b)[0]), X


def eval_Psi_plus_reg(problem: CompositeProblem, th: np.ndarray) -> float:
    """Nested objective Psi(theta) + lambda*||theta||^2."""
    return _nested(problem, th)[1]


def _nested(problem: CompositeProblem, th: np.ndarray) -> tuple[Point, float]:
    """The feasible lift of theta and F there, g read off the chained pass of the lift."""
    z, vals = _lift(problem, th)
    return z, checked_g(problem, float(vals[-1])) + problem.lam * float(z.theta @ z.theta)


def eval_Theta_cols(problem: CompositeProblem, Z: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``eval_Theta`` at each column of Z (nbar, m) and a checked beta b, and the roots (R + 1, m) of its one pass.

    Value j is ``eval_Theta``'s at column j byte for byte, or NaN where
    ``eval_Theta`` raises ``EvaluationError`` or warns of a negative g, and
    column j of the roots is those of its pass.  Nothing here warns or raises.
    """
    TH, U = split_flat(problem, Z)
    X = problem.penalized_tape.values(TH, U)
    F = penalized_cols(problem, TH, Z[problem.n :], X[:-1], X[-1], b)
    F[~np.isfinite(X).all(axis=0) | (X[-1] < G_WARN_BELOW)] = np.nan
    return F, X


def penalized_cols(
    problem: CompositeProblem, TH: np.ndarray, U: np.ndarray, X: np.ndarray, g: np.ndarray, b: np.ndarray
) -> np.ndarray:
    """Theta at the columns of TH and stacked blocks U from the maps' values X there and g.

    Value j is ``eval_Theta``'s sum at column j byte for byte, whatever X
    and g hold; nothing is masked and nothing warns.
    """
    with np.errstate(all="ignore"):
        A = np.abs(U - X)
        rows = np.ascontiguousarray(TH.T)
        return g + problem.lam * row_dots(rows, rows) + row_dots(_residual_summary(problem, A).T, b)


def row_dots(A: np.ndarray, y: np.ndarray) -> np.ndarray:
    """A[i] @ y, or A[i] @ y[i] for a contiguous y of A's shape, for each row of A.

    Each is the 1-D dot of the two vectors byte for byte, as one BLAS dot
    over contiguous rows; dots over strided columns round differently.
    """
    A = np.ascontiguousarray(A)
    return (A[:, None, :] @ y[..., None])[:, 0, 0]


def reference_point_and_level(
    problem: CompositeProblem,
    beta: Sequence[float],
    theta0: np.ndarray | None = None,
) -> tuple[Point, float]:
    """Feasible lift of theta0 (default 0) and the level gamma = Theta there.

    At a feasible point the penalty vanishes, so the level is just F, read
    off the one ``chained_tape`` pass of the lift.
    """
    check_beta(problem, beta)
    return _nested(problem, np.zeros(problem.n) if theta0 is None else theta0)
