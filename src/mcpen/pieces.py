"""Exact piecewise-linear structure of first directional derivatives.

For a fixed point, the first directional derivative of any expression in the
DSL is a continuous piecewise-linear function of the direction: every rule is
linear in the first-order data except branch selection at active kinks, and
each active kink contributes a fork with a half-space consistency condition.
Enumerating the forks yields a finite list of (coefficient, constraints)
pieces on which the derivative is exactly linear, so minimization over the
unit cross-polytope reduces to one small linear program per piece.
"""

from __future__ import annotations

from typing import Callable, Iterable, Sequence

import numpy as np
from scipy.optimize import linprog

from . import expr as ex
from .model import FEAS_TOL, CompositeProblem, Point, check_beta, eval_layers, residuals, split_flat

PIECE_LIMIT = 2**20
_TIE = ex.TIE_TOL

Piece = tuple[float, np.ndarray, list[np.ndarray]]


class TooManyPieces(RuntimeError):
    """Enumeration would exceed the piece budget; fall back to sampling."""


class _Budget:
    def __init__(self, limit: int):
        self.limit = limit
        self.left = limit

    def spend(self, k: int = 1) -> None:
        self.left -= k
        if self.left < 0:
            raise TooManyPieces(f"piece budget exhausted (limit {self.limit})")


def expr_pieces(
    e: ex.Expr,
    th: np.ndarray,
    ublocks: Sequence[np.ndarray],
    leafcoef: Callable[[ex.Expr], np.ndarray],
    dim: int,
    budget: _Budget,
) -> list[Piece]:
    """All linear pieces (value, coefficient, constraints) of e's first derivative.

    Constraints are half-space normals c meaning c . d >= 0; within the
    intersection the derivative equals coefficient . d.  Values are
    direction-independent and shared by every piece of a subtree.
    """

    zeros = np.zeros(dim)

    def combine_max(pa: list[Piece], pb: list[Piece]) -> list[Piece]:
        gap = pa[0][0] - pb[0][0]
        if gap > _TIE:
            return pa
        if gap < -_TIE:
            return pb
        out: list[Piece] = []
        for va, ca, ka in pa:
            for vb, cb, kb in pb:
                budget.spend(2)
                out.append((max(va, vb), ca, ka + kb + [ca - cb]))
                out.append((max(va, vb), cb, ka + kb + [cb - ca]))
        return out

    def rec(node: ex.Expr) -> list[Piece]:
        op = node.op
        if op == "const":
            return [(node.value, zeros, [])]
        if op in ("theta", "u"):
            if op == "theta":
                v = float(th[node.ref])
            else:
                v = float(ublocks[node.layer - 1][node.ref])
            return [(v, leafcoef(node), [])]
        if op in ("sum", "diff", "scaled", "affine"):
            parts = [rec(a) for a in node.args]
            if op == "sum":
                weights = [1.0] * len(parts)
                offset = 0.0
            elif op == "diff":
                weights = [1.0, -1.0]
                offset = 0.0
            elif op == "scaled":
                weights = [node.coeffs[0]]
                offset = 0.0
            else:
                weights = list(node.coeffs)
                offset = node.const
            out = [(offset, zeros, [])]
            for w, pieces_k in zip(weights, parts):
                nxt: list[Piece] = []
                for v0, c0, k0 in out:
                    for v1, c1, k1 in pieces_k:
                        budget.spend()
                        nxt.append((v0 + w * v1, c0 + w * c1, k0 + k1))
                out = nxt
            return out
        if op == "product":
            out = []
            for va, ca, ka in rec(node.args[0]):
                for vb, cb, kb in rec(node.args[1]):
                    budget.spend()
                    out.append((va * vb, va * cb + vb * ca, ka + kb))
            return out
        if op == "inner":
            k = len(node.args) // 2
            out = [(0.0, zeros, [])]
            for i in range(k):
                term = []
                for va, ca, ka in rec(node.args[i]):
                    for vb, cb, kb in rec(node.args[k + i]):
                        term.append((va * vb, va * cb + vb * ca, ka + kb))
                nxt = []
                for v0, c0, k0 in out:
                    for v1, c1, k1 in term:
                        budget.spend()
                        nxt.append((v0 + v1, c0 + c1, k0 + k1))
                out = nxt
            return out
        if op == "sqnorm":
            out = [(0.0, zeros, [])]
            for a in node.args:
                nxt = []
                for v0, c0, k0 in out:
                    for v1, c1, k1 in rec(a):
                        budget.spend()
                        nxt.append((v0 + v1 * v1, c0 + 2.0 * v1 * c1, k0 + k1))
                out = nxt
            return out
        if op == "square":
            return [(v * v, 2.0 * v * c, k) for v, c, k in rec(node.args[0])]
        if op == "max":
            return combine_max(rec(node.args[0]), rec(node.args[1]))
        if op == "abs":
            pa = rec(node.args[0])
            return combine_max(pa, [(-v, -c, k) for v, c, k in pa])
        if op == "plus":
            return combine_max(rec(node.args[0]), [(0.0, zeros, [])])
        if op == "leaky_relu":
            pa = rec(node.args[0])
            return combine_max(pa, [(node.alpha * v, node.alpha * c, k) for v, c, k in pa])
        raise ValueError(f"unknown node op {op!r}")

    return rec(e)


def _cross(acc: list[tuple[np.ndarray, list[np.ndarray]]], pieces: Iterable, budget: _Budget, merge):
    out = []
    for coef0, cons0 in acc:
        for p in pieces:
            budget.spend()
            coef1, cons1 = merge(coef0, cons0, p)
            out.append((coef1, cons1))
    return out


def theta_prime_pieces(
    problem: CompositeProblem, z: Point, beta: Sequence[float], limit: int = PIECE_LIMIT
) -> list[tuple[np.ndarray, list[np.ndarray]]]:
    """Linear pieces of d -> Theta'(z; d) over the full lifted direction space."""
    b = check_beta(problem, beta)
    budget = _Budget(limit)
    dim = problem.nbar
    _, at = split_flat(problem, np.arange(dim))  # flat positions of each block

    def leafcoef(node: ex.Expr) -> np.ndarray:
        c = np.zeros(dim)
        if node.op == "theta":
            c[node.ref] = 1.0
        else:
            c[at[node.layer - 1][node.ref]] = 1.0
        return c

    base = np.zeros(dim)
    base[: problem.n] = 2.0 * problem.lam * z.theta
    acc = [(base, [])]
    g_pieces = expr_pieces(problem.outer, z.theta, z.u, leafcoef, dim, budget)
    acc = _cross(acc, g_pieces, budget, lambda c0, k0, p: (c0 + p[1], k0 + p[2]))
    res = residuals(problem, z)
    for ell in range(1, problem.L + 1):
        rho = res.per_layer[ell - 1]
        for i, e in enumerate(problem.layers[ell - 1].exprs):
            unit = np.zeros(dim)
            unit[at[ell - 1][i]] = 1.0
            psi_ps = expr_pieces(e, z.theta, z.u, leafcoef, dim, budget)
            w_ps = [(unit - c, k) for _, c, k in psi_ps]
            if rho[i] > FEAS_TOL:
                acc = _cross(
                    acc, w_ps, budget, lambda c0, k0, p: (c0 + b[ell - 1] * p[0], k0 + p[1])
                )
            elif rho[i] < -FEAS_TOL:
                acc = _cross(
                    acc, w_ps, budget, lambda c0, k0, p: (c0 - b[ell - 1] * p[0], k0 + p[1])
                )
            else:
                forked = []
                for w, k in w_ps:
                    forked.append((w, k + [w]))
                    forked.append((-w, k + [-w]))
                acc = _cross(
                    acc, forked, budget, lambda c0, k0, p: (c0 + b[ell - 1] * p[0], k0 + p[1])
                )
    return acc


def psi_prime_pieces(
    problem: CompositeProblem, th: np.ndarray, limit: int = PIECE_LIMIT
) -> list[tuple[np.ndarray, list[np.ndarray]]]:
    """Linear pieces of d -> (Psi + reg)'(theta; d) over the parameter space."""
    budget = _Budget(limit)
    n = problem.n
    zpt = eval_layers(problem, th)

    # Each state carries, per finished layer, the matrix of block coefficient
    # rows under that state's branch choices, plus the collected constraints.
    states: list[tuple[list[np.ndarray], list[np.ndarray]]] = [([], [])]
    for ell in range(1, problem.L + 1):
        nxt: list[tuple[list[np.ndarray], list[np.ndarray]]] = []
        for ucoefs, cons in states:

            def leafcoef(node: ex.Expr, ucoefs=ucoefs) -> np.ndarray:
                if node.op == "theta":
                    c = np.zeros(n)
                    c[node.ref] = 1.0
                    return c
                return ucoefs[node.layer - 1][node.ref]

            comp_pieces = [
                expr_pieces(e, th, zpt.u, leafcoef, n, budget)
                for e in problem.layers[ell - 1].exprs
            ]
            combos = [([], cons)]
            for ps in comp_pieces:
                grown = []
                for rows, kk in combos:
                    for _, c, k in ps:
                        budget.spend()
                        grown.append((rows + [c], kk + k))
                combos = grown
            for rows, kk in combos:
                nxt.append((ucoefs + [np.array(rows)], kk))
        states = nxt

    out: list[tuple[np.ndarray, list[np.ndarray]]] = []
    for ucoefs, cons in states:

        def leafcoef(node: ex.Expr, ucoefs=ucoefs) -> np.ndarray:
            if node.op == "theta":
                c = np.zeros(n)
                c[node.ref] = 1.0
                return c
            return ucoefs[node.layer - 1][node.ref]

        for _, c, k in expr_pieces(problem.outer, th, zpt.u, leafcoef, n, budget):
            budget.spend()
            out.append((c + 2.0 * problem.lam * th, cons + k))
    return out


def function_pieces(
    e: ex.Expr, x: np.ndarray, limit: int = PIECE_LIMIT
) -> list[tuple[np.ndarray, list[np.ndarray]]]:
    """Linear pieces of d -> f'(x; d) for an expression over parameter leaves."""
    budget = _Budget(limit)
    x = np.asarray(x, dtype=float).ravel()

    def leafcoef(node: ex.Expr) -> np.ndarray:
        c = np.zeros(x.size)
        c[node.ref] = 1.0
        return c

    return [(c, k) for _, c, k in expr_pieces(e, x, [], leafcoef, x.size, budget)]


def min_over_cross_polytope(
    coef: np.ndarray, cons: Sequence[np.ndarray]
) -> tuple[float, np.ndarray] | None:
    """Exact minimum of coef . d over the l1 unit ball cut by cons . d >= 0.

    Returns None when the piece region meets the ball only at 0 in a way the
    solver cannot use; 0 is always feasible, so a finite result exists for
    every nonempty piece.
    """
    dim = coef.size
    c = np.concatenate([coef, -coef])
    rows = [np.ones(2 * dim)]
    rhs = [1.0]
    for g in cons:
        rows.append(np.concatenate([-g, g]))
        rhs.append(0.0)
    res = linprog(
        c,
        A_ub=np.array(rows),
        b_ub=np.array(rhs),
        bounds=[(0.0, None)] * (2 * dim),
        method="highs",
    )
    if not res.success:
        return None
    d = res.x[:dim] - res.x[dim:]
    return float(res.fun), d


def minimize_pieces(
    pieces: Sequence[tuple[np.ndarray, list[np.ndarray]]],
    extra_cons: Sequence[np.ndarray] = (),
) -> tuple[float, np.ndarray]:
    """Global minimum over the cross-polytope of a piecewise-linear derivative."""
    best = (0.0, None)
    for coef, cons in pieces:
        sol = min_over_cross_polytope(coef, list(cons) + list(extra_cons))
        if sol is None:
            continue
        if sol[0] < best[0] or best[1] is None:
            best = sol
    if best[1] is None:
        best = (0.0, np.zeros(pieces[0][0].size if pieces else 0))
    return best
