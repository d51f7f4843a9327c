"""Exact piecewise-linear structure of first directional derivatives.

For a fixed point, the first directional derivative of any expression in the
DSL is a continuous piecewise-linear function of the direction: every rule is
linear in the first-order data except branch selection at active kinks,
where a value tie makes the derivative the max of the two branches' slopes.

``theta_prime_model``, ``psi_prime_model`` and ``function_prime_model``
write that derivative in the abs-normal form phi(d) = a . d + b . |s|,
s = Z d + L |s| (Griewank & Walther 2016), in one loop over a hash-consed
node graph (``expr.Graph``: the problem's one walk of its trees, or a box
tape's), branching on the four node families.  Every form is built over
(d, |s|) directly: a tied kink's max(fa, fb) = fb + s / 2 + |s| / 2
switches on s = fa - fb, and a vanishing penalty residual's |w| on s = w,
so each switch's s is a row of [Z, L] and the objective is [a, b].
``solve`` minimises phi over the unit l1 ball.  Where b = 0 and no cone row
cuts the ball, the minimum is -||a||_inf at a vertex.  Else, given tol,
least-squares multipliers of Z^T mu = a give a rigorous lower bound
(tangential stationarity and normal growth), and one at or above -tol
settles a stationary point; where the tangential residual a - Z^T mu
exceeds tol instead, it points down within ker Z, a descent direction that
leaves every switch at zero.  Else HiGHS (``scipy.optimize.milp``) solves
one mixed-integer linear program over the same form: s = p - q and |s| = p
+ q with p, q in [0, S], S the multipliers' bound on |s|, and one binary
per tie that keeps p or q at zero; a residual's switch needs none, since
its |s| enters with a positive weight.  ``critical_basis`` reads the
subspace where phi vanishes off the same form.  No tree is walked, so any
depth takes no recursion, and a tie that hash-consing shares records one
switch.

The multipliers run on numpy alone (``numpy.linalg.lstsq`` and forward
substitution).  scipy serves HiGHS alone: ``milp``, ``linprog`` and
``solve``'s HiGHS branch import ``scipy.optimize`` and ``scipy.sparse`` at
their first use, so ``import mcpen`` and every check the multipliers settle
load no scipy module.

The piece enumerator below is the reference the tests compare against; it
stays, since perfbench's tracer wraps its names.  Enumerating the forks of
the active kinks yields a finite list of (coefficient, constraints) pieces
on which the derivative is exactly linear, so minimization over the unit
cross-polytope reduces to a minimum over the pieces.  ``minimize_pieces``
settles a piece exactly without a linear program when the vertex of the
polytope that its sharpest coefficient points to lies in the piece, and
solves one small linear program only for a piece whose bound could still
beat the best value found.  The count of pieces is a product over the
forks, so the enumerator refuses a list over its limit before building it.
"""

from __future__ import annotations

import itertools
import math
from typing import Callable, Iterator, NamedTuple, Sequence

import numpy as np

from . import expr as ex
from .model import (
    FEAS_TOL,
    CompositeProblem,
    Point,
    check_beta,
    check_point,
    eval_layers,
    residuals,
    split_flat,
)

PIECE_LIMIT = 2**20
_TIE = ex.TIE_TOL
# Seconds HiGHS may spend on one first-order model; a stopped solve still
# returns both bounds.
MILP_TIME_LIMIT = 10.0
# HiGHS's tolerances are absolute (1e-7 on reduced costs, 1e-6 on the MIP
# gap).  It minimises the objective times this scale, which holds its bounds
# to about 1e-9 in the derivative's own units; its presolve, which drops
# costs near its tolerances, stays off.
_COST_SCALE = 1e3
# A first derivative within this of zero counts as zero: for the critical
# subspace, and for sampled directions in ``stationarity``.
CRIT_SLACK = 1e-8

Piece = tuple[float, np.ndarray, list[np.ndarray]]


def milp(*args, **kwargs):
    """``scipy.optimize.milp``, imported at the first call."""
    from scipy.optimize import milp

    return milp(*args, **kwargs)


def linprog(*args, **kwargs):
    """``scipy.optimize.linprog``, imported at the first call."""
    from scipy.optimize import linprog

    return linprog(*args, **kwargs)


class TooManyPieces(RuntimeError):
    """A piece list would exceed the limit."""


def _product(factors: Sequence[Sequence], limit: int) -> Iterator[tuple]:
    """Every combination of one entry per factor, counted before any is built."""
    count = math.prod(len(f) for f in factors)
    if count > limit:
        raise TooManyPieces(f"{count} pieces exceed the limit of {limit}")
    return itertools.product(*factors)


def _unit(dim: int, i) -> np.ndarray:
    c = np.zeros(dim)
    c[i] = 1.0
    return c


def _leafcoef(n: int, ucoefs: Sequence[np.ndarray]) -> Callable[[int, int], np.ndarray]:
    """Leaf coefficients over the parameters, with u-leaves read from ucoefs."""

    def leafcoef(j: int, i: int) -> np.ndarray:
        return _unit(n, i) if j == 0 else ucoefs[j - 1][i]

    return leafcoef


def expr_pieces(
    e: ex.Expr,
    th: np.ndarray,
    ublocks: Sequence[np.ndarray],
    leafcoef: Callable[[int, int], np.ndarray],
    dim: int,
    limit: int,
) -> list[Piece]:
    """All linear pieces (value, coefficient, constraints) of e's first derivative.

    Constraints are half-space normals c meaning c . d >= 0; within the
    intersection the derivative equals coefficient . d.  Values are
    direction-independent and shared by every piece of a subtree, so each
    node's piece count is the product of its children's, times two at a tie.
    Coefficients accumulate left to right, one child at a time.  A leaf of
    block j (0 for theta) at component i has coefficient ``leafcoef(j, i)``.
    """

    zeros = np.zeros(dim)
    blocks = (th, *ublocks)

    def combine_max(pa: list[Piece], pb: list[Piece]) -> list[Piece]:
        gap = pa[0][0] - pb[0][0]
        if gap > _TIE:
            return pa
        if gap < -_TIE:
            return pb
        out: list[Piece] = []
        for (va, ca, ka), (vb, cb, kb), side in _product([pa, pb, (0, 1)], limit):
            c, other = (ca, cb) if side == 0 else (cb, ca)
            out.append((max(va, vb), c, ka + kb + [c - other]))
        return out

    def rec(node: ex.Expr) -> list[Piece]:
        family, data = node.family, node.data
        if family == ex.LEAF:
            if data is None:
                return [(node.value, zeros, [])]
            return [(float(blocks[data][node.ref]), leafcoef(data, node.ref), [])]
        if family == ex.KINK:
            branch, scale, _ = data
            pa = rec(node.args[0])
            pb = rec(branch) if branch is not None else [(scale * v, scale * c, k) for v, c, k in pa]
            return combine_max(pa, pb)
        parts = [rec(a) for a in node.args]
        out = []
        if family == ex.LINEAR:
            weights, offset = data
            for combo in _product(parts, limit):
                v, c, kk = 0.0 if offset is None else offset, zeros, []
                for w, (v1, c1, k1) in zip(weights, combo):
                    v, c, kk = v + w * v1, c + w * c1, kk + k1
                out.append((v, c, kk))
            return out
        # One factor per self-pair, two per cross pair, in pair order.
        pairs, start = data
        slots = [(i,) if i == j else (i, j) for i, j in pairs]
        for combo in _product([parts[i] for slot in slots for i in slot], limit):
            it = iter(combo)
            v, c, kk = (None, None, None) if start is None else (start, zeros, [])
            for slot in slots:
                if len(slot) == 1:
                    v1, c1, k1 = next(it)
                    tv, tc, tk = v1 * v1, 2.0 * v1 * c1, k1
                else:
                    (va, ca, ka), (vb, cb, kb) = next(it), next(it)
                    tv, tc, tk = va * vb, va * cb + vb * ca, ka + kb
                v, c, kk = (tv, tc, tk) if v is None else (v + tv, c + tc, kk + tk)
            out.append((v, c, kk))
        return out

    return rec(e)


def theta_prime_pieces(
    problem: CompositeProblem, z: Point, beta: Sequence[float], limit: int = PIECE_LIMIT
) -> list[tuple[np.ndarray, list[np.ndarray]]]:
    """Linear pieces of d -> Theta'(z; d) over the full lifted direction space.

    One factor per term: g', then beta_k |w_i| for every component, with w_i
    forked into both signs where the residual vanishes.  The pieces are all
    combinations of one entry per factor, counted before any is built.
    """
    b = check_beta(problem, beta)
    dim = problem.nbar
    _, at = split_flat(problem, np.arange(dim))  # flat positions of each block

    def leafcoef(j: int, i: int) -> np.ndarray:
        return _unit(dim, i if j == 0 else at[j - 1][i])

    # Each factor entry is (coefficient added, constraints added).
    g_pieces = expr_pieces(problem.outer, z.theta, z.u, leafcoef, dim, limit)
    factors = [[(c, k) for _, c, k in g_pieces]]
    res = residuals(problem, z)
    for ell in range(1, problem.L + 1):
        rho, bk = res.per_layer[ell - 1], b[ell - 1]
        for i, e in enumerate(problem.layers[ell - 1].exprs):
            unit = _unit(dim, at[ell - 1][i])
            psi_ps = expr_pieces(e, z.theta, z.u, leafcoef, dim, limit)
            w_ps = [(unit - c, k) for _, c, k in psi_ps]
            if rho[i] > FEAS_TOL:
                factors.append([(bk * w, k) for w, k in w_ps])
            elif rho[i] < -FEAS_TOL:
                factors.append([(-bk * w, k) for w, k in w_ps])
            else:  # |w . d| forks on the sign of w . d
                forks = [(s * w, k) for (w, k), s in _product([w_ps, (1.0, -1.0)], limit)]
                factors.append([(bk * w, k + [w]) for w, k in forks])

    base = np.zeros(dim)
    base[: problem.n] = 2.0 * problem.lam * z.theta
    out = []
    for combo in _product(factors, limit):
        c, cons = base, []
        for dc, k in combo:
            c, cons = c + dc, cons + k
        out.append((c, cons))
    return out


def psi_prime_pieces(
    problem: CompositeProblem, th: np.ndarray, limit: int = PIECE_LIMIT
) -> list[tuple[np.ndarray, list[np.ndarray]]]:
    """Linear pieces of d -> (Psi + reg)'(theta; d) over the parameter space."""
    n = problem.n
    zpt = eval_layers(problem, th)

    def grow(states, exprs):
        """Each state with each combination of the exprs' pieces, in order.

        A state carries, per finished layer, the matrix of block coefficient
        rows under its branch choices, plus the collected constraints.  A
        piece count depends on values only, not on the state, so the first
        state's counts hold for all of them and the whole list is counted
        before it is built.
        """
        per_state = [
            [expr_pieces(e, th, zpt.u, _leafcoef(n, ucoefs), n, limit) for e in exprs]
            for ucoefs, _ in states
        ]
        picks = [range(len(ps)) for ps in per_state[0]]
        for ((ucoefs, cons), comps), *idx in _product([[*zip(states, per_state)], *picks], limit):
            chosen = [ps[i] for ps, i in zip(comps, idx)]
            yield ucoefs, cons + [g for _, _, k in chosen for g in k], [c for _, c, _ in chosen]

    states: list[tuple[list[np.ndarray], list[np.ndarray]]] = [([], [])]
    for layer in problem.layers:
        states = [(uc + [np.array(rows)], cons) for uc, cons, rows in grow(states, layer.exprs)]
    return [(c + 2.0 * problem.lam * th, cons) for _, cons, (c,) in grow(states, [problem.outer])]


def function_pieces(
    e: ex.Expr, x: np.ndarray, limit: int = PIECE_LIMIT
) -> list[tuple[np.ndarray, list[np.ndarray]]]:
    """Linear pieces of d -> f'(x; d) for an expression over parameter leaves."""
    x = np.asarray(x, dtype=float).ravel()
    return [(c, k) for _, c, k in expr_pieces(e, x, [], _leafcoef(x.size, []), x.size, limit)]


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
    """Global minimum over the cross-polytope of a piecewise-linear derivative.

    d = 0 lies in every piece and the l1 ball caps |c . d| at ||c||_inf, so a
    piece's minimum lies in [-||c||_inf, 0].  With i = argmax |c_i|, the
    bound is exact, and attained at the vertex -sign(c_i) e_i, whenever that
    vertex meets the piece's constraints and ``extra_cons``.  The vertex
    screen runs on every piece first; then, most negative bound first, a
    linear program runs only for a piece whose bound lies below the best
    value so far, which leaves the global minimum unchanged.
    """
    dim = pieces[0][0].size if pieces else 0
    best = (0.0, np.zeros(dim))
    if not pieces:
        return best
    C = np.array([c for c, _ in pieces])
    axis = np.argmax(np.abs(C), axis=1)
    top = C[np.arange(len(pieces)), axis]
    bound = -np.abs(top)
    sign = -np.sign(top)
    extra = np.reshape(extra_cons, (-1, dim))
    vertex_ok = np.all(extra[:, axis] * sign >= 0.0, axis=0)
    for p, (_, cons) in enumerate(pieces):
        if vertex_ok[p] and bound[p] < best[0]:
            i, s = axis[p], sign[p]
            if all(g[i] * s >= 0.0 for g in cons):
                best = (float(bound[p]), s * _unit(dim, i))
    for p in np.argsort(bound, kind="stable"):
        if not bound[p] < best[0]:
            break
        coef, cons = pieces[p]
        sol = min_over_cross_polytope(coef, list(cons) + list(extra_cons))
        if sol is not None and sol[0] < best[0]:
            best = sol
    return best


# ---------------------------------------------------------------------------
# Exact minimum over the l1 ball from one mixed-integer program


class SlopeMin(NamedTuple):
    """What is proved about the minimum of a first derivative over the unit l1 ball.

    ``value`` is the derivative along the incumbent direction ``d``, or 0 at
    d = 0 when there is no incumbent below it.  ``bound`` is a lower bound
    on the minimum, or None.  ``source`` says which step settled it:
    ``"vertex"``, the exact minimum at a vertex of the ball (``bound`` is
    ``value``); ``"multipliers"``, a stationary point (``bound`` at or above
    -tol, ``value`` 0.0 at d = 0) or a descent direction in ker Z (``bound``
    None, ``value`` its slope, which HiGHS may undercut); ``"highs"``,
    HiGHS's dual bound with binaries, its optimum without, and None where it
    proved neither (``MILP_TIME_LIMIT``).  On a badly scaled program HiGHS
    may return a bound above an incumbent ``value``; both are kept as they
    came.  ``binaries`` counts the switches that are ties, one binary each on
    the HiGHS branch, whether or not HiGHS is called.  ``status`` and
    ``message`` are ``milp``'s (1 is its time limit) where HiGHS ran.
    """

    value: float
    bound: float | None
    d: np.ndarray
    binaries: int
    source: str
    status: int | None = None
    message: str = ""


class _Switch(NamedTuple):
    """One kink: s, a form over (d, |s|) that reads earlier switches only, and whether it is a tie."""

    s: np.ndarray
    tie: bool


def _add(fa: np.ndarray, fb: np.ndarray) -> np.ndarray:
    """Sum of two forms; a shorter form is zero past its end."""
    if fa.size < fb.size:
        fa, fb = fb, fa
    out = fa.copy()
    out[: fb.size] += fb
    return out


def _sizes(Z: np.ndarray, L: np.ndarray) -> np.ndarray:
    """S >= |s| on the unit l1 ball for s = Z d + L |s|: S = h + |L| S, h_i = ||Z_i||_inf, by forward substitution."""
    S = np.max(np.abs(Z), axis=1, initial=0.0)
    for i in np.flatnonzero(np.any(L, axis=1)):
        S[i] += np.abs(L[i, :i]) @ S[:i]
    return S


class _SlopeModel:
    """Linear forms of a first derivative in abs-normal coordinates, and the switches they read.

    Entry j < dim of a form is the coefficient of direction component d_j,
    entry dim + i that of |s_i|, switch i's absolute value.  Forms are never
    changed in place, so leaves share theirs.  ``check`` names the model in
    errors.  ``switches`` is the one record of the kinks, in build order:
    each ``_Switch``'s s reads |s_j| of earlier switches only, so the rows
    of s = Z d + L |s| are the switches themselves.  ``cone_rows`` are forms
    g that cut the ball by g . d >= 0.
    """

    def __init__(self, dim: int, check: str):
        self.dim = dim
        self.check = check
        self.switches: list[_Switch] = []
        self.cone_rows: list[np.ndarray] = []
        self.zero = np.zeros(0)
        self._units: dict[int, np.ndarray] = {}

    def unit(self, j: int) -> np.ndarray:
        u = self._units.get(j)
        if u is None:
            u = self._units[j] = np.zeros(j + 1)
            u[j] = 1.0
        return u

    def max_of(self, fa: np.ndarray, fb: np.ndarray) -> np.ndarray:
        """max(fa, fb) = fb + s / 2 + |s| / 2, recorded as a tie that switches on s = fa - fb."""
        if np.array_equal(fa, fb):
            return fa
        s = _add(fa, -fb)
        self.switches.append(_Switch(s, True))
        return _add(_add(fb, 0.5 * s), 0.5 * self.unit(self.dim + len(self.switches) - 1))

    def abs_of(self, w: np.ndarray) -> np.ndarray:
        """|w|, recorded as a switch on s = w that is no tie: HiGHS reads it as an epigraph."""
        self.switches.append(_Switch(w, False))
        return self.unit(self.dim + len(self.switches) - 1)

    def _refuse_non_finite(self, *arrays: np.ndarray) -> None:
        if not all(np.all(np.isfinite(a)) for a in arrays):
            raise ValueError(f"{self.check} first-order model has non-finite coefficients at this point")

    def _abs_normal(self, *forms: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """(Z, L, A, B): the switches' s as rows of [Z, L], L strictly lower triangular, and forms as rows of [A, B]."""
        dim, k = self.dim, len(self.switches)
        W = np.zeros((k + len(forms), dim + k))
        for i, f in enumerate([sw.s for sw in self.switches] + list(forms)):
            W[i, : f.size] = f
        return W[:k, :dim], W[:k, dim:], W[k:, :dim], W[k:, dim:]

    @np.errstate(over="ignore", invalid="ignore")
    def _multipliers(self, obj: np.ndarray, tol: float, binaries: int) -> SlopeMin | None:
        """What the least-squares multipliers settle: a stationary point, a descent witness, or None.

        With obj = a . d + b . |s|, s = Z d + L |s| (``_abs_normal``), any mu
        gives obj = r . d + mu . s + c . |s| with r = a - Z^T mu and c = b -
        L^T mu, and each mu_i s_i + c_i |s_i| >= -max(0, |mu_i| - c_i) S_i
        with |s| <= S (``_sizes``).  So with the minimum-norm mu =
        lstsq(Z^T, a), -||r||_inf - sum_i max(0, |mu_i| - c_i) S_i bounds the
        minimum at any rank of Z, rows that cut the ball only raise it, and at
        or above -tol it settles a stationary point (d = 0, value 0.0).  Where
        ||r||_inf > tol, r is a's projection onto ker Z, so with no cone row d
        = -r / ||r||_1 keeps every s at 0, and its slope a . d + b . |s| (s by
        forward substitution), if below -tol, makes d the incumbent with no
        bound.  An S or a slope that overflows settles nothing.
        """
        Z, L, (a,), (b,) = self._abs_normal(obj)
        mu = np.linalg.lstsq(Z.T, a, rcond=None)[0]
        r = a - Z.T @ mu
        r_max = float(np.max(np.abs(r), initial=0.0))
        if not r_max > tol:
            bound = -r_max - float(np.sum(np.maximum(np.abs(mu) - (b - L.T @ mu), 0.0) * _sizes(Z, L)))
            return SlopeMin(0.0, bound, np.zeros(self.dim), binaries, "multipliers") if bound >= -tol else None
        if self.cone_rows:
            return None
        d = -r / float(np.sum(np.abs(r)))
        s = Z @ d
        for i in np.flatnonzero(np.any(L, axis=1)):
            s[i] += L[i, :i] @ np.abs(s[:i])
        value = float(a @ d + b @ np.abs(s))
        return SlopeMin(value, None, d, binaries, "multipliers") if value < -tol else None

    def critical_basis(self, obj: np.ndarray) -> np.ndarray | None:
        """Orthonormal basis of the critical subspace S of obj's derivative, or None when S is unknown.

        With obj = a . d + b . |s|, s = Z d + L |s| (``_abs_normal``), the
        switches w with b_k != 0 weigh in.  When each is an unnested tie with
        b_k > 0 and mu = lstsq(Z_w^T, a) has every |mu_k| < b_k, zero lies in
        the relative interior of the subdifferential, so the derivative
        vanishes on S = {d : a . d = 0, Z_w d = 0} alone; else S is unknown.
        A slope within CRIT_SLACK counts as zero: S is spanned by the right
        singular vectors of [a; b_w Z_w] whose singular values are at most
        CRIT_SLACK, and is B = I when all of them are.  A non-finite Z, a or b
        raises the ValueError that ``solve`` raises.
        """
        Z, L, (a,), (b,) = self._abs_normal(obj)
        self._refuse_non_finite(Z, a, b)
        w = np.flatnonzero(b)
        known = all(self.switches[k].tie for k in w) and np.all(b[w] > 0.0) and not np.any(L[w])
        if not known or (w.size and not np.all(np.abs(np.linalg.lstsq(Z[w].T, a, rcond=None)[0]) < b[w])):
            return None
        sv, vt = np.linalg.svd(np.vstack([a, b[w, None] * Z[w]]))[1:]
        rank = int(np.sum(sv > CRIT_SLACK))
        return np.eye(self.dim) if rank == 0 else vt[rank:].T

    def solve(self, obj: np.ndarray, tol: float | None = None) -> SlopeMin:
        """Minimise obj = a . d + b . |s| over the unit l1 ball cut by the cone rows.

        When b = 0 and no cone row cuts the ball, the minimum is -|a_i| at
        the vertex -sign(a_i) e_i, i the first argmax of |a|.  Given tol, the
        ``_multipliers`` come next: a bound at or above -tol (d = 0, value
        0.0), or a direction in ker Z whose slope is below -tol.  Only then is
        HiGHS called, on the abs-normal form itself.  Its columns are d in
        [-1, 1]^dim, r in [0, 1]^dim with r >= +-d and sum r <= 1, p and q in
        [0, S] (``_sizes``) that stand for s = p - q and |s| = p + q, and one
        binary z per tie; its rows are p - q - Z d - L (p + q) = 0, p <= S z
        and q <= S (1 - z) per tie, which make p + q = |s| there, and the cone
        rows.  A switch that is no tie gets no binary: p + q >= |s| is exact
        wherever a positive weight minimises it, as a penalty residual's does.
        A non-finite coefficient of obj, a cone row or a switch, a non-finite
        scaled cost, and on the HiGHS branch a non-finite S, raise ValueError.
        """
        dim = self.dim
        with np.errstate(over="ignore"):
            self._refuse_non_finite(_COST_SCALE * obj, *self.cone_rows, *(sw.s for sw in self.switches))
        ties = np.flatnonzero([sw.tie for sw in self.switches])
        if not np.any(obj[dim:]) and not self.cone_rows:
            c = np.zeros(dim)
            c[: min(obj.size, dim)] = obj[:dim]
            value, d = 0.0, np.zeros(dim)
            if np.any(c):
                i = int(np.argmax(np.abs(c)))
                d[i] = -np.sign(c[i])
                value = float(c @ d)
            return SlopeMin(value, value, d, ties.size, "vertex")
        if tol is not None:
            sol = self._multipliers(obj, tol, ties.size)
            if sol is not None:
                return sol
        from scipy import sparse
        from scipy.optimize import Bounds, LinearConstraint

        Z, L, (a,), (b,) = self._abs_normal(obj)
        with np.errstate(over="ignore", invalid="ignore"):
            S = _sizes(Z, L)
        self._refuse_non_finite(S)
        k, nt, cones = S.size, ties.size, np.reshape(self.cone_rows, (-1, dim))
        I, E, T = sparse.eye_array(dim), np.eye(k), sparse.eye_array(k, format="csr")[ties]
        # columns d, r, p, q, z; rows r - d >= 0, r + d >= 0, sum r <= 1, the switches, p <= S z, q + S z <= S, cones
        A = sparse.block_array(
            [
                [-I, I, None, None, None],
                [I, I, None, None, None],
                [None, np.ones((1, dim)), None, None, None],
                [-Z, None, E - L, -E - L, None],
                [None, None, T, None, sparse.diags_array(-S[ties])],
                [None, None, None, T, sparse.diags_array(S[ties])],
                [cones, None, None, None, None],
            ]
        )
        nc = len(cones)
        lower = np.concatenate([np.zeros(2 * dim), [-np.inf], np.zeros(k), np.full(2 * nt, -np.inf), np.zeros(nc)])
        upper = np.concatenate([np.full(2 * dim, np.inf), [1.0], np.zeros(k + nt), S[ties], np.full(nc, np.inf)])
        lo = np.concatenate([-np.ones(dim), np.zeros(dim + 2 * k + nt)])
        hi = np.concatenate([np.ones(2 * dim), S, S, np.ones(nt)])
        c = np.concatenate([a, np.zeros(dim), b, b, np.zeros(nt)])
        integrality = np.concatenate([np.zeros(2 * dim + 2 * k), np.ones(nt)])
        res = milp(
            _COST_SCALE * c,
            integrality=integrality,
            bounds=Bounds(lo, hi),
            constraints=LinearConstraint(A, lower, upper),
            options={"time_limit": MILP_TIME_LIMIT, "mip_rel_gap": 0.0, "presolve": False},
        )
        value, d, bound = 0.0, np.zeros(dim), None
        if res.x is not None and c @ res.x < 0.0:
            value, d = float(c @ res.x), res.x[:dim].copy()
        if not nt:
            bound = value if res.status == 0 else None
        elif res.mip_dual_bound is not None and np.isfinite(res.mip_dual_bound):
            bound = float(res.mip_dual_bound) / _COST_SCALE
        return SlopeMin(value, bound, d, nt, "highs", res.status, res.message)


def _forms(model: _SlopeModel, graph: ex.Graph, x: np.ndarray, nodes: Sequence[int], links=None) -> tuple[list, list]:
    """Value and first-derivative form of input i < x.size and of each id of ``nodes``, at inputs x.

    Input i is (x_i, ``model.unit(i)``), a constant (its value,
    ``model.zero``), and each node, taken in the order of ``nodes``
    (arguments first), applies its family's rule.  ``links`` maps an id to
    the links that stand for it, which take its value and form as soon as
    it has them.  Values follow ``expr``'s Taylor rules operation for
    operation (an offset added after the terms, a tie broken by the gap),
    so every kink takes the tapes' branch.  Callers turn numpy's overflow
    warnings off.
    """
    nin, made, links = graph.nin, graph.made, links or {}
    pad = [None] * (nin - x.size + len(made))
    vals, forms = x.tolist() + pad, [model.unit(i) for i in range(x.size)] + pad
    for t in [t for t in links if t < nin]:  # links to inputs
        for j in links[t]:
            vals[j], forms[j] = vals[t], forms[t]
    for k in nodes:
        entry = made[k - nin]
        if type(entry) is not tuple:
            vals[k], forms[k] = entry, model.zero
            for j in links.get(k, ()):
                vals[j], forms[j] = entry, model.zero
            continue
        node, ids = entry
        family, data = node.family, node.data
        if family == ex.KINK:
            branch, scale, _ = data
            va, fa = vals[ids[0]], forms[ids[0]]
            vb, fb = (scale * va, scale * fa) if branch is None else (vals[ids[1]], forms[ids[1]])
            gap = va - vb
            val, form = (va, fa) if gap > _TIE else (vb, fb) if gap < -_TIE else (max(va, vb), model.max_of(fa, fb))
        elif family == ex.LINEAR:
            weights, offset = data
            val = form = None
            for w, i in zip(weights, ids):
                v, f = vals[i], forms[i]
                if w != 1.0:
                    v, f = w * v, w * f
                val = v if val is None else val + v
                form = f if form is None else _add(form, f)
            if offset is not None:
                val = offset + val
        else:
            pairs, val = data
            form = None if val is None else model.zero
            for i, j in pairs:
                va, fa, vb, fb = vals[ids[i]], forms[ids[i]], vals[ids[j]], forms[ids[j]]
                v = va * vb
                val = v if val is None else val + v
                f = 2.0 * va * fa if i == j else _add(fa * vb, va * fb)
                form = f if form is None else _add(form, f)
        vals[k], forms[k] = val, form
        for j in links.get(k, ()):
            vals[j], forms[j] = val, form
    return vals, forms


@np.errstate(over="ignore", invalid="ignore")
def theta_prime_model(
    problem: CompositeProblem, z: Point, beta: Sequence[float]
) -> tuple[_SlopeModel, np.ndarray]:
    """The model of d -> Theta'(z; d) over the lifted space and its objective form, unsolved.

    It reads the nodes of ``problem.graph`` that g reaches, then those the
    maps reach (``Graph.reach``, links read as blocks), in the graph's
    order; inputs are numbered by flat lifted position.  Each layer
    component adds beta_k times its residual slope w_i = d_u_i - psi_i'(z;
    d): signed where the residual is nonzero, through |w_i|, a switch on s
    = w_i, where it vanishes.
    """
    b = check_beta(problem, beta)
    check_point(problem, z)
    model, x, n = _SlopeModel(problem.nbar, "P1"), z.flat(), problem.n
    graph, nin = problem.graph, problem.graph.nin
    ids = range(nin + len(graph.made))
    g = itertools.compress(ids[nin:], graph.reach(graph.roots[-1:], ids)[nin:])
    maps = itertools.compress(ids[nin:], graph.reach(graph.roots[:-1], ids)[nin:])
    obj = _forms(model, graph, x, g)[1][graph.roots[-1]]
    vals, forms = _forms(model, graph, x, maps)
    for r, (k, i) in enumerate(zip(problem.layer_of_row, graph.roots[:-1])):
        w = _add(model.unit(n + r), -forms[i])
        rho = x[n + r] - vals[i]
        if rho > FEAS_TOL:
            term = w
        elif rho < -FEAS_TOL:
            term = -w
        else:
            term = model.abs_of(w)
        obj = _add(obj, b[k] * term)
    return model, _add(obj, 2.0 * problem.lam * z.theta)


@np.errstate(over="ignore", invalid="ignore")
def psi_prime_model(problem: CompositeProblem, th: np.ndarray) -> tuple[_SlopeModel, np.ndarray]:
    """The model of d -> (Psi + reg)'(theta; d) and its objective form, unsolved.

    It reads ``problem.graph`` with each link followed to its layer
    component's node, through g's root, its last: the nodes g reaches come
    first.  That root may be a parameter.  A link and a copy of its root's
    tree stay two nodes, so a tie that both reach records two switches.
    """
    th = np.asarray(th, dtype=float).ravel()
    model = _SlopeModel(problem.n, "P0")
    graph, src, links = problem.graph, problem.graph.follow, {}
    for j in range(problem.n, graph.nin):
        links.setdefault(src[j], []).append(j)
    g = src[graph.roots[-1]]
    obj = _forms(model, graph, th, range(graph.nin, g + 1), links)[1][g]
    return model, _add(obj, 2.0 * problem.lam * th)


@np.errstate(over="ignore", invalid="ignore")
def function_prime_model(
    e: ex.Expr, tape: ex.Tape, x: np.ndarray, cone_rows: Sequence[np.ndarray] = ()
) -> tuple[_SlopeModel, np.ndarray]:
    """The model of d -> f'(x; d) over the unit l1 ball cut by cone_rows . d >= 0, unsolved.

    ``tape`` is e compiled over (x.size,), as in ``stationarity.check_box``.
    A non-parameter leaf, whose id would be misread, raises ValueError first.
    """
    if any(node.family == ex.LEAF and node.data for node in ex.nodes(e)):
        raise ValueError("the expression may read parameter leaves only")
    x = np.asarray(x, dtype=float).ravel()
    model = _SlopeModel(x.size, "box")
    (root,) = tape.graph.roots
    obj = _forms(model, tape.graph, x, tape.nodes.tolist())[1][root]
    model.cone_rows = [np.asarray(g, dtype=float) for g in cone_rows]
    return model, obj
