"""Exact piecewise-linear structure of first directional derivatives.

For a fixed point, the first directional derivative of any expression in the
DSL is a continuous piecewise-linear function of the direction: every rule is
linear in the first-order data except branch selection at active kinks,
where a value tie makes the derivative the max of the two branches' slopes.

``theta_prime_model``, ``psi_prime_model`` and ``function_prime_model``
write that derivative as linear forms in the direction, in one walk over
the four node families, and record each kink as a switch of the abs-normal
form phi(d) = a . d + b . |s|, s = Z d + L |s| (Griewank & Walther 2016): a
tied kink's variable y = max(fa, fb) switches on s = fa - fb, a vanishing
penalty residual's epigraph variable t = |w| on s = w.  ``solve`` minimises
phi over the unit l1 ball.  Where the objective weighs no auxiliary variable
and no cone row cuts the ball, the minimum is -||c||_inf at a vertex.  Else,
given tol, least-squares multipliers of Z^T mu = a give a rigorous lower
bound (tangential stationarity and normal growth), and one at or above -tol
settles a stationary point.  Else HiGHS (``scipy.optimize.milp``) solves one
mixed-integer linear program, with rows derived from the switches: y >= both
branch forms and a binary that, through big-M rows bounded by interval
arithmetic, makes y equal to one of them; t >= |w| with no binary, since it
enters with a positive weight.  ``critical_basis`` reads the subspace where
phi vanishes off the same substitution.

The piece enumerator below is the reference the tests compare against.
Enumerating the forks of the active kinks yields a finite list of
(coefficient, constraints) pieces on which the derivative is exactly linear,
so minimization over the unit cross-polytope reduces to a minimum over the
pieces.  ``minimize_pieces`` settles a piece exactly without a linear
program when the vertex of the polytope that its sharpest coefficient
points to lies in the piece, and solves one small linear program only for a
piece whose bound could still beat the best value found.  The count of
pieces is a product over the forks, so the enumerator refuses a list over
its limit before building it.
"""

from __future__ import annotations

import itertools
import math
from typing import Callable, Iterator, NamedTuple, Sequence

import numpy as np
from scipy import sparse
from scipy.linalg import lstsq, solve_triangular
from scipy.optimize import Bounds, LinearConstraint, linprog, milp

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
    on the minimum: ``value`` itself when it was read off a vertex of the
    ball; the multiplier bound, at or above -tol, when that settled it
    (``value`` is then 0.0 at d = 0); else HiGHS's dual bound with binaries,
    its optimum without, and None when the solve proved neither, as when
    ``MILP_TIME_LIMIT`` stopped it.  ``binaries`` counts the model's ties,
    one binary each, whether or not HiGHS saw them.
    """

    value: float
    bound: float | None
    d: np.ndarray
    binaries: int


class _Tie(NamedTuple):
    """y = max(fa, fb); m_a and m_b bound fb - fa and fa - fb from above, and delta is its binary."""

    y: int
    fa: np.ndarray
    fb: np.ndarray
    m_a: float
    m_b: float
    delta: int


class _Epigraph(NamedTuple):
    """t = |w| for a vanishing residual's slope w, with S bounding |w|."""

    t: int
    w: np.ndarray
    S: float


def _add(fa: np.ndarray, fb: np.ndarray) -> np.ndarray:
    """Sum of two forms; a shorter form is zero past its end."""
    if fa.size < fb.size:
        fa, fb = fb, fa
    out = fa.copy()
    out[: fb.size] += fb
    return out


class _SlopeModel:
    """Linear forms of a first derivative, and the switches that pin their auxiliary variables.

    Entry j < dim of a form is the coefficient of direction component d_j,
    entry dim + a that of auxiliary variable a, which lies in [lo[a], hi[a]].
    Forms are never changed in place, so leaves share theirs.  ``check``
    names the model in errors.  ``switches`` is the one record of the kinks:
    ``_Tie`` and ``_Epigraph`` entries in build order, variables by index,
    off which HiGHS's rows, the abs-normal form and the critical subspace
    are read.  ``cone_rows`` are forms g that cut the ball by g . d >= 0.
    """

    def __init__(self, dim: int, check: str):
        self.dim = dim
        self.check = check
        self.lo: list[float] = []
        self.hi: list[float] = []
        self.switches: list[_Tie | _Epigraph] = []
        self.cone_rows: list[np.ndarray] = []
        self.zero = np.zeros(0)
        self._units: dict[int, np.ndarray] = {}

    def unit(self, j: int) -> np.ndarray:
        u = self._units.get(j)
        if u is None:
            u = self._units[j] = np.zeros(j + 1)
            u[j] = 1.0
        return u

    def var(self, lo: float, hi: float) -> int:
        """A new auxiliary variable in [lo, hi]; its form is ``unit(dim + index)``."""
        self.lo.append(lo)
        self.hi.append(hi)
        return len(self.lo) - 1

    def interval(self, f: np.ndarray) -> tuple[float, float]:
        """Bounds of f over the model: |c . d| <= ||c||_inf on the l1 ball, and each variable's box."""
        head = float(np.max(np.abs(f[: self.dim]), initial=0.0))
        tail = f[self.dim :]
        lo = tail * np.array(self.lo[: tail.size])
        hi = tail * np.array(self.hi[: tail.size])
        return -head + float(np.sum(np.minimum(lo, hi))), head + float(np.sum(np.maximum(lo, hi)))

    def max_of(self, fa: np.ndarray, fb: np.ndarray) -> np.ndarray:
        """y = max(fa, fb), recorded as a tie with its big-M constants and binary."""
        if np.array_equal(fa, fb):
            return fa
        (lo_a, hi_a), (lo_b, hi_b) = self.interval(fa), self.interval(fb)
        gap_lo, gap_hi = self.interval(_add(fa, -fb))
        y = self.var(max(lo_a, lo_b), max(hi_a, hi_b))
        self.switches.append(_Tie(y, fa, fb, max(-gap_lo, 0.0), max(gap_hi, 0.0), self.var(0.0, 1.0)))
        return self.unit(self.dim + y)

    def abs_of(self, w: np.ndarray) -> np.ndarray:
        """An epigraph variable t >= |w|; it equals |w| wherever a positive weight minimises it."""
        lo, hi = self.interval(w)
        t = self.var(0.0, max(hi, -lo, 0.0))
        self.switches.append(_Epigraph(t, w, self.hi[t]))
        return self.unit(self.dim + t)

    def _rows(self) -> list[tuple[np.ndarray, float, float]]:
        """HiGHS's rows (form, lo, hi) beyond the ball's: each switch's in build order, then the cone rows.

        A tie gives y >= fa, y >= fb, y <= fa + m_a (1 - delta) and y <= fb
        + m_b delta: with delta at 1 the third row binds, at 0 the fourth,
        and the other stays slack.  An epigraph gives t >= w and t >= -w.
        """
        out = []
        for sw in self.switches:
            u = self.unit(self.dim + sw[0])
            if isinstance(sw, _Epigraph):
                out += [(_add(u, -sw.w), 0.0, np.inf), (_add(u, sw.w), 0.0, np.inf)]
            else:
                ya, yb, delta = _add(u, -sw.fa), _add(u, -sw.fb), self.unit(self.dim + sw.delta)
                out += [(ya, 0.0, np.inf), (yb, 0.0, np.inf)]
                out += [(_add(ya, sw.m_a * delta), -np.inf, sw.m_a), (_add(yb, -sw.m_b * delta), -np.inf, 0.0)]
        return out + [(g, 0.0, np.inf) for g in self.cone_rows]

    def _abs_normal(self, obj: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """(Z, L, a, b) with obj = a . d + b . |s| and s = Z d + L |s|, one s per switch.

        A tie's y = (fa + fb) / 2 + |s| / 2 with s = fa - fb, an epigraph's t
        = |s| with s = w; L, strictly lower triangular, is zero unless switches nest.
        """
        dim, k, m = self.dim, len(self.switches), len(self.lo)
        W = np.zeros((k + 1, dim + m))  # each switch's s, then obj, over (d, auxiliary variables)
        Y = np.zeros((m, dim + m))  # each tie variable's (fa + fb) / 2
        P = np.zeros((m, k))  # each auxiliary variable's weight on |s|
        for i, sw in enumerate(self.switches):
            if isinstance(sw, _Epigraph):
                W[i, : sw.w.size] = sw.w
                P[sw.t, i] = 1.0
            else:  # (fa + fb) / 2 = fb + (fa - fb) / 2
                gap = _add(sw.fa, -sw.fb)
                W[i, : gap.size] = gap
                Y[sw.y, : sw.fb.size] = sw.fb
                Y[sw.y] += 0.5 * W[i]
                P[sw.y, i] = 0.5
        W[k, : obj.size] = obj
        # X, each auxiliary variable over (d, |s|), solves X = [Y_d, P] + Y_aux X,
        # where Y_aux is strictly lower triangular; it is zero unless ties nest.
        X = np.hstack([Y[:, :dim], P])
        if np.any(Y[:, dim:]):
            X = solve_triangular(np.eye(m) - Y[:, dim:], X, lower=True, unit_diagonal=True)
        A = W[:, dim:] @ X
        A[:, :dim] += W[:, :dim]
        return A[:k, :dim], A[:k, dim:], A[k, :dim], A[k, dim:]

    @np.errstate(over="ignore", invalid="ignore")
    def multiplier_bound(self, obj: np.ndarray, tol: float = np.inf) -> float | None:
        """A lower bound on the minimum of obj over the unit l1 ball, or None once it is below -tol.

        With obj = a . d + b . |s|, s = Z d + L |s| (``_abs_normal``), any mu
        gives obj = r . d + mu . s + c . |s| with r = a - Z^T mu and c = b -
        L^T mu, and each mu_i s_i + c_i |s_i| >= -max(0, |mu_i| - c_i) S_i,
        S_i bounding |s_i| over the model.  With mu = lstsq(Z^T, a), the bound
        -||r||_inf - sum_i max(0, |mu_i| - c_i) S_i holds at any rank of Z
        (tangential stationarity and normal growth), and rows that cut the
        ball only raise the minimum.  None means ||r||_inf > tol; the
        normal-growth terms are then skipped.
        """
        Z, L, a, b = self._abs_normal(obj)
        mu = lstsq(Z.T, a, lapack_driver="gelsy", check_finite=False)[0] if self.switches else np.zeros(0)
        r = float(np.max(np.abs(a - Z.T @ mu), initial=0.0))
        if r > tol:
            return None
        S = np.array([sw.S if isinstance(sw, _Epigraph) else max(sw.m_a, sw.m_b) for sw in self.switches])
        return -r - float(np.sum(np.maximum(np.abs(mu) - (b - L.T @ mu), 0.0) * S))

    def critical_basis(self, obj: np.ndarray) -> np.ndarray | None:
        """Orthonormal basis of the critical subspace S of obj's derivative, or None when S is unknown.

        With obj = a . d + b . |s|, s = Z d + L |s| (``_abs_normal``), the
        switches w with b_k != 0 weigh in.  When each is a tie with b_k > 0
        whose row of L is zero, and mu = lstsq(Z_w^T, a) has every |mu_k| <
        b_k, zero lies in the relative interior of the subdifferential, so
        the derivative vanishes on S = {d : a . d = 0, Z_w d = 0} alone;
        else S is unknown.  A slope within CRIT_SLACK counts as zero: S is
        spanned by the right singular vectors of [a; b_w Z_w] whose singular
        values are at most CRIT_SLACK, and is B = I when all of them are.
        """
        Z, L, a, b = self._abs_normal(obj)
        w = np.flatnonzero(b)
        known = all(isinstance(self.switches[k], _Tie) for k in w) and np.all(b[w] > 0.0) and not np.any(L[w])
        if not known or (w.size and not np.all(np.abs(np.linalg.lstsq(Z[w].T, a, rcond=None)[0]) < b[w])):
            return None
        sv, vt = np.linalg.svd(np.vstack([a, b[w, None] * Z[w]]))[1:]
        rank = int(np.sum(sv > CRIT_SLACK))
        return np.eye(self.dim) if rank == 0 else vt[rank:].T

    def solve(self, obj: np.ndarray, tol: float | None = None) -> SlopeMin:
        """Minimise obj over d in [-1, 1]^dim, s >= +-d, sum s <= 1, and the model's rows.

        The columns are d, then s, then the auxiliary variables; a
        non-finite coefficient, scaled cost or bound raises ValueError.
        When obj weighs no auxiliary variable and no cone row cuts the ball,
        the switches' rows only pin y = max(fa, fb) and t = |w| inside their
        boxes, which they meet at every d: the minimum is -|c_i| at the
        vertex -sign(c_i) e_i, i the first argmax of |c|.  Given tol, a
        ``multiplier_bound`` at or above -tol comes next, with d = 0 and
        value 0.0.  Only then are the ``_rows`` derived and HiGHS called.
        """
        dim, m = self.dim, len(self.lo)
        with np.errstate(over="ignore"):
            forms = [_COST_SCALE * obj, np.array(self.lo + self.hi), *self.cone_rows]
        forms += [f for sw in self.switches for f in sw[1:]]  # each row's forms and big-M constants
        if not all(np.all(np.isfinite(f)) for f in forms):
            raise ValueError(f"{self.check} first-order model has non-finite coefficients at this point")
        deltas = [sw.delta for sw in self.switches if isinstance(sw, _Tie)]
        if not np.any(obj[dim:]) and not self.cone_rows:
            c = np.zeros(dim)
            c[: min(obj.size, dim)] = obj[:dim]
            value, d = 0.0, np.zeros(dim)
            if np.any(c):
                i = int(np.argmax(np.abs(c)))
                d[i] = -np.sign(c[i])
                value = float(c @ d)
            return SlopeMin(value, value, d, len(deltas))
        if tol is not None:
            bound = self.multiplier_bound(obj, tol)
            if bound is not None and bound >= -tol:
                return SlopeMin(0.0, bound, np.zeros(dim), len(deltas))
        ncol = 2 * dim + m

        def columns(f):
            nz = np.flatnonzero(f)
            return nz, np.where(nz < dim, nz, nz + dim)

        c = np.zeros(ncol)
        nz, cols = columns(obj)
        c[cols] = obj[nz]
        ar = np.arange(dim)
        # s_i - d_i >= 0, s_i + d_i >= 0, then sum s <= 1
        r = [ar, ar, dim + ar, dim + ar, np.full(dim, 2 * dim)]
        k = [ar, dim + ar, ar, dim + ar, dim + ar]
        v = [-np.ones(dim), np.ones(dim), np.ones(dim), np.ones(dim), np.ones(dim)]
        lower = [np.zeros(2 * dim), [-np.inf]]
        upper = [np.full(2 * dim, np.inf), [1.0]]
        rows = self._rows()
        for i, (f, lo, hi) in enumerate(rows, start=2 * dim + 1):
            nz, cols = columns(f)
            r.append(np.full(nz.size, i))
            k.append(cols)
            v.append(f[nz])
            lower.append([lo])
            upper.append([hi])
        A = sparse.csr_array(
            (np.concatenate(v), (np.concatenate(r), np.concatenate(k))),
            shape=(2 * dim + 1 + len(rows), ncol),
        )
        bounds = Bounds(
            np.concatenate([-np.ones(dim), np.zeros(dim), self.lo]),
            np.concatenate([np.ones(2 * dim), self.hi]),
        )
        integrality = np.zeros(ncol)
        integrality[2 * dim + np.array(deltas, dtype=int)] = 1.0
        res = milp(
            _COST_SCALE * c,
            integrality=integrality,
            bounds=bounds,
            constraints=LinearConstraint(A, np.concatenate(lower), np.concatenate(upper)),
            options={"time_limit": MILP_TIME_LIMIT, "mip_rel_gap": 0.0, "presolve": False},
        )
        value, d, bound = 0.0, np.zeros(dim), None
        if res.x is not None and c @ res.x < 0.0:
            value, d = float(c @ res.x), res.x[:dim].copy()
        if not deltas:
            bound = value if res.status == 0 else None
        elif res.mip_dual_bound is not None and np.isfinite(res.mip_dual_bound):
            bound = float(res.mip_dual_bound) / _COST_SCALE
        return SlopeMin(value, bound, d, len(deltas))


def _walk(model: _SlopeModel, e: ex.Expr, leaf: Callable[[int, int], tuple]) -> tuple[float, np.ndarray]:
    """Value and first-derivative form of e; ``leaf(j, i)`` gives block j's component i.

    Values follow the Taylor rules of ``expr`` operation for operation (an
    offset added after the terms, a tie broken by the gap), so every kink
    takes the branch that the tapes' derivative calculus takes.  Callers turn
    numpy's overflow warnings off; ``_SlopeModel.solve`` names the check.
    """
    family, data = e.family, e.data
    if family == ex.LEAF:
        return (e.value, model.zero) if data is None else leaf(data, e.ref)
    if family == ex.KINK:
        branch, scale, _ = data
        va, fa = _walk(model, e.args[0], leaf)
        vb, fb = (scale * va, scale * fa) if branch is None else _walk(model, branch, leaf)
        gap = va - vb
        if gap > _TIE:
            return va, fa
        if gap < -_TIE:
            return vb, fb
        return max(va, vb), model.max_of(fa, fb)
    parts = [_walk(model, a, leaf) for a in e.args]
    if not parts:  # an affine node without arguments is its offset
        return data[1], model.zero
    val = form = None
    if family == ex.LINEAR:
        weights, offset = data
        for w, (v, f) in zip(weights, parts):
            if w != 1.0:
                v, f = w * v, w * f
            val = v if val is None else val + v
            form = f if form is None else _add(form, f)
        return (val if offset is None else offset + val), form
    pairs, val = data
    form = None if val is None else model.zero
    for i, j in pairs:
        (va, fa), (vb, fb) = parts[i], parts[j]
        v = va * vb
        val = v if val is None else val + v
        f = 2.0 * va * fa if i == j else _add(fa * vb, va * fb)
        form = f if form is None else _add(form, f)
    return val, form


@np.errstate(over="ignore", invalid="ignore")
def theta_prime_model(
    problem: CompositeProblem, z: Point, beta: Sequence[float]
) -> tuple[_SlopeModel, np.ndarray]:
    """The model of d -> Theta'(z; d) over the lifted space and its objective form, unsolved.

    Each layer component adds beta_k times its residual slope w_i = d_u_i -
    psi_i'(z; d): signed where the residual is nonzero, through t_i >= |w_i|
    where it vanishes.
    """
    b = check_beta(problem, beta)
    check_point(problem, z)
    model = _SlopeModel(problem.nbar, "P1")
    _, at = split_flat(problem, np.arange(problem.nbar))  # flat positions of each block
    blocks = (z.theta, *z.u)

    def leaf(j: int, i: int) -> tuple[float, np.ndarray]:
        return float(blocks[j][i]), model.unit(i if j == 0 else int(at[j - 1][i]))

    obj = _walk(model, problem.outer, leaf)[1]
    for k, lm in enumerate(problem.layers):
        for i, e in enumerate(lm.exprs):
            val, psi = _walk(model, e, leaf)
            w = _add(model.unit(int(at[k][i])), -psi)
            rho = z.u[k][i] - val
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

    A u-leaf stands for its layer component's value and form at the lift of
    theta, walked once and shared by every reference.
    """
    th = np.asarray(th, dtype=float).ravel()
    model = _SlopeModel(problem.n, "P0")
    lifted: dict[tuple[int, int], tuple[float, np.ndarray]] = {}

    def leaf(j: int, i: int) -> tuple[float, np.ndarray]:
        if j == 0:
            return float(th[i]), model.unit(i)
        hit = lifted.get((j, i))
        if hit is None:
            hit = lifted[j, i] = _walk(model, problem.layers[j - 1].exprs[i], leaf)
        return hit

    obj = _walk(model, problem.outer, leaf)[1]
    return model, _add(obj, 2.0 * problem.lam * th)


@np.errstate(over="ignore", invalid="ignore")
def function_prime_model(
    e: ex.Expr, x: np.ndarray, cone_rows: Sequence[np.ndarray] = ()
) -> tuple[_SlopeModel, np.ndarray]:
    """The model of d -> f'(x; d) over the unit l1 ball cut by cone_rows . d >= 0, unsolved."""
    x = np.asarray(x, dtype=float).ravel()
    model = _SlopeModel(x.size, "box")

    def leaf(j: int, i: int) -> tuple[float, np.ndarray]:
        if j != 0:
            raise ValueError("the expression may read parameter leaves only")
        return float(x[i]), model.unit(i)

    obj = _walk(model, e, leaf)[1]
    model.cone_rows = [np.asarray(g, dtype=float) for g in cone_rows]
    return model, obj
