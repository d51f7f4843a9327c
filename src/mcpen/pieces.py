"""Exact piecewise-linear structure of first directional derivatives.

For a fixed point, the first directional derivative of any expression in the
DSL is a continuous piecewise-linear function of the direction: every rule is
linear in the first-order data except branch selection at active kinks,
where a value tie makes the derivative the max of the two branches' slopes.

``theta_prime_model``, ``psi_prime_model`` and ``function_prime_model``
write that derivative as linear forms in the direction, in one loop over
a hash-consed node graph (``expr.Graph``: the problem's one walk of its
trees, or a box tape's), branching on the four node families, and record
each kink as a switch of the abs-normal form phi(d) = a . d + b . |s|,
s = Z d + L |s| (Griewank & Walther 2016): a
tied kink's variable y = max(fa, fb) switches on s = fa - fb, a vanishing
penalty residual's epigraph variable t = |w| on s = w.  ``solve`` minimises
phi over the unit l1 ball.  Where the objective weighs no auxiliary variable
and no cone row cuts the ball, the minimum is -||c||_inf at a vertex.  Else,
given tol, least-squares multipliers of Z^T mu = a give a rigorous lower
bound (tangential stationarity and normal growth), and one at or above -tol
settles a stationary point; where the tangential residual a - Z^T mu
exceeds tol instead, it points down within ker Z, a descent direction that
leaves every switch at zero.  Else HiGHS (``scipy.optimize.milp``) solves one
mixed-integer linear program, with rows derived from the switches: y >= both
branch forms and a binary that, through big-M rows, makes y equal to one of
them; t >= |w| with no binary, since it enters with a positive weight.
Their boxes and big-M constants, built for HiGHS alone, and the multipliers'
bounds on |s| are read off the abs-normal form too.  ``critical_basis``
reads the subspace where phi vanishes off the same substitution.  No tree
is walked, so any depth takes no recursion, and a tie that hash-consing
shares records one switch.

The multipliers and the abs-normal substitutions run on numpy alone
(``numpy.linalg.lstsq`` and forward substitution).  scipy serves HiGHS
alone: ``milp``, ``linprog`` and ``solve``'s HiGHS branch import
``scipy.optimize`` and ``scipy.sparse`` at their first use, so ``import
mcpen`` and every check the multipliers settle load no scipy module.

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
    proved neither (``MILP_TIME_LIMIT``).  ``binaries`` counts the ties,
    sent to HiGHS or not.
    """

    value: float
    bound: float | None
    d: np.ndarray
    binaries: int
    source: str


class _Tie(NamedTuple):
    """y = max(fa, fb), which switches on s = fa - fb; delta is its binary."""

    y: int
    fa: np.ndarray
    fb: np.ndarray
    delta: int


class _Epigraph(NamedTuple):
    """t = |w| for a vanishing residual's slope w, which switches on s = w."""

    t: int
    w: np.ndarray


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
    """Linear forms of a first derivative, and the switches that pin their auxiliary variables.

    Entry j < dim of a form is the coefficient of direction component d_j,
    entry dim + a that of auxiliary variable a < ``nvar``.  Forms are never
    changed in place, so leaves share theirs.  ``check`` names the model in
    errors.  ``switches`` is the one record of the kinks: ``_Tie`` and
    ``_Epigraph`` entries in build order, off which everything else is read.
    ``cone_rows`` are forms g that cut the ball by g . d >= 0.
    """

    def __init__(self, dim: int, check: str):
        self.dim = dim
        self.check = check
        self.nvar = 0
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

    def max_of(self, fa: np.ndarray, fb: np.ndarray) -> np.ndarray:
        """y = max(fa, fb), recorded as a tie with its binary: two new variables."""
        if np.array_equal(fa, fb):
            return fa
        self.switches.append(_Tie(self.nvar, fa, fb, self.nvar + 1))
        self.nvar += 2
        return self.unit(self.dim + self.nvar - 2)

    def abs_of(self, w: np.ndarray) -> np.ndarray:
        """An epigraph variable t >= |w|; it equals |w| wherever a positive weight minimises it."""
        self.switches.append(_Epigraph(self.nvar, w))
        self.nvar += 1
        return self.unit(self.dim + self.nvar - 1)

    def _refuse_non_finite(self, *arrays: np.ndarray) -> None:
        if not all(np.all(np.isfinite(a)) for a in arrays):
            raise ValueError(f"{self.check} first-order model has non-finite coefficients at this point")

    @np.errstate(over="ignore", invalid="ignore")
    def _abs_normal(self, *forms: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """(Z, L, A, B): s = Z d + L |s|, one s per switch, and each of forms as a row of A . d + B . |s|.

        A tie's y = (fa + fb) / 2 + |s| / 2 with s = fa - fb, an epigraph's t
        = |s| with s = w.  L is strictly lower triangular, and nonzero only
        where switches nest; so is the substitution's Y_aux, whose nonzero
        rows forward substitution visits in order.
        """
        dim, k, m = self.dim, len(self.switches), self.nvar
        W = np.zeros((k + len(forms), dim + m))  # each switch's s, then forms, over (d, auxiliary variables)
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
        for i, f in enumerate(forms, start=k):
            W[i, : f.size] = f
        # X, each auxiliary variable over (d, |s|), solves X = [Y_d, P] + Y_aux X, Y_aux strictly lower
        X, Y_aux = np.hstack([Y[:, :dim], P]), Y[:, dim:]
        for i in np.flatnonzero(np.any(Y_aux, axis=1)):
            X[i] += Y_aux[i, :i] @ X[:i]
        A = W[:, dim:] @ X
        A[:, :dim] += W[:, :dim]
        return A[:k, :dim], A[:k, dim:], A[k:, :dim], A[k:, dim:]

    @np.errstate(over="ignore", invalid="ignore")
    def _boxes(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Each auxiliary variable's box (lo, hi), and each tie's big-M pair (m_a, m_b) as a row.

        With |s| <= S (``_sizes``), each switch's s and each tie's fa and fb,
        p . d + q . |s| by ``_abs_normal``, lie in [-||p||_inf + min(q, 0) .
        S, ||p||_inf + max(q, 0) . S].  A tie's y lies in [max(lo_a, lo_b),
        max(hi_a, hi_b)], and its m_a and m_b are the positive parts of -lo
        and hi of its s; an epigraph's t lies in [0, S_i], a binary in [0, 1].
        """
        ties = [i for i, sw in enumerate(self.switches) if isinstance(sw, _Tie)]
        epigraphs = [i for i, sw in enumerate(self.switches) if isinstance(sw, _Epigraph)]
        Z, L, A, B = self._abs_normal(*(f for i in ties for f in (self.switches[i].fa, self.switches[i].fb)))
        S, Q = _sizes(Z, L), np.vstack([L, B])  # rows: each switch's s, then each tie's fa and fb
        head = np.max(np.abs(np.vstack([Z, A])), axis=1, initial=0.0)
        lo, hi = -head + np.minimum(Q, 0.0) @ S, head + np.maximum(Q, 0.0) @ S
        box_lo, box_hi, k = np.zeros(self.nvar), np.ones(self.nvar), len(self.switches)
        box_hi[[self.switches[i].t for i in epigraphs]] = S[epigraphs]
        y = [self.switches[i].y for i in ties]
        box_lo[y], box_hi[y] = np.maximum(lo[k::2], lo[k + 1 :: 2]), np.maximum(hi[k::2], hi[k + 1 :: 2])
        return box_lo, box_hi, np.column_stack([np.maximum(-lo[ties], 0.0), np.maximum(hi[ties], 0.0)])

    def _rows(self, big_m: np.ndarray) -> list[tuple[np.ndarray, float, float]]:
        """HiGHS's rows (form, lo, hi) beyond the ball's: each switch's in build order, then the cone rows.

        A tie gives y >= fa, y >= fb, y <= fa + m_a (1 - delta) and y <= fb
        + m_b delta, (m_a, m_b) its row of big_m: delta at 1 binds the third
        row, at 0 the fourth.  An epigraph gives t >= w and t >= -w.
        """
        out, pairs = [], iter(big_m)
        for sw in self.switches:
            u = self.unit(self.dim + sw[0])
            if isinstance(sw, _Epigraph):
                out += [(_add(u, -sw.w), 0.0, np.inf), (_add(u, sw.w), 0.0, np.inf)]
            else:
                (m_a, m_b), delta = next(pairs), self.unit(self.dim + sw.delta)
                ya, yb = _add(u, -sw.fa), _add(u, -sw.fb)
                out += [(ya, 0.0, np.inf), (yb, 0.0, np.inf)]
                out += [(_add(ya, m_a * delta), -np.inf, m_a), (_add(yb, -m_b * delta), -np.inf, 0.0)]
        return out + [(g, 0.0, np.inf) for g in self.cone_rows]

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
        bound.  A non-finite Z or a, where the substitution overflowed, settles
        nothing, and the HiGHS branch names the model.
        """
        Z, L, (a,), (b,) = self._abs_normal(obj)
        if not (np.all(np.isfinite(Z)) and np.all(np.isfinite(a))):
            return None
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
        known = all(isinstance(self.switches[k], _Tie) for k in w) and np.all(b[w] > 0.0) and not np.any(L[w])
        if not known or (w.size and not np.all(np.abs(np.linalg.lstsq(Z[w].T, a, rcond=None)[0]) < b[w])):
            return None
        sv, vt = np.linalg.svd(np.vstack([a, b[w, None] * Z[w]]))[1:]
        rank = int(np.sum(sv > CRIT_SLACK))
        return np.eye(self.dim) if rank == 0 else vt[rank:].T

    def solve(self, obj: np.ndarray, tol: float | None = None) -> SlopeMin:
        """Minimise obj over d in [-1, 1]^dim, s >= +-d, sum s <= 1, and the model's rows.

        The columns are d, then s, then the auxiliary variables.  When obj
        weighs no auxiliary variable and no cone row cuts the ball, the
        switches only pin y = max(fa, fb) and t = |w|: the minimum is -|c_i|
        at the vertex -sign(c_i) e_i, i the first argmax of |c|.  Given tol,
        the ``_multipliers`` come next: a bound at or above -tol (d = 0,
        value 0.0), or a direction in ker Z whose slope is below -tol.  Only
        then are the ``_boxes`` and ``_rows`` derived and HiGHS called.  A
        non-finite coefficient of obj, a cone row or a switch's form, a
        non-finite scaled cost, and on the HiGHS branch a non-finite box or
        big-M constant, raise ValueError.
        """
        dim = self.dim
        with np.errstate(over="ignore"):
            # each switch's forms: a tie's fa and fb, an epigraph's w
            self._refuse_non_finite(_COST_SCALE * obj, *self.cone_rows, *(f for sw in self.switches for f in sw[1:3]))
        deltas = [sw.delta for sw in self.switches if isinstance(sw, _Tie)]
        if not np.any(obj[dim:]) and not self.cone_rows:
            c = np.zeros(dim)
            c[: min(obj.size, dim)] = obj[:dim]
            value, d = 0.0, np.zeros(dim)
            if np.any(c):
                i = int(np.argmax(np.abs(c)))
                d[i] = -np.sign(c[i])
                value = float(c @ d)
            return SlopeMin(value, value, d, len(deltas), "vertex")
        if tol is not None:
            sol = self._multipliers(obj, tol, len(deltas))
            if sol is not None:
                return sol
        from scipy import sparse
        from scipy.optimize import Bounds, LinearConstraint

        box_lo, box_hi, big_m = self._boxes()
        self._refuse_non_finite(box_lo, box_hi, big_m)
        ncol = 2 * dim + self.nvar

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
        rows = self._rows(big_m)
        for i, (f, _, _) in enumerate(rows, start=2 * dim + 1):
            nz, cols = columns(f)
            r.append(np.full(nz.size, i))
            k.append(cols)
            v.append(f[nz])
        lower = np.concatenate([np.zeros(2 * dim), [-np.inf], [lo for _, lo, _ in rows]])
        upper = np.concatenate([np.full(2 * dim, np.inf), [1.0], [hi for *_, hi in rows]])
        A = sparse.csr_array((np.concatenate(v), (np.concatenate(r), np.concatenate(k))), shape=(len(lower), ncol))
        bounds = Bounds(
            np.concatenate([-np.ones(dim), np.zeros(dim), box_lo]), np.concatenate([np.ones(2 * dim), box_hi])
        )
        integrality = np.zeros(ncol)
        integrality[2 * dim + np.array(deltas, dtype=int)] = 1.0
        res = milp(
            _COST_SCALE * c,
            integrality=integrality,
            bounds=bounds,
            constraints=LinearConstraint(A, lower, upper),
            options={"time_limit": MILP_TIME_LIMIT, "mip_rel_gap": 0.0, "presolve": False},
        )
        value, d, bound = 0.0, np.zeros(dim), None
        if res.x is not None and c @ res.x < 0.0:
            value, d = float(c @ res.x), res.x[:dim].copy()
        if not deltas:
            bound = value if res.status == 0 else None
        elif res.mip_dual_bound is not None and np.isfinite(res.mip_dual_bound):
            bound = float(res.mip_dual_bound) / _COST_SCALE
        return SlopeMin(value, bound, d, len(deltas), "highs")


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

    It reads the nodes of ``problem.graph`` that ``outer_tape`` computes,
    then those of ``fixed_tape``, in the graph's order; inputs are numbered
    by flat lifted position, a ``u`` leaf reading its block.  Each layer
    component adds beta_k times its residual slope w_i = d_u_i - psi_i'(z;
    d): signed where the residual is nonzero, through t_i >= |w_i| where it
    vanishes.
    """
    b = check_beta(problem, beta)
    check_point(problem, z)
    model, x, n = _SlopeModel(problem.nbar, "P1"), z.flat(), problem.n
    graph = problem.graph
    obj = _forms(model, graph, x, problem.outer_tape.nodes.tolist())[1][graph.roots[-1]]
    vals, forms = _forms(model, graph, x, problem.fixed_tape.nodes.tolist())
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
