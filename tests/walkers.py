"""The recursive walkers and per-layer loops that the tapes replaced, kept as oracles.

``scalar_value`` walks one tree at one point, one node at a time, as
``expr.eval_one`` did; ``scalar_layer``, ``scalar_layers``, ``scalar_g``,
``scalar_F``, ``scalar_residuals`` and ``scalar_Theta`` call it a map and a
layer at a time, as ``model.layer_values``, ``eval_layers``, ``eval_g``,
``eval_F``, ``residuals`` and ``eval_Theta`` did before they ran on the
problem's tapes; ``scalar_residuals`` sums and folds each layer's vector
with ``np.sum`` and Python's ``max``, as the model did before it read them
off stacked rows.  ``recursive_cells`` and ``recursive_cols`` walk one node
at a time, as ``expr.taylor_cells`` and ``expr.eval_cols`` did before the
tapes; ``per_layer_slopes`` and ``per_layer_curves`` call them once per
map, as ``dcalc.residual_slopes`` and ``dcalc.forward_curves`` did.
``per_layer_Theta`` adds Theta's penalty terms a layer at a time with
``np.sum``, as ``dcalc.dd_Theta_batch`` did before it folded the stacked
rows; over two or more columns it must match byte for byte.
``scalar_sample_level_set`` draws and judges one level-set candidate, one
row of uniforms, at a time, in the blocks that ``penalty._sample_level_set``
judges a block at a time, and ``per_layer_judge`` judges a block by one
fixed-tape pass per layer and an outer pass, as the sampler did before it
ran a level tape (now the chained tape's level mode, ``Tape.shifted``).
The tapes and the sampler must reproduce them byte for byte.  Every walker
here takes the tapes' one value rule: a sum adds its offset to its first
term, and a kink is the max of its branches, ``abs`` max(a, -a).
``tie_basis`` finds the critical subspace of P0's model by the tie algebra
that ``stationarity`` ran before ``_SlopeModel.critical_basis`` read it
off the abs-normal form; the two must span the same subspace.
``degree`` bounds a tree's polynomial degree by recursion, as
``cones._degree`` did before ``cones.ray_decidable`` folded the bound over
the problem's node graph; the two must agree.
"""

import operator
from functools import reduce
from typing import Sequence

import numpy as np

from mcpen import expr as ex
from mcpen.dcalc import KINK_TOL
from mcpen.pieces import CRIT_SLACK
from mcpen.model import (
    FEAS_TOL,
    EvaluationError,
    Point,
    Residuals,
    check_beta,
    check_point,
    checked_g,
    split_flat,
)


def scalar_value(e: ex.Expr, th: np.ndarray, ublocks: Sequence[np.ndarray]) -> float:
    """The value of one tree at one point, one node at a time."""
    return _value(e, (th, *ublocks))


def _value(e: ex.Expr, blocks: Sequence[np.ndarray]) -> float:
    family, data = e.family, e.data
    if family == ex.LEAF:
        return e.value if data is None else float(blocks[data][e.ref])
    if family == ex.KINK:
        branch, scale = data
        a = _value(e.args[0], blocks)
        return max(a, scale * a if branch is None else _value(branch, blocks))
    if family == ex.LINEAR:
        weights, acc = data
        for w, a in zip(weights, e.args):
            t = w * _value(a, blocks)
            acc = t if acc is None else acc + t
        return acc
    pairs, acc = data
    for i, j in pairs:
        a = _value(e.args[i], blocks)
        t = a * (a if i == j else _value(e.args[j], blocks))
        acc = t if acc is None else acc + t
    return acc


def degree(e: ex.Expr) -> int:
    """Upper bound on e's polynomial degree in its inputs, kinks transparent, one node at a time."""
    if e.family == ex.LEAF:
        return 0 if e.data is None else 1
    args = [degree(a) for a in e.args]
    if e.family == ex.PRODUCT:
        return max(args[i] + args[j] for i, j in e.data[0])
    return max(args, default=0)


def scalar_layer(problem, k, th, ublocks):
    """The map defining block k (1-based) at one point; ``EvaluationError`` if not finite."""
    vals = np.array([scalar_value(e, th, ublocks) for e in problem.layers[k - 1].exprs], dtype=float)
    if not np.all(np.isfinite(vals)):
        raise EvaluationError(k, f"layer {k} evaluated to a non-finite value")
    return vals


def scalar_layers(problem, th):
    """The feasible lift of theta, a layer at a time."""
    blocks = []
    for k in range(1, problem.L + 1):
        blocks.append(scalar_layer(problem, k, th, blocks))
    return Point(th.copy(), tuple(blocks))


def scalar_g(problem, ublocks):
    return checked_g(problem, scalar_value(problem.outer, np.zeros(problem.n), ublocks))


def scalar_F(problem, z):
    check_point(problem, z)
    return scalar_g(problem, z.u) + problem.lam * float(z.theta @ z.theta)


def scalar_residuals(problem, z):
    """Each layer's residual vector, its ``np.sum`` l1 norm and largest |rho|, folded by Python's ``max``."""
    check_point(problem, z)
    per_layer = [u - scalar_layer(problem, k, z.theta, z.u) for k, u in enumerate(z.u, start=1)]
    l1 = [float(np.sum(np.abs(r))) for r in per_layer]
    layer_max = [float(np.max(np.abs(r))) for r in per_layer]
    max_abs = reduce(max, layer_max)
    return Residuals(per_layer, l1, max_abs, bool(max_abs <= FEAS_TOL), layer_max)


def scalar_Theta(problem, z, beta):
    b = check_beta(problem, beta)
    l1 = scalar_residuals(problem, z).l1
    return scalar_F(problem, z) + float(np.dot(b, l1))


def recursive_cols(exprs, TH, UBLOCKS):
    """Values at the m columns of TH and UBLOCKS, shape (len(exprs), m), one node at a time."""
    blocks, m = (TH, *UBLOCKS), TH.shape[1]
    with np.errstate(all="ignore"):
        return np.array([_cols(e, blocks, m) for e in exprs]).reshape(len(exprs), m)


def _cols(e: ex.Expr, blocks: Sequence[np.ndarray], m: int) -> np.ndarray:
    family, data = e.family, e.data
    if family == ex.LEAF:
        return np.full(m, e.value) if data is None else blocks[data][e.ref]
    if family == ex.KINK:
        branch, scale = data
        a = _cols(e.args[0], blocks, m)
        return ex.MAX(a, scale * a if branch is None else _cols(branch, blocks, m))
    if family == ex.LINEAR:
        weights, acc = data
        acc = None if acc is None else np.full(m, acc)
        for w, a in zip(weights, e.args):
            t = w * _cols(a, blocks, m)
            acc = t if acc is None else acc + t
        return acc
    pairs, acc = data
    for i, j in pairs:
        a = _cols(e.args[i], blocks, m)
        t = a * (a if i == j else _cols(e.args[j], blocks, m))
        acc = t if acc is None else acc + t
    return acc


def recursive_cells(
    exprs: Sequence[ex.Expr],
    th: np.ndarray,
    ublocks: Sequence[np.ndarray],
    dtheta: np.ndarray,
    dublocks: Sequence[np.ndarray],
    order: int = 1,
    eublocks: Sequence[np.ndarray] | None = None,
    ukinked: Sequence[np.ndarray] | None = None,
    ubad2: Sequence[np.ndarray] | None = None,
) -> list[ex.Cell]:
    """Propagate one-sided Taylor data through each expression.

    ``dtheta`` has shape (n, m) and each entry of ``dublocks`` shape
    (N_j, m); the optional ``eublocks`` carry the layer inputs' second-order
    curve coefficients (defaulting to zero, as they always are for theta).
    ``ukinked``/``ubad2`` mark layer-input components whose feeding curves
    are themselves kinked or second-order unsupported, so the taint survives
    chaining across layers.
    """
    if order not in (1, 2):
        raise ValueError("order must be 1 or 2")
    m = dtheta.shape[1] if dtheta.ndim == 2 else 1
    dtheta = np.asarray(dtheta, dtype=float).reshape(len(th), m)
    want2 = order == 2

    zeros = np.zeros(m)
    false = np.zeros(m, dtype=bool)
    zeros2, false2 = (zeros, false) if want2 else (None, None)

    def combine_max(a: ex.Cell, b: ex.Cell) -> ex.Cell:
        gap = a.value - b.value
        if gap > ex.TIE_TOL:
            return a
        if gap < -ex.TIE_TOL:
            return b
        # Active value tie: branch selection moves to first order.
        first = np.maximum(a.first, b.first)
        fgap = a.first - b.first
        kink_here = np.abs(fgap) > ex.TIE_TOL
        kinked = a.kinked | b.kinked | kink_here
        second = None
        bad2 = None
        if want2:
            second = np.where(
                fgap > ex.TIE_TOL,
                a.second,
                np.where(fgap < -ex.TIE_TOL, b.second, np.maximum(a.second, b.second)),
            )
            sgap = a.second - b.second
            kinked = kinked | ((~kink_here) & (np.abs(sgap) > ex.TIE_TOL))
            # Tie with a kinked argument is outside the supported envelope.
            bad2 = a.bad2 | b.bad2 | a.kinked | b.kinked
        return ex.Cell(max(a.value, b.value), first, second, kinked, bad2)

    def cell(e: ex.Expr) -> ex.Cell:
        family, data = e.family, e.data
        if family == ex.LEAF:
            if data is None:
                return ex.Cell(e.value, zeros, zeros2, false, false2)
            if data == 0:  # theta carries no second-order data or taint
                return ex.Cell(float(th[e.ref]), dtheta[e.ref], zeros2, false, false2)
            j, i = data - 1, e.ref
            return ex.Cell(
                float(ublocks[j][i]),
                dublocks[j][i],
                eublocks[j][i] if (want2 and eublocks is not None) else zeros2,
                ukinked[j][i] if ukinked is not None else false,
                ubad2[j][i] if (want2 and ubad2 is not None) else false2,
            )
        if family == ex.KINK:
            branch, scale = data
            a = cell(e.args[0])
            if branch is not None:
                return combine_max(a, cell(branch))
            s2 = scale * a.second if want2 else None
            return combine_max(a, ex.Cell(scale * a.value, scale * a.first, s2, a.kinked, a.bad2))
        cs = [cell(a) for a in e.args]
        if not cs:  # an affine node without arguments is its offset
            return ex.Cell(data[1], zeros, zeros2, false, false2)
        kinked = reduce(operator.or_, [c.kinked for c in cs])
        bad2 = [c.bad2 for c in cs]
        if family == ex.LINEAR:
            weights, val = data
            first = second = None if val is None else 0.0
            for w, c in zip(weights, cs):
                v, f, s2 = c.value, c.first, c.second
                if w != 1.0:
                    v, f, s2 = w * v, w * f, w * s2 if want2 else None
                val = v if val is None else val + v
                first = f if first is None else first + f
                if want2:
                    second = s2 if second is None else second + s2
        else:
            pairs, val = data
            first = second = val
            for i, j in pairs:
                a, b = cs[i], cs[j]
                v = a.value * b.value
                val = v if val is None else val + v
                if i == j:
                    f = 2.0 * a.value * a.first
                    first = f if first is None else first + f
                else:
                    f = a.first * b.value
                    first = (f if first is None else first + f) + a.value * b.first
                if not want2:
                    continue
                if i == j:
                    s2 = 2.0 * a.first * a.first
                    second = (s2 if second is None else second + s2) + 2.0 * a.value * a.second
                else:
                    s2 = a.second * b.value
                    second = s2 if second is None else second + s2
                    second = second + 2.0 * a.first * b.first + a.value * b.second
                bad2.append(a.kinked & b.kinked)
        return ex.Cell(val, first, second, kinked, reduce(operator.or_, bad2) if want2 else None)

    return [cell(e) for e in exprs]


def _stack(cells, attr):
    return np.array([getattr(c, attr) for c in cells])


def per_layer_slopes(problem, z, DTH, DU, order=1):
    """Per layer, (value, w, second, bad2) from one walk of its map, as ``dcalc.residual_slopes``."""
    out = []
    for k, lm in enumerate(problem.layers):
        cells = recursive_cells(lm.exprs, z.theta, z.u, DTH, DU, order=order)
        w = DU[k] - _stack(cells, "first")
        if order == 2:
            out.append((_stack(cells, "value"), w, _stack(cells, "second"), _stack(cells, "bad2")))
        else:
            out.append((_stack(cells, "value"), w, None, None))
    return out


def per_layer_Theta(F, slopes, z, beta, order=1):
    """``dcalc.dd_Theta_batch``'s sum a layer at a time: F's (first, second, bad, kinked) plus each penalty term.

    ``slopes`` are per layer (value, w, second, bad2), as ``per_layer_slopes``
    gives them; each term's sums are ``np.sum`` over the selected rows.
    """
    first, second, bad, kinked = F
    for uk, bk, (psi_val, w, psi_second, bad2) in zip(z.u, beta, slopes):
        rho = uk - psi_val
        pos = rho > FEAS_TOL
        neg = rho < -FEAS_TOL
        zer = ~(pos | neg)
        first = first + bk * (np.sum(w[pos], axis=0) - np.sum(w[neg], axis=0) + np.sum(np.abs(w[zer]), axis=0))
        kinked = kinked | (np.abs(w[zer]) > KINK_TOL).any(axis=0)
        if order == 2:
            bad = bad | bad2.any(axis=0)
            zsel = np.where(w > KINK_TOL, -psi_second, np.where(w < -KINK_TOL, psi_second, np.abs(psi_second)))
            second = second + bk * (
                -np.sum(psi_second[pos], axis=0) + np.sum(psi_second[neg], axis=0) + np.sum(zsel[zer], axis=0)
            )
    return first, second, bad, kinked


def per_layer_curves(problem, th, DTH, order=1):
    """(ublocks, DU, EU, KU, BU) chained a layer at a time, then g's cell along them."""
    ublocks, DU, KU = [], [], []
    EU = [] if order == 2 else None
    BU = [] if order == 2 else None
    for lm in problem.layers:
        cells = recursive_cells(
            lm.exprs, th, ublocks, DTH, DU, order=order, eublocks=EU, ukinked=KU, ubad2=BU
        )
        ublocks.append(_stack(cells, "value"))
        DU.append(_stack(cells, "first"))
        KU.append(_stack(cells, "kinked"))
        if order == 2:
            EU.append(_stack(cells, "second"))
            BU.append(_stack(cells, "bad2"))
    (g,) = recursive_cells([problem.outer], th, ublocks, DTH, DU, order, EU, KU, BU)
    return (ublocks, DU, EU, KU, BU), g


def per_layer_judge(problem, TH, RHO):
    """The level mode's roots at parameter columns TH (n, m) and shift columns RHO (R, m), a layer at a time.

    One ``fixed_tape`` pass per layer adds layer k's values to its shift,
    and an ``outer_tape`` pass reads g at the shifted blocks, as
    ``penalty._sample_level_set`` judged its candidates before it ran a
    level tape.  Returns the maps' values of the last pass, the shifted
    blocks stacked, and g.
    """
    U = [RHO[rows] for rows in problem.layer_rows]
    with np.errstate(all="ignore"):
        for k, rows in enumerate(problem.layer_rows, start=1):
            X = problem.fixed_tape.values(TH, U)
            U[k - 1] = X[rows] + U[k - 1]
    return X, np.concatenate(U), problem.outer_tape.values(TH, U)[0]


def scalar_sample_level_set(problem, beta, gamma_bar, eps, budget, rng):
    """``penalty._sample_level_set`` as a loop that draws and judges one candidate, one row of uniforms, at a time.

    The rows come in blocks of budget, 4 budget and 15 budget; once the
    budget fills, or a candidate reaches a layer whose noise range is not
    finite, the rest of the block's rows are drawn unjudged, and the
    latter then raises numpy's ``OverflowError``.  The kept points'
    perturbations are drawn after the last block.
    """
    r_theta = np.sqrt(gamma_bar / problem.lam) if gamma_bar >= 0.0 else np.nan
    if np.signbit(r_theta) or not r_theta <= np.finfo(float).max / 2.0:
        raise ValueError(
            f"reference level gamma_bar = {gamma_bar} bounds no level set to sample; "
            "it must be nonnegative and finite (is the outer function negative?)"
        )
    n = problem.n
    with np.errstate(over="ignore"):
        rad = [gamma_bar / b for b in beta]
    pts, overflow = [], 0

    def candidate(u):
        """The lifted candidate of row u, None if it is rejected or not finite; sets ``overflow``."""
        nonlocal overflow
        th = -r_theta + (r_theta - -r_theta) * u[:n]
        blocks, l1, at = [], [], n
        try:
            for k in range(1, problem.L + 1):
                base = scalar_layer(problem, k, th, blocks)
                with np.errstate(over="ignore"):
                    span = rad[k - 1] - -rad[k - 1]
                if not np.isfinite(span):
                    overflow = k
                    return None
                blocks.append(base + (-rad[k - 1] + span * u[at : at + base.size]))
                at += base.size
                l1.append(float(np.sum(np.abs(blocks[-1] - base))))
            z = Point(th, tuple(blocks))
            return z if scalar_F(problem, z) + float(np.dot(beta, l1)) <= gamma_bar else None
        except EvaluationError:
            return None

    for m in (budget, 4 * budget, 15 * budget):
        if len(pts) == budget:
            break
        for _ in range(m):
            u = rng.random(problem.nbar)
            if len(pts) < budget and not overflow:
                z = candidate(u)
                if z is not None:
                    pts.append(z)
        if overflow:
            rng.uniform(-rad[overflow - 1], rad[overflow - 1])
    noise = rng.normal(size=(len(pts), problem.nbar))
    lengths = rng.uniform(0.0, eps, len(pts))
    out = []
    for z, row, length in zip(pts, noise, lengths):
        row = row * (length / max(np.linalg.norm(row), 1e-300))
        th2, blocks2 = split_flat(problem, z.flat() + row)
        out.append(Point(th2, tuple(blocks2)))
    return out


def tie_basis(model, obj):
    """Orthonormal basis of the critical subspace S of P0's model, or None when S is unknown.

    P0's model writes phi1(d) = c . d + sum_k b_k |s_k|.  A tie k whose s_k
    reads the direction alone, with b_k > 0, adds the row r_k = b_k s_k,
    since b_k |s_k . d| = |r_k . d|, when -c = sum_k t_k r_k at the
    least-squares t has every |t_k| < 1.  Any other weighted switch leaves
    S unknown.  S is spanned by the right singular vectors of [c; r] whose
    singular values are at most CRIT_SLACK, and is R^n, with B = I, when all
    of them are.
    """
    n = model.dim
    coef = np.zeros(n + len(model.switches))
    coef[: obj.size] = obj
    c, weights = coef[:n], coef[n:]
    tied = np.flatnonzero(weights)
    H = np.zeros((tied.size, n))
    for r, k in enumerate(tied):
        sw = model.switches[k]
        if not sw.tie or np.any(sw.s[n:]) or weights[k] < 0.0:
            return None
        H[r, : sw.s.size] = weights[k] * sw.s
    if tied.size and not np.all(np.abs(np.linalg.lstsq(H.T, -c, rcond=None)[0]) < 1.0):
        return None
    sv, vt = np.linalg.svd(np.vstack([c, H]))[1:]
    rank = int(np.sum(sv > CRIT_SLACK))
    return np.eye(n) if rank == 0 else vt[rank:].T

