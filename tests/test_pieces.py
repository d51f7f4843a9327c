"""Exact first-order minima from one MILP, against the piece enumeration they replaced."""

import hashlib
import math
import time
import tracemalloc
from functools import cache, partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import desk_points, random_problem
from mcpen import expr as ex
from mcpen import pieces as pieces_mod
from mcpen.model import CompositeProblem, LayerMap, Point, eval_layers
from mcpen.pieces import (
    TooManyPieces,
    function_pieces,
    function_prime_model,
    min_over_cross_polytope,
    minimize_pieces,
    psi_prime_model,
    psi_prime_pieces,
    theta_prime_model,
    theta_prime_pieces,
)
from mcpen.rnn import rnn_penalty_config
from mcpen.solver import SolveConfig, minimize_theta, polish_to_feasible
from mcpen.stationarity import (
    NOT_STATIONARY,
    STAT_TOL,
    STATIONARY,
    check_box,
    check_d_stationary_P0,
    check_d_stationary_P1,
)


def test_relu_forks_two_pieces():
    e = ex.plus(ex.theta(0))
    pieces = function_pieces(e, np.zeros(1))
    assert len(pieces) == 2
    coefs = sorted(tuple(np.round(c, 12)) for c, _ in pieces)
    assert coefs == [(0.0,), (1.0,)]


def test_abs_forks_two_pieces():
    e = ex.vabs(ex.theta(0))
    pieces = function_pieces(e, np.zeros(1))
    assert len(pieces) == 2


def test_smooth_region_single_piece():
    e = ex.plus(ex.theta(0))
    # away from the kink there is one active branch
    assert len(function_pieces(e, np.array([2.0]))) == 1
    assert len(function_pieces(e, np.array([-2.0]))) == 1


def test_min_over_cross_polytope_matches_vertices():
    rng = np.random.default_rng(5)
    for _ in range(20):
        dim = int(rng.integers(1, 5))
        coef = rng.normal(size=dim)
        got = min_over_cross_polytope(coef, ())
        assert got is not None
        val, arg = got
        # linear functional over the l1 ball: optimum at a signed vertex
        assert val == pytest.approx(-np.max(np.abs(coef)), abs=1e-9)
        assert np.sum(np.abs(arg)) <= 1.0 + 1e-9


def test_minimize_pieces_brute_force_agreement():
    rng = np.random.default_rng(9)
    e = ex.vmax(
        ex.affine(0.0, [1.0, -0.5], [ex.theta(0), ex.theta(1)]),
        ex.vabs(ex.theta(1)),
    )
    x = np.zeros(2)
    pieces = function_pieces(e, x)
    val, arg = minimize_pieces(pieces)
    # dense sample of the unit l1 sphere as an independent check, one tape pass for all columns
    from mcpen.dcalc import dd_expr

    D = rng.normal(size=(4000, 2))
    D /= np.sum(np.abs(D), axis=1, keepdims=True)
    best = min(0.0, ex.compile_tape([e], (2,)).cells(x, [], D.T, [], 1).first[0].min())
    assert val <= best + 1e-9
    assert val == pytest.approx(dd_expr(e, x, arg, order=1).first, abs=1e-9)


def _abs_sum(k):
    return ex.add(*[ex.vabs(ex.theta(i)) for i in range(k)])


def test_piece_budget_enforced():
    x = np.zeros(8)
    e = _abs_sum(8)
    with pytest.raises(TooManyPieces, match="256 pieces exceed the limit of 255"):
        function_pieces(e, x, limit=255)
    pieces = function_pieces(e, x, limit=256)
    assert len(pieces) == 2**8


def test_piece_limit_fails_before_building(rnn_problem):
    # every zero residual forks, so the desk lift has 2^24 pieces; counting
    # them must not build any list near the limit (2^20 pieces of 46 floats)
    th = 0.1 * np.random.default_rng(0).standard_normal(rnn_problem.n)
    z = eval_layers(rnn_problem, th)
    tracemalloc.start()
    try:
        with pytest.raises(TooManyPieces, match=f"{2**24} pieces exceed the limit of {2**20}"):
            theta_prime_pieces(rnn_problem, z, [5.0] * rnn_problem.L)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5e6


def _digest(h, pieces):
    h.update(len(pieces).to_bytes(8, "little"))
    for coef, cons in pieces:
        h.update(np.asarray(coef, dtype=np.float64).tobytes())
        h.update(len(cons).to_bytes(8, "little"))
        for g in cons:
            h.update(np.asarray(g, dtype=np.float64).tobytes())


# sha256 of every piece list below, recorded with the budget-charging
# enumerator that preceded the up-front count
PIECES_SHA256 = "9586eb16a1aeb6a4dbec60e422c21d09060957981c8ba0ce28f6e571bad8edbc"


def test_piece_lists_are_bit_identical(square_chain, relu_ridge, box_max, abs_cubic, rnn_problem):
    beta_sc = [1.0, 0.6]
    shifted = Point(np.zeros(1), (np.array([0.5]), np.array([0.0])))
    th_rnn = 0.1 * np.random.default_rng(0).standard_normal(rnn_problem.n)
    lists = [
        function_pieces(box_max, np.zeros(2)),
        function_pieces(box_max, np.array([1.0, -1.0])),
        function_pieces(abs_cubic, np.zeros(2)),
        function_pieces(abs_cubic, np.array([1.0, 1.0])),
        function_pieces(_abs_sum(8), np.zeros(8)),
        psi_prime_pieces(square_chain, np.zeros(1)),
        psi_prime_pieces(relu_ridge, np.zeros(2)),
        theta_prime_pieces(square_chain, eval_layers(square_chain, np.zeros(1)), beta_sc),
        theta_prime_pieces(square_chain, shifted, beta_sc),
        theta_prime_pieces(relu_ridge, eval_layers(relu_ridge, np.zeros(2)), [1.0, 1.0]),
        psi_prime_pieces(rnn_problem, th_rnn),
    ]
    # random instances cover every op, with ties at rounded points
    for seed in range(10):
        p = random_problem(seed)
        for x in (np.zeros(p.n), np.round(np.random.default_rng(seed).uniform(-1, 1, p.n), 1)):
            z = eval_layers(p, x)
            off = Point(z.theta, tuple(b + 0.25 for b in z.u))
            lists += [
                function_pieces(p.layers[0].exprs[0], x),
                psi_prime_pieces(p, x),
                theta_prime_pieces(p, z, [0.7] * p.L),
                theta_prime_pieces(p, off, [0.7] * p.L),
            ]
    h = hashlib.sha256()
    for pieces in lists:
        _digest(h, pieces)
    assert h.hexdigest() == PIECES_SHA256


def test_psi_prime_pieces_relu_ridge(relu_ridge):
    th = np.zeros(2)
    pieces = psi_prime_pieces(relu_ridge, th)
    val, arg = minimize_pieces(pieces)
    assert val == pytest.approx(-2.0, abs=1e-12)
    from mcpen.dcalc import dd_Psi

    assert dd_Psi(relu_ridge, th, arg, order=1).first == pytest.approx(val, abs=1e-12)


def test_theta_prime_pieces_square_chain(square_chain):
    beta = np.array([1.0, 0.6])
    z0 = eval_layers(square_chain, np.zeros(1))
    pieces = theta_prime_pieces(square_chain, z0, beta)
    val, arg = minimize_pieces(pieces)
    # first-order stationary: the sharpest slope over the l1 ball is zero
    assert val >= -1e-12
    z = Point(np.zeros(1), (np.array([0.5]), np.array([0.0])))
    pieces = theta_prime_pieces(square_chain, z, beta)
    val, arg = minimize_pieces(pieces)
    assert val < 0.0
    from mcpen.dcalc import dd_Theta, direction_from_flat

    d = direction_from_flat(square_chain, arg)
    assert dd_Theta(square_chain, z, d, beta, order=1).first == pytest.approx(val, abs=1e-10)


def test_box_max_pieces(box_max):
    # the max is not tied at the origin (0 beats -1): a single piece whose
    # slope is identically zero
    pieces = function_pieces(box_max, np.zeros(2))
    assert len(pieces) == 1
    val, _ = minimize_pieces(pieces)
    assert val == pytest.approx(0.0, abs=1e-12)
    # at a tied point both branches appear
    tied = function_pieces(box_max, np.array([1.0, -1.0]))
    assert len(tied) == 2


def _per_piece_minimum(pieces, extra_cons=()):
    """One linear program per piece: the loop the screens replaced, kept as the reference."""
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


def _assert_matches_reference(pieces, extra_cons=()):
    val, arg = minimize_pieces(pieces, extra_cons)
    ref, _ = _per_piece_minimum(pieces, extra_cons)
    assert abs(val - ref) <= 1e-9
    assert (val >= -STAT_TOL) == (ref >= -STAT_TOL)
    # the witness lies in the ball and in some piece, where it attains the minimum
    assert np.sum(np.abs(arg)) <= 1.0 + 1e-9
    attained = [
        abs(float(coef @ arg) - val) <= 1e-9
        for coef, cons in pieces
        if all(float(g @ arg) >= -1e-9 for g in [*cons, *extra_cons])
    ]
    assert any(attained)


def _box_rows(x, lo, hi):
    eye = np.eye(x.size)
    return [eye[i] for i in range(x.size) if x[i] <= lo[i]] + [
        -eye[i] for i in range(x.size) if x[i] >= hi[i]
    ]


def test_screens_match_per_piece_lps_on_fixtures(
    square_chain, relu_ridge, box_max, abs_cubic, rnn_problem
):
    shifted = Point(np.zeros(1), (np.array([0.5]), np.array([0.0])))
    th_rnn = 0.1 * np.random.default_rng(0).standard_normal(rnn_problem.n)
    lo, hi = -np.ones(2), np.ones(2)
    for x in (np.zeros(2), np.array([-1.0, 1.0]), np.array([1.0, -1.0])):
        _assert_matches_reference(function_pieces(box_max, x), _box_rows(x, lo, hi))
    for x in (np.zeros(2), np.array([1.0, 1.0])):
        _assert_matches_reference(function_pieces(abs_cubic, x))
    _assert_matches_reference(function_pieces(_abs_sum(8), np.zeros(8)))
    _assert_matches_reference(psi_prime_pieces(square_chain, np.zeros(1)))
    _assert_matches_reference(psi_prime_pieces(relu_ridge, np.zeros(2)))
    _assert_matches_reference(theta_prime_pieces(square_chain, shifted, [1.0, 0.6]))
    _assert_matches_reference(psi_prime_pieces(rnn_problem, th_rnn))


def test_screens_match_per_piece_lps_on_random_problems():
    for seed in range(40):
        p = random_problem(seed)
        for x in (np.zeros(p.n), np.round(np.random.default_rng(seed).uniform(-1, 1, p.n), 1)):
            _assert_matches_reference(psi_prime_pieces(p, x))
            _assert_matches_reference(function_pieces(p.layers[0].exprs[0], x))


# Small integer entries make zero coefficients, ties in |c_i| and vertices on
# constraint boundaries common.
_vec = lambda dim: st.lists(st.integers(-2, 2), min_size=dim, max_size=dim).map(
    lambda v: np.array(v, dtype=float)
)


@st.composite
def _piece_lists(draw):
    dim = draw(st.integers(1, 4))
    pieces = draw(
        st.lists(st.tuples(_vec(dim), st.lists(_vec(dim), max_size=3)), min_size=1, max_size=6)
    )
    return pieces, draw(st.lists(_vec(dim), max_size=2))


@settings(max_examples=80, deadline=None)
@given(case=_piece_lists())
def test_screens_match_per_piece_lps_on_drawn_pieces(case):
    pieces, extra = case
    _assert_matches_reference(pieces, extra)


def test_zero_piece_minimum_is_positive_zero():
    for cons in ([], [np.array([1.0, 0.0])]):
        val, arg = minimize_pieces([(np.zeros(2), cons)])
        assert val == 0.0 and math.copysign(1.0, val) == 1.0
        assert not np.any(arg)


def test_trained_desk_point_solves_no_lp(monkeypatch, rnn_spec, rnn_problem):
    beta = rnn_penalty_config(rnn_spec).beta
    res = minimize_theta(rnn_problem, beta, SolveConfig(max_iters=400, stop_tol=1e-8, seed=0))
    z, _, _ = polish_to_feasible(rnn_problem, res.z, beta)
    calls = []
    real = pieces_mod.min_over_cross_polytope
    monkeypatch.setattr(
        pieces_mod, "min_over_cross_polytope", lambda *a: calls.append(a) or real(*a)
    )
    pieces = psi_prime_pieces(rnn_problem, z.theta)
    val, _ = minimize_pieces(pieces)
    assert len(pieces) == 512
    assert calls == []
    assert -1e-8 < val < 0.0
    # The exact check needs one binary per tied kink, 2^9 = 512 pieces.
    rep = check_d_stationary_P0(rnn_problem, z)
    assert (rep.verdict, rep.mode, rep.samples) == (STATIONARY, "exact", 9)
    assert abs(rep.min_found - val) <= 1e-9


# ---------------------------------------------------------------------------
# The MILP minima against the enumeration oracle

# The oracle may solve a linear program per piece, so it skips longer lists.
ORACLE_PIECES = 128
# random_problem seeds whose P1 pieces at theta = 0 number 2^11 and more
# (seed 41: 262,144 pieces, 457 s of enumeration).
SLOW_SEEDS = (4, 7, 9, 13, 33, 41, 50, 57)


def _oracle(pieces, *args):
    """Minimum over the enumerated pieces, or None above ORACLE_PIECES."""
    try:
        return minimize_pieces(pieces(limit=ORACLE_PIECES), *args)[0]
    except TooManyPieces:
        return None


def _shifted(z):
    """An infeasible point: every layer block moved off its layer map by 0.25."""
    return Point(z.theta, tuple(b + 0.25 for b in z.u))


@cache
def _oracle_cases():
    """(model, obj, HiGHS's solution, oracle minimum or None) over 60 random problems."""
    out = []
    for seed in range(60):
        p = random_problem(seed)
        beta = [1.0] * p.L
        z = eval_layers(p, np.zeros(p.n))
        x = np.round(np.random.default_rng(seed).uniform(-1, 1, p.n), 1)
        e = p.layers[0].exprs[0]
        orthant = list(np.eye(p.n))  # every component at the lower face of a box
        off = _shifted(z)
        tape = ex.compile_tape([e], (p.n,))
        cases = [
            (psi_prime_model(p, z.theta), partial(psi_prime_pieces, p, z.theta)),
            (theta_prime_model(p, z, beta), partial(theta_prime_pieces, p, z, beta)),
            (theta_prime_model(p, off, beta), partial(theta_prime_pieces, p, off, beta)),
            (function_prime_model(e, tape, x), partial(function_pieces, e, x)),
            (function_prime_model(e, tape, x, orthant), partial(function_pieces, e, x), orthant),
        ]
        for (model, obj), pieces, *extra in cases:
            out.append((seed, model, obj, model.solve(obj), _oracle(pieces, *extra)))
    return out


def test_exact_minima_match_the_enumeration_oracle():
    compared = 0
    for seed, _, _, sol, ref in _oracle_cases():
        assert sol.bound <= sol.value + 1e-12
        if ref is not None:
            compared += 1
            assert abs(sol.value - ref) <= 1e-9 and abs(sol.bound - ref) <= 1e-9, (seed, ref, sol)
    assert compared >= 270


def test_multiplier_bounds_lie_below_the_exact_minima():
    # The cases of the oracle test above.  The multiplier bound holds for any
    # multipliers and any rank of the switching rows, and box rows only raise
    # the minimum, so it never exceeds the oracle's minimum nor HiGHS's value.
    compared = 0
    for seed, model, obj, sol, ref in _oracle_cases():
        bound = model._multipliers(obj, np.inf, 0).bound
        assert bound <= sol.value + 1e-12, seed
        if ref is not None:
            compared += 1
            assert bound <= ref + 1e-12, (seed, ref, bound)
    assert compared >= 270


def test_multiplier_witnesses_lie_between_the_exact_minima_and_minus_tol():
    # The cases of the oracle test above.  Where the tangential residual
    # exceeds tol and no cone row cuts the ball, the multipliers' direction
    # lies on the unit l1 sphere and its slope is an incumbent: never below
    # the exact minimum, and below -tol whenever it is returned.
    tol, found, compared = 1e-8, 0, 0
    for seed, model, obj, sol, ref in _oracle_cases():
        got = model.solve(obj, tol)
        if got.source != "multipliers" or got.bound is not None:
            continue
        found += 1
        assert abs(np.sum(np.abs(got.d)) - 1.0) <= 1e-12, seed
        assert sol.value - 1e-12 <= got.value < -tol, (seed, sol, got)
        if ref is not None:
            compared += 1
            assert ref - 1e-12 <= got.value, (seed, ref, got)
    assert found >= 56 and compared >= 52


def test_highs_rows_are_read_off_the_switches(monkeypatch):
    # y = max(t, d1) nests the epigraph t = |d0 - d1|, and the cone row keeps
    # d0 >= 0.  Columns: d0, d1, then s0, s1 of the ball, then t, y and y's
    # binary delta.  Bounds off the abs-normal form (``_sizes``, ``_boxes``):
    # t's switch s0 = d0 - d1 has |s0| <= 1, so t in [0, 1]; y's switch s1 =
    # |s0| - d1 lies in [-1, 2], so y in [0, 1], m_a = 1 and m_b = 2.  The
    # minimum of y - d0 is -1/3 at d = (2/3, 1/3), where |d0 - d1| = d1.
    calls = []
    real = pieces_mod.milp
    monkeypatch.setattr(pieces_mod, "milp", lambda *a, **k: calls.append((a, k)) or real(*a, **k))
    model = pieces_mod._SlopeModel(2, "hand-built")
    d0, d1 = model.unit(0), model.unit(1)
    t = model.abs_of(pieces_mod._add(d0, -d1))
    y = model.max_of(t, d1)
    model.cone_rows = [np.array([1.0, 0.0])]
    sol = model.solve(pieces_mod._add(y, -d0))
    (c,), kw = calls[0]
    inf = np.inf
    rows = [
        ([-1, 0, 1, 0, 0, 0, 0], 0, inf),  # s0 - d0 >= 0
        ([0, -1, 0, 1, 0, 0, 0], 0, inf),
        ([1, 0, 1, 0, 0, 0, 0], 0, inf),  # s0 + d0 >= 0
        ([0, 1, 0, 1, 0, 0, 0], 0, inf),
        ([0, 0, 1, 1, 0, 0, 0], -inf, 1),  # sum s <= 1
        ([-1, 1, 0, 0, 1, 0, 0], 0, inf),  # t >= d0 - d1
        ([1, -1, 0, 0, 1, 0, 0], 0, inf),  # t >= d1 - d0
        ([0, 0, 0, 0, -1, 1, 0], 0, inf),  # y >= t
        ([0, -1, 0, 0, 0, 1, 0], 0, inf),  # y >= d1
        ([0, 0, 0, 0, -1, 1, 1], -inf, 1),  # y <= t + m_a (1 - delta)
        ([0, -1, 0, 0, 0, 1, -2], -inf, 0),  # y <= d1 + m_b delta
        ([1, 0, 0, 0, 0, 0, 0], 0, inf),  # the cone row
    ]
    cons = kw["constraints"]
    assert cons.A.toarray().tolist() == [r for r, _, _ in rows]
    assert cons.lb.tolist() == [lo for _, lo, _ in rows] and cons.ub.tolist() == [hi for *_, hi in rows]
    assert kw["bounds"].lb.tolist() == [-1, -1, 0, 0, 0, 0, 0]
    assert kw["bounds"].ub.tolist() == [1, 1, 1, 1, 1, 1, 1]
    assert kw["integrality"].tolist() == [0, 0, 0, 0, 0, 0, 1]
    assert c.tolist() == [-1e3, 0, 0, 0, 0, 1e3, 0]
    assert sol.binaries == 1
    assert sol.value == pytest.approx(-1 / 3, abs=1e-9) and sol.bound == pytest.approx(-1 / 3, abs=1e-9)
    np.testing.assert_allclose(sol.d, [2 / 3, 1 / 3], atol=1e-9)


def _three_generations():
    """A tie over an epigraph over a tie: y1 = max(d0, d1), t = |y1 - d2|, y2 = max(t, d0 + d2).

    Variables: y1, its binary, t, y2, its binary.  The epigraph reads y1 and
    the second tie reads t, so s = Z d + L |s| nests three deep.
    """
    model = pieces_mod._SlopeModel(3, "hand-built")
    d0, d1, d2 = model.unit(0), model.unit(1), model.unit(2)
    t = model.abs_of(pieces_mod._add(model.max_of(d0, d1), -d2))
    model.max_of(t, pieces_mod._add(d0, d2))
    return model


def _forward(model, D):
    """Each switch's s and each auxiliary variable's value at the columns of D, one switch at a time.

    Binaries read 0: no form reads them.
    """
    X = np.zeros((model.dim + model.nvar, D.shape[1]))
    X[: model.dim] = D
    s = []
    for sw in model.switches:
        if isinstance(sw, pieces_mod._Tie):
            a, b = sw.fa @ X[: sw.fa.size], sw.fb @ X[: sw.fb.size]
            X[model.dim + sw.y], gap = np.maximum(a, b), a - b
        else:
            gap = sw.w @ X[: sw.w.size]
            X[model.dim + sw.t] = np.abs(gap)
        s.append(gap)
    return np.array(s), X[model.dim :]


def test_switch_bounds_hold_at_every_direction():
    # At seeded unit-l1 directions and at +-e_i, each |s_i| stays within the
    # S_i the multipliers read, each auxiliary variable within its box (a
    # tie's y = max(fa, fb), an epigraph's t = |w|) and each tie's gap fa - fb
    # within [-m_a, m_b], the bounds HiGHS reads.  Both are read off s = Z d
    # + L |s|; with L dropped, nested switches leave them.
    models = [model for _, model, *_ in _oracle_cases() if model.switches]
    for seed in range(10):
        problem, config, points = desk_points(seed)
        for z in points:
            models += [psi_prime_model(problem, z.theta)[0], theta_prime_model(problem, z, config.beta)[0]]
    rng = np.random.default_rng(0)
    switches = nested = 0
    for model in models:
        Z, L, _, _ = model._abs_normal()
        S = pieces_mod._sizes(Z, L)
        lo, hi, big_m = model._boxes()
        D = rng.standard_normal((model.dim, 200))
        D = np.hstack([D / np.sum(np.abs(D), axis=0), np.eye(model.dim), -np.eye(model.dim)])
        s, X = _forward(model, D)
        ties = [i for i, sw in enumerate(model.switches) if isinstance(sw, pieces_mod._Tie)]
        assert np.all(np.abs(s) <= S[:, None])
        assert np.all(lo[:, None] <= X) and np.all(X <= hi[:, None])
        assert np.all(-big_m[:, :1] <= s[ties]) and np.all(s[ties] <= big_m[:, 1:])
        switches += len(model.switches)
        nested += int(np.count_nonzero(np.any(L, axis=1)))
    assert (len(models), switches, nested) == (178, 1213, 207)


def test_nested_switch_bounds_by_hand():
    # s0 = d0 - d1, so |s0| <= 1, y1's branches lie in [-1, 1] and m = (1, 1).
    # y1 = (d0 + d1) / 2 + |s0| / 2, so t's s1 = (d0 + d1) / 2 - d2 + |s0| / 2
    # has |s1| <= 1 + 1/2.  y2's s2 = |s1| - d0 - d2 lies in [-1, 1 + 3/2], so
    # m = (1, 5/2); its branches t and d0 + d2 lie in [0, 3/2] and [-1, 1].
    hand = _three_generations()
    Z, L, _, _ = hand._abs_normal()
    assert L.tolist() == [[0, 0, 0], [0.5, 0, 0], [0, 1, 0]]
    assert pieces_mod._sizes(Z, L).tolist() == [1.0, 1.5, 2.5]
    lo, hi, big_m = hand._boxes()
    assert lo.tolist() == [-1.0, 0.0, 0.0, 0.0, 0.0]
    assert hi.tolist() == [1.0, 1.0, 1.5, 1.5, 1.0]
    assert big_m.tolist() == [[1.0, 1.0], [1.0, 2.5]]


def test_a_root_that_is_an_input_row_has_its_unit_form():
    # Layer 1 is theta0 and g = u1, so on the chained tape g's root is input
    # row 0 and no node lies before it; on the outer and fixed tapes each
    # root is an input row too.  P0's slope at theta = 0 is d0, minimum -1.
    p = CompositeProblem(1, (LayerMap(1, (ex.theta(0),)),), ex.uref(1, 0), lam=0.1)
    z = eval_layers(p, np.zeros(1))
    model, obj = psi_prime_model(p, z.theta)
    assert obj.tolist() == [1.0] and not model.switches
    r0, r1 = check_d_stationary_P0(p, z), check_d_stationary_P1(p, z, [1.0])
    assert (r0.verdict, r0.min_found, r0.samples) == (NOT_STATIONARY, -1.0, 0)
    assert (r1.verdict, r1.samples) == (NOT_STATIONARY, 0)
    assert [type(sw) for sw in theta_prime_model(p, z, [1.0])[0].switches] == [pieces_mod._Epigraph]


def test_a_tie_that_g_never_reads_adds_no_switch_to_p0():
    # Layer 1's second component |theta1| ties at theta = 0, but g reads only
    # the first.  P0's model is the one without that component; P1 reads
    # every residual, so its model holds the tie.
    layer = (ex.square(ex.theta(0)), ex.vabs(ex.theta(1)))
    outer = ex.uref(1, 0)
    p = CompositeProblem(2, (LayerMap(1, layer),), outer, lam=0.1)
    alone = CompositeProblem(2, (LayerMap(1, layer[:1]),), outer, lam=0.1)
    z = eval_layers(p, np.zeros(2))
    (model, obj), (ref, ref_obj) = psi_prime_model(p, z.theta), psi_prime_model(alone, z.theta)
    assert not model.switches and obj.tolist() == ref_obj.tolist()
    assert check_d_stationary_P0(p, z).samples == 0
    assert check_d_stationary_P1(p, z, [1.0]).samples == 1


def test_equal_tied_subtrees_share_one_switch():
    # Two distinct but equal nodes max(theta0, theta1) tie at theta = 0.
    # Hash-consing gives them one node and one binary in P0, P1 and the box
    # model.  The slope 2 max(d0, d1) - 3 d0 has its minimum -1 at e0; P1's
    # lifted ball, with g = u1, has -1/2 at (1/2, 0, -1/2).
    def tie():
        return ex.vmax(ex.theta(0), ex.theta(1))

    e = ex.affine(0.0, [1.0, 1.0, -3.0], [tie(), tie(), ex.theta(0)])
    p = CompositeProblem(2, (LayerMap(1, (e,)),), ex.uref(1, 0), lam=0.1)
    z, x = eval_layers(p, np.zeros(2)), np.zeros(2)
    cases = [
        (psi_prime_model(p, z.theta), psi_prime_pieces(p, z.theta), -1.0),
        (theta_prime_model(p, z, [1.0]), theta_prime_pieces(p, z, [1.0]), -0.5),
        (function_prime_model(e, ex.compile_tape([e], (2,)), x), function_pieces(e, x), -1.0),
    ]
    for (model, obj), enumerated, least in cases:
        sol = model.solve(obj)
        assert sol.binaries == 1
        assert abs(sol.value - minimize_pieces(enumerated)[0]) <= 1e-9 and abs(sol.value - least) <= 1e-9
    reports = [check_d_stationary_P0(p, z), check_d_stationary_P1(p, z, [1.0]), check_box(e, x, -np.ones(2), np.ones(2))]
    assert [r.samples for r in reports] == [1, 1, 1]


def test_a_box_model_refuses_a_layer_leaf_before_reading_the_graph():
    # Compiled over (1, 1), the tape reads u1 as input row 1, past x's one
    # component, so the graph would misread it as the first node.
    e = ex.add(ex.theta(0), ex.uref(1, 0))
    with pytest.raises(ValueError, match="^the expression may read parameter leaves only$"):
        function_prime_model(e, ex.compile_tape([e], (1, 1)), np.zeros(1))


@pytest.mark.filterwarnings("ignore:outer function evaluated")
@pytest.mark.parametrize("seed", SLOW_SEEDS)
def test_exact_checks_are_fast_where_enumeration_is_slow(seed):
    p = random_problem(seed)
    z = eval_layers(p, np.zeros(p.n))
    start = time.perf_counter()
    reports = [
        check_d_stationary_P0(p, z),
        check_d_stationary_P1(p, z, [1.0] * p.L),
        check_d_stationary_P1(p, _shifted(z), [1.0] * p.L),
    ]
    assert time.perf_counter() - start < 1.0
    assert all(r.mode == "exact" and r.verdict != "inconclusive" for r in reports)
    with pytest.raises(TooManyPieces):
        theta_prime_pieces(p, z, [1.0] * p.L, limit=2**10)
