"""Stationarity verdicts of both orders, for both formulations."""

from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from mcpen import expr as ex
from mcpen import stationarity
from mcpen.dcalc import dd_Theta, dd_Theta_batch, direction_from_flat
from mcpen.model import (
    FEAS_TOL,
    CompositeProblem,
    LayerMap,
    Point,
    eval_layers,
    point_from_flat,
    residuals,
)
from mcpen.penalty import build_config
from mcpen.pieces import TooManyPieces
from mcpen.repro import lift_descent_instance
from mcpen.rnn import build_problem, rnn_penalty_config
from mcpen.stationarity import (
    _FD_H,
    CRIT_SLACK,
    INCONCLUSIVE,
    N_STARTS,
    NOT_STATIONARY,
    SEARCH_ITERS,
    STATIONARY,
    _critical_search,
    _normalize_cols,
    _search_min_first,
    _sphere_points,
    _with_units,
    check_box,
    check_d_stationary_P0,
    check_d_stationary_P1,
    check_second_order,
    check_strong_local_min_sufficient,
    compare_sets_on_point,
)

BETA_SC = np.array([1.0, 0.6])


def test_square_chain_first_order_both(square_chain):
    z0 = eval_layers(square_chain, np.zeros(1))
    r0 = check_d_stationary_P0(square_chain, z0, seed=0)
    r1 = check_d_stationary_P1(square_chain, z0, BETA_SC, seed=0)
    assert r0.verdict == STATIONARY
    assert r1.verdict == STATIONARY


def test_square_chain_second_order_split(square_chain):
    z0 = eval_layers(square_chain, np.zeros(1))
    s0 = check_second_order(square_chain, z0, "lifted", beta=BETA_SC, seed=0)
    s1 = check_second_order(square_chain, z0, "penalized", beta=BETA_SC, seed=0)
    assert s0.verdict == STATIONARY
    assert s1.verdict == NOT_STATIONARY
    assert s1.witness_value == pytest.approx(-0.78, abs=1e-9)
    # the witness scales as t^2 along (t, t, 0)
    w = s1.witness.flat()
    w = w / np.max(np.abs(w))
    d = direction_from_flat(square_chain, w)
    v = dd_Theta(square_chain, z0, d, BETA_SC, order=2)
    assert v.first == pytest.approx(0.0, abs=1e-12)
    assert v.second == pytest.approx(-0.78, abs=1e-9)


def test_relu_ridge_not_stationary_with_witness(relu_ridge):
    z = eval_layers(relu_ridge, np.zeros(2))
    r = check_d_stationary_P0(relu_ridge, z, seed=0)
    assert r.verdict == NOT_STATIONARY
    assert r.witness_value == pytest.approx(-2.0, abs=1e-12)
    assert r.mode == "enumerate"


def test_enumerate_and_sample_agree_on_verdicts(relu_ridge):
    z = eval_layers(relu_ridge, np.zeros(2))
    re_ = check_d_stationary_P0(relu_ridge, z, mode="enumerate", seed=0)
    rs = check_d_stationary_P0(relu_ridge, z, mode="sample", seed=0)
    assert re_.verdict == rs.verdict == NOT_STATIONARY
    # sampling cannot certify stationarity, only fail to refute it
    z1 = eval_layers(relu_ridge, np.array([-1.0, 0.0]))
    rs1 = check_d_stationary_P0(relu_ridge, z1, mode="sample", seed=0)
    assert rs1.verdict in (STATIONARY, INCONCLUSIVE, NOT_STATIONARY)


def test_minimizer_is_stationary_smooth_instance():
    # single affine layer, strongly convex objective
    problem = CompositeProblem(
        n=2,
        layers=(
            LayerMap(
                index=1,
                exprs=(
                    ex.affine(-1.0, [1.0], [ex.theta(0)]),
                    ex.affine(0.5, [1.0, 1.0], [ex.theta(0), ex.theta(1)]),
                ),
            ),
        ),
        outer=ex.sqnorm(ex.uref(1, 0), ex.uref(1, 1)),
        lam=0.1,
    )
    # minimize (x0-1)^2 + (x0+x1+0.5)^2 + 0.1|x|^2 by normal equations
    A = np.array([[1.0, 0.0], [1.0, 1.0]])
    b = np.array([-1.0, 0.5])
    H = 2 * A.T @ A + 2 * 0.1 * np.eye(2)
    th_star = np.linalg.solve(H, -2 * A.T @ b)
    z = eval_layers(problem, th_star)
    r = check_d_stationary_P0(problem, z, seed=0)
    assert r.verdict == STATIONARY
    cfg = build_config(problem, beta=np.array([3.0]), seed=0)
    r1 = check_d_stationary_P1(problem, z, np.array([3.0]), seed=0)
    assert r1.verdict == STATIONARY
    s = check_strong_local_min_sufficient(problem, z, cfg, seed=0)
    assert s["verdict"] == "sufficient-holds"
    assert s["margin_min"] > 0.0


def test_second_order_trivial_critical_cone(square_chain):
    # at a point with strictly positive sharpest slope the critical cone
    # collapses and second order holds vacuously
    th = np.array([0.5])
    z = eval_layers(square_chain, th)
    r1 = check_d_stationary_P1(square_chain, z, BETA_SC, seed=0)
    if r1.verdict == STATIONARY:
        s = check_second_order(square_chain, z, "penalized", beta=BETA_SC, seed=0)
        assert s.verdict in (STATIONARY, NOT_STATIONARY)


def test_box_first_and_second_order(box_max):
    lo, hi = -np.ones(2), np.ones(2)
    r1 = check_box(box_max, np.zeros(2), lo, hi, order=1, seed=0)
    assert r1.verdict == STATIONARY
    r2 = check_box(box_max, np.zeros(2), lo, hi, order=2, seed=0)
    assert r2.verdict == NOT_STATIONARY
    w = np.asarray(r2.witness)
    w = w / np.max(np.abs(w))
    # the escape direction is the odd diagonal
    assert abs(w[0] + w[1]) <= 1e-8
    for corner in (np.array([-1.0, 1.0]), np.array([1.0, -1.0])):
        c1 = check_box(box_max, corner, lo, hi, order=1, seed=0)
        c2 = check_box(box_max, corner, lo, hi, order=2, seed=0)
        assert c1.verdict == STATIONARY
        assert c2.verdict == STATIONARY


def test_box_interior_descent_detected():
    e = ex.add(ex.theta(0), ex.square(ex.theta(1)))
    r = check_box(e, np.zeros(2), -np.ones(2), np.ones(2), order=1, seed=0)
    assert r.verdict == NOT_STATIONARY
    assert r.witness_value < 0


# (verdict, mode, samples, notes, min_found, witness_value) of each report on
# the canonical instances.  Code that only removes duplication must keep them.
REPORT_GOLDENS = {
    "square-chain P0": (STATIONARY, "enumerate", 1, [], 0.0, None),
    "square-chain P1": (STATIONARY, "enumerate", 4, [], 0.0, None),
    "square-chain lifted": (STATIONARY, "sample", 74, [], -1.98, None),
    "square-chain penalized": (NOT_STATIONARY, "sample", 74, [], -0.78, -0.78),
    "relu-ridge P0": (NOT_STATIONARY, "enumerate", 2, [], -2.0, -2.0),
    "relu-ridge P1": (NOT_STATIONARY, "enumerate", 8, [], -0.5, -0.8164965809277261),
    "relu-ridge lifted": (STATIONARY, "sample", 43, [], 0.0, None),
    "relu-ridge penalized": (STATIONARY, "sample", 43, [], 0.0, None),
    "box-max (0, 0) order 1": (STATIONARY, "enumerate", 1, [], 0.0, None),
    "box-max (0, 0) order 2": (
        NOT_STATIONARY,
        "enumerate",
        11,
        ["second derivative is an exact quadratic form"],
        -0.7999999999999998,
        -0.7999999999999998,
    ),
    "box-max (-1, 1) order 1": (STATIONARY, "enumerate", 2, [], 0.0, None),
    "box-max (-1, 1) order 2": (
        STATIONARY,
        "sample",
        36,
        ["no critical directions located by sampling"],
        0.0,
        None,
    ),
    "box-max (1, 1) order 1": (NOT_STATIONARY, "enumerate", 1, [], -1.2, -1.2),
    "box-max (1, 1) order 2": (
        NOT_STATIONARY,
        "enumerate",
        1,
        ["already fails at first order"],
        -1.2,
        -1.2,
    ),
    "desk P0": (NOT_STATIONARY, "enumerate", 1, [], -0.08200868707101515, -0.08200868707101515),
    "desk P1": (
        NOT_STATIONARY,
        "sample",
        40382,
        [f"fell back to sampling: {2**24} pieces exceed the limit of {2**20}"],
        -0.045829392025330665,
        -0.045829392025330665,
    ),
    "desk lifted": (STATIONARY, "sample", 22, [], 0.0, None),
    "desk penalized": (STATIONARY, "sample", 22, [], 0.0, None),
    "desk P0 sample": (
        NOT_STATIONARY,
        "sample",
        18997,
        [],
        -0.11416143922016858,
        -0.11416143922016857,
    ),
}


def _close(got, want):
    """Equal to 1e-12 relative; None and 0.0 only match themselves."""
    if want is None:
        return got is None
    return got is not None and abs(got - want) <= 1e-12 * abs(want)


def test_reports_match_their_goldens(square_chain, relu_ridge, box_max, rnn_spec, rnn_problem):
    reports = {}

    def four(tag, problem, z, beta):
        reports[f"{tag} P0"] = check_d_stationary_P0(problem, z)
        reports[f"{tag} P1"] = check_d_stationary_P1(problem, z, beta)
        reports[f"{tag} lifted"] = check_second_order(problem, z, "lifted")
        reports[f"{tag} penalized"] = check_second_order(problem, z, "penalized", beta)

    four("square-chain", square_chain, eval_layers(square_chain, np.zeros(1)), BETA_SC)
    four("relu-ridge", relu_ridge, eval_layers(relu_ridge, np.zeros(2)), [1.0, 1.0])
    lo, hi = -np.ones(2), np.ones(2)
    for x in ((0, 0), (-1, 1), (1, 1)):
        for order in (1, 2):
            rep = check_box(box_max, np.array(x, dtype=float), lo, hi, order=order)
            reports[f"box-max ({x[0]}, {x[1]}) order {order}"] = rep
    z = eval_layers(rnn_problem, 0.1 * np.random.default_rng(0).standard_normal(rnn_problem.n))
    four("desk", rnn_problem, z, rnn_penalty_config(rnn_spec).beta)
    reports["desk P0 sample"] = check_d_stationary_P0(rnn_problem, z, mode="sample")
    assert list(reports) == list(REPORT_GOLDENS)
    for name, r in reports.items():
        verdict, mode, samples, notes, min_found, witness_value = REPORT_GOLDENS[name]
        assert (r.verdict, r.mode, r.samples, r.notes) == (verdict, mode, samples, notes), name
        assert _close(r.min_found, min_found), (name, r.min_found)
        assert _close(r.witness_value, witness_value), (name, r.witness_value)


def test_compare_sets_consistent_on_feasible_stationary(square_chain):
    cfg = build_config(square_chain, beta=BETA_SC, seed=0)
    z0 = eval_layers(square_chain, np.zeros(1))
    out = compare_sets_on_point(square_chain, z0, cfg, seed=0)
    assert out["feasible"]
    assert out["certified"]
    assert out["in_level_set"]
    assert out["consistent"], out["inconsistencies"]
    assert out["d0"].verdict == out["d1"].verdict == STATIONARY
    assert out["sd0"].verdict == STATIONARY
    assert out["sd1"].verdict == NOT_STATIONARY


def test_compare_sets_flags_nothing_on_smooth_min():
    problem = CompositeProblem(
        n=1,
        layers=(LayerMap(index=1, exprs=(ex.affine(0.0, [1.0], [ex.theta(0)]),)),),
        outer=ex.sqnorm(ex.uref(1, 0)),
        lam=0.5,
    )
    cfg = build_config(problem, beta=np.array([2.0]), seed=0)
    z = eval_layers(problem, np.zeros(1))
    out = compare_sets_on_point(problem, z, cfg, seed=0)
    assert out["consistent"]
    assert out["d0"].verdict == STATIONARY
    assert out["sd0"].verdict == STATIONARY


# The three implications of compare_sets_on_point, each provoked once.  A
# certificate below the true thresholds breaks the first two: the checks run
# as they are, under a PenaltyConfig whose ``certified`` flag is forged.


def test_compare_flags_a_stationary_infeasible_point_with_its_correction_slope():
    # Theta = (u - 1)^2 + 2 theta^2 + beta |u - theta^2| with beta = 1 below
    # the threshold K_g, about 2 here.  At theta = 0, u = 0.5 every direction
    # has slope 0, and so has the direction that closes the residual.
    problem = CompositeProblem(
        n=1,
        layers=(LayerMap(index=1, exprs=(ex.square(ex.theta(0)),)),),
        outer=ex.sqnorm(ex.affine(-1.0, [1.0], [ex.uref(1, 0)])),
        lam=2.0,
    )
    honest = build_config(problem, beta=np.array([1.0]), seed=0)
    assert not honest.certified
    cfg = replace(honest, certified=True)
    z = Point(np.zeros(1), (np.array([0.5]),))
    out = compare_sets_on_point(problem, z, cfg, seed=0)
    assert out["in_level_set"] and not out["feasible"]
    assert (out["d1"].verdict, out["d1"].mode) == (STATIONARY, "enumerate")
    assert out["inconsistencies"] == [
        "penalized-stationary infeasible point inside the level set; "
        "residual correction direction has slope 0.0e+00"
    ]
    # Outside the level set no guarantee applies, and nothing is flagged.
    out = compare_sets_on_point(problem, z, replace(cfg, gamma_bar=0.5), seed=0)
    assert out["d1"].verdict == STATIONARY and out["consistent"]


def test_compare_flags_first_order_verdicts_that_differ(square_chain):
    # beta_2 = 0.1 is below the outer function's slope 0.5 in u_2, so
    # lowering u_2 off the manifold descends Theta while P0 holds.
    beta = np.array([1.0, 0.1])
    cfg = replace(build_config(square_chain, beta=beta, seed=0), certified=True)
    z0 = eval_layers(square_chain, np.zeros(1))
    out = compare_sets_on_point(square_chain, z0, cfg, seed=0)
    assert (out["d0"].verdict, out["d1"].verdict) == (STATIONARY, NOT_STATIONARY)
    assert out["inconsistencies"] == ["first-order verdicts of lifted and penalized problems differ"]


def test_compare_flags_second_order_verdicts_that_break_the_implication(square_chain, monkeypatch):
    # At the square chain's origin the lifted target holds and the penalized
    # one fails; the forged checks swap the two verdicts.
    real = stationarity.check_second_order

    def forged(problem, z, target, *args, **kwargs):
        rep = real(problem, z, target, *args, **kwargs)
        rep.verdict = NOT_STATIONARY if target == "lifted" else STATIONARY
        return rep

    monkeypatch.setattr(stationarity, "check_second_order", forged)
    cfg = build_config(square_chain, beta=BETA_SC, seed=0)
    out = compare_sets_on_point(square_chain, eval_layers(square_chain, np.zeros(1)), cfg, seed=0)
    assert out["inconsistencies"] == ["penalized second-order stationary but lifted is not"]


def test_p1_fallback_to_sampling_says_why(rnn_problem, monkeypatch):
    th = 0.1 * np.random.default_rng(0).standard_normal(rnn_problem.n)
    z = eval_layers(rnn_problem, th)
    monkeypatch.setattr(stationarity, "N_STARTS", 2)
    monkeypatch.setattr(stationarity, "SEARCH_ITERS", 24)
    rep = check_d_stationary_P1(rnn_problem, z, [5.0] * rnn_problem.L)
    assert rep.mode == "sample"
    # one envelope entry per start: the +-lifted seeds, then N_STARTS sphere points
    assert len(rep.envelope) == 2 * rnn_problem.n + 2
    assert rep.notes[0] == f"fell back to sampling: {2**24} pieces exceed the limit of {2**20}"
    with pytest.raises(TooManyPieces):
        check_d_stationary_P1(rnn_problem, z, [5.0] * rnn_problem.L, mode="enumerate")


# ---------------------------------------------------------------------------
# The lockstep searches against the per-start loops they replace


def _per_start_search(phi, dim, seed, n_starts=N_STARTS, iters=SEARCH_ITERS, extra=None, stops=None):
    """Reference oracle: the search with every start run to its end, one after another.

    Records in ``stops`` why each start ended: a vanishing tangent slope
    (``flat``), a step ladder that ran out (``ladder``) or the iteration cap
    (``iters``).
    """
    stops = [] if stops is None else stops
    starts = _sphere_points(dim, n_starts, seed)
    if extra is not None and extra.size:
        starts = np.hstack([_normalize_cols(extra), starts])
    per_start = max(12, iters // max(starts.shape[1], 1))
    samples = 0
    best_val, best_d = np.inf, starts[:, 0]
    envelope = []
    eye = np.eye(dim)
    for s in range(starts.shape[1]):
        d = starts[:, s].copy()
        val = float(phi(d.reshape(-1, 1))[0])
        samples += 1
        step = 0.5
        stop = "iters"
        for _ in range(per_start):
            probe = np.hstack([d.reshape(-1, 1) + _FD_H * eye])
            g = (phi(probe) - val) / _FD_H
            samples += dim
            gt = g - float(g @ d) * d
            ng = np.linalg.norm(gt)
            if ng < 1e-12:
                stop = "flat"
                break
            moved = False
            while step > 1e-10:
                d2 = d - step * gt / ng
                d2 /= np.linalg.norm(d2)
                v2 = float(phi(d2.reshape(-1, 1))[0])
                samples += 1
                if v2 < val - 1e-14:
                    d, val = d2, v2
                    step = min(step * 1.5, 1.0)
                    moved = True
                    break
                step *= 0.5
            if not moved:
                stop = "ladder"
                break
        stops.append(stop)
        if val < best_val:
            best_val, best_d = val, d
        envelope.append(float(best_val))
    return float(best_val), best_d, samples, envelope


def _per_candidate_critical_search(second_batch, problem, z, beta, sign, seed, slack, n_starts, iters):
    """Reference oracle: the critical-direction polish, one candidate after another."""
    n = problem.n
    pool = _normalize_cols(_with_units(n, _sphere_points(n, max(n_starts, 4 * n), seed)))

    def eval_pool(D):
        return second_batch(problem, z, D, beta, sign)

    phi1, phi2, bad, _ = eval_pool(pool)
    min_phi1 = float(np.min(np.abs(phi1)))
    crit = np.abs(phi1) <= slack
    order_idx = np.argsort(np.where(bad, np.inf, phi2))
    polish = [i for i in order_idx[: max(8, n)] if not bad[i]]
    eye = np.eye(n)
    refined = []
    for i in polish:
        d = pool[:, i].copy()
        v1, v2 = float(phi1[i]), float(phi2[i])
        for _ in range(max(10, iters // 16)):
            probe = d.reshape(-1, 1) + _FD_H * eye
            p1, p2, pb, _ = eval_pool(np.hstack([probe]))
            g1 = (p1 - v1) / _FD_H
            g2 = (p2 - v2) / _FD_H
            if abs(v1) > slack:
                ng1 = np.linalg.norm(g1)
                if ng1 < 1e-12:
                    break
                d2 = d - (v1 / ng1**2) * g1
            else:
                gt = g2 - float(g2 @ d) * d
                n1 = np.linalg.norm(g1)
                if n1 > 1e-12:
                    gh = g1 / n1
                    gt = gt - float(gt @ gh) * gh
                if np.linalg.norm(gt) < 1e-12:
                    break
                d2 = d - 0.25 * gt / np.linalg.norm(gt)
            d2 /= np.linalg.norm(d2)
            w1, w2, wb, _ = eval_pool(d2.reshape(-1, 1))
            if abs(v1) <= slack and (abs(float(w1[0])) > slack or float(w2[0]) > v2 - 1e-14):
                break
            d, v1, v2 = d2, float(w1[0]), float(w2[0])
            if bool(wb[0]):
                break
        refined.append((v1, v2, d))
        min_phi1 = min(min_phi1, abs(v1))
    best = []
    for i in np.flatnonzero(crit):
        best.append((float(phi2[i]), pool[:, i], bool(bad[i])))
    for v1, v2, d in refined:
        if abs(v1) <= slack:
            w1, w2, wb, _ = eval_pool(d.reshape(-1, 1))
            best.append((float(w2[0]), d, bool(wb[0])))
    best.sort(key=lambda t: t[0])
    return bool(best), min_phi1, best


def _rowwise(M, D):
    """M @ D summed one row of D at a time: each column rounds as it would alone."""
    out = np.zeros((M.shape[0], D.shape[1]))
    for i in range(D.shape[0]):
        out += np.outer(M[:, i], D[i])
    return out


def _search_case(kind):
    """(phi, dim, n_starts, iters, extra, the stop reason the case must show)."""
    rng = np.random.default_rng(7)
    if kind == "max-plus-min":
        A, B = rng.standard_normal((4, 6)), rng.standard_normal((3, 6))
        phi = lambda D: np.max(_rowwise(A, D), axis=0) + np.min(_rowwise(B, D), axis=0)
        return phi, 6, 16, 0, rng.standard_normal((6, 3)), "iters"
    if kind == "flat":
        # Zero wherever every row of A has a negative slope, as along -e_0.
        A = rng.standard_normal((3, 5))
        A[:, 0] = np.abs(A[:, 0]) + 2.0
        phi = lambda D: np.maximum(np.max(_rowwise(A, D), axis=0), 0.0)
        return phi, 5, 8, 0, np.column_stack([-np.eye(5)[:, 0], rng.standard_normal(5)]), "flat"
    # A linear phi started at its minimizer on the sphere: no step descends.
    c = rng.standard_normal((1, 4))
    phi = lambda D: _rowwise(c, D)[0]
    return phi, 4, 4, 0, np.column_stack([-c[0], c[0]]), "ladder"


# The column cap as shipped, and one that splits every call (a block wider
# than the cap goes alone).
CAPS = [stationarity._MAX_COLS, 7]


@pytest.mark.parametrize("cap", CAPS)
@pytest.mark.parametrize("kind", ["max-plus-min", "flat", "ladder"])
def test_lockstep_search_matches_per_start_loop(monkeypatch, kind, cap):
    monkeypatch.setattr(stationarity, "_MAX_COLS", cap)
    phi, dim, n_starts, iters, extra, reason = _search_case(kind)
    stops = []
    ref = _per_start_search(phi, dim, 3, n_starts, iters, extra, stops)
    assert reason in stops
    got = _search_min_first(phi, dim, 3, n_starts, iters, extra)
    assert got[0] == ref[0]
    assert got[1].tobytes() == ref[1].tobytes()
    assert got[2:] == ref[2:]


def _plane_quadratic(seed, n):
    """A test-local stand-in for the tangent second-derivative batch.

    phi1 = a . d and phi2 = d' Q d with Q indefinite, both summed row by row
    so that each column rounds as it would alone; columns with d_0 > 0.9
    are flagged as unsupported.
    """
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((1, n))
    S = rng.standard_normal((n, n))
    Q = S + S.T

    def second_batch(problem, z, D, beta, sign):
        QD = _rowwise(Q, D)
        phi2 = np.zeros(D.shape[1])
        for i in range(D.shape[0]):
            phi2 += D[i] * QD[i]
        return _rowwise(a, D)[0], sign * phi2, D[0] > 0.9, None

    return second_batch


@pytest.mark.parametrize("cap", CAPS)
@pytest.mark.parametrize("seed, n, sign", [(0, 3, 1.0), (1, 5, 1.0), (2, 9, -1.0)])
def test_lockstep_polish_matches_per_candidate_loop(monkeypatch, seed, n, sign, cap):
    monkeypatch.setattr(stationarity, "_MAX_COLS", cap)
    second_batch = _plane_quadratic(seed, n)
    problem = SimpleNamespace(n=n)
    args = (problem, None, None, sign, seed, CRIT_SLACK, N_STARTS, SEARCH_ITERS)
    ref = _per_candidate_critical_search(second_batch, *args)
    monkeypatch.setattr(stationarity, "_tangent_second_batch", second_batch)
    got = _critical_search(*args)
    assert got[:2] == ref[:2]
    assert len(got[2]) == len(ref[2]) > 0
    for (q, d, bad), (q_ref, d_ref, bad_ref) in zip(got[2], ref[2]):
        assert (q, d.tobytes(), bad) == (q_ref, d_ref.tobytes(), bad_ref)


def test_p1_search_batches_its_derivative_calls(rnn_spec, rnn_problem, monkeypatch):
    z = eval_layers(rnn_problem, 0.1 * np.random.default_rng(0).standard_normal(rnn_problem.n))
    beta = rnn_penalty_config(rnn_spec).beta
    widths = []

    def counted(*args):
        widths.append(args[2].shape[1])
        return dd_Theta_batch(*args)

    monkeypatch.setattr(stationarity, "dd_Theta_batch", counted)
    rep = check_d_stationary_P1(rnn_problem, z, beta)
    calls, cols = len(widths), sum(widths)
    widths.clear()
    monkeypatch.setattr(stationarity, "_search_min_first", _per_start_search)
    ref = check_d_stationary_P1(rnn_problem, z, beta)
    assert 10 * calls <= len(widths)
    assert cols == sum(widths) == rep.samples == ref.samples


def test_p1_sampling_finds_the_lifted_descent_p0_finds():
    # The RNN of `mcpen rnn --n1 5 --t 5 --seed 0` at the lift of 0.1 N(0, I),
    # with certified closed-form beta.  P1 cannot enumerate its pieces, and
    # sampling over R^nbar alone misses the tangent descent directions.
    spec = lift_descent_instance()
    problem = build_problem(spec)
    config = rnn_penalty_config(spec)
    assert config.certified and problem.n > 16
    z = eval_layers(problem, 0.1 * np.random.default_rng(0).standard_normal(problem.n))
    r0 = check_d_stationary_P0(problem, z)
    r1 = check_d_stationary_P1(problem, z, config.beta)
    assert r0.verdict == NOT_STATIONARY
    assert (r1.verdict, r1.mode) == (NOT_STATIONARY, "sample")
    slope = dd_Theta(problem, z, r1.witness, config.beta, order=1).first
    assert slope == r1.witness_value < -r1.tol / 2.0


# ---------------------------------------------------------------------------
# Witnesses that do not re-evaluate, and verdict branches of the small instances

UNCONFIRMED = "search minimum did not re-evaluate below -tol/2"


def _one_layer(u1, g):
    """n = 1, one layer u_1 = u1(theta), outer g(u_1), lambda = 0.1."""
    return CompositeProblem(1, (LayerMap(1, (u1,)),), g, lam=0.1)


def _ridge(u1):
    """u_1 = u1 under g = plus(1 - u_1^2): concave along every radial direction at 0."""
    return _one_layer(u1, ex.plus(ex.affine(1.0, [-1.0], [ex.square(ex.uref(1, 0))])))


def _no_curvature(real):
    """A derivative that agrees with ``real`` except that no second derivative is negative."""
    return lambda *args, **kwargs: replace(real(*args, **kwargs), second=1.0)


def test_second_order_unconfirmed_witness_is_inconclusive(square_chain, monkeypatch):
    z0 = eval_layers(square_chain, np.zeros(1))
    monkeypatch.setattr(stationarity, "dd_Theta", _no_curvature(stationarity.dd_Theta))
    s1 = check_second_order(square_chain, z0, "penalized", beta=BETA_SC, seed=0)
    assert (s1.verdict, s1.witness, s1.notes) == (INCONCLUSIVE, None, [UNCONFIRMED])
    assert s1.min_found == pytest.approx(-0.78, abs=1e-9)
    problem = _ridge(ex.theta(0))
    monkeypatch.setattr(stationarity, "dd_F", _no_curvature(stationarity.dd_F))
    s0 = check_second_order(problem, eval_layers(problem, np.zeros(1)), "lifted", seed=0)
    assert (s0.verdict, s0.witness, s0.notes) == (INCONCLUSIVE, None, [UNCONFIRMED])


def test_box_unconfirmed_witness_says_why(monkeypatch):
    real = stationarity.dd_expr
    monkeypatch.setattr(
        stationarity, "dd_expr", lambda *a, **k: replace(real(*a, **k), first=0.0, second=1.0)
    )
    x, neg_sq = ex.theta(0), ex.scaled(-1.0, ex.square(ex.theta(0)))
    zero, one = np.zeros(1), np.ones(1)
    # first order, the exact quadratic form inside the box, sampling at its face
    for e, lower, order, notes in [
        (x, -one, 1, [UNCONFIRMED]),
        (neg_sq, -one, 2, ["second derivative is an exact quadratic form", UNCONFIRMED]),
        (neg_sq, zero, 2, [UNCONFIRMED]),
    ]:
        r = check_box(e, zero, lower, one, order=order, seed=0)
        assert (r.verdict, r.witness, r.notes) == (INCONCLUSIVE, None, notes)


def test_lifted_second_order_refutes_along_a_radial_direction():
    problem = _ridge(ex.theta(0))
    r = check_second_order(problem, eval_layers(problem, np.zeros(1)), "lifted", seed=0)
    assert r.verdict == NOT_STATIONARY
    assert r.witness_value == pytest.approx(-1.8, abs=1e-12)


def test_lifted_second_order_with_undecided_radial_membership_is_inconclusive():
    # a cubic layer map is beyond the radial test's degree-2 grid argument
    th = ex.theta(0)
    problem = _ridge(ex.add(th, ex.mul(th, ex.square(th))))
    r = check_second_order(problem, eval_layers(problem, np.zeros(1)), "lifted", seed=0)
    assert (r.verdict, r.witness) == (INCONCLUSIVE, None)
    assert r.notes == ["negative curvature found but radial membership undecided"]


def test_second_order_without_critical_directions():
    problem = _one_layer(ex.theta(0), ex.vabs(ex.uref(1, 0)))
    z = eval_layers(problem, np.zeros(1))
    for target in ("lifted", "penalized"):
        r = check_second_order(problem, z, target, beta=[1.0], seed=0)
        assert (r.verdict, r.notes) == (STATIONARY, ["critical cone trivial along sampled sphere"])


def test_strong_minimum_check_fails_with_a_witness(square_chain):
    z0 = eval_layers(square_chain, np.zeros(1))
    cfg = build_config(square_chain, beta=BETA_SC, seed=0)
    out = check_strong_local_min_sufficient(square_chain, z0, cfg, seed=0)
    assert out["verdict"] == "fails"
    assert out["margin_min"] == pytest.approx(-3.18, abs=1e-12)
    np.testing.assert_allclose(out["witness"].flat(), [1.0, 1.0, 0.0])


def test_box_sampled_critical_route():
    # x = 0 sits on the lower face, so the exact quadratic-form route is closed
    sq = ex.square(ex.theta(0))
    zero, one = np.zeros(1), np.ones(1)
    r = check_box(sq, zero, zero, one, order=2, seed=0)
    assert (r.verdict, r.mode, r.min_found) == (STATIONARY, "sample", 2.0)
    r = check_box(ex.scaled(-1.0, sq), zero, zero, one, order=2, seed=0)
    assert (r.verdict, r.mode, r.min_found, r.witness_value) == (NOT_STATIONARY, "sample", -2.0, -2.0)


def test_p1_sampling_seeds_from_each_violated_layer(rnn_problem, rnn_spec, monkeypatch):
    lift = eval_layers(rnn_problem, np.zeros(rnn_problem.n))
    z = point_from_flat(rnn_problem, lift.flat() + 0.01)
    violated = [
        k for k, rho in enumerate(residuals(rnn_problem, z).per_layer, 1) if np.max(np.abs(rho)) > FEAS_TOL
    ]
    calls = []
    real = stationarity.feasibility_descent_direction

    def spy(problem, z, k):
        calls.append(k)
        return real(problem, z, k)

    monkeypatch.setattr(stationarity, "feasibility_descent_direction", spy)
    monkeypatch.setattr(stationarity, "N_STARTS", 2)
    monkeypatch.setattr(stationarity, "SEARCH_ITERS", 24)
    rep = check_d_stationary_P1(rnn_problem, z, rnn_penalty_config(rnn_spec).beta, mode="sample", seed=0)
    assert violated and calls == violated
    # one envelope entry per start: a seed per violated layer, then N_STARTS sphere points
    assert len(rep.envelope) == len(violated) + 2
    assert rep.verdict == NOT_STATIONARY and rep.witness_value < -rep.tol / 2.0
