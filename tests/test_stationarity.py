"""Stationarity verdicts of both orders, for both formulations."""

from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from conftest import random_problem
from mcpen import expr as ex
from mcpen import pieces, stationarity
from mcpen.dcalc import dd_F, dd_Psi_batch, dd_Theta, direction_from_flat
from mcpen.model import CompositeProblem, LayerMap, Point, eval_layers
from mcpen.penalty import build_config
from mcpen.pieces import minimize_pieces, psi_prime_pieces
from mcpen.repro import lift_descent_instance
from mcpen.rnn import build_problem, desk_instance, rnn_penalty_config
from mcpen.solver import SolveConfig, minimize_theta, polish_to_feasible
from mcpen.stationarity import (
    _FD_H,
    CRIT_SLACK,
    INCONCLUSIVE,
    N_STARTS,
    NOT_STATIONARY,
    SEARCH_ITERS,
    STATIONARY,
    _critical_search,
    _directions,
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
    r0 = check_d_stationary_P0(square_chain, z0)
    r1 = check_d_stationary_P1(square_chain, z0, BETA_SC)
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
    r = check_d_stationary_P0(relu_ridge, z)
    assert r.verdict == NOT_STATIONARY
    assert r.witness_value == pytest.approx(-2.0, abs=1e-12)
    assert r.mode == "exact"


def test_enumerate_and_sample_agree_on_verdicts(relu_ridge):
    # The exact minimum equals the enumerated pieces' minimum, and no sampled
    # direction of the l1 sphere has a smaller slope.
    D = _directions(2, 256, 0)
    D = D / np.sum(np.abs(D), axis=0)
    verdicts = []
    for th in (np.zeros(2), np.array([-1.0, 0.0]), np.array([1.0, 0.5])):
        rep = check_d_stationary_P0(relu_ridge, eval_layers(relu_ridge, th))
        enumerated, _ = minimize_pieces(psi_prime_pieces(relu_ridge, th))
        assert rep.min_found == pytest.approx(enumerated, abs=1e-12)
        assert (rep.verdict == STATIONARY) == (enumerated >= -rep.tol)
        assert np.min(dd_Psi_batch(relu_ridge, th, D, 1)[1]) >= rep.min_found - 1e-12
        verdicts.append(rep.verdict)
    assert verdicts[0] == NOT_STATIONARY


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
    r = check_d_stationary_P0(problem, z)
    assert r.verdict == STATIONARY
    cfg = build_config(problem, beta=np.array([3.0]), seed=0)
    r1 = check_d_stationary_P1(problem, z, np.array([3.0]))
    assert r1.verdict == STATIONARY
    s = check_strong_local_min_sufficient(problem, z, cfg, seed=0)
    assert s["verdict"] == "sufficient-holds"
    assert s["margin_min"] > 0.0


def test_second_order_trivial_critical_cone(square_chain):
    # at a point with strictly positive sharpest slope the critical cone
    # collapses and second order holds vacuously
    th = np.array([0.5])
    z = eval_layers(square_chain, th)
    r1 = check_d_stationary_P1(square_chain, z, BETA_SC)
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


FAILS_FIRST = "already fails at first order"

# (verdict, mode, samples, notes, min_found, witness_value) of each report on
# the canonical instances.  Code that only removes duplication must keep them.
REPORT_GOLDENS = {
    "square-chain P0": (STATIONARY, "exact", 0, [], 0.0, None),
    "square-chain P1": (STATIONARY, "exact", 0, [], 0.0, None),
    "square-chain lifted": (STATIONARY, "sample", 66, [], -1.98, None),
    "square-chain penalized": (NOT_STATIONARY, "sample", 66, [], -0.78, -0.78),
    "relu-ridge P0": (NOT_STATIONARY, "exact", 1, [], -2.0, -2.0),
    "relu-ridge P1": (NOT_STATIONARY, "exact", 1, [], -0.5, -0.8164965809277261),
    "relu-ridge lifted": (NOT_STATIONARY, "exact", 0, [FAILS_FIRST], 0.0, None),
    "relu-ridge penalized": (NOT_STATIONARY, "exact", 0, [FAILS_FIRST], 0.0, None),
    "box-max (0, 0) order 1": (STATIONARY, "exact", 0, [], 0.0, None),
    "box-max (0, 0) order 2": (
        NOT_STATIONARY,
        "exact",
        11,
        ["second derivative is an exact quadratic form"],
        -0.7999999999999998,
        -0.7999999999999998,
    ),
    "box-max (-1, 1) order 1": (STATIONARY, "exact", 1, [], 0.0, None),
    "box-max (-1, 1) order 2": (
        STATIONARY,
        "sample",
        36,
        ["no critical directions located by sampling"],
        0.0,
        None,
    ),
    "box-max (1, 1) order 1": (NOT_STATIONARY, "exact", 0, [], -1.2, -1.2),
    "box-max (1, 1) order 2": (
        NOT_STATIONARY,
        "exact",
        0,
        ["already fails at first order"],
        -1.2,
        -1.2,
    ),
    "desk P0": (NOT_STATIONARY, "exact", 0, [], -0.08200868707101515, -0.08200868707101515),
    "desk P1": (NOT_STATIONARY, "exact", 0, [], -0.03563259928981619, -0.04728392701097101),
    "desk lifted": (NOT_STATIONARY, "exact", 0, [FAILS_FIRST], 0.0, None),
    "desk penalized": (NOT_STATIONARY, "exact", 0, [FAILS_FIRST], 0.0, None),
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
    assert (out["d1"].verdict, out["d1"].mode) == (STATIONARY, "exact")
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
    real = stationarity._second_order

    def forged(problem, z, first, *args):
        rep = real(problem, z, first, *args)
        rep.verdict = NOT_STATIONARY if first.target == "lifted" else STATIONARY
        return rep

    monkeypatch.setattr(stationarity, "_second_order", forged)
    cfg = build_config(square_chain, beta=BETA_SC, seed=0)
    out = compare_sets_on_point(square_chain, eval_layers(square_chain, np.zeros(1)), cfg, seed=0)
    assert out["inconsistencies"] == ["penalized second-order stationary but lifted is not"]


# ---------------------------------------------------------------------------
# The lockstep polish against the per-candidate loop it replaced


def _per_candidate_critical_search(second_batch, problem, z, beta, sign, seed):
    """Reference oracle: the critical-direction polish, one candidate after another."""
    n, slack = problem.n, CRIT_SLACK
    pool = _directions(n, max(N_STARTS, 4 * n), seed)

    def eval_pool(D):
        return second_batch(problem, z, D, beta, sign)

    phi1, phi2, bad = eval_pool(pool)
    crit = np.abs(phi1) <= slack
    order_idx = np.argsort(np.where(bad, np.inf, phi2))
    polish = [i for i in order_idx[: max(8, n)] if not bad[i]]
    eye = np.eye(n)
    refined = []
    for i in polish:
        d = pool[:, i].copy()
        v1, v2 = float(phi1[i]), float(phi2[i])
        for _ in range(max(10, SEARCH_ITERS // 16)):
            probe = d.reshape(-1, 1) + _FD_H * eye
            p1, p2, _ = eval_pool(probe)
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
            w1, w2, wb = eval_pool(d2.reshape(-1, 1))
            if abs(v1) <= slack and (abs(float(w1[0])) > slack or float(w2[0]) > v2 - 1e-14):
                break
            d, v1, v2 = d2, float(w1[0]), float(w2[0])
            if bool(wb[0]):
                break
        refined.append((v1, v2, d))
    best = []
    for i in np.flatnonzero(crit):
        best.append((float(phi2[i]), pool[:, i], bool(bad[i])))
    for v1, v2, d in refined:
        if abs(v1) <= slack:
            w1, w2, wb = eval_pool(d.reshape(-1, 1))
            best.append((float(w2[0]), d, bool(wb[0])))
    best.sort(key=lambda t: t[0])
    return pool.shape[1], best


def _rowwise(M, D):
    """M @ D summed one row of D at a time: each column rounds as it would alone."""
    out = np.zeros((M.shape[0], D.shape[1]))
    for i in range(D.shape[0]):
        out += np.outer(M[:, i], D[i])
    return out


# The column cap as shipped, and one that splits every call (a block wider
# than the cap goes alone).
CAPS = [stationarity._MAX_COLS, 7]


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
        return _rowwise(a, D)[0], sign * phi2, D[0] > 0.9

    return second_batch


@pytest.mark.parametrize("cap", CAPS)
@pytest.mark.parametrize("seed, n, sign", [(0, 3, 1.0), (1, 5, 1.0), (2, 9, -1.0)])
def test_lockstep_polish_matches_per_candidate_loop(monkeypatch, seed, n, sign, cap):
    monkeypatch.setattr(stationarity, "_MAX_COLS", cap)
    second_batch = _plane_quadratic(seed, n)
    problem = SimpleNamespace(n=n)
    args = (problem, None, None, sign, seed)
    ref = _per_candidate_critical_search(second_batch, *args)
    monkeypatch.setattr(stationarity, "_tangent_second_batch", second_batch)
    got = _critical_search(*args)
    assert got[0] == ref[0]
    assert len(got[1]) == len(ref[1]) > 0
    for (q, d, bad), (q_ref, d_ref, bad_ref) in zip(got[1], ref[1]):
        assert (q, d.tobytes(), bad) == (q_ref, d_ref.tobytes(), bad_ref)


def test_p1_sampling_finds_the_lifted_descent_p0_finds():
    # The RNN of `mcpen rnn --n1 5 --t 5 --seed 0` at the lift of 0.1 N(0, I),
    # with certified closed-form beta.  Its P1 pieces number 2^60, and
    # sampling over R^nbar alone missed the tangent descent directions; the
    # exact route, which replaced sampling, finds them for P0 and P1 alike.
    spec = lift_descent_instance()
    problem = build_problem(spec)
    config = rnn_penalty_config(spec)
    assert config.certified and problem.n > 16
    z = eval_layers(problem, 0.1 * np.random.default_rng(0).standard_normal(problem.n))
    r0 = check_d_stationary_P0(problem, z)
    r1 = check_d_stationary_P1(problem, z, config.beta)
    for r in (r0, r1):
        assert (r.verdict, r.mode) == (NOT_STATIONARY, "exact")
        slope = dd_Theta(problem, z, r.witness, config.beta, order=1).first
        assert slope == r.witness_value < -r.tol / 2.0


def _desk_points(seed):
    """A desk RNN, its closed-form config, its 0.1 N(0, I) lift and its trained, polished point."""
    spec = desk_instance(seed)
    problem, config = build_problem(spec), rnn_penalty_config(spec)
    lift = eval_layers(problem, 0.1 * np.random.default_rng(seed).standard_normal(problem.n))
    res = minimize_theta(problem, config.beta, SolveConfig(max_iters=400, stop_tol=1e-8, seed=seed))
    trained, _, _ = polish_to_feasible(problem, res.z, config.beta)
    return problem, config, (lift, trained)


@pytest.mark.parametrize("seed", range(10))
def test_p0_and_p1_agree_at_certified_beta(seed):
    # The paper's equivalence: with certified beta, the lifted and penalized
    # problems have the same first-order stationary points.
    problem, config, points = _desk_points(seed)
    assert config.certified
    for z, verdict in zip(points, (NOT_STATIONARY, STATIONARY)):
        r0 = check_d_stationary_P0(problem, z)
        r1 = check_d_stationary_P1(problem, z, config.beta)
        assert (r0.verdict, r0.mode) == (r1.verdict, r1.mode) == (verdict, "exact")
        for r in (r0, r1):
            if r.witness is not None:
                assert dd_Theta(problem, z, r.witness, config.beta, order=1).first < -r.tol / 2.0


def test_first_order_stopped_by_its_time_limit_is_inconclusive(rnn_spec, rnn_problem, monkeypatch):
    z = eval_layers(rnn_problem, 0.1 * np.random.default_rng(0).standard_normal(rnn_problem.n))
    monkeypatch.setattr(pieces, "MILP_TIME_LIMIT", 0.0)
    note = "HiGHS bounds the minimum only to [-inf, 0.000e+00] within its 0 s time limit"
    beta = rnn_penalty_config(rnn_spec).beta
    for r in (check_d_stationary_P0(rnn_problem, z), check_d_stationary_P1(rnn_problem, z, beta)):
        assert (r.verdict, r.mode, r.min_found, r.witness) == (INCONCLUSIVE, "exact", 0.0, None)
        assert r.notes == [note]
    # An undecided first order leaves second order undecided.
    for target in ("lifted", "penalized"):
        r = check_second_order(rnn_problem, z, target, beta)
        assert (r.verdict, r.mode, r.samples, r.witness) == (INCONCLUSIVE, "exact", 0, None)
        assert r.notes == ["first-order check inconclusive"]


@pytest.mark.parametrize(
    "spec", [desk_instance(0), lift_descent_instance()], ids=["desk", "lift-descent"]
)
def test_second_order_fails_where_first_order_has_a_witness(spec):
    # Both lifts of 0.1 N(0, I) descend at first order (P0 witnesses -0.082
    # and -0.0428), so neither is second-order stationary.  The first-order
    # report carries the witness; the second-order one points to it.
    problem, beta = build_problem(spec), rnn_penalty_config(spec).beta
    z = eval_layers(problem, 0.1 * np.random.default_rng(0).standard_normal(problem.n))
    assert check_d_stationary_P0(problem, z).witness_value < 0.0
    for target in ("lifted", "penalized"):
        r = check_second_order(problem, z, target, beta)
        assert (r.verdict, r.mode, r.samples, r.min_found) == (NOT_STATIONARY, "exact", 0, 0.0)
        assert (r.witness, r.witness_value, r.notes) == (None, None, [FAILS_FIRST])


@pytest.mark.filterwarnings("ignore:outer function evaluated")
def test_second_order_implies_first_order_on_random_problems():
    # A second-order stationary point is first-order stationary, and every
    # second-order witness has negative curvature along itself.
    for seed in range(60):
        problem = random_problem(seed)
        beta = np.full(problem.L, 0.7)
        shifted = 0.5 * np.random.default_rng(seed).standard_normal(problem.n)
        for th in (np.zeros(problem.n), shifted):
            z = eval_layers(problem, th)
            pairs = [
                (check_d_stationary_P0(problem, z), check_second_order(problem, z, "lifted")),
                (
                    check_d_stationary_P1(problem, z, beta),
                    check_second_order(problem, z, "penalized", beta),
                ),
            ]
            for first, second in pairs:
                if first.verdict == NOT_STATIONARY:
                    assert second.verdict == NOT_STATIONARY, (seed, second.target)
                if second.witness is None:
                    continue
                if second.target == "lifted":
                    curv = dd_F(problem, z, second.witness, order=2).second
                else:
                    curv = dd_Theta(problem, z, second.witness, beta, order=2).second
                assert curv < -second.tol / 2.0, (seed, second.target)


# ---------------------------------------------------------------------------
# Witnesses that do not re-evaluate, and verdict branches of the small instances

UNCONFIRMED = "search minimum did not re-evaluate below -tol/2"
NO_CRITICAL = "no critical directions located by sampling"


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
        assert (r.verdict, r.notes) == (STATIONARY, [NO_CRITICAL])


def test_second_order_polish_reaches_a_critical_line_the_pool_misses():
    # g = |u0 - u1| - (u0 + u1)^2 with u = theta, at 0: phi1 = |d0 - d1|, so
    # the point is first-order stationary and the critical directions are
    # the line d0 = d1, which no pool column hits.  Along it the curvature
    # is -4 + 2 lam = -3.8; only the polish onto the line finds it.
    u0, u1 = ex.uref(1, 0), ex.uref(1, 1)
    g = ex.sub(ex.vabs(ex.sub(u0, u1)), ex.square(ex.add(u0, u1)))
    problem = CompositeProblem(2, (LayerMap(1, (ex.theta(0), ex.theta(1))),), g, lam=0.1)
    z = eval_layers(problem, np.zeros(2))
    beta = np.array([1.0])
    assert check_d_stationary_P0(problem, z).verdict == STATIONARY
    assert check_d_stationary_P1(problem, z, beta).verdict == STATIONARY
    for target in ("lifted", "penalized"):
        r = check_second_order(problem, z, target, beta, seed=0)
        assert (r.verdict, r.mode, r.notes) == (NOT_STATIONARY, "sample", [])
        assert r.witness_value == pytest.approx(-3.8, abs=1e-6)
        d0, d1 = r.witness.flat()[:2]
        assert abs(d0 - d1) <= 1e-8 and abs(d0) == pytest.approx(0.5**0.5, abs=1e-8)
    out = check_strong_local_min_sufficient(problem, z, build_config(problem, beta=beta, seed=0))
    assert out["verdict"] == "fails"
    assert out["margin_min"] == pytest.approx(-3.8, abs=1e-6)


def test_strong_minimum_check_fails_with_a_witness(square_chain):
    z0 = eval_layers(square_chain, np.zeros(1))
    cfg = build_config(square_chain, beta=BETA_SC, seed=0)
    out = check_strong_local_min_sufficient(square_chain, z0, cfg, seed=0)
    assert out["verdict"] == "fails"
    assert out["margin_min"] == pytest.approx(-3.18, abs=1e-12)
    np.testing.assert_allclose(out["witness"].flat(), [1.0, 1.0, 0.0])


@pytest.mark.filterwarnings("ignore:outer function evaluated")
def test_strong_minimum_check_outcomes_before_the_margin(relu_ridge):
    # The relu ridge at 0 descends at first order, so the margin is never read.
    cfg = build_config(relu_ridge, beta=np.array([1.0, 1.0]), seed=0)
    z = eval_layers(relu_ridge, np.zeros(2))
    out = check_strong_local_min_sufficient(relu_ridge, z, cfg)
    assert (out["verdict"], out["notes"]) == ("fails", ["first-order condition fails"])
    assert (out["first_order"].verdict, out["margin_min"]) == (NOT_STATIONARY, None)
    # |theta| at 0 has slope |d| in every direction: no critical direction, so
    # the condition holds vacuously, and an uncertified beta is said so.
    problem = _one_layer(ex.theta(0), ex.vabs(ex.uref(1, 0)))
    z = eval_layers(problem, np.zeros(1))
    cfg = build_config(problem, beta=np.array([2.0]), seed=0)
    uncertified = "beta not certified; critical directions may exceed the tangent cone"
    for certified, notes in ((True, [NO_CRITICAL]), (False, [uncertified, NO_CRITICAL])):
        out = check_strong_local_min_sufficient(problem, z, replace(cfg, certified=certified))
        assert (out["verdict"], out["notes"]) == ("sufficient-holds", notes)
        assert out["margin_min"] is None


def test_box_sampled_critical_route():
    # x = 0 sits on the lower face, so the exact quadratic-form route is closed
    sq = ex.square(ex.theta(0))
    zero, one = np.zeros(1), np.ones(1)
    r = check_box(sq, zero, zero, one, order=2, seed=0)
    assert (r.verdict, r.mode, r.min_found) == (STATIONARY, "sample", 2.0)
    r = check_box(ex.scaled(-1.0, sq), zero, zero, one, order=2, seed=0)
    assert (r.verdict, r.mode, r.min_found, r.witness_value) == (NOT_STATIONARY, "sample", -2.0, -2.0)
