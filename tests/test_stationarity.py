"""Stationarity verdicts of both orders, for both formulations."""

import warnings
from dataclasses import replace
from functools import cache

import numpy as np
import pytest

from conftest import blowup_problem, random_problem
from walkers import tie_basis
from mcpen import expr as ex
from mcpen import pieces, stationarity
from mcpen.dcalc import dd_F, dd_Psi_batch, dd_Theta, direction_from_flat
from mcpen.model import (
    CompositeProblem,
    InfeasiblePointError,
    LayerMap,
    Point,
    eval_layers,
    eval_Theta,
    reference_point_and_level,
    residuals,
)
from mcpen.penalty import build_config
from mcpen.pieces import minimize_pieces, psi_prime_pieces
from mcpen.repro import lift_descent_instance
from mcpen.rnn import build_problem, desk_instance, rnn_penalty_config
from mcpen.solver import SolveConfig, minimize_theta, polish_to_feasible
from mcpen.stationarity import (
    INCONCLUSIVE,
    NOT_STATIONARY,
    STATIONARY,
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
    with pytest.raises(ValueError, match="the penalized target needs beta"):
        check_second_order(square_chain, z0, "penalized")
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


def test_box_second_order_reads_a_slope_within_crit_slack_exactly():
    # -x0^2 + 1e-10 x0 at 0: first order is stationary, and the slope 1e-10
    # along e0 is within CRIT_SLACK, so the quadratic form on the box's
    # interior decides, with the eigenvector e0 and its curvature -2
    x0 = ex.theta(0)
    e = ex.affine(0.0, [-1.0, 1e-10], [ex.square(x0), x0])
    r = check_box(e, np.zeros(2), -np.ones(2), np.ones(2), order=2, seed=0)
    assert (r.verdict, r.mode, r.min_found, r.witness_value) == (NOT_STATIONARY, "exact", -2.0, -2.0)
    assert np.asarray(r.witness).tolist() == [1.0, 0.0]
    assert r.notes == ["second derivative is an exact quadratic form"]


@pytest.mark.parametrize("route", ["quadratic form", "sampled", "first order"])
def test_a_box_check_compiles_one_tape(box_max, monkeypatch, route):
    # each route evaluates e several times: form columns, probes and refutation;
    # the pool and refutation; the first-order confirmation
    x0, x1 = ex.theta(0), ex.theta(1)
    e = {
        "quadratic form": ex.affine(0.0, [-1.0, 1e-10], [ex.square(x0), x0]),
        "sampled": box_max,
        "first order": ex.add(x0, ex.square(x1)),
    }[route]
    compiled, real = [], ex.compile_tape
    monkeypatch.setattr(ex, "compile_tape", lambda *a: compiled.append(a) or real(*a))
    r = check_box(e, np.zeros(2), -np.ones(2), np.ones(2), order=2, seed=0)
    assert r.verdict == NOT_STATIONARY and len(compiled) == 1


def test_box_interior_descent_detected():
    e = ex.add(ex.theta(0), ex.square(ex.theta(1)))
    r = check_box(e, np.zeros(2), -np.ones(2), np.ones(2), order=1, seed=0)
    assert r.verdict == NOT_STATIONARY
    assert r.witness_value < 0


FAILS_FIRST = "already fails at first order"
NOT_RADIAL = "sampled: eigenvector not known radial"
NOT_CONFIRMED = "sampled: eigenvector did not re-evaluate below -tol/2"
ZERO_SUBSPACE = "critical subspace is {0}"

# (verdict, mode, samples, notes, min_found, witness_value) of each report on
# the canonical instances.  Code that only removes duplication must keep them.
REPORT_GOLDENS = {
    "square-chain P0": (STATIONARY, "exact", 0, [], 0.0, None),
    "square-chain P1": (STATIONARY, "exact", 0, [], 0.0, None),
    "square-chain lifted": (STATIONARY, "sample", 75, [NOT_RADIAL], -1.98, None),
    "square-chain penalized": (NOT_STATIONARY, "exact", 9, [], -1.98, -0.78),
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


@cache
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
    # P1 at the desk lift sends its t >= |w| rows to HiGHS.  P0 there has no
    # tie and needs no HiGHS call, so P0 runs where g = u1 = max(theta1,
    # theta2) ties at theta = 0: the tie's y carries g's weight.
    z = eval_layers(rnn_problem, 0.1 * np.random.default_rng(0).standard_normal(rnn_problem.n))
    tied = CompositeProblem(2, (LayerMap(1, (ex.vmax(ex.theta(0), ex.theta(1)),)),), ex.uref(1, 0), lam=0.01)
    z_tied = eval_layers(tied, np.zeros(2))
    monkeypatch.setattr(pieces, "MILP_TIME_LIMIT", 0.0)
    note = "HiGHS bounds the minimum only to [-inf, 0.000e+00] within its 0 s time limit"
    beta = rnn_penalty_config(rnn_spec).beta
    for r in (check_d_stationary_P0(tied, z_tied), check_d_stationary_P1(rnn_problem, z, beta)):
        assert (r.verdict, r.mode, r.min_found, r.witness) == (INCONCLUSIVE, "exact", 0.0, None)
        assert r.notes == [note]
    # An undecided first order leaves second order undecided.
    for r in (check_second_order(tied, z_tied, "lifted"), check_second_order(rnn_problem, z, "penalized", beta)):
        assert (r.verdict, r.mode, r.samples, r.witness) == (INCONCLUSIVE, "exact", 0, None)
        assert r.notes == ["first-order check inconclusive"]


def test_p0_calls_no_highs_on_the_certify_rnn_points(monkeypatch):
    # perfbench's certify-rnn points at seeds 0-5: the lift drawn after the
    # spec's x and y, and the trained dead network, whose 9 ties carry no
    # weight in P0's objective.  P0's minimum is the vertex value -max |c_i|,
    # and both orders share one build of P0's model.  P1's multipliers
    # certify the trained point, so HiGHS runs once, for P1's LP at the lift.
    milps, models = [], []
    real_milp, real_model = pieces.milp, pieces.psi_prime_model
    monkeypatch.setattr(pieces, "milp", lambda *a, **k: milps.append(k) or real_milp(*a, **k))
    monkeypatch.setattr(pieces, "psi_prime_model", lambda *a: models.append(a) or real_model(*a))
    for seed in range(6):
        problem, config, (_, trained) = _desk_points(seed)
        rng = np.random.default_rng(seed)
        rng.standard_normal((1, 3, 2)), rng.standard_normal((1, 3, 1))
        lift = eval_layers(problem, 0.1 * rng.standard_normal(problem.n))
        config = replace(config, gamma_bar=float(reference_point_and_level(problem, config.beta)[1]))
        for z, calls, binaries, verdict in ((lift, 1, 0, NOT_STATIONARY), (trained, 0, 9, STATIONARY)):
            milps.clear(), models.clear()
            comp = compare_sets_on_point(problem, z, config, seed=seed)
            assert (len(milps), len(models)) == (calls, 1), seed
            c = np.zeros(problem.n)
            obj = real_model(problem, z.theta)[1][: problem.n]
            c[: obj.size] = obj
            d0, d1 = comp["d0"], comp["d1"]
            assert (d0.verdict, d0.mode, d0.samples) == (verdict, "exact", binaries)
            assert (d1.verdict, d1.mode, d1.samples) == (verdict, "exact", binaries)
            assert d0.min_found == -np.max(np.abs(c))
            assert d1.min_found < 0.0 if verdict == NOT_STATIONARY else d1.min_found == 0.0
            assert comp["consistent"]


@pytest.mark.filterwarnings("ignore:outer function evaluated")
def test_multiplier_certificates_keep_the_highs_verdicts(monkeypatch, box_max):
    # Every first-order check, run once with the multiplier bound and once by
    # HiGHS alone: random problems at theta = 0 and 0.5 N(0, I) with beta 0.7,
    # desk RNNs at a lift and at the trained point, and the box goldens.  A
    # certificate only ever reads stationary, at d = 0 with min_found 0.0.
    milps = []
    real_milp = pieces.milp
    monkeypatch.setattr(pieces, "milp", lambda *a, **k: milps.append(k) or real_milp(*a, **k))

    def counted(check, *args, **kwargs):
        """(report, HiGHS calls it made)."""
        before = len(milps)
        return check(*args, **kwargs), len(milps) - before

    def runs():
        out = []
        for problem, z, beta in points:
            if residuals(problem, z).feasible:
                out.append(counted(check_d_stationary_P0, problem, z))
            out.append(counted(check_d_stationary_P1, problem, z, beta))
        for x in ((0, 0), (-1, 1), (1, 1)):
            for order in (1, 2):
                box = (np.array(x, dtype=float), -np.ones(2), np.ones(2))
                out.append(counted(check_box, box_max, *box, order=order))
        return out

    points = []
    for seed in range(60):
        p = random_problem(seed)
        for th in (np.zeros(p.n), 0.5 * np.random.default_rng(seed).standard_normal(p.n)):
            points.append((p, eval_layers(p, th), [0.7] * p.L))
    for seed in range(10):
        problem, config, desk = _desk_points(seed)
        points += [(problem, z, config.beta) for z in desk]
    certified = runs()
    monkeypatch.setattr(pieces._SlopeModel, "multiplier_bound", lambda *a: None)
    highs = runs()
    solved = sum(1 for b, nb in highs if nb and b.verdict == STATIONARY)
    skipped = sum(nb - na for (_, na), (_, nb) in zip(certified, highs, strict=True))
    print(f"{skipped} of {solved} stationary checks that reach HiGHS skip it")
    assert skipped == solved - 1  # random_problem(47)'s P1 at theta = 0 falls through
    for (a, _), (b, _) in zip(certified, highs):
        assert (a.target, a.order, a.verdict, a.mode, a.samples, a.notes) == (
            b.target, b.order, b.verdict, b.mode, b.samples, b.notes
        )
        assert a.witness_value == b.witness_value
        if a.min_found != b.min_found:
            assert a.order == 1 and a.verdict == STATIONARY, (a, b)
            assert a.min_found == 0.0 and -a.tol <= b.min_found <= 0.0


def test_first_order_models_refuse_non_finite_coefficients():
    # At theta = 0.5 the mul layer's value 1e308 is finite, but its slope
    # 2 s s' is not; HiGHS would otherwise stop on its own message.
    problem = blowup_problem("mul")
    z = eval_layers(problem, np.array([0.5]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # the refusal, not numpy's overflow warning, says it
        with pytest.raises(ValueError, match="^P0 first-order model has non-finite coefficients"):
            check_d_stationary_P0(problem, z)
        with pytest.raises(ValueError, match="^P1 first-order model has non-finite coefficients"):
            check_d_stationary_P1(problem, z, [1.0, 1.0])


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
    # Neither the eigenvector nor the pool's candidates confirm; min_found
    # keeps the form's smallest eigenvalue, F'' along (1, 1, 0).
    monkeypatch.setattr(stationarity, "dd_Theta", _no_curvature(stationarity.dd_Theta))
    s1 = check_second_order(square_chain, z0, "penalized", beta=BETA_SC, seed=0)
    assert (s1.verdict, s1.witness, s1.notes) == (INCONCLUSIVE, None, [NOT_CONFIRMED, UNCONFIRMED])
    assert (s1.mode, s1.min_found) == ("sample", pytest.approx(-1.98, abs=1e-9))
    problem = _ridge(ex.theta(0))
    monkeypatch.setattr(stationarity, "dd_F", _no_curvature(stationarity.dd_F))
    s0 = check_second_order(problem, eval_layers(problem, np.zeros(1)), "lifted", seed=0)
    assert (s0.verdict, s0.witness, s0.notes) == (INCONCLUSIVE, None, [NOT_CONFIRMED, UNCONFIRMED])


def test_box_unconfirmed_witness_says_why(monkeypatch):
    # every witness re-evaluates to slope 0.0 and curvature 1.0
    monkeypatch.setattr(stationarity, "_confirmed", lambda tape, x, d, order: 0.0 if order == 1 else 1.0)
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
    assert (r.verdict, r.mode, r.samples) == (NOT_STATIONARY, "exact", 9)
    assert r.witness_value == pytest.approx(-1.8, abs=1e-12)


def test_a_slope_within_crit_slack_leaves_its_direction_critical():
    # At theta = 1e-10 the ridge's slope is c = -1.8e-10: first order reads
    # stationary, and the direction d = 1 still counts as critical, so S is
    # R^1 and its curvature -1.8 refutes both targets.
    problem = _ridge(ex.theta(0))
    z = eval_layers(problem, np.full(1, 1e-10))
    assert check_d_stationary_P0(problem, z).verdict == STATIONARY
    assert check_d_stationary_P1(problem, z, [1.0]).verdict == STATIONARY
    for target in ("lifted", "penalized"):
        r = check_second_order(problem, z, target, beta=[1.0], seed=0)
        assert (r.verdict, r.mode, r.notes) == (NOT_STATIONARY, "exact", [])
        assert r.min_found == pytest.approx(-1.8, abs=1e-8)
        assert r.witness_value == pytest.approx(-1.8, abs=1e-8)


def test_lifted_second_order_with_undecided_radial_membership_is_inconclusive():
    # a cubic layer map is beyond the radial test's degree-2 grid argument
    th = ex.theta(0)
    problem = _ridge(ex.add(th, ex.mul(th, ex.square(th))))
    r = check_second_order(problem, eval_layers(problem, np.zeros(1)), "lifted", seed=0)
    assert (r.verdict, r.witness) == (INCONCLUSIVE, None)
    assert r.notes == [NOT_RADIAL, "negative curvature found but radial membership undecided"]


def test_second_order_without_critical_directions():
    # |theta| at 0 has slope |d|: the tie's row e_0 leaves S = {0}.
    problem = _one_layer(ex.theta(0), ex.vabs(ex.uref(1, 0)))
    z = eval_layers(problem, np.zeros(1))
    for target in ("lifted", "penalized"):
        r = check_second_order(problem, z, target, beta=[1.0], seed=0)
        assert (r.verdict, r.mode, r.samples, r.notes) == (STATIONARY, "exact", 0, [ZERO_SUBSPACE])


def test_second_order_polish_reaches_a_critical_line_the_pool_misses():
    # g = |u0 - u1| - (u0 + u1)^2 with u = theta, at 0: phi1 = |d0 - d1|, so
    # the point is first-order stationary and the critical directions are
    # the line d0 = d1, which no pool column in R^2 hits.  The tie's row
    # (1, -1) gives that line as S, and the form on it reads the curvature
    # -4 + 2 lam = -3.8 exactly.  Written as plus(u0 - u1) + plus(u1 - u0),
    # two ties max(h, 0) give the same S.
    u0, u1 = ex.uref(1, 0), ex.uref(1, 1)
    for kink in (ex.vabs(ex.sub(u0, u1)), ex.add(ex.plus(ex.sub(u0, u1)), ex.plus(ex.sub(u1, u0)))):
        g = ex.sub(kink, ex.square(ex.add(u0, u1)))
        problem = CompositeProblem(2, (LayerMap(1, (ex.theta(0), ex.theta(1))),), g, lam=0.1)
        z = eval_layers(problem, np.zeros(2))
        beta = np.array([1.0])
        assert check_d_stationary_P0(problem, z).verdict == STATIONARY
        assert check_d_stationary_P1(problem, z, beta).verdict == STATIONARY
        for target in ("lifted", "penalized"):
            r = check_second_order(problem, z, target, beta, seed=0)
            assert (r.verdict, r.mode, r.notes) == (NOT_STATIONARY, "exact", [])
            assert r.min_found == r.witness_value == pytest.approx(-3.8, abs=1e-12)
            d0, d1 = r.witness.flat()[:2]
            assert abs(d0 - d1) <= 1e-8 and d0 == pytest.approx(0.5**0.5, abs=1e-8)  # largest entry > 0
        out = check_strong_local_min_sufficient(problem, z, build_config(problem, beta=beta, seed=0))
        assert out["verdict"] == "fails"
        assert out["margin_min"] == pytest.approx(-3.8, abs=1e-12)


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
    # |theta| at 0 has slope |d| in every direction: S = {0}, so the
    # condition holds vacuously, and an uncertified beta is said so.
    problem = _one_layer(ex.theta(0), ex.vabs(ex.uref(1, 0)))
    z = eval_layers(problem, np.zeros(1))
    cfg = build_config(problem, beta=np.array([2.0]), seed=0)
    uncertified = "beta not certified; critical directions may exceed the tangent cone"
    for certified, notes in ((True, [ZERO_SUBSPACE]), (False, [uncertified, ZERO_SUBSPACE])):
        out = check_strong_local_min_sufficient(problem, z, replace(cfg, certified=certified))
        assert (out["verdict"], out["notes"]) == ("sufficient-holds", notes)
        assert out["margin_min"] is None


@pytest.mark.filterwarnings("ignore:outer function evaluated")
def test_strong_minimum_check_refuses_an_infeasible_point():
    # Theta = 4 - (u - 1)^2 + theta^2 + |u - theta| / 2 at theta = 0.25,
    # u = 1.25 (residual 1) has zero slope in every direction, but it is a
    # saddle: Theta falls from 4.5 to 4.499999 at u +- 1e-3.  P0's tangent
    # model there would read S = {0} and hold the sufficient condition.
    g = ex.affine(4.0, [-1.0], [ex.square(ex.affine(-1.0, [1.0], [ex.uref(1, 0)]))])
    problem = CompositeProblem(1, (LayerMap(1, (ex.theta(0),)),), g, lam=1.0)
    beta = np.array([0.5])
    z = Point(np.array([0.25]), (np.array([1.25]),))
    for du in (1e-3, -1e-3):
        assert eval_Theta(problem, Point(z.theta, (z.u[0] + du,)), beta) < eval_Theta(problem, z, beta)
    cfg = build_config(problem, beta=beta, seed=0)
    with pytest.raises(InfeasiblePointError, match=r"max residual 1\.000e\+00"):
        check_strong_local_min_sufficient(problem, z, cfg)


def test_box_sampled_critical_route():
    # x = 0 sits on the lower face, so the exact quadratic-form route is closed
    sq = ex.square(ex.theta(0))
    zero, one = np.zeros(1), np.ones(1)
    r = check_box(sq, zero, zero, one, order=2, seed=0)
    assert (r.verdict, r.mode, r.min_found) == (STATIONARY, "sample", 2.0)
    r = check_box(ex.scaled(-1.0, sq), zero, zero, one, order=2, seed=0)
    assert (r.verdict, r.mode, r.min_found, r.witness_value) == (NOT_STATIONARY, "sample", -2.0, -2.0)


@cache
def _trained_random(seed):
    """random_problem(seed), trained from theta = 0 under beta 0.7 and polished, and beta."""
    problem = random_problem(seed)
    beta = np.full(problem.L, 0.7)
    res = minimize_theta(problem, beta, SolveConfig(max_iters=100, seed=seed))
    return problem, polish_to_feasible(problem, res.z, beta)[0], beta


def _sampled(problem, z, first, beta):
    """The seeded pool's verdict over R^n: the route taken when S is unknown."""
    return stationarity._second_order(problem, z, first, beta, 0, (None, None, 0, "reference"))


@pytest.mark.filterwarnings("ignore:outer function evaluated")
def test_exact_second_order_agrees_with_the_sampled_search():
    # Trained random problems and desk RNNs.  Wherever the quadratic form on
    # the critical subspace decides, the pool over all of R^n reads the same
    # verdict, so no exact `stationary` meets a confirmed pool witness.
    points = [_trained_random(seed) for seed in range(60)]
    for seed in range(10):
        problem, config, (_, trained) = _desk_points(seed)
        points.append((problem, trained, config.beta))
        # The dead network: its slope c is below CRIT_SLACK, so S is R^22,
        # and F''s smallest eigenvalue on it is 2 lam.
        out = compare_sets_on_point(problem, trained, config)
        for r in (out["sd0"], out["sd1"]):
            assert (r.verdict, r.mode, r.samples, r.notes) == (STATIONARY, "exact", 253 + 8, [])
            assert r.min_found == pytest.approx(0.2, abs=1e-12)
    decided = 0
    for problem, z, beta in points:
        if not residuals(problem, z).feasible:
            continue
        first0 = check_d_stationary_P0(problem, z)
        if first0.verdict != STATIONARY:
            continue
        form = stationarity._critical_form(problem, z, 0, pieces.psi_prime_model(problem, z.theta))
        for first, b in ((first0, None), (check_d_stationary_P1(problem, z, beta), beta)):
            r = stationarity._second_order(problem, z, first, b, 0, form)
            if first.verdict != STATIONARY or r.mode != "exact":
                continue
            decided += 1
            ref = _sampled(problem, z, first, b)
            assert r.verdict == ref.verdict, (first.target, r, ref)
    assert decided >= 70


@pytest.mark.filterwarnings("ignore:outer function evaluated")
def test_critical_basis_spans_the_tie_algebra_subspace():
    # Every feasible P0-stationary point among random problems at theta = 0,
    # at 0.5 N(0, I) and trained, and desk RNNs at the lift and trained: the
    # abs-normal reader and the tie algebra find the same S, or both none.
    points = []
    for seed in range(60):
        problem = random_problem(seed)
        th = 0.5 * np.random.default_rng(seed).standard_normal(problem.n)
        points += [(problem, eval_layers(problem, np.zeros(problem.n))), (problem, eval_layers(problem, th))]
        points.append(_trained_random(seed)[:2])
    for seed in range(10):
        problem, _, desk = _desk_points(seed)
        points += [(problem, z) for z in desk]
    compared, unknown, weighted = 0, 0, 0
    for problem, z in points:
        if not residuals(problem, z).feasible or check_d_stationary_P0(problem, z).verdict != STATIONARY:
            continue
        model, obj = pieces.psi_prime_model(problem, z.theta)
        B, ref = model.critical_basis(obj), tie_basis(model, obj)
        compared += 1
        weighted += bool(np.any(obj[problem.n :]))
        if ref is None:
            assert B is None
            unknown += 1
            continue
        assert B is not None and B.shape == ref.shape
        np.testing.assert_allclose(B @ B.T, ref @ ref.T, rtol=0.0, atol=1e-10)
    assert (compared, unknown, weighted) == (84, 7, 18)


def test_second_order_at_a_tie_whose_critical_cone_is_a_half_line():
    # g = |u| - u - u^2 with u = theta, at 0: phi1 = |d| - d >= 0 vanishes
    # on d >= 0, a half-line, not the subspace {0} that the tie's row cuts.
    # Its multiplier sits on the boundary, so S stays unknown and the pool
    # finds the curvature -2 + 2 lam = -1.8 along d = 1.
    u = ex.uref(1, 0)
    problem = _one_layer(ex.theta(0), ex.sub(ex.vabs(u), ex.add(u, ex.square(u))))
    z = eval_layers(problem, np.zeros(1))
    for target in ("lifted", "penalized"):
        r = check_second_order(problem, z, target, beta=[1.0], seed=0)
        assert (r.verdict, r.mode, r.notes) == (
            NOT_STATIONARY,
            "sample",
            ["sampled: critical subspace unknown"],
        )
        assert r.witness_value == pytest.approx(-1.8, abs=1e-12)
        assert r.witness.dtheta[0] > 0.0


@pytest.mark.parametrize("cap", [stationarity._MAX_COLS, 7])
def test_quadratic_form_is_read_in_calls_of_at_most_the_cap(monkeypatch, cap):
    # phi2 = d' A d on span(B), B an orthonormal 9 x 5 basis: 15 polarization
    # columns, three calls at a cap of 7.  A flagged column or a second
    # derivative that is not quadratic on span(B) gives no form.
    monkeypatch.setattr(stationarity, "_MAX_COLS", cap)
    rng = np.random.default_rng(0)
    S = rng.standard_normal((9, 9))
    A = S + S.T
    B = np.linalg.qr(rng.standard_normal((9, 5)))[0]
    widths = []

    def second(D, flag=lambda D: np.zeros(D.shape[1], bool), extra=0.0):
        widths.append(D.shape[1])
        return np.einsum("im,ij,jm->m", D, A, D) + extra * np.abs(D[0]), flag(D)

    Q, columns, reason = stationarity._quadratic_form(second, B, 0)
    assert (columns, reason) == (15 + 8, None)
    assert max(widths[:-1]) <= cap and sum(widths[:-1]) == 15 and widths[-1] == 8  # then the probes
    np.testing.assert_allclose(Q, B.T @ A @ B, atol=1e-12)
    one_flag = lambda D: np.arange(D.shape[1]) == 3  # noqa: E731
    flagged = stationarity._quadratic_form(lambda D: second(D, flag=one_flag), B, 0)
    assert flagged == (None, 15, "quadratic form has unsupported second derivatives")
    kinked = stationarity._quadratic_form(lambda D: second(D, extra=1.0), B, 0)
    assert kinked == (None, 15 + 8, "quadratic form misfits its probes")
    # The eigenvector is mapped through the basis and turned so that its
    # largest entry is positive.
    lam, v = stationarity._lowest(-np.eye(2), np.diag([-1.0, 1.0]))
    assert (lam, v.tolist()) == (-1.0, [1.0, 0.0])
