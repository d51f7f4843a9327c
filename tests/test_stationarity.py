"""Stationarity verdicts of both orders, for both formulations."""

import numpy as np
import pytest

from mcpen import expr as ex
from mcpen.dcalc import dd_Theta, direction_from_flat
from mcpen.model import CompositeProblem, LayerMap, Point, eval_layers
from mcpen.penalty import build_config
from mcpen.pieces import TooManyPieces
from mcpen.stationarity import (
    INCONCLUSIVE,
    NOT_STATIONARY,
    STATIONARY,
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


def test_p1_fallback_to_sampling_says_why(rnn_problem):
    th = 0.1 * np.random.default_rng(0).standard_normal(rnn_problem.n)
    z = eval_layers(rnn_problem, th)
    rep = check_d_stationary_P1(rnn_problem, z, [5.0] * rnn_problem.L, n_starts=2, iters=24)
    assert rep.mode == "sample"
    assert rep.notes[0] == f"fell back to sampling: {2**24} pieces exceed the limit of {2**20}"
    with pytest.raises(TooManyPieces):
        check_d_stationary_P1(rnn_problem, z, [5.0] * rnn_problem.L, mode="enumerate")
