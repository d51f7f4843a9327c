"""Moduli, thresholds, certification, and the constructive descent direction."""

import numpy as np
import pytest

from conftest import negative_outer_problem
from mcpen.dcalc import dd_Theta
from mcpen.model import (
    FEAS_TOL,
    Point,
    eval_layers,
    eval_Theta,
    reference_point_and_level,
    residuals,
)
from mcpen.penalty import (
    BETA_FLOOR,
    build_config,
    certify,
    check_exactness_feasibility,
    estimate_moduli,
    feasibility_descent_direction,
    suggest_beta,
    thresholds,
)
from mcpen.rnn import build_problem, desk_instance, rnn_penalty_config


def test_thresholds_suffix_products():
    t = thresholds(2.0, [0.5, 1.0, 3.0])
    # t_l = K_g prod_{j>l} (1 + K_j), last one K_g itself
    assert t[3] == pytest.approx(2.0)
    assert t[2] == pytest.approx(2.0 * 4.0)
    assert t[1] == pytest.approx(2.0 * 2.0 * 4.0)
    assert t[0] == pytest.approx(2.0 * 1.5 * 2.0 * 4.0)


def test_thresholds_single_layer_is_bare_modulus():
    t = thresholds(1.7, [])
    assert t.shape == (1,)
    assert t[0] == 1.7


def test_certify_is_strict():
    assert certify([2.0, 1.0], [1.0, 0.5])
    assert not certify([1.0, 0.5], [1.0, 0.5])
    assert not certify([2.0, 0.5], [1.0, 0.5])


def test_suggest_beta_safety_and_floor():
    b = suggest_beta([2.0, 0.0])
    assert b[0] == pytest.approx(2.1)
    assert b[1] == BETA_FLOOR
    assert certify(b, [2.0, 0.0])


def test_sampled_moduli_bound_square_chain(square_chain):
    beta = np.array([1.0, 0.6])
    _, gamma = reference_point_and_level(square_chain, beta)
    K_g, K, heuristic = estimate_moduli(square_chain, beta, gamma, seed=0)
    assert heuristic
    # hand bounds on the inflated level set for this tiny instance
    assert 0.0 < K_g <= 0.5386
    assert 0.0 < K[0] <= 0.21


def test_build_config_certifies_square_chain(square_chain):
    cfg = build_config(square_chain, beta=np.array([1.0, 0.6]), seed=0)
    assert cfg.certified
    assert cfg.thresholds[0] < 1.0
    assert cfg.thresholds[1] < 0.6
    assert cfg.gamma_bar == pytest.approx(1e-4)


def test_build_config_suggests_when_beta_missing(square_chain):
    cfg = build_config(square_chain, beta=None, seed=0)
    assert cfg.certified
    assert np.all(cfg.beta > cfg.thresholds)


def test_rnn_closed_form_moduli_not_heuristic(rnn_spec):
    cfg = rnn_penalty_config(rnn_spec)
    assert not cfg.heuristic
    assert cfg.certified
    problem = build_problem(rnn_spec)
    K_g, K, heuristic = estimate_moduli(problem)
    assert not heuristic
    assert K_g == pytest.approx(cfg.K_g, abs=1e-12)


@pytest.mark.filterwarnings("ignore:outer function evaluated", "ignore:overflow encountered")
def test_level_without_a_sampling_box_is_rejected(square_chain):
    with pytest.raises(ValueError, match="gamma_bar = -1.0"):
        build_config(negative_outer_problem())
    # Exactly the levels whose box [-r, r], r = sqrt(gamma_bar/lambda), is no
    # valid interval: negative (or signed zero), NaN, or infinite.
    for bad in (-1e-3, -0.0, np.nan, np.inf, np.finfo(float).max):
        with pytest.raises(ValueError, match="gamma_bar"):
            estimate_moduli(square_chain, gamma_bar=bad, budget=10)
    for fine in (0.0, 1e300):
        estimate_moduli(square_chain, gamma_bar=fine, budget=10)


def _random_infeasible_in_level(problem, beta, gamma, rng, scale=1e-5):
    for _ in range(200):
        th = rng.normal(size=problem.n) * 0.05
        z_exact = eval_layers(problem, th)
        noise = [rng.normal(size=b.shape) * scale for b in z_exact.u]
        z = Point(th, tuple(b + e for b, e in zip(z_exact.u, noise)))
        r = residuals(problem, z)
        if r.max_abs <= FEAS_TOL:
            continue
        if eval_Theta(problem, z, beta) <= gamma:
            return z
        scale *= 0.5
    return None


def test_constructed_descent_square_chain(square_chain):
    beta = np.array([1.0, 0.6])
    _, gamma = reference_point_and_level(square_chain, beta)
    rng = np.random.default_rng(0)
    found = 0
    for _ in range(25):
        z = _random_infeasible_in_level(square_chain, beta, gamma, rng)
        if z is None:
            continue
        d = feasibility_descent_direction(square_chain, z)
        slope = dd_Theta(square_chain, z, d, beta, order=1).first
        assert slope < 0.0, f"slope {slope} at residual {residuals(square_chain, z).max_abs}"
        found += 1
    assert found >= 20


def test_constructed_descent_rnn(rnn_spec):
    problem = build_problem(rnn_spec)
    cfg = rnn_penalty_config(rnn_spec)
    _, gamma = reference_point_and_level(problem, cfg.beta)
    rng = np.random.default_rng(1)
    found = 0
    for _ in range(25):
        z = _random_infeasible_in_level(problem, cfg.beta, gamma, rng, scale=1e-4)
        if z is None:
            continue
        d = feasibility_descent_direction(problem, z)
        slope = dd_Theta(problem, z, d, cfg.beta, order=1).first
        assert slope < 0.0
        found += 1
    assert found >= 20


def test_descent_direction_rejects_feasible_point(square_chain):
    z = eval_layers(square_chain, np.array([0.2]))
    with pytest.raises(ValueError):
        feasibility_descent_direction(square_chain, z)


def test_descent_direction_closes_chosen_layer(square_chain):
    z = Point(np.zeros(1), (np.array([0.5]), np.array([0.0])))
    d = feasibility_descent_direction(square_chain, z, layer=1)
    assert np.array_equal(d.dtheta, np.zeros(1))
    assert d.du[0][0] == pytest.approx(-0.5)


def test_exactness_cross_check_feasible(square_chain):
    beta = np.array([1.0, 0.6])
    cfg = build_config(square_chain, beta=beta, seed=0)
    z0, _ = reference_point_and_level(square_chain, beta)
    out = check_exactness_feasibility(square_chain, z0, cfg)
    assert out["consistent"]
    assert out["feasible"]
    assert out["in_level_set"]


def test_exactness_cross_check_out_of_level(square_chain):
    beta = np.array([1.0, 0.6])
    cfg = build_config(square_chain, beta=beta, seed=0)
    z = Point(np.array([2.0]), (np.array([5.0]), np.array([1.0])))
    out = check_exactness_feasibility(square_chain, z, cfg)
    assert not out["in_level_set"]
    assert any("level set" in note for note in out["diagnostics"])
