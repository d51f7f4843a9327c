"""Problem containers, evaluation, residuals, and the reference level."""

import numpy as np
import pytest

from conftest import random_problem
from mcpen import expr as ex
from mcpen.cones import lift_direction, tangent_membership
from mcpen.dcalc import zeros_direction
from mcpen.model import (
    FEAS_TOL,
    CompositeProblem,
    DimensionError,
    InfeasiblePointError,
    LayerMap,
    Point,
    check_beta,
    check_point,
    eval_F,
    eval_g,
    eval_layers,
    eval_Psi_plus_reg,
    eval_Theta,
    point_from_flat,
    reference_point_and_level,
    residuals,
    split_flat,
)
from mcpen.stationarity import check_d_stationary_P0, check_second_order


def test_shapes_and_widths(square_chain):
    p = square_chain
    assert p.n == 1
    assert p.L == 2
    assert p.widths == (1, 1)
    assert p.nbar == 1 + 2


def test_eval_layers_feasible_by_construction(square_chain):
    th = np.array([0.7])
    z = eval_layers(square_chain, th)
    assert z.u[0][0] == pytest.approx(0.7)
    assert z.u[1][0] == pytest.approx(0.49)
    r = residuals(square_chain, z)
    assert r.feasible
    assert r.max_abs <= FEAS_TOL


def test_nested_equals_lifted_on_the_manifold(square_chain):
    th = np.array([-0.3])
    z = eval_layers(square_chain, th)
    assert eval_F(square_chain, z) == pytest.approx(eval_Psi_plus_reg(square_chain, th))


def test_theta_penalizes_residuals(square_chain):
    z = Point(np.zeros(1), (np.array([0.5]), np.array([0.0])))
    beta = np.array([1.0, 0.6])
    # residuals 0.5 and -0.25; g lands at zero after the plus clips
    assert eval_Theta(square_chain, z, beta) == pytest.approx(0.65)
    r = residuals(square_chain, z)
    assert not r.feasible
    assert r.per_layer[0][0] == pytest.approx(0.5)
    assert r.per_layer[1][0] == pytest.approx(-0.25)


def test_point_flat_round_trip(square_chain):
    z = Point(np.array([0.3]), (np.array([1.0]), np.array([-2.0])))
    v = z.flat()
    z2 = point_from_flat(square_chain, v)
    assert np.array_equal(z2.theta, z.theta)
    assert all(np.array_equal(a, b) for a, b in zip(z2.u, z.u))
    # An (nbar, m) matrix splits into blocks of m columns, one point per column.
    for seed in range(6):
        p = random_problem(seed)
        M = np.random.default_rng(seed).normal(size=(p.nbar, 3))
        th, blocks = split_flat(p, M)
        assert th.shape == (p.n, 3) and [b.shape for b in blocks] == [(w, 3) for w in p.widths]
        for j in range(3):
            zj = point_from_flat(p, M[:, j])
            assert np.array_equal(th[:, j], zj.theta)
            assert all(np.array_equal(b[:, j], u) for b, u in zip(blocks, zj.u))
            assert np.array_equal(zj.flat(), M[:, j])
        with pytest.raises(DimensionError):
            split_flat(p, np.zeros((p.nbar + 1, 3)))


def test_check_point_rejects_bad_shapes(square_chain):
    with pytest.raises(DimensionError):
        check_point(square_chain, Point(np.zeros(2), (np.zeros(1), np.zeros(1))))
    with pytest.raises(DimensionError):
        check_point(square_chain, Point(np.zeros(1), (np.zeros(2), np.zeros(1))))
    with pytest.raises(DimensionError):
        check_point(square_chain, Point(np.zeros(1), (np.zeros(1),)))


def test_check_beta_validates(square_chain):
    b = check_beta(square_chain, [1.0, 0.5])
    assert b.shape == (2,)
    with pytest.raises(Exception):
        check_beta(square_chain, [1.0])
    with pytest.raises(Exception):
        check_beta(square_chain, [1.0, -0.5])


def test_outer_may_not_reference_theta():
    with pytest.raises(Exception):
        CompositeProblem(
            n=1,
            layers=(LayerMap(index=1, exprs=(ex.theta(0),)),),
            outer=ex.add(ex.uref(1, 0), ex.theta(0)),
            lam=0.0,
        )


def test_layer_indices_must_be_consecutive():
    with pytest.raises(Exception):
        CompositeProblem(
            n=1,
            layers=(LayerMap(index=2, exprs=(ex.theta(0),)),),
            outer=ex.uref(1, 0),
            lam=0.0,
        )


def test_reference_point_and_level(square_chain):
    beta = np.array([1.0, 0.6])
    z0, gamma = reference_point_and_level(square_chain, beta)
    assert np.array_equal(z0.theta, np.zeros(1))
    r = residuals(square_chain, z0)
    assert r.feasible
    assert gamma == pytest.approx(eval_Theta(square_chain, z0, beta))
    assert gamma == pytest.approx(1e-4)


def test_reference_level_custom_start(square_chain):
    beta = np.array([1.0, 0.6])
    z0, gamma = reference_point_and_level(square_chain, beta, theta0=np.array([0.5]))
    assert z0.theta[0] == 0.5
    assert residuals(square_chain, z0).feasible
    assert gamma > 1e-4


def test_eval_g_uses_only_blocks(square_chain):
    z = eval_layers(square_chain, np.array([2.0]))
    g1 = eval_g(square_chain, z.u)
    g2 = eval_g(square_chain, [b.copy() for b in z.u])
    assert g1 == g2


@pytest.mark.filterwarnings("ignore:outer function evaluated")
def test_random_problems_evaluate():
    from conftest import random_problem

    for seed in range(30):
        p = random_problem(seed)
        th = np.random.default_rng(seed).normal(size=p.n)
        z = eval_layers(p, th)
        assert residuals(p, z).feasible
        assert np.isfinite(eval_F(p, z))


@pytest.mark.parametrize(
    "call",
    [
        pytest.param(lambda p, z: tangent_membership(p, z, zeros_direction(p)), id="tangent"),
        pytest.param(lambda p, z: lift_direction(p, z, np.ones(p.n)), id="lift"),
        pytest.param(lambda p, z: check_d_stationary_P0(p, z), id="P0"),
        pytest.param(lambda p, z: check_second_order(p, z, "lifted"), id="second-lifted"),
        pytest.param(
            lambda p, z: check_second_order(p, z, "penalized", beta=[1.0, 0.6]),
            id="second-penalized",
        ),
    ],
)
def test_feasible_only_entry_points_reject_infeasible_points(square_chain, call):
    z = Point(np.zeros(1), (np.array([0.5]), np.array([0.0])))
    with pytest.raises(InfeasiblePointError, match=r"max residual 5\.000e-01"):
        call(square_chain, z)
