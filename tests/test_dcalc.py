"""Directional derivatives against independent difference quotients."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import draw_oracle_case
from mcpen import expr as ex
from mcpen.dcalc import (
    Direction,
    dd_expr,
    dd_F,
    dd_Psi,
    dd_Theta,
    direction_from_flat,
    fd_oracle,
    index_sets,
    lift_first,
    ray_quotients,
    zeros_direction,
)
from mcpen.model import Point, eval_layers, eval_Psi_plus_reg, eval_Theta, split_flat

pytestmark = pytest.mark.filterwarnings("ignore:outer function evaluated")


def test_dd_expr_smooth_polynomial():
    e = ex.mul(ex.theta(0), ex.square(ex.theta(1)))
    x = np.array([2.0, 3.0])
    d = np.array([1.0, -1.0])
    v = dd_expr(e, x, d, order=2)
    # f = x0 x1^2: grad (9, 12), Hessian [[0,6],[6,4]] at (2,3)
    assert v.value == pytest.approx(18.0)
    assert v.first == pytest.approx(-3.0)
    assert v.second == pytest.approx(-8.0)
    assert v.smooth


def test_dd_expr_abs_kink_both_sides():
    e = ex.vabs(ex.theta(0))
    assert dd_expr(e, np.zeros(1), np.array([2.0])).first == 2.0
    assert dd_expr(e, np.zeros(1), np.array([-2.0])).first == 2.0
    assert not dd_expr(e, np.zeros(1), np.array([2.0])).smooth


def test_dd_expr_second_gate_reports_reason():
    e = ex.square(ex.vabs(ex.theta(0)))
    v = dd_expr(e, np.zeros(1), np.ones(1), order=2)
    assert v.second is None
    assert v.second_reason


def test_dd_psi_equals_dd_f_on_lifted_direction(square_chain):
    th = np.array([0.4])
    z = eval_layers(square_chain, th)
    dth = np.array([[1.0]])
    du = lift_first(square_chain, th, dth)
    d = Direction(dth[:, 0], tuple(b[:, 0] for b in du))
    a = dd_Psi(square_chain, th, dth[:, 0], order=2)
    b = dd_F(square_chain, z, d, order=2)
    assert a.first == pytest.approx(b.first, abs=1e-12)
    if a.second is not None and b.second is not None:
        assert a.second == pytest.approx(b.second, abs=1e-10)


def test_dd_theta_reduces_to_dd_f_when_feasible_and_tangent(square_chain):
    th = np.array([0.4])
    z = eval_layers(square_chain, th)
    dth = np.array([[1.0]])
    du = lift_first(square_chain, th, dth)
    d = Direction(dth[:, 0], tuple(b[:, 0] for b in du))
    beta = np.array([1.0, 0.6])
    t = dd_Theta(square_chain, z, d, beta, order=1)
    f = dd_F(square_chain, z, d, order=1)
    assert t.first == pytest.approx(f.first, abs=1e-12)


def test_dd_theta_penalty_slope_off_manifold(square_chain):
    # feasible point, direction that breaks only the first equation:
    # residual derivative is du1 - dtheta = 1, so the beta1 term kicks in
    th = np.array([0.4])
    z = eval_layers(square_chain, th)
    d = Direction(np.zeros(1), (np.array([1.0]), np.array([2 * 0.4 * 1.0])))
    beta = np.array([1.0, 0.6])
    t = dd_Theta(square_chain, z, d, beta, order=1)
    f = dd_F(square_chain, z, d, order=1)
    assert t.first == pytest.approx(f.first + 1.0, abs=1e-12)


def test_index_sets_classify_residual_signs(square_chain):
    z = Point(np.zeros(1), (np.array([0.5]), np.array([0.0])))
    s = index_sets(square_chain, z)
    assert list(s.plus[0]) == [0]
    assert list(s.minus[1]) == [0]
    z0 = eval_layers(square_chain, np.zeros(1))
    s0 = index_sets(square_chain, z0)
    assert list(s0.zero[0]) == [0]
    assert list(s0.zero[1]) == [0]


def test_direction_round_trip(square_chain):
    d = Direction(np.array([1.0]), (np.array([2.0]), np.array([3.0])))
    v = d.flat()
    d2 = direction_from_flat(square_chain, v)
    assert np.array_equal(d2.dtheta, d.dtheta)
    assert all(np.array_equal(a, b) for a, b in zip(d2.du, d.du))
    # Columns of an (nbar, m) matrix split like the flat directions they hold,
    # and the split is a view: writing a block writes the matrix.
    M = np.column_stack([v, -2.0 * v])
    dth, dus = split_flat(square_chain, M)
    for j in range(2):
        dj = direction_from_flat(square_chain, M[:, j])
        assert np.array_equal(dth[:, j], dj.dtheta)
        assert all(np.array_equal(b[:, j], a) for b, a in zip(dus, dj.du))
    dus[1][0, 1] = 7.0
    assert M[2, 1] == 7.0
    v[2] = 9.0
    assert d2.du[1][0] == 3.0  # direction_from_flat copies
    z = zeros_direction(square_chain)
    assert z.norm() == 0.0


@settings(max_examples=40, deadline=None)
@given(t=st.floats(0.0, 8.0, allow_nan=False), seed=st.integers(0, 50))
def test_dd_psi_positive_homogeneity(t, seed):
    case = draw_oracle_case(seed)
    if case is None:
        return
    problem, th, d = case
    base = dd_Psi(problem, th, d, order=1).first
    scaled_ = dd_Psi(problem, th, t * d, order=1).first
    assert scaled_ == pytest.approx(t * base, abs=1e-8 * (1 + abs(t * base)))


def test_oracle_agreement_first_order_100_cases():
    agreed = 0
    checked = 0
    converged = 0
    seed = 0
    while agreed < 100 and seed < 400:
        case = draw_oracle_case(seed)
        seed += 1
        if case is None:
            continue
        problem, th, d = case
        val = dd_Psi(problem, th, d, order=1)
        f = lambda t: eval_Psi_plus_reg(problem, t)
        orc = fd_oracle(f, th, d, order=1, tau0=1e-3)
        checked += 1
        if not orc.converged:
            continue
        converged += 1
        assert abs(val.first - orc.value) <= 1e-5 * (1 + abs(val.first)), (
            f"seed {seed - 1}: dd={val.first} oracle={orc.value}"
        )
        agreed += 1
    assert agreed >= 100
    assert converged >= 0.9 * checked


def test_oracle_agreement_second_order_where_supported():
    agreed = 0
    seed = 1000
    while agreed < 60 and seed < 1500:
        case = draw_oracle_case(seed)
        seed += 1
        if case is None:
            continue
        problem, th, d = case
        val = dd_Psi(problem, th, d, order=2)
        if val.second is None:
            continue
        f = lambda t: eval_Psi_plus_reg(problem, t)
        orc = fd_oracle(f, th, d, order=2, tau0=1e-3)
        if not orc.converged:
            continue
        assert abs(val.second - orc.value) <= 1e-4 * (1 + abs(val.second)), (
            f"seed {seed - 1}: dd2={val.second} oracle={orc.value}"
        )
        agreed += 1
    assert agreed >= 60


def test_oracle_agreement_theta_along_unfeasible_rays(square_chain):
    # Theta is piecewise smooth in z; spot-check the expansion at an
    # infeasible point against raw quotients of Theta itself
    beta = np.array([1.0, 0.6])
    rng = np.random.default_rng(7)
    for _ in range(20):
        z = Point(rng.normal(size=1) * 0.3, tuple(rng.normal(size=1) * 0.3 for _ in range(2)))
        v = rng.normal(size=square_chain.nbar)
        v /= np.linalg.norm(v)
        d = direction_from_flat(square_chain, v)
        val = dd_Theta(square_chain, z, d, beta, order=1)
        f = lambda w: eval_Theta(
            square_chain,
            Point(w[:1], (w[1:2], w[2:3])),
            beta,
        )
        orc = fd_oracle(f, z.flat(), v, order=1, tau0=1e-4)
        if orc.converged:
            assert abs(val.first - orc.value) <= 1e-5 * (1 + abs(val.first))


def test_fd_oracle_survives_roundoff_plateau():
    # quotients of t^2 sit on a roundoff plateau below t ~ 1e-7; the
    # extrapolation must not mistake the plateau for convergence
    f = lambda p: float(p[0] ** 2)
    orc = fd_oracle(f, np.zeros(1), np.ones(1), order=2)
    assert orc.converged
    assert orc.value == pytest.approx(2.0, abs=1e-6)


def test_fd_oracle_reports_nonconvergence():
    rng = np.random.default_rng(0)
    f = lambda p: float(rng.normal())
    orc = fd_oracle(f, np.zeros(1), np.ones(1), order=1)
    assert not orc.converged


def test_two_path_quotients_disagree_at_second_order(abs_cubic):
    # fixed-direction curvature exists while moving-direction quotients
    # split; this is the canonical non-twice-semidifferentiable case
    x = np.array([1.0, 1.0])
    d = np.array([3.0, 1.0])
    v = dd_expr(abs_cubic, x, d, order=2)
    assert v.first == 0.0
    assert v.second == pytest.approx(6.0, abs=1e-9)
    f = lambda p: ex.eval_one(abs_cubic, p, [])
    first_fn = lambda vv: dd_expr(abs_cubic, x, vv, order=1).first
    taus = [1e-2 * 0.5**k for k in range(14)]
    qp = ray_quotients(f, x, lambda t: np.array([3.0 + 4 * t, 1.0]), first_fn, taus, order=2)
    qm = ray_quotients(f, x, lambda t: np.array([3.0 - 4 * t, 1.0]), first_fn, taus, order=2)
    assert qp[-1] == pytest.approx(-6.0, abs=1e-3)
    assert qm[-1] == pytest.approx(6.0, abs=1e-3)
