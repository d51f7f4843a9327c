"""Tangent and radial cone membership."""

import numpy as np
import pytest

from conftest import half_square_chain, random_problem
from walkers import degree
from mcpen import expr as ex
from mcpen.cones import (
    LIFT_TOL,
    TANGENT_TOL,
    lift_direction,
    radial_membership,
    ray_decidable,
    tangent_membership,
)
from mcpen.dcalc import Direction
from mcpen.model import CompositeProblem, EvaluationError, LayerMap, eval_layers

pytestmark = pytest.mark.filterwarnings("ignore:outer function evaluated")


def _random_case(seed):
    rng = np.random.default_rng(seed)
    problem = random_problem(int(rng.integers(0, 2**31)))
    th = rng.uniform(-1.0, 1.0, size=problem.n)
    z = eval_layers(problem, th)
    dth = rng.normal(size=problem.n)
    nd = np.linalg.norm(dth)
    if nd > 1e-9:
        dth = dth / nd
    return problem, z, dth, rng


def test_lifted_directions_pass(square_chain):
    rng = np.random.default_rng(0)
    for _ in range(20):
        th = rng.uniform(-1, 1, size=1)
        z = eval_layers(square_chain, th)
        d = lift_direction(square_chain, z, rng.normal(size=1))
        m = tangent_membership(square_chain, z, d)
        assert m.in_tangent
        assert m.max_violation <= LIFT_TOL


def test_lifted_directions_pass_random_instances():
    passed = 0
    seed = 0
    while passed < 100 and seed < 300:
        problem, z, dth, rng = _random_case(seed)
        seed += 1
        d = lift_direction(problem, z, dth)
        if not np.all(np.isfinite(d.flat())):
            continue
        m = tangent_membership(problem, z, d)
        assert m.in_tangent, f"seed {seed - 1}: violation {m.max_violation}"
        assert m.max_violation <= 1e-12 * max(1.0, d.norm())
        passed += 1
    assert passed >= 100


def test_single_block_perturbations_fail_localized():
    failed = 0
    seed = 0
    while failed < 100 and seed < 400:
        problem, z, dth, rng = _random_case(seed)
        seed += 1
        d = lift_direction(problem, z, dth)
        flat = d.flat()
        if not np.all(np.isfinite(flat)) or np.linalg.norm(flat) > 1e6:
            continue
        k = int(rng.integers(1, problem.L + 1))
        width = problem.widths[k - 1]
        noise = rng.normal(size=width)
        noise *= 1e-3 / max(np.linalg.norm(noise), 1e-12)
        du = [b.copy() for b in d.du]
        du[k - 1] = du[k - 1] + noise
        bad = Direction(d.dtheta.copy(), tuple(du))
        m = tangent_membership(problem, z, bad)
        if m.in_tangent:
            # derivative insensitive to this block (e.g. dead relu input);
            # not a counterexample to localization, draw again
            continue
        first_violated = next(
            j + 1
            for j, v in enumerate(m.violations)
            if float(np.max(np.abs(v), initial=0.0)) > TANGENT_TOL
        )
        assert first_violated == k, f"seed {seed - 1}: perturbed {k}, violated {first_violated}"
        failed += 1
    assert failed >= 100


def test_ray_decidable_recognizes_degrees(square_chain, relu_ridge):
    assert ray_decidable(square_chain)
    # squaring a bilinear term gives degree 4, outside the decidable class
    assert not ray_decidable(relu_ridge)
    quartic = CompositeProblem(
        n=1,
        layers=(LayerMap(index=1, exprs=(ex.square(ex.square(ex.theta(0))),)),),
        outer=ex.uref(1, 0),
        lam=0.1,
    )
    assert not ray_decidable(quartic)


def test_ray_decidable_matches_the_recursive_degree_bound():
    # the bound folded over the fixed tape's graph against the recursion over each map
    verdicts = []
    for seed in range(200):
        p = random_problem(seed)
        verdicts.append(ray_decidable(p))
        assert verdicts[-1] == all(degree(e) <= 2 for lm in p.layers for e in lm.exprs), seed
    assert 0 < sum(verdicts) < len(verdicts)


def test_radial_requires_vanishing_curvature(square_chain):
    z = eval_layers(square_chain, np.zeros(1))
    d = lift_direction(square_chain, z, np.array([1.0]))
    m = radial_membership(square_chain, z, d)
    # the squaring layer bends: u2 must gain 2 t^2 dtheta^2, no ray does
    assert m.in_tangent
    assert m.in_radial is False


def _linear_ray():
    """A one-layer affine instance, a point and a lifted direction: every ray is feasible."""
    problem = CompositeProblem(
        n=2,
        layers=(
            LayerMap(
                index=1,
                exprs=(
                    ex.affine(0.0, [1.0, -1.0], [ex.theta(0), ex.theta(1)]),
                    ex.affine(0.5, [2.0], [ex.theta(1)]),
                ),
            ),
        ),
        outer=ex.sqnorm(ex.uref(1, 0), ex.uref(1, 1)),
        lam=0.05,
    )
    z = eval_layers(problem, np.array([0.3, -0.2]))
    return problem, z, lift_direction(problem, z, np.array([1.0, 2.0]))


def _quartic_ray():
    """u_1 = theta^4 at 0 along theta: curvature vanishes, but degree 4 is not decidable."""
    quartic = CompositeProblem(
        n=1,
        layers=(LayerMap(index=1, exprs=(ex.square(ex.square(ex.theta(0))),)),),
        outer=ex.uref(1, 0),
        lam=0.1,
    )
    z = eval_layers(quartic, np.array([0.0]))
    return quartic, z, lift_direction(quartic, z, np.array([1.0]))


def test_radial_holds_on_linear_instance():
    m = radial_membership(*_linear_ray())
    assert m.in_tangent
    assert m.in_radial is True


def test_radial_unknown_when_not_decidable():
    # degree 4 is outside the decidable class: the answer must be guarded
    m = radial_membership(*_quartic_ray())
    assert m.in_tangent
    assert m.in_radial is None
    assert m.notes == ["layer maps outside the decidable family; returning unknown"]


def test_radial_reads_the_branch_taken_just_past_zero_at_a_near_tie():
    # u1 = max(theta0, theta1 + 1e-11) at theta = 0 along dtheta = (1, 0): the
    # lift gives du1 = 0, and the residual along the ray, max(tau, 1e-11) - 1e-11,
    # is 0 for tau <= 1e-11, so the direction is radial.  From tau = 1e-11 on
    # the ray runs along a later piece, on which it leaves the feasible set.
    tie = ex.vmax(ex.theta(0), ex.affine(1e-11, [1.0], [ex.theta(1)]))
    problem = CompositeProblem(
        n=2, layers=(LayerMap(index=1, exprs=(tie,)),), outer=ex.square(ex.uref(1, 0)), lam=0.1
    )
    z = eval_layers(problem, np.zeros(2))
    d = lift_direction(problem, z, np.array([1.0, 0.0]))
    assert d.du[0].tolist() == [0.0]
    m = radial_membership(problem, z, d)
    assert (m.in_tangent, m.in_radial, m.notes) == (True, True, [])
    assert _ray_feasible(problem, z, d, 1e-12)
    assert not any(_ray_feasible(problem, z, d, tau) for tau in (1e-6, 1e-7, 1e-8))


def test_radial_unknown_when_a_second_derivative_is_not_finite():
    # at theta = 0 along dtheta = 1e200, psi_2'' = 1e400 is nonzero, so the
    # direction is not radial; it computes as inf - inf = NaN, which must not
    # read as a vanishing curvature
    problem = half_square_chain()
    z = eval_layers(problem, np.zeros(1))
    d = lift_direction(problem, z, np.array([1e200]))
    m = radial_membership(problem, z, d)
    assert (m.in_tangent, m.in_radial) == (True, None)
    assert m.notes == ["layer 2 second derivative not finite along d"]


@pytest.mark.parametrize("du2", [0.0, 1.0, -3e300])
def test_a_slope_that_is_not_finite_raises_naming_its_layer(du2):
    # at theta = 1e10 along du1 = 1e300, psi_2' = 2e310 - 1e310 computes as
    # inf - inf = NaN: no du2 can be called tangent, or refuted, from that
    problem = half_square_chain()
    z = eval_layers(problem, np.array([1e10]))
    d = Direction(np.array([1e300]), (np.array([1e300]), np.array([du2])))
    for membership in (tangent_membership, radial_membership):
        with pytest.raises(EvaluationError, match="^layer 2 first derivative not finite along d$") as err:
            membership(problem, z, d)
        assert err.value.layer == 2


def _pure_relu_problem():
    # two stacked rectifier layers over 3 parameters, polyhedral throughout
    layer1 = LayerMap(
        index=1,
        exprs=(
            ex.plus(ex.affine(0.0, [1.0, 1.0], [ex.theta(0), ex.theta(1)])),
            ex.plus(ex.affine(0.0, [1.0, -1.0], [ex.theta(1), ex.theta(2)])),
        ),
    )
    layer2 = LayerMap(
        index=2,
        exprs=(
            ex.plus(ex.affine(0.0, [1.0, -2.0], [ex.uref(1, 0), ex.uref(1, 1)])),
        ),
    )
    return CompositeProblem(
        n=3,
        layers=(layer1, layer2),
        outer=ex.sqnorm(ex.uref(2, 0)),
        lam=0.1,
    )


def _ray_feasible(problem, z, d, tau, tol=1e-9):
    from mcpen.model import Point, residuals

    w = Point(z.theta + tau * d.dtheta, tuple(u + tau * b for u, b in zip(z.u, d.du)))
    return residuals(problem, w).max_abs <= tol * max(1.0, tau)


def _relu_characterization(problem, z, d):
    # chain the one-sided linearization; membership means every u-block
    # matches it exactly (polyhedral maps: tangent equals radial)
    dth = np.asarray(d.dtheta, float).reshape(-1, 1)
    dus = []
    ok = True
    for k in range(1, problem.L + 1):
        cells = ex.taylor_cells(
            problem.layers[k - 1].exprs, z.theta, z.u, dth, dus, order=1
        )
        expected = np.array([float(c.first[0]) for c in cells])
        got = np.asarray(d.du[k - 1], float)
        if float(np.max(np.abs(got - expected), initial=0.0)) > TANGENT_TOL:
            ok = False
        dus.append(got.reshape(-1, 1))
    return ok


@pytest.mark.parametrize("theta0", [np.zeros(3), np.array([0.4, -0.4, 0.1])])
def test_pure_relu_grid_agrees_with_characterization(theta0):
    problem = _pure_relu_problem()
    z = eval_layers(problem, theta0)
    rng = np.random.default_rng(11)
    agree = 0
    total = 400
    for i in range(total):
        mode = i % 4
        dth = rng.normal(size=3)
        if mode == 0:
            d = lift_direction(problem, z, dth)
        elif mode == 1:
            d = lift_direction(problem, z, dth)
            flat = d.flat()
            flat[3 + int(rng.integers(0, 3))] += rng.normal() * 0.5
            from mcpen.dcalc import direction_from_flat

            d = direction_from_flat(problem, flat)
        else:
            from mcpen.dcalc import direction_from_flat

            d = direction_from_flat(problem, rng.normal(size=problem.nbar))
        m = radial_membership(problem, z, d)
        assert m.in_radial is not None, "polyhedral instance must be decidable"
        expected = _relu_characterization(problem, z, d)
        assert m.in_radial == expected, f"draw {i}: grid {m.in_radial} vs chain {expected}"
        grid = all(_ray_feasible(problem, z, d, tau) for tau in (1e-6, 1e-7, 1e-8))
        assert grid == expected, f"draw {i}: raw grid {grid} vs chain {expected}"
        agree += 1
    assert agree == total


def test_radial_verdicts_agree_with_the_tau_grid_where_it_settles():
    # Random problems at theta = 0, at a rounded point and at a uniform point,
    # along lifted directions.  Where no layer map bends along d and the maps
    # are of degree at most 2, the verdict is radial, read off the order-2
    # data; feasibility at tau = 1e-6, 1e-7, 1e-8 must not contradict it.  A
    # bend of order 1 moves the residual by about tau^2/2, below the grid's
    # 1e-9, so the grid cannot check a verdict of not radial.
    settled = 0
    for seed in range(60):
        problem = random_problem(seed)
        rng = np.random.default_rng(10_000 + seed)
        u = rng.uniform(-1.0, 1.0, problem.n)
        for theta in (np.zeros(problem.n), np.round(2.0 * u), u):
            try:
                z = eval_layers(problem, theta)
            except EvaluationError:
                continue
            DTH = rng.normal(size=(problem.n, 8))
            for j in range(8):
                d = lift_direction(problem, z, DTH[:, j])
                m = radial_membership(problem, z, d)
                if m.in_radial is not True:
                    continue
                grid = [_ray_feasible(problem, z, d, tau) for tau in (1e-6, 1e-7, 1e-8)]
                assert any(grid), f"seed {seed}: radial, but the ray leaves the feasible set at every tau"
                settled += all(grid)
    assert settled >= 100
