"""Tangent and radial cone membership."""

import numpy as np
import pytest

from conftest import random_problem
from mcpen import cones, model
from mcpen import expr as ex
from mcpen.cones import (
    LIFT_TOL,
    RADIAL_TAUS,
    TANGENT_TOL,
    _feasible_at,
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


@pytest.mark.parametrize(
    "answers, in_radial, notes",
    [
        ((True, True, True), True, []),
        ((False, False, False), False, ["ray leaves the feasible set at every small tau probed"]),
        ((True, True, False), None, ["tau grid did not settle; near a branch switch"]),
    ],
)
def test_radial_grid_probes_only_the_taus_it_reads(monkeypatch, answers, in_radial, notes):
    taus = []

    def feasible_at(problem, z, d, tau):
        taus.append(tau)
        return answers[len(taus) - 1]

    monkeypatch.setattr(cones, "_feasible_at", feasible_at)
    m = radial_membership(*_linear_ray())
    assert taus == list(RADIAL_TAUS) == [1e-6, 1e-7, 1e-8]
    assert (m.in_radial, m.notes) == (in_radial, notes)
    taus.clear()
    m = radial_membership(*_quartic_ray())
    assert (taus, m.in_radial) == ([], None)
    assert m.notes == ["layer maps outside the decidable family; returning unknown"]


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


def test_radial_grid_reads_only_evaluation_errors_as_infeasible(square_chain, monkeypatch):
    z0 = eval_layers(square_chain, np.zeros(1))
    d = Direction(np.array([1.0]), (np.array([1.0]), np.array([0.0])))

    def raising(err):
        def layer_values(*args):
            raise err
        return layer_values

    monkeypatch.setattr(model, "layer_values", raising(EvaluationError(1, "overflow in layer 1")))
    assert _feasible_at(square_chain, z0, d, 0.1) is False
    monkeypatch.setattr(model, "layer_values", raising(TypeError("a programming error")))
    with pytest.raises(TypeError, match="a programming error"):
        _feasible_at(square_chain, z0, d, 0.1)
