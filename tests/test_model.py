"""Problem containers, evaluation, residuals, and the reference level."""

import os
import re
import sys
import tracemalloc
import warnings

import numpy as np
import pytest

from conftest import _rand_expr, blowup_problem, half_square_chain, negative_outer_problem, random_problem
from walkers import scalar_F, scalar_g, scalar_layers, scalar_residuals, scalar_Theta
from mcpen import dcalc
from mcpen import expr as ex
from mcpen.cones import lift_direction, radial_membership, tangent_membership
from mcpen.dcalc import Direction, dd_F, dd_Psi, dd_Theta, dd_Theta_batch, zeros_direction
from mcpen.model import (
    FEAS_TOL,
    CompositeProblem,
    DimensionError,
    EvaluationError,
    InfeasiblePointError,
    LayerMap,
    Point,
    Residuals,
    Theta_and_roots,
    check_beta,
    check_point,
    eval_F,
    eval_g,
    eval_layers,
    eval_Psi_plus_reg,
    eval_Theta,
    eval_Theta_cols,
    point_from_flat,
    reference_point_and_level,
    require_feasible,
    residuals,
    split_flat,
)
from mcpen.rnn import build_problem, desk_instance
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


def test_a_nan_residual_after_the_first_layer_reads_infeasible(square_chain):
    # u2 = NaN: layer 2's map reads u1 alone, so the pass is finite and only
    # the residual is NaN.  It must not be skipped as a layer maximum.
    lift = eval_layers(square_chain, np.array([0.5]))
    z = Point(lift.theta, (lift.u[0], np.array([np.nan])))
    res = residuals(square_chain, z)
    assert np.isnan(res.max_abs) and res.feasible is False
    with pytest.raises(InfeasiblePointError, match="max residual nan"):
        require_feasible(square_chain, z)


def _wide_problem(seed):
    """n = 10 under layers of widths 1, 9 and 130, drawn from the random problems' op mix, and g >= 0."""
    rng = np.random.default_rng(seed)
    n, widths = 10, [1, 9, 130]
    layers = tuple(
        LayerMap(k, tuple(_rand_expr(rng, n, k - 1, widths, depth=2) for _ in range(w)))
        for k, w in enumerate(widths, start=1)
    )
    outer = ex.vabs(_rand_expr(rng, n, 3, widths, 2, theta_ok=False))
    return CompositeProblem(n, layers, outer, lam=0.05)


def _padded_folds(problem, T):
    """``dcalc._layer_folds`` as it was: every layer padded with -0.0 rows to the widest, then one fold."""
    k, R, m = T.shape
    at = problem.layer_of_row
    P = np.full((max(problem.widths), k, problem.L, m), -0.0)
    P[np.arange(R) - problem.layer_starts[at], :, at] = T.transpose(1, 0, 2)
    S = np.zeros((k, problem.L, m))
    for rows in P:
        S = S + rows
    return S


def test_Theta_folds_each_width_group_to_the_padded_bytes_in_less_memory(monkeypatch):
    # widths 1, 9 and 130: the padded fold held 130 rows for each layer
    p, rng = _wide_problem(0), np.random.default_rng(0)
    lift = eval_layers(p, rng.standard_normal(p.n))
    z = Point(lift.theta, tuple(u + rng.choice([-1e-3, 0.0, 0.0, 1e-3], u.size) for u in lift.u))
    m = 2 * p.nbar
    DTH, DU = rng.standard_normal((p.n, m)), [rng.standard_normal((w, m)) for w in p.widths]
    b = rng.uniform(0.5, 2.0, p.L)

    def traced():
        with np.errstate(all="ignore"):
            dd_Theta_batch(p, z, DTH, DU, b, 2)
            tracemalloc.start()
            try:
                return dd_Theta_batch(p, z, DTH, DU, b, 2), tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

    grouped, peak = traced()
    monkeypatch.setattr(dcalc, "_layer_folds", _padded_folds)
    padded, padded_peak = traced()
    for a, c in zip(grouped, padded):
        assert np.asarray(a).tobytes() == np.asarray(c).tobytes()
    assert peak < 0.7 * padded_peak, (peak, padded_peak)


def _bytes(x):
    return np.float64(x).tobytes()


@pytest.mark.parametrize("seed", range(3))
def test_column_evaluator_matches_the_scalar_one(seed):
    problem = _wide_problem(seed)
    rng = np.random.default_rng(seed)
    b = rng.uniform(0.5, 2.0, problem.L)
    z0 = eval_layers(problem, 0.3 * rng.standard_normal(problem.n))
    # a zero step (a feasible column), the steps of a halving search, and noise
    steps = np.concatenate([[0.0], 0.5 ** np.arange(40), rng.uniform(-2.0, 2.0, 8)])
    Z = z0.flat()[:, None] + rng.standard_normal((problem.nbar, 1)) * steps
    values, _ = eval_Theta_cols(problem, Z, b)
    for j in range(Z.shape[1]):
        assert _bytes(values[j]) == _bytes(eval_Theta(problem, point_from_flat(problem, Z[:, j]), b))


def test_column_evaluator_marks_non_finite_layers():
    b = np.ones(2)
    u1 = np.array([1.0, 0.5, 0.25])
    Z = np.vstack([np.zeros(3), u1, np.zeros(3)])
    for problem in (blowup_problem("mul"), blowup_problem("sqnorm")):
        values, _ = eval_Theta_cols(problem, Z, b)
        assert np.isfinite(values[:2]).all() and np.isnan(values[2])
        with pytest.raises(EvaluationError, match="^layer 2 evaluated to a non-finite value$"):
            eval_Theta(problem, point_from_flat(problem, Z[:, 2]), b)


def test_outer_function_past_the_float_range_raises_and_marks_its_columns():
    # g = u_1 * u_1 overflows at u_1 = 1e160 while the layer value is finite
    x = ex.uref(1, 0)
    problem = CompositeProblem(1, (LayerMap(1, (ex.theta(0),)),), ex.mul(x, x), lam=0.1)
    Z = np.array([[0.0, 1e160], [1.0, 1e160]])
    values, _ = eval_Theta_cols(problem, Z, np.ones(1))
    assert np.isfinite(values[0]) and np.isnan(values[1])
    with pytest.raises(EvaluationError, match="^outer function evaluated to a non-finite value$") as err:
        eval_g(problem, [np.array([1e160])])
    assert err.value.layer == problem.L + 1


def test_column_evaluator_marks_the_columns_where_g_warns():
    # g = u_1 - 1 warns below u_1 = 1 - 1e-12, where eval_Theta would
    problem = negative_outer_problem()
    Z = np.array([[0.0, 0.0, 0.0, 0.0], [2.0, 1.0, 1.0 - 1e-13, 0.5]])
    values, _ = eval_Theta_cols(problem, Z, np.ones(1))
    assert np.isfinite(values[:3]).all() and np.isnan(values[3])
    with pytest.warns(RuntimeWarning, match="outer function evaluated to"):
        eval_Theta(problem, point_from_flat(problem, Z[:, 3]), np.ones(1))


def _result_bytes(r):
    if isinstance(r, tuple):
        return tuple(map(_result_bytes, r))
    if isinstance(r, Point):
        return (r.theta.tobytes(), *(u.tobytes() for u in r.u))
    if isinstance(r, Residuals):
        sums = (np.array(r.l1).tobytes(), np.array(r.layer_max).tobytes(), _bytes(r.max_abs), r.feasible)
        return (*(x.tobytes() for x in r.per_layer), *sums)
    return type(r), _bytes(r)


def _outcome(run):
    """The bytes of run's result or its exception (type, text, layer), and its warning texts."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            out = _result_bytes(run())
        except (EvaluationError, ValueError) as err:
            out = (type(err).__name__, str(err), getattr(err, "layer", None))
    return out, [str(w.message) for w in caught]


def _value_cases():
    """(problem, theta, an infeasible point, beta) at random problems and points that raise or warn."""
    for seed in range(60):
        p = random_problem(seed)
        rng = np.random.default_rng(seed)
        for s in (0.0, 1.0, 1e3):
            th = s * rng.standard_normal(p.n)
            z = Point(th, tuple(s * rng.standard_normal(w) for w in p.widths))
            yield p, th, z, rng.uniform(0.1, 2.0, p.L)
    # the desk RNN with layers of 8 and 10 rows, whose l1 norms np.sum adds pairwise
    for seed in range(2):
        p = build_problem(desk_instance(seed, n0=2, n1=8, n2=1, t=10))
        rng = np.random.default_rng(seed)
        th = 0.1 * rng.standard_normal(p.n)
        lift = scalar_layers(p, th)
        z = Point(th, tuple(u + 1e-3 * rng.choice([-1.0, 0.0, 1.0], u.size) for u in lift.u))
        yield p, th, z, rng.uniform(0.1, 2.0, p.L)
    # layer 2 past the float range; g below zero; g past the float range
    for p in (blowup_problem("mul"), blowup_problem("sqnorm"), half_square_chain()):
        for x in (0.25, 0.5, 1e200):
            yield p, np.array([x]), Point(np.zeros(1), (np.array([x]), np.array([1.0]))), np.ones(2)
    u = ex.uref(1, 0)
    for p in (negative_outer_problem(), CompositeProblem(1, (LayerMap(1, (ex.theta(0),)),), ex.mul(u, u), lam=0.1)):
        for x in (0.5, 1e160):
            yield p, np.array([x]), Point(np.array([0.5]), (np.array([-x]),)), np.ones(1)


def _scalar_nested(p, th):
    return scalar_F(p, scalar_layers(p, th))


def _Theta_and_residuals(p, z, b):
    """Theta at z, and the residuals read off the roots of its penalized pass."""
    value, X = Theta_and_roots(p, z, check_beta(p, b))
    return value, residuals(p, z, X)


def test_point_values_match_the_scalar_walk_byte_for_byte():
    for p, th, z, b in _value_cases():
        pairs = [
            (lambda: eval_layers(p, th), lambda: scalar_layers(p, th)),
            (lambda: residuals(p, z), lambda: scalar_residuals(p, z)),
            (lambda: eval_g(p, z.u), lambda: scalar_g(p, z.u)),
            (lambda: eval_F(p, z), lambda: scalar_F(p, z)),
            (lambda: eval_Theta(p, z, b), lambda: scalar_Theta(p, z, b)),
            (lambda: _Theta_and_residuals(p, z, b), lambda: (scalar_Theta(p, z, b), scalar_residuals(p, z))),
            (lambda: eval_Psi_plus_reg(p, th), lambda: _scalar_nested(p, th)),
            (lambda: reference_point_and_level(p, b, th), lambda: (scalar_layers(p, th), _scalar_nested(p, th))),
        ]
        for tapes, scalar in pairs:
            assert _outcome(tapes) == _outcome(scalar), (p, th, z)


_MCPEN = os.path.dirname(ex.__file__)


def _walks(monkeypatch, run):
    """The tapes of run's ``Tape.values`` and ``Tape.cells`` passes, and the mcpen functions it enters again."""
    passes, cells, values, taylor = [], [], ex.Tape.values, ex.Tape.cells
    monkeypatch.setattr(ex.Tape, "values", lambda tape, *a: passes.append(tape) or values(tape, *a))
    monkeypatch.setattr(ex.Tape, "cells", lambda tape, *a, **kw: cells.append(tape) or taylor(tape, *a, **kw))
    stack, again = [], set()

    def profile(frame, event, arg):
        if event == "call":
            if frame.f_code in stack and frame.f_code.co_filename.startswith(_MCPEN):
                again.add(frame.f_code.co_name)
            stack.append(frame.f_code)
        elif event == "return" and stack:
            stack.pop()

    sys.setprofile(profile)
    try:
        run()
    finally:
        sys.setprofile(None)
        monkeypatch.undo()
    return passes, cells, again


def test_point_values_are_one_tape_pass_each(monkeypatch):
    p = build_problem(desk_instance(0))
    rng = np.random.default_rng(0)
    th = 0.1 * rng.standard_normal(p.n)
    z = point_from_flat(p, eval_layers(p, th).flat() + 0.01 * rng.standard_normal(p.nbar))
    b = np.ones(p.L)
    runs = [
        (lambda: eval_layers(p, th), [p.chained_tape]),
        (lambda: eval_Psi_plus_reg(p, th), [p.chained_tape]),
        (lambda: reference_point_and_level(p, b, th), [p.chained_tape]),
        (lambda: residuals(p, z), [p.fixed_tape]),
        (lambda: eval_g(p, z.u), [p.outer_tape]),
        (lambda: eval_Theta(p, z, b), [p.penalized_tape]),
        (lambda: _Theta_and_residuals(p, z, b), [p.penalized_tape]),
    ]
    for run, tapes in runs:
        # no function of the package recurses, so no node-at-a-time walk runs
        assert _walks(monkeypatch, run) == (tapes, [], set())
    DTH = rng.standard_normal((p.n, 3))
    DU = [rng.standard_normal((w, 3)) for w in p.widths]
    for m in (1, 3):
        for order in (1, 2):
            run = lambda: dd_Theta_batch(p, z, DTH[:, :m], [du[:, :m] for du in DU], b, order)  # noqa: E731
            assert _walks(monkeypatch, run) == ([], [p.penalized_tape], set())
    # the scalar derivatives and the cone tests read their values, and the
    # guard its residuals, off their one Taylor pass
    d, lift = Direction(DTH[:, 0], tuple(du[:, 0] for du in DU)), eval_layers(p, th)
    for order in (1, 2):
        runs = [
            (lambda: dd_F(p, z, d, order), p.outer_tape),
            (lambda: dd_Theta(p, z, d, b, order), p.penalized_tape),
            (lambda: dd_Psi(p, th, d.dtheta, order), p.chained_tape),
        ]
        for run, tape in runs:
            assert _walks(monkeypatch, run) == ([], [tape], set())
    # at an infeasible point the guard raises as it did on its own value pass;
    # u_2 = (2e154 * (1 - u_1))^2 is inf at u_1 = 1/4, a map value that is not finite
    infeasible = "^" + re.escape(f"point is infeasible (max residual {residuals(p, z).max_abs:.3e})") + "$"
    named = "^layer 2 evaluated to a non-finite value$"
    q = blowup_problem("mul")
    at, dq = Point(np.array([0.25]), (np.array([0.25]), np.zeros(1))), zeros_direction(q)
    for membership in (tangent_membership, radial_membership):
        assert _walks(monkeypatch, lambda: membership(p, lift, d)) == ([], [p.fixed_tape], set())
        run = lambda: _raises(InfeasiblePointError, infeasible, lambda: membership(p, z, d))  # noqa: E731
        assert _walks(monkeypatch, run) == ([], [p.fixed_tape], set())
        run = lambda: _raises(EvaluationError, named, lambda: membership(q, at, dq))  # noqa: E731
        assert _walks(monkeypatch, run) == ([], [q.fixed_tape], set())
        assert run().layer == 2


def _raises(kind, match, call):
    """The exception of type ``kind``, its message matching ``match``, that ``call()`` raises."""
    with pytest.raises(kind, match=match) as info:
        call()
    return info.value
