"""Penalty descent solver: determinism, monotonicity, and exactness."""

import csv
import hashlib
import warnings

import numpy as np
import pytest

from conftest import blowup_problem, negative_outer_problem, random_problem
from mcpen import expr as ex
from mcpen import solver as solver_mod
from mcpen.model import (
    CompositeProblem,
    EvaluationError,
    LayerMap,
    Point,
    eval_layers,
    eval_Psi_plus_reg,
    eval_Theta,
    point_from_flat,
    residuals,
)
from mcpen.repro import square_chain_problem
from mcpen.rnn import build_problem, desk_instance, rnn_penalty_config
from mcpen.solver import SolveConfig, minimize_theta, polish_to_feasible

BETA_SC = np.array([1.0, 0.6])


def _least_squares_instance():
    problem = CompositeProblem(
        n=2,
        layers=(
            LayerMap(
                index=1,
                exprs=(
                    ex.affine(-1.0, [1.0], [ex.theta(0)]),
                    ex.affine(0.5, [1.0, 1.0], [ex.theta(0), ex.theta(1)]),
                    ex.affine(0.2, [0.5], [ex.theta(1)]),
                ),
            ),
        ),
        outer=ex.sqnorm(ex.uref(1, 0), ex.uref(1, 1), ex.uref(1, 2)),
        lam=0.05,
    )
    A = np.array([[1.0, 0.0], [1.0, 1.0], [0.0, 0.5]])
    b = np.array([-1.0, 0.5, 0.2])
    H = 2 * A.T @ A + 2 * 0.05 * np.eye(2)
    th_star = np.linalg.solve(H, -2 * A.T @ b)
    val_star = float(np.sum((A @ th_star + b) ** 2) + 0.05 * th_star @ th_star)
    return problem, th_star, val_star


def test_solver_matches_least_squares_minimum():
    problem, th_star, val_star = _least_squares_instance()
    beta = np.array([4.0])
    cfg = SolveConfig(max_iters=200, stop_tol=1e-8, seed=0)
    res = minimize_theta(problem, beta, cfg)
    assert res.converged
    assert res.value == pytest.approx(val_star, abs=1e-4)
    assert np.linalg.norm(res.z.theta - th_star) <= 1e-3
    assert residuals(problem, res.z).feasible


def test_solver_deterministic():
    problem, _, _ = _least_squares_instance()
    beta = np.array([4.0])
    runs = [
        minimize_theta(problem, beta, SolveConfig(max_iters=60, seed=3)) for _ in range(2)
    ]
    assert runs[0].value == runs[1].value
    assert np.array_equal(runs[0].z.flat(), runs[1].z.flat())
    assert runs[0].iterations == runs[1].iterations


def test_solver_trace_is_monotone(tmp_path):
    problem, _, _ = _least_squares_instance()
    trace_file = tmp_path / "trace.csv"
    cfg = SolveConfig(max_iters=120, seed=0, trace_path=str(trace_file))
    res = minimize_theta(problem, np.array([4.0]), cfg)
    rows = list(csv.DictReader(open(trace_file)))
    assert rows, "trace must not be empty"
    assert set(rows[0]) == {"iter", "theta", "max_residual", "step", "probe_min"}
    values = [float(r["theta"]) for r in rows]
    assert all(b <= a + 1e-12 for a, b in zip(values, values[1:]))
    assert values[-1] == pytest.approx(res.value, abs=1e-12)


def test_solver_stops_at_first_order_trap(square_chain):
    # the zero lift is first-order stationary for the penalized objective,
    # so a slope-probe method must stop there immediately
    cfg = SolveConfig(max_iters=50, seed=0, init="zero")
    res = minimize_theta(square_chain, BETA_SC, cfg)
    assert res.termination == "probe-stationary"
    assert res.value == pytest.approx(1e-4, abs=1e-12)
    assert res.probe_min >= -1e-6


def test_solver_escapes_from_user_init(square_chain):
    z_init = Point(np.zeros(1), (np.array([0.5]), np.array([0.0])))
    cfg = SolveConfig(max_iters=300, seed=0, init="user", stop_tol=1e-9)
    res = minimize_theta(square_chain, BETA_SC, cfg, z_init=z_init)
    # global minimum of the nested objective: theta^2 = 2e-4
    assert res.value == pytest.approx(2e-6, abs=1e-7)
    assert residuals(square_chain, res.z).feasible


def test_random_init_stays_reproducible(square_chain):
    cfg = SolveConfig(max_iters=40, seed=11, init="random")
    a = minimize_theta(square_chain, BETA_SC, cfg)
    b = minimize_theta(square_chain, BETA_SC, cfg)
    assert a.value == b.value


def test_diminishing_step_rule_runs(square_chain):
    cfg = SolveConfig(max_iters=40, seed=0, init="user", step_rule="diminishing")
    z_init = Point(np.zeros(1), (np.array([0.5]), np.array([0.0])))
    res = minimize_theta(square_chain, BETA_SC, cfg, z_init=z_init)
    assert res.value <= eval_Theta(square_chain, z_init, BETA_SC) + 1e-12


def test_polish_snaps_small_residuals(square_chain):
    z = Point(np.array([0.3]), (np.array([0.3 + 1e-8]), np.array([0.09])))
    beta = BETA_SC
    z2, changed, delta = polish_to_feasible(square_chain, z, beta)
    assert changed
    assert residuals(square_chain, z2).max_abs <= 1e-15
    assert eval_Theta(square_chain, z2, beta) <= eval_Theta(square_chain, z, beta) + 1e-12


def test_polish_refuses_to_increase_objective(square_chain):
    # snapping from this point would raise the penalized value: the outer
    # term grows faster than the dropped penalty
    z = Point(np.zeros(1), (np.array([0.5]), np.array([0.0])))
    z2, changed, delta = polish_to_feasible(square_chain, z, BETA_SC)
    if changed:
        assert eval_Theta(square_chain, z2, BETA_SC) <= eval_Theta(square_chain, z, BETA_SC) + 1e-12
    else:
        assert z2 is z


def test_solve_config_validation():
    with pytest.raises(ValueError):
        SolveConfig(max_iters=0)
    with pytest.raises(ValueError):
        SolveConfig(step_rule="nope")
    with pytest.raises(ValueError):
        SolveConfig(init="nope")
    with pytest.raises(ValueError):
        SolveConfig(stop_tol=-1.0)


def _capped_polish(problem, th):
    """The smooth polish without the value stall: runs to its cap or a stop."""
    val = eval_Psi_plus_reg(problem, th)
    step = 1.0
    for _ in range(200):
        sp, sm = solver_mod._axis_slopes(problem, th)
        g = (sp - sm) / 2.0
        if np.max(np.abs(sp + sm)) > 1e-9 * (1.0 + np.max(np.abs(g))):
            break
        if np.max(np.abs(g)) <= 1e-11:
            break
        accepted = False
        t = step
        while t > 1e-16:
            th2 = th - t * g
            v2 = eval_Psi_plus_reg(problem, th2)
            if v2 <= val - solver_mod.ARMIJO_SIGMA * t * float(g @ g):
                th, val = th2, v2
                step = min(t * 2.0, 1e3)
                accepted = True
                break
            t *= 0.5
        if not accepted:
            break
    return th


def _counting_axis_slopes(monkeypatch):
    calls = []
    real = solver_mod._axis_slopes
    monkeypatch.setattr(
        solver_mod, "_axis_slopes", lambda problem, th: calls.append(th) or real(problem, th)
    )
    return calls


@pytest.mark.parametrize("seed", range(4))
def test_smooth_polish_stops_when_the_value_stalls(monkeypatch, seed):
    spec = desk_instance(seed)
    problem, beta = build_problem(spec), rnn_penalty_config(spec).beta
    polished = []
    real_polish = solver_mod._smooth_polish
    calls = _counting_axis_slopes(monkeypatch)

    def recording_polish(problem, th):
        before = len(calls)
        out = real_polish(problem, th)
        polished.append((th, out, len(calls) - before))
        return out

    monkeypatch.setattr(solver_mod, "_smooth_polish", recording_polish)
    minimize_theta(problem, beta, SolveConfig(seed=seed))
    monkeypatch.undo()
    assert len(polished) == 1
    th_in, th_out, iters = polished[0]
    assert 1 <= iters <= 20
    v_in, v_out = eval_Psi_plus_reg(problem, th_in), eval_Psi_plus_reg(problem, th_out)
    assert v_out <= v_in
    v_oracle = eval_Psi_plus_reg(problem, _capped_polish(problem, th_in))
    assert abs(v_out - v_oracle) <= 1e-14 * abs(v_oracle)


def test_smooth_polish_stops_at_a_kink_without_moving(monkeypatch, relu_ridge):
    # plus(theta_0) has its kink at theta_0 = 0, where the +e_0 slope is
    # -2(1 + theta_1) and the -e_0 slope is 0: a descent direction exists,
    # but the kink stop must fire before any gradient step is tried
    th = np.array([0.0, 0.3])
    calls = _counting_axis_slopes(monkeypatch)
    out = solver_mod._smooth_polish(relu_ridge, th)
    assert len(calls) == 1
    assert np.array_equal(out, th)


def _solve_digest(h, run):
    """Feed h the bytes of one solve, or of the exception it raised, and every warning message."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            res = run()
        except (ValueError, ArithmeticError, RuntimeError) as err:
            h.update(f"{type(err).__name__}: {err}".encode())
        else:
            h.update(res.z.flat().tobytes())
            h.update(np.array([res.value, res.probe_min]).tobytes())
            h.update(f"{res.iterations} {res.termination} {res.converged}".encode())
            for row in res.trace.rows:
                h.update(np.array([row[c] for c in _TRACE_COLS], dtype=float).tobytes())
    for w in caught:
        h.update(str(w.message).encode())
    return len(caught)


_TRACE_COLS = ("iter", "theta", "max_residual", "step", "probe_min")
# sha256 of the solves below and the messages of every warning they raised,
# recorded with the line searches that evaluated one trial step at a time.
# The axis slopes no longer evaluate g, whose value they never read, so 233
# of the 8525 negative-g warnings recorded then are gone; the solves' bytes
# and the order of the remaining warnings are unchanged.
SOLVE_SHA256 = (8292, "e57550435c59d62ca9a121af05516aa84eaad0e19a1659f2236d35b37c3ca697")


def test_solver_runs_are_bit_identical():
    h = hashlib.sha256()
    warned = 0
    for seed in range(60):
        problem = random_problem(seed)
        beta = np.full(problem.L, 0.7)
        for rule in ("fixed", "diminishing"):
            cfg = SolveConfig(max_iters=100, step_rule=rule, seed=seed)
            warned += _solve_digest(h, lambda: minimize_theta(problem, beta, cfg))
    chain = square_chain_problem()
    z_init = Point(np.zeros(1), (np.array([0.5]), np.array([0.0])))
    for rule in ("fixed", "diminishing"):
        cfg = SolveConfig(max_iters=300, step_rule=rule, stop_tol=1e-9, init="user")
        warned += _solve_digest(h, lambda: minimize_theta(chain, BETA_SC, cfg, z_init=z_init))
    for seed in range(4):
        spec = desk_instance(seed)
        problem, beta = build_problem(spec), rnn_penalty_config(spec).beta
        cfg = SolveConfig(max_iters=400, stop_tol=1e-8, seed=seed)
        warned += _solve_digest(h, lambda: minimize_theta(problem, beta, cfg))
    assert (warned, h.hexdigest()) == SOLVE_SHA256


def _halving_loop():
    """The steps of the one-step loop: t = STEP_INIT, halved while above 1e-12."""
    t = solver_mod.STEP_INIT
    while t > 1e-12:
        yield t
        t *= 0.5


def test_line_search_tries_the_steps_of_the_halving_loop(monkeypatch, square_chain):
    walked = []
    real = solver_mod.eval_Theta_cols
    monkeypatch.setattr(
        solver_mod, "eval_Theta_cols", lambda p, Z, b: walked.append(Z) or real(p, Z, b)
    )
    z = Point(np.zeros(1), (np.zeros(1), np.zeros(1)))
    # no step reaches a value this low, so every step is tried
    d = np.array([1.0, 0.0, 0.0])
    assert solver_mod._line_search(square_chain, z, np.ones(2), d, -1e9, -1.0) is None
    assert walked[0][0].tolist() == list(_halving_loop())


@pytest.mark.parametrize("op, error", [("mul", EvaluationError), ("sqnorm", OverflowError)])
def test_line_search_raises_at_a_first_step_past_the_float_range(op, error):
    # u_1 = -t puts c*(1 - u_1) past the float range at every step
    problem, d = blowup_problem(op), np.array([0.0, -1.0, 0.0])
    z = Point(np.zeros(1), (np.zeros(1), np.zeros(1)))
    with pytest.raises(error) as scalar:
        eval_Theta(problem, point_from_flat(problem, z.flat() + d), np.ones(2))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(error) as searched:
            solver_mod._line_search(problem, z, np.ones(2), d, 10.0, -1.0)
    assert str(searched.value) == str(scalar.value)
    assert getattr(searched.value, "layer", None) == getattr(scalar.value, "layer", None)
    assert not caught


@pytest.mark.parametrize("op", ["mul", "sqnorm"])
def test_steps_after_the_accepted_one_have_no_effect(op):
    # u_1 = u_2 = t: the step 1 passes; from t = 1/4 on the layer value is
    # past the float range, and every step below 1 has g = u_2 < 0
    problem = blowup_problem(op)
    problem = CompositeProblem(1, problem.layers, ex.affine(-1.0, [1.0], [ex.uref(2, 0)]), lam=0.1)
    z = Point(np.zeros(1), (np.zeros(1), np.zeros(1)))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        z2, t, v = solver_mod._line_search(
            problem, z, np.ones(2), np.array([0.0, 1.0, 1.0]), 10.0, -1.0
        )
    assert not caught
    assert (t, v) == (1.0, eval_Theta(problem, z2, np.ones(2)))


def _counting(monkeypatch, *names):
    calls = []
    for name in names:
        real = getattr(ex, name)
        monkeypatch.setattr(ex, name, lambda *a, real=real: calls.append(1) or real(*a))
    return calls


def test_a_search_walks_each_map_once_over_all_steps(monkeypatch):
    spec = desk_instance(0)
    problem, beta = build_problem(spec), rnn_penalty_config(spec).beta
    rng = np.random.default_rng(0)
    z = eval_layers(problem, 0.1 * rng.standard_normal(problem.n))
    d, value = rng.standard_normal(problem.nbar), eval_Theta(problem, z, beta)
    cols, scalar = _counting(monkeypatch, "eval_cols"), _counting(monkeypatch, "eval_many", "eval_one")
    solver_mod._line_search(problem, z, beta, d, value, -1.0)
    assert (len(cols), len(scalar)) == (problem.L + 1, 0)


def _recording(run):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        out = run()
    return out, [(str(w.message), w.filename, w.lineno) for w in caught]


def test_a_tried_step_with_negative_g_warns_as_the_one_step_loop():
    # u_1 = t under g = u_1 - 1: the steps 1/2 and 1/4 are tried with g < 0,
    # and 1/4 passes; the untried steps below it have g < 0 too
    problem, b = negative_outer_problem(), np.ones(1)
    z, d = Point(np.zeros(1), (np.zeros(1),)), np.array([0.0, 1.0])

    def loop():
        for t in _halving_loop():
            v = eval_Theta(problem, point_from_flat(problem, z.flat() + t * d), b)
            if v <= 0.0 + solver_mod.ARMIJO_SIGMA * t * -1.0:
                return t, v

    (t_ref, v_ref), ref = _recording(loop)
    (_, t, v), got = _recording(
        lambda: solver_mod._line_search(problem, z, b, d, 0.0, -1.0)
    )
    assert (t, v) == (t_ref, v_ref) == (0.25, -0.5)
    # same messages, from the same file and line
    assert got == ref and len(ref) == 2
