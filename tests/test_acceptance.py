"""Acceptance gate: nine scripted criteria with pinned tolerances.

Each test records one [PASS]/[FAIL] line that the shared conftest prints in
an end-of-run summary section, then asserts.  Tolerances and runtime bounds
are stated inline next to each check.
"""

import time

import numpy as np
import pytest

import conftest
from conftest import draw_oracle_case
from test_cones import _pure_relu_problem, _ray_feasible, _relu_characterization

from mcpen import expr as ex
from mcpen import repro
from mcpen.cones import lift_direction, radial_membership, tangent_membership
from mcpen.dcalc import (
    Direction,
    dd_expr,
    dd_Psi,
    dd_Theta,
    direction_from_flat,
    fd_oracle,
    ray_quotients,
)
from mcpen.model import (
    FEAS_TOL,
    Point,
    eval_layers,
    eval_Psi_plus_reg,
    eval_Theta,
    reference_point_and_level,
    residuals,
)
from mcpen.penalty import build_config, feasibility_descent_direction, thresholds
from mcpen.repro import (
    abs_cubic_expr,
    box_max_expr,
    relu_ridge_problem,
    square_chain_problem,
)
from mcpen.rnn import build_problem, desk_instance, rnn_penalty_config, rnn_thresholds, train_and_certify
from mcpen.stationarity import (
    NOT_STATIONARY,
    STATIONARY,
    check_box,
    check_d_stationary_P0,
    check_second_order,
    compare_sets_on_point,
)

pytestmark = pytest.mark.filterwarnings("ignore:outer function evaluated")


def _report(num, label, ok):
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {label}"
    print(line)
    conftest.record_acceptance(line)
    return ok


def test_criterion_1_box_constrained_max():
    start = time.perf_counter()
    e = box_max_expr()
    lo, hi = -np.ones(2), np.ones(2)
    problems = []

    r1 = check_box(e, np.zeros(2), lo, hi, order=1, seed=0)
    if r1.verdict != STATIONARY:
        problems.append(f"origin first-order verdict {r1.verdict}")

    r2 = check_box(e, np.zeros(2), lo, hi, order=2, seed=0)
    if r2.verdict != NOT_STATIONARY:
        problems.append(f"origin second-order verdict {r2.verdict}")
    witness_val = None
    if r2.witness is not None:
        w = np.asarray(r2.witness, dtype=float)
        w = w / np.max(np.abs(w))
        if w[0] * w[1] > 0:
            problems.append(f"witness {w} is not along the odd diagonal")
        witness_val = dd_expr(e, np.zeros(2), w, order=2).second
        if witness_val is None or abs(witness_val - (-1.6)) > 1e-9:
            problems.append(f"witness value {witness_val} not within 1e-9 of -1.6")
    else:
        problems.append("no escape witness produced")

    for corner in (np.array([-1.0, 1.0]), np.array([1.0, -1.0])):
        c1 = check_box(e, corner, lo, hi, order=1, seed=0)
        c2 = check_box(e, corner, lo, hi, order=2, seed=0)
        if c1.verdict != STATIONARY or c2.verdict != STATIONARY:
            problems.append(f"corner {corner}: {c1.verdict}/{c2.verdict}")

    elapsed = time.perf_counter() - start
    if elapsed >= 1.0:
        problems.append(f"runtime {elapsed:.2f}s exceeds 1s")
    ok = _report(1, "box-constrained max classification", not problems)
    assert ok, "; ".join(problems)


def test_criterion_2_square_chain_split():
    start = time.perf_counter()
    problem = square_chain_problem()
    beta = np.array([1.0, 0.6])
    problems = []

    z0, gamma = reference_point_and_level(problem, beta)
    cfg = build_config(problem, beta=beta, seed=0)
    if not (0.0 < cfg.K_g <= 0.5386):
        problems.append(f"K_g {cfg.K_g} outside (0, 0.5386]")
    if not (0.0 < cfg.K[0] <= 0.21):
        problems.append(f"K_1 {cfg.K[0]} outside (0, 0.21]")
    if not cfg.thresholds[0] < 1.0:
        problems.append(f"t_1 {cfg.thresholds[0]} not < 1")
    if not cfg.thresholds[1] < 0.6:
        problems.append(f"t_2 {cfg.thresholds[1]} not < 0.6")

    out = compare_sets_on_point(problem, z0, cfg, seed=0)
    if out["d0"].verdict != STATIONARY or out["d1"].verdict != STATIONARY:
        problems.append(
            f"first-order verdicts {out['d0'].verdict}/{out['d1'].verdict}"
        )
    if out["sd0"].verdict != STATIONARY:
        problems.append(f"lifted second-order verdict {out['sd0'].verdict}")
    if out["sd1"].verdict != NOT_STATIONARY:
        problems.append(f"penalized second-order verdict {out['sd1'].verdict}")

    s1 = out["sd1"]
    if s1.witness is None:
        problems.append("no curvature witness")
    else:
        w = s1.witness.flat()
        w = w / np.max(np.abs(w))
        d = direction_from_flat(problem, w)
        v = dd_Theta(problem, z0, d, beta, order=2)
        # witness rescaled to t=1 along (t, t, 0): curvature -0.78 t^2
        if v.second is None or abs(v.second - (-0.78)) > 1e-9:
            problems.append(f"witness curvature {v.second} not within 1e-9 of -0.78")
        if abs(v.first) > 1e-12:
            problems.append(f"witness slope {v.first} nonzero")

    elapsed = time.perf_counter() - start
    if elapsed >= 5.0:
        problems.append(f"runtime {elapsed:.2f}s exceeds 5s")
    ok = _report(2, "penalized chain loses second-order stationarity", not problems)
    assert ok, "; ".join(problems)


def test_criterion_3_relu_ridge_exact_slope():
    problem = relu_ridge_problem()
    th = np.zeros(2)
    problems = []

    for d1 in (0.5, 1.0, 2.0, 3.7):
        v = dd_Psi(problem, th, np.array([d1, 0.0]), order=1)
        if v.first != -2.0 * d1:
            problems.append(f"slope at d1={d1} is {v.first}, want {-2.0 * d1} exactly")

    z = eval_layers(problem, th)
    r = check_d_stationary_P0(problem, z)
    if r.verdict != NOT_STATIONARY:
        problems.append(f"verdict {r.verdict}")
    if r.witness_value is None or abs(r.witness_value - (-2.0)) > 1e-12:
        problems.append(f"witness derivative {r.witness_value} not within 1e-12 of -2")

    ok = _report(3, "rectifier ridge slope is exact and refuted", not problems)
    assert ok, "; ".join(problems)


def test_criterion_4_two_path_second_order_gap():
    e = abs_cubic_expr()
    x = np.array([1.0, 1.0])
    d = np.array([3.0, 1.0])
    problems = []

    v = dd_expr(e, x, d, order=2)
    if v.second is None or abs(v.second - 6.0) > 1e-9:
        problems.append(f"fixed-direction curvature {v.second} not within 1e-9 of 6")

    tape = ex.compile_tape([e], (2,))
    f = lambda p: float(ex.eval_many(tape, p, [])[0])
    first_fn = lambda vv: dd_expr(e, x, vv, order=1).first
    taus = [1e-2 * 0.5**k for k in range(14)]
    qp = ray_quotients(f, x, lambda t: np.array([3.0 + 4 * t, 1.0]), first_fn, taus)
    qm = ray_quotients(f, x, lambda t: np.array([3.0 - 4 * t, 1.0]), first_fn, taus)
    if abs(qp[-1] - (-6.0)) > 1e-3:
        problems.append(f"path (3+4t,1) quotient {qp[-1]} not within 1e-3 of -6")
    if abs(qm[-1] - 6.0) > 1e-3:
        problems.append(f"path (3-4t,1) quotient {qm[-1]} not within 1e-3 of +6")

    # the discrepancy must be detected and reported by the regression runner
    rep = repro.run("abs-cubic", seed=0)
    names = {c["name"]: c for c in rep["checks"]}
    key = "moving-direction limit disagrees with the fixed one"
    if key not in names or not names[key]["pass"]:
        problems.append("discrepancy not reported by the scenario runner")
    if not rep["ok"]:
        problems.append("scenario runner failed")

    ok = _report(4, "moving-direction quotients split from the fixed curvature", not problems)
    assert ok, "; ".join(problems)


def test_criterion_5_oracle_agreement_property():
    problems = []
    first_checked = 0
    second_checked = 0
    ops_seen = set()
    seed = 0
    failures = []
    while first_checked < 100 and seed < 600:
        case = draw_oracle_case(seed)
        seed += 1
        if case is None:
            continue
        problem, th, d = case
        ops_seen |= ex.ops_used(problem.outer)
        for layer in problem.layers:
            for e in layer.exprs:
                ops_seen |= ex.ops_used(e)

        f = lambda t: eval_Psi_plus_reg(problem, t)
        v1 = dd_Psi(problem, th, d, order=1)
        o1 = fd_oracle(f, th, d, order=1, tau0=1e-3)
        if o1.converged:
            first_checked += 1
            if abs(v1.first - o1.value) > 1e-5 * (1 + abs(v1.first)):
                failures.append(f"seed {seed - 1} order 1: {v1.first} vs {o1.value}")

        v2 = dd_Psi(problem, th, d, order=2)
        if v2.second is not None:
            o2 = fd_oracle(f, th, d, order=2, tau0=1e-3)
            if o2.converged:
                second_checked += 1
                if abs(v2.second - o2.value) > 1e-5 * (1 + abs(v2.second)):
                    failures.append(f"seed {seed - 1} order 2: {v2.second} vs {o2.value}")

    if first_checked < 100:
        problems.append(f"only {first_checked} first-order agreements collected")
    if second_checked < 30:
        problems.append(f"only {second_checked} second-order agreements collected")
    missing = set(ex.ALL_OPS) - ops_seen
    if missing:
        problems.append(f"primitives never drawn: {sorted(missing)}")
    if failures:
        problems.append(f"{len(failures)} disagreements, first: {failures[0]}")

    ok = _report(
        5,
        f"oracle agreement on {first_checked}+{second_checked} seeded cases",
        not problems,
    )
    assert ok, "; ".join(problems)


def test_criterion_6_cone_membership_properties():
    from conftest import random_problem

    problems = []

    # lifted directions pass with tiny violation
    passed = 0
    seed = 0
    while passed < 100 and seed < 300:
        rng = np.random.default_rng(seed)
        seed += 1
        problem = random_problem(int(rng.integers(0, 2**31)))
        th = rng.uniform(-1, 1, size=problem.n)
        z = eval_layers(problem, th)
        d = lift_direction(problem, z, rng.normal(size=problem.n))
        if not np.all(np.isfinite(d.flat())):
            continue
        m = tangent_membership(problem, z, d)
        if not m.in_tangent or m.max_violation > 1e-12 * max(1.0, d.norm()):
            problems.append(f"lifted direction failed at seed {seed - 1}")
            break
        passed += 1
    if passed < 100:
        problems.append(f"only {passed} lifted directions checked")

    # single-block perturbations fail, first violation at the edited block
    failed = 0
    seed = 0
    while failed < 100 and seed < 400:
        rng = np.random.default_rng(10_000 + seed)
        seed += 1
        problem = random_problem(int(rng.integers(0, 2**31)))
        th = rng.uniform(-1, 1, size=problem.n)
        z = eval_layers(problem, th)
        d = lift_direction(problem, z, rng.normal(size=problem.n))
        flat = d.flat()
        if not np.all(np.isfinite(flat)) or np.linalg.norm(flat) > 1e6:
            continue
        k = int(rng.integers(1, problem.L + 1))
        noise = rng.normal(size=problem.widths[k - 1])
        noise *= 1e-3 / max(np.linalg.norm(noise), 1e-12)
        du = [b.copy() for b in d.du]
        du[k - 1] = du[k - 1] + noise
        m = tangent_membership(problem, z, Direction(d.dtheta.copy(), tuple(du)))
        if m.in_tangent:
            continue
        first_violated = next(
            j + 1
            for j, v in enumerate(m.violations)
            if float(np.max(np.abs(v), initial=0.0)) > 1e-9
        )
        if first_violated != k:
            problems.append(f"perturbed {k} but first violation at {first_violated}")
            break
        failed += 1
    if failed < 100:
        problems.append(f"only {failed} perturbations rejected")

    # polyhedral rectifier instance: grid decision vs chained one-sided rule
    problem = _pure_relu_problem()
    rng = np.random.default_rng(77)
    for theta0 in (np.zeros(3), np.array([0.4, -0.4, 0.1])):
        z = eval_layers(problem, theta0)
        for i in range(5000):
            mode = i % 4
            dth = rng.normal(size=3)
            if mode == 0:
                d = lift_direction(problem, z, dth)
            elif mode == 1:
                d = lift_direction(problem, z, dth)
                flat = d.flat()
                flat[3 + int(rng.integers(0, 3))] += rng.normal() * 0.5
                d = direction_from_flat(problem, flat)
            else:
                d = direction_from_flat(problem, rng.normal(size=problem.nbar))
            m = radial_membership(problem, z, d)
            expected = _relu_characterization(problem, z, d)
            if m.in_radial is None or m.in_radial != expected:
                problems.append(f"grid/characterization split at draw {i}: {m.in_radial} vs {expected}")
                break
            if i % 10 == 0:
                grid = all(_ray_feasible(problem, z, d, tau) for tau in (1e-6, 1e-7, 1e-8))
                if grid != expected:
                    problems.append(f"raw grid at draw {i}: {grid} vs {expected}")
                    break
        else:
            continue
        break

    ok = _report(6, "tangent and radial membership properties", not problems)
    assert ok, "; ".join(problems)


def test_criterion_7_rnn_end_to_end():
    start = time.perf_counter()
    problems = []
    spec = desk_instance(seed=0)
    rep = train_and_certify(spec, seed=0)

    if not rep.config.certified:
        problems.append("penalty weights not certified")
    if rep.solve.probe_min < -1e-6:
        problems.append(f"final probe {rep.solve.probe_min} below -1e-6")
    if rep.max_residual > 1e-5:
        problems.append(f"final residual {rep.max_residual} above 1e-5")

    comp = rep.comparison
    if not comp["consistent"]:
        problems.append(f"formulations inconsistent: {comp['inconsistencies']}")
    if comp["d0"].verdict != comp["d1"].verdict:
        problems.append(
            f"first-order verdicts differ: {comp['d0'].verdict} vs {comp['d1'].verdict}"
        )
    if not rep.sd_equals_d:
        problems.append(
            f"second-order verdicts differ from first-order ones: "
            f"d0={comp['d0'].verdict} sd0={comp['sd0'].verdict} "
            f"d1={comp['d1'].verdict} sd1={comp['sd1'].verdict}"
        )

    elapsed = time.perf_counter() - start
    if elapsed >= 60.0:
        problems.append(f"runtime {elapsed:.1f}s exceeds 60s")
    ok = _report(7, "recurrent training run certified end to end", not problems)
    assert ok, "; ".join(problems)


def test_criterion_8_threshold_formulas():
    problems = []
    spec = desk_instance(seed=0)
    thr = rnn_thresholds(spec)

    # independent arithmetic, plain floats only
    y = [float(v) for v in spec.y.ravel()]
    lam = spec.lam
    gamma_y = sum(v * v for v in y) / (2.0 * 3.0)
    k_mix = (gamma_y / lam) ** 0.5
    gamma_1 = 1.0 + k_mix + k_mix * k_mix
    t1 = gamma_1 * gamma_y * (2.0 / (3.0 * lam)) ** 0.5
    t2 = (2.0 * gamma_y / 3.0) ** 0.5
    if abs(thr.t1 - t1) > 1e-12:
        problems.append(f"t1 {thr.t1} vs independent {t1}")
    if abs(thr.t2 - t2) > 1e-12:
        problems.append(f"t2 {thr.t2} vs independent {t2}")

    t = thresholds(0.7312, [])
    if t.shape != (1,) or t[0] != 0.7312:
        problems.append(f"single-layer threshold {t} is not the bare modulus")

    ok = _report(8, "closed-form thresholds match independent arithmetic", not problems)
    assert ok, "; ".join(problems)


def _infeasible_in_level(problem, beta, gamma, rng, scale):
    for _ in range(200):
        th = rng.normal(size=problem.n) * 0.05
        z_exact = eval_layers(problem, th)
        noise = [rng.normal(size=b.shape) * scale for b in z_exact.u]
        z = Point(th, tuple(b + e for b, e in zip(z_exact.u, noise)))
        if residuals(problem, z).max_abs <= FEAS_TOL:
            continue
        if eval_Theta(problem, z, beta) <= gamma:
            return z
        scale *= 0.5
    return None


def test_criterion_9_constructive_descent():
    problems = []
    found = 0
    failures = []

    instances = []
    sc = square_chain_problem()
    beta_sc = np.array([1.0, 0.6])
    _, gamma_sc = reference_point_and_level(sc, beta_sc)
    instances.append((sc, beta_sc, gamma_sc, 1e-5))
    spec = desk_instance(seed=0)
    rnn = build_problem(spec)
    cfg = rnn_penalty_config(spec)
    _, gamma_rnn = reference_point_and_level(rnn, cfg.beta)
    instances.append((rnn, cfg.beta, gamma_rnn, 1e-4))

    rng = np.random.default_rng(123)
    k = 0
    while found < 50 and k < 400:
        problem, beta, gamma, scale = instances[k % 2]
        k += 1
        z = _infeasible_in_level(problem, beta, gamma, rng, scale)
        if z is None:
            continue
        d = feasibility_descent_direction(problem, z)
        slope = dd_Theta(problem, z, d, beta, order=1).first
        if not slope < 0.0:
            failures.append(f"draw {k - 1}: slope {slope}")
        found += 1

    if found < 50:
        problems.append(f"only {found} infeasible in-level points drawn")
    if failures:
        problems.append(f"{len(failures)} nonnegative slopes, first: {failures[0]}")

    ok = _report(9, f"constructed descent on {found} infeasible points", not problems)
    assert ok, "; ".join(problems)
