"""Named regression scenarios with frozen expected values.

Each scenario builds a small instance, runs the relevant checkers, and
compares against hand-verified constants.  The runner returns a structured
report; the CLI prints one pass/fail line per check.

Scenario names describe the instance: ``square-chain`` is the two-layer
identity/square chain with a hinge objective, ``relu-ridge`` the plus-part
into a shifted square, ``abs-cubic`` the absolute value of a cubic
residual, ``box-max`` the box-constrained max example, ``rnn-desk`` the
small seeded recurrent network, and ``rnn-lift-descent`` a larger seeded
network at the lift of a random theta, where both first-order checks must
find the descent direction.
"""

from __future__ import annotations

import time
from typing import Callable

import numpy as np

from . import expr as ex
from .dcalc import dd_expr, dd_Psi, dd_Theta, fd_oracle, ray_quotients
from .model import (
    CompositeProblem,
    LayerMap,
    Point,
    eval_layers,
    eval_Theta,
    reference_point_and_level,
)
from .penalty import build_config
from .rnn import (
    RnnSpec,
    build_problem,
    desk_instance,
    rnn_penalty_config,
    rnn_thresholds,
    train_and_certify,
)
from .stationarity import (
    NOT_STATIONARY,
    STATIONARY,
    check_box,
    check_d_stationary_P0,
    check_d_stationary_P1,
    compare_sets_on_point,
)


def square_chain_problem() -> CompositeProblem:
    """Identity layer into a square layer, hinge objective, small ridge."""
    layer1 = LayerMap(1, (ex.affine(0.0, [1.0], [ex.theta(0)]),))
    layer2 = LayerMap(2, (ex.square(ex.uref(1, 0)),))
    outer = ex.plus(ex.affine(1e-4, [-1.0, 0.5], [ex.square(ex.uref(1, 0)), ex.uref(2, 0)]))
    return CompositeProblem(1, (layer1, layer2), outer, lam=0.01)


SQUARE_CHAIN_BETA = (1.0, 0.6)


def relu_ridge_problem() -> CompositeProblem:
    """Plus-part layer into a shifted-square layer with a linear objective."""
    layer1 = LayerMap(1, (ex.plus(ex.theta(0)),))
    inner = ex.mul(ex.affine(1.0, [1.0], [ex.theta(1)]), ex.uref(1, 0))
    layer2 = LayerMap(2, (ex.square(ex.affine(1.0, [-1.0], [inner])),))
    outer = ex.affine(0.0, [1.0], [ex.uref(2, 0)])
    return CompositeProblem(2, (layer1, layer2), outer, lam=0.01)


def abs_cubic_expr() -> ex.Expr:
    """|x1 - x2^3| over two parameters."""
    return ex.vabs(ex.sub(ex.theta(0), ex.mul(ex.theta(1), ex.square(ex.theta(1)))))


def box_max_expr() -> ex.Expr:
    """max(-1, x1*x2) + 0.1*||x||^2 over two parameters."""
    return ex.add(
        ex.vmax(ex.const(-1.0), ex.mul(ex.theta(0), ex.theta(1))),
        ex.scaled(0.1, ex.sqnorm(ex.theta(0), ex.theta(1))),
    )


def _check(checks: list, name: str, ok: bool, detail: str) -> None:
    checks.append({"name": name, "pass": bool(ok), "detail": detail})


def _run_square_chain(seed: int) -> list[dict]:
    checks: list[dict] = []
    problem = square_chain_problem()
    beta = np.array(SQUARE_CHAIN_BETA)
    z0, gamma_bar = reference_point_and_level(problem, beta)
    _check(checks, "reference level", abs(gamma_bar - 1e-4) <= 1e-18, f"gamma_bar={gamma_bar:.6e}")
    z_off = Point(np.zeros(1), (np.array([0.5]), np.array([0.0])))
    th_val = eval_Theta(problem, z_off, beta)
    _check(
        checks,
        "penalized value at the shifted point",
        abs(th_val - 0.65) <= 1e-12,
        f"Theta={th_val:.12f}",
    )
    config = build_config(problem, beta=beta, seed=seed)
    _check(
        checks,
        "sampled outer modulus within its bound",
        config.K_g <= 0.5386,
        f"K_g={config.K_g:.4f}",
    )
    _check(
        checks,
        "sampled layer modulus within its bound",
        float(config.K[0]) <= 0.21,
        f"K_1={float(config.K[0]):.4f}",
    )
    _check(
        checks,
        "thresholds small enough for this beta",
        float(config.thresholds[0]) < 1.0 and float(config.thresholds[1]) < 0.6,
        f"t={np.round(config.thresholds, 4).tolist()}",
    )
    _check(checks, "beta certified", config.certified, f"beta={beta.tolist()}")
    comp = compare_sets_on_point(problem, z0, config, seed=seed)
    _check(
        checks,
        "first-order stationary for both formulations",
        comp["d0"].verdict == STATIONARY and comp["d1"].verdict == STATIONARY,
        f"d0={comp['d0'].verdict}, d1={comp['d1'].verdict}",
    )
    _check(
        checks,
        "second-order stationary only in the lifted sense",
        comp["sd0"].verdict == STATIONARY and comp["sd1"].verdict == NOT_STATIONARY,
        f"sd0={comp['sd0'].verdict}, sd1={comp['sd1'].verdict}",
    )
    wit = comp["sd1"].witness_value
    _check(
        checks,
        "penalized curvature witness value",
        wit is not None and abs(wit + 0.78) <= 1e-9,
        f"witness={wit}",
    )
    return checks


def _run_relu_ridge(seed: int) -> list[dict]:
    checks: list[dict] = []
    problem = relu_ridge_problem()
    th = np.zeros(2)
    v = dd_Psi(problem, th, np.array([1.0, 0.0]), order=1)
    _check(checks, "slope along the positive axis", v.first == -2.0, f"first={v.first!r}")
    ok_scale = True
    for d1 in (0.5, 2.0, 3.7):
        vi = dd_Psi(problem, th, np.array([d1, 0.0]), order=1)
        ok_scale &= abs(vi.first + 2.0 * d1) <= 1e-12
    _check(checks, "slope scales linearly in the direction", ok_scale, "d1 in {0.5, 2.0, 3.7}")
    rep = check_d_stationary_P0(problem, eval_layers(problem, th))
    _check(
        checks,
        "verdict not stationary with exact witness",
        rep.verdict == NOT_STATIONARY
        and rep.witness_value is not None
        and abs(rep.witness_value + 2.0) <= 1e-12,
        f"verdict={rep.verdict}, witness={rep.witness_value}",
    )
    return checks


def _run_abs_cubic(seed: int) -> list[dict]:
    checks: list[dict] = []
    e = abs_cubic_expr()
    x = np.array([1.0, 1.0])
    d = np.array([3.0, 1.0])
    v = dd_expr(e, x, d, order=2)
    _check(
        checks,
        "fixed-direction derivatives",
        v.first == 0.0 and v.second is not None and abs(v.second - 6.0) <= 1e-9,
        f"first={v.first}, second={v.second}",
    )
    f = lambda p: ex.eval_one(e, p, [])
    orc = fd_oracle(f, x, d, order=2)
    _check(
        checks,
        "difference oracle agrees along the fixed direction",
        orc.converged and abs(orc.value - 6.0) <= 1e-3,
        f"oracle={orc.value:.6f}",
    )
    taus = [1e-2 * 0.5**k for k in range(14)]
    first_fn = lambda vv: dd_expr(e, x, vv, order=1).first
    q_plus = ray_quotients(f, x, lambda t: np.array([3.0 + 4.0 * t, 1.0]), first_fn, taus)
    q_minus = ray_quotients(f, x, lambda t: np.array([3.0 - 4.0 * t, 1.0]), first_fn, taus)
    _check(
        checks,
        "moving-direction quotients split to -6 and +6",
        abs(q_plus[-1] + 6.0) <= 1e-3 and abs(q_minus[-1] - 6.0) <= 1e-3,
        f"limits=({q_plus[-1]:.6f}, {q_minus[-1]:.6f})",
    )
    discrepancy = max(abs(q_plus[-1] - 6.0), abs(q_minus[-1] - 6.0))
    _check(
        checks,
        "moving-direction limit disagrees with the fixed one",
        discrepancy > 1.0,
        f"max gap={discrepancy:.3f} (second derivative is not a moving-direction limit here)",
    )
    return checks


def _run_box_max(seed: int) -> list[dict]:
    checks: list[dict] = []
    e = box_max_expr()
    lo, hi = np.array([-1.0, -1.0]), np.array([1.0, 1.0])
    r1 = check_box(e, np.zeros(2), lo, hi, order=1, seed=seed)
    r2 = check_box(e, np.zeros(2), lo, hi, order=2, seed=seed)
    _check(
        checks,
        "origin: first-order stationary",
        r1.verdict == STATIONARY,
        f"min found {r1.min_found:.3e}",
    )
    good_witness = False
    detail = "no witness"
    if r2.witness is not None:
        w = np.asarray(r2.witness)
        scaled = w / np.max(np.abs(w))
        val = dd_expr(e, np.zeros(2), scaled, order=2).second
        good_witness = val is not None and abs(val + 1.6) <= 1e-9
        detail = f"value at max-scaled witness {val}"
    _check(
        checks,
        "origin: second-order fails with the diagonal witness",
        r2.verdict == NOT_STATIONARY and good_witness,
        detail,
    )
    ok_corners = True
    details = []
    for corner in (np.array([-1.0, 1.0]), np.array([1.0, -1.0])):
        c1 = check_box(e, corner, lo, hi, order=1, seed=seed)
        c2 = check_box(e, corner, lo, hi, order=2, seed=seed)
        ok_corners &= c1.verdict == STATIONARY and c2.verdict == STATIONARY
        details.append(f"{corner.tolist()}: {c1.verdict}/{c2.verdict}")
    _check(checks, "corners: stationary at both orders", ok_corners, "; ".join(details))
    return checks


def _run_rnn_desk(seed: int) -> list[dict]:
    checks: list[dict] = []
    spec = desk_instance(seed)
    problem = build_problem(spec)
    _check(
        checks,
        "layer count and block sizes",
        problem.L == 8 and sum(problem.widths) == 6 * (spec.n1 + spec.n2),
        f"L={problem.L}, total width={sum(problem.widths)}",
    )
    thr = rnn_thresholds(spec)
    nt = spec.n_seq * spec.t
    y = spec.y.reshape(-1)
    g_y = float(y @ y) / (2 * nt)
    kap = (g_y / spec.lam) ** 0.5
    t1_ref = sum(kap**i for i in range(spec.t)) * g_y * (2.0 / (spec.lam * nt)) ** 0.5
    t2_ref = (2.0 * g_y / nt) ** 0.5
    _check(
        checks,
        "closed-form thresholds match independent arithmetic",
        abs(thr.t1 - t1_ref) <= 1e-12 and abs(thr.t2 - t2_ref) <= 1e-12,
        f"t1={thr.t1:.6f}, t2={thr.t2:.6f}",
    )
    report = train_and_certify(spec, seed=seed)
    _check(
        checks,
        "solver reached a probe-stationary point",
        report.solve.probe_min >= -1e-6,
        f"probe_min={report.solve.probe_min:.3e}",
    )
    _check(
        checks,
        "final point is feasible at tolerance",
        report.max_residual <= 1e-5,
        f"max residual={report.max_residual:.3e}",
    )
    comp = report.comparison
    _check(checks, "formulation verdicts consistent", comp["consistent"], str(comp["inconsistencies"]))
    _check(
        checks,
        "second-order verdicts match first-order ones",
        bool(report.sd_equals_d),
        f"d0={comp['d0'].verdict if comp['d0'] else None}, sd0={comp['sd0'].verdict if comp['sd0'] else None}",
    )
    return checks


def lift_descent_instance() -> RnnSpec:
    """The RNN that ``mcpen rnn --n1 5 --t 5 --seed 0`` draws (n0=2, n2=1)."""
    return desk_instance(0, n1=5, t=5)


def _run_rnn_lift_descent(seed: int) -> list[dict]:
    checks: list[dict] = []
    spec = lift_descent_instance()
    problem = build_problem(spec)
    config = rnn_penalty_config(spec)
    _check(
        checks,
        "closed-form beta certified",
        config.certified and problem.n > 16,
        f"n={problem.n}, nbar={problem.nbar}",
    )
    z = eval_layers(problem, 0.1 * np.random.default_rng(0).standard_normal(problem.n))
    r0 = check_d_stationary_P0(problem, z)
    r1 = check_d_stationary_P1(problem, z, config.beta)
    for name, rep in (("lifted", r0), ("penalized", r1)):
        # Theta' is P1's own slope; along P0's lifted witness the residual
        # slopes vanish, so there it is the lifted slope.
        slope, detail = None, "no witness"
        if rep.witness is not None:
            slope = dd_Theta(problem, z, rep.witness, config.beta, order=1).first
            detail = f"witness slope {slope:.4e}"
        _check(
            checks,
            f"{name} first order: not stationary, witness confirmed",
            rep.verdict == NOT_STATIONARY and slope is not None and slope < -rep.tol / 2.0,
            f"{rep.verdict} by {rep.mode}, {detail}",
        )
    return checks


SCENARIOS: dict[str, Callable[[int], list[dict]]] = {
    "square-chain": _run_square_chain,
    "relu-ridge": _run_relu_ridge,
    "abs-cubic": _run_abs_cubic,
    "box-max": _run_box_max,
    "rnn-desk": _run_rnn_desk,
    "rnn-lift-descent": _run_rnn_lift_descent,
}


def list_scenarios() -> list[str]:
    return sorted(SCENARIOS)


def run(name: str, seed: int = 0) -> dict:
    if name not in SCENARIOS:
        raise ValueError(f"unknown scenario {name!r}; known: {', '.join(list_scenarios())}")
    start = time.perf_counter()
    checks = SCENARIOS[name](seed)
    elapsed = time.perf_counter() - start
    return {
        "kind": "repro-report",
        "scenario": name,
        "ok": all(c["pass"] for c in checks),
        "checks": checks,
        "elapsed_s": elapsed,
    }
