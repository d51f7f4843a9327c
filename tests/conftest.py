"""Shared fixtures: canonical instances, a seeded random problem generator and trained desk points."""

from functools import cache

import numpy as np
import pytest

_acceptance_lines = []


def record_acceptance(line):
    """Collect a criterion verdict for the end-of-run summary."""
    _acceptance_lines.append(line)


def pytest_terminal_summary(terminalreporter):
    if _acceptance_lines:
        terminalreporter.section("acceptance criteria")
        for line in _acceptance_lines:
            terminalreporter.write_line(line)

from mcpen import expr as ex
from mcpen.model import CompositeProblem, LayerMap, eval_layers
from mcpen.repro import (
    abs_cubic_expr,
    box_max_expr,
    relu_ridge_problem,
    square_chain_problem,
)
from mcpen.rnn import build_problem, desk_instance, rnn_penalty_config
from mcpen.solver import SolveConfig, minimize_theta, polish_to_feasible
from walkers import scalar_value


def record_order_1_flags(monkeypatch) -> list[bool]:
    """Patch ``Tape.cells`` to note, pass by pass, whether the pass is of order 1 and builds kinked flags."""
    noted, real = [], ex.Tape.cells

    def noting(tape, *args, **kwargs):
        order = kwargs.get("order", args[4] if len(args) > 4 else 1)
        noted.append(order == 1 and kwargs.get("kinks", False))
        return real(tape, *args, **kwargs)

    monkeypatch.setattr(ex.Tape, "cells", noting)
    return noted


def record_compiles(monkeypatch) -> list[str]:
    """Patch ``expr.walk`` and ``expr.place`` to note each graph walk ("walk") and each program placed.

    A placement is noted as "chained", "outer" (the last root alone) or "fixed".
    """
    noted, walk, place = [], ex.walk, ex.place

    def walking(*args, **kwargs):
        noted.append("walk")
        return walk(*args, **kwargs)

    def placing(graph, roots, chained=False):
        noted.append("chained" if chained else "outer" if list(roots) == graph.roots[-1:] else "fixed")
        return place(graph, roots, chained)

    monkeypatch.setattr(ex, "walk", walking)
    monkeypatch.setattr(ex, "place", placing)
    return noted


@pytest.fixture
def square_chain():
    return square_chain_problem()


@pytest.fixture
def relu_ridge():
    return relu_ridge_problem()


@pytest.fixture
def box_max():
    return box_max_expr()


@pytest.fixture
def abs_cubic():
    return abs_cubic_expr()


@pytest.fixture
def rnn_spec():
    return desk_instance(seed=0)


@pytest.fixture
def rnn_problem(rnn_spec):
    return build_problem(rnn_spec)


@cache
def desk_points(seed):
    """A desk RNN, its closed-form config, its 0.1 N(0, I) lift and its trained, polished point."""
    spec = desk_instance(seed)
    problem, config = build_problem(spec), rnn_penalty_config(spec)
    lift = eval_layers(problem, 0.1 * np.random.default_rng(seed).standard_normal(problem.n))
    res = minimize_theta(problem, config.beta, SolveConfig(max_iters=400, stop_tol=1e-8, seed=seed))
    trained, _, _ = polish_to_feasible(problem, res.z, config.beta)
    return problem, config, (lift, trained)


def _leaf(rng, n, max_layer, widths, theta_ok=True):
    if max_layer >= 1 and (not theta_ok or rng.random() < 0.6):
        j = int(rng.integers(1, max_layer + 1))
        return ex.uref(j, int(rng.integers(0, widths[j - 1])))
    if theta_ok:
        return ex.theta(int(rng.integers(0, n)))
    return ex.const(float(rng.normal()))


def _rand_expr(rng, n, max_layer, widths, depth, allow_kinks=True, theta_ok=True):
    if depth <= 0:
        if rng.random() < 0.2:
            return ex.const(round(float(rng.normal()), 3))
        return _leaf(rng, n, max_layer, widths, theta_ok)
    smooth_ops = ["affine", "add", "sub", "scaled", "mul", "square", "dot", "sqnorm"]
    kink_ops = ["max", "abs", "plus", "leaky"]
    op = rng.choice(smooth_ops + kink_ops if allow_kinks else smooth_ops)
    child = lambda: _rand_expr(rng, n, max_layer, widths, depth - 1, allow_kinks, theta_ok)
    if op == "affine":
        m = int(rng.integers(1, 4))
        coeffs = [round(float(rng.normal()), 3) for _ in range(m)]
        return ex.affine(round(float(rng.normal()), 3), coeffs, [child() for _ in range(m)])
    if op == "add":
        return ex.add(child(), child())
    if op == "sub":
        return ex.sub(child(), child())
    if op == "scaled":
        return ex.scaled(round(float(rng.normal()), 3), child())
    if op == "mul":
        return ex.mul(child(), child())
    if op == "square":
        return ex.square(child())
    if op == "dot":
        m = int(rng.integers(1, 3))
        return ex.dot([child() for _ in range(m)], [child() for _ in range(m)])
    if op == "sqnorm":
        return ex.sqnorm(*[child() for _ in range(int(rng.integers(1, 3)))])
    if op == "max":
        return ex.vmax(child(), child())
    if op == "abs":
        return ex.vabs(child())
    if op == "plus":
        return ex.plus(child())
    return ex.leaky(child(), float(rng.choice([0.0, 0.1, 0.25])))


def negative_outer_problem():
    """u_1 = theta_1 under g(u) = u_1 - 1, so the reference level at theta = 0 is -1."""
    layer = LayerMap(1, (ex.affine(0.0, [1.0], [ex.theta(0)]),))
    return CompositeProblem(1, (layer,), ex.affine(-1.0, [1.0], [ex.uref(1, 0)]), lam=0.1)


def blowup_problem(op):
    """u_2 = op(c*(1 - u_1)) with c = 2e154: finite at u_1 = 1/2, past the float range at u_1 = 1/4.

    op is ``ex.mul`` of the term with itself or ``ex.sqnorm`` of the term;
    either value overflows to inf.
    """
    s = ex.scaled(2e154, ex.affine(1.0, [-1.0], [ex.uref(1, 0)]))
    layer2 = LayerMap(2, (ex.mul(s, s) if op == "mul" else ex.sqnorm(s),))
    return CompositeProblem(1, (LayerMap(1, (ex.theta(0),)), layer2), ex.uref(2, 0), lam=0.1)


def half_square_chain():
    """u_1 = theta, u_2 = u_1^2 - 0.5*u_1^2: each square can overflow where their difference does not."""
    u1 = ex.uref(1, 0)
    layer2 = LayerMap(2, (ex.affine(0.0, [1.0, -0.5], [ex.square(u1), ex.square(u1)]),))
    return CompositeProblem(1, (LayerMap(1, (ex.theta(0),)), layer2), ex.uref(2, 0), lam=0.1)


def random_problem(seed, max_n=4, max_L=3, max_width=3, allow_kinks=True):
    """Small random instance touching the whole primitive vocabulary."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, max_n + 1))
    L = int(rng.integers(1, max_L + 1))
    widths = [int(rng.integers(1, max_width + 1)) for _ in range(L)]
    layers = []
    for k in range(1, L + 1):
        exprs = tuple(
            _rand_expr(rng, n, k - 1, widths, depth=int(rng.integers(1, 3)), allow_kinks=allow_kinks)
            for _ in range(widths[k - 1])
        )
        layers.append(LayerMap(index=k, exprs=exprs))
    outer = _rand_expr(rng, n, L, widths, depth=2, allow_kinks=allow_kinks, theta_ok=False)
    lam = max(round(float(rng.uniform(0.0, 0.3)), 3), 1e-3)
    return CompositeProblem(n=n, layers=tuple(layers), outer=outer, lam=lam)


def kink_margin_expr(e, th, ublocks):
    """Smallest branch gap over the kinked nodes of one expression.

    The gap is |a - b| for max(a, b), (1 - alpha)|a| for a leaky relu and
    |a| for abs and the plus part.  Exact ties (gap below 1e-12) do not
    count: the one-sided rules handle them and a difference quotient along
    a fixed ray sees the same branch.  The dangerous regime is a gap that is
    small but nonzero, where a finite step can hop the kink.
    """
    worst = np.inf
    for node in ex.nodes(e):
        if node.family != ex.KINK:
            continue
        a = scalar_value(node.args[0], th, ublocks)
        if node.op == "max":
            gap = abs(a - scalar_value(node.args[1], th, ublocks))
        elif node.op == "leaky_relu":
            gap = (1.0 - node.alpha) * abs(a)
        else:
            gap = abs(a)
        if gap > 1e-12:
            worst = min(worst, gap)
    return worst


def kink_margin_problem(problem, th):
    z = eval_layers(problem, th)
    worst = kink_margin_expr(problem.outer, th, z.u)
    for layer in problem.layers:
        blocks = z.u[: layer.index - 1]
        for e in layer.exprs:
            worst = min(worst, kink_margin_expr(e, th, blocks))
    return worst


def draw_oracle_case(seed, margin=5e-2, tries=64):
    """Seeded (problem, theta, direction) with all kinks clear of the ray.

    Rejection uses only the a-priori branch-gap guard, never the outcome of
    any later comparison.  Returns None when the seed yields no usable case
    within the try budget.
    """
    rng = np.random.default_rng(seed)
    for _ in range(tries):
        problem = random_problem(int(rng.integers(0, 2**31)))
        th = rng.uniform(-1.5, 1.5, size=problem.n)
        d = rng.normal(size=problem.n)
        nd = np.linalg.norm(d)
        if nd < 1e-9:
            continue
        d = d / nd
        try:
            if kink_margin_problem(problem, th) < margin:
                continue
        except FloatingPointError:
            continue
        vals = eval_layers(problem, th)
        if max((float(np.max(np.abs(b))) if b.size else 0.0) for b in vals.u) > 1e3:
            continue
        return problem, th, d
    return None
