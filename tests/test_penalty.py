"""Moduli, thresholds, certification, and the constructive descent direction."""

import collections
import hashlib
import warnings

import numpy as np
import pytest

from conftest import negative_outer_problem, random_problem
from walkers import per_layer_judge, scalar_g, scalar_layer, scalar_sample_level_set
from mcpen import expr as ex
from mcpen.dcalc import dd_Theta
from mcpen.model import (
    FEAS_TOL,
    CompositeProblem,
    EvaluationError,
    LayerMap,
    Point,
    eval_layers,
    eval_Theta,
    point_from_flat,
    reference_point_and_level,
    residuals,
)
from mcpen.penalty import (
    BETA_FLOOR,
    _sample_level_set,
    build_config,
    certify,
    estimate_moduli,
    feasibility_descent_direction,
    suggest_beta,
    thresholds,
)
from mcpen.rnn import build_problem, desk_instance, rnn_penalty_config
from mcpen.stationarity import compare_sets_on_point


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


def test_thresholds_refuse_a_non_finite_modulus():
    with pytest.raises(ValueError, match=r"^outer function has a non-finite Lipschitz modulus \(K_g = nan\)"):
        thresholds(np.nan, [1.0])
    with pytest.raises(ValueError, match=r"^layer 3 map has a non-finite Lipschitz modulus \(K_2 = inf\)"):
        thresholds(0.0, [1.0, np.inf])
    with pytest.raises(ValueError, match=r"^threshold t_2 = inf leaves no finite penalty weight above it$"):
        suggest_beta([1.0, np.inf, np.nan])


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


def _overflow_chain(c2, c3, dip=0.0):
    """u_1 = theta_1, then c (u_1 - theta_1) in layers 2 and 3 (layer 3 only if c3).

    The residual noise keeps c (u_1 - theta_1) finite at the sample points,
    but a pair pits one point's theta against the other's u_1, and c times
    that gap overflows.  The outer function (u_1 - 1)^2 - dip dips below
    zero inside the level set when dip > 0.
    """
    gap = ex.sub(ex.uref(1, 0), ex.theta(0))
    layers = [LayerMap(1, (ex.theta(0),)), LayerMap(2, (ex.scaled(c2, gap),))]
    if c3:
        layers.append(LayerMap(3, (ex.scaled(c3, gap),)))
    outer = ex.affine(-dip, [1.0], [ex.square(ex.affine(-1.0, [1.0], [ex.uref(1, 0)]))])
    return CompositeProblem(1, tuple(layers), outer, lam=0.1)


# sha256 of (K_g, K) or of the exception's type and message for the cases
# below, recorded with the estimate_moduli that walked each pair's trees one
# scalar value at a time; re-recorded when the level-set sampler began to draw
# whole rows in blocks, after its points, warnings and generator state
# matched the scalar loop of that draw
MODULI_SHA256 = "03c597a895c9717b9242f8de4b1a7472877bf84ca35006dc27c686a5216889e4"


def _moduli_outcome(run):
    """Bytes of (K_g, K) or of the exception raised, and the distinct g warnings in order."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            K_g, K = run()[:2]
            out = np.float64(K_g).tobytes() + np.asarray(K, dtype=np.float64).tobytes()
        except (ValueError, ArithmeticError, RuntimeError) as err:
            out = f"{type(err).__name__}: {err}".encode()
    return out, list(dict.fromkeys(str(w.message) for w in caught if "outer function" in str(w.message)))


def test_sampled_moduli_are_bit_identical(square_chain, relu_ridge):
    problems = [square_chain, relu_ridge, *(random_problem(seed) for seed in range(40))]
    # an infinite K_1, and a first non-finite layer value in layer 2 or in layer
    # 3; in the last chain layer 2 also fails, but at a later pair
    problems += [_overflow_chain(1e308, 0.0), _overflow_chain(2e307, 1e308), _overflow_chain(1e308, 2e307)]
    problems.append(_overflow_chain(1.2e308, 1.7e308, dip=0.2))
    h = hashlib.sha256()
    for budget, seed in ((300, 0), (1200, 5)):
        for problem in problems:
            h.update(_moduli_outcome(lambda: estimate_moduli(problem, budget=budget, seed=seed))[0])
    assert h.hexdigest() == MODULI_SHA256


def _moduli_pair_by_pair(problem, budget, seed):
    """(K_g, K) of estimate_moduli with each pair drawn and evaluated on its own."""
    beta = np.ones(problem.L)
    _, gamma_bar = reference_point_and_level(problem, beta)
    rng = np.random.default_rng(seed)
    P = _sample_level_set(problem, beta, gamma_bar, 1e-3, max(16, int(np.sqrt(budget)) * 2), rng)
    K_g, K = 0.0, np.zeros(problem.L - 1)
    for _ in range(budget if len(P) >= 2 else 0):
        i, j = rng.integers(0, len(P), size=2)
        a, b = point_from_flat(problem, P[i]), point_from_flat(problem, P[j])
        nu = np.linalg.norm(np.concatenate([x - y for x, y in zip(a.u, b.u)]))
        if nu > 1e-12:
            K_g = max(K_g, abs(scalar_g(problem, a.u) - scalar_g(problem, b.u)) / nu)
        for ell in range(1, problem.L):
            npre = np.linalg.norm(np.concatenate([x - y for x, y in zip(a.u[:ell], b.u[:ell])]))
            if npre > 1e-12:
                va = scalar_layer(problem, ell + 1, a.theta, a.u[:ell])
                vb = scalar_layer(problem, ell + 1, a.theta, b.u[:ell])
                K[ell - 1] = max(K[ell - 1], float(np.linalg.norm(va - vb)) / npre)
    return float(K_g), K


def test_batched_pairs_match_the_pair_loop():
    problems = [random_problem(seed) for seed in range(40, 60)]
    problems += [_overflow_chain(1e308, 0.0), _overflow_chain(1.2e308, 1.7e308, dip=0.2)]
    for problem in problems:
        batched = _moduli_outcome(lambda: estimate_moduli(problem, budget=300, seed=1))
        assert batched == _moduli_outcome(lambda: _moduli_pair_by_pair(problem, 300, 1))


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
    out = compare_sets_on_point(square_chain, z0, cfg)
    assert out["consistent"], out["inconsistencies"]
    assert out["feasible"]
    assert out["in_level_set"]


def test_exactness_cross_check_out_of_level(square_chain):
    beta = np.array([1.0, 0.6])
    cfg = build_config(square_chain, beta=beta, seed=0)
    z = Point(np.array([2.0]), (np.array([5.0]), np.array([1.0])))
    out = compare_sets_on_point(square_chain, z, cfg)
    assert not out["in_level_set"] and not out["feasible"]
    # No guarantee applies outside the level set, so nothing is flagged;
    # the lifted checks need a feasible point and do not run.
    assert out["consistent"]
    assert out["d0"] is None and out["sd0"] is None and out["sd1"] is None


def test_level_set_sampling_skips_only_evaluation_errors(square_chain, monkeypatch):
    # layer 1 overflows over the whole box, so each of the 20 * 5 candidates
    # takes its full row, stops there and is skipped
    layer = LayerMap(1, (ex.add(ex.const(1e308), ex.const(1e308), ex.theta(0)),))
    overflowing = CompositeProblem(1, (layer,), ex.square(ex.uref(1, 0)), lam=0.1)
    rng, ref = np.random.default_rng(0), np.random.default_rng(0)
    assert _sample_level_set(overflowing, np.ones(1), 1.0, 1e-3, 5, rng).shape == (0, overflowing.nbar)
    ref.random((100, overflowing.nbar))
    assert rng.bit_generator.state == ref.bit_generator.state

    def raising(*args):
        raise TypeError("a programming error")

    monkeypatch.setattr(ex.Tape, "values", raising)
    with pytest.raises(TypeError, match="a programming error"):
        _sample_level_set(square_chain, np.array([1.0, 0.6]), 1.0, 1e-3, 5, np.random.default_rng(0))


def _sampler_run(sample, problem, beta, budget, seed):
    """Point bytes or the exception of one sampler run, its warning texts, and the generator state after it.

    The sampler returns one lifted point per row of a matrix; the scalar loop returns a list of ``Point``.
    """
    rng = np.random.default_rng(seed)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        _, gamma_bar = reference_point_and_level(problem, beta)
        try:
            pts = sample(problem, beta, gamma_bar, 1e-3, budget, rng)
            rows = pts if isinstance(pts, np.ndarray) else [np.concatenate([p.theta, *p.u]) for p in pts]
            out = b"".join(row.tobytes() for row in rows)
        except (ValueError, ArithmeticError, RuntimeError) as err:
            out = f"{type(err).__name__}: {err}"
    return out, [str(w.message) for w in caught], rng.bit_generator.state


def _dip_problem():
    """u_1 = theta_1 and g = 1 - u_1^2 / 2.

    At beta 1 about half the candidates are accepted, and g < 0 where |u_1| > 1.42.
    """
    layers = (LayerMap(1, (ex.theta(0),)),)
    return CompositeProblem(1, layers, ex.affine(1.0, [-0.5], [ex.square(ex.uref(1, 0))]), lam=0.1)


def _sampler_cases():
    """(problem, beta, budget, seed) of every run compared with the scalar loop."""
    # accepting, rejecting and mixed runs, negative levels and negative g;
    # at beta 0.3 the chains' candidates stop at a layer that is not finite
    cases = [(random_problem(seed), b) for seed in range(60) for b in (1.0, 0.3)]
    chain = _overflow_chain(1e308, 0.0)
    cases += [(chain, 1.0), (chain, 0.3), (_overflow_chain(1.2e308, 1.7e308, dip=0.2), 0.3)]
    # layer 2's noise range [-inf, inf] raises numpy's OverflowError
    cases.append((chain, [1.0, 1e-320]))
    # g = 1 - 2e308 u_1 is negative or not finite at most candidates
    outer = ex.add(ex.const(1.0), ex.scaled(2.0, ex.scaled(-1e308, ex.uref(1, 0))))
    cases.append((CompositeProblem(1, (LayerMap(1, (ex.theta(0),)),), outer, lam=0.1), 1.0))
    runs = [(problem, np.broadcast_to(b, problem.L).astype(float), 30, seed) for seed, (problem, b) in enumerate(cases)]
    # the edge cases of test_level_set_sampler_edge_cases_are_what_they_say
    runs += [(_dip_problem(), np.ones(1), 30, seed) for seed in range(4)]
    runs += [(p, np.ones(p.L), 30, seed) for p, seed in ((random_problem(2), 0), (random_problem(4), 4))]
    return runs


def test_level_set_sampler_matches_the_scalar_loop():
    for i, (problem, beta, budget, seed) in enumerate(_sampler_cases()):
        blocks = _sampler_run(_sample_level_set, problem, beta, budget, seed)
        assert blocks == _sampler_run(scalar_sample_level_set, problem, beta, budget, seed), i


def test_blocks_match_the_scalar_loop_where_candidates_stop():
    # most candidates are accepted, and layer 2 overflows where |theta| > 2.57,
    # inside the box of radius 3.16: a block holds accepted candidates,
    # rejected ones and candidates that stop at layer 2
    layers = (LayerMap(1, (ex.theta(0),)), LayerMap(2, (ex.scaled(7e307, ex.theta(0)),)))
    problem = CompositeProblem(1, layers, ex.affine(1.0, [-0.5], [ex.square(ex.uref(1, 0))]), lam=0.1)
    for seed in range(3):
        blocks = _sampler_run(_sample_level_set, problem, np.ones(2), 30, seed)
        assert blocks == _sampler_run(scalar_sample_level_set, problem, np.ones(2), 30, seed), seed


def test_level_set_sampler_edge_cases_are_what_they_say():
    # (a) The budget fills inside the second block, and later rows of that
    # block have g < 0: their warnings do not appear.  Row (w_0, w_1) holds
    # theta = -r + 2r w_0 and u_1 = theta - 1 + 2 w_1, with r = sqrt(10).
    # No run can fill the budget before a row that reaches a layer whose
    # noise range is not finite: that layer stops every candidate, so none
    # is accepted.
    problem = _dip_problem()
    for seed in range(4):
        W = np.random.default_rng(seed).random((5 * 30, 2))
        r = np.sqrt(10.0)
        th = -r + 2.0 * r * W[:, 0]
        u = th + (-1.0 + 2.0 * W[:, 1])
        g = 1.0 - 0.5 * u * u
        accepted = np.flatnonzero(g + 0.1 * th * th + np.abs(u - th) <= 1.0)
        assert 30 <= accepted.size and accepted[29] >= 30
        fill = accepted[29]
        assert (g[fill + 1 :] < 0.0).any(), seed
        points, warned, _ = _sampler_run(_sample_level_set, problem, np.ones(1), 30, seed)
        assert len(points) == 30 * 2 * 8 and len(warned) == (g[: fill + 1] < 0.0).sum(), seed
    # (b) the 20 * budget tries run out at the end of the third block with
    # the budget part filled; (c) no candidate is accepted, and no
    # perturbation is drawn
    for problem, accepted in ((random_problem(2), 23), (random_problem(4), 0)):
        seed = 0 if accepted else 4
        rng = np.random.default_rng(seed)
        _, gamma_bar = reference_point_and_level(problem, np.ones(problem.L))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            assert len(_sample_level_set(problem, np.ones(problem.L), gamma_bar, 1e-3, 30, rng)) == accepted
        if not accepted:
            ref = np.random.default_rng(seed)
            ref.random((20 * 30, problem.nbar))
            assert rng.bit_generator.state == ref.bit_generator.state


def test_level_tape_matches_a_fixed_tape_pass_per_layer():
    # random columns, columns of magnitudes up to 1e308 whose values overflow,
    # columns holding NaN, infinities and signed zeros, and a column of -0.0,
    # where -0.0 + psi + rho keeps the sign that 0.0 + psi + rho would lose
    chains = [_overflow_chain(1e308, 0.0), _overflow_chain(2e307, 1e308), _overflow_chain(1e308, 2e307)]
    chains.append(_overflow_chain(1.2e308, 1.7e308, dip=0.2))
    special = np.array([np.nan, np.inf, -np.inf, 0.0, -0.0])
    for seed, problem in enumerate([*(random_problem(seed) for seed in range(60)), *chains]):
        rng = np.random.default_rng(seed)
        n, R = problem.n, problem.nbar - problem.n
        Z = rng.uniform(-1.0, 1.0, (problem.nbar, 24))
        Z[:, 8:16] *= 10.0 ** rng.integers(-3, 309, (problem.nbar, 8))
        Z[:, 16:] = np.where(rng.random((problem.nbar, 8)) < 0.3, rng.choice(special, (problem.nbar, 8)), Z[:, 16:])
        Z[:, -1] = -0.0
        X, U, g = per_layer_judge(problem, Z[:n], Z[n:])
        V = problem.chained_tape.shifted().values(Z[:n], [Z[n:]])
        assert V[:R].tobytes() == X.tobytes() and V[R : 2 * R].tobytes() == U.tobytes(), seed
        assert V[2 * R].tobytes() == g.tobytes(), seed
        # each problem has columns whose roots are all finite and columns that are not
        assert 0 < np.isfinite(V).all(axis=0).sum() < 24, seed


@pytest.mark.filterwarnings("ignore:outer function evaluated")
def test_level_set_sampler_takes_few_tape_passes(monkeypatch):
    passes, compiled = collections.Counter(), []

    def counted(real, key):
        def count(*args):
            passes[key(args)] += 1
            return real(*args)

        return count

    def shifted(tape, real=ex.Tape.shifted):
        compiled.append(real(tape))
        return compiled[-1]

    monkeypatch.setattr(ex.Tape, "values", counted(ex.Tape.values, lambda args: args[0]))
    monkeypatch.setattr(ex, "eval_many", counted(ex.eval_many, lambda args: "walk"))
    monkeypatch.setattr(ex.Tape, "shifted", shifted)
    # random_problem(4) accepts none of its 2,000 candidates, random_problem(9)
    # all of its first 100, and random_problem(2) 92 of its 2,000
    runs = [(random_problem(seed), None, 100, seed, accepted) for seed, accepted in ((4, 0), (9, 100), (2, 92))]
    runs += [(*case, None) for case in _sampler_cases()]
    for i, (problem, beta, budget, seed, accepted) in enumerate(runs):
        beta = np.ones(problem.L) if beta is None else beta
        _, gamma_bar = reference_point_and_level(problem, beta)
        passes.clear()
        compiled.clear()
        try:
            P = _sample_level_set(problem, beta, gamma_bar, 1e-3, budget, np.random.default_rng(seed))
            assert accepted is None or len(P) == accepted
        except (ValueError, ArithmeticError):
            pass
        # at most one level-tape pass per block, and no pass of the problem's own tapes
        assert len(compiled) <= 1 and set(passes) <= set(compiled) and sum(passes.values()) <= 3, i
