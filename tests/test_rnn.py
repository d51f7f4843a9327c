"""Recurrent instance: packing, forward pass, thresholds, cones, training."""

import numpy as np
import pytest

from mcpen.cones import (
    LIFT_TOL,
    TANGENT_TOL,
    ConeMembership,
    lift_direction,
    tangent_membership,
)
from mcpen.dcalc import Direction, direction_from_flat
from mcpen.model import (
    CompositeProblem,
    Point,
    eval_layers,
    eval_Psi_plus_reg,
    require_feasible,
    residuals,
)
from mcpen.rnn import (
    RnnSpec,
    beta_vector,
    build_problem,
    desk_instance,
    layer_tags,
    load_sequences,
    read_sequence_csv,
    rnn_penalty_config,
    rnn_thresholds,
    theta_pack,
    theta_unpack,
)


def _leaky(w, alpha):
    return np.where(w >= 0, w, alpha * w)


def _independent_forward(spec, th):
    """Hand-rolled recursion kept deliberately separate from the library."""
    A, V, W, b, c = theta_unpack(spec, th)
    states, outs = [], []
    for q in range(spec.n_seq):
        s = np.zeros(spec.n1)
        for t in range(spec.t):
            w = A @ spec.x[q, t] + (W @ s if t > 0 else 0.0) + b
            s = _leaky(w, spec.alpha)
            states.append(s.copy())
            outs.append(_leaky(V @ s + c, spec.alpha))
    return np.array(states), np.array(outs)


def test_pack_unpack_round_trip(rnn_spec):
    rng = np.random.default_rng(0)
    A = rng.normal(size=(3, 2))
    V = rng.normal(size=(1, 3))
    W = rng.normal(size=(3, 3))
    b = rng.normal(size=3)
    c = rng.normal(size=1)
    th = theta_pack(A, V, W, b, c)
    assert th.shape == (rnn_spec.n_params,)
    A2, V2, W2, b2, c2 = theta_unpack(rnn_spec, th)
    for got, want in ((A2, A), (V2, V), (W2, W), (b2, b), (c2, c)):
        assert np.array_equal(got, want)


def test_layer_tags_order(rnn_spec):
    tags = layer_tags(rnn_spec)
    assert len(tags) == 2 * rnn_spec.t * rnn_spec.n_seq + 2
    assert tags[0][0] == "w"
    assert tags[1][0] == "s"
    assert tags[-2][0] == "v"
    assert tags[-1][0] == "r"


def test_forward_matches_independent_recursion(rnn_spec):
    problem = build_problem(rnn_spec)
    rng = np.random.default_rng(4)
    for _ in range(10):
        th = rng.normal(size=rnn_spec.n_params)
        z = eval_layers(problem, th)
        states, outs = _independent_forward(rnn_spec, th)
        # state blocks interleave with preactivations: check each s_t and r
        tags = layer_tags(rnn_spec)
        s_blocks = [z.u[k] for k, tag in enumerate(tags) if tag[0] == "s"]
        for got, want in zip(s_blocks, states):
            assert np.max(np.abs(got - want)) <= 1e-12
        r_block = z.u[-1]
        assert np.max(np.abs(r_block - outs.ravel())) <= 1e-12


def test_objective_is_halved_mean_square_error(rnn_spec):
    problem = build_problem(rnn_spec)
    rng = np.random.default_rng(5)
    th = rng.normal(size=rnn_spec.n_params) * 0.3
    _, outs = _independent_forward(rnn_spec, th)
    resid = outs.ravel() - rnn_spec.y.ravel()
    nt = rnn_spec.n_seq * rnn_spec.t
    expected = float(resid @ resid) / (2 * nt) + rnn_spec.lam * float(th @ th)
    assert eval_Psi_plus_reg(problem, th) == pytest.approx(expected, abs=1e-12)


def test_thresholds_closed_forms(rnn_spec):
    thr = rnn_thresholds(rnn_spec)
    nt = rnn_spec.n_seq * rnn_spec.t
    gamma_y = float(rnn_spec.y.ravel() @ rnn_spec.y.ravel()) / (2 * nt)
    k_mix = np.sqrt(gamma_y / rnn_spec.lam)
    gamma_1 = sum(k_mix**i for i in range(rnn_spec.t))
    t1 = gamma_1 * gamma_y * np.sqrt(2.0 / (rnn_spec.lam * nt))
    t2 = np.sqrt(2.0 * gamma_y / nt)
    assert thr.gamma_y == pytest.approx(gamma_y, abs=1e-15)
    assert thr.gamma_1 == pytest.approx(gamma_1, abs=1e-12)
    assert thr.t1 == pytest.approx(t1, abs=1e-12)
    assert thr.t2 == pytest.approx(t2, abs=1e-12)
    assert thr.K_g == pytest.approx(t2, abs=1e-15)
    assert thr.K_act == 1.0
    assert thr.K_mix == pytest.approx(k_mix, abs=1e-15)


def test_zero_targets_floor_the_weights():
    spec = desk_instance(0)
    zero = RnnSpec(
        n0=spec.n0,
        n1=spec.n1,
        n2=spec.n2,
        t=spec.t,
        x=spec.x,
        y=np.zeros_like(spec.y),
        alpha=spec.alpha,
        lam=spec.lam,
    )
    thr = rnn_thresholds(zero)
    assert thr.t1 == 0.0
    assert thr.t2 == 0.0
    cfg = rnn_penalty_config(zero)
    assert np.all(cfg.beta > 0.0)
    assert cfg.certified


def test_beta_vector_grouping(rnn_spec):
    b = beta_vector(rnn_spec, 1.5, 0.25)
    assert b.shape == (2 * rnn_spec.t * rnn_spec.n_seq + 2,)
    assert np.all(b[:-2] == 1.5)
    assert np.all(b[-2:] == 0.25)


def test_penalty_config_uses_grouped_thresholds(rnn_spec):
    cfg = rnn_penalty_config(rnn_spec)
    thr = rnn_thresholds(rnn_spec)
    assert cfg.thresholds[0] == pytest.approx(thr.t1, abs=1e-12)
    assert cfg.thresholds[-1] == pytest.approx(thr.t2, abs=1e-12)
    assert np.all(cfg.beta > cfg.thresholds)


def rnn_tangent_cone_check(
    spec: RnnSpec, z: Point, d: Direction, problem: CompositeProblem | None = None
) -> ConeMembership:
    """Tangent and radial cone membership through the network recursions.

    An oracle for ``cones.tangent_membership`` that indexes the network's
    blocks by hand instead of walking the expression trees.

    Tangency chains the direction blocks through the linearized recursion;
    the radial test additionally requires the bilinear interaction terms
    D_W d_s and D_V d_s to vanish, which makes the ray stay exactly on the
    feasible set for small steps.
    """
    problem = problem or build_problem(spec)
    require_feasible(problem, z)
    _, V, W, _, _ = theta_unpack(spec, z.theta)
    DA, DV, DW, db, dc = theta_unpack(spec, d.dtheta)

    def act_prime(vals: np.ndarray, dv: np.ndarray) -> np.ndarray:
        lo = spec.alpha * dv
        return np.where(vals > 1e-12, dv, np.where(vals < -1e-12, lo, np.maximum(dv, lo)))

    tags = layer_tags(spec)
    violations: list[np.ndarray] = []
    radial_resid = 0.0
    for k, (kind, q, t) in enumerate(tags):
        if kind == "w":
            s_prev = np.zeros(spec.n1) if t == 1 else z.u[k - 1]
            ds_prev = np.zeros(spec.n1) if t == 1 else np.asarray(d.du[k - 1])
            expect = DA @ spec.x[q, t - 1] + DW @ s_prev + W @ ds_prev + db
            radial_resid = max(radial_resid, float(np.max(np.abs(DW @ ds_prev), initial=0.0)))
        elif kind == "s":
            expect = act_prime(z.u[k - 1], np.asarray(d.du[k - 1]))
        elif kind == "v":
            rows = []
            for qq in range(spec.n_seq):
                for tt in range(1, spec.t + 1):
                    sl = qq * 2 * spec.t + 2 * tt  # 1-based index of the state layer
                    s_val = z.u[sl - 1]
                    ds = np.asarray(d.du[sl - 1])
                    rows.append(DV @ s_val + V @ ds + dc)
                    radial_resid = max(radial_resid, float(np.max(np.abs(DV @ ds), initial=0.0)))
            expect = np.concatenate(rows)
        else:
            expect = act_prime(z.u[k - 1], np.asarray(d.du[k - 1]))
        violations.append(np.abs(np.asarray(d.du[k]) - expect))
    mx = max(float(np.max(v, initial=0.0)) for v in violations)
    in_tangent = mx <= TANGENT_TOL
    notes = [f"bilinear interaction residual {radial_resid:.3e}"]
    in_radial: bool | None = None
    if in_tangent:
        in_radial = radial_resid <= LIFT_TOL
    return ConeMembership(in_tangent, in_radial, violations, mx, notes)


def test_cone_check_accepts_lifted_and_localizes(rnn_spec):
    problem = build_problem(rnn_spec)
    rng = np.random.default_rng(6)
    th = rng.normal(size=rnn_spec.n_params) * 0.4
    z = eval_layers(problem, th)
    for _ in range(10):
        d = lift_direction(problem, z, rng.normal(size=rnn_spec.n_params))
        m = rnn_tangent_cone_check(rnn_spec, z, d, problem=problem)
        ref = tangent_membership(problem, z, d)
        assert m.in_tangent and ref.in_tangent
        bad_flat = d.flat()
        bad_flat[rnn_spec.n_params + 1] += 0.3
        bad = direction_from_flat(problem, bad_flat)
        m2 = rnn_tangent_cone_check(rnn_spec, z, bad, problem=problem)
        ref2 = tangent_membership(problem, z, bad)
        assert m2.in_tangent == ref2.in_tangent == False  # noqa: E712


def test_cone_radial_requires_vanishing_mixing(rnn_spec):
    problem = build_problem(rnn_spec)
    rng = np.random.default_rng(7)
    th = rng.normal(size=rnn_spec.n_params) * 0.4
    z = eval_layers(problem, th)
    # zero out the mixing blocks of the parameter direction: dW = dV = 0
    off = rnn_spec.offsets()
    dth = rng.normal(size=rnn_spec.n_params)
    dth[off["V"] : off["V"] + rnn_spec.n2 * rnn_spec.n1] = 0.0
    dth[off["W"] : off["W"] + rnn_spec.n1 * rnn_spec.n1] = 0.0
    d = lift_direction(problem, z, dth)
    m = rnn_tangent_cone_check(rnn_spec, z, d, problem=problem)
    assert m.in_tangent
    # with dV = dW = 0 the bilinear curvature terms vanish identically
    assert m.in_radial is True
    d_full = lift_direction(problem, z, rng.normal(size=rnn_spec.n_params))
    m_full = rnn_tangent_cone_check(rnn_spec, z, d_full, problem=problem)
    assert m_full.in_radial is False


def test_sequence_csv_round_trip(tmp_path, rnn_spec):
    lines = ["t,x0,x1,y0"]
    for t in range(rnn_spec.t):
        xs = ",".join(repr(float(v)) for v in rnn_spec.x[0, t])
        lines.append(f"{t},{xs},{float(rnn_spec.y[0, t, 0])!r}")
    f = tmp_path / "seq0.csv"
    f.write_text("\n".join(lines) + "\n")
    X, Y = read_sequence_csv(f, rnn_spec.n0, rnn_spec.n2)
    assert np.array_equal(X, rnn_spec.x[0])
    assert np.array_equal(Y, rnn_spec.y[0])
    X2, Y2 = load_sequences(tmp_path, rnn_spec.n0, rnn_spec.n2)
    assert X2.shape == (1, rnn_spec.t, rnn_spec.n0)
    assert np.array_equal(X2[0], rnn_spec.x[0])
    assert np.array_equal(Y2[0], rnn_spec.y[0])


def test_scalar_chain_instance():
    rng = np.random.default_rng(9)
    spec = RnnSpec(
        n0=1,
        n1=1,
        n2=1,
        t=2,
        x=rng.standard_normal((1, 2, 1)),
        y=rng.standard_normal((1, 2, 1)),
        alpha=0.1,
        lam=0.2,
    )
    problem = build_problem(spec)
    assert problem.L == 2 * 2 + 2
    th = rng.normal(size=spec.n_params)
    z = eval_layers(problem, th)
    assert residuals(problem, z).feasible
    states, outs = _independent_forward(spec, th)
    assert np.max(np.abs(z.u[-1] - outs.ravel())) <= 1e-12


def test_spec_validation():
    x = np.zeros((1, 3, 2))
    y = np.zeros((1, 3, 1))
    with pytest.raises(Exception):
        RnnSpec(n0=2, n1=0, n2=1, t=3, x=x, y=y)
    with pytest.raises(Exception):
        RnnSpec(n0=2, n1=3, n2=1, t=4, x=x, y=y)
    with pytest.raises(Exception):
        RnnSpec(n0=2, n1=3, n2=1, t=3, x=x, y=y, alpha=1.5)
