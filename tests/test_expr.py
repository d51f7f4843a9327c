"""Expression constructors, evaluation, and the cell propagation rules."""

import hashlib
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_problem
from walkers import scalar_value
from mcpen import expr as ex
from mcpen.model import eval_layers


def _value(e, th, ublocks):
    """One tree's value at one point, by ``eval_many`` on a tape of its own."""
    return ex.eval_many(ex.compile_tape([e], (len(th), *map(len, ublocks))), th, ublocks)[0]


def test_constructors_and_eval():
    th = np.array([2.0, -1.0])
    u1 = np.array([3.0, 0.5])
    e = ex.add(ex.theta(0), ex.scaled(2.0, ex.uref(1, 1)))
    assert _value(e, th, [u1]) == 3.0
    assert _value(ex.mul(ex.theta(0), ex.theta(1)), th, []) == -2.0
    assert _value(ex.sqnorm(ex.theta(0), ex.theta(1)), th, []) == 5.0
    assert _value(ex.vmax(ex.const(-1.0), ex.theta(1)), th, []) == -1.0
    assert _value(ex.vabs(ex.theta(1)), th, []) == 1.0
    assert _value(ex.plus(ex.theta(1)), th, []) == 0.0
    assert _value(ex.leaky(ex.theta(1), 0.1), th, []) == -0.1
    assert _value(ex.square(ex.theta(0)), th, []) == 4.0
    assert _value(ex.affine(1.0, [2.0, -1.0], [ex.theta(0), ex.theta(1)]), th, []) == 6.0
    assert _value(ex.dot([ex.theta(0)], [ex.theta(1)]), th, []) == -2.0
    assert _value(ex.sub(ex.theta(0), ex.theta(1)), th, []) == 3.0


def test_uref_is_one_based():
    with pytest.raises(ValueError):
        ex.uref(0, 0)


def test_validate_rejects_out_of_range():
    e = ex.theta(3)
    with pytest.raises(Exception):
        ex.validate(e, n=2, max_layer=0, widths=[])
    e2 = ex.uref(2, 0)
    with pytest.raises(Exception):
        ex.validate(e2, n=2, max_layer=1, widths=[2])
    e3 = ex.uref(1, 5)
    with pytest.raises(Exception):
        ex.validate(e3, n=2, max_layer=1, widths=[2])


def test_compile_tape_refuses_a_leaf_of_a_block_past_sizes():
    with pytest.raises(ValueError, match=r"block 1 reads reference 0 past sizes \(1,\)"):
        ex.compile_tape([ex.add(ex.theta(0), ex.uref(1, 0))], (1,))


def test_compile_tape_refuses_a_leaf_past_its_block():
    with pytest.raises(ValueError, match=r"block 0 reads reference 3 past sizes \(1,\)"):
        ex.compile_tape([ex.theta(3)], (1,))


def test_ops_used_walks_the_tree():
    e = ex.vmax(ex.const(-1.0), ex.mul(ex.theta(0), ex.theta(1)))
    assert {"max", "product", "theta", "const"} <= ex.ops_used(e)


def test_affine_needs_matching_lengths():
    with pytest.raises(Exception):
        ex.affine(0.0, [1.0, 2.0], [ex.theta(0)])


def _cell(e, th, ublocks, dth, dus, order=2):
    dth = np.asarray(dth, float).reshape(-1, 1)
    dus = [np.asarray(b, float).reshape(-1, 1) for b in dus]
    (c,) = ex.taylor_cells(
        [e], np.asarray(th, float), [np.asarray(b, float) for b in ublocks], dth, dus, order=order
    )
    return c


def test_max_tie_takes_larger_slope():
    e = ex.vmax(ex.theta(0), ex.scaled(2.0, ex.theta(0)))
    c = _cell(e, [0.0], [], [1.0], [])
    assert c.first[0] == 2.0
    c = _cell(e, [0.0], [], [-1.0], [])
    assert c.first[0] == -1.0


def test_max_double_tie_takes_larger_curvature():
    # both branches value 0 slope 0, curvatures 2 and -2
    e = ex.vmax(ex.square(ex.theta(0)), ex.scaled(-1.0, ex.square(ex.theta(0))))
    c = _cell(e, [0.0], [], [1.0], [])
    assert c.first[0] == 0.0
    assert c.second[0] == 2.0
    assert bool(c.kinked[0])


def test_abs_at_kink_is_abs_of_slope():
    e = ex.vabs(ex.theta(0))
    for s in (1.0, -2.5):
        c = _cell(e, [0.0], [], [s], [])
        assert c.first[0] == abs(s)


def test_plus_and_leaky_one_sided():
    p = ex.plus(ex.theta(0))
    l = ex.leaky(ex.theta(0), 0.1)
    assert _cell(p, [0.0], [], [3.0], []).first[0] == 3.0
    assert _cell(p, [0.0], [], [-3.0], []).first[0] == 0.0
    assert _cell(l, [0.0], [], [3.0], []).first[0] == 3.0
    assert _cell(l, [0.0], [], [-3.0], []).first[0] == pytest.approx(-0.3)


def test_second_order_gate_flags_tied_kinked_child():
    # the max tie is resolved by slopes, but squaring a kinked curve is
    # outside the supported second-order calculus and must be flagged
    inner = ex.vmax(ex.theta(0), ex.scaled(2.0, ex.theta(0)))
    e = ex.square(inner)
    c = _cell(e, [0.0], [], [1.0], [])
    assert bool(c.bad2[0])


def test_smooth_square_chain_has_exact_curvature():
    e = ex.square(ex.square(ex.theta(0)))
    c = _cell(e, [2.0], [], [1.0], [])
    # d/dt (t^4) = 4 t^3, d2 = 12 t^2
    assert c.first[0] == pytest.approx(32.0)
    assert c.second[0] == pytest.approx(48.0)
    assert not bool(c.bad2[0])


@settings(max_examples=60, deadline=None)
@given(
    x=st.floats(-3, 3, allow_nan=False),
    d=st.floats(-3, 3, allow_nan=False),
    t=st.floats(0, 5, allow_nan=False),
)
def test_first_order_positive_homogeneity(x, d, t):
    e = ex.vmax(ex.vabs(ex.theta(0)), ex.square(ex.theta(0)))
    base = _cell(e, [x], [], [d], [], order=1).first[0]
    scaled_ = _cell(e, [x], [], [t * d], [], order=1).first[0]
    assert scaled_ == pytest.approx(t * base, abs=1e-9 * (1 + abs(base)))


def test_a_deep_expr_compares_hashes_and_prints_without_walking_its_tree():
    def chain():
        e = ex.theta(0)
        for _ in range(3000):
            e = ex.add(e, ex.const(1.0))
        return e

    e, copy = chain(), chain()
    # identity equality and hash: an equal copy is another node
    assert e == e and e != copy and hash(e) == hash(e)
    assert len({e, copy, e}) == 2
    assert repr(e) == "Expr('sum', nargs=2)"
    assert repr(ex.uref(2, 1)) == "Expr('u', layer=2, ref=1, nargs=0)"
    assert repr(ex.scaled(2.0, e)) == "Expr('scaled', coeffs=(2.0,), nargs=1)"


def test_eval_many_matches_the_scalar_walk():
    rng = np.random.default_rng(3)
    th = rng.normal(size=3)
    u1 = rng.normal(size=2)
    exprs = [
        ex.vabs(ex.theta(0)),
        ex.add(ex.uref(1, 0), ex.mul(ex.theta(1), ex.uref(1, 1))),
        ex.sqnorm(ex.theta(2), ex.uref(1, 0)),
    ]
    out = ex.eval_many(ex.compile_tape(exprs, (3, 2)), th, [u1])
    for k, e in enumerate(exprs):
        assert out[k] == scalar_value(e, th, [u1])


def _signed_exprs():
    """Every op on theta_1 (and theta_2), for signed zeros and non-finite values."""
    x0, x1 = ex.theta(0), ex.theta(1)
    return [
        ex.affine(-0.0, [], []),
        ex.add(x0),
        ex.sub(x0, x1),
        ex.scaled(-1.0, x0),
        ex.affine(-0.0, [1.0], [x0]),
        ex.mul(x0, x1),
        ex.dot([x0], [x1]),
        ex.sqnorm(x0),
        ex.square(x0),
        ex.vmax(x0, x1),
        ex.vabs(x0),
        ex.plus(x0),
        ex.leaky(x0, 0.0),
    ]


def _assert_cols_match(exprs, TH, UBLOCKS):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no numpy warnings where Python floats give none
        out = ex.compile_tape(exprs, (TH.shape[0], *(b.shape[0] for b in UBLOCKS))).values(TH, UBLOCKS)
    assert out.shape == (len(exprs), TH.shape[1])
    for c in range(TH.shape[1]):
        one = np.array([scalar_value(e, TH[:, c], [b[:, c] for b in UBLOCKS]) for e in exprs])
        assert out[:, c].tobytes() == one.tobytes()


# values whose x**2 and x*x differ
SQUARES = [0.3624182010806754, 1.8871580461934296, 1.2291748224027053, -0.006127947152018283]


def test_values_and_cells_square_alike():
    # every walker squares with x*x, so values and Taylor cells agree
    x0 = ex.theta(0)
    exprs = [ex.sqnorm(x0), ex.square(x0), ex.mul(x0, x0)]
    for x in SQUARES:
        th = np.array([x])
        cells = ex.taylor_cells(exprs, th, [], np.ones((1, 1)), [])
        values = ex.eval_many(ex.compile_tape(exprs, (1,)), th, [])
        assert np.array([c.value for c in cells]).tobytes() == values.tobytes()


def test_tape_values_match_eval_many_column_by_column():
    inf, nan = np.inf, np.nan
    cols = [(-0.0, 0.0), (0.0, -0.0), (-0.0, -0.0), (0.8329, -1.6598), *((x, -x) for x in SQUARES)]
    cols += [(a, b) for a in (inf, -inf, nan, -nan, 0.0) for b in (inf, -inf, nan, -nan, -0.0)]
    cols += [(1e200, -1e200)]  # squares and products past the float range
    _assert_cols_match(_signed_exprs(), np.array(cols).T, [])
    assert _value(ex.sqnorm(ex.theta(0)), np.array([1e200]), []) == inf
    # every tree of the random instances, with ties at rounded columns
    rng = np.random.default_rng(7)
    for seed in range(60):
        p = random_problem(seed)
        TH = rng.standard_normal((p.n, 7))
        UBLOCKS = [rng.standard_normal((w, 7)) for w in p.widths]
        TH[:, :3], UBLOCKS[0][:, :3] = np.round(TH[:, :3], 1), np.round(UBLOCKS[0][:, :3], 1)
        for layer in p.layers:
            _assert_cols_match(layer.exprs, TH, UBLOCKS[: layer.index - 1])
        _assert_cols_match([p.outer], TH, UBLOCKS)


# sha256 of the values and Taylor cells below, recorded with the per-op tree
# walkers that preceded the four node families, then re-recorded when the
# value walkers' squared norm went from x**2 to x*x (the cells did not move),
# and again when the runs with layer-input curves and flags were dropped, and
# again when every walker took one value rule: a Taylor pass adds an offset to
# the first term, as a value pass does, and abs is max(a, -a) in both, so abs
# of -0.0 is -0.0
CELLS_SHA256 = "ece3ebb5d5998dfbacb2c105380d72300388154a02bcc192bab90509fb4a7df9"


def _update(h, arr, dtype=np.float64):
    h.update(np.asarray(arr, dtype=dtype).tobytes())


def _digest_cells(h, exprs, th, ublocks, rng):
    """Hash eval_many and taylor_cells at orders 1 and 2 along seeded rays.

    The rays mix normal columns, signed unit columns (first-order ties at
    rounded points) and a zero column.
    """
    m = 6

    def cols(rows):
        out = np.zeros((rows, m))
        out[:, :3] = rng.standard_normal((rows, 3))
        out[:, 3:5] = rng.integers(-1, 2, size=(rows, 2))
        return out

    _update(h, ex.eval_many(ex.compile_tape(exprs, (th.size, *(b.size for b in ublocks))), th, ublocks))
    dth = cols(th.size)
    dus = [cols(b.size) for b in ublocks]
    for order in (1, 2):
        for c in ex.taylor_cells(exprs, th, ublocks, dth, dus, order):
            _update(h, [c.value])
            _update(h, c.first)
            _update(h, c.kinked, bool)
            if order == 2:
                _update(h, c.second)
                _update(h, c.bad2, bool)


def _digest_problem(h, problem, th, rng):
    z = eval_layers(problem, th)
    for u in (z.u, tuple(b + 0.25 for b in z.u)):
        for layer in problem.layers:
            _digest_cells(h, layer.exprs, z.theta, u[: layer.index - 1], rng)
        _digest_cells(h, [problem.outer], z.theta, u, rng)


def test_values_and_cells_are_bit_identical(square_chain, relu_ridge, box_max, abs_cubic, rnn_problem):
    rng = np.random.default_rng(2024)
    h = hashlib.sha256()
    for e in (box_max, abs_cubic):
        for x in (np.zeros(2), np.array([1.0, -1.0]), np.array([1.0, 1.0]), rng.standard_normal(2)):
            _digest_cells(h, [e], x, [], rng)
    # signed zeros through every op, and values whose x**2 and x*x differ
    signed = _signed_exprs()
    for x in ([-0.0, 0.0], [0.0, -0.0], [-0.0, -0.0], [0.8329, -1.6598]):
        _digest_cells(h, signed, np.array(x), [], rng)
    _digest_problem(h, square_chain, np.zeros(1), rng)
    _digest_problem(h, square_chain, np.array([0.5]), rng)
    _digest_problem(h, relu_ridge, np.zeros(2), rng)
    _digest_problem(h, relu_ridge, np.array([-0.5, 1.0]), rng)
    # the desk RNN at its lift of 0.1 N(0, I) and at theta = 0, where every
    # leaky relu sits at its kink
    _digest_problem(h, rnn_problem, 0.1 * np.random.default_rng(0).standard_normal(rnn_problem.n), rng)
    _digest_problem(h, rnn_problem, np.zeros(rnn_problem.n), rng)
    # random instances cover every op, with ties at rounded points
    for seed in range(12):
        p = random_problem(seed)
        for x in (np.zeros(p.n), np.round(np.random.default_rng(seed).uniform(-1, 1, p.n), 1)):
            _digest_problem(h, p, x, rng)
    assert h.hexdigest() == CELLS_SHA256
