"""The fixed-point, chained and outer tapes against the recursive walkers they replaced."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_problem, record_compiles
from mcpen import expr as ex
from mcpen import penalty as penalty_mod
from mcpen.cones import lift_direction, lift_direction_batch, radial_membership
from mcpen.dcalc import (
    _plus_ridge,
    dd_F_batch,
    dd_Psi_batch,
    dd_Theta_batch,
    forward_curves,
    residual_slopes,
)
from mcpen.model import CompositeProblem, LayerMap, Point, eval_g, eval_layers, reference_point_and_level
from mcpen.penalty import build_config
from mcpen.repro import square_chain_problem
from mcpen.rnn import build_problem, desk_instance
from walkers import (
    per_layer_curves,
    per_layer_judge,
    per_layer_slopes,
    per_layer_Theta,
    recursive_cells,
    recursive_cols,
    scalar_value,
)

WIDTHS = (1, 2, 7)


def _cases():
    """(problem, point): random problems 0-59 at a lift with ties, the square chain, the desk RNN."""
    out = []
    for seed in range(60):
        p = random_problem(seed)
        th = np.round(np.random.default_rng(seed).uniform(-1.0, 1.0, p.n), 1)
        out.append((p, eval_layers(p, th)))
    chain = square_chain_problem()
    out += [(chain, eval_layers(chain, np.zeros(1))), (chain, eval_layers(chain, np.array([0.5])))]
    desk = build_problem(desk_instance(seed=0))
    out.append((desk, eval_layers(desk, 0.1 * np.random.default_rng(0).standard_normal(desk.n))))
    out.append((desk, eval_layers(desk, np.zeros(desk.n))))
    return out


CASES = _cases()


def _cols(rng, rows, m):
    """m columns: normal, signed unit (first-order ties), -0.0 and zero, in turn."""
    out = rng.standard_normal((rows, m))
    out[:, 1::4] = rng.integers(-1, 2, size=out[:, 1::4].shape)
    out[:, 2::4] = -0.0
    out[:, 3::4] = 0.0
    return out


def _rays(rng, p, m):
    """Directions: DTH, DU."""
    DU = [_cols(rng, w, m) for w in p.widths]
    return _cols(rng, p.n, m), DU


def _same(a, b):
    assert (a is None) == (b is None)
    if a is not None:
        a, b = np.asarray(a), np.asarray(b)
        assert a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def _same_cells(cells, ref):
    """Tape rows against recursive cells, field by field."""
    assert len(cells.value) == len(ref)
    _same(cells.value, np.array([c.value for c in ref]))
    for field in ("first", "second", "kinked", "bad2"):
        rows = getattr(cells, field)
        _same(rows, None if rows is None else np.array([getattr(c, field) for c in ref]))


def _maps(p):
    return [*p.layers, None]


def _map_exprs(p, lm):
    return [p.outer] if lm is None else lm.exprs


@pytest.mark.parametrize("m", WIDTHS)
def test_fixed_tape_matches_the_recursion_map_by_map(m):
    # the fixed tape holds the layer maps, the outer tape g
    rng = np.random.default_rng(m)
    with np.errstate(all="ignore"):
        for p, z in CASES:
            DTH, DU = _rays(rng, p, m)
            TH, U = DTH, [du + u[:, None] for du, u in zip(DU, z.u)]
            for tape, maps in ((p.fixed_tape, p.layers), (p.outer_tape, [None])):
                for order in (1, 2):
                    cells = tape.cells(z.theta, z.u, DTH, DU, order, kinks=True)
                    ref = [c for lm in maps for c in recursive_cells(_map_exprs(p, lm), z.theta, z.u, DTH, DU, order)]
                    _same_cells(cells, ref)
                ref = np.vstack([recursive_cols(_map_exprs(p, lm), TH, U) for lm in maps])
                _same(tape.values(TH, U), ref)


def _by_layer(p, slopes):
    """Stacked ``residual_slopes`` as the per-layer (value, w, second, bad2) of ``per_layer_slopes``."""
    fields = (slopes.value, slopes.first, slopes.second, slopes.bad2)
    return [tuple(None if x is None else x[rows] for x in fields) for rows in p.layer_rows]


@pytest.mark.parametrize("m", WIDTHS)
def test_residual_slopes_and_F_match_the_per_layer_loop(m):
    rng = np.random.default_rng(10 + m)
    with np.errstate(all="ignore"):
        for p, z in CASES:
            DTH, DU = _rays(rng, p, m)
            for order in (1, 2):
                want = per_layer_slopes(p, z, DTH, DU, order)
                for got, want in zip(_by_layer(p, residual_slopes(p, z, DTH, DU, order)), want):
                    for a, b in zip(got, want):
                        _same(a, b)
                (g,) = recursive_cells([p.outer], z.theta, z.u, DTH, DU, order)
                first, second, bad, kinked = dd_F_batch(p, z, DTH, DU, order)
                for a, b in zip((first, second), _plus_ridge(p, g, z.theta, DTH, order)):
                    _same(a, b)
                _same(bad, g.bad2)
                _same(kinked, g.kinked)


@pytest.mark.parametrize("m", WIDTHS)
def test_chained_tape_matches_the_forward_loop(m):
    rng = np.random.default_rng(20 + m)
    with np.errstate(all="ignore"):
        for p, z in CASES:
            DTH = _cols(rng, p.n, m)
            for order in (1, 2):
                (ublocks, DU, EU, KU, BU), g = per_layer_curves(p, z.theta, DTH, order)
                # a lift reads no flags, so its order-1 pass builds none
                want = (ublocks, DU, EU, KU if order == 2 else None, BU)
                for got, want in zip(forward_curves(p, z.theta, DTH, order), want):
                    assert (got is None) == (want is None)
                    for a, b in zip(got or (), want or ()):
                        _same(a, b)
                flagged = p.chained_tape.cells(z.theta, (), DTH, (), order, kinks=True)
                for a, b in zip([flagged.kinked[rows] for rows in p.layer_rows], KU):
                    _same(a, b)
                values, first, second, bad, kinked = dd_Psi_batch(p, z.theta, DTH, order, kinks=True)
                for a, b in zip(values, ublocks):
                    _same(a, b)
                for a, b in zip((first, second), _plus_ridge(p, g, z.theta, DTH, order)):
                    _same(a, b)
                _same(bad, g.bad2)
                _same(kinked, g.kinked | np.logical_or.reduce([k.any(axis=0) for k in KU]))


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 59),
    m=st.integers(2, 7),
    order=st.sampled_from([1, 2]),
    draw=st.integers(0, 2**32 - 1),
)
def test_taylor_cells_columns_do_not_depend_on_the_batch_width(seed, m, order, draw):
    # column c of a width-m call is the width-1 call on column c alone
    p, rng = random_problem(seed), np.random.default_rng(draw)
    z = eval_layers(p, np.round(rng.uniform(-1.0, 1.0, p.n), 1))
    DTH, DU = _rays(rng, p, m)
    for lm in _maps(p):
        exprs = _map_exprs(p, lm)
        wide = ex.taylor_cells(exprs, z.theta, z.u, DTH, DU, order)
        for c in range(m):
            one = ex.taylor_cells(exprs, z.theta, z.u, DTH[:, [c]], [b[:, [c]] for b in DU], order)
            for w, o in zip(wide, one):
                _same(w.value, o.value)
                for field in ("first", "second", "kinked", "bad2"):
                    a, b = getattr(w, field), getattr(o, field)
                    _same(None if a is None else a[c], None if b is None else b[0])


def test_problems_compile_their_tapes_once_when_first_used(monkeypatch):
    compiled = record_compiles(monkeypatch)
    p = build_problem(desk_instance(seed=0))
    random_problem(3)
    assert compiled == []  # building problems compiles nothing
    z = eval_layers(p, 0.1 * np.random.default_rng(0).standard_normal(p.n))
    assert compiled == ["walk", "chained"]  # a lift is one pass of the chained tape, placed from the one walk
    DTH = np.random.default_rng(1).standard_normal((p.n, 3))
    DU = lift_direction_batch(p, z, DTH)
    for _ in range(3):
        dd_Theta_batch(p, z, DTH, DU, np.ones(p.L), 2)
        dd_Psi_batch(p, z.theta, DTH, 1)
        lift_direction_batch(p, z, DTH)
    assert sorted(compiled) == ["chained", "fixed", "outer", "walk"]
    # a point's blocks are inputs of the fixed and outer tapes, not part of them
    dd_Theta_batch(p, Point(z.theta, tuple(u + 1.0 for u in z.u)), DTH, DU, np.ones(p.L), 1)
    assert len(compiled) == 4


@pytest.mark.filterwarnings("ignore:outer function evaluated")
def test_a_moduli_op_walks_its_problem_once_and_the_sampler_compiles_nothing(monkeypatch):
    # perfbench's moduli-generic op on random problems: sampled moduli, the
    # reference point and four radial tests read one graph walk between them,
    # and the level-set sampler runs the chained program, placed before it
    compiled, real, sampled = record_compiles(monkeypatch), penalty_mod._sample_level_set, []

    def sampler(*args):
        before = len(compiled)
        try:
            return real(*args)
        finally:
            sampled.append(compiled[before:])

    monkeypatch.setattr(penalty_mod, "_sample_level_set", sampler)
    for seed in range(10):
        p = random_problem(seed)
        compiled.clear()
        try:
            beta = build_config(p, budget=400, seed=seed).beta
        except ValueError:  # a negative g bounds no level set to sample
            beta = np.ones(p.L)
        z0, _ = reference_point_and_level(p, beta)
        for d in np.random.default_rng(seed).standard_normal((4, p.n)):
            radial_membership(p, z0, lift_direction(p, z0, d))
        # one walk, and each program placed at most once
        assert compiled[0] == "walk" and len(set(compiled)) == len(compiled), (seed, compiled)
    assert sampled == [[]] * 10


def test_a_link_and_a_copy_of_its_root_stay_apart_in_every_pass():
    # u_3 = u_2 + theta_0 * theta_1 holds the link u_2 and a copy of u_2's
    # tree, which hash-consing makes one node: a chained pass reads its row
    # for both, a fixed pass reads u_2's block for the link, and a level pass
    # shifts the link alone.  u_2,1 is the link u_1,1, so its shift adds to a
    # shift, and max(u_2,1, u_1,1) reads two links of one row.
    layers = (
        LayerMap(1, (ex.theta(0), ex.vabs(ex.theta(1)))),
        LayerMap(2, (ex.mul(ex.theta(0), ex.theta(1)), ex.uref(1, 1))),
        LayerMap(3, (ex.add(ex.uref(2, 0), ex.mul(ex.theta(0), ex.theta(1))), ex.vmax(ex.uref(2, 1), ex.uref(1, 1)))),
    )
    p = CompositeProblem(2, layers, ex.add(ex.square(ex.uref(3, 0)), ex.plus(ex.uref(3, 1))), lam=0.1)
    rng = np.random.default_rng(0)
    Z = rng.uniform(-2.0, 2.0, (p.nbar, 24))
    special = np.array([np.nan, np.inf, -np.inf, 0.0, -0.0])
    Z[:, 8:] = np.where(rng.random((p.nbar, 16)) < 0.5, rng.choice(special, (p.nbar, 16)), Z[:, 8:])
    Z[:, -1] = -0.0
    TH, RHO = Z[: p.n], Z[p.n :]
    U = [RHO[rows] for rows in p.layer_rows]
    maps = [e for lm in p.layers for e in lm.exprs]
    blocks, shifted = [], []
    with np.errstate(all="ignore"):
        for lm, rows in zip(p.layers, p.layer_rows):
            blocks.append(recursive_cols(lm.exprs, TH, blocks))
            shifted.append(recursive_cols(lm.exprs, TH, shifted) + RHO[rows])
        level = [recursive_cols(maps, TH, shifted), *shifted, recursive_cols([p.outer], TH, shifted)]
    _same(p.fixed_tape.values(TH, U), recursive_cols(maps, TH, U))
    _same(p.outer_tape.values(TH, U), recursive_cols([p.outer], TH, U))
    _same(p.chained_tape.values(TH, []), np.vstack([*blocks, recursive_cols([p.outer], TH, blocks)]))
    V = p.chained_tape.shifted().values(TH, [RHO])
    _same(V, np.vstack(level))
    X, S, g = per_layer_judge(p, TH, RHO)
    _same(V, np.vstack([X, S, g]))
    # u_3,0 reads one row twice in the chained program
    row = p.chained_tape.roots[4]
    step = next(t for t in p.chained_tape.steps if t.rows.start <= row < t.rows.stop)
    assert step.args[row - step.rows.start, 0] == step.args[row - step.rows.start, 1]


def test_the_nested_objective_is_one_pass_of_the_chained_tape(monkeypatch):
    # the chained tape holds the layer maps, then g, so a Psi batch runs no other tape
    p = build_problem(desk_instance(seed=0))
    th = 0.1 * np.random.default_rng(0).standard_normal(p.n)
    DTH = np.random.default_rng(1).standard_normal((p.n, 3))
    ran, real = [], ex.Tape.cells

    def counting(tape, *args, **kwargs):
        ran.append(tape)
        return real(tape, *args, **kwargs)

    with monkeypatch.context() as patch:
        patch.setattr(ex.Tape, "cells", counting)
        for order in (1, 2):
            ran.clear()
            dd_Psi_batch(p, th, DTH, order)
            assert [t is p.chained_tape for t in ran] == [True]
    assert len(p.chained_tape.roots) == sum(p.widths) + 1
    assert p.chained_tape.values(th[:, None], [])[-1, 0] == eval_g(p, eval_layers(p, th).u)


def test_equal_nodes_with_other_bits_keep_rows_of_their_own():
    # const(0.0) == const(-0.0) as dataclasses; a tape must not share their row
    x = ex.theta(0)
    exprs = [
        ex.const(0.0),
        ex.const(-0.0),
        ex.scaled(0.0, x),
        ex.scaled(-0.0, x),
        ex.affine(-0.0, [], []),
        ex.add(ex.const(-0.0)),
        ex.mul(ex.const(-0.0), x),
        ex.mul(ex.const(0.0), x),
    ]
    TH = np.array([[1.0, -1.0, 0.0, -0.0]])
    tape = ex.compile_tape(exprs, (1,))
    _same(tape.values(TH, []), recursive_cols(exprs, TH, []))
    for c in range(TH.shape[1]):
        _same(ex.eval_many(tape, TH[:, c], []), np.array([scalar_value(e, TH[:, c], []) for e in exprs]))
    D = np.array([[1.0, -0.0]])
    for order in (1, 2):
        for th in (np.array([0.5]), np.array([-0.0])):
            cells = ex.compile_tape(exprs, (1,)).cells(th, [], D, [], order, kinks=True)
            _same_cells(cells, recursive_cells(exprs, th, [], D, [], order))


def _recursive_F_and_slopes(p, z, DTH, DU, order=1):
    """F's (first, second, bad, kinked) and every layer's (value, w, second, bad2), from the recursive walkers."""
    (g,) = recursive_cells([p.outer], z.theta, z.u, DTH, DU, order)
    return (*_plus_ridge(p, g, z.theta, DTH, order), g.bad2, g.kinked), per_layer_slopes(p, z, DTH, DU, order)


def test_an_outer_function_that_repeats_a_layer_subtree_matches_the_recursion():
    # the outer function repeats layer 2's subtree, which lives on the fixed tape
    from mcpen.model import CompositeProblem, LayerMap

    shared = ex.plus(ex.sub(ex.uref(1, 0), ex.const(0.25)))
    p = CompositeProblem(
        1,
        (LayerMap(1, (ex.square(ex.theta(0)),)), LayerMap(2, (shared,))),
        ex.add(ex.plus(ex.sub(ex.uref(1, 0), ex.const(0.25))), ex.uref(2, 0)),
        lam=0.1,
    )
    z = eval_layers(p, np.array([0.5]))
    D = np.array([[1.0, -1.0, 0.0]])
    DU = [np.array([[1.0, -1.0, 0.0]]), np.array([[0.0, 1.0, -1.0]])]
    beta = np.array([0.5, 2.0])
    with np.errstate(all="ignore"):
        for point in (z, Point(z.theta, (z.u[0] + 0.5, z.u[1] - 0.5))):
            for order in (1, 2):
                want_F, _ = _recursive_F_and_slopes(p, point, D, DU, order)
                for a, b in zip(dd_F_batch(p, point, D, DU, order), want_F):
                    _same(a, b)
                got = dd_Theta_batch(p, point, D, DU, beta, order, kinks=True)
                want = per_layer_Theta(*_recursive_F_and_slopes(p, point, D, DU, order), point, beta, order)
                for a, b in zip(got, want):
                    _same(a, b)


def _sparse_residuals(rng, p, z):
    """z with about half its block entries moved by +-1e-3, so every layer mixes signed and zero residuals."""
    return Point(z.theta, tuple(u + 1e-3 * rng.choice([-1.0, 0.0, 0.0, 1.0], u.size) for u in z.u))


def _desk8(seed):
    """The desk RNN whose layers have 8 rows or more, at a lift with sparse 1e-3 residuals."""
    p, rng = build_problem(desk_instance(seed, n0=2, n1=8, n2=1, t=10)), np.random.default_rng(seed)
    return p, _sparse_residuals(rng, p, eval_layers(p, 0.1 * rng.standard_normal(p.n)))


def _column_cases():
    """(problem, point): the 8-row desk, seeds 0-5, and random problems 0-59 at lifts with ties, sparse residuals."""
    out = [_desk8(seed) for seed in range(6)]
    for seed in range(60):
        p, rng = random_problem(seed), np.random.default_rng(seed)
        out.append((p, _sparse_residuals(rng, p, eval_layers(p, np.round(rng.uniform(-1.0, 1.0, p.n), 1)))))
    return out


def test_a_column_reads_the_same_bytes_alone_or_in_a_batch():
    rng = np.random.default_rng(30)
    with np.errstate(all="ignore"):
        for p, z in _column_cases():
            DTH, DU = _rays(rng, p, 7)
            beta = rng.uniform(0.5, 2.0, p.L)
            for order in (1, 2):
                batches = (
                    lambda D, U: dd_Theta_batch(p, z, D, U, beta, order, kinks=True),
                    lambda D, U: dd_F_batch(p, z, D, U, order),
                    lambda D, U: dd_Psi_batch(p, z.theta, D, order, kinks=True)[1:],
                )
                for batch in batches:
                    wide = batch(DTH, DU)
                    for c in range(7):
                        alone = batch(DTH[:, [c]], [du[:, [c]] for du in DU])
                        for a, b in zip(wide, alone):
                            _same(None if a is None else a[[c]], b)


def test_Theta_batches_match_the_per_layer_loop_over_two_or_more_columns():
    # at widths >= 2 np.sum over rows is a left-to-right fold, as the stacked sums are at any width
    rng = np.random.default_rng(40)
    cases = []
    for p, z in _column_cases():
        lift = eval_layers(p, z.theta)
        off = Point(z.theta, tuple(u + rng.standard_normal(u.size) for u in lift.u))
        cases += [(p, lift), (p, z), (p, off)]
    with np.errstate(all="ignore"):
        for p, z in cases:
            beta = rng.uniform(0.5, 2.0, p.L)
            for m in (2, 7):
                DTH, DU = _rays(rng, p, m)
                for order in (1, 2):
                    slopes = _by_layer(p, residual_slopes(p, z, DTH, DU, order))
                    want = per_layer_Theta(dd_F_batch(p, z, DTH, DU, order), slopes, z, beta, order)
                    for a, b in zip(dd_Theta_batch(p, z, DTH, DU, beta, order, kinks=True), want):
                        _same(a, b)


def _desk_shapes():
    """The desk RNN at (n0, n1, n2, t) = (2, 3, 1, 3), (2, 8, 1, 10) and (4, 16, 2, 20), at a lift and at theta = 0.

    The lift is at 0.1 N(0, I); at theta = 0 the network is dead and every unit ties.
    """
    out = []
    for shape in ((2, 3, 1, 3), (2, 8, 1, 10), (4, 16, 2, 20)):
        p = build_problem(desk_instance(0, *shape))
        th = 0.1 * np.random.default_rng(0).standard_normal(p.n)
        out += [(p, eval_layers(p, th)), (p, eval_layers(p, np.zeros(p.n)))]
    return out


def test_an_order_1_pass_without_flags_reads_the_flagged_bytes():
    # random problems at a lift with ties and at theta = 0, and the desk shapes
    # at a lift and at the dead network theta = 0, where every unit ties
    rng, cases = np.random.default_rng(50), _desk_shapes()
    for seed in range(60):
        p = random_problem(seed)
        th = np.round(np.random.default_rng(seed).uniform(-1.0, 1.0, p.n), 1)
        cases += [(p, eval_layers(p, th)), (p, eval_layers(p, np.zeros(p.n)))]
    with np.errstate(all="ignore"):
        for p, z in cases:
            DTH, DU = _rays(rng, p, 7)
            beta = rng.uniform(0.5, 2.0, p.L)
            runs = [
                lambda **kw: p.fixed_tape.cells(z.theta, z.u, DTH, DU, 1, **kw),
                lambda **kw: p.outer_tape.cells(z.theta, z.u, DTH, DU, 1, **kw),
                lambda **kw: p.chained_tape.cells(z.theta, (), DTH, (), 1, **kw),
                lambda **kw: dd_Theta_batch(p, z, DTH, DU, beta, **kw),
                lambda **kw: dd_Psi_batch(p, z.theta, DTH, **kw)[1:],
            ]
            for run in runs:
                # field 3 is kinked in Cells and in each batch's tuple
                bare, flagged = run(), run(kinks=True)
                assert len(bare) == len(flagged) and bare[3] is None and flagged[3] is not None
                for i, (a, b) in enumerate(zip(bare, flagged)):
                    if i != 3:
                        _same(a, b)
