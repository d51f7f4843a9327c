"""JSON round trips and format validation."""

import json
import re
import time
from pathlib import Path

import numpy as np
import pytest

from conftest import random_problem
from mcpen import expr as ex
from mcpen.dcalc import DDValue, Direction
from mcpen.model import CompositeProblem, LayerMap, Point
from mcpen.repro import lift_descent_instance, relu_ridge_problem, square_chain_problem
from mcpen.rnn import build_problem, desk_instance
from mcpen.serialize import (
    FormatError,
    direction_from_dict,
    direction_to_dict,
    dumps,
    load,
    load_direction,
    load_point,
    load_problem,
    point_from_dict,
    point_to_dict,
    problem_from_dict,
    problem_to_dict,
    save,
    save_direction,
    save_point,
    save_problem,
)


def test_problem_round_trip_bytes(square_chain, tmp_path):
    d1 = problem_to_dict(square_chain)
    p2 = problem_from_dict(d1)
    assert dumps(problem_to_dict(p2)) == dumps(d1)
    f = tmp_path / "p.json"
    save_problem(f, square_chain)
    p3 = load_problem(f)
    assert dumps(problem_to_dict(p3)) == dumps(d1)
    assert p3.n == square_chain.n
    assert p3.L == square_chain.L
    assert p3.lam == square_chain.lam


def test_rnn_problem_round_trip(rnn_problem):
    d1 = problem_to_dict(rnn_problem)
    p2 = problem_from_dict(d1)
    assert dumps(problem_to_dict(p2)) == dumps(d1)
    assert p2.meta == rnn_problem.meta


def test_point_round_trip(square_chain, tmp_path):
    z = Point(np.array([0.25]), (np.array([1.5]), np.array([-0.5])))
    f = tmp_path / "z.json"
    save_point(f, z)
    z2 = load_point(f)
    assert np.array_equal(z2.theta, z.theta)
    assert all(np.array_equal(a, b) for a, b in zip(z2.u, z.u))
    assert dumps(point_to_dict(z2)) == dumps(point_to_dict(z))


def test_direction_round_trip(tmp_path):
    d = Direction(np.array([1.0, -2.0]), (np.array([0.5]),))
    f = tmp_path / "d.json"
    save_direction(f, d)
    d2 = load_direction(f)
    assert np.array_equal(d2.dtheta, d.dtheta)
    assert np.array_equal(d2.du[0], d.du[0])
    assert direction_from_dict(direction_to_dict(d)).flat().tolist() == d.flat().tolist()


def test_dumps_deterministic(square_chain):
    a = dumps(problem_to_dict(square_chain))
    b = dumps(problem_to_dict(square_chain))
    assert a == b
    assert a.endswith("\n")


def test_dumps_writes_report_values_and_refuses_unknown_types():
    z = Point(np.array([1.0]), (np.array([0.5, -1.0]),))
    d = Direction(np.array([1.0]), (np.array([0.0, 2.0]),))
    report = {
        "flags": [np.bool_(True), np.int64(3), np.float32(0.5), np.float64(0.1)],
        "array": np.arange(3.0).reshape(1, 3),
        "point": z,
        "direction": d,
        "value": DDValue(1.0, np.float64(-0.25), None),
    }
    assert json.loads(dumps(report)) == {
        "flags": [True, 3, 0.5, 0.1],
        "array": [[0.0, 1.0, 2.0]],
        "point": point_to_dict(z),
        "direction": direction_to_dict(d),
        "value": {"value": 1.0, "first": -0.25, "second": None, "smooth": True, "second_reason": None},
    }
    with pytest.raises(TypeError, match="complex"):
        dumps({"x": 1j})


def test_kind_mismatch_raises(square_chain, tmp_path):
    f = tmp_path / "z.json"
    save_point(f, Point(np.zeros(1), (np.zeros(1), np.zeros(1))))
    with pytest.raises(FormatError):
        load_problem(f)


def test_bad_json_raises(tmp_path):
    f = tmp_path / "bad.json"
    f.write_text("{ not json")
    with pytest.raises(FormatError):
        load(f)


def test_unknown_op_rejected(square_chain, tmp_path):
    d = problem_to_dict(square_chain)
    d["nodes"].append({"op": "exp", "args": [1]})
    f = tmp_path / "p.json"
    save(f, d)
    with pytest.raises(FormatError, match=rf"nodes\[{len(d['nodes']) - 1}\]: unknown expression op 'exp'$"):
        load_problem(f)


def test_schema_version_checked(square_chain, tmp_path):
    d = problem_to_dict(square_chain)
    d["schema_version"] = 999
    f = tmp_path / "p.json"
    save(f, d)
    with pytest.raises(FormatError):
        load_problem(f)


def test_loaded_problem_evaluates_identically(square_chain, tmp_path):
    from mcpen.model import eval_Psi_plus_reg

    # Every op, with the payload edge values -0.0, alpha = 0 and an affine
    # node without arguments.
    t0, t1 = ex.theta(0), ex.theta(1)
    layer = (
        ex.add(ex.leaky(ex.sub(t0, t1), 0.0), ex.affine(-0.0, [], [])),
        ex.scaled(-0.0, ex.mul(t0, t1)),
        ex.dot([t0, t1], [t1, ex.const(-0.0)]),
        ex.vmax(ex.vabs(t0), ex.plus(t1)),
        ex.affine(0.5, [2.0, -0.0], [ex.square(t0), t1]),
    )
    outer = ex.sqnorm(*[ex.uref(1, i) for i in range(len(layer))])
    every_op = CompositeProblem(2, (LayerMap(1, layer),), outer, 0.01)
    assert set().union(*(ex.ops_used(e) for e in (*layer, outer))) == set(ex.OPS)
    for p in (square_chain, every_op):
        f = tmp_path / "p.json"
        save_problem(f, p)
        text = f.read_text()
        p2 = load_problem(f)
        save_problem(f, p2)
        assert f.read_text() == text
        for th in (np.array([0.0]), np.array([0.37]), np.array([-1.2])):
            th = np.resize(th, p.n) * np.arange(1, p.n + 1)
            assert eval_Psi_plus_reg(p2, th) == eval_Psi_plus_reg(p, th)


def test_format_doc_lists_every_op_as_the_table_does():
    doc = (Path(__file__).resolve().parents[1] / "docs" / "formats.md").read_text()
    rows = re.findall(r"^\| `(\w+)` \| `([^`]+)` \| ([^|]*) \|", doc, re.M)
    documented = {op: (arity, tuple(re.findall(r"`(\w+)`", payload))) for op, arity, payload in rows}
    assert documented == {op: (spec.arity, spec.fields) for op, spec in ex.OPS.items()}


def _chain_of_sums(depth):
    e = ex.theta(0)
    for _ in range(depth):
        e = ex.add(e, ex.const(0.0))
    return e


def _deep_chain():
    """The 3000-deep chain every check certifies (test_stationarity), under g = u^2."""
    return CompositeProblem(1, (LayerMap(1, (_chain_of_sums(3000),)),), ex.square(ex.uref(1, 0)), lam=0.1)


def _tape_outputs(p, m=3):
    """The bytes of the values and order-2 cells, flags included, of ``p``'s three tapes on seeded columns."""
    rng = np.random.default_rng(p.n + sum(p.widths))
    th, ublocks = rng.standard_normal(p.n), [rng.standard_normal(w) for w in p.widths]
    dth, du = rng.standard_normal((p.n, m)), [rng.standard_normal((w, m)) for w in p.widths]
    out = []
    for tape in (p.fixed_tape, p.outer_tape, p.chained_tape):
        out.append(tape.values(dth, du).tobytes())
        out += [part.tobytes() for part in tape.cells(th, ublocks, dth, du, 2)]
    return out


def _round_trip_problems():
    yield from (random_problem(seed) for seed in range(60))
    yield from (build_problem(desk_instance(seed)) for seed in range(3))
    yield build_problem(desk_instance(0, n0=4, n1=16, n2=2, t=20))
    yield from (square_chain_problem(), relu_ridge_problem(), build_problem(lift_descent_instance()))
    yield _deep_chain()


def test_save_load_save_keeps_the_bytes_and_the_tape_outputs(tmp_path):
    # compared by bytes, not by ==: Expr equality recurses once per level
    f = tmp_path / "p.json"
    for p in _round_trip_problems():
        save_problem(f, p)
        text = f.read_text()
        p2 = load_problem(f)
        save_problem(f, p2)
        assert f.read_text() == text
        assert (p2.n, p2.widths, p2.lam, p2.meta) == (p.n, p.widths, p.lam, p.meta)
        assert _tape_outputs(p2) == _tape_outputs(p)


def test_the_3000_deep_chain_round_trips_and_json_too_deep_to_decode_is_a_named_error(tmp_path):
    # the node table holds any depth at a JSON depth of four
    path = tmp_path / "deep.json"
    save_problem(path, _deep_chain())
    assert len(json.loads(path.read_text())["nodes"]) == 3002
    p = load_problem(path)
    save_problem(path, p)
    assert path.read_text() == dumps(problem_to_dict(_deep_chain()))
    # json's decoder still recurses once per level of nesting
    node = '{"op": "theta", "ref": 0}'
    for _ in range(3000):
        node = '{"args": [' + node + ', {"op": "const", "value": 0.0}], "op": "sum"}'
    header = '{"kind": "problem", "lam": 0.1, "meta": {}, "n": 1, "schema_version": 1, '
    path.write_text(header + '"layers": [{"exprs": [' + node + '], "index": 1}], "outer": {"op": "theta", "ref": 0}}')
    with pytest.raises(FormatError, match=f"^{re.escape(str(path))}: JSON nested too deeply to read$"):
        load_problem(path)


def test_a_doubling_table_loads_without_unfolding_its_shared_nodes():
    # entry k is sum(entry k-1, entry k-1): the tree unfolds to 2^k leaves,
    # so a walk that visits a shared node once per use never ends (and a
    # failing assert must not print the tree)
    for size in (24, 60):
        nodes = [{"op": "sum", "args": [0, 0]}] + [{"op": "sum", "args": [1 + k, 1 + k]} for k in range(1, size)]
        d = {"schema_version": 2, "kind": "problem", "n": 1, "lam": 0.1, "nodes": nodes}
        d |= {"layers": [{"index": 1, "exprs": [size + 1]}], "outer": 1, "meta": {}}
        start = time.perf_counter()
        p = problem_from_dict(d)
        elapsed = time.perf_counter() - start
        assert elapsed < 1.0
        ops, saved = ex.ops_used(p.layers[0].exprs[0]), dumps(problem_to_dict(p))
        assert ops == {"sum", "theta"}
        assert saved == dumps(d)


def test_node_table_errors_name_the_entry_or_the_root(square_chain):
    # The square chain reads ids 0 (theta), 1 (u_1) and 2 (u_2), and its
    # table starts at id 3; an entry appended to it is nodes[k], id top.
    d = problem_to_dict(square_chain)
    k, top = len(d["nodes"]), 3 + len(d["nodes"])
    entries = [
        ({"op": "abs", "args": [top]}, f"abs args[0]: expected an id below {top}, got {top}"),
        ({"op": "abs", "args": [top + 1]}, f"abs args[0]: expected an id below {top}, got {top + 1}"),
        ({"op": "max", "args": [1, -1]}, f"max args[1]: expected an id below {top}, got -1"),
        ({"op": "abs", "args": [1.0]}, f"abs args[0]: expected an id below {top}, got 1.0"),
        ({"op": "abs", "args": ["1"]}, f"abs args[0]: expected an id below {top}, got '1'"),
        ({"op": "abs", "args": [True]}, f"abs args[0]: expected an id below {top}, got True"),
    ]
    cases = [({"nodes": [*d["nodes"], node]}, f"nodes[{k}]: {text}") for node, text in entries] + [
        ({"layers": [d["layers"][0], {"index": 2, "exprs": [top]}]}, f"layers[1].exprs[0]: expected an id below {top}, got {top}"),
        ({"outer": top}, f"outer: expected an id below {top}, got {top}"),
        ({"outer": {"op": "exp", "args": []}}, f"outer: expected an id below {top}, got {{'op': 'exp', 'args': []}}"),
        ({"nodes": 5}, "nodes: expected a list, got 5"),
    ]
    for change, text in cases:
        with pytest.raises(FormatError, match=f"^{re.escape(text)}$"):
            problem_from_dict({**d, **change})
    # a layer map that reads its own block is refused as before
    with pytest.raises(FormatError, match="layer reference 1 not below layer 1"):
        problem_from_dict({**d, "layers": [{"index": 1, "exprs": [1]}, d["layers"][1]]})


def test_a_nested_version_1_problem_file_is_refused(tmp_path):
    # the layout before node tables: each tree written out as nested objects
    u1 = {"op": "u", "layer": 1, "ref": 0}
    nested = {
        "schema_version": 1,
        "kind": "problem",
        "n": 1,
        "lam": 0.01,
        "layers": [
            {"index": 1, "exprs": [{"op": "affine", "coeffs": [1.0], "const": 0.0, "args": [{"op": "theta", "ref": 0}]}]},
            {"index": 2, "exprs": [{"op": "square", "args": [u1]}]},
        ],
        "outer": {"op": "plus", "args": [{"op": "sum", "args": [u1, {"op": "u", "layer": 2, "ref": 0}]}]},
        "meta": {},
    }
    f = tmp_path / "p.json"
    save(f, nested)
    with pytest.raises(FormatError, match=re.escape(f"{f}: unsupported schema_version 1 (this build reads 2)")):
        load_problem(f)
    save_point(f, Point(np.zeros(1), (np.zeros(1), np.zeros(1))))
    assert json.loads(f.read_text())["schema_version"] == 1
