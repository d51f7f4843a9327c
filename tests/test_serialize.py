"""JSON round trips and format validation."""

import json
import re
from pathlib import Path

import numpy as np
import pytest

from mcpen import expr as ex
from mcpen.dcalc import DDValue, Direction
from mcpen.model import CompositeProblem, LayerMap, Point
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
    d["outer"] = {"op": "exp", "args": []}
    f = tmp_path / "p.json"
    save(f, d)
    with pytest.raises(FormatError):
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


def test_a_tree_too_deep_for_json_is_a_named_error_both_ways(tmp_path):
    # the 3000-deep chain the certifiers walk: json's encoder and decoder
    # recurse once per level, so the format cannot hold it either way
    p = CompositeProblem(1, (LayerMap(1, (_chain_of_sums(3000),)),), ex.square(ex.uref(1, 0)), lam=0.1)
    path = tmp_path / "deep.json"
    with pytest.raises(FormatError, match=f"^{re.escape(str(path))}: an expression tree nests too deep"):
        save_problem(path, p)
    assert not path.exists()
    node = '{"op": "theta", "ref": 0}'
    for _ in range(3000):
        node = '{"args": [' + node + ', {"op": "const", "value": 0.0}], "op": "sum"}'
    header = '{"kind": "problem", "lam": 0.1, "meta": {}, "n": 1, "schema_version": 1, '
    path.write_text(header + '"layers": [{"exprs": [' + node + '], "index": 1}], "outer": {"op": "theta", "ref": 0}}')
    with pytest.raises(FormatError, match=f"^{re.escape(str(path))}: JSON nested too deeply to read$"):
        load_problem(path)
    # a shallower chain round-trips
    save_problem(path, CompositeProblem(1, (LayerMap(1, (_chain_of_sums(100),)),), ex.uref(1, 0), lam=0.1))
    assert load_problem(path).layers[0].exprs[0] == _chain_of_sums(100)
