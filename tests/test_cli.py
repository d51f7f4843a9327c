"""Command-line surface: reports, manifests, and exit codes."""

import hashlib
import json
import re
from pathlib import Path

import numpy as np
import pytest

from conftest import blowup_problem, half_square_chain, negative_outer_problem, random_problem
from mcpen import expr as ex
from mcpen.cli import main
from mcpen.dcalc import Direction
from mcpen.model import CompositeProblem, EvaluationError, LayerMap, Point, eval_layers
from mcpen.repro import square_chain_problem
from mcpen.rnn import build_problem, desk_instance
from mcpen.serialize import (
    dumps,
    point_to_dict,
    problem_to_dict,
    save_direction,
    save_point,
    save_problem,
)


@pytest.fixture
def files(tmp_path):
    p = square_chain_problem()
    prob = tmp_path / "prob.json"
    save_problem(prob, p)
    z0 = eval_layers(p, np.zeros(1))
    point = tmp_path / "z0.json"
    save_point(point, z0)
    shifted = tmp_path / "shift.json"
    save_point(shifted, Point(np.zeros(1), (np.array([0.5]), np.array([0.0]))))
    direction = tmp_path / "d.json"
    save_direction(direction, Direction(np.array([1.0]), (np.array([1.0]), np.array([0.0]))))
    return {"prob": str(prob), "z0": str(point), "shift": str(shifted), "d": str(direction)}


def _run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def test_eval_report_and_manifest(capsys, files):
    code, out = _run(
        capsys,
        ["eval", "--problem", files["prob"], "--point", files["shift"], "--beta", "1.0,0.6"],
    )
    assert code == 0
    rep = json.loads(out)
    assert rep["kind"] == "eval-report"
    assert rep["theta_value"] == pytest.approx(0.65)
    assert rep["residuals"]["feasible"] is False
    man = rep["manifest"]
    assert man["schema_version"] == 1
    assert files["prob"] in man["inputs"]
    assert len(man["inputs"][files["prob"]]) == 64
    assert man["version"]


def test_manifest_hashes_the_beta_file(capsys, files, tmp_path):
    beta = tmp_path / "beta.json"
    beta.write_text("[1.0, 0.6]")
    argv = ["eval", "--problem", files["prob"], "--point", files["shift"], "--beta-file", str(beta)]
    code, out = _run(capsys, argv)
    assert code == 0
    rep = json.loads(out)
    assert rep["beta"] == [1.0, 0.6]
    assert rep["manifest"]["inputs"] == {
        p: hashlib.sha256(Path(p).read_bytes()).hexdigest() for p in (files["prob"], files["shift"], str(beta))
    }


def test_manifest_hashes_each_data_csv(capsys, tmp_path):
    data = tmp_path / "data"
    data.mkdir()
    rng = np.random.default_rng(1)
    for name in ("b.csv", "a.csv"):
        rows = [f"{t},{rng.normal()},{rng.normal()},{rng.normal()}" for t in range(3)]
        (data / name).write_text("\n".join(["t,x0,x1,y0", *rows]) + "\n")
    (data / "notes.txt").write_text("not a sequence")
    code, out = _run(capsys, ["rnn", "thresholds", "--data", str(data)])
    assert code == 0
    inputs = json.loads(out)["manifest"]["inputs"]
    assert list(inputs) == [str(data / "a.csv"), str(data / "b.csv")]
    assert all(h == hashlib.sha256(Path(p).read_bytes()).hexdigest() for p, h in inputs.items())


def test_manifest_skips_an_init_file_the_run_did_not_read(capsys, files):
    argv = ["solve", "--problem", files["prob"], "--beta", "1.0,0.6", "--max-iters", "5"]
    for init, read in (("zero", False), ("file", True)):
        code, out = _run(capsys, argv + ["--init", init, "--init-file", files["shift"]])
        assert code == 0
        assert (files["shift"] in json.loads(out)["manifest"]["inputs"]) == read


def _dip_problem(tmp_path):
    """g = 0.5 + u_1 with u_1 = theta_1 dips below zero inside the level set."""
    layer = LayerMap(1, (ex.affine(0.0, [1.0], [ex.theta(0)]),))
    dip = tmp_path / "dip.json"
    save_problem(dip, CompositeProblem(1, (layer,), ex.affine(0.5, [1.0], [ex.uref(1, 0)]), lam=0.1))
    return dip


def test_library_warnings_reach_stderr_once_without_a_source_path(capsys, tmp_path):
    # Sampling the moduli of the dip problem warns once per negative value it meets.
    dip = _dip_problem(tmp_path)
    neg = tmp_path / "neg.json"
    save_problem(neg, negative_outer_problem())
    for path, code in ((dip, 0), (neg, 2)):
        assert main(["thresholds", "--problem", str(path), "--budget", "200"]) == code
        lines = capsys.readouterr().err.splitlines()
        warned = [line for line in lines if line.startswith("warning: outer function evaluated to -")]
        assert warned and len(warned) == len(lines) - 1
        assert len(lines) == len(set(lines))
        assert not any(".py:" in line for line in lines)
    assert lines[-1].startswith("error: reference level gamma_bar = -1.0")


# sha256 of the distinct warning lines below, in order, recorded with the
# estimate_moduli that evaluated g twice per pair of sample points
DIP_WARNINGS = (30, "8898c05c202b947b8083d67f9dd441d72d3273f1eefb670660d92b4bbf1261a1")


def test_moduli_warnings_keep_their_content_and_order(capsys, tmp_path):
    assert main(["thresholds", "--problem", str(_dip_problem(tmp_path)), "--budget", "50"]) == 0
    warned = [line for line in capsys.readouterr().err.splitlines() if line.startswith("warning: ")]
    assert (len(warned), hashlib.sha256("\n".join(warned).encode()).hexdigest()) == DIP_WARNINGS


def test_eval_without_beta_skips_theta(capsys, files):
    code, out = _run(capsys, ["eval", "--problem", files["prob"], "--point", files["z0"]])
    assert code == 0
    rep = json.loads(out)
    assert "theta_value" not in rep
    assert rep["residuals"]["feasible"] is True


def test_dderiv_penalized_second_order(capsys, files):
    code, out = _run(
        capsys,
        [
            "dderiv",
            "--problem",
            files["prob"],
            "--point",
            files["z0"],
            "--direction",
            files["d"],
            "--order",
            "2",
            "--target",
            "penalized",
            "--beta",
            "1.0,0.6",
        ],
    )
    assert code == 0
    rep = json.loads(out)
    assert rep["result"]["first"] == pytest.approx(0.0, abs=1e-12)
    assert rep["result"]["second"] == pytest.approx(-0.78, abs=1e-9)


def test_cone_reports_tangent_and_radial(capsys, files):
    code, out = _run(
        capsys,
        ["cone", "--problem", files["prob"], "--point", files["z0"], "--direction", files["d"]],
    )
    assert code == 0
    rep = json.loads(out)
    assert rep["tangent"]["in_tangent"] is True
    assert rep["radial"]["in_radial"] is False


def test_thresholds_certifies(capsys, files):
    code, out = _run(
        capsys,
        ["thresholds", "--problem", files["prob"], "--beta", "1.0,0.6", "--seed", "0"],
    )
    assert code == 0
    rep = json.loads(out)
    assert rep["config"]["certified"] is True
    assert rep["manifest"]["seed"] == 0


def test_check_exit_codes(capsys, files):
    argv = [
        "check",
        "--problem",
        files["prob"],
        "--point",
        files["z0"],
        "--target",
        "p1",
        "--order",
        "2",
        "--beta",
        "1.0,0.6",
    ]
    code, out = _run(capsys, argv)
    assert code == 0
    assert json.loads(out)["report"]["verdict"] == "not-stationary"
    code, _ = _run(capsys, argv + ["--expect", "stationary"])
    assert code == 3
    code, _ = _run(capsys, argv + ["--expect", "not-stationary"])
    assert code == 0


def test_second_order_check_at_a_first_order_descent_exits_3(capsys, tmp_path):
    # The desk lift descends at first order, so it is not second-order stationary.
    problem = build_problem(desk_instance(0))
    prob, point = tmp_path / "desk.json", tmp_path / "lift.json"
    save_problem(prob, problem)
    save_point(point, eval_layers(problem, 0.1 * np.random.default_rng(0).standard_normal(problem.n)))
    argv = ["check", "--problem", str(prob), "--point", str(point), "--target", "p0", "--order", "2"]
    code, out = _run(capsys, argv + ["--expect", "stationary"])
    assert code == 3
    report = json.loads(out)["report"]
    assert (report["verdict"], report["notes"]) == ("not-stationary", ["already fails at first order"])


@pytest.mark.filterwarnings("ignore:outer function evaluated")
def test_validation_errors_exit_2(capsys, files, tmp_path):
    assert main(["eval", "--problem", str(tmp_path / "missing.json"), "--point", files["z0"]]) == 2
    assert main(["eval", "--problem", files["prob"], "--point", files["z0"], "--beta", "x"]) == 2
    assert (
        main(
            [
                "check",
                "--problem",
                files["prob"],
                "--point",
                files["z0"],
                "--target",
                "p1",
            ]
        )
        == 2
    )
    # dimension mismatch in beta
    assert (
        main(["eval", "--problem", files["prob"], "--point", files["z0"], "--beta", "1,2,3"]) == 2
    )
    # cones are defined at feasible points only
    argv = ["cone", "--problem", files["prob"], "--point", files["shift"], "--direction", files["d"]]
    capsys.readouterr()
    assert main(argv) == 2
    assert "infeasible" in capsys.readouterr().err
    # at theta = 1e10 along du_1 = 1e300, layer 2's slope 2e310 - 1e310
    # computes as inf - inf = NaN: the tangent test names the layer
    chain, point, direction = tmp_path / "chain.json", tmp_path / "chain-z.json", tmp_path / "chain-d.json"
    save_problem(chain, half_square_chain())
    save_point(point, eval_layers(half_square_chain(), np.array([1e10])))
    save_direction(direction, Direction(np.array([1e300]), (np.array([1e300]), np.array([0.0]))))
    for flags in ([], ["--no-radial"]):
        assert main(["cone", "--problem", str(chain), "--point", str(point), "--direction", str(direction), *flags]) == 2
        assert capsys.readouterr() == ("", "error: layer 2 first derivative not finite along d\n")
    # a negative reference level bounds no level set to sample the moduli from
    neg = tmp_path / "neg.json"
    save_problem(neg, negative_outer_problem())
    assert main(["thresholds", "--problem", str(neg)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "gamma_bar = -1.0" in captured.err
    # Malformed nodes, mistyped containers and a foreign schema: the error
    # line names the file and, for a node, its place, its op and the field.
    u1, u2 = {"op": "u", "layer": 1, "ref": 0}, {"op": "u", "layer": 2, "ref": 0}
    affine = {"op": "affine", "coeffs": [-1.0], "const": 0.0, "args": [u1, u2]}
    outers = [
        ({"op": "max", "args": [u1]}, "outer: max args"),
        ({"op": "plus", "args": 5}, "outer: plus args"),
        ({"op": "scaled", "coeffs": [1.0, 2.0], "args": [u1, u2]}, "outer: scaled args"),
        ({"op": "plus", "args": [affine]}, "outer.args[0]: affine coeffs"),
        ({"op": "inner", "args": [u1, u2, u1]}, "outer: inner args"),
        ({"op": "diff", "args": [u1]}, "outer: diff args"),
        ({"op": "abs", "args": [u1, u2]}, "outer: abs args"),
        ({"op": "const", "value": 1.0, "args": [u1]}, "outer: const args"),
        ({"op": "sum"}, "outer: sum args"),
        ({"op": "leaky_relu", "alpha": 2.0, "args": [u1]}, "outer: leaky_relu alpha"),
        # a string is not read as its characters
        (
            {"op": "plus", "args": [{**affine, "coeffs": "12"}]},
            "outer.args[0]: affine coeffs: expected a list, got '12'",
        ),
    ]
    # integers are not truncated from floats, and meta is checked on load
    rnn_meta = {"structure": "rnn", "nt": 3, "y_sqnorm": 1.0, "layer_kinds": ["mix", "act"]}
    mistyped = [
        ({"layers": 5}, "layers: expected a list, got 5"),
        ({"schema_version": 999}, "unsupported schema_version 999"),
        ({"schema_version": 1.9}, "unsupported schema_version 1.9"),
        ({"n": 1.5}, "n: expected an integer, got 1.5"),
        ({"meta": 5}, "meta: expected an object, got 5"),
        ({"meta": {"structure": "rnn"}}, "meta.nt: missing"),
        ({"meta": rnn_meta}, "meta.rnn: missing"),
        ({"meta": {**rnn_meta, "rnn": {}, "nt": 0}}, "meta.nt: expected a positive integer, got 0"),
        ({"meta": {**rnn_meta, "rnn": {}, "layer_kinds": ["mix"]}}, "meta.layer_kinds: expected a list"),
    ]
    cases = [({"outer": node}, text) for node, text in outers] + mistyped
    d = problem_to_dict(square_chain_problem())
    d["layers"][1]["exprs"] = 5
    cases.append((d, "layers[1].exprs: expected a list, got 5"))
    d = problem_to_dict(square_chain_problem())
    d["layers"][1]["index"] = 2.5
    cases.append((d, "layers[1].index: expected an integer, got 2.5"))
    for k, (change, text) in enumerate(cases):
        bad = tmp_path / f"bad{k}.json"
        bad.write_text(dumps({**problem_to_dict(square_chain_problem()), **change}))
        capsys.readouterr()
        assert main(["eval", "--problem", str(bad), "--point", files["z0"]]) == 2
        assert f"error: {bad}: {text}" in capsys.readouterr().err
    bad_point, bad_beta = tmp_path / "u5.json", tmp_path / "beta.json"
    bad_point.write_text(dumps({**point_to_dict(eval_layers(square_chain_problem(), np.zeros(1))), "u": 5}))
    bad_beta.write_text("[[1.0], [2.0]]")
    for argv, text in [
        (["--point", str(bad_point)], f"error: {bad_point}: u: expected a list, got 5"),
        (["--point", files["z0"], "--beta-file", str(bad_beta)], f"error: {bad_beta}: expected a JSON array"),
    ]:
        capsys.readouterr()
        assert main(["eval", "--problem", files["prob"], *argv]) == 2
        assert text in capsys.readouterr().err


def test_solve_writes_report_and_trace(capsys, files, tmp_path):
    trace = tmp_path / "trace.csv"
    out_file = tmp_path / "report.json"
    code = main(
        [
            "solve",
            "--problem",
            files["prob"],
            "--beta",
            "1.0,0.6",
            "--max-iters",
            "40",
            "--seed",
            "0",
            "--trace",
            str(trace),
            "--out",
            str(out_file),
        ]
    )
    assert code == 0
    rep = json.loads(out_file.read_text())
    assert rep["kind"] == "solve-report"
    assert rep["converged"] is True
    assert trace.exists()
    assert trace.read_text().splitlines()[0] == "iter,theta,max_residual,step,probe_min"


def test_solve_init_file(capsys, files):
    code, out = _run(
        capsys,
        [
            "solve",
            "--problem",
            files["prob"],
            "--beta",
            "1.0,0.6",
            "--init",
            "file",
            "--init-file",
            files["shift"],
            "--max-iters",
            "120",
        ],
    )
    assert code == 0
    rep = json.loads(out)
    assert rep["value"] == pytest.approx(2e-6, abs=1e-6)


def test_rnn_thresholds_command(capsys):
    code, out = _run(
        capsys,
        ["rnn", "thresholds", "--n0", "2", "--n1", "3", "--n2", "1", "--t", "3", "--seed", "0"],
    )
    assert code == 0
    rep = json.loads(out)
    assert rep["thresholds"]["t1"] > 0
    assert rep["config"]["certified"] is True


def test_rnn_build_round_trips(capsys, tmp_path):
    out_file = tmp_path / "rnn.json"
    code = main(
        [
            "rnn",
            "build",
            "--n0",
            "2",
            "--n1",
            "3",
            "--n2",
            "1",
            "--t",
            "3",
            "--seed",
            "0",
            "--out",
            str(out_file),
        ]
    )
    assert code == 0
    from mcpen.serialize import load_problem

    p = load_problem(out_file)
    assert p.L == 8
    assert sum(p.widths) == 24


def test_repro_list_and_pass_lines(capsys):
    code, out = _run(capsys, ["repro", "--list"])
    assert code == 0
    names = out.split()
    assert {"square-chain", "rnn-lift-descent"} <= set(names)
    for name in ("relu-ridge", "rnn-lift-descent"):
        code, out = _run(capsys, ["repro", name])
        assert code == 0
        lines = [l for l in out.splitlines() if l.startswith("[")]
        assert lines
        assert all(l.startswith("[PASS]") for l in lines)


def test_repro_unknown_scenario(capsys):
    assert main(["repro", "no-such-scenario"]) == 2


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0


def test_solve_that_overflows_ends_with_an_error_line(capsys, tmp_path):
    # The layer value overflows to inf once the solver's first steps leave
    # the float range; the CLI names the layer, for sqnorm and mul alike.
    for op in ("sqnorm", "mul"):
        prob = tmp_path / f"blowup-{op}.json"
        save_problem(prob, blowup_problem(op))
        assert main(["solve", "--problem", str(prob), "--beta", "0.7"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines()[-1] == "error: layer 2 evaluated to a non-finite value"
        assert "Traceback" not in captured.err
    # At u_1 = 1/2 the mul layer's value is finite but its slope is not; the
    # first-order model refuses it, with no numpy warning before the error.
    point = tmp_path / "half.json"
    save_point(point, eval_layers(blowup_problem("mul"), np.array([0.5])))
    argv = ["check", "--problem", str(tmp_path / "blowup-mul.json"), "--point", str(point), "--target", "p0"]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: P0 first-order model has non-finite coefficients at this point\n"


# An error line from evaluation names the layer, the outer function or the
# check; the last four are input checks: P0 at an infeasible point, a
# reference level that bounds no level set, a modulus that is not finite and
# a threshold that leaves no finite weight above it.
EVALUATION_ERRORS = re.compile(
    r"error: (layer \d+|outer function) evaluated to a non-finite value"
    r"|error: P[01] first-order model has non-finite coefficients at this point"
    r"|error: point is infeasible \(max residual .*\)"
    r"|error: reference level gamma_bar = .* bounds no level set to sample; .*"
    r"|error: (layer \d+ map|outer function) has a non-finite Lipschitz modulus \(K_\w+ = .*\), .*"
    r"|error: threshold t_\d+ = .* leaves no finite penalty weight above it"
    r"|error: layer \d+ first derivative not finite along d"
)


def _scaled_layers(p, s):
    layers = tuple(LayerMap(lm.index, tuple(ex.scaled(10.0**s, e) for e in lm.exprs)) for lm in p.layers)
    return CompositeProblem(p.n, layers, p.outer, p.lam)


def _no_numpy_warnings(argv, err):
    # numpy's own warnings name numpy's operation, not the problem
    numpy_warnings = [w for w in err.splitlines() if w.startswith("warning:") and "encountered in" in w]
    assert not numpy_warnings, (argv, numpy_warnings)


def test_scaled_layers_end_in_a_named_error_or_a_report(capsys, tmp_path):
    # Scaling each layer of random problems by 10^s pushes some values past
    # the float range; each run either reports or ends in one error line
    # that says where the value broke.
    for seed in range(10):
        p = random_problem(seed)
        for s in (0, 100, 154, 200, 300):
            q = _scaled_layers(p, s)
            th = np.random.default_rng(seed).uniform(-1.0, 1.0, p.n)
            try:
                z = eval_layers(q, th)
            except EvaluationError:
                z = Point(th, tuple(np.zeros(w) for w in q.widths))
            prob, point = tmp_path / f"{seed}-{s}.json", tmp_path / f"{seed}-{s}-point.json"
            direction = tmp_path / f"{seed}-{s}-direction.json"
            save_problem(prob, q)
            save_point(point, z)
            save_direction(direction, Direction(np.ones(p.n), tuple(np.full(w, 10.0**s) for w in q.widths)))
            for argv in (
                ["solve", "--beta", "0.7", "--max-iters", "30"],
                ["check", "--point", str(point), "--target", "p0"],
                ["check", "--point", str(point), "--target", "p1", "--beta", "0.7"],
                ["thresholds", "--budget", "200"],
                ["cone", "--point", str(point), "--direction", str(direction)],
            ):
                code = main([argv[0], "--problem", str(prob), *argv[1:]])
                err = capsys.readouterr().err
                assert code in (0, 2, 3) and "Traceback" not in err
                last = err.splitlines()[-1]
                assert last.startswith("elapsed: ") if code != 2 else EVALUATION_ERRORS.fullmatch(last), (argv, last)
                if argv[0] in ("solve", "thresholds"):
                    _no_numpy_warnings(argv, err)
    # training on one sequence whose inputs, or inputs and targets, are scaled by 10^s
    spec = desk_instance(seed=0)
    for s, fy in ((0, 1.0), *((s, fy) for s in (100, 160, 300) for fy in (1.0, 10.0**s))):
        data = tmp_path / f"data-{s}-{fy:g}"
        data.mkdir()
        x, y = 10.0**s * spec.x[0], fy * spec.y[0]
        rows = [",".join(map(repr, (float(t), *map(float, x[t]), *map(float, y[t])))) for t in range(spec.t)]
        (data / "seq.csv").write_text("\n".join(["t,x0,x1,y0", *rows]) + "\n")
        argv = ["rnn", "train", "--data", str(data), "--max-iters", "20"]
        code = main(argv)
        err = capsys.readouterr().err
        assert code in (0, 2) and "Traceback" not in err
        last = err.splitlines()[-1]
        assert last.startswith("elapsed: ") if code == 0 else EVALUATION_ERRORS.fullmatch(last), (argv, last)
        _no_numpy_warnings(argv, err)


def test_a_non_finite_sampled_modulus_ends_in_an_error_line(capsys, tmp_path):
    # layers scaled by 1e200 make a sampled layer modulus inf while K_g is 0;
    # 0 * inf would be a NaN threshold and a NaN suggested beta
    prob = tmp_path / "prob.json"
    save_problem(prob, _scaled_layers(random_problem(18), 200))
    argv = ["thresholds", "--problem", str(prob), "--budget", "200"]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: layer 2 map has a non-finite Lipschitz modulus (K_1 = inf), so no threshold is finite\n"
    )
