"""Command-line surface: reports, manifests, and exit codes."""

import json

import numpy as np
import pytest

from conftest import negative_outer_problem
from mcpen.cli import main
from mcpen.dcalc import Direction
from mcpen.model import Point, eval_layers
from mcpen.repro import square_chain_problem
from mcpen.serialize import save_direction, save_point, save_problem


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
    # a negative reference level bounds no level set to sample the moduli from
    neg = tmp_path / "neg.json"
    save_problem(neg, negative_outer_problem())
    assert main(["thresholds", "--problem", str(neg)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "gamma_bar = -1.0" in captured.err


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
    assert "square-chain" in names
    code, out = _run(capsys, ["repro", "relu-ridge"])
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
