"""Command-line entry point.

Every subcommand reads problem/point/direction JSON files, runs the library,
and emits a JSON report embedding a run manifest (command, a hash of each
input file the run read, seed, tool version).  Identical manifests produce
identical reports; wall time is reported next to, not inside, the manifest.
A handler returns its report and exit code; ``main`` alone adds the
manifest and writes the bytes.  ``rnn build`` writes a problem file, which
carries no manifest.  ``main`` prints each distinct warning the library
raised once, as ``warning: <message>`` on stderr, without a source path.

Exit codes: 0 success, 2 validation error (bad files, bad dimensions,
unknown names), 3 when --expect stationary is given and the verdict is
not-stationary.  Scenario regressions exit 1 when a golden check fails.
"""

from __future__ import annotations

import argparse
import hashlib
import sys
import time
import warnings
from pathlib import Path

import numpy as np

from . import __version__, repro, serialize
from .cones import radial_membership, tangent_membership
from .dcalc import DDValue, dd_F, dd_Psi, dd_Theta
from .model import (
    DimensionError,
    EvaluationError,
    InfeasiblePointError,
    check_point,
    eval_F,
    eval_g,
    eval_Psi_plus_reg,
    eval_Theta,
    residuals,
)
from .penalty import build_config
from .rnn import (
    RnnSpec,
    build_problem,
    desk_instance,
    load_sequences,
    rnn_penalty_config,
    rnn_thresholds,
    sequence_files,
    train_and_certify,
)
from .solver import SolveConfig, minimize_theta
from .stationarity import (
    NOT_STATIONARY,
    check_d_stationary_P0,
    check_d_stationary_P1,
    check_second_order,
)


class CliError(ValueError):
    pass


def _sha256(path: str) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _manifest(argv: list[str], args) -> dict:
    """The command, a sha256 per input file it read, its seed and the tool version."""
    file_options = ("problem", "point", "direction", "beta_file")
    inputs = [getattr(args, name, None) for name in file_options]
    if getattr(args, "init", None) == "file":
        inputs.append(args.init_file)
    if getattr(args, "data", None):
        inputs += [str(f) for f in sequence_files(args.data)]
    return {
        "schema_version": serialize.SCHEMA_VERSION,
        "command": " ".join(argv),
        "inputs": {p: _sha256(p) for p in inputs if p and Path(p).is_file()},
        "seed": getattr(args, "seed", None),
        "version": __version__,
    }


def _parse_beta(args, L: int, needed_by: str | None = None) -> np.ndarray | None:
    """The penalty weights given, or None; ``needed_by`` names why one must be given."""
    if getattr(args, "beta_file", None):
        data = serialize.load(args.beta_file)
        if not isinstance(data, list) or not all(isinstance(v, (int, float)) for v in data):
            raise serialize.FormatError(f"{args.beta_file}: expected a JSON array of penalty weights")
        vals = [float(v) for v in data]
    elif getattr(args, "beta", None):
        try:
            vals = [float(v) for v in args.beta.split(",")]
        except ValueError as err:
            raise CliError(f"--beta must be comma-separated numbers: {err}") from err
    elif needed_by:
        raise CliError(f"{needed_by} needs --beta or --beta-file")
    else:
        return None
    if len(vals) == 1:
        vals = vals * L
    if len(vals) != L:
        raise CliError(f"beta needs {L} entries (one per layer), got {len(vals)}")
    return np.array(vals)


def _load_problem_point(args):
    problem = serialize.load_problem(args.problem)
    z = serialize.load_point(args.point)
    check_point(problem, z)
    return problem, z


def _cmd_eval(args):
    problem, z = _load_problem_point(args)
    res = residuals(problem, z)
    report = {
        "kind": "eval-report",
        "g": eval_g(problem, z.u),
        "F": eval_F(problem, z),
        "nested_objective": eval_Psi_plus_reg(problem, z.theta),
        "residuals": {
            "per_layer": [b.tolist() for b in res.per_layer],
            "l1": res.l1,
            "max_abs": res.max_abs,
            "feasible": res.feasible,
        },
    }
    b = _parse_beta(args, problem.L)
    if b is not None:
        report["theta_value"] = eval_Theta(problem, z, b)
        report["beta"] = b.tolist()
    return report, 0


def _cmd_dderiv(args):
    problem, z = _load_problem_point(args)
    d = serialize.load_direction(args.direction)
    if args.target == "nested":
        val: DDValue = dd_Psi(problem, z.theta, d.dtheta, order=args.order)
    elif args.target == "lifted":
        val = dd_F(problem, z, d, order=args.order)
    else:
        b = _parse_beta(args, problem.L, "this command")
        val = dd_Theta(problem, z, d, b, order=args.order)
    return {"kind": "dderiv-report", "target": args.target, "order": args.order, "result": val}, 0


def _cmd_cone(args):
    problem, z = _load_problem_point(args)
    d = serialize.load_direction(args.direction)
    report = {"kind": "cone-report", "tangent": tangent_membership(problem, z, d)}
    if not args.no_radial:
        report["radial"] = radial_membership(problem, z, d)
    return report, 0


def _cmd_thresholds(args):
    problem = serialize.load_problem(args.problem)
    beta = _parse_beta(args, problem.L)
    config = build_config(problem, beta=beta, eps=args.eps, budget=args.budget, seed=args.seed)
    return {"kind": "thresholds-report", "config": config}, 0


def _cmd_check(args):
    problem, z = _load_problem_point(args)
    beta = _parse_beta(args, problem.L, "--target p1" if args.target == "p1" else None)
    if args.order == 1:
        if args.target == "p0":
            rep = check_d_stationary_P0(problem, z, tol=args.tol)
        else:
            rep = check_d_stationary_P1(problem, z, beta, tol=args.tol)
    else:
        target = "lifted" if args.target == "p0" else "penalized"
        rep = check_second_order(problem, z, target, beta=beta, seed=args.seed, tol=args.tol)
    code = 3 if args.expect == "stationary" and rep.verdict == NOT_STATIONARY else 0
    return {"kind": "stationarity-report", "report": rep}, code


def _cmd_solve(args):
    problem = serialize.load_problem(args.problem)
    b = _parse_beta(args, problem.L, "this command")
    z_init = None
    init = args.init
    if init == "file":
        if not args.init_file:
            raise CliError("--init file needs --init-file")
        z_init = serialize.load_point(args.init_file)
        check_point(problem, z_init)
        init = "user"
    cfg = SolveConfig(
        max_iters=args.max_iters,
        step_rule=args.step_rule,
        stop_tol=args.stop_tol,
        seed=args.seed,
        init=init,
        trace_path=args.trace,
    )
    result = minimize_theta(problem, b, cfg, z_init=z_init)
    return {
        "kind": "solve-report",
        "value": result.value,
        "probe_min": result.probe_min,
        "iterations": result.iterations,
        "converged": result.converged,
        "termination": result.termination,
        "final_point": result.z,
    }, 0


def _rnn_spec_from_args(args) -> RnnSpec:
    shape = dict(n0=args.n0, n1=args.n1, n2=args.n2, t=args.t, alpha=args.alpha, lam=args.lam)
    if not args.data:
        return desk_instance(args.seed, **shape)
    x, y = load_sequences(args.data, args.n0, args.n2)
    if x.shape[1] != args.t:
        raise CliError(f"data has {x.shape[1]} steps but --t is {args.t}")
    return RnnSpec(x=x, y=y, **shape)


def _cmd_rnn(args):
    spec = _rnn_spec_from_args(args)
    if args.action == "build":
        problem = serialize.problem_to_dict(build_problem(spec))
        if args.out:
            serialize.save(args.out, problem)
        else:
            sys.stdout.write(serialize.dumps(problem))
        return None, 0
    if args.action == "thresholds":
        thr = rnn_thresholds(spec)
        config = rnn_penalty_config(spec)
        return {"kind": "rnn-thresholds-report", "thresholds": thr, "config": config}, 0
    cfg = SolveConfig(max_iters=args.max_iters, stop_tol=args.stop_tol, seed=args.seed, trace_path=args.trace)
    rep = train_and_certify(spec, solve_config=cfg, seed=args.seed)
    return {
        "kind": "rnn-train-report",
        "value": rep.solve.value,
        "probe_min": rep.solve.probe_min,
        "max_residual": rep.max_residual,
        "converged": rep.solve.converged,
        "certified": rep.config.certified,
        "beta": rep.config.beta.tolist(),
        "thresholds": rep.config.thresholds.tolist(),
        "comparison": rep.comparison,
        "sd_equals_d": rep.sd_equals_d,
        "final_point": rep.z,
        "notes": rep.notes,
    }, 0


def _cmd_repro(args):
    if args.list:
        for name in repro.list_scenarios():
            print(name)
        return None, 0
    if not args.name:
        raise CliError("repro needs a scenario name or --list")
    report = repro.run(args.name, seed=args.seed)
    for c in report["checks"]:
        mark = "PASS" if c["pass"] else "FAIL"
        print(f"[{mark}] {report['scenario']}: {c['name']} ({c['detail']})")
    return (report if args.out else None), (0 if report["ok"] else 1)


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="mcpen",
        description="Composite optimization with exact penalties and stationarity certificates.",
    )
    p.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = p.add_subparsers(dest="cmd", required=True)

    def add_common(sp, point=True, direction=False, beta=True):
        sp.add_argument("--problem", required=True, help="problem JSON file")
        if point:
            sp.add_argument("--point", required=True, help="point JSON file")
        if direction:
            sp.add_argument("--direction", required=True, help="direction JSON file")
        if beta:
            sp.add_argument("--beta", help="comma-separated penalty weights (or one value for all layers)")
            sp.add_argument("--beta-file", help="JSON array of penalty weights")
        sp.add_argument("--out", help="write the JSON report here instead of stdout")

    sp = sub.add_parser("eval", help="evaluate objectives and residuals at a point")
    add_common(sp)
    sp.set_defaults(fn=_cmd_eval)

    sp = sub.add_parser("dderiv", help="directional derivatives at a point")
    add_common(sp, direction=True)
    sp.add_argument("--order", type=int, choices=(1, 2), default=1)
    sp.add_argument("--target", choices=("nested", "lifted", "penalized"), default="penalized")
    sp.set_defaults(fn=_cmd_dderiv)

    sp = sub.add_parser("cone", help="tangent/radial cone membership of a direction")
    add_common(sp, direction=True, beta=False)
    sp.add_argument("--no-radial", action="store_true", help="skip the radial test")
    sp.set_defaults(fn=_cmd_cone)

    sp = sub.add_parser("thresholds", help="penalty moduli, thresholds, and certification")
    add_common(sp, point=False)
    sp.add_argument("--eps", type=float, default=1e-3)
    sp.add_argument("--budget", type=int, default=10_000)
    sp.add_argument("--seed", type=int, default=0)
    sp.set_defaults(fn=_cmd_thresholds)

    sp = sub.add_parser("check", help="d-stationarity checks")
    add_common(sp)
    sp.add_argument("--target", choices=("p0", "p1"), required=True)
    sp.add_argument("--order", type=int, choices=(1, 2), default=1)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--tol", type=float, default=1e-8)
    sp.add_argument("--expect", choices=("stationary", "not-stationary"))
    sp.set_defaults(fn=_cmd_check)

    sp = sub.add_parser("solve", help="minimize the penalized objective")
    add_common(sp, point=False)
    sp.add_argument("--max-iters", type=int, default=300)
    sp.add_argument("--stop-tol", type=float, default=1e-6)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--init", choices=("zero", "random", "file"), default="zero")
    sp.add_argument("--init-file", help="point JSON for --init file")
    sp.add_argument("--step-rule", choices=("fixed", "diminishing"), default="fixed")
    sp.add_argument("--trace", help="write the iterate trace CSV here")
    sp.set_defaults(fn=_cmd_solve)

    sp = sub.add_parser("rnn", help="recurrent-network workflows")
    sp.add_argument("action", choices=("build", "thresholds", "train"))
    sp.add_argument("--data", help="directory of sequence CSV files (t, x0.., y0..)")
    sp.add_argument("--n0", type=int, default=2)
    sp.add_argument("--n1", type=int, default=3)
    sp.add_argument("--n2", type=int, default=1)
    sp.add_argument("--t", type=int, default=3)
    sp.add_argument("--alpha", type=float, default=0.1)
    sp.add_argument("--lambda", dest="lam", type=float, default=0.1)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--max-iters", type=int, default=400)
    sp.add_argument("--stop-tol", type=float, default=1e-8)
    sp.add_argument("--trace", help="write the training trace CSV here")
    sp.add_argument("--out", help="write the JSON report here instead of stdout")
    sp.set_defaults(fn=_cmd_rnn)

    sp = sub.add_parser("repro", help="run a named regression scenario")
    sp.add_argument("name", nargs="?", help="scenario name")
    sp.add_argument("--list", action="store_true", help="list scenario names")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--out", help="write the JSON report here as well")
    sp.set_defaults(fn=_cmd_repro)
    return p


def _run(argv: list[str]) -> int:
    """Parse the options, run the handler and write its report; returns the exit code."""
    args = _build_parser().parse_args(argv)
    report, code = args.fn(args)
    if report is not None:
        report["manifest"] = _manifest(argv, args)
        text = serialize.dumps(report)
        if args.out:
            Path(args.out).write_text(text)
        else:
            sys.stdout.write(text)
    return code


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    start = time.perf_counter()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            code = _run(argv)
            # timing goes to stderr so the report stays byte-deterministic
            last = f"elapsed: {time.perf_counter() - start:.3f}s"
        except (
            CliError,
            serialize.FormatError,
            DimensionError,
            EvaluationError,
            InfeasiblePointError,
            ValueError,
            OverflowError,
            OSError,
        ) as err:
            code, last = 2, f"error: {err}"
    for message in dict.fromkeys(str(w.message) for w in caught):
        print(f"warning: {message}", file=sys.stderr)
    print(last, file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
