"""The benchmark's workloads: seeded inputs, the timed op, and its checks.

Each workload builds the inputs of its first ``ops`` ops from the seed in
``setup(ops)``; the library receives only those inputs.  Inputs are drawn
in op order, so a set-up for fewer ops builds a prefix of a longer one, and
no input recurs within a process unless the workload says so.  ``op(i)`` is
the timed call.  Outside the timed region, ``signature(i, r)`` summarises
the op's outcome (runs of the same op on equal inputs must reproduce it
exactly) and ``check(i, r)`` returns an ``Outcome``.

``passes`` is how many processes repeat the same ops on equal inputs; the
benchmark keeps each op's fastest pass.  ``ops_for`` fixes the number of
ops from the run length alone, so runs of one length do the same work
however fast the host or the library is.

Library calls go through module attributes (``solver.minimize_theta``, not a
local copy) so that the tracer's patches see them.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from mcpen import cones, dcalc, model, penalty, rnn, solver, stationarity
from mcpen.stationarity import INCONCLUSIVE, NOT_STATIONARY, STATIONARY

from gen import SHAPES, generic_problem

# RNN shapes as (n0, n1, n2, T, sequences).
DESK = (2, 3, 1, 3, 1)  # n=22, nbar=46, L=8


@dataclass
class Outcome:
    """A checked op.

    ``wrong`` lists outputs that fail a check; any of them makes the run
    incorrect.  ``failed`` lists exceptions and known defects of the library
    (see ``CertifyRnn.check``); they count in ``failed`` and ``fail_rate``
    only, so that ``correct`` still flags a new wrong output.
    """

    signature: tuple
    wrong: list[str] = field(default_factory=list)
    failed: list[str] = field(default_factory=list)
    tally: dict = field(default_factory=dict)
    raised: bool = False


class Workload:
    """Defaults shared by the workloads below."""

    round_size = 1
    passes = 3
    # A round's op time on the 2-core host the benchmark was tuned on, at
    # the probe's reference speed (see run.py).
    round_s = 1.0

    def __init__(self, seed: int):
        self.seed = seed

    @classmethod
    def ops_for(cls, seconds: float) -> int:
        """Ops per pass: the whole rounds that fill ``seconds / passes``."""
        return cls.round_size * max(1, round(seconds / cls.passes / cls.round_s))


def rnn_spec(rng: np.random.Generator, shape) -> rnn.RnnSpec:
    n0, n1, n2, t, seqs = shape
    x = rng.standard_normal((seqs, t, n0))
    y = 0.5 * rng.standard_normal((seqs, t, n2))
    return rnn.RnnSpec(n0=n0, n1=n1, n2=n2, t=t, x=x, y=y, alpha=0.1, lam=0.1)


def certified_rnn(spec: rnn.RnnSpec):
    """Problem and closed-form certified config with its reference level."""
    problem = rnn.build_problem(spec)
    config = rnn.rnn_penalty_config(spec)
    _, gamma_bar = model.reference_point_and_level(problem, config.beta)
    config.gamma_bar = float(gamma_bar)
    return problem, config


def _unit_cols(rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    D = rng.standard_normal((rows, cols))
    return D / np.linalg.norm(D, axis=0)


class CertifyRnn(Workload):
    """``compare_sets_on_point`` on a desk-shape RNN.

    Set-up builds a seeded network and trains it, as ``rnn.train_and_certify``
    does.  Ops alternate between the feasible lift of theta = 0.1 N(0, I)
    (a fresh theta each round) and the trained, polished point, which is the
    same in every round: training from another start costs up to 5 s.
    """

    name = "certify-rnn"
    round_size = 2
    passes = 2
    round_s = 13.0
    trace_ops = 2

    def setup(self, ops: int) -> None:
        rng = np.random.default_rng(self.seed)
        self.problem, self.config = certified_rnn(rnn_spec(rng, DESK))
        n = self.problem.n
        self.untrained = [
            model.eval_layers(self.problem, 0.1 * rng.standard_normal(n))
            for _ in range((ops + 1) // 2)
        ]
        cfg = solver.SolveConfig(max_iters=400, stop_tol=1e-8, seed=self.seed)
        self.solve = solver.minimize_theta(self.problem, self.config.beta, cfg)
        self.trained, _, _ = solver.polish_to_feasible(self.problem, self.solve.z, self.config.beta)

    def point(self, i: int):
        return self.trained if i % 2 else self.untrained[i // 2]

    def op(self, i: int):
        return stationarity.compare_sets_on_point(
            self.problem, self.point(i), self.config, seed=self.seed
        )

    def signature(self, i: int, comp: dict) -> tuple:
        reports = [(k, comp[k]) for k in ("d0", "d1", "sd0", "sd1") if comp[k] is not None]
        return tuple((k, r.verdict, r.mode, r.samples) for k, r in reports) + (comp["consistent"],)

    def _reevaluate(self, key: str, report, z) -> float | None:
        """The reported witness's slope (or curvature), recomputed exactly."""
        p, b = self.problem, self.config.beta
        if key == "sd0":
            return dcalc.dd_F(p, z, report.witness, order=2).second
        if key == "sd1":
            return dcalc.dd_Theta(p, z, report.witness, b, order=2).second
        # Along a lifted witness the residual derivative vanishes, so this
        # slope is the same for every beta.
        return dcalc.dd_Theta(p, z, report.witness, b, order=1).first

    def check(self, i: int, comp: dict) -> Outcome:
        z = self.point(i)
        reports = {k: comp[k] for k in ("d0", "d1", "sd0", "sd1") if comp[k] is not None}
        wrong, failed = [], []
        slopes = {}
        for k, r in reports.items():
            if r.witness is None:
                continue
            v = slopes[k] = self._reevaluate(k, r, z)
            if v is None or not v < -r.tol / 2.0:
                wrong.append(f"{k} witness re-evaluates to {v}, not below -tol/2")
        # The known defect of ROADMAP open item 1: P1 says stationary where
        # P0 has a confirmed descent witness.  It counts as a failed op.
        d0, d1 = reports.get("d0"), reports["d1"]
        known = (
            d0 is not None
            and d0.verdict == NOT_STATIONARY
            and d1.verdict == STATIONARY
            and slopes.get("d0") is not None
            and slopes["d0"] < -d0.tol / 2.0
        )
        if known:
            failed.append(f"P1 says stationary against a P0 witness of slope {slopes['d0']:.3e}")
        if i % 2:
            # The checks of the rnn-desk reproduction scenario.
            if self.solve.probe_min < -1e-6:
                wrong.append(f"training not probe-stationary ({self.solve.probe_min:.3e})")
            if comp["max_residual"] > 1e-5:
                wrong.append(f"trained point residual {comp['max_residual']:.3e}")
            # A first-order disagreement is the known defect when ``known``.
            other = [
                s for s in comp["inconsistencies"] if not (known and "first-order verdicts" in s)
            ]
            if other:
                wrong.append("inconsistent: " + "; ".join(other))
            if d0 is not None and (
                reports["sd0"].verdict != d0.verdict or reports["sd1"].verdict != d1.verdict
            ):
                wrong.append("second-order verdicts differ from first-order ones")
        verdicts = [r.verdict for r in reports.values()]
        tally = {"verdicts": len(verdicts), "inconclusive": verdicts.count(INCONCLUSIVE)}
        return Outcome(self.signature(i, comp), wrong, failed, tally)

    @staticmethod
    def metrics(tallies: list[dict]) -> dict:
        issued = sum(t.get("verdicts", 0) for t in tallies)
        inconclusive = sum(t.get("inconclusive", 0) for t in tallies)
        return {"inconclusive_rate": (inconclusive / issued if issued else 0.0, "ratio")}


class TrainDesk(Workload):
    """``minimize_theta`` from a zero start with certified beta.

    Each op solves a different seeded desk-shape RNN, with the op index as
    solver seed.  No piece enumeration or LP runs here.
    """

    name = "train-desk"
    round_s = 0.4
    trace_ops = 16

    def setup(self, ops: int) -> None:
        rng = np.random.default_rng(self.seed)
        self.cases = []
        for _ in range(ops):
            problem, config = certified_rnn(rnn_spec(rng, DESK))
            start = model.eval_layers(problem, np.zeros(problem.n))
            self.cases.append((problem, config, model.eval_Theta(problem, start, config.beta)))

    def op(self, i: int):
        problem, config, _ = self.cases[i]
        cfg = solver.SolveConfig(seed=self.seed * 100_003 + i)
        return solver.minimize_theta(problem, config.beta, cfg)

    def signature(self, i: int, res) -> tuple:
        return (res.iterations, res.termination, res.converged, float(res.value))

    def check(self, i: int, res) -> Outcome:
        problem, config, start = self.cases[i]
        wrong = []
        value = model.eval_Theta(problem, res.z, config.beta)
        if not abs(value - res.value) <= 1e-9 * (1.0 + abs(value)):
            wrong.append(f"reported value {res.value!r} but Theta(z) = {value!r}")
        if not value <= start + 1e-12:
            wrong.append(f"Theta rose from {start!r} to {value!r}")
        return Outcome(self.signature(i, res), wrong, tally={"obj_ratio": value / start})

    @staticmethod
    def metrics(tallies: list[dict]) -> dict:
        ratios = [t["obj_ratio"] for t in tallies if "obj_ratio" in t]
        return {"final_obj_ratio": (float(np.mean(ratios)) if ratios else 0.0, "ratio")}


class ModuliGeneric(Workload):
    """Sampled moduli and radial cone tests on generic problems.

    One op is ``build_config`` (sampled moduli) on a problem from the
    generator, then ``radial_membership`` of four lifted directions at the
    reference point.  The cost of an op varies several-fold with the random
    trees, so the problems are one fixed list, drawn from ``PROBLEMS_SEED``
    and run in the same order under every seed: a round takes one problem of
    each shape in ``gen.SHAPES``.  The seed draws the sampling seeds and the
    radial directions.  The sampling budget is a quarter of the library
    default, so that a run covers about four problems per shape.
    """

    name = "moduli-generic"
    round_size = len(SHAPES)
    round_s = 2.5
    trace_ops = len(SHAPES)
    radial_dirs = 4
    budget = 2_500
    PROBLEMS_SEED = 0

    def setup(self, ops: int) -> None:
        problems = np.random.default_rng(self.PROBLEMS_SEED)
        rng = np.random.default_rng(self.seed)
        self.cases = []
        for i in range(ops):
            problem = generic_problem(problems, *SHAPES[i % len(SHAPES)])
            sampling_seed = int(rng.integers(2**31))
            dirs = _unit_cols(rng, problem.n, self.radial_dirs)
            self.cases.append((problem, sampling_seed, dirs))

    def op(self, i: int):
        problem, sampling_seed, DTH = self.cases[i]
        config = penalty.build_config(problem, budget=self.budget, seed=sampling_seed)
        z0, _ = model.reference_point_and_level(problem, config.beta)
        radial = []
        for j in range(DTH.shape[1]):
            d = cones.lift_direction(problem, z0, DTH[:, j])
            radial.append((d, cones.radial_membership(problem, z0, d)))
        return config, z0, radial

    def signature(self, i: int, out) -> tuple:
        config, _, radial = out
        verdicts = tuple(m.in_radial for _, m in radial)
        return (config.heuristic, config.certified, tuple(map(float, config.thresholds)), verdicts)

    def check(self, i: int, out) -> Outcome:
        problem = self.cases[i][0]
        config, z0, radial = out
        wrong = []
        if not np.array_equal(penalty.thresholds(config.K_g, config.K), config.thresholds):
            wrong.append("thresholds(K_g, K) does not reproduce config.thresholds")
        if config.certified != bool(np.all(config.beta > config.thresholds)):
            wrong.append("certified flag disagrees with beta > thresholds")
        tau = min(cones.RADIAL_TAUS)
        for j, (d, m) in enumerate(radial):
            if m.in_radial:
                moved = model.point_from_flat(problem, z0.flat() + tau * d.flat())
                if not model.residuals(problem, moved).feasible:
                    wrong.append(f"direction {j} called radial but infeasible at tau={tau}")
        decided = sum(m.in_radial is not None for _, m in radial)
        tally = {"radial": len(radial), "decided": decided}
        return Outcome(self.signature(i, out), wrong, tally=tally)

    @staticmethod
    def metrics(tallies: list[dict]) -> dict:
        total = sum(t.get("radial", 0) for t in tallies)
        decided = sum(t.get("decided", 0) for t in tallies)
        return {"radial_decided_ratio": (decided / total if total else 0.0, "ratio")}


WORKLOADS = {w.name: w for w in (CertifyRnn, TrainDesk, ModuliGeneric)}
