"""Elman recurrent network instances as composite problems.

The network runs T steps of w_t = A x_t + W s_{t-1} + b, s_t = sigma(w_t)
with s_0 = 0, then a readout v = (V s_t + c for all t) and r = sigma(v),
with sigma the leaky ReLU.  The squared loss sum ||r - y||^2 / (2NT) plus
the ridge term gives the training objective.  Every step becomes a layer of
the composite problem: parameters enter the pre-activation maps bilinearly
(entries of W and V multiply state blocks), so the layer maps are
piecewise polynomials of degree two and all the certification machinery
applies with closed-form Lipschitz moduli.

Parameter vector layout: theta = (vec A, vec V, vec W, b, c) with
column-major vec, so theta has length N1*N0 + N2*N1 + N1*N1 + N1 + N2.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

from . import expr as ex
from .model import (
    CompositeProblem,
    DimensionError,
    LayerMap,
    Point,
    reference_point_and_level,
    residuals,
)
from .penalty import PenaltyConfig, certify, rnn_moduli, suggest_beta
from .solver import SolveConfig, SolveResult, minimize_theta, polish_to_feasible
from .stationarity import compare_sets_on_point


@dataclass
class RnnSpec:
    n0: int
    n1: int
    n2: int
    t: int
    x: np.ndarray  # (n_seq, t, n0)
    y: np.ndarray  # (n_seq, t, n2)
    alpha: float = 0.1
    lam: float = 0.1

    def __post_init__(self) -> None:
        self.x = np.asarray(self.x, dtype=float)
        self.y = np.asarray(self.y, dtype=float)
        if self.x.ndim == 2:
            self.x = self.x[None, :, :]
        if self.y.ndim == 2:
            self.y = self.y[None, :, :]
        if min(self.n0, self.n1, self.n2, self.t) < 1:
            raise DimensionError("network dimensions must be positive")
        if self.x.shape[1:] != (self.t, self.n0):
            raise DimensionError(f"inputs must have shape (n_seq, {self.t}, {self.n0})")
        if self.y.shape != (self.x.shape[0], self.t, self.n2):
            raise DimensionError(f"labels must have shape ({self.x.shape[0]}, {self.t}, {self.n2})")
        if not 0.0 <= self.alpha < 1.0:
            raise ValueError("alpha must lie in [0, 1)")
        if self.lam <= 0:
            raise ValueError("lam must be positive")

    @property
    def n_seq(self) -> int:
        return int(self.x.shape[0])

    @property
    def n_params(self) -> int:
        return self.n1 * self.n0 + self.n2 * self.n1 + self.n1 * self.n1 + self.n1 + self.n2

    def offsets(self) -> dict[str, int]:
        a = self.n1 * self.n0
        v = a + self.n2 * self.n1
        w = v + self.n1 * self.n1
        b = w + self.n1
        return {"A": 0, "V": a, "W": v, "b": w, "c": b}


@dataclass
class RnnThresholds:
    gamma_y: float
    gamma_1: float
    t1: float
    t2: float
    K_g: float
    K_mix: float
    K_act: float = 1.0


def theta_pack(A: np.ndarray, V: np.ndarray, W: np.ndarray, b: np.ndarray, c: np.ndarray) -> np.ndarray:
    return np.concatenate(
        [
            np.asarray(A, dtype=float).ravel(order="F"),
            np.asarray(V, dtype=float).ravel(order="F"),
            np.asarray(W, dtype=float).ravel(order="F"),
            np.asarray(b, dtype=float).ravel(),
            np.asarray(c, dtype=float).ravel(),
        ]
    )


def theta_unpack(spec: RnnSpec, th: np.ndarray):
    th = np.asarray(th, dtype=float).ravel()
    if th.size != spec.n_params:
        raise DimensionError(f"theta must have length {spec.n_params}")
    o = spec.offsets()
    A = th[o["A"] : o["V"]].reshape(spec.n1, spec.n0, order="F")
    V = th[o["V"] : o["W"]].reshape(spec.n2, spec.n1, order="F")
    W = th[o["W"] : o["b"]].reshape(spec.n1, spec.n1, order="F")
    b = th[o["b"] : o["c"]]
    c = th[o["c"] :]
    return A, V, W, b, c


def layer_tags(spec: RnnSpec) -> list[tuple[str, int, int]]:
    """(kind, sequence, step) per layer; the readout layers carry step 0."""
    tags: list[tuple[str, int, int]] = []
    for q in range(spec.n_seq):
        for t in range(1, spec.t + 1):
            tags.append(("w", q, t))
            tags.append(("s", q, t))
    tags.append(("v", 0, 0))
    tags.append(("r", 0, 0))
    return tags


def _meta(spec: RnnSpec) -> dict:
    """The problem's meta record: the data of the closed-form moduli."""
    y = spec.y.reshape(-1)
    return {
        "structure": "rnn",
        "nt": spec.n_seq * spec.t,
        "y_sqnorm": float(y @ y),
        "layer_kinds": ["act" if kind in ("s", "r") else "mix" for kind, _, _ in layer_tags(spec)],
        "rnn": {
            "n0": spec.n0,
            "n1": spec.n1,
            "n2": spec.n2,
            "t": spec.t,
            "n_seq": spec.n_seq,
            "alpha": spec.alpha,
        },
    }


def build_problem(spec: RnnSpec) -> CompositeProblem:
    o = spec.offsets()
    n1, n2 = spec.n1, spec.n2

    def idx_A(i: int, j: int) -> int:
        return o["A"] + j * n1 + i

    def idx_V(i: int, j: int) -> int:
        return o["V"] + j * n2 + i

    def idx_W(i: int, j: int) -> int:
        return o["W"] + j * n1 + i

    layers: list[LayerMap] = []
    s_layer_of: dict[tuple[int, int], int] = {}
    lidx = 0
    for q in range(spec.n_seq):
        for t in range(1, spec.t + 1):
            xt = spec.x[q, t - 1]
            w_exprs = []
            for i in range(n1):
                aff = ex.affine(
                    0.0,
                    list(xt) + [1.0],
                    [ex.theta(idx_A(i, j)) for j in range(spec.n0)] + [ex.theta(o["b"] + i)],
                )
                terms = [aff]
                if t > 1:
                    sprev = s_layer_of[(q, t - 1)]
                    terms += [
                        ex.mul(ex.theta(idx_W(i, j)), ex.uref(sprev, j)) for j in range(n1)
                    ]
                w_exprs.append(ex.add(*terms) if len(terms) > 1 else aff)
            lidx += 1
            layers.append(LayerMap(lidx, tuple(w_exprs)))
            s_exprs = [ex.leaky(ex.uref(lidx, i), spec.alpha) for i in range(n1)]
            lidx += 1
            layers.append(LayerMap(lidx, tuple(s_exprs)))
            s_layer_of[(q, t)] = lidx
    v_exprs = []
    for q in range(spec.n_seq):
        for t in range(1, spec.t + 1):
            sl = s_layer_of[(q, t)]
            for i in range(n2):
                terms = [ex.affine(0.0, [1.0], [ex.theta(o["c"] + i)])]
                terms += [ex.mul(ex.theta(idx_V(i, j)), ex.uref(sl, j)) for j in range(n1)]
                v_exprs.append(ex.add(*terms))
    lidx += 1
    layers.append(LayerMap(lidx, tuple(v_exprs)))
    r_exprs = [ex.leaky(ex.uref(lidx, i), spec.alpha) for i in range(len(v_exprs))]
    lidx += 1
    layers.append(LayerMap(lidx, tuple(r_exprs)))

    y_flat = spec.y.reshape(-1)
    nt = spec.n_seq * spec.t
    outer = ex.scaled(
        1.0 / (2.0 * nt),
        ex.sqnorm(*[ex.sub(ex.uref(lidx, i), ex.const(float(y_flat[i]))) for i in range(y_flat.size)]),
    )
    return CompositeProblem(spec.n_params, tuple(layers), outer, spec.lam, _meta(spec))


def rnn_thresholds(spec: RnnSpec) -> RnnThresholds:
    """Closed-form penalty thresholds for the two layer groups.

    The recurrence layers (pre-activations and states) share t1, the readout
    layers share t2; both come from the level-set Lipschitz moduli of the
    squared loss and the bilinear parameter-state maps.
    """
    nt = spec.n_seq * spec.t
    gamma_y, t2, kappa, _ = rnn_moduli(_meta(spec), spec.lam)
    gamma_1 = float(sum(kappa**i for i in range(spec.t)))
    t1 = gamma_1 * gamma_y * np.sqrt(2.0 / (spec.lam * nt))
    return RnnThresholds(gamma_y, gamma_1, float(t1), float(t2), K_g=float(t2), K_mix=float(kappa))


def beta_vector(spec: RnnSpec, b1: float, b2: float) -> np.ndarray:
    """Per-layer beta with b1 on recurrence layers and b2 on readout layers."""
    return np.array([b1] * (2 * spec.t * spec.n_seq) + [b2, b2])


def rnn_penalty_config(spec: RnnSpec, beta: Sequence[float] | None = None) -> PenaltyConfig:
    thr = rnn_thresholds(spec)
    t_vec = beta_vector(spec, thr.t1, thr.t2)
    beta = suggest_beta(t_vec) if beta is None else np.asarray(beta, dtype=float).ravel()
    if beta.size != t_vec.size:
        raise DimensionError(f"beta must have length {t_vec.size}")
    return PenaltyConfig(
        beta=beta,
        K_g=thr.K_g,
        K=rnn_moduli(_meta(spec), spec.lam)[3],
        thresholds=t_vec,
        gamma_bar=thr.gamma_y,
        eps=0.0,
        certified=certify(beta, t_vec),
        heuristic=False,
        notes=["grouped closed-form thresholds for the recurrent structure"],
    )


# ---------------------------------------------------------------------------
# Data and end-to-end workflow


def read_sequence_csv(path: str | Path, n0: int, n2: int) -> tuple[np.ndarray, np.ndarray]:
    """One sequence from a CSV with columns t, x0..x{n0-1}, y0..y{n2-1}."""
    rows = []
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        need = ["t"] + [f"x{j}" for j in range(n0)] + [f"y{j}" for j in range(n2)]
        missing = [c for c in need if c not in (reader.fieldnames or [])]
        if missing:
            raise ValueError(f"{path}: missing columns {missing}")
        for rec in reader:
            rows.append(
                (
                    float(rec["t"]),
                    [float(rec[f"x{j}"]) for j in range(n0)],
                    [float(rec[f"y{j}"]) for j in range(n2)],
                )
            )
    rows.sort(key=lambda r: r[0])
    if not rows:
        raise ValueError(f"{path}: no data rows")
    X = np.array([r[1] for r in rows])
    Y = np.array([r[2] for r in rows])
    return X, Y


def load_sequences(data_dir: str | Path, n0: int, n2: int) -> tuple[np.ndarray, np.ndarray]:
    """All sequences from a directory of CSV files, ordered by file name."""
    files = sorted(Path(data_dir).glob("*.csv"))
    if not files:
        raise ValueError(f"no CSV files in {data_dir}")
    xs, ys = [], []
    for f in files:
        X, Y = read_sequence_csv(f, n0, n2)
        xs.append(X)
        ys.append(Y)
    steps = {x.shape[0] for x in xs}
    if len(steps) != 1:
        raise ValueError("all sequences must have the same number of steps")
    return np.stack(xs), np.stack(ys)


def desk_instance(seed: int = 0) -> RnnSpec:
    """The small seeded reference instance used across tests and scenarios."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((1, 3, 2))
    y = 0.5 * rng.standard_normal((1, 3, 1))
    return RnnSpec(n0=2, n1=3, n2=1, t=3, x=x, y=y, alpha=0.1, lam=0.1)


@dataclass
class TrainReport:
    spec: RnnSpec
    config: PenaltyConfig
    solve: SolveResult
    z: Point
    max_residual: float
    comparison: dict
    sd_equals_d: bool | None
    notes: list[str] = field(default_factory=list)


def train_and_certify(
    spec: RnnSpec,
    beta: Sequence[float] | None = None,
    solve_config: SolveConfig | None = None,
    seed: int = 0,
) -> TrainReport:
    """Build, certify, solve, polish, and cross-check one network instance."""
    problem = build_problem(spec)
    pconf = rnn_penalty_config(spec, beta)
    _, gamma_bar = reference_point_and_level(problem, pconf.beta)
    pconf.gamma_bar = float(gamma_bar)
    cfg = solve_config or SolveConfig(max_iters=400, stop_tol=1e-8, seed=seed)
    result = minimize_theta(problem, pconf.beta, cfg)
    z, _, _ = polish_to_feasible(problem, result.z, pconf.beta)
    res = residuals(problem, z)
    comparison = compare_sets_on_point(problem, z, pconf, seed=seed)
    sd_equals_d: bool | None = None
    if comparison["d0"] is not None and comparison["sd0"] is not None:
        sd_equals_d = (
            comparison["d0"].verdict == comparison["sd0"].verdict
            and comparison["d1"].verdict == comparison["sd1"].verdict
        )
    notes = []
    if not pconf.certified:
        notes.append("beta below the closed-form thresholds; equivalences not guaranteed")
    return TrainReport(
        spec=spec,
        config=pconf,
        solve=result,
        z=z,
        max_residual=float(res.max_abs),
        comparison=comparison,
        sd_equals_d=sd_equals_d,
        notes=notes,
    )
