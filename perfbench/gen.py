"""Seeded generator of small generic composite problems.

The problems are not recurrent networks, so ``penalty.build_config`` has no
closed forms for them and samples the Lipschitz moduli.  Every node of the
expression vocabulary can appear.  Sizes stay at n <= 4, L <= 3 and layer
width <= 3, with trees of depth at most 2 per component.

The sizes come from the fixed list ``SHAPES`` rather than from the
generator: the cost of sampled moduli grows with the layer count and
widths, so a benchmark that cycles through all shapes sees the same mix of
sizes whatever the trees.
"""

from __future__ import annotations

import numpy as np
from mcpen import expr as ex
from mcpen.model import CompositeProblem, LayerMap

# (n, layer widths), covering n <= 4, L <= 3 and width <= 3.
SHAPES = (
    (1, (1,)),
    (2, (2,)),
    (3, (3,)),
    (4, (1, 2)),
    (1, (2, 3)),
    (2, (3, 1)),
    (3, (2, 2)),
    (4, (1, 2, 3)),
    (1, (3, 2, 1)),
    (2, (2, 2, 2)),
    (3, (1, 1, 1)),
    (4, (3, 3, 3)),
)

_SMOOTH = ("affine", "add", "sub", "scaled", "mul", "square", "dot", "sqnorm")
_KINKS = ("max", "abs", "plus", "leaky")


def _coef(rng: np.random.Generator) -> float:
    return round(float(rng.normal()), 3)


def _leaf(rng, n, max_layer, widths, theta_ok):
    if max_layer >= 1 and (not theta_ok or rng.random() < 0.6):
        j = int(rng.integers(1, max_layer + 1))
        return ex.uref(j, int(rng.integers(0, widths[j - 1])))
    if theta_ok:
        return ex.theta(int(rng.integers(0, n)))
    return ex.const(_coef(rng))


def _tree(rng, n, max_layer, widths, depth, theta_ok=True):
    if depth <= 0:
        if rng.random() < 0.2:
            return ex.const(_coef(rng))
        return _leaf(rng, n, max_layer, widths, theta_ok)
    op = rng.choice(_SMOOTH + _KINKS)

    def child():
        return _tree(rng, n, max_layer, widths, depth - 1, theta_ok)

    if op == "affine":
        m = int(rng.integers(1, 4))
        return ex.affine(_coef(rng), [_coef(rng) for _ in range(m)], [child() for _ in range(m)])
    if op == "add":
        return ex.add(child(), child())
    if op == "sub":
        return ex.sub(child(), child())
    if op == "scaled":
        return ex.scaled(_coef(rng), child())
    if op == "mul":
        return ex.mul(child(), child())
    if op == "square":
        return ex.square(child())
    if op == "dot":
        m = int(rng.integers(1, 3))
        return ex.dot([child() for _ in range(m)], [child() for _ in range(m)])
    if op == "sqnorm":
        return ex.sqnorm(*[child() for _ in range(int(rng.integers(1, 3)))])
    if op == "max":
        return ex.vmax(child(), child())
    if op == "abs":
        return ex.vabs(child())
    if op == "plus":
        return ex.plus(child())
    return ex.leaky(child(), float(rng.choice([0.0, 0.1, 0.25])))


def generic_problem(rng: np.random.Generator, n: int, widths) -> CompositeProblem:
    """One random layered problem of the given shape, drawn from ``rng``.

    Component trees alternate between depth 1 and depth 2; the outer
    function has depth 2 and reads layer blocks only.
    """
    layers = []
    for k in range(1, len(widths) + 1):
        exprs = tuple(
            _tree(rng, n, k - 1, widths, depth=1 + (k + j) % 2) for j in range(widths[k - 1])
        )
        layers.append(LayerMap(index=k, exprs=exprs))
    outer = _tree(rng, n, len(widths), widths, depth=2, theta_ok=False)
    lam = max(round(float(rng.uniform(0.0, 0.3)), 3), 1e-3)
    return CompositeProblem(n=n, layers=tuple(layers), outer=outer, lam=lam)
