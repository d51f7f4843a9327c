"""Expression trees for piecewise-smooth functions of parameter and layer blocks.

Every op belongs to one of four node families, and ``OPS`` is the one table
that says which, together with the data the family rule reads, the op's
arity and its payload fields (checked and converted by ``FIELDS``):

* leaf: ``const``, ``theta`` and ``u`` read a constant or one component of
  the parameter block (block 0) or of a layer block (block j);
* linear: ``sum``, ``diff``, ``scaled`` and ``affine`` are weighted sums of
  their arguments plus an offset;
* pairwise product: ``product``, ``inner``, ``sqnorm`` and ``square`` sum
  products of argument pairs (self-pairs for the squares);
* kink: ``max``, ``abs``, ``plus`` and ``leaky_relu`` are the max of the
  first argument against a second branch: the second argument, ``s*a`` for
  ``abs`` (s = -1) and ``leaky_relu`` (s = alpha), or zero.

The walkers (``eval_one``, ``eval_cols``, ``taylor_cells``,
``pieces.expr_pieces``, ``cones._degree``) branch on the family only.  Where
an op's own arithmetic differs from its family rule (whether a sum starts at
zero or at its first term, Python's ``abs``), the difference is table data,
so each op keeps its exact rounding and sign of zero, at one point and
column by column.  Every walker squares with ``x*x``, so a square has one
value in all of them, and a value past the float range is inf, never an
exception.  Trees are built from
immutable nodes, so cycles are impossible by construction and sharing of
subtrees is safe; ``nodes`` walks a tree without recursion.

Every node supports exact one-sided Taylor data along a ray: given input
curves ``x_i + tau*d_i + (tau^2/2)*e_i + o(tau^2)``, the propagation below
produces the value, the first-order coefficient and (on request) the
second-order coefficient of the node output.  At an active kink the rules
follow the winning branch, with first-order comparison breaking value ties
and a max of second-order coefficients breaking double ties.

Second-order results are flagged unsupported for nestings outside the
documented envelope: a max-family node at an active tie whose argument is
itself kinked along the ray, or a product whose two factors are both kinked
(including squares of a kinked argument).  First-order results are always
defined.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from functools import reduce
from typing import Callable, Iterator, NamedTuple, Sequence

import numpy as np

# Gap below which a branch tie counts as active.
TIE_TOL = 1e-12


@dataclass(frozen=True, slots=True)
class Expr:
    """One node of an expression tree.

    ``op`` names the op; its ``OPS`` entry gives the family rule the walkers
    apply, the arity and the payload fields (``value`` for constants,
    ``ref``/``layer`` for leaves, ``alpha`` for leaky relu, ``coeffs``/``const``
    for weighted sums); the fields an op does not list mean nothing.
    Construction converts and checks the payload and checks the arity,
    raising ``ValueError`` that names the op and the field, then sets
    ``family`` and ``data``, the op's family and the node's family data.
    """

    op: str
    args: tuple["Expr", ...] = ()
    value: float = 0.0
    ref: int = -1
    layer: int = 0
    alpha: float = 0.0
    coeffs: tuple[float, ...] = ()
    const: float = 0.0
    family: str = field(init=False, repr=False, compare=False)
    data: object = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        try:
            spec = OPS[self.op]
        except (KeyError, TypeError):
            raise ValueError(f"unknown node op {self.op!r}") from None
        if not ARITIES[spec.arity](len(self.args)):
            raise ValueError(f"{self.op} args: arity {spec.arity}, got {len(self.args)}")
        for name in spec.fields:
            convert, ok, rule = FIELDS[name]
            try:
                v = convert(getattr(self, name))
            except (TypeError, ValueError, OverflowError) as err:
                raise ValueError(f"{self.op} {name}: {err}") from None
            if ok is not None and not ok(v, self):
                raise ValueError(f"{self.op} {name}: {rule}, got {v!r}")
            object.__setattr__(self, name, v)
        object.__setattr__(self, "family", spec.family)
        object.__setattr__(self, "data", spec.data(self))


def const(v: float) -> Expr:
    return Expr("const", value=v)


def theta(i: int) -> Expr:
    return Expr("theta", ref=i)


def uref(layer: int, i: int) -> Expr:
    """Component ``i`` of the layer-``layer`` block (layers are 1-based)."""
    return Expr("u", layer=layer, ref=i)


def add(*args: Expr) -> Expr:
    return Expr("sum", args=args)


def sub(a: Expr, b: Expr) -> Expr:
    return Expr("diff", args=(a, b))


def scaled(c: float, a: Expr) -> Expr:
    return Expr("scaled", args=(a,), coeffs=(c,))


def affine(c0: float, coeffs: Sequence[float], args: Sequence[Expr]) -> Expr:
    return Expr("affine", args=tuple(args), coeffs=coeffs, const=c0)


def mul(a: Expr, b: Expr) -> Expr:
    return Expr("product", args=(a, b))


def dot(avec: Sequence[Expr], bvec: Sequence[Expr]) -> Expr:
    if len(avec) != len(bvec):
        raise ValueError("inner product needs two argument lists of equal length")
    return Expr("inner", args=tuple(avec) + tuple(bvec))


def sqnorm(*args: Expr) -> Expr:
    return Expr("sqnorm", args=args)


def vmax(a: Expr, b: Expr) -> Expr:
    return Expr("max", args=(a, b))


def vabs(a: Expr) -> Expr:
    return Expr("abs", args=(a,))


def plus(a: Expr) -> Expr:
    """Plus part, t -> max(t, 0)."""
    return Expr("plus", args=(a,))


def leaky(a: Expr, alpha: float) -> Expr:
    return Expr("leaky_relu", args=(a,), alpha=alpha)


def square(a: Expr) -> Expr:
    return Expr("square", args=(a,))


LEAF, LINEAR, PRODUCT, KINK = "leaf", "linear", "product", "kink"

# arity -> whether it admits a given number of arguments
ARITIES: dict[str, Callable[[int], bool]] = {
    "0": lambda k: k == 0,
    "1": lambda k: k == 1,
    "2": lambda k: k == 2,
    "1+": lambda k: k >= 1,
    "2k": lambda k: k >= 2 and k % 2 == 0,
    "any": lambda k: True,
}


def _sequence(v):
    """``v`` itself if it is a list, tuple or array; a string would iterate its characters."""
    if not isinstance(v, (list, tuple, np.ndarray)):
        raise TypeError(f"expected a list, got {v!r}")
    return v


# payload field -> (conversion, check of (value, node) or None, the rule checked)
FIELDS: dict[str, tuple[Callable[[object], object], Callable[[object, Expr], bool] | None, str]] = {
    "value": (float, None, ""),
    "ref": (operator.index, lambda v, e: v >= 0, "must be >= 0"),
    "layer": (operator.index, lambda v, e: v >= 1, "must be >= 1"),
    "alpha": (float, lambda v, e: 0.0 <= v < 1.0, "must lie in [0, 1)"),
    "coeffs": (
        lambda v: tuple(map(float, _sequence(v))),
        lambda v, e: len(v) == len(e.args),
        "must hold one coefficient per argument",
    ),
    "const": (float, None, ""),
}


class Op(NamedTuple):
    """An op's family, arity (a key of ``ARITIES``), payload fields and node -> family data map."""

    family: str
    arity: str
    fields: tuple[str, ...]
    data: Callable[[Expr], object]


def _pairs(e: Expr) -> tuple[tuple[int, int], ...]:
    k = len(e.args) // 2
    return tuple((i, k + i) for i in range(k))


# A kink's value rule at one point and column by column.  np.where(b > a, b, a)
# is Python's max(a, b), NaN and signed zero included; np.maximum is not.
Rule = NamedTuple("Rule", [("one", Callable), ("cols", Callable)])
MAX = Rule(max, lambda a, b: np.where(b > a, b, a))
ABS = Rule(lambda a, _: abs(a), lambda a, _: np.abs(a))


# The data of each family:
#   leaf     the block read (0 for theta, j for u_j), None for a constant;
#   linear   (weights, offset); offset None sums from the first term;
#   product  (index pairs, start); start None sums from the first pair;
#   kink     (second-branch node, scale, value Rule); a None node makes
#            the second branch scale * first argument.
OPS: dict[str, Op] = {
    "const": Op(LEAF, "0", ("value",), lambda e: None),
    "theta": Op(LEAF, "0", ("ref",), lambda e: 0),
    "u": Op(LEAF, "0", ("layer", "ref"), lambda e: e.layer),
    "sum": Op(LINEAR, "1+", (), lambda e: ((1.0,) * len(e.args), 0.0)),
    "diff": Op(LINEAR, "2", (), lambda e: ((1.0, -1.0), None)),
    "scaled": Op(LINEAR, "1", ("coeffs",), lambda e: (e.coeffs, None)),
    "affine": Op(LINEAR, "any", ("coeffs", "const"), lambda e: (e.coeffs, e.const)),
    "product": Op(PRODUCT, "2", (), lambda e: (((0, 1),), None)),
    "inner": Op(PRODUCT, "2k", (), lambda e: (_pairs(e), 0.0)),
    "sqnorm": Op(PRODUCT, "1+", (), lambda e: (tuple((i, i) for i in range(len(e.args))), 0.0)),
    "square": Op(PRODUCT, "1", (), lambda e: (((0, 0),), None)),
    "max": Op(KINK, "2", (), lambda e: (e.args[1], None, MAX)),
    "abs": Op(KINK, "1", (), lambda e: (None, -1.0, ABS)),
    "plus": Op(KINK, "1", (), lambda e: (_ZERO, None, MAX)),
    "leaky_relu": Op(KINK, "1", ("alpha",), lambda e: (None, e.alpha, MAX)),
}
ALL_OPS = tuple(OPS)
_ZERO = const(0.0)


def nodes(e: Expr) -> Iterator[Expr]:
    """Every node of the tree, parents first, arguments left to right."""
    todo = [e]
    while todo:
        node = todo.pop()
        yield node
        todo.extend(reversed(node.args))


def validate(e: Expr, n: int, max_layer: int, widths: Sequence[int]) -> None:
    """Check leaf references against dimensions.

    ``max_layer`` is the largest layer index (1-based) the expression may
    reference; ``widths[j-1]`` is the width of layer ``j``.
    """
    sizes = (n, *widths[:max_layer])
    for node in nodes(e):
        block = node.data if node.family == LEAF else None
        if block is not None and block >= len(sizes):
            raise ValueError(f"layer reference {block} not below layer {max_layer + 1}")
        if block is not None and node.ref >= sizes[block]:
            where = f"n={n}" if block == 0 else f"layer {block}"
            raise ValueError(f"reference {node.ref} out of range for {where}")


def ops_used(e: Expr) -> set[str]:
    return {node.op for node in nodes(e)}


def eval_one(e: Expr, th: np.ndarray, ublocks: Sequence[np.ndarray]) -> float:
    """Plain value evaluation; the fast path with no derivative bookkeeping."""
    return _value(e, (th, *ublocks))


def _value(e: Expr, blocks: Sequence[np.ndarray]) -> float:
    family, data = e.family, e.data
    if family == LEAF:
        return e.value if data is None else float(blocks[data][e.ref])
    if family == KINK:
        branch, scale, rule = data
        a = _value(e.args[0], blocks)
        return rule.one(a, scale * a if branch is None else _value(branch, blocks))
    if family == LINEAR:
        weights, acc = data
        for w, a in zip(weights, e.args):
            t = w * _value(a, blocks)
            acc = t if acc is None else acc + t
        return acc
    pairs, acc = data
    for i, j in pairs:
        a = _value(e.args[i], blocks)
        t = a * (a if i == j else _value(e.args[j], blocks))
        acc = t if acc is None else acc + t
    return acc


def eval_many(exprs: Sequence[Expr], th: np.ndarray, ublocks: Sequence[np.ndarray]) -> np.ndarray:
    blocks = (th, *ublocks)
    return np.array([_value(e, blocks) for e in exprs], dtype=float)


def eval_cols(exprs: Sequence[Expr], TH: np.ndarray, UBLOCKS: Sequence[np.ndarray]) -> np.ndarray:
    """Values at the m columns of TH (n, m) and UBLOCKS (N_j, m); shape (len(exprs), m).

    Column c is ``eval_many`` at column c, byte for byte, with no numpy warnings.
    """
    blocks, m = (TH, *UBLOCKS), TH.shape[1]
    with np.errstate(all="ignore"):
        return np.array([_cols(e, blocks, m) for e in exprs]).reshape(len(exprs), m)


def _cols(e: Expr, blocks: Sequence[np.ndarray], m: int) -> np.ndarray:
    family, data = e.family, e.data
    if family == LEAF:
        return np.full(m, e.value) if data is None else blocks[data][e.ref]
    if family == KINK:
        branch, scale, rule = data
        a = _cols(e.args[0], blocks, m)
        return rule.cols(a, scale * a if branch is None else _cols(branch, blocks, m))
    if family == LINEAR:
        weights, acc = data
        acc = None if acc is None else np.full(m, acc)
        for w, a in zip(weights, e.args):
            t = w * _cols(a, blocks, m)
            acc = t if acc is None else acc + t
        return acc
    pairs, acc = data
    for i, j in pairs:
        a = _cols(e.args[i], blocks, m)
        t = a * (a if i == j else _cols(e.args[j], blocks, m))
        acc = t if acc is None else acc + t
    return acc


class Cell(NamedTuple):
    """One-sided Taylor data of a node along a batch of rays.

    ``first`` and ``second`` have shape (m,) for batch width m; ``second``
    is None for first-order evaluations.  ``kinked`` marks columns whose
    subtree hit an active kink; ``bad2`` marks columns whose second-order
    coefficient is outside the supported nesting envelope.
    """

    value: float
    first: np.ndarray
    second: np.ndarray | None
    kinked: np.ndarray
    bad2: np.ndarray | None


def taylor_cells(
    exprs: Sequence[Expr],
    th: np.ndarray,
    ublocks: Sequence[np.ndarray],
    dtheta: np.ndarray,
    dublocks: Sequence[np.ndarray],
    order: int = 1,
    eublocks: Sequence[np.ndarray] | None = None,
    ukinked: Sequence[np.ndarray] | None = None,
    ubad2: Sequence[np.ndarray] | None = None,
) -> list[Cell]:
    """Propagate one-sided Taylor data through each expression.

    ``dtheta`` has shape (n, m) and each entry of ``dublocks`` shape
    (N_j, m); the optional ``eublocks`` carry the layer inputs' second-order
    curve coefficients (defaulting to zero, as they always are for theta).
    ``ukinked``/``ubad2`` mark layer-input components whose feeding curves
    are themselves kinked or second-order unsupported, so the taint survives
    chaining across layers.
    """
    if order not in (1, 2):
        raise ValueError("order must be 1 or 2")
    m = dtheta.shape[1] if dtheta.ndim == 2 else 1
    dtheta = np.asarray(dtheta, dtype=float).reshape(len(th), m)
    want2 = order == 2

    zeros = np.zeros(m)
    false = np.zeros(m, dtype=bool)
    zeros2, false2 = (zeros, false) if want2 else (None, None)

    def combine_max(a: Cell, b: Cell) -> Cell:
        gap = a.value - b.value
        if gap > TIE_TOL:
            return a
        if gap < -TIE_TOL:
            return b
        # Active value tie: branch selection moves to first order.
        first = np.maximum(a.first, b.first)
        fgap = a.first - b.first
        kink_here = np.abs(fgap) > TIE_TOL
        kinked = a.kinked | b.kinked | kink_here
        second = None
        bad2 = None
        if want2:
            second = np.where(
                fgap > TIE_TOL,
                a.second,
                np.where(fgap < -TIE_TOL, b.second, np.maximum(a.second, b.second)),
            )
            sgap = a.second - b.second
            kinked = kinked | ((~kink_here) & (np.abs(sgap) > TIE_TOL))
            # Tie with a kinked argument is outside the supported envelope.
            bad2 = a.bad2 | b.bad2 | a.kinked | b.kinked
        return Cell(max(a.value, b.value), first, second, kinked, bad2)

    def cell(e: Expr) -> Cell:
        family, data = e.family, e.data
        if family == LEAF:
            if data is None:
                return Cell(e.value, zeros, zeros2, false, false2)
            if data == 0:  # theta carries no second-order data or taint
                return Cell(float(th[e.ref]), dtheta[e.ref], zeros2, false, false2)
            j, i = data - 1, e.ref
            return Cell(
                float(ublocks[j][i]),
                dublocks[j][i],
                eublocks[j][i] if (want2 and eublocks is not None) else zeros2,
                ukinked[j][i] if ukinked is not None else false,
                ubad2[j][i] if (want2 and ubad2 is not None) else false2,
            )
        if family == KINK:
            branch, scale, _ = data
            a = cell(e.args[0])
            if branch is not None:
                return combine_max(a, cell(branch))
            s2 = scale * a.second if want2 else None
            return combine_max(a, Cell(scale * a.value, scale * a.first, s2, a.kinked, a.bad2))
        cs = [cell(a) for a in e.args]
        if not cs:  # an affine node without arguments is its offset
            return Cell(data[1], zeros, zeros2, false, false2)
        kinked = reduce(operator.or_, [c.kinked for c in cs])
        bad2 = [c.bad2 for c in cs]
        if family == LINEAR:
            weights, offset = data
            val = first = second = None if offset is None else 0.0
            for w, c in zip(weights, cs):
                v, f, s2 = c.value, c.first, c.second
                if w != 1.0:
                    v, f, s2 = w * v, w * f, w * s2 if want2 else None
                val = v if val is None else val + v
                first = f if first is None else first + f
                if want2:
                    second = s2 if second is None else second + s2
            if offset is not None:
                val = offset + val
        else:
            pairs, val = data
            first = second = val
            for i, j in pairs:
                a, b = cs[i], cs[j]
                v = a.value * b.value
                val = v if val is None else val + v
                if i == j:
                    f = 2.0 * a.value * a.first
                    first = f if first is None else first + f
                else:
                    f = a.first * b.value
                    first = (f if first is None else first + f) + a.value * b.first
                if not want2:
                    continue
                if i == j:
                    s2 = 2.0 * a.first * a.first
                    second = (s2 if second is None else second + s2) + 2.0 * a.value * a.second
                else:
                    s2 = a.second * b.value
                    second = s2 if second is None else second + s2
                    second = second + 2.0 * a.first * b.first + a.value * b.second
                bad2.append(a.kinked & b.kinked)
        return Cell(val, first, second, kinked, reduce(operator.or_, bad2) if want2 else None)

    return [cell(e) for e in exprs]
