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

Every walker reads the table and branches on the family only.  The piece
enumerator ``pieces.expr_pieces`` recurses, one node at a time.  ``walk``
hash-conses trees into a ``Graph``; ``place`` makes it a ``Tape``, a row per
distinct node, computed by steps that each take the nodes of one level and
family with a fixed set of numpy calls over every column.  ``Tape.values``
(``eval_many`` at one point) is the one value walker; ``Tape.cells``
(behind ``taylor_cells``) gives Taylor data along a batch of rays.  A
problem walks its maps and outer function once, each ``u`` leaf a link to
the map that defines it, and places four tapes from that graph (see
``model.CompositeProblem``): the chained one for the nested objective, the
penalized one for Theta, the outer one for F and the fixed one for the
residuals; the level-set sampler runs the chained one with each link
shifted (``Tape.shifted``).  Every walker adds a sum's offset to its first
term and takes a kink's value as ``MAX`` of its branches (``abs`` of -0.0 is
-0.0); whether a sum starts at zero or at its first term is table data.  So
each op keeps its rounding and sign of zero column by column, a tape's rows
are the bytes a node-at-a-time walk gives (the tests keep such walks as
oracles), and a Taylor pass's values are a value pass's bytes.  Every walker
squares with ``x*x``, so a square has one value in all of them, and a value
past the float range is inf, never an exception.  Trees are built from
immutable nodes, so cycles are impossible and sharing subtrees is safe;
``nodes`` walks a tree without recursion, a shared node once.

Every node supports exact one-sided Taylor data along a ray: the inputs
move along ``x_i + tau*d_i``, each node's argument along a curve
``v + tau*f + (tau^2/2)*s + o(tau^2)``, and the tape steps produce the
value, the first-order coefficient and (on request) the second-order
coefficient of the node output.  At an active kink the rules
follow the winning branch, with first-order comparison breaking value ties
and a max of second-order coefficients breaking double ties.

Second-order results are flagged unsupported for nestings outside the
documented envelope: a max-family node at an active tie whose argument is
itself kinked along the ray, or a product whose two factors are both kinked
(including squares of a kinked argument).  First-order results are always
defined.  A first-order pass builds kinked flags only for a caller that
reads them (``dcalc``'s ``smooth`` and ``dd_F_batch``); a second-order pass
always does, since the unsupported flags come from them.
"""

from __future__ import annotations

import copy
import itertools
import operator
import struct
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Iterator, NamedTuple, Sequence

import numpy as np

# Gap below which a branch tie counts as active.
TIE_TOL = 1e-12


@dataclass(frozen=True, slots=True, eq=False, repr=False)
class Expr:
    """One node of an expression tree.

    ``op`` names the op; its ``OPS`` entry gives the family rule the walkers
    apply, the arity and the payload fields (``value`` for constants,
    ``ref``/``layer`` for leaves, ``alpha`` for leaky relu, ``coeffs``/``const``
    for weighted sums); the fields an op does not list mean nothing.
    Construction converts and checks the payload and checks the arity,
    raising ``ValueError`` that names the op and the field, then sets
    ``family`` and ``data``, the op's family and the node's family data.
    Nodes compare and hash by identity, and ``repr`` shows one node, so
    none of them walks a tree, however deep (``walk`` keys nodes by
    structure where that matters).
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

    def __repr__(self) -> str:
        payload = "".join(f", {name}={getattr(self, name)!r}" for name in OPS[self.op].fields)
        return f"Expr({self.op!r}{payload}, nargs={len(self.args)})"


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


# A kink's value, column by column.  np.where(b > a, b, a) is Python's
# max(a, b), NaN and signed zero included; np.maximum is not.
MAX = lambda a, b: np.where(b > a, b, a)  # noqa: E731


# The data of each family:
#   leaf     the block read (0 for theta, j for u_j), None for a constant;
#   linear   (weights, offset); offset None sums from the first term;
#   product  (index pairs, start); start None sums from the first pair;
#   kink     (second-branch node, scale); a None node makes the second
#            branch scale * first argument.
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
    "max": Op(KINK, "2", (), lambda e: (e.args[1], None)),
    "abs": Op(KINK, "1", (), lambda e: (None, -1.0)),
    "plus": Op(KINK, "1", (), lambda e: (_ZERO, None)),
    "leaky_relu": Op(KINK, "1", ("alpha",), lambda e: (None, e.alpha)),
}
ALL_OPS = tuple(OPS)
_ZERO = const(0.0)


def nodes(e: Expr) -> Iterator[Expr]:
    """Every distinct node object of the tree once, parents first, arguments left to right."""
    todo, seen = [e], set()
    while todo:
        node = todo.pop()
        if id(node) not in seen:
            seen.add(id(node))
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


def eval_many(tape: Tape, th: np.ndarray, ublocks: Sequence[np.ndarray]) -> np.ndarray:
    """The values of ``tape``'s roots at one point: one width-1 ``Tape.values`` pass."""
    return tape.values(th[:, None], [b[:, None] for b in ublocks])[:, 0]


class Cell(NamedTuple):
    """One-sided Taylor data of a node along a batch of rays.

    ``first`` and ``second`` have shape (m,) for batch width m; ``second``
    is None for first-order evaluations.  ``kinked`` marks columns whose
    subtree hit an active kink (None if a first-order pass built no flags);
    ``bad2`` marks columns whose second-order coefficient is outside the
    supported nesting envelope.
    """

    value: float
    first: np.ndarray
    second: np.ndarray | None
    kinked: np.ndarray | None
    bad2: np.ndarray | None


class Cells(NamedTuple):
    """The ``Cell`` of each root of a tape, stacked: ``value`` (R,), the rest (R, m) or None."""

    value: np.ndarray
    first: np.ndarray
    second: np.ndarray | None
    kinked: np.ndarray | None
    bad2: np.ndarray | None

    def cell(self, i: int) -> Cell:
        second = None if self.second is None else self.second[i]
        kinked = None if self.kinked is None else self.kinked[i]
        bad2 = None if self.bad2 is None else self.bad2[i]
        return Cell(float(self.value[i]), self.first[i], second, kinked, bad2)


def taylor_cells(
    exprs: Sequence[Expr],
    th: np.ndarray,
    ublocks: Sequence[np.ndarray],
    dtheta: np.ndarray,
    dublocks: Sequence[np.ndarray],
    order: int = 1,
) -> list[Cell]:
    """Propagate one-sided Taylor data through each expression.

    ``dtheta`` has shape (n, m) and each entry of ``dublocks`` shape
    (N_j, m): every input moves along the line x + tau*d, so its second
    coefficient is zero.  Runs a tape compiled for ``exprs``.
    """
    m = dtheta.shape[1] if dtheta.ndim == 2 else 1
    dtheta = np.asarray(dtheta, dtype=float).reshape(len(th), m)
    tape = compile_tape(exprs, (len(th), *(len(b) for b in ublocks)))
    cells = tape.cells(th, ublocks, dtheta, dublocks, order, kinks=True)
    return [cells.cell(i) for i in range(len(exprs))]


# ---------------------------------------------------------------------------
# Tapes
#
# A tape holds one row per distinct node of its trees: first the components
# of the input blocks it reads, then the constants, then the other nodes in
# steps.  A step takes the nodes of one level and family (and, for products,
# one pair pattern), with numpy calls over all of them and all columns; in
# Taylor mode a row holds the value, the first coefficients and the second,
# and the kinked and bad2 flags sit in a row of their own array, which a
# first-order pass may go without: then no step does flag work.  A node's
# sum adds its terms one at a time from the left, as a Python loop does, so
# every row rounds as a node-at-a-time walk rounds it (the tests keep such
# a walk as the oracle); a weighted sum's value adds its offset to its first
# term.  A step orders its nodes by their number of terms, most first, and
# the j-th terms go to the nodes that have them, a prefix.  Two facts of
# IEEE addition carry the starts of sums: -0.0 + x is x, and a sum that
# starts at 0.0 equals 0.0 + the same sum started at its first term.  A
# start or offset that the rules skip is therefore -0.0, and a start of 0.0
# is added last.  Multiplying by 1.0 changes no bits, so a unit weight or
# scale is multiplied like any other.  Argument arrays are padded with row
# 0, a theta component, whose flags are always false.


def _sum(t: np.ndarray, cuts: Sequence[tuple[int, int]]) -> np.ndarray:
    """Per node, the sum of its terms t[node, 0], t[node, 1], ... from the left.

    ``cuts`` lists (j, c) for the terms j >= 1 that the first c nodes have.
    """
    acc = t[:, 0]
    for j, c in cuts:
        acc[:c] += t[:c, j]
    return acc


class _Linear:
    """Weighted sums from the left, the value's first term plus the offset.

    ``offset`` is -0.0 for ops without one, and ``start`` is 0.0 for ops
    with one (their coefficient sums start at zero), -0.0 otherwise.
    """

    def __init__(self, rows: slice, args: np.ndarray, weights: np.ndarray, offset, start, cuts):
        self.rows, self.args, self.cuts = rows, args, cuts
        self.w3 = weights[:, :, None]
        self.offset, self.offset2 = offset, offset[:, None]
        self.start2 = start[:, None]

    def taylor(self, Q, KB, m: int) -> None:
        # value, first and second share the terms' weights and order
        t = self.w3 * Q[self.args]
        t[:, 0, 0] = self.offset + t[:, 0, 0]
        acc = _sum(t, self.cuts)
        np.add(self.start2, acc[:, 1:], out=acc[:, 1:])
        Q[self.rows] = acc
        if KB is not None:
            np.logical_or.reduce(KB[self.args], axis=1, out=KB[self.rows])

    def values(self, X) -> None:
        t = X[self.args]
        np.multiply(self.w3, t, out=t)
        t[:, 0] = self.offset2 + t[:, 0]
        X[self.rows] = _sum(t, self.cuts)


class _Product:
    """Sums of products of argument pairs: self-pairs when ``b`` is None, else pairs (a, b).

    ``start`` is 0.0 for ops whose sum starts at zero, -0.0 otherwise.
    """

    def __init__(self, rows: slice, a: np.ndarray, b: np.ndarray | None, start: np.ndarray, cuts):
        self.rows, self.a, self.b, self.cuts = rows, a, b, cuts
        self.start2 = start[:, None]

    def taylor(self, Q, KB, m: int) -> None:
        # A pair adds these terms, left to right, to the value, first and second sums:
        #   self-pairs      va*va;  (2va)*fa;  (2fa)*fa, (2va)*sa
        #   distinct pairs  va*vb;  fa*vb, va*fb;  sa*vb, (2fa)*fb, va*sb
        a, b, r = self.a, self.b, self.rows
        f, s = slice(1, m + 1), slice(m + 1, None)
        QA = Q[a]
        order2 = QA.shape[2] > m + 1
        if b is None:
            T = (2.0 * QA[:, :, :1]) * QA  # its value column becomes va*va
            T[:, :, 0] = QA[:, :, 0] * QA[:, :, 0]
            S = (2.0 * QA[:, :, f]) * QA[:, :, f] if order2 else None
            acc = T[:, 0]
            if order2:
                acc[:, s] = S[:, 0] + acc[:, s]
            for j, c in self.cuts:
                acc[:c, : m + 1] += T[:c, j, : m + 1]
                if order2:
                    acc[:c, s] += S[:c, j]
                    acc[:c, s] += T[:c, j, s]
        else:
            QB = Q[b]
            T, U = QA * QB[:, :, :1], QA[:, :, :1] * QB
            S = (2.0 * QA[:, :, f]) * QB[:, :, f] if order2 else None
            acc = T[:, 0]
            for j, c in [(0, len(acc)), *self.cuts]:
                if j:
                    acc[:c] += T[:c, j]
                acc[:c, f] += U[:c, j, f]
                if order2:
                    acc[:c, s] += S[:c, j]
                    acc[:c, s] += U[:c, j, s]
        Q[r] = self.start2 + acc
        if KB is not None:
            KA, KBb = KB[a], KB[a if b is None else b]
            K = KA | KBb
            if order2:
                K[:, :, m:] |= KA[:, :, :m] & KBb[:, :, :m]
            np.logical_or.reduce(K, axis=1, out=KB[r])

    def values(self, X) -> None:
        xa = X[self.a]
        xb = xa if self.b is None else X[self.b]
        np.multiply(xa, xb, out=xa)
        X[self.rows] = self.start2 + _sum(xa, self.cuts)


class _Kink:
    """The max of argument ``a`` and the second branch ``scale`` * node ``b``.

    b is the second argument (``max``, scale 1.0), the constant 0 (``plus``)
    or a itself (``abs``, ``leaky_relu``).  Taylor data follow the branch
    whose value is larger by more than ``TIE_TOL``.  At a tie the first
    coefficient is the larger one, and the second follows the larger slope,
    or is the larger one at a double tie.  The value is ``MAX`` of the two
    branches in both modes, so ``abs`` of -0.0 is -0.0.
    """

    def __init__(self, rows: slice, a: np.ndarray, b: np.ndarray, scale: np.ndarray):
        self.rows, self.a, self.b = rows, a, b
        self.scale, self.scale2 = scale, scale[:, None]

    def taylor(self, Q, KB, m: int) -> None:
        a, b, rows, scale = self.a, self.b, self.rows, self.scale2
        gap = Q[a, 0] - self.scale * Q[b, 0]
        ties = np.flatnonzero(~(np.abs(gap) > TIE_TOL))
        if len(ties) < len(gap):
            # off a tie the node is its winning branch: value, coefficients and flags
            take_a = gap > TIE_TOL
            won = np.where(take_a, a, b)
            Q[rows] = np.where(take_a, 1.0, self.scale)[:, None] * Q[won]
            if KB is not None:
                KB[rows] = KB[won]
            if not len(ties):
                return
            rows, a, b, scale = ties + rows.start, a[ties], b[ties], scale[ties]
        QA, QB = Q[a], scale * Q[b]
        out = np.maximum(QA, QB)
        out[:, 0] = MAX(QA[:, 0], QB[:, 0])
        fgap = QA[:, 1 : m + 1] - QB[:, 1 : m + 1]
        order2 = Q.shape[1] > m + 1
        if order2:
            sa, sb = QA[:, m + 1 :], QB[:, m + 1 :]
            out[:, m + 1 :] = np.where(fgap > TIE_TOL, sa, np.where(fgap < -TIE_TOL, sb, out[:, m + 1 :]))
        Q[rows] = out
        if KB is not None:
            here = np.abs(fgap) > TIE_TOL
            K = KB[a] | KB[b]
            if order2:
                # A tie with a kinked argument is outside the supported envelope.
                K[:, m:] |= K[:, :m]
                K[:, :m] |= ~here & (np.abs(sa - sb) > TIE_TOL)
            K[:, :m] |= here
            KB[rows] = K

    def values(self, X) -> None:
        X[self.rows] = MAX(X[self.a], self.scale2 * X[self.b])


class _Shift:
    """Row ``rows[i]`` = row ``base[i]`` + row ``rho[i]``, values only: -0.0 + psi + rho, as -0.0 + x is x."""

    def __init__(self, rows: np.ndarray, base: np.ndarray, rho: np.ndarray):
        self.rows, self.base, self.rho = rows, base, rho

    def values(self, X) -> None:
        X[self.rows] = X[self.base] + X[self.rho]


class Tape:
    """A program placed by ``place``; ``cells`` gives its roots' Taylor data, ``values`` their values.

    Both run under ``np.errstate(all="ignore")``: a value past the float
    range is inf or NaN, and nothing warns.  Taylor data live in one row per
    node: the value, the m first coefficients and at order 2 the m second
    ones, with the kinked and bad2 flags beside them.  The inputs fill the
    first rows, the constants start at row ``base``.  ``graph`` is the graph
    placed and ``nodes`` the tape's node ids; a chained tape's ``links`` lists
    (step, array, position, link) of each argument that reads a link.
    """

    def __init__(
        self, sizes: tuple[int, ...], base: int, consts: list[float], steps: list, roots, nrows: int, graph, nodes, links
    ):
        self.sizes, self.steps, self.nrows, self.graph, self.nodes = sizes, steps, nrows, graph, nodes
        self.nin, self.base, self.links = sum(sizes), base, links
        self.consts = np.array(consts, dtype=float)
        self.nfixed = base + len(consts)
        self.roots = np.array(roots, dtype=np.intp)

    def cells(
        self,
        th: np.ndarray,
        ublocks: Sequence[np.ndarray],
        dtheta: np.ndarray,
        dublocks: Sequence[np.ndarray],
        order: int = 1,
        *,
        kinks: bool = False,
    ) -> Cells:
        """The roots' Taylor data as for ``taylor_cells``, dtheta (n, m); at order 1 kinked is None unless ``kinks``."""
        if order not in (1, 2):
            raise ValueError("order must be 1 or 2")
        r, nb, nin, base, nfixed = self.roots, len(self.sizes) - 1, self.nin, self.base, self.nfixed
        m = dtheta.shape[1]
        Q = np.empty((self.nrows, 1 + order * m))
        np.concatenate([th, *ublocks[:nb]], out=Q[:nin, 0])
        np.concatenate([dtheta, *dublocks[:nb]], out=Q[:nin, 1 : m + 1])
        Q[:nin, m + 1 :] = 0.0
        Q[base:nfixed, 0] = self.consts
        Q[base:nfixed, 1:] = 0.0
        KB = np.zeros((self.nrows, order * m), dtype=bool) if kinks or order == 2 else None
        with np.errstate(all="ignore"):
            for step in self.steps:
                step.taylor(Q, KB, m)
        if order == 1:
            return Cells(Q[r, 0], Q[r, 1:], None, None if KB is None else KB[r], None)
        return Cells(Q[r, 0], Q[r, 1 : m + 1], Q[r, m + 1 :], KB[r, :m], KB[r, m:])

    def values(self, TH: np.ndarray, UBLOCKS: Sequence[np.ndarray]) -> np.ndarray:
        """The roots' values at the m columns of TH (n, m) and UBLOCKS (N_j, m); shape (R, m)."""
        nb = len(self.sizes) - 1
        X = np.empty((self.nrows, TH.shape[1]))
        np.concatenate([TH, *UBLOCKS[:nb]], out=X[: self.nin])
        X[self.base : self.nfixed] = self.consts[:, None]
        with np.errstate(all="ignore"):
            for step in self.steps:
                step.values(X)
        return X[self.roots]

    def shifted(self) -> Tape:
        """A chained tape's level mode: a tape whose ``values(TH, [RHO])`` shift each link by RHO (R, m).

        Link r (a ``u`` leaf, standing for root r) reads a row of its own,
        root r's value plus row r of RHO, made before its first reader; a
        copy of root r's tree reads the unshifted row, and a root that is a
        link adds to that link's shift.  RHO fills the rows chained passes
        leave to the blocks.  The roots are the R linked roots, their shifts,
        then the rest.  The steps that read links are copied with those
        arguments remapped; nothing is kept.
        """
        graph, nrows, steps, head = self.graph, self.nrows, list(self.steps), self.graph.sizes[0]
        R = graph.nin - head
        out = [nrows + i - head if head <= i < graph.nin else r for i, r in zip(graph.roots, self.roots.tolist())]
        need, depth, sites = [len(steps)] * R, [0] * R, {}
        for s, k, p, r in self.links.tolist():
            need[r] = min(need[r], s)
            sites.setdefault((s, k), ([], []))[0].append(p)
            sites[s, k][1].append(nrows + r)
        for (s, k), (pos, rows) in sites.items():
            steps[s], args = copy.copy(steps[s]), getattr(steps[s], ARRAYS[k]).copy()
            args.flat[pos] = rows
            setattr(steps[s], ARRAYS[k], args)
        onto = [r for r in range(R) if out[r] >= nrows]  # a root that is a link waits for that link's shift
        for r in onto:
            depth[r] = depth[out[r] - nrows] + 1
        for r in reversed(onto):
            need[out[r] - nrows] = min(need[out[r] - nrows], need[r])
        groups: dict[tuple, list] = {}
        for r in range(R):
            groups.setdefault((need[r], depth[r]), []).append(r)
        program, s, adds = [], 0, np.array(out[:R])
        for (at, _), group in sorted(groups.items()):
            group = np.array(group)
            program += [*steps[s:at], _Shift(nrows + group, adds[group], head + group)]
            s = at
        roots = [*out[:R], *range(nrows, nrows + R), *out[R:]]
        return Tape((head, R), self.base, self.consts, program + steps[s:], roots, nrows + R, graph, None, None)


def _bits(*xs: float) -> bytes:
    """The exact bits of floats, so -0.0 and 0.0 (or two NaNs) stay apart in a key."""
    return struct.pack(f"{len(xs)}d", *xs)


class Graph:
    """The distinct nodes of some trees, hash-consed by ``walk``, each after the ids it reads.

    Id i < ``nin`` is an input, component i - offsets[j] of block j; id
    ``nin + k`` is ``made[k]``, a constant's value or (node, argument ids).
    In a chained graph, the input id ``sizes[0] + r`` of a ``u`` leaf is a
    link: it stands for root r, the node that defines that component.
    """

    def __init__(self, sizes: tuple[int, ...], made: list, roots: list[int]):
        self.sizes, self.made, self.roots, self.nin = sizes, made, roots, sum(sizes)

    @cached_property
    def follow(self) -> list[int]:
        """Per id of a chained graph, the id it reads: a link's is the one it stands for, links followed."""
        src, head = list(range(self.nin + len(self.made))), self.sizes[0]
        for i in range(head, self.nin):
            src[i] = src[self.roots[i - head]]
        return src

    def reach(self, roots: Sequence[int], src: Sequence[int]) -> bytearray:
        """Per id, 1 where ``roots`` reach it, each argument read through ``src`` (``follow``, or every id itself)."""
        need = bytearray(len(src))
        for r in roots:
            need[r] = 1
        for i in range(max(roots), self.nin - 1, -1):  # each argument, a link followed, comes before its user
            if need[i] and type(self.made[i - self.nin]) is tuple:
                for a in self.made[i - self.nin][1]:
                    need[src[a]] = 1
        return need


def walk(roots: Sequence[Expr], sizes: Sequence[int], chain: bool = False) -> Graph:
    """The trees ``roots`` over input blocks of ``sizes`` (theta's first), hash-consed in one walk.

    Equal subtrees share one id.  With ``chain``, the roots start with one
    node per component of the blocks after the first, and a ``u`` leaf is a
    link to the root of its component, which the walk makes before the
    leaf's first user.  Roots are taken last first, each with the nodes it
    reaches that are not made yet, so the last root's nodes (links
    followed) are the prefix of ``made`` through its id.
    """
    offsets = [0, *itertools.accumulate(sizes)]
    nin, head = offsets[-1], sizes[0]
    made: list = []
    seen: dict[int, int] = {}  # id(node) -> id
    keyed: dict[tuple, int] = {}  # structural key -> id

    def new(key: tuple, entry) -> int:
        i = keyed.get(key)
        if i is None:
            i = keyed[key] = nin + len(made)
            made.append(entry)
        return i

    def leaf(e: Expr) -> int:
        """The id of a constant or an input leaf."""
        if e.data is None:
            return new(("const", _bits(e.value)), e.value)
        block = e.data
        if block + 1 >= len(offsets) or e.ref >= offsets[block + 1] - offsets[block]:
            raise ValueError(f"leaf {e.op} of block {block} reads reference {e.ref} past sizes {tuple(sizes)}")
        return offsets[block] + e.ref

    todo = list(roots)
    while todo:
        e = todo[-1]
        if id(e) in seen:
            todo.pop()
            continue
        family, data = e.family, e.data
        if family == LEAF:
            i = leaf(e)
            if chain and data and id(roots[i - head]) not in seen:  # a link waits for its root
                todo.append(roots[i - head])
                continue
            todo.pop()
            seen[id(e)] = i
            continue
        args = e.args if family != KINK else e.args[:1] if data[0] is None else (e.args[0], data[0])
        ids, missing = [], []
        for a in args:
            i = seen.get(id(a))
            if i is None and a.family == LEAF and not (chain and a.data):
                i = seen[id(a)] = leaf(a)  # leaves other than links need no visit of their own
            if i is None:
                missing.append(a)
            else:
                ids.append(i)
        if missing:
            todo.extend(missing)
            continue
        todo.pop()
        if ids:
            ids = tuple(ids)
            i = new((e.op, _bits(*e.coeffs, e.alpha, e.const), ids), (e, ids))
        else:  # an affine node without arguments is its offset
            i = new(("const", _bits(data[1])), data[1])
        seen[id(e)] = i
    return Graph(tuple(sizes), made, [seen[id(e)] for e in roots])


def compile_tape(roots: Sequence[Expr], sizes: Sequence[int]) -> Tape:
    """The trees ``roots`` over input blocks of ``sizes`` (theta's first), walked and placed as one ``Tape``."""
    graph = walk(roots, sizes)
    return place(graph, graph.roots)


def place(graph: Graph, roots: Sequence[int], chained: bool = False) -> Tape:
    """The program of ``graph``'s ids ``roots``: rows for the inputs it reads, the constants, then steps.

    Its nodes are those the roots reach, in ``made``'s order.  In a chained
    program each link reads the row of the node it stands for, and the rows
    of the linked blocks stay free (for ``Tape.shifted``); otherwise a link
    reads its block.
    """
    made, nin, head = graph.made, graph.nin, graph.sizes[0]
    src = graph.follow if chained else range(nin + len(made))
    roots = [src[r] for r in roots]
    need = graph.reach(roots, src)
    nodes = [i for i in range(nin, max(roots) + 1) if need[i]]
    top = max([i for i in range(nin) if need[i]], default=0)
    sizes = graph.sizes[: 1 + sum(top >= end for end in itertools.accumulate(graph.sizes))]
    base, row = nin if chained else sum(sizes), [*src[:nin], *[0] * len(made)]
    kids, consts = [], []  # the nodes with the ids their arguments read; the constants
    for i in nodes:
        entry = made[i - nin]
        if type(entry) is tuple:
            kids.append((i, entry[0], entry[1] if not chained else [src[a] for a in entry[1]]))
        else:
            row[i] = base + len(consts)
            consts.append(entry)
    steps: dict[tuple, list] = {}
    for (i, _, _), key in zip(kids, _place(kids, len(src))):
        steps.setdefault(key, []).append(i)
    keys, lo = sorted(steps, key=lambda key: key[0]), base + len(consts)
    for key in keys:
        if key[1] != KINK:
            steps[key].sort(key=lambda i: -_terms(made[i - nin]))
        for i in steps[key]:
            row[i], lo = lo, lo + 1
    row[head:nin] = [row[a] for a in src[head:nin]]  # links
    links: list[tuple] = []
    row = np.array(row)

    def at(k: int, ids: list) -> np.ndarray:
        """The rows of ids (a list, or a padded list of lists) of argument array ``ARRAYS[k]`` of step s."""
        if chained:
            flat = ids if type(ids[0]) is int else [a for r in ids for a in r]
            links.extend((s, k, p, a - head) for p, a in enumerate(flat) if head <= a < nin)
        return row[ids]

    out, lo = [], base + len(consts)
    for s, key in enumerate(keys):
        out.append(_step(slice(lo, lo + len(steps[key])), [made[i - nin] for i in steps[key]], at))
        lo += len(steps[key])
    links = np.array(links, dtype=np.intp).reshape(-1, 4) if chained else None
    return Tape(sizes, base, consts, out, row[roots], lo, graph, np.array(nodes), links)


def _place(kids: list[tuple], total: int) -> list[tuple]:
    """The step (level, kind) of each node of ``kids``, (id, node, ids its arguments read) in order.

    A node's level is one more than its deepest argument's (0 for inputs
    and constants).  It joins a step of its kind as early as its arguments
    allow, or else goes as late as its users allow; that leaves fewer steps
    than placing every node as early as it can go.
    """
    level = [0] * total
    for i, _, ids in kids:
        level[i] = 1 + max([level[a] for a in ids])
    late = [max(level)] * total
    for i, _, ids in reversed(kids):  # users come after their arguments
        up = late[i] - 1
        for a in ids:
            if late[a] > up:
                late[a] = up
    place, taken, keys = [0] * total, set(), {}
    for _, k in sorted(zip([late[i] for i, _, _ in kids], itertools.count())):
        i, e, ids = kids[k]
        kind = _kind(e)
        lev = 1 + max([place[a] for a in ids])
        while lev < late[i] and (lev, kind) not in taken:
            lev += 1
        place[i] = lev
        taken.add((lev, kind))
        keys[i] = (lev, *kind)
    return [keys[i] for i, _, _ in kids]


def _kind(e: Expr) -> tuple:
    """What the nodes of one step share besides their level: the family, and a product's pair pattern."""
    if e.family == PRODUCT:
        i, j = e.data[0][0]
        return PRODUCT, i == j
    return (e.family,)


def _terms(entry) -> int:
    """How many items a node's sums run over: arguments of a weighted sum, pairs of a product."""
    e, ids = entry
    return len(e.data[0]) if e.family == PRODUCT else len(ids)


def _padded(rows: list[list], fill) -> list[list]:
    k = max(map(len, rows))
    return [r + [fill] * (k - len(r)) for r in rows]


ARRAYS = ("a", "b", "args")  # the argument arrays of the steps, by their index in ``Tape.links``


def _step(rows: slice, entries: list, at: Callable[[int, list], np.ndarray]):
    """The step that computes ``entries``, (node, argument ids) of one kind, into ``rows``.

    ``at(k, ids)`` gives the rows of argument array ``ARRAYS[k]``; padding reads id 0.
    """
    nodes = [e for e, _ in entries]
    args = [list(ids) for _, ids in entries]
    family = nodes[0].family
    if family == KINK:
        scale = [1.0 if e.data[0] is not None else e.data[1] for e in nodes]
        b = [r[1] if e.data[0] is not None else r[0] for r, e in zip(args, nodes)]
        return _Kink(rows, at(0, [r[0] for r in args]), at(1, b), np.array(scale))
    counts = [_terms(entry) for entry in entries]  # most first
    cuts = [(j, sum(k > j for k in counts)) for j in range(1, counts[0])]
    if family == LINEAR:
        offsets, weights = [e.data[1] for e in nodes], np.array(_padded([list(e.data[0]) for e in nodes], 0.0))
        offset = np.array([-0.0 if c is None else c for c in offsets])
        start = np.array([-0.0 if c is None else 0.0 for c in offsets])
        return _Linear(rows, at(2, _padded(args, 0)), weights, offset, start, cuts)
    pairs = [e.data[0] for e in nodes]
    a = at(0, _padded([[r[i] for i, _ in p] for r, p in zip(args, pairs)], 0))
    start = np.array([-0.0 if e.data[1] is None else 0.0 for e in nodes])
    if pairs[0][0][0] == pairs[0][0][1]:
        return _Product(rows, a, None, start, cuts)
    return _Product(rows, a, at(1, _padded([[r[j] for _, j in p] for r, p in zip(args, pairs)], 0)), start, cuts)
