"""JSON round-trip for problems, points, and directions.

The on-disk schema is versioned per file kind and deliberately literal: a
problem is its node graph, each distinct node once and after the ids it reads,
so a loaded problem evaluates identically to the saved one, at any depth.
Dumps are deterministic (sorted keys, fixed separators), which makes
byte-level comparison of reports meaningful.
"""

from __future__ import annotations

import dataclasses
import json
import operator
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable, Iterator

import numpy as np

from . import expr as ex
from .dcalc import Direction
from .model import CompositeProblem, LayerMap, Point

SCHEMA_VERSION = 1  # of point and direction files and of report manifests
VERSIONS = {"problem": 2, "point": SCHEMA_VERSION, "direction": SCHEMA_VERSION}  # per file kind


class FormatError(ValueError):
    """Malformed or mistyped input file."""


def problem_to_dict(p: CompositeProblem) -> dict:
    """``p``'s graph (``CompositeProblem.graph``) as a node table, each root and argument an id."""
    nodes = []
    for entry in p.graph.made:  # (node, ids), or a constant: an affine node without arguments is its offset
        e, ids = entry if type(entry) is tuple else (ex.const(entry), ())
        d = {"op": e.op, **{name: getattr(e, name) for name in ex.OPS[e.op].fields}}
        # a kink's ids may go on past its arguments with an implicit second branch, such as plus's zero
        nodes.append({**d, "args": list(ids[: len(e.args)])} if ids else d)
    return {
        "schema_version": VERSIONS["problem"],
        "kind": "problem",
        "n": p.n,
        "lam": p.lam,
        "nodes": nodes,
        "layers": [{"index": lm.index, "exprs": p.graph.roots[rows]} for lm, rows in zip(p.layers, p.layer_rows)],
        "outer": p.graph.roots[-1],
        "meta": p.meta or {},
    }


@contextmanager
def _reading(d: dict, kind: str) -> Iterator[None]:
    """Check a ``kind`` file's header; make a missing field or a mistyped value a FormatError."""
    if not isinstance(d, dict):
        raise FormatError(f"expected a JSON object describing a {kind}")
    if d.get("kind") != kind:
        raise FormatError(f"expected kind {kind!r}, found {d.get('kind')!r}")
    version = d.get("schema_version")
    if not (isinstance(version, int) and version == VERSIONS[kind]):
        raise FormatError(f"unsupported schema_version {version!r} (this build reads {VERSIONS[kind]})")
    try:
        yield
    except KeyError as err:
        raise FormatError(f"{kind} file missing field {err}") from err
    except (TypeError, ValueError) as err:
        raise FormatError(str(err)) from err


def _list(d: dict, key: str, where: str = "") -> list:
    v = d[key]
    if not isinstance(v, list):
        raise FormatError(f"{where}{key}: expected a list, got {v!r}")
    return v


def _int(d: dict, key: str, where: str = "") -> int:
    """``d[key]`` as an integer; a float is refused, not truncated."""
    try:
        return operator.index(d[key])
    except TypeError:
        raise FormatError(f"{where}{key}: expected an integer, got {d[key]!r}") from None


# The keys ``rnn build`` stores in an rnn problem's meta, each with its check
# of (value, layer count) and the rule checked; the closed-form moduli read
# the first three.
RNN_META: dict[str, tuple[Callable[[Any, int], bool], str]] = {
    "nt": (lambda v, L: isinstance(v, int) and v >= 1, "a positive integer"),
    "y_sqnorm": (lambda v, L: isinstance(v, (int, float)) and v >= 0.0, "a number >= 0"),
    "layer_kinds": (
        lambda v, L: isinstance(v, list) and len(v) == L and all(k in ("mix", "act") for k in v),
        "a list of 'mix' or 'act', one per layer",
    ),
    "rnn": (lambda v, L: isinstance(v, dict), "an object"),
}


def _meta(d: dict, n_layers: int) -> dict | None:
    meta = d.get("meta", {})
    if not isinstance(meta, dict):
        raise FormatError(f"meta: expected an object, got {meta!r}")
    if meta.get("structure") == "rnn":
        for key, (ok, rule) in RNN_META.items():
            if key not in meta:
                raise FormatError(f"meta.{key}: missing (structure 'rnn' needs it)")
            if not ok(meta[key], n_layers):
                raise FormatError(f"meta.{key}: expected {rule}, got {meta[key]!r}")
    return meta or None


def problem_from_dict(d: dict) -> CompositeProblem:
    """The problem of a node table: the leaves of the input ids, then each entry in order."""
    with _reading(d, "problem"):
        n, layers = _int(d, "n"), _list(d, "layers")
        roots = [_list(lm, "exprs", f"layers[{k}].") for k, lm in enumerate(layers)]
        made = [ex.theta(i) for i in range(n)] + [ex.uref(j, i) for j, r in enumerate(roots, 1) for i in range(len(r))]

        def at(i: Any, where: str) -> ex.Expr:
            if type(i) is not int or not 0 <= i < len(made):  # a float, a bool or a later id is refused
                raise FormatError(f"{where}: expected an id below {len(made)}, got {i!r}")
            return made[i]

        for k, node in enumerate(_list(d, "nodes")):  # each entry's arguments are among the ids below its own
            if not isinstance(node, dict) or "op" not in node:
                raise FormatError(f"nodes[{k}]: expression node must be an object with an 'op' field")
            op = node["op"]
            if not isinstance(op, str) or op not in ex.OPS:
                raise FormatError(f"nodes[{k}]: unknown expression op {op!r}")
            where, fields = f"nodes[{k}]: {op} ", ex.OPS[op].fields
            unknown = sorted(node.keys() - {"op", "args", *fields})
            if unknown:
                raise FormatError(f"{where}{unknown[0]}: not a field of this op")
            ids = _list(node, "args", where) if "args" in node else []
            args = tuple(at(a, f"{where}args[{j}]") for j, a in enumerate(ids))
            try:
                made.append(ex.Expr(op, args, **{name: node[name] for name in fields}))
            except KeyError as err:
                raise FormatError(f"{where}{err.args[0]}: missing") from None
            except ValueError as err:
                raise FormatError(f"nodes[{k}]: {err}") from None
        maps = []
        for k, (lm, ids) in enumerate(zip(layers, roots)):
            exprs = tuple(at(i, f"layers[{k}].exprs[{j}]") for j, i in enumerate(ids))
            maps.append(LayerMap(_int(lm, "index", f"layers[{k}]."), exprs))
        return CompositeProblem(n, tuple(maps), at(d["outer"], "outer"), float(d["lam"]), _meta(d, len(maps)))


def point_to_dict(z: Point) -> dict:
    return {
        "schema_version": VERSIONS["point"],
        "kind": "point",
        "theta": np.asarray(z.theta, dtype=float).tolist(),
        "u": [np.asarray(b, dtype=float).tolist() for b in z.u],
    }


def point_from_dict(d: dict) -> Point:
    with _reading(d, "point"):
        u = tuple(np.asarray(b, dtype=float) for b in _list(d, "u"))
        return Point(np.asarray(d["theta"], dtype=float), u)


def direction_to_dict(dd: Direction) -> dict:
    return {
        "schema_version": VERSIONS["direction"],
        "kind": "direction",
        "dtheta": np.asarray(dd.dtheta, dtype=float).tolist(),
        "du": [np.asarray(b, dtype=float).tolist() for b in dd.du],
    }


def direction_from_dict(d: dict) -> Direction:
    with _reading(d, "direction"):
        du = tuple(np.asarray(b, dtype=float) for b in _list(d, "du"))
        return Direction(np.asarray(d["dtheta"], dtype=float), du)


def _json_default(obj: Any) -> Any:
    """The JSON form of a numpy value, point, direction or dataclass in a report."""
    if isinstance(obj, Point):
        return point_to_dict(obj)
    if isinstance(obj, Direction):
        return direction_to_dict(obj)
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, np.generic):
        return obj.item()
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: getattr(obj, f.name) for f in dataclasses.fields(obj)}
    raise TypeError(f"{type(obj).__name__} is not JSON serializable")


def dumps(d: dict) -> str:
    return json.dumps(d, sort_keys=True, indent=2, default=_json_default) + "\n"


def save(path: str | Path, d: dict) -> None:
    Path(path).write_text(dumps(d))


def load(path: str | Path, read: Callable[[Any], Any] = lambda d: d) -> Any:
    """``read`` of the JSON value in ``path``; its format errors name the file."""
    try:
        text = Path(path).read_text()
    except OSError as err:
        raise FormatError(f"{path}: {err.strerror or err}") from err
    try:
        return read(json.loads(text))
    except json.JSONDecodeError as err:
        raise FormatError(f"{path}: invalid JSON at line {err.lineno}: {err.msg}") from err
    except RecursionError as err:
        raise FormatError(f"{path}: JSON nested too deeply to read") from err
    except FormatError as err:
        raise FormatError(f"{path}: {err}") from err


def load_problem(path: str | Path) -> CompositeProblem:
    return load(path, problem_from_dict)


def load_point(path: str | Path) -> Point:
    return load(path, point_from_dict)


def load_direction(path: str | Path) -> Direction:
    return load(path, direction_from_dict)


def save_problem(path: str | Path, p: CompositeProblem) -> None:
    save(path, problem_to_dict(p))


def save_point(path: str | Path, z: Point) -> None:
    save(path, point_to_dict(z))


def save_direction(path: str | Path, dd: Direction) -> None:
    save(path, direction_to_dict(dd))
