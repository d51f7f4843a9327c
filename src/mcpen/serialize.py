"""JSON round-trip for problems, points, and directions.

The on-disk schema is versioned and deliberately literal: expression trees
serialize node by node, so a loaded problem evaluates identically to the
saved one.  Dumps are deterministic (sorted keys, fixed separators), which
makes byte-level comparison of reports meaningful.
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

SCHEMA_VERSION = 1


class FormatError(ValueError):
    """Malformed or mistyped input file."""


def expr_to_dict(e: ex.Expr) -> dict:
    d: dict = {"op": e.op}
    for name in ex.OPS[e.op].fields:
        v = getattr(e, name)
        d[name] = list(v) if isinstance(v, tuple) else v
    if e.args:
        d["args"] = [expr_to_dict(a) for a in e.args]
    return d


def expr_from_dict(d: dict, where: str = "expr") -> ex.Expr:
    """The node ``d`` holds; ``where`` locates it in the file for error messages."""
    if not isinstance(d, dict) or "op" not in d:
        raise FormatError(f"{where}: expression node must be an object with an 'op' field")
    op = d["op"]
    if not isinstance(op, str) or op not in ex.OPS:
        raise FormatError(f"{where}: unknown expression op {op!r}")
    fields = ex.OPS[op].fields
    unknown = sorted(d.keys() - {"op", "args", *fields})
    if unknown:
        raise FormatError(f"{where}: {op} {unknown[0]}: not a field of this op")
    args = _list(d, "args", f"{where}: {op} ") if "args" in d else []
    args = tuple(expr_from_dict(a, f"{where}.args[{i}]") for i, a in enumerate(args))
    try:
        return ex.Expr(op, args, **{name: d[name] for name in fields})
    except KeyError as err:
        raise FormatError(f"{where}: {op} {err.args[0]}: missing") from None
    except ValueError as err:
        raise FormatError(f"{where}: {err}") from None


def problem_to_dict(p: CompositeProblem) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": "problem",
        "n": p.n,
        "lam": p.lam,
        "layers": [
            {"index": lm.index, "exprs": [expr_to_dict(e) for e in lm.exprs]}
            for lm in p.layers
        ],
        "outer": expr_to_dict(p.outer),
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
    if not (isinstance(version, int) and version == SCHEMA_VERSION):
        raise FormatError(f"unsupported schema_version {version!r} (this build reads {SCHEMA_VERSION})")
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
    with _reading(d, "problem"):
        layers = []
        for k, lm in enumerate(_list(d, "layers")):
            items = enumerate(_list(lm, "exprs", f"layers[{k}]."))
            exprs = tuple(expr_from_dict(e, f"layers[{k}].exprs[{i}]") for i, e in items)
            layers.append(LayerMap(_int(lm, "index", f"layers[{k}]."), exprs))
        outer = expr_from_dict(d["outer"], "outer")
        return CompositeProblem(
            _int(d, "n"), tuple(layers), outer, float(d["lam"]), _meta(d, len(layers))
        )


def point_to_dict(z: Point) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
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
        "schema_version": SCHEMA_VERSION,
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
    try:
        save(path, problem_to_dict(p))
    except RecursionError:
        raise FormatError(f"{path}: an expression tree nests too deep for the JSON format") from None


def save_point(path: str | Path, z: Point) -> None:
    save(path, point_to_dict(z))


def save_direction(path: str | Path, dd: Direction) -> None:
    save(path, direction_to_dict(dd))
