"""Canonical JSON serialization shared by all file formats.

Every artifact this package writes (instances, graphs, matrices,
certificates, oracle results, sweep rows) goes through ``canonical_json``
so that identical inputs produce byte-identical files: keys are sorted,
floats are rendered with 17 significant digits, and no whitespace varies.

Instance bodies skip ``_emit``'s value-by-value walk, which has no fast
path for rows: ``render`` writes their text from the arrays with C-level
``%``-templates, and ``canonical_json`` copies it verbatim.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from typing import Any

import numpy as np


def format_float(x: float) -> str:
    """Render a float with 17 significant digits (lossless round-trip)."""
    if math.isnan(x) or math.isinf(x):
        raise ValueError(f"non-finite float {x!r} cannot be serialized")
    if x == int(x) and abs(x) < 1e16:
        # keep integral floats readable and unambiguous
        return f"{x:.1f}"
    return format(x, ".17g")


@dataclass(frozen=True)
class JsonText:
    """Canonical JSON text as the pieces ``render`` made, joined only
    with the document that holds it."""

    pieces: list[str]


def canonical_json(obj: Any) -> str:
    """Serialize ``obj`` to a canonical JSON string."""
    out: list[str] = []
    _emit(obj, out)
    return "".join(out)


def _emit(obj: Any, out: list[str]) -> None:
    if obj is None or isinstance(obj, bool):
        out.append(json.dumps(obj))
    elif isinstance(obj, int):
        out.append(str(obj))
    elif isinstance(obj, float):
        out.append(format_float(obj))
    elif isinstance(obj, JsonText):
        out.extend(obj.pieces)
    elif isinstance(obj, str):
        out.append(json.dumps(obj, ensure_ascii=False))
    elif isinstance(obj, dict):
        out.append("{")
        for i, key in enumerate(sorted(obj)):
            if not isinstance(key, str):
                raise TypeError(f"JSON object keys must be str, got {key!r}")
            if i:
                out.append(",")
            out.append(json.dumps(key, ensure_ascii=False))
            out.append(":")
            _emit(obj[key], out)
        out.append("}")
    elif isinstance(obj, (list, tuple)):
        out.append("[")
        for i, item in enumerate(obj):
            if i:
                out.append(",")
            _emit(item, out)
        out.append("]")
    else:
        # numpy scalars and similar: fall back on their Python equivalents
        if hasattr(obj, "item"):
            _emit(obj.item(), out)
        else:
            raise TypeError(f"cannot serialize {type(obj).__name__}")


def render(value: np.ndarray | dict[str, np.ndarray]) -> JsonText:
    """The canonical JSON text of ``value.tolist()``, from the arrays: a
    2-d int or float array as its list of rows, or a dict of int columns
    of one length (1-d for a number, 2-d for a list) as its list of
    records.  TypeError or ValueError for any other input, ValueError for
    a non-finite float."""
    if isinstance(value, dict):
        keys = sorted(value)
        columns = [np.asarray(value[key]) for key in keys]
        fields = ",".join(f"{json.dumps(key)}:{_int_template(c)}" for key, c in zip(keys, columns))
        template, table = "{" + fields + "}", np.column_stack(columns)
    else:
        table = np.asarray(value)
        if table.ndim != 2:
            raise TypeError(f"cannot render a {table.ndim}-d array")
        if table.dtype.kind == "f":
            return _render_floats(table.astype(float, copy=False))
        template = _int_template(table)
    rows = "[" + ",".join([template] * len(table)) + "]"
    return JsonText([rows % tuple(table.ravel().tolist())])


def _int_template(column: np.ndarray) -> str:
    """The ``%d`` template of one row of an int column."""
    if column.dtype.kind not in "iu" or column.ndim > 2:
        raise TypeError(f"cannot render a {column.dtype} array of shape {column.shape} as ints")
    return "%d" if column.ndim == 1 else "[" + ",".join(["%d"] * column.shape[1]) + "]"


def _render_floats(M: np.ndarray) -> JsonText:
    """A float matrix as its list of rows, each row one ``%`` pass:
    ``%.1f`` for an integral entry below 1e16 (``format_float``'s "3.0"
    and "-0.0"), ``%.17g`` for every other; no text if one is not finite."""
    finite = np.isfinite(M)
    if not finite.all():
        raise ValueError(f"non-finite float {float(M[~finite][0])!r} cannot be serialized")
    pieces: list[str] = []
    for row in M:
        values = row.tolist()
        if any(map(float.is_integer, values)):
            integral = (row == np.trunc(row)) & (np.abs(row) < 1e16)
            template = ",".join(np.where(integral, "%.1f", "%.17g").tolist())
        else:
            template = ",".join(["%.17g"] * len(values))
        pieces += (",", "[", template % tuple(values), "]")
    return JsonText(["[", *pieces[1:], "]"])


def sha256_of(obj: Any) -> str:
    """SHA-256 hex digest of the canonical JSON encoding of ``obj``."""
    return hashlib.sha256(canonical_json(obj).encode("utf-8")).hexdigest()


def write_json(path: str, obj: Any) -> None:
    """Write ``obj`` as canonical JSON and a newline, rendered first, so
    that a failed render leaves no file and an existing one unchanged."""
    text = canonical_json(obj)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
        fh.write("\n")


def _parse(text: str, source: str):
    """The JSON value in ``text``.  ``json`` reads the tokens NaN,
    Infinity and -Infinity as floats, but JSON has no number for them:
    ValueError naming ``source`` and the key path of the first."""
    constants: list[tuple[str, object]] = []

    def constant(name: str) -> object:
        constants.append((name, object()))
        return constants[-1][1]

    doc = json.loads(text, parse_constant=constant)
    if constants:
        name, marker = constants[0]
        where = _key_path(doc, marker) or "top level"
        raise ValueError(f"{source} holds {name} at {where}, not a finite JSON number")
    return doc


def _key_path(value, target) -> str | None:
    """The subscripts that lead from ``value`` to ``target``, as text."""
    if value is target:
        return ""
    if isinstance(value, (dict, list)):
        for key, item in value.items() if isinstance(value, dict) else enumerate(value):
            rest = _key_path(item, target)
            if rest is not None:
                return f"[{key!r}]{rest}"
    return None


def read_json(path: str) -> dict:
    """The JSON object in a file; every file the package reads holds one.
    ValueError naming ``path`` if it holds another value, or NaN or
    +-Infinity anywhere."""
    with open(path, "r", encoding="utf-8") as fh:
        doc = _parse(fh.read(), path)
    if not isinstance(doc, dict):
        raise ValueError(f"{path} does not hold a JSON object")
    return doc


def read_json_lines(path: str) -> list:
    """The JSON value on each non-blank line of a file, NaN and
    +-Infinity refused as ``read_json`` refuses them."""
    with open(path, "r", encoding="utf-8") as fh:
        return [_parse(line, f"{path} line {i}") for i, line in enumerate(fh, 1) if line.strip()]
