"""Canonical JSON serialization shared by all file formats.

Every artifact this package writes (instances, graphs, matrices,
certificates, oracle results, sweep rows) goes through ``canonical_json``
so that identical inputs produce byte-identical files: keys are sorted,
floats are rendered with 17 significant digits, and no whitespace varies.
"""

from __future__ import annotations

import hashlib
import json
import math
from itertools import chain
from typing import Any


def format_float(x: float) -> str:
    """Render a float with 17 significant digits (lossless round-trip)."""
    if math.isnan(x) or math.isinf(x):
        raise ValueError(f"non-finite float {x!r} cannot be serialized")
    if x == int(x) and abs(x) < 1e16:
        # keep integral floats readable and unambiguous
        return f"{x:.1f}"
    return format(x, ".17g")


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
        if obj and isinstance(obj[0], float) and _emit_float_row(obj, out):
            return
        if obj and type(obj[0]) in (list, tuple) and _emit_int_row(obj, out):
            return
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


def _emit_float_row(row: list | tuple, out: list[str]) -> bool:
    """Encode a row of non-integral finite floats in one ``%.17g`` pass,
    which renders them exactly as ``format_float`` does.  Return False,
    having emitted nothing, for any other row: integral floats (-0.0
    included) print as "3.0", and NaN and inf must raise."""
    if not all(issubclass(t, float) for t in set(map(type, row))):
        return False
    if any(map(float.is_integer, row)):
        return False
    text = ("%.17g," * len(row)) % tuple(row)
    if "n" in text:  # "nan" or "inf"
        return False
    out.append("[")
    out.append(text[:-1])
    out.append("]")
    return True


# json.dumps(obj, separators=(",", ":")) without building an encoder per call
_encode_compact = json.JSONEncoder(separators=(",", ":")).encode


def _emit_int_row(row: list | tuple, out: list[str]) -> bool:
    """Encode a row of lists and tuples of exact ints in one C-level
    call, which renders them exactly as ``_emit`` does: ``str`` of an
    exact int is its JSON text.  Return False, having emitted nothing, for
    any other row: bools and numpy integers take ``_emit``, and so do flat
    rows of ints.  The flat int rows of the package's documents are
    clause tuples of a few entries, for which the check costs more than
    the one call saves."""
    if not set(map(type, row)) <= {list, tuple}:
        return False
    # a matrix of floats is turned away at its first entry
    if type(next(chain.from_iterable(row), 0)) is not int:
        return False
    if not set(map(type, chain.from_iterable(row))) <= {int}:
        return False
    out.append(_encode_compact(row))
    return True


def sha256_of(obj: Any) -> str:
    """SHA-256 hex digest of the canonical JSON encoding of ``obj``."""
    return hashlib.sha256(canonical_json(obj).encode("utf-8")).hexdigest()


def write_json(path: str, obj: Any) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(canonical_json(obj))
        fh.write("\n")


def read_json(path: str) -> dict:
    """The JSON object in a file; every file the package reads holds one."""
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        raise ValueError(f"{path} does not hold a JSON object")
    return doc
