"""Canonical JSON serialization shared by all file formats.

Every artifact this package writes (instances, graphs, matrices,
certificates, oracle results, sweep rows) goes through ``canonical_json``
so that identical inputs produce byte-identical files: keys are sorted,
floats are rendered with 17 significant digits, and no whitespace varies.

Instance bodies skip ``_emit``'s value-by-value walk, which has no fast
path for rows: ``render`` writes their text from the arrays, and
``canonical_json`` copies it verbatim.  Int rows take C-level
``%``-templates.  Float matrices take ``format_float``'s bytes from one
numpy kernel: an entry in 1e-4 <= |x| < 10 gets its 17 digits from the
exact product of |x| and a power of ten (Dekker's two-product), rounded
half to even as ``%.17g`` rounds; all others go through ``format_float``.

``decode`` is the one reader of a typed JSON value: ``bool`` is no number,
an int does where a float belongs, a float must be finite.  ``JsonRecord``
is the codec of a record file, derived from its dataclass's fields.
"""

from __future__ import annotations

import hashlib
import json
import math
import re
import sys
from dataclasses import MISSING, dataclass, fields
from functools import cache
from json.encoder import encode_basestring  # what json.dumps(s, ensure_ascii=False) returns
from types import UnionType
from typing import Any, get_args, get_origin, get_type_hints

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
        out.append(encode_basestring(obj))
    elif isinstance(obj, dict):
        out.append("{")
        for i, key in enumerate(sorted(obj)):
            if not isinstance(key, str):
                raise TypeError(f"JSON object keys must be str, got {key!r}")
            if i:
                out.append(",")
            out.append(encode_basestring(key))
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


# An entry's text is 32 NUL-padded bytes: a prefix ("[-]D." or "[-]0.0..0D"), four
# 4-digit groups (_GROUPS[10000 + g]: g's trailing zeros blanked) and a separator.
_FLOAT_BLOCK = 32
_GROUPS = np.stack(np.meshgrid([0, 1], *[np.uint8(range(48, 58))] * 4, indexing="ij")[1:], -1)
_GROUPS[1, ..., 0, 3:] = _GROUPS[1, ..., 0, 0, 2:] = 0  # where the last 1, 2, 3 or 4 digits are 0
_GROUPS[1, ..., 0, 0, 0, 1:] = _GROUPS[1, 0, 0, 0, 0] = 0
_GROUPS = _GROUPS.view(np.uint32).ravel()
_PREFIXES = np.array([sign + (f"{lead}." if d == 0 else f"0.{'0' * (-1 - d)}{lead}") for sign in ("", "-")
                      for d in range(-4, 1) for lead in range(10)], "S8").view(np.uint64)
_COMMA, _ROW_END, _MATRIX_END = np.array([",", "],[", "]]"], "S8").view(np.uint64)
_SCALES = np.array([1e20, 1e19, 1e18, 1e17, 1e16])  # 10^(16-d), d = -4..0: exact doubles


def _render_floats(M: np.ndarray) -> JsonText:
    """A float matrix as its list of rows, ``_FLOAT_BLOCK`` rows to a piece,
    each entry as ``format_float`` prints it; no text if one is not finite.

    A finite, non-integral x with 1e-4 <= |x| < 10 has d = floor(log10|x|)
    in [-4, 0], and s = 10^(16-d) is an exact double.  Dekker's two-product
    gives p + e = |x|*s exactly; p is an even integer, as p >= 10^16 > 2^53,
    so N = p + rint(e) is |x|*s rounded half to even: the 17 digits that the
    correctly rounded ``%.17g`` prints, in fixed notation, trailing zeros
    stripped.  Every other entry, and every N outside [10^16, 10^17) (log10
    one off, a rounding that carries), ``format_float`` prints."""
    finite = np.isfinite(M)
    if not finite.all():
        raise ValueError(f"non-finite float {float(M[~finite][0])!r} cannot be serialized")
    if not M.size:
        return JsonText(["[" + ",".join(["[]"] * len(M)) + "]"])
    pieces = ["[["]
    for r in range(0, len(M), _FLOAT_BLOCK):
        x = M[r:r + _FLOAT_BLOCK].reshape(-1)
        a = np.abs(x)
        kernel = (a >= 1e-4) & (a < 10.0) & (x != np.trunc(x))
        a = np.where(kernel, a, 1.0)  # no warning from the entries left out
        d = np.clip(np.floor(np.log10(a)), -4, 0).astype(np.intp) + 4  # the docstring's d, + 4
        s = _SCALES[d]
        p = a * s
        c, k = a * 134217729.0, s * 134217729.0  # Veltkamp's split into 26-bit halves
        a_hi, s_hi = c - (c - a), k - (k - s)
        a_lo, s_lo = a - a_hi, s - s_hi
        e = ((a_hi * s_hi - p) + a_hi * s_lo + a_lo * s_hi) + a_lo * s_lo
        N = p.astype(np.int64) + np.rint(e).astype(np.int64)
        kernel &= (N >= 10**16) & (N < 10**17)
        high, low = np.divmod(np.where(kernel, N, 10**16), 10**8)
        lead, high = np.divmod(high, 10**8)
        g0, g1 = np.divmod(high, 10**4)
        g2, g3 = np.divmod(low, 10**4)
        out = np.empty((x.size, 4), np.uint64)
        out[:, 0] = _PREFIXES[50 * (x < 0) + 10 * d + lead]
        groups = out.view(np.uint32)
        groups[:, 2] = _GROUPS[g0 + 10000 * ((low == 0) & (g1 == 0))]
        groups[:, 3] = _GROUPS[g1 + 10000 * (low == 0)]
        groups[:, 4] = _GROUPS[g2 + 10000 * (g3 == 0)]
        groups[:, 5] = _GROUPS[g3 + 10000]
        out[:, 3] = _COMMA
        out.reshape(-1, M.shape[1], 4)[:, -1, 3] = _ROW_END
        if r + _FLOAT_BLOCK >= len(M):
            out[-1, 3] = _MATRIX_END
        texts = np.array(list(map(format_float, x[~kernel].tolist())), "S24")
        out.view(np.uint8)[~kernel, :24] = texts.view(np.uint8).reshape(-1, 24)
        pieces.append(out.tobytes().translate(None, b"\0").decode("ascii"))
    return JsonText(pieces)


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
    """The JSON value in ``text``; ValueError naming ``source`` if it is
    not JSON, or holds a token NaN, Infinity or -Infinity (which ``json``
    reads as floats, but JSON has no number for), with the first's key path."""
    constants: list[tuple[str, object]] = []

    def constant(name: str) -> object:
        constants.append((name, object()))
        return constants[-1][1]

    try:
        doc = json.loads(text, parse_constant=constant)
    except json.JSONDecodeError as exc:
        raise ValueError(f"{source} is not JSON: {exc}") from None
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


def read_json_lines(path: str) -> list[tuple[str, Any]]:
    """Each non-blank line of a file as its name (``<path> line <i>``) and
    its JSON value, NaN and +-Infinity refused as ``read_json`` refuses them."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = [(f"{path} line {i}", line) for i, line in enumerate(fh, 1) if line.strip()]
    return [(where, _parse(line, where)) for where, line in lines]


_hints = cache(get_type_hints)  # a record's field types, by name


def _item_hints(hint, n: int) -> tuple:
    args = get_args(hint)
    return args[:1] * n if args[-1] is Ellipsis else args


def _encode(value, hint):
    """Floats through float(), tuples as lists, records as their JSON."""
    if hint is float:
        return float(value)
    if isinstance(value, tuple):
        return [_encode(v, h) for v, h in zip(value, _item_hints(hint, len(value)))]
    if isinstance(value, JsonRecord):
        return value.to_json_dict()
    return value


def decode(value, hint, where: str):
    """``value`` read as ``hint``: lists as tuples of the hinted length,
    objects as ``dict[str, X]`` entry by entry, ints as floats where
    floats belong, bool as neither, a float only if finite (``json``
    reads 1e400 as inf); ValueError naming ``where`` for a value of
    another type; ``object`` takes any value."""
    origin = get_origin(hint)
    if hint is object:
        return value
    if origin is tuple:
        if isinstance(value, (list, tuple)):
            hints = _item_hints(hint, len(value))
            if len(hints) == len(value):
                return tuple(decode(v, h, f"{where}[{i}]")
                             for i, (v, h) in enumerate(zip(value, hints)))
    elif origin is dict:
        if isinstance(value, dict):
            return {k: decode(v, get_args(hint)[1], f"{where}[{k!r}]") for k, v in value.items()}
    elif origin is UnionType:
        for arm in get_args(hint):
            try:
                return decode(value, arm, where)
            except ValueError:
                pass
    elif isinstance(hint, type) and issubclass(hint, JsonRecord):
        if isinstance(value, dict):
            return hint.from_json_dict(value)
    elif isinstance(value, bool) is (hint is bool):  # isinstance(True, int) holds
        if hint is float and isinstance(value, (int, float)):
            if abs(value) <= sys.float_info.max:  # exact for ints, false for nan
                return float(value)
        elif isinstance(value, hint):
            return value
    expected = ("finite float" if hint is float else hint.__name__ if isinstance(hint, type)
                else re.sub(r"\w+\.(?=\w)", "", str(hint)))  # no module prefixes
    raise ValueError(f"{where} holds {type(value).__name__} {value!r:.40}, not {expected}")


def decode_field(d, key: str, hint, where: str):
    """The entry ``key`` of the JSON object ``d`` read as ``hint``; ValueError
    naming ``where`` if ``d`` is no object or lacks it, the field if mistyped."""
    if key not in decode(d, dict, where):
        raise ValueError(f"{where} lacks the field {key!r}")
    return decode(d[key], hint, f"{where} field {key!r}")


class JsonRecord:
    """JSON codec of a dataclass, derived from its fields.  A field with a
    default may be missing from the JSON; one without may not.  A field
    whose default is None is left out while it holds None."""

    def to_json_dict(self) -> dict:
        hints = _hints(type(self))
        return {
            f.name: _encode(getattr(self, f.name), hints[f.name])
            for f in fields(self)
            if not (f.default is None and getattr(self, f.name) is None)
        }

    @classmethod
    def from_json_dict(cls, d: dict, where: str | None = None):
        """The record of ``d``; ValueError naming ``where``, by default the
        class, for a missing or mistyped field."""
        hints, where = _hints(cls), where or cls.__name__
        kwargs = {}
        for f in fields(cls):
            if f.name in d or (f.default is MISSING and f.default_factory is MISSING):
                kwargs[f.name] = decode_field(d, f.name, hints[f.name], where)
        return cls(**kwargs)
