"""Spans around the package's public functions, recorded in memory.

``install`` wraps every public function (except the per-element helpers
in ``PER_ELEMENT``) and every public method of a public class of each
``solgeo`` module, and the ``numpy.linalg`` eigensolvers the package
calls.  A function imported by name into other modules (``counting``
binds ``normalized_laplacian_gap``, for example) is replaced in every
namespace that binds it.  The package's source is not touched;
``uninstall`` puts the originals back.

A span is one row ``[name, layer, start, end, parent, item, counters]``
with ``parent`` the index of the enclosing span, or -1 for a span opened
directly by the item.  Spans are recorded only while an item is open.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import time
from collections import defaultdict

import numpy as np

MODULES = ("instances", "jsonio", "spectral", "refuter", "counting", "geometry",
           "eigencount", "oracle", "certificates", "schemas", "cli")
EIGENSOLVERS = ("eigh", "eigvalsh", "svd")
# Leaf helpers called once per matrix entry or clause.  A span costs a few
# microseconds, more than such a helper, and would double the traced time
# of the code around it, so their time stays with their caller.
PER_ELEMENT = {"jsonio.format_float", "instances.index_to_signs", "instances.signs_to_index"}

NAME, LAYER, START, END, PARENT, ITEM, COUNTERS = range(7)


def _eigensolve_counters(name, args, kwargs, result) -> dict:
    """Matrix size and a computed (not counted) flop estimate, using the
    textbook leading terms: symmetric eigenvalues 4n^3/3, eigenvalues and
    eigenvectors 9n^3, singular values of an m x n matrix (m >= n)
    4mn^2 - 4n^3/3, with vectors 4m^2 n + 8mn^2 + 9n^3."""
    shape = np.shape(args[0])
    m, n = max(shape[-2:]), min(shape[-2:])
    if name == "eigvalsh":
        flops = 4 * n**3 / 3
    elif name == "eigh":
        flops = 9 * n**3
    elif kwargs.get("compute_uv", args[2] if len(args) > 2 else True):
        flops = 4 * m * m * n + 8 * m * n * n + 9 * n**3
    else:
        flops = 4 * m * n * n - 4 * n**3 / 3
    return {"n": m, "flops": flops}


def _text_counters(name, args, kwargs, result) -> dict:
    return {"bytes": len(result)}  # the package's documents are ASCII


def _file_counters(name, args, kwargs, result) -> dict:
    return {"bytes": os.path.getsize(args[0])}


def _oracle_counters(name, args, kwargs, result) -> dict:
    res = result[0] if isinstance(result, tuple) else result
    size = getattr(res, "enumeration_size", None)
    return {"assignments": size} if isinstance(size, int) else {}


COUNTER_HOOKS = {
    "jsonio.canonical_json": _text_counters,
    "jsonio.read_json": _file_counters,
    "jsonio.write_json": _file_counters,
}


class Tracer:
    """In-memory span recorder for one traced phase."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.items: list[tuple[int, str, float, float]] = []
        self._stack: list[int] = []
        self._item: int | None = None
        self._item_start = 0.0
        self._item_kind = ""
        self._restore: list[tuple[object, str, object]] = []

    def begin_item(self, index: int, kind: str) -> None:
        self._item, self._item_kind = index, kind
        self._stack.clear()
        self._item_start = time.perf_counter()

    def end_item(self) -> None:
        self.items.append((self._item, self._item_kind, self._item_start, time.perf_counter()))
        self._item = None

    def wrap(self, name: str, layer: str, fn, counters=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer._item is None:
                return fn(*args, **kwargs)
            stack = tracer._stack
            row = [name, layer, 0.0, 0.0, stack[-1] if stack else -1, tracer._item, None]
            stack.append(len(tracer.spans))
            tracer.spans.append(row)
            row[START] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                row[END] = time.perf_counter()
                stack.pop()
            if counters is not None:
                row[COUNTERS] = counters(name.rpartition(".")[2], args, kwargs, result)
            return result

        return traced

    def _set(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, inspect.getattr_static(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Wrap the package's public callables and the eigensolvers."""
        modules = [importlib.import_module(f"solgeo.{m}") for m in MODULES]
        wrapped: dict = {}
        for mod in modules:
            layer = mod.__name__.rpartition(".")[2]
            for name, obj in list(vars(mod).items()):
                if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                qual = f"{layer}.{name}"
                if inspect.isfunction(obj) and qual not in PER_ELEMENT:
                    hook = COUNTER_HOOKS.get(qual, _oracle_counters if layer == "oracle" else None)
                    wrapped[obj] = self.wrap(qual, layer, obj, hook)
                elif inspect.isclass(obj):
                    self._wrap_methods(obj, layer)
        for mod in [importlib.import_module("solgeo"), *modules]:
            for name, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    self._set(mod, name, wrapped[obj])
        for name in EIGENSOLVERS:
            fn = getattr(np.linalg, name)
            self._set(np.linalg, name, self.wrap(f"linalg.{name}", "linalg", fn, _eigensolve_counters))

    def _wrap_methods(self, cls, layer: str) -> None:
        for attr, member in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            qual = f"{layer}.{cls.__name__}.{attr}"
            if isinstance(member, (classmethod, staticmethod)):
                self._set(cls, attr, type(member)(self.wrap(qual, layer, member.__func__)))
            elif inspect.isfunction(member):
                self._set(cls, attr, self.wrap(qual, layer, member))

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)


# ---------------------------------------------------------------------------
# Aggregation
# ---------------------------------------------------------------------------

def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    own = [row[END] - row[START] for row in spans]
    for row in spans:
        if row[PARENT] >= 0:
            own[row[PARENT]] -= row[END] - row[START]
    return own


def _outermost(spans: list[list], names: set[str]) -> list[list]:
    """Spans named in ``names`` with no ancestor also named there, so that
    nested calls (``simple`` calling ``build``) are not counted twice."""
    out = []
    for row in spans:
        if row[NAME] not in names:
            continue
        parent = row[PARENT]
        while parent >= 0 and spans[parent][NAME] not in names:
            parent = spans[parent][PARENT]
        if parent < 0:
            out.append(row)
    return out


BUILD = {
    "instances.MultiGraph.build", "instances.MultiGraph.simple",
    "instances.MultiGraph.adjacency", "instances.primal_graph",
    "instances.UnsignedHypergraph.without_repeats", "instances.UnsignedHypergraph.dedup",
    "instances.csp_to_ksat",
}
CLI_COMMANDS = ("gen", "certify", "oracle", "verify")


def layer_metrics(tracer: Tracer, blocks: int, blocks_fallback: int) -> dict[str, float]:
    """Per-item layer figures of a traced phase (see README.md)."""
    spans = tracer.spans
    items = max(len(tracer.items), 1)
    own = self_times(spans)
    self_by_layer: dict[str, float] = defaultdict(float)
    self_by_name: dict[str, float] = defaultdict(float)
    for row, t in zip(spans, own):
        self_by_layer[row[LAYER]] += t
        self_by_name[row[NAME]] += t

    def total(rows) -> float:
        return sum(row[END] - row[START] for row in rows)

    def counter(rows, key) -> float:
        return sum((row[COUNTERS] or {}).get(key, 0) for row in rows)

    def named(*names) -> list[list]:
        return [row for row in spans if row[NAME] in names]

    eig = [row for row in spans if row[LAYER] == "linalg"]
    hashes = named("jsonio.sha256_of")
    samples = _outermost(spans, {r[NAME] for r in spans if r[NAME].startswith("instances.sample_")})
    oracles = _outermost(spans, {r[NAME] for r in spans if r[LAYER] == "oracle"})
    oracle_s = total(oracles)
    assignments = counter(oracles, "assignments")
    item_s = sum(end - start for _, _, start, end in tracer.items)
    top_s = total(row for row in spans if row[PARENT] < 0)
    hashed = [row for row in spans
              if row[PARENT] >= 0 and spans[row[PARENT]][NAME] == "jsonio.sha256_of"]

    per_item = {
        "spectral.eigensolve_s": total(eig),
        "spectral.eigensolve_calls": len(eig),
        "spectral.eigensolve_flops": counter(eig, "flops"),
        "spectral.self_s": self_by_layer["spectral"],
        "jsonio.hash_s": total(hashes),
        "jsonio.hash_calls": len(hashes),
        "jsonio.hash_bytes": counter(hashed, "bytes"),
        "jsonio.write_s": total(named("jsonio.write_json")),
        "jsonio.read_s": total(named("jsonio.read_json")),
        "jsonio.io_bytes": counter(named("jsonio.read_json", "jsonio.write_json"), "bytes"),
        "jsonio.self_s": self_by_layer["jsonio"],
        "instances.sample_s": total(samples),
        "instances.sample_calls": len(samples),
        "instances.build_s": total(_outermost(spans, BUILD)),
        "instances.self_s": self_by_layer["instances"],
        "counting.self_s": self_by_layer["counting"],
        "counting.blocks": blocks,
        "refuter.self_s": self_by_layer["refuter"],
        "refuter.polynomials": len(named("refuter.refute_polynomial")),
        "geometry.self_s": self_by_layer["geometry"],
        "eigencount.self_s": self_by_layer["eigencount"],
        "oracle.self_s": self_by_layer["oracle"],
        "oracle.assignments": assignments,
        "certificates.serialize_s": self_by_layer["certificates"],
        "cli.self_s": self_by_layer["cli"],
        **{f"cli.{cmd}_s": self_by_name[f"cli.cmd_{cmd}"] for cmd in CLI_COMMANDS},
        "bench.item_s": item_s,
        "bench.unaccounted_s": item_s - top_s,
    }
    metrics = {key: value / items for key, value in per_item.items()}
    metrics["spectral.eigensolve_n_max"] = max((r[COUNTERS]["n"] for r in eig), default=0)
    metrics["counting.blocks_fallback_ratio"] = blocks_fallback / blocks if blocks else 0.0
    metrics["oracle.assignments_per_s"] = assignments / oracle_s if oracle_s > 0 else 0.0
    return metrics


def layer_self_times(tracer: Tracer) -> dict[str, dict[str, float]]:
    """Self time of each layer per item kind, summed over the phase, with
    the item time no layer accounts for under ``(no layer)``."""
    kind_of = {index: kind for index, kind, _, _ in tracer.items}
    out: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
    for index, kind, start, end in tracer.items:
        out[kind]["(no layer)"] += end - start
    for row, t in zip(tracer.spans, self_times(tracer.spans)):
        by_layer = out[kind_of[row[ITEM]]]
        by_layer[row[LAYER]] += t
        by_layer["(no layer)"] -= t
    return {kind: dict(v) for kind, v in out.items()}
