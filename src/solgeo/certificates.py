"""Certificate records shared by the counting, geometry and eigenvalue
modules.

A certificate is a tagged, serializable transcript: the numeric claim (in
log2 where it is a count), the named checks that were run with their
measured values and thresholds, and a fallback flag marking the trivial
2^n bound.  Certificates embed the SHA-256 of the instance they were
computed from and the tool version, and serialize canonically.
"""

from __future__ import annotations

import sys
from dataclasses import MISSING, dataclass, field, fields
from functools import cache
from types import UnionType
from typing import get_args, get_origin, get_type_hints

TOOL_VERSION = "0.5.0"


@cache
def _hints(cls: type) -> dict:
    return get_type_hints(cls)


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


def _decode(value, hint, where: str):
    """``value`` read as ``hint``: lists as tuples of the hinted length,
    ints as floats where floats belong, bool as neither, a float only if
    finite (``json`` reads 1e400 as inf); ValueError naming ``where`` for
    a value of another type; ``object`` takes any value."""
    origin = get_origin(hint)
    if hint is object:
        return value
    if origin is tuple:
        if isinstance(value, (list, tuple)):
            hints = _item_hints(hint, len(value))
            if len(hints) == len(value):
                return tuple(_decode(v, h, f"{where}[{i}]")
                             for i, (v, h) in enumerate(zip(value, hints)))
    elif origin is UnionType:
        for arm in get_args(hint):
            try:
                return _decode(value, arm, where)
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
                else str(hint).replace(f"{__name__}.", ""))
    raise ValueError(f"{where} holds {type(value).__name__} {value!r:.40}, not {expected}")


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
    def from_json_dict(cls, d: dict):
        hints = _hints(cls)
        kwargs = {}
        for f in fields(cls):
            if f.name in d or (f.default is MISSING and f.default_factory is MISSING):
                kwargs[f.name] = _decode(d[f.name], hints[f.name], f"{cls.__name__} field {f.name!r}")
        return cls(**kwargs)


@dataclass(frozen=True)
class CheckRecord(JsonRecord):
    """One named pass/fail check: the measured value vs. its threshold."""

    name: str
    measured: float
    threshold: float
    passed: bool


@dataclass(frozen=True)
class CountCertificate(JsonRecord):
    """Certified upper bound 2^log2_bound on the number of assignments
    within the stated slack, valid for the hashed instance."""

    kind: str  # "count" | "sk-count" | "indset-count"
    n: int
    log2_bound: float
    eta: float
    fallback: bool
    checks: tuple[CheckRecord, ...]
    instance_sha256: str
    recursion_trace: tuple[dict, ...] = ()
    transcript: dict = field(default_factory=dict, compare=False)
    tool_version: str = TOOL_VERSION

    def __post_init__(self) -> None:
        if self.log2_bound < -1e-12:
            raise ValueError("count bounds are at least 1 (log2 >= 0)")
        if self.fallback and abs(self.log2_bound - self.n) > 1e-9:
            raise ValueError("fallback certificates must carry the trivial bound 2^n")


@dataclass(frozen=True)
class RefutationCertificate(JsonRecord):
    """Assertion that no (1-eta_refuted)-satisfying assignment exists,
    derived from a count certificate plus a clause-incidence count."""

    kind: str  # "refutation" | "indset-refutation"
    n: int
    eta_refuted: float
    evidence: dict
    instance_sha256: str
    tool_version: str = TOOL_VERSION


@dataclass(frozen=True)
class ClusterCertificate(JsonRecord):
    """Certified cluster structure of near-satisfiers: every pair is within
    theta*n in Hamming distance or inside the gap window, and the number of
    radius-(theta*n) clusters is at most 2^log2_cluster_bound."""

    n: int
    eta: float
    theta: float
    log2_cluster_bound: float
    gap_interval: tuple[float, float]
    primal_report: dict
    fallback: bool
    checks: tuple[CheckRecord, ...]
    instance_sha256: str
    transcript: dict = field(default_factory=dict, compare=False)
    kind: str = "clusters"
    tool_version: str = TOOL_VERSION

    def __post_init__(self) -> None:
        if not (0.0 <= self.theta <= 0.5 + 1e-12):
            raise ValueError("theta must lie in [0, 1/2]")
        if self.fallback and abs(self.log2_cluster_bound - self.n) > 1e-9:
            raise ValueError("fallback certificates must carry the trivial bound 2^n")


@dataclass(frozen=True)
class BalanceCertificate(JsonRecord):
    """Assertion that every assignment with bias at least rho violates more
    than an eta fraction of the clauses (so no rho-biased assignment is
    (1-eta)-satisfying)."""

    n: int
    rho: float
    eta: float
    violated_fraction_bound: float
    checks: tuple[CheckRecord, ...]
    instance_sha256: str
    transcript: dict = field(default_factory=dict, compare=False)
    kind: str = "balance"
    tool_version: str = TOOL_VERSION

    def __post_init__(self) -> None:
        if not (0.0 < self.rho <= 1.0 + 1e-12):
            raise ValueError("rho must lie in (0, 1]")
        if self.violated_fraction_bound <= self.eta:
            raise ValueError(
                "a balance certificate must certify strictly more than an "
                "eta fraction of violations"
            )


CERTIFICATE_CLASSES = {
    "count": CountCertificate,
    "sk-count": CountCertificate,
    "indset-count": CountCertificate,
    "refutation": RefutationCertificate,
    "indset-refutation": RefutationCertificate,
    "clusters": ClusterCertificate,
    "balance": BalanceCertificate,
}


def certificate_from_json(d: dict):
    """Load any certificate JSON dict into its dataclass."""
    kind = d.get("kind")
    cls = CERTIFICATE_CLASSES.get(kind) if isinstance(kind, str) else None
    if cls is None:
        raise ValueError(f"unrecognized certificate kind {kind!r}")
    return cls.from_json_dict(d)
