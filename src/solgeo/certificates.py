"""Certificate records shared by the counting, geometry and eigenvalue
modules.

A certificate is a tagged, serializable transcript: the numeric claim (in
log2 where it is a count), the named checks that were run with their
measured values and thresholds, and a fallback flag marking the trivial
2^n bound.  Certificates embed the SHA-256 of the instance they were
computed from and the tool version, and serialize canonically.
"""

from __future__ import annotations

from dataclasses import MISSING, dataclass, field, fields
from functools import cache
from typing import get_args, get_type_hints

TOOL_VERSION = "0.4.0"

# field name -> JSON key, where the two differ
_JSON_KEYS = {"signature": "instance_sha256"}


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


def _decode(value, hint):
    if get_args(hint):
        return tuple(_decode(v, h) for v, h in zip(value, _item_hints(hint, len(value))))
    if isinstance(hint, type) and issubclass(hint, JsonRecord):
        return hint.from_json_dict(value)
    return value


class JsonRecord:
    """JSON codec of a dataclass, derived from its fields.  A field with a
    default may be missing from the JSON; one without may not."""

    def to_json_dict(self) -> dict:
        hints = _hints(type(self))
        return {
            _JSON_KEYS.get(f.name, f.name): _encode(getattr(self, f.name), hints[f.name])
            for f in fields(self)
        }

    @classmethod
    def from_json_dict(cls, d: dict):
        hints = _hints(cls)
        kwargs = {}
        for f in fields(cls):
            key = _JSON_KEYS.get(f.name, f.name)
            if key in d or (f.default is MISSING and f.default_factory is MISSING):
                kwargs[f.name] = _decode(d[key], hints[f.name])
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
    signature: str
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
    signature: str
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
    signature: str
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
    signature: str
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
    cls = CERTIFICATE_CLASSES.get(d.get("kind"))
    if cls is None:
        raise ValueError(f"unrecognized certificate kind {d.get('kind')!r}")
    return cls.from_json_dict(d)
