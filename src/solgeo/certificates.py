"""Certificate records shared by the counting, geometry and eigenvalue
modules.

A certificate is a tagged, serializable transcript: the numeric claim (in
log2 where it is a count), the named checks that were run with their
measured values and thresholds, and a fallback flag marking the trivial
2^n bound.  Certificates embed the SHA-256 of the instance they were
computed from and the tool version, and serialize canonically.
"""

from __future__ import annotations

from dataclasses import dataclass, field

TOOL_VERSION = "0.2.0"


@dataclass(frozen=True)
class CheckRecord:
    """One named pass/fail check: the measured value vs. its threshold."""

    name: str
    measured: float
    threshold: float
    passed: bool

    def to_json_dict(self) -> dict:
        return {
            "name": self.name,
            "measured": float(self.measured),
            "threshold": float(self.threshold),
            "passed": self.passed,
        }

    @classmethod
    def from_json_dict(cls, d: dict) -> "CheckRecord":
        return cls(d["name"], d["measured"], d["threshold"], d["passed"])


def _checks_to_json(checks: tuple[CheckRecord, ...]) -> list[dict]:
    return [c.to_json_dict() for c in checks]


def _checks_from_json(items: list[dict]) -> tuple[CheckRecord, ...]:
    return tuple(CheckRecord.from_json_dict(c) for c in items)


@dataclass(frozen=True)
class CountCertificate:
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

    def to_json_dict(self) -> dict:
        return {
            "kind": self.kind,
            "n": self.n,
            "log2_bound": float(self.log2_bound),
            "eta": float(self.eta),
            "fallback": self.fallback,
            "checks": _checks_to_json(self.checks),
            "recursion_trace": list(self.recursion_trace),
            "transcript": self.transcript,
            "instance_sha256": self.signature,
            "tool_version": self.tool_version,
        }

    @classmethod
    def from_json_dict(cls, d: dict) -> "CountCertificate":
        return cls(
            kind=d["kind"],
            n=d["n"],
            log2_bound=d["log2_bound"],
            eta=d["eta"],
            fallback=d["fallback"],
            checks=_checks_from_json(d["checks"]),
            signature=d["instance_sha256"],
            recursion_trace=tuple(d.get("recursion_trace", ())),
            transcript=d.get("transcript", {}),
            tool_version=d.get("tool_version", TOOL_VERSION),
        )


@dataclass(frozen=True)
class RefutationCertificate:
    """Assertion that no (1-eta_refuted)-satisfying assignment exists,
    derived from a count certificate plus a clause-incidence count."""

    kind: str  # "refutation" | "indset-refutation"
    n: int
    eta_refuted: float
    evidence: dict
    signature: str
    tool_version: str = TOOL_VERSION

    def to_json_dict(self) -> dict:
        return {
            "kind": self.kind,
            "n": self.n,
            "eta_refuted": float(self.eta_refuted),
            "evidence": self.evidence,
            "instance_sha256": self.signature,
            "tool_version": self.tool_version,
        }

    @classmethod
    def from_json_dict(cls, d: dict) -> "RefutationCertificate":
        return cls(
            kind=d["kind"],
            n=d["n"],
            eta_refuted=d["eta_refuted"],
            evidence=d["evidence"],
            signature=d["instance_sha256"],
            tool_version=d.get("tool_version", TOOL_VERSION),
        )


@dataclass(frozen=True)
class ClusterCertificate:
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

    def to_json_dict(self) -> dict:
        return {
            "kind": self.kind,
            "n": self.n,
            "eta": float(self.eta),
            "theta": float(self.theta),
            "log2_cluster_bound": float(self.log2_cluster_bound),
            "gap_interval": [float(self.gap_interval[0]), float(self.gap_interval[1])],
            "primal_report": self.primal_report,
            "fallback": self.fallback,
            "checks": _checks_to_json(self.checks),
            "transcript": self.transcript,
            "instance_sha256": self.signature,
            "tool_version": self.tool_version,
        }

    @classmethod
    def from_json_dict(cls, d: dict) -> "ClusterCertificate":
        return cls(
            n=d["n"],
            eta=d["eta"],
            theta=d["theta"],
            log2_cluster_bound=d["log2_cluster_bound"],
            gap_interval=(d["gap_interval"][0], d["gap_interval"][1]),
            primal_report=d["primal_report"],
            fallback=d["fallback"],
            checks=_checks_from_json(d["checks"]),
            signature=d["instance_sha256"],
            transcript=d.get("transcript", {}),
            kind=d["kind"],
            tool_version=d.get("tool_version", TOOL_VERSION),
        )


@dataclass(frozen=True)
class BalanceCertificate:
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

    def to_json_dict(self) -> dict:
        return {
            "kind": self.kind,
            "n": self.n,
            "rho": float(self.rho),
            "eta": float(self.eta),
            "violated_fraction_bound": float(self.violated_fraction_bound),
            "checks": _checks_to_json(self.checks),
            "transcript": self.transcript,
            "instance_sha256": self.signature,
            "tool_version": self.tool_version,
        }

    @classmethod
    def from_json_dict(cls, d: dict) -> "BalanceCertificate":
        return cls(
            n=d["n"],
            rho=d["rho"],
            eta=d["eta"],
            violated_fraction_bound=d["violated_fraction_bound"],
            checks=_checks_from_json(d["checks"]),
            signature=d["instance_sha256"],
            transcript=d.get("transcript", {}),
            kind=d["kind"],
            tool_version=d.get("tool_version", TOOL_VERSION),
        )


def certificate_from_json(d: dict):
    """Load any certificate JSON dict into its dataclass."""
    kind = d.get("kind")
    if kind in ("count", "sk-count", "indset-count"):
        return CountCertificate.from_json_dict(d)
    if kind in ("refutation", "indset-refutation"):
        return RefutationCertificate.from_json_dict(d)
    if kind == "clusters":
        return ClusterCertificate.from_json_dict(d)
    if kind == "balance":
        return BalanceCertificate.from_json_dict(d)
    raise ValueError(f"unrecognized certificate kind {kind!r}")
