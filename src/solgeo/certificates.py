"""Certificate records shared by the counting, geometry and eigenvalue
modules.

A certificate is a tagged, serializable transcript: the numeric claim (in
log2 where it is a count), the named checks that were run with their
measured values and thresholds, and a fallback flag marking the trivial
2^n bound.  Certificates embed the SHA-256 of the instance they were
computed from and the tool version, and serialize canonically through
``jsonio.JsonRecord``, the codec derived from their fields.  A balance
run that declines leaves a ``DeclinedBalance`` note instead.  Which
record reads which kind is ``oracle.PAIRINGS``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .jsonio import JsonRecord

TOOL_VERSION = "0.6.0"


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


@dataclass(frozen=True)
class DeclinedBalance(JsonRecord):
    """A balance run that declined: the bias asked about and the instance
    it was asked of.  It carries no claim, so no oracle checks it."""

    rho: float
    instance_sha256: str
    kind: str = "balance-declined"
