"""Certified bounds on the solution geometry of random CSPs.

Library layout:

* ``instances``   -- hypergraph/XOR/predicate types, samplers, constructions
* ``spectral``    -- eigenvalue measurements and graph-spectrum certificates
* ``refuter``     -- polynomial refutation, quasirandomness, XOR principle
* ``counting``    -- count certificates (2XOR, kXOR, kSAT, kCSP) + reductions
* ``geometry``    -- cluster and balance certificates
* ``eigencount``  -- subspace counting, SK near-optima, independent sets
* ``oracle``      -- exhaustive/gf2/branch-and-bound ground truth
* ``cli``         -- gen / certify / oracle / verify / sweep commands
"""

from .certificates import (
    BalanceCertificate,
    CheckRecord,
    ClusterCertificate,
    CountCertificate,
    RefutationCertificate,
    TOOL_VERSION,
)
from .instances import (
    Assignment,
    DensityTable,
    MultiGraph,
    Predicate,
    SamplerError,
    SignedHypergraph,
    UnsignedHypergraph,
    XorInstance,
    bias,
    csp_to_ksat,
    density_table,
    evaluate,
    induced_xor,
    ksat_fourier,
    primal_graph,
    sample_goe,
    sample_regular_graph,
    sample_signed_hypergraph,
    sample_unsigned_hypergraph,
    split_by_sign,
    truncated_xor,
    violation_budget,
)

__version__ = TOOL_VERSION

__all__ = [
    "Assignment",
    "BalanceCertificate",
    "CheckRecord",
    "ClusterCertificate",
    "CountCertificate",
    "DensityTable",
    "MultiGraph",
    "Predicate",
    "RefutationCertificate",
    "SamplerError",
    "SignedHypergraph",
    "UnsignedHypergraph",
    "XorInstance",
    "bias",
    "csp_to_ksat",
    "density_table",
    "evaluate",
    "induced_xor",
    "ksat_fourier",
    "primal_graph",
    "sample_goe",
    "sample_regular_graph",
    "sample_signed_hypergraph",
    "sample_unsigned_hypergraph",
    "split_by_sign",
    "truncated_xor",
    "violation_budget",
]
