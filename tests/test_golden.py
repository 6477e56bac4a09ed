"""Certificate bytes pinned across refactors.

Each case builds one certificate from fixed inputs and compares the sha256
of its canonical JSON, ``tool_version`` left out, with the value recorded
when the case was added.  A refactor that changes any certificate byte for
the same inputs fails here; a deliberate format change updates the table
and says so.
"""

import hashlib

import pytest

from solgeo.counting import (
    certify_count_2xor,
    certify_count_kcsp,
    certify_count_ksat,
    certify_count_kxor,
)
from solgeo.eigencount import certify_count_indsets, certify_count_sk
from solgeo.geometry import (
    certify_balance_3csp,
    certify_balance_kcsp,
    certify_balance_kxor,
    certify_clusters_3csp,
    certify_clusters_3xor,
)
from solgeo.instances import (
    MultiGraph,
    Predicate,
    ksat_fourier,
    sample_goe,
    sample_regular_graph,
    sample_signed_hypergraph,
    sample_unsigned_hypergraph,
)
from solgeo.jsonio import canonical_json

from conftest import planted_3sat, sign_cube_k4, synthetic_balanced_k4


def _kxor(seed):
    return certify_count_kxor(sample_unsigned_hypergraph(3, 100, 3000, seed), 0.0)


def _2xor():
    H = sample_unsigned_hypergraph(2, 200, int(200**1.4), seed=1)
    return certify_count_2xor(MultiGraph.build(200, H.edges), 0.0)


CASES = {
    "count-kxor-seed1": lambda: _kxor(1),
    "count-kxor-seed3": lambda: _kxor(3),
    "count-kxor-seed5": lambda: _kxor(5),
    "count-ksat": lambda: certify_count_ksat(
        sample_signed_hypergraph(3, 60, 1800, seed=2), 0.0),
    "count-kcsp-parity": lambda: certify_count_kcsp(
        sample_signed_hypergraph(3, 60, 1800, seed=4), Predicate.parity(3), 0.0),
    "count-2xor": _2xor,
    "clusters-3xor": lambda: certify_clusters_3xor(
        sample_unsigned_hypergraph(3, 14, 14 * 140, seed=3), 0.05, c0=6.0),
    "clusters-3csp": lambda: certify_clusters_3csp(
        planted_3sat(14, 14 * 140, 7, seed=4)[0], ksat_fourier(3), 0.01, c0=6.0),
    "balance-3csp": lambda: certify_balance_3csp(
        planted_3sat(14, 14 * 140, 9, seed=5)[0], ksat_fourier(3), rho=0.8, eta=0.02),
    "balance-kxor": lambda: certify_balance_kxor(synthetic_balanced_k4(), rho=0.5),
    "balance-kcsp": lambda: certify_balance_kcsp(sign_cube_k4(), ksat_fourier(4), rho=0.5),
    "sk-count": lambda: certify_count_sk(sample_goe(60, seed=1), 0.1),
    "indset-count": lambda: certify_count_indsets(sample_regular_graph(26, 3, seed=1), 0.2),
}

GOLDEN = {
    "balance-3csp": "fa3f879d0102910556d132adf7a4fd58b94ccc79f34f83effe153ac9e71cac82",
    "balance-kcsp": "81ff7942151322a7d08bd4f84a12fc5a199c86907efc93d2d81679a2c1f25079",
    "balance-kxor": "188fdb84d22555b2d5d9fdce189b72225ccf57bf602b5e2e17d3646c658a1b08",
    "clusters-3csp": "475158bec95cf1ef395950179e3d89357c25039dc106eb338fa959b52872ab37",
    "clusters-3xor": "928fced26cdde74596670528b2351784dd765b3293825a99033c53d4c895af9e",
    "count-2xor": "4f62c1d6cfc04a59cf97b59b4f1c2bf29a9d11e6d48433e521e5fb38a776d573",
    "count-kcsp-parity": "2fd7cb0659836a3d7951ed4c47f127dbb1ee27cf8d987f473c4a9e9b3d17c20e",
    "count-ksat": "ef47326de47111be16adc54cd0c005f1004902fcdce2577ca879e1216ae23aaf",
    "count-kxor-seed1": "81c3ed61b352b9f8cb7797b547c0220dd968e9fe52611f006171a591be711a28",
    "count-kxor-seed3": "917af7478121b261779c5aa768ce0eeded1097c7029a16eac43fb57201da04fd",
    "count-kxor-seed5": "ff917134fda589b374e31f23dd38333db4705a2ad634cc81beeb9002bc115317",
    "indset-count": "0adede11263c4795f1e5b92addc4bc8c97fdeaa75a375eaf234d21f1fbb8056f",
    "sk-count": "f11a93e2dd56f8efd512c35c4e38a0e3c6ce9f95017758c257a9d260d62ea175",
}


def digest(cert) -> str:
    d = cert.to_json_dict()
    d.pop("tool_version")
    return hashlib.sha256(canonical_json(d).encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(CASES))
def test_certificate_bytes_unchanged(name):
    assert digest(CASES[name]()) == GOLDEN[name]
