"""Certificate and oracle-file bytes pinned across refactors.

Each case builds one certificate from fixed inputs and compares the sha256
of its canonical JSON, ``tool_version`` left out, with the value recorded
when the case was added.  Each oracle case writes one file with
``solgeo oracle`` on a generated instance and compares the sha256 of the
file's bytes the same way.  A refactor that changes any certificate or
oracle byte for the same inputs fails here; a deliberate format change
updates the table and says so.

The digests are computed in one child process with one BLAS thread, the
setting measurements use: a dense eigensolve rounds differently with more
threads, and a certificate carries its measured eigenvalues to the last
digit.  The child also counts the instance documents each case hashes:
a certifier hashes the one instance its certificate binds, once, however
many reductions it goes through.  ``python tests/test_golden.py`` prints
all of it as JSON.
"""

import contextlib
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

from solgeo import cli, eigencount, instances
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
    sample_goe,
    sample_regular_graph,
    sample_signed_hypergraph,
    sample_unsigned_hypergraph,
)
from solgeo.jsonio import canonical_json

from conftest import petersen_graph, planted_3sat, sign_cube_k4, synthetic_balanced_k4


def _kxor(seed):
    return certify_count_kxor(sample_unsigned_hypergraph(3, 100, 3000, seed), 0.0)


def _2xor(n=200):
    H = sample_unsigned_hypergraph(2, n, int(n**1.4), seed=1)
    return certify_count_2xor(MultiGraph.build(n, H.vars), 0.0)


def _sk_one_spike(n=64, eta=0.1):
    # one eigenvalue just above the target Rayleigh quotient: a one-dimensional
    # window and a nontrivial count
    M = np.zeros((n, n))
    M[0, 0] = 1.001 * 2.0 * (1.0 - eta) * math.sqrt(n)
    return certify_count_sk(M, eta)


CASES = {
    "count-kxor-seed1": lambda: _kxor(1),
    "count-kxor-seed3": lambda: _kxor(3),
    "count-kxor-seed5": lambda: _kxor(5),
    # k = 5: the recursion reaches 2XOR at depth 3, and the bound is below n
    "count-kxor-k5": lambda: certify_count_kxor(sample_unsigned_hypergraph(5, 16, 50000, 1), 0.0),
    "count-ksat": lambda: certify_count_ksat(
        sample_signed_hypergraph(3, 60, 1800, seed=2), 0.0),
    "count-kcsp-parity": lambda: certify_count_kcsp(
        sample_signed_hypergraph(3, 60, 1800, seed=4), Predicate.parity(3), 0.0),
    "count-2xor": _2xor,
    # n >= spectral.ITERATIVE_MIN_N: lambda_2 estimated by Lanczos, then proved
    "count-2xor-lanczos": lambda: _2xor(1000),
    "clusters-3xor": lambda: certify_clusters_3xor(
        sample_unsigned_hypergraph(3, 14, 14 * 140, seed=3), 0.05, c0=6.0),
    "clusters-3csp": lambda: certify_clusters_3csp(
        planted_3sat(14, 14 * 140, 7, seed=4)[0], Predicate.ksat(3), 0.01, c0=6.0),
    # the fallback exits of the cluster and XOR-principle certifiers
    "clusters-3xor-primal-norm": lambda: certify_clusters_3xor(
        sample_unsigned_hypergraph(3, 14, 14 * 140, seed=3), 0.05),
    "clusters-3xor-no-theta": lambda: certify_clusters_3xor(
        sample_unsigned_hypergraph(3, 14, 14 * 140, seed=3), 0.3, c0=6.0),
    "clusters-3csp-primal-norm": lambda: certify_clusters_3csp(
        planted_3sat(14, 14 * 140, 7, seed=4)[0], Predicate.ksat(3), 0.01),
    "clusters-3csp-xor-principle": lambda: certify_clusters_3csp(
        planted_3sat(14, 14 * 140, 7, seed=4)[0], Predicate.ksat(3), 0.3, c0=6.0),
    "count-ksat-xor-principle": lambda: certify_count_ksat(
        sample_signed_hypergraph(3, 60, 1800, seed=2), 0.3),
    "count-kcsp-xor-principle": lambda: certify_count_kcsp(
        sample_signed_hypergraph(3, 60, 1800, seed=4), Predicate.parity(3), 0.3),
    "balance-3csp": lambda: certify_balance_3csp(
        planted_3sat(14, 14 * 140, 9, seed=5)[0], Predicate.ksat(3), rho=0.8, eta=0.02),
    "balance-kxor": lambda: certify_balance_kxor(synthetic_balanced_k4(), rho=0.5),
    "balance-kcsp": lambda: certify_balance_kcsp(sign_cube_k4(), Predicate.ksat(4), rho=0.5),
    "sk-count": lambda: certify_count_sk(sample_goe(60, seed=1), 0.1),
    "indset-count": lambda: certify_count_indsets(sample_regular_graph(26, 3, seed=1), 0.2),
    # one case per exit of the SK and independent-set certifiers
    "sk-count-exclusion": lambda: certify_count_sk(sample_goe(18, seed=1), 0.1),
    "sk-count-lambda-nonpositive": lambda: certify_count_sk(np.zeros((4, 4)), 1.0 - 1e-9),
    "sk-count-nontrivial": _sk_one_spike,
    "indset-count-hoffman-exclusion": lambda: certify_count_indsets(
        sample_regular_graph(200, 3, seed=1), 0.01),
    "indset-count-empty-threshold": lambda: certify_count_indsets(
        sample_regular_graph(26, 3, seed=1), 1.0 - 1e-12),
    "indset-count-petersen": lambda: certify_count_indsets(petersen_graph(), 0.2),
    "indset-count-nontrivial": lambda: certify_count_indsets(
        sample_regular_graph(400, 3, seed=2), 0.01),
}

GOLDEN = {
    "balance-3csp": "fa3f879d0102910556d132adf7a4fd58b94ccc79f34f83effe153ac9e71cac82",
    "balance-kcsp": "81ff7942151322a7d08bd4f84a12fc5a199c86907efc93d2d81679a2c1f25079",
    "balance-kxor": "188fdb84d22555b2d5d9fdce189b72225ccf57bf602b5e2e17d3646c658a1b08",
    "clusters-3csp": "475158bec95cf1ef395950179e3d89357c25039dc106eb338fa959b52872ab37",
    "clusters-3csp-primal-norm": "48d6d87bd031a4c2f090acd35623883092c3f496f3ee27145839abc98884e11b",
    "clusters-3csp-xor-principle": "d0696863dee72d5308ca1fed2d4cffa79620a918c745b1c4134d2011e7fdec02",
    "clusters-3xor": "928fced26cdde74596670528b2351784dd765b3293825a99033c53d4c895af9e",
    "clusters-3xor-no-theta": "80cfc98eec01dbf6c80ed3f93614f7cd80638a503a9669ff31f5ac6e2fefc73f",
    "clusters-3xor-primal-norm": "7e5d218d7b75a12200f7c05003ca58899b5b21b397c6f3c9a085cd6f7ba2477b",
    "count-2xor": "4f62c1d6cfc04a59cf97b59b4f1c2bf29a9d11e6d48433e521e5fb38a776d573",
    "count-2xor-lanczos": "2b0c5255520c3bfd1d021a5f67678983d49d4ab423cc65be2cbab308b34c1339",
    "count-kcsp-parity": "2fd7cb0659836a3d7951ed4c47f127dbb1ee27cf8d987f473c4a9e9b3d17c20e",
    "count-kcsp-xor-principle": "92e93f30713d4816ddbbba32e0f5374f255278452a0b09b20dfce3ab08b11c01",
    "count-ksat": "ef47326de47111be16adc54cd0c005f1004902fcdce2577ca879e1216ae23aaf",
    "count-ksat-xor-principle": "2f8499ca87bc2619dce905303d2d53e39b16cd3a24253e6bce69c2e0f1b92a9b",
    "count-kxor-k5": "4931025543172932e7e9a35a8a8fb72e58550500c368552e63d0eceb8be022ae",
    "count-kxor-seed1": "81c3ed61b352b9f8cb7797b547c0220dd968e9fe52611f006171a591be711a28",
    "count-kxor-seed3": "917af7478121b261779c5aa768ce0eeded1097c7029a16eac43fb57201da04fd",
    "count-kxor-seed5": "ff917134fda589b374e31f23dd38333db4705a2ad634cc81beeb9002bc115317",
    "indset-count": "0adede11263c4795f1e5b92addc4bc8c97fdeaa75a375eaf234d21f1fbb8056f",
    "indset-count-empty-threshold": "9c0f408be32d4bfcadcd5171e808b2822744f7425132c83051258ec23b027b50",
    "indset-count-hoffman-exclusion": "69c385641eb926cdadffcb96287738069fbc0b3a40f1b5be3043aff04e6b906a",
    "indset-count-nontrivial": "8cf2423ffa71b23fc85ac8c67e04820056852ea82719866f2e5f209973ec7a69",
    "indset-count-petersen": "1163a11d180d70e288fa9edffdd40bb074fca81e5df40c2a0b5ea5a8f5451b47",
    "sk-count": "f11a93e2dd56f8efd512c35c4e38a0e3c6ce9f95017758c257a9d260d62ea175",
    "sk-count-exclusion": "7c1b54fafe6ef55b7129e3234c2be00e385212786285ae98aa408e62c2551c38",
    "sk-count-lambda-nonpositive": "2d2f0b230a89b855afe3471ea2ba2974d8c1c569d8a7916850b440d5c337e91c",
    "sk-count-nontrivial": "e6f60107c9312b489f80d7b9ed8f925e8998b6f387edfbc1041f1680f6f32c25",
}


XOR12 = ["--kind", "xor", "-k", "3", "-n", "12", "-m", "12"]
CSP10 = ["--kind", "csp", "-k", "3", "-n", "10", "-m", "40", "--seed", "1"]
REGULAR16 = ["--kind", "regular", "-n", "16", "-d", "3", "--seed", "1"]
# name -> (`solgeo gen` arguments, `solgeo oracle` arguments), one case or
# more for every `oracle --kind`
ORACLE_CASES = {
    "count-xor": ([*XOR12, "--seed", "2"], ["--kind", "count", "--eta", "0.1"]),
    "count-csp-ksat": (CSP10, ["--kind", "count", "--eta", "0.05"]),
    "count-csp-parity": (CSP10, ["--kind", "count", "--eta", "0.25", "--predicate", "xor"]),
    # 8 solutions, so a non-empty distance histogram
    "clusters": ([*XOR12, "--seed", "1"], ["--kind", "clusters", "--eta", "0.1", "--theta", "0.2"]),
    "bias-xor": ([*XOR12, "--seed", "2"], ["--kind", "bias", "--eta", "0.1"]),
    "bias-csp": (CSP10, ["--kind", "bias", "--eta", "0.05"]),
    # no satisfier: the maximum bias is null
    "bias-none": (["--kind", "xor", "-k", "3", "-n", "10", "-m", "100", "--seed", "2"],
                  ["--kind", "bias", "--eta", "0.0"]),
    "sk": (["--kind", "goe", "-n", "10", "--seed", "1"], ["--kind", "sk", "--eta", "0.1"]),
    # two chunks of 2^16 assignments
    "sk-n18": (["--kind", "goe", "-n", "18", "--seed", "1"], ["--kind", "sk", "--eta", "0.1"]),
    "indset": (REGULAR16, ["--kind", "indset", "--eta", "0.2"]),
    "indset-threshold-size": (REGULAR16, ["--kind", "indset", "--threshold-size", "5"]),
    "indset-n26": (["--kind", "regular", "-n", "26", "-d", "3", "--seed", "1"],
                   ["--kind", "indset", "--eta", "0.2"]),
    # eta 0 and a budget of 0 (0.05 * 12 clauses): GF(2) elimination
    "count-xor-exact": ([*XOR12, "--seed", "2"], ["--kind", "count"]),
    "count-xor-exact-inconsistent": ([*XOR12, "--seed", "1"], ["--kind", "count"]),
    "count-xor-budget-0": ([*XOR12, "--seed", "2"], ["--kind", "count", "--eta", "0.05"]),
}

ORACLE_GOLDEN = {
    "bias-csp": "409a64e33fe7fba020d753eaf3e8b1e89278e95916d8f3da8e9bff1f686e1fd0",
    "bias-none": "68ff925840d13ee1e5a0616c101613829f2241f08decf5220a3be253b65c4c26",
    "bias-xor": "d80235aa044dd365b638236e97b061401818efd3194bba75858fa1a48bfa25f7",
    "clusters": "46ac141043e7dd8bd7886334eb4e0f06f9f7ea60e6d0945e84d4730977d4a66e",
    "count-csp-ksat": "97f9feea1b46899437f127b99f24d0924e6274402f24c12a6559592cbbc630b1",
    "count-csp-parity": "4f44b720ffa19fa6567c98e5a849429f5925b1362f30781c6b4494a74d322699",
    "count-xor": "a20e35e5f138d833f9dfad7dd08282237e7ea20f9020f36cc7f637a1d505f6f1",
    "count-xor-budget-0": "1728f1f5b43272f0100b2a920ba762d4d721916c8a137d8733f8063e644d2936",
    "count-xor-exact": "bb1721f4dff71a87a7f8bc3ffd40d7a2a61c6c5f837962fd3680c1a04e3a774f",
    "count-xor-exact-inconsistent": "578c632e17ccbb6ec69c78e99e34981b86796b17097f58c116bc0b927ee1624e",
    "indset": "af2fb0f20038de4da6c6d0c638e316b3d289ea9c1e53b2a24e39b6b077a52560",
    "indset-n26": "f2c06accfe583bff88e0a498255bc373753d72137554e1d3a564b9094a5a90da",
    "indset-threshold-size": "4dae1449d3dc6437443c00ff812f2550862368791d6a4e03eb9d690da7959b9a",
    "sk": "af07522a128609d9405868e1cced667a27e53d4aa54fce1ea61cac3b1fc01d72",
    "sk-n18": "e80328357b82b45c606d5c266f0a398bb20b9427a6c75d9e91f2af68b578d8d8",
}


def digest(cert) -> str:
    d = cert.to_json_dict()
    d.pop("tool_version")
    return hashlib.sha256(canonical_json(d).encode()).hexdigest()


@pytest.fixture(scope="module")
def measured() -> dict:
    """{"certificates": name -> {"digest", "sha256_calls"}, "oracles":
    name -> {"digest", "exact_value"}}, from one child process."""
    here = Path(__file__).resolve().parent
    path = os.pathsep.join(filter(None, [str(here.parent / "src"), os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "PYTHONPATH": path}
    child = subprocess.run([sys.executable, __file__], env=env, capture_output=True, text=True)
    assert child.returncode == 0, child.stderr
    return json.loads(child.stdout)


@pytest.mark.parametrize("name", sorted(CASES))
def test_certificate_bytes_unchanged(name, measured):
    assert measured["certificates"][name]["digest"] == GOLDEN[name]


@pytest.mark.parametrize("name", sorted(CASES))
def test_certifier_hashes_one_instance(name, measured):
    assert measured["certificates"][name]["sha256_calls"] == 1


@pytest.mark.parametrize("name", sorted(ORACLE_CASES))
def test_oracle_file_bytes_unchanged(name, measured):
    assert measured["oracles"][name]["digest"] == ORACLE_GOLDEN[name]


def test_oracle_cases_reach_the_edge_values(measured):
    oracles = measured["oracles"]
    assert oracles["clusters"]["exact_value"]["num_solutions"] >= 2
    assert oracles["bias-none"]["exact_value"] is None
    assert oracles["count-xor-exact"]["exact_value"] == 4
    assert oracles["count-xor-exact-inconsistent"]["exact_value"] == 0


def _measure(case) -> dict:
    """The case's digest and how often it called ``sha256_of`` through the
    names ``instances`` and ``eigencount`` bind, the only ones that hash
    instance documents."""
    calls = []
    real = instances.sha256_of

    def counted(obj):
        calls.append(1)
        return real(obj)

    instances.sha256_of = eigencount.sha256_of = counted
    try:
        cert = case()
    finally:
        instances.sha256_of = eigencount.sha256_of = real
    return {"digest": digest(cert), "sha256_calls": len(calls)}


def _oracle_files() -> dict:
    """Each oracle case's file digest and exact value, written by the CLI
    in a scratch directory."""
    out = {}
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()):
        for name, (gen, oracle) in ORACLE_CASES.items():
            inst, res = os.path.join(tmp, "instance.json"), os.path.join(tmp, "oracle.json")
            assert cli.main(["gen", *gen, "--out", inst]) == 0
            assert cli.main(["oracle", *oracle, "--instance", inst, "--out", res]) == 0
            data = Path(res).read_bytes()
            out[name] = {"digest": hashlib.sha256(data).hexdigest(),
                         "exact_value": json.loads(data)["exact_value"]}
    return out


if __name__ == "__main__":
    print(json.dumps({
        "certificates": {name: _measure(case) for name, case in CASES.items()},
        "oracles": _oracle_files(),
    }))
