"""The benchmark's three workloads, each a fixed rotation of items.

Every item draws its instance from its own seed with the package's
samplers, then runs one certificate pipeline on it.  Parameters are fixed;
only the seed varies.  Why each workload exists is in ``README.md``.

Items call the package through module attributes (``counting.certify_*``)
rather than names bound here, so the traced run's wrappers see the calls.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
from functools import partial

from solgeo import cli, counting, eigencount, geometry, instances, spectral

from harness import ItemType, Output, canonical

DENSE_N = 2000
GOE_N = 1000
KXOR_N = 400
KXOR_M = round(KXOR_N**1.6)


# ---------------------------------------------------------------------------
# Instance documents, as the certificates are expected to bind them
# ---------------------------------------------------------------------------

def graph_doc(G) -> dict:
    return {"n": G.n, "edges": [list(e) for e in G.edges]}


def hypergraph_doc(H) -> dict:
    return {"kind": "hypergraph", "k": H.k, "n": H.n, "index_base": 0,
            "edges": [list(S) for S in H.edges]}


def csp_doc(I) -> dict:
    return {"kind": "csp", "k": I.k, "n": I.n, "index_base": 0,
            "clauses": [{"vars": list(S), "signs": list(c)} for c, S in I.clauses]}


def goe_doc(M) -> dict:
    return {"kind": "goe", "n": int(M.shape[0]), "matrix": M.tolist()}


# ---------------------------------------------------------------------------
# dense-spectral
# ---------------------------------------------------------------------------

def goe_window(seed: int) -> Output:
    M = instances.sample_goe(GOE_N, seed)
    win = eigencount.eigenspace_window(M, 0.5, "top")
    return Output(facts=[
        ("window holds the top eigenvalue", 1 <= win.count <= GOE_N),
        ("top eigenvalue positive and finite", 0.0 < win.lambda_top < math.inf),
    ])


def regular_indset(seed: int) -> Output:
    G = instances.sample_regular_graph(GOE_N, 3, seed)
    cert = eigencount.certify_count_indsets(G, 0.2).to_json_dict()
    return Output(certificates=[(cert, lambda: graph_doc(G))])


def regular_norm(seed: int) -> Output:
    G = instances.sample_regular_graph(DENSE_N, 3, seed)
    nu = spectral.demeaned_norm(G)
    # the de-meaned adjacency of a 3-regular graph has norm at most 3
    return Output(facts=[("de-meaned norm within (0, 3]", 0.0 < nu <= 3.0 + 1e-9)])


def er_2xor(seed: int) -> Output:
    H = instances.sample_unsigned_hypergraph(2, DENSE_N, int(DENSE_N**1.4), seed)
    G = instances.MultiGraph.build(DENSE_N, [tuple(S) for S in H.edges])
    cert = counting.certify_count_2xor(G, 0.0).to_json_dict()
    return Output(certificates=[(cert, lambda: graph_doc(G))])


def goe_sk(seed: int) -> Output:
    M = instances.sample_goe(GOE_N, seed)
    cert = eigencount.certify_count_sk(M, 0.1).to_json_dict()
    return Output(certificates=[(cert, lambda: goe_doc(M))])


# ---------------------------------------------------------------------------
# kxor-recursion
# ---------------------------------------------------------------------------

def kxor_small(seed: int) -> Output:
    H = instances.sample_unsigned_hypergraph(3, 100, 3000, seed)
    cert = counting.certify_count_kxor(H, 0.0).to_json_dict()
    return Output(certificates=[(cert, lambda: hypergraph_doc(H))])


def xor_clusters(seed: int) -> Output:
    H = instances.sample_unsigned_hypergraph(3, KXOR_N, KXOR_M, seed)
    cert = geometry.certify_clusters_3xor(H, 0.0).to_json_dict()
    return Output(certificates=[(cert, lambda: hypergraph_doc(H))])


def kxor_count(seed: int) -> Output:
    H = instances.sample_unsigned_hypergraph(3, KXOR_N, KXOR_M, seed)
    cert = counting.certify_count_kxor(H, 0.0).to_json_dict()
    return Output(certificates=[(cert, lambda: hypergraph_doc(H))])


def ksat_count(seed: int) -> Output:
    I = instances.sample_signed_hypergraph(3, KXOR_N, KXOR_M, seed)
    cert = counting.certify_count_ksat(I, 0.0).to_json_dict()
    return Output(certificates=[(cert, lambda: csp_doc(I))])


# ---------------------------------------------------------------------------
# desk-cli: gen -> certify -> oracle -> verify through solgeo.cli.main
# ---------------------------------------------------------------------------

def _cli(argv: list[str]) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue() + err.getvalue()


def _cli_ok(argv: list[str]) -> None:
    code, text = _cli(argv)
    if code != 0:
        raise RuntimeError(f"solgeo {argv[0]} exited {code}: {text.strip()}")


def _read_json(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _without_seed(doc: dict) -> dict:
    return {k: v for k, v in doc.items() if k != "seed"}


def _xor_hypergraph(doc: dict) -> dict:
    """Count and cluster certificates of an XOR instance hold for every
    signing, so they bind the underlying hypergraph."""
    return {"kind": "hypergraph", "k": doc["k"], "n": doc["n"], "index_base": 0,
            "edges": [c["vars"] for c in doc["clauses"]]}


def desk_item(
    workdir: str, gen: list[str], certify: list[str], oracle: list[str],
    bound_doc, seed: int, theta_from_certificate: bool = False,
) -> Output:
    inst, cert, orc = (os.path.join(workdir, f) for f in
                       ("instance.json", "certificate.json", "oracle.json"))
    _cli_ok(["gen", *gen, "--seed", str(seed), "--out", inst])
    _cli_ok(["certify", *certify, "--instance", inst, "--out", cert])
    with open(cert, encoding="utf-8") as fh:
        cert_text = fh.read()
    cert_doc = json.loads(cert_text)
    if theta_from_certificate:
        oracle = [*oracle, "--theta", repr(cert_doc["theta"])]
    _cli_ok(["oracle", *oracle, "--instance", inst, "--out", orc])
    code, printed = _cli(["verify", "--certificate", cert, "--oracle", orc])
    return Output(
        certificates=[(cert_doc, lambda: bound_doc(_read_json(inst)))],
        verdicts=[printed.strip()],
        facts=[(f"verify exit code {code} is 0", code == 0),
               ("certificate file is canonical JSON", cert_text == canonical(cert_doc) + "\n")],
    )


def desk_items(workdir: str) -> list[ItemType]:
    xor = ["--kind", "xor", "-k", "3", "-n", "14"]
    count = ["--kind", "count", "--eta", "0.05"]
    ksat = [*count, "--predicate", "ksat"]
    clusters = ["--kind", "clusters", "--eta", "0.05"]
    sk = ["--kind", "sk", "--eta", "0.1"]
    indset = ["--kind", "indset", "--eta", "0.2"]
    item = partial(desk_item, workdir)
    return [
        ItemType("count-xor", partial(item, [*xor, "-m", "112"], count, count, _xor_hypergraph)),
        ItemType("count-csp", partial(
            item, ["--kind", "csp", "-k", "3", "-n", "14", "-m", "112"], ksat, ksat, _without_seed)),
        ItemType("clusters-xor", partial(
            item, [*xor, "-m", "1960"], [*clusters, "--c0", "6"], clusters, _xor_hypergraph,
            theta_from_certificate=True)),
        ItemType("sk-goe", partial(item, ["--kind", "goe", "-n", "18"], sk, sk, _without_seed)),
        ItemType("indset-regular", partial(
            item, ["--kind", "regular", "-n", "26", "-d", "3"], indset, indset, _without_seed)),
    ]


# ---------------------------------------------------------------------------
# Registry.  The first item of each rotation doubles as the warm-up item.
# ---------------------------------------------------------------------------

WORKLOADS = ("dense-spectral", "kxor-recursion", "desk-cli")

# Wall time of one rotation, checks included, on a 2-CPU x86 box with one
# BLAS thread.  A run of ``--seconds s`` does ceil(s / this) rotations.
ROTATION_SECONDS = {"dense-spectral": 8.5, "kxor-recursion": 4.5, "desk-cli": 0.32}


def rotations(name: str, seconds: float) -> int:
    """The fixed number of rotations a run of ``seconds`` does."""
    return max(1, math.ceil(seconds / ROTATION_SECONDS[name]))


def workload_items(name: str, workdir: str) -> list[ItemType]:
    """The rotation of workload ``name``; desk-cli writes its files in
    ``workdir``."""
    if name == "dense-spectral":
        return [ItemType("goe-window", goe_window), ItemType("regular-indset", regular_indset),
                ItemType("regular-norm", regular_norm), ItemType("er-2xor", er_2xor),
                ItemType("goe-sk", goe_sk)]
    if name == "kxor-recursion":
        # The two cheap kinds run twice per rotation.  With four kinds in
        # equal numbers the median would fall in the gap between the fast
        # and the slow kinds and jump with whichever side edged nearer;
        # this way it sits in the middle of the cluster items, and the
        # nonfallback ratio averages over twice as many cheap certificates.
        small = ItemType("kxor-n100", kxor_small)
        clusters = ItemType("xor-clusters", xor_clusters)
        return [small, clusters, small, clusters,
                ItemType("kxor-n400", kxor_count), ItemType("ksat-n400", ksat_count)]
    if name == "desk-cli":
        return desk_items(workdir)
    raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
