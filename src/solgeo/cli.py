"""Command-line front end: instance generation, certification, oracle
verification, and grid sweeps with persisted JSON artifacts.

Exit codes: 0 success/sound, 2 usage error, 3 soundness violation,
4 internal error.  All outputs are canonical JSON, reproducible byte for
byte from the inputs and flags; seeds are mandatory, nothing draws
entropy from the environment.
"""

from __future__ import annotations

import argparse
import itertools
import math
import os
import sys
from multiprocessing import Pool

import numpy as np

from . import counting, eigencount, geometry, oracle
from .certificates import certificate_from_json
from .instances import (
    MultiGraph,
    Predicate,
    SignedHypergraph,
    UnsignedHypergraph,
    XorInstance,
    load_instance,
    sample_goe,
    sample_regular_graph,
    sample_signed_hypergraph,
    sample_unsigned_hypergraph,
)
from .jsonio import read_json, sha256_of, write_json

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_VIOLATED = 3
EXIT_INTERNAL = 4


def _predicate(name: str, k: int) -> Predicate:
    if name == "ksat":
        return Predicate.ksat(k)
    if name == "xor":
        return Predicate.parity(k)
    raise ValueError(f"unknown predicate {name!r}")


def _matrix_json(M: np.ndarray) -> dict:
    return {
        "kind": "goe",
        "n": int(M.shape[0]),
        "matrix": M.tolist(),
    }


def _load(path: str):
    doc = read_json(path)
    if isinstance(doc, dict) and doc.get("kind") == "goe":
        return np.array(doc["matrix"], dtype=float)
    return load_instance(doc)


def _generate(kind: str, k: int, n: int, m: int, d: int, seed: int):
    if kind == "csp":
        return sample_signed_hypergraph(k, n, m, seed)
    if kind == "xor":
        return sample_signed_hypergraph(k, n, m, seed).to_xor()
    if kind == "hypergraph":
        return sample_unsigned_hypergraph(k, n, m, seed)
    if kind == "graph":
        H = sample_unsigned_hypergraph(2, n, m, seed)
        return MultiGraph.build(n, [tuple(S) for S in H.edges])
    if kind == "regular":
        return sample_regular_graph(n, d, seed)
    if kind == "goe":
        return sample_goe(n, seed)
    raise ValueError(f"unknown generator kind {kind!r}")


def cmd_gen(args: argparse.Namespace) -> int:
    obj = _generate(args.kind, args.k, args.n, args.m, args.d, args.seed)
    doc = _matrix_json(obj) if isinstance(obj, np.ndarray) else obj.to_json_dict()
    doc["seed"] = args.seed
    write_json(args.out, doc)
    print(f"wrote {args.kind} instance to {args.out}")
    return EXIT_OK


def _certify(kind: str, instance, args) -> dict:
    if kind == "count":
        if isinstance(instance, MultiGraph):
            return counting.certify_count_2xor(instance, args.eta).to_json_dict()
        if isinstance(instance, UnsignedHypergraph):
            return counting.certify_count_kxor(instance, args.eta, args.eps_exponent).to_json_dict()
        if isinstance(instance, XorInstance):
            return counting.certify_count_kxor(
                instance.hypergraph(), args.eta, args.eps_exponent
            ).to_json_dict()
        if isinstance(instance, SignedHypergraph):
            P = _predicate(args.predicate, instance.k)
            return counting.certify_count_kcsp(
                instance, P, args.eta, args.eps_exponent
            ).to_json_dict()
    if kind == "clusters":
        if isinstance(instance, (XorInstance, UnsignedHypergraph)):
            H = instance.hypergraph() if isinstance(instance, XorInstance) else instance
            return geometry.certify_clusters_3xor(H, args.eta, args.c0).to_json_dict()
        if isinstance(instance, SignedHypergraph):
            P = _predicate(args.predicate, instance.k)
            return geometry.certify_clusters_3csp(instance, P, args.eta, args.c0).to_json_dict()
    if kind == "balance":
        if args.rho is None:
            raise ValueError("balance certification requires --rho")
        cert = None
        if isinstance(instance, SignedHypergraph):
            P = _predicate(args.predicate, instance.k)
            if instance.k == 3:
                cert = geometry.certify_balance_3csp(instance, P, args.rho, args.eta)
            else:
                cert = geometry.certify_balance_kcsp(instance, P, args.rho)
        elif isinstance(instance, XorInstance) and instance.k >= 4:
            cert = geometry.certify_balance_kxor(instance, args.rho)
        else:
            raise ValueError("balance certification needs a csp or k>=4 xor instance")
        if cert is None:
            return {
                "kind": "balance-declined",
                "rho": args.rho,
                "instance_sha256": instance.sha256(),
            }
        return cert.to_json_dict()
    if kind == "sk":
        if isinstance(instance, np.ndarray):
            return eigencount.certify_count_sk(instance, args.eta).to_json_dict()
        raise ValueError("sk certification requires a goe matrix file")
    if kind == "indset":
        if isinstance(instance, MultiGraph):
            return eigencount.certify_count_indsets(instance, args.eta).to_json_dict()
        raise ValueError("indset certification requires a graph file")
    raise ValueError(f"cannot certify kind {kind!r} on {type(instance).__name__}")


def cmd_certify(args: argparse.Namespace) -> int:
    instance = _load(args.instance)
    doc = _certify(args.kind, instance, args)
    write_json(args.out, doc)
    print(f"wrote {doc['kind']} certificate to {args.out}")
    return EXIT_OK


def _oracle(kind: str, instance, args) -> oracle.OracleResult:
    if kind == "count":
        if isinstance(instance, XorInstance):
            return oracle.brute_count(instance, None, args.eta)
        if isinstance(instance, SignedHypergraph):
            return oracle.brute_count(instance, _predicate(args.predicate, instance.k), args.eta)
    if kind == "gauss":
        if isinstance(instance, XorInstance):
            return oracle.gaussian_count(instance)
    if kind == "clusters":
        if isinstance(instance, XorInstance):
            if args.theta is None:
                raise ValueError("cluster oracle requires --theta")
            res, _ = oracle.brute_clusters(instance, args.eta, args.theta)
            return res
    if kind == "bias":
        if isinstance(instance, XorInstance):
            return oracle.brute_max_bias(instance, None, args.eta)
        if isinstance(instance, SignedHypergraph):
            return oracle.brute_max_bias(instance, _predicate(args.predicate, instance.k), args.eta)
    if kind == "sk":
        if isinstance(instance, np.ndarray):
            return oracle.brute_sk_opt_and_count(instance, args.eta)
    if kind == "indset":
        if isinstance(instance, MultiGraph):
            if args.threshold_size is not None:
                threshold = args.threshold_size
            else:
                d = instance.degrees[0]
                consts = eigencount.IndSetConstants.for_degree(d)
                threshold = math.ceil(consts.C_d * (1.0 - args.eta) * instance.n - 1e-9)
            return oracle.brute_independent_sets(instance, threshold)
    raise ValueError(f"cannot run oracle kind {kind!r} on {type(instance).__name__}")


def cmd_oracle(args: argparse.Namespace) -> int:
    instance = _load(args.instance)
    res = _oracle(args.kind, instance, args)
    write_json(args.out, res.to_json_dict(timing=args.timing))
    print(f"wrote {res.kind} oracle result to {args.out}")
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    cert_doc = read_json(args.certificate)
    if cert_doc.get("kind") == "balance-declined":
        print("inapplicable: declined balance runs carry no claim")
        return EXIT_USAGE
    cert = certificate_from_json(cert_doc)
    odoc = read_json(args.oracle)
    result = oracle.OracleResult(
        odoc["kind"], odoc["exact_value"], odoc["enumeration_size"],
        odoc.get("runtime_ms", 0.0),
    )
    verdict = oracle.verify_certificate(cert, result)
    print(verdict)
    if verdict == oracle.SOUND:
        return EXIT_OK
    if verdict == oracle.VIOLATED:
        return EXIT_VIOLATED
    return EXIT_USAGE


# ---------------------------------------------------------------------------
# Sweeps
# ---------------------------------------------------------------------------

_AXIS_DEFAULTS = {"k": 3, "delta": None, "m": None, "eta": 0.0, "rho": None, "d": 3}


def _sweep_cells(config: dict) -> list[dict]:
    grid = config["grid"]
    axes = sorted(grid)
    cells = []
    for combo in itertools.product(*(grid[a] for a in axes)):
        cells.append(dict(zip(axes, combo)))
    return cells


def _cell_args(cell: dict) -> dict:
    merged = dict(_AXIS_DEFAULTS)
    merged.update(cell)
    if merged.get("m") is None and merged.get("delta") is not None:
        merged["m"] = int(round(merged["delta"] * merged["n"]))
    if merged.get("m") is None and merged.get("delta_exp") is not None:
        # density exponent axis: m = n^(1 + delta_exp)
        merged["m"] = int(round(merged["n"] ** (1.0 + merged["delta_exp"])))
    return merged


def _sweep_worker(job: tuple) -> dict:
    config, cell, seed = job
    kind = config["kind"]
    params = _cell_args(cell)
    n = params["n"]
    instance = _generate(
        config.get("instance", "xor"), params.get("k", 3), n,
        params.get("m") or 0, params.get("d", 3), seed,
    )

    class _Args:
        eta = params.get("eta", 0.0)
        rho = params.get("rho")
        eps_exponent = config.get("eps_exponent", 0.05)
        predicate = config.get("predicate", "ksat")
        c0 = config.get("c0", geometry.PRIMAL_NORM_C0)
        theta = None
        threshold_size = None

    doc = _certify(kind, instance, _Args)
    result = {
        key: doc[key]
        for key in ("kind", "log2_bound", "theta", "log2_cluster_bound",
                    "rho", "eta", "violated_fraction_bound", "fallback")
        if key in doc
    }
    checks = doc.get("checks", [])
    if checks:
        result["checks_passed"] = sum(1 for c in checks if c["passed"]) / len(checks)

    oracle_value = None
    sound = None
    oracle_max_n = config.get("oracle_max_n", 0)
    if n <= oracle_max_n:
        cert = None if doc["kind"] == "balance-declined" else certificate_from_json(doc)
        if kind == "count" and isinstance(instance, (XorInstance, SignedHypergraph)):
            P = None
            if isinstance(instance, SignedHypergraph):
                P = _predicate(config.get("predicate", "ksat"), instance.k)
            ores = oracle.brute_count(instance, P, _Args.eta)
            oracle_value = ores.exact_value
            sound = oracle.verify_certificate(cert, ores) == oracle.SOUND
        elif kind == "clusters" and isinstance(instance, XorInstance) and cert is not None:
            ores, _ = oracle.brute_clusters(instance, cert.eta, cert.theta)
            oracle_value = ores.exact_value["num_solutions"]
            sound = oracle.verify_certificate(cert, ores) == oracle.SOUND
        elif kind == "balance" and cert is not None:
            P = None
            if isinstance(instance, SignedHypergraph):
                P = _predicate(config.get("predicate", "ksat"), instance.k)
            ores = oracle.brute_max_bias(instance, P, cert.eta)
            oracle_value = ores.exact_value
            sound = oracle.verify_certificate(cert, ores) == oracle.SOUND
        elif kind == "sk":
            ores = oracle.brute_sk_opt_and_count(instance, _Args.eta)
            oracle_value = ores.exact_value["count"]
            sound = oracle.verify_certificate(cert, ores) == oracle.SOUND
        elif kind == "indset" and cert is not None:
            threshold = cert.transcript.get("threshold_size", 1)
            ores = oracle.brute_independent_sets(instance, max(int(threshold), 1))
            oracle_value = ores.exact_value["count"]
            sound = oracle.verify_certificate(cert, ores) == oracle.SOUND

    return {
        "cell": cell,
        "seed": seed,
        "result": result,
        "oracle": oracle_value,
        "sound": sound,
        "cell_hash": sha256_of({"kind": kind, "cell": cell})[:16],
    }


def _worker_count() -> int:
    cap = os.environ.get("SOLGEO_THREADS")
    available = os.cpu_count() or 1
    if cap:
        return max(1, min(int(cap), available))
    return max(1, min(available, 8))


def cmd_sweep(args: argparse.Namespace) -> int:
    config = read_json(args.config)
    out_path = args.out or config.get("out")
    if not out_path:
        raise ValueError("sweep needs an output path (--out or config 'out')")
    cells = _sweep_cells(config)
    seeds = range(config.get("seeds", 1))

    done: set[tuple[str, int]] = set()
    if os.path.exists(out_path):
        import json as _json

        with open(out_path, "r", encoding="utf-8") as fh:
            for line in fh:
                if line.strip():
                    row = _json.loads(line)
                    done.add((row["cell_hash"], row["seed"]))

    jobs = []
    for cell in cells:
        cell_hash = sha256_of({"kind": config["kind"], "cell": cell})[:16]
        for seed in seeds:
            if (cell_hash, seed) not in done:
                jobs.append((config, cell, seed))

    violations = 0
    from .jsonio import canonical_json

    with open(out_path, "a", encoding="utf-8") as fh:
        workers = _worker_count()
        if workers > 1 and len(jobs) > 1:
            with Pool(workers) as pool:
                for row in pool.imap(_sweep_worker, jobs, chunksize=1):
                    if row["sound"] is False:
                        violations += 1
                    fh.write(canonical_json(row))
                    fh.write("\n")
                    fh.flush()
        else:
            for job in jobs:
                row = _sweep_worker(job)
                if row["sound"] is False:
                    violations += 1
                fh.write(canonical_json(row))
                fh.write("\n")
                fh.flush()

    if args.csv:
        _export_csv(out_path, args.csv)

    print(f"sweep complete: {len(jobs)} new rows, {violations} violations")
    return EXIT_VIOLATED if violations else EXIT_OK


def _export_csv(jsonl_path: str, csv_path: str) -> None:
    """Secondary flat export of a sweep's JSONL rows."""
    import csv
    import json as _json

    rows = []
    with open(jsonl_path, "r", encoding="utf-8") as fh:
        for line in fh:
            if line.strip():
                rows.append(_json.loads(line))
    if not rows:
        return
    cell_keys = sorted({k for row in rows for k in row["cell"]})
    result_keys = sorted({k for row in rows for k in row["result"]})
    header = cell_keys + ["seed"] + result_keys + ["oracle", "sound", "cell_hash"]
    with open(csv_path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow(
                [row["cell"].get(k, "") for k in cell_keys]
                + [row["seed"]]
                + [row["result"].get(k, "") for k in result_keys]
                + [row["oracle"], row["sound"], row["cell_hash"]]
            )


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="solgeo",
        description="certified bounds on the solution geometry of random CSPs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="sample a random instance to a JSON file")
    gen.add_argument("--kind", required=True,
                     choices=["csp", "xor", "hypergraph", "graph", "regular", "goe"])
    gen.add_argument("-k", type=int, default=3)
    gen.add_argument("-n", type=int, required=True)
    gen.add_argument("-m", type=int, default=0)
    gen.add_argument("-d", type=int, default=3)
    gen.add_argument("--seed", type=int, required=True)
    gen.add_argument("--out", required=True)
    gen.set_defaults(func=cmd_gen)

    cert = sub.add_parser("certify", help="emit a certificate for an instance file")
    cert.add_argument("--kind", required=True,
                      choices=["count", "clusters", "balance", "sk", "indset"])
    cert.add_argument("--instance", required=True)
    cert.add_argument("--out", required=True)
    cert.add_argument("--eta", type=float, default=0.0)
    cert.add_argument("--rho", type=float, default=None)
    cert.add_argument("--eps-exponent", type=float, default=0.05, dest="eps_exponent")
    cert.add_argument("--predicate", default="ksat", choices=["ksat", "xor"])
    cert.add_argument("--c0", type=float, default=geometry.PRIMAL_NORM_C0)
    cert.set_defaults(func=cmd_certify)

    orc = sub.add_parser("oracle", help="exact ground truth for an instance file")
    orc.add_argument("--kind", required=True,
                     choices=["count", "gauss", "clusters", "bias", "sk", "indset"])
    orc.add_argument("--instance", required=True)
    orc.add_argument("--out", required=True)
    orc.add_argument("--eta", type=float, default=0.0)
    orc.add_argument("--theta", type=float, default=None)
    orc.add_argument("--threshold-size", type=int, default=None, dest="threshold_size")
    orc.add_argument("--predicate", default="ksat", choices=["ksat", "xor"])
    orc.add_argument("--timing", action="store_true")
    orc.set_defaults(func=cmd_oracle)

    ver = sub.add_parser("verify", help="compare a certificate with an oracle result")
    ver.add_argument("--certificate", required=True)
    ver.add_argument("--oracle", required=True)
    ver.set_defaults(func=cmd_verify)

    swp = sub.add_parser("sweep", help="run a grid of certifications to JSONL")
    swp.add_argument("--config", required=True)
    swp.add_argument("--out", default=None)
    swp.add_argument("--csv", default=None, help="also export a flat CSV")
    swp.set_defaults(func=cmd_sweep)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, FileNotFoundError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:  # pragma: no cover - defensive
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
