"""Command-line front end: instance generation, certification, oracle
verification, and grid sweeps with persisted JSON artifacts.

Exit codes: 0 success/sound, 2 usage error or unusable path, 3 soundness
violation, 4 internal error.  All outputs are canonical JSON, reproducible
byte for byte from the inputs and flags; seeds are mandatory, nothing
draws entropy from the environment, and no output records a time.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import os
import sys
from contextlib import nullcontext
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import counting, eigencount, geometry, oracle
from .certificates import DeclinedBalance
from .instances import (
    FILE_KINDS,
    MultiGraph,
    Predicate,
    SignedHypergraph,
    UnsignedHypergraph,
    XorInstance,
    read_instance,
    rendered_doc,
    sample_goe,
    sample_regular_graph,
    sample_signed_hypergraph,
    sample_unsigned_hypergraph,
)
from .jsonio import (canonical_json, decode, decode_field, read_json, read_json_lines,
                     sha256_of, write_json)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_VIOLATED = 3
EXIT_INTERNAL = 4

# Defaults shared by the certify flags and the sweep config keys.
_DEFAULTS = {"predicate": "ksat", "c0": geometry.PRIMAL_NORM_C0}
_PREDICATES = {"ksat": Predicate.ksat, "xor": Predicate.parity}

_GENERATORS = {
    "csp": lambda a: sample_signed_hypergraph(a.k, a.n, a.m, a.seed),
    "xor": lambda a: sample_signed_hypergraph(a.k, a.n, a.m, a.seed).to_xor(),
    "hypergraph": lambda a: sample_unsigned_hypergraph(a.k, a.n, a.m, a.seed),
    "graph": lambda a: MultiGraph.build(a.n, sample_unsigned_hypergraph(2, a.n, a.m, a.seed).vars),
    "regular": lambda a: sample_regular_graph(a.n, a.d, a.seed),
    "goe": lambda a: sample_goe(a.n, a.seed),
}
# The density axes, each giving the edge count m from the cell when m is unset.
_DENSITY_AXES = {
    "delta": lambda c: c["delta"] * c["n"],
    "delta_exp": lambda c: c["n"] ** (1.0 + c["delta_exp"]),
}
# The grid axes each generator reads besides n; at most one edge axis may be set.
_EDGE_AXES = ("m", *_DENSITY_AXES)
_GENERATOR_AXES = {"csp": ("k", *_EDGE_AXES), "xor": ("k", *_EDGE_AXES),
                   "hypergraph": ("k", *_EDGE_AXES), "graph": _EDGE_AXES, "regular": ("d",), "goe": ()}


def _predicate(args, instance: SignedHypergraph) -> Predicate:
    return _PREDICATES[args.predicate](instance.k)


def finite_float(text: str) -> float:
    """A float flag's value; argparse exits 2 on all but a finite number."""
    if not np.isfinite(value := float(text)):
        raise argparse.ArgumentTypeError(f"{text!r} is not a finite number")
    return value


def _required(args, name: str):
    value = getattr(args, name)
    if value is None:
        raise ValueError(f"--kind {args.kind} requires --{name.replace('_', '-')}")
    return value


def _balance_csp(I: SignedHypergraph, a):
    P, rho = _predicate(a, I), _required(a, "rho")
    if I.k == 3:
        return geometry.certify_balance_3csp(I, P, rho, a.eta, a.c0)
    return geometry.certify_balance_kcsp(I, P, rho)


def _indset_threshold(G: MultiGraph, a) -> int:
    if a.threshold_size is not None:
        return a.threshold_size
    return eigencount.IndSetConstants.for_degree(
        eigencount.regular_degree(G)).threshold_size(a.eta, G.n)


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Kind:
    """What `--kind` means to the commands: the certifier and the oracle
    for each accepted instance type, each called as f(instance, args).
    Everything about the certificate a certifier returns (its record,
    the oracle result it pairs with, the verdict and the number a sweep
    row records) is its kind's row of ``oracle.PAIRINGS``."""

    certifiers: dict
    oracles: dict
    oracle_name: str | None = None  # the `oracle --kind`, if not the row's key


KINDS = {
    "count": Kind(
        certifiers={
            MultiGraph: lambda G, a: counting.certify_count_2xor(G, a.eta),
            UnsignedHypergraph: lambda H, a: counting.certify_count_kxor(H, a.eta),
            XorInstance: lambda I, a: counting.certify_count_kxor(I.hypergraph(), a.eta),
            SignedHypergraph: lambda I, a: counting.certify_count_kcsp(I, _predicate(a, I), a.eta),
        },
        oracles={
            XorInstance: lambda I, a: oracle.brute_count(I, None, a.eta),
            SignedHypergraph: lambda I, a: oracle.brute_count(I, _predicate(a, I), a.eta),
        },
    ),
    "clusters": Kind(
        certifiers={
            XorInstance: lambda I, a: geometry.certify_clusters_3xor(I.hypergraph(), a.eta, a.c0),
            UnsignedHypergraph: lambda H, a: geometry.certify_clusters_3xor(H, a.eta, a.c0),
            SignedHypergraph: lambda I, a: geometry.certify_clusters_3csp(
                I, _predicate(a, I), a.eta, a.c0),
        },
        oracles={
            XorInstance: lambda I, a: oracle.brute_clusters(I, a.eta, _required(a, "theta")),
        },
    ),
    "balance": Kind(
        certifiers={
            SignedHypergraph: _balance_csp,
            XorInstance: lambda I, a: geometry.certify_balance_kxor(I, _required(a, "rho")),
        },
        oracles={
            XorInstance: lambda I, a: oracle.brute_max_bias(I, None, a.eta),
            SignedHypergraph: lambda I, a: oracle.brute_max_bias(I, _predicate(a, I), a.eta),
        },
        oracle_name="bias",
    ),
    "sk": Kind(
        certifiers={np.ndarray: lambda M, a: eigencount.certify_count_sk(M, a.eta)},
        oracles={np.ndarray: lambda M, a: oracle.brute_sk_opt_and_count(M, a.eta)},
    ),
    "indset": Kind(
        certifiers={MultiGraph: lambda G, a: eigencount.certify_count_indsets(G, a.eta)},
        oracles={MultiGraph: lambda G, a: oracle.brute_independent_sets(G, _indset_threshold(G, a))},
    ),
}
_ORACLE_KINDS = {row.oracle_name or name: name for name, row in KINDS.items()}


_FILE_KINDS = {t: kind or "graph" for kind, t in FILE_KINDS.items()}


def _lookup(command: str, kind: str, table: dict, instance) -> Callable:
    run = table.get(type(instance))
    if run is None:
        accepted = " or ".join(_FILE_KINDS[t] for t in table)
        raise ValueError(f"{command} --kind {kind} takes {accepted} files, "
                         f"not {_FILE_KINDS[type(instance)]} files")
    return run


def _certify(kind: str, instance, args):
    """The certificate, or the note of a balance run that declines."""
    cert = _lookup("certify", kind, KINDS[kind].certifiers, instance)(instance, args)
    return cert or DeclinedBalance(args.rho, instance.sha256())


def _verdict(cert, result: oracle.OracleResult) -> str:
    """The verdict on ``cert``; ValueError if ``result`` is ground truth
    for another instance or other parameters."""
    verdict = oracle.verify_certificate(cert, result)
    mismatch = verdict != oracle.INAPPLICABLE and oracle.binding_mismatch(cert, result)
    if mismatch:
        raise ValueError(mismatch)
    return verdict


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def cmd_gen(args: argparse.Namespace) -> int:
    write_json(args.out, {**rendered_doc(_GENERATORS[args.kind](args)), "seed": args.seed})
    print(f"wrote {args.kind} instance to {args.out}")
    return EXIT_OK


def cmd_certify(args: argparse.Namespace) -> int:
    cert = _certify(args.kind, read_instance(args.instance), args)
    write_json(args.out, cert.to_json_dict())
    print(f"wrote {cert.kind} certificate to {args.out}")
    return EXIT_OK


def cmd_oracle(args: argparse.Namespace) -> int:
    instance = read_instance(args.instance)
    run = _lookup("oracle", args.kind, KINDS[_ORACLE_KINDS[args.kind]].oracles, instance)
    res = run(instance, args)
    write_json(args.out, res.to_json_dict())
    print(f"wrote {res.kind} oracle result to {args.out}")
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    cert = oracle.certificate_from_json(read_json(args.certificate))
    verdict = _verdict(cert, oracle.OracleResult.from_json_dict(read_json(args.oracle)))
    print(verdict)
    return {oracle.SOUND: EXIT_OK, oracle.VIOLATED: EXIT_VIOLATED}.get(verdict, EXIT_USAGE)


# ---------------------------------------------------------------------------
# Sweeps
# ---------------------------------------------------------------------------

_AXIS_DEFAULTS = {"k": 3, "delta": None, "m": None, "eta": 0.0, "rho": None, "d": 3}
# The axes that size and shape an instance; the others may hold floats.
_INT_AXES = ("n", "k", "m", "d")
# Config keys besides the grid, with their defaults; rows are keyed on all of them.
_CONFIG_DEFAULTS = {"instance": "xor", **_DEFAULTS, "oracle_max_n": 0}
# The names a config key may hold, where its type alone does not decide.
_CONFIG_CHOICES = {"kind": list(KINDS), "instance": _GENERATORS, "predicate": _PREDICATES}


def _refuse_unread(names, read: list[str], what: str, by: str = "") -> None:
    """ValueError naming the first of ``names`` that the sweep does not read."""
    for name in names:
        if name not in read:
            raise ValueError(f"sweep {what} {name!r:.40} is not read{by}; it reads {', '.join(read)}")


def _sweep_cells(config: dict) -> list[dict]:
    """The grid's cells, values as written; ValueError naming a missing axis
    'n', an unread axis, or one not a list of finite numbers (integers for size and shape)."""
    grid = decode_field(config, "grid", dict, "sweep config")
    if "n" not in grid:
        raise ValueError("sweep grid lacks the axis 'n', which every generator reads")
    _refuse_unread(grid, ["n", *_AXIS_DEFAULTS, "delta_exp"], "grid axis")
    for axis, values in grid.items():
        decode(values, tuple[int, ...] if axis in _INT_AXES else tuple[float, ...],
               f"sweep grid axis {axis!r}")
    axes = sorted(grid)
    return [dict(zip(axes, combo)) for combo in itertools.product(*(grid[a] for a in axes))]


def _effective_config(config: dict) -> dict:
    """The config's kind and every `_CONFIG_DEFAULTS` key read as its
    default's type (so 3 and 3.0 are one resume key); ValueError naming an
    unread key, a key of another type, or one naming no certifiable kind,
    generator or predicate."""
    _refuse_unread(config, ["kind", "grid", "seeds", "out", *_CONFIG_DEFAULTS], "config key")
    effective = {key: decode(config.get(key, default), type(default), f"sweep config {key!r}")
                 for key, default in _CONFIG_DEFAULTS.items()}
    effective["kind"] = config.get("kind")
    for key, choices in _CONFIG_CHOICES.items():
        # the kinds are a list, so an unhashable kind is refused here too
        if effective[key] not in choices:
            raise ValueError(f"sweep config {key!r} holds {effective[key]!r:.40}, "
                             f"not one of {', '.join(choices)}")
    return effective


def _cell_hash(effective: dict, cell: dict) -> str:
    """The resume key of a cell: the cell and the effective config."""
    return sha256_of({**effective, "cell": cell})[:16]


def _refuse_unread_axes(effective: dict, cell: dict) -> None:
    """ValueError naming an axis of ``cell`` that its jobs do not read: one
    its generator does not read, a second edge count, rho off a balance
    sweep, or eta on a balance certifier that takes no slack."""
    kind, instance = effective["kind"], effective["instance"]
    edges = [axis for axis in _EDGE_AXES if axis in cell]
    if len(edges) > 1:
        raise ValueError(f"sweep grid axes {', '.join(map(repr, edges))} each give the edge "
                         "count; set at most one")
    k = cell.get("k", _AXIS_DEFAULTS["k"])
    read = ["n", *_GENERATOR_AXES[instance]]
    if kind == "balance":
        read.append("rho")
    if kind != "balance" or (instance == "csp" and k == 3):  # 3CSP balance alone takes eta
        read.append("eta")
    by = f" by {kind} on {instance} instances" + (f" at k = {k}" if "k" in read else "")
    _refuse_unread(cell, read, "grid axis", by)


def _job_args(effective: dict, cell: dict) -> dict:
    """The gen/certify/oracle arguments of a cell's jobs, all but the seed;
    ValueError naming an axis they do not read or a density axis that gives
    no edge count."""
    _refuse_unread_axes(effective, cell)
    merged = {**_AXIS_DEFAULTS, **cell}
    for axis, edges in _DENSITY_AXES.items():
        if merged.get("m") is None and merged.get(axis) is not None:
            try:
                merged["m"] = int(round(edges(merged)))
            except (ArithmeticError, TypeError):  # overflow, 0 ** -x, or complex
                raise ValueError(f"sweep grid axis {axis!r} holds {merged[axis]!r:.40}, "
                                 f"which gives no edge count at n = {merged['n']!r:.40}") from None
    merged["m"] = merged["m"] or 0
    return {**merged, **effective, "theta": None, "threshold_size": None}


def _sweep_worker(job: tuple) -> oracle.SweepRow:
    cell, cell_hash, args = job
    instance = _GENERATORS[args.instance](args)
    cert = _certify(args.kind, instance, args)
    doc = cert.to_json_dict()
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
    pairing = oracle.PAIRINGS[cert.kind]
    run = KINDS[args.kind].oracles.get(type(instance))
    if pairing.oracle_kind and run is not None and args.n <= args.oracle_max_n:
        # the oracle runs at the parameters the certificate is bound to
        vars(args).update(pairing.parameters(cert))
        res = run(instance, args)
        oracle_value = pairing.value(res.exact_value)
        sound = _verdict(cert, res) == oracle.SOUND

    return oracle.SweepRow(cell, args.seed, result, oracle_value, sound, cell_hash)


def _worker_count() -> int:
    """The sweep's pool size: ``SOLGEO_THREADS`` if set, at most the CPU
    count; ValueError if it is set to anything but an integer >= 1."""
    cap = os.environ.get("SOLGEO_THREADS")
    available = os.cpu_count() or 1
    if not cap:
        return max(1, min(available, 8))
    try:
        workers = int(cap)
    except ValueError:
        workers = 0
    if workers < 1:
        raise ValueError(f"SOLGEO_THREADS holds {cap!r:.40}, not an integer >= 1")
    return min(workers, available)


def cmd_sweep(args: argparse.Namespace) -> int:
    from multiprocessing import Pool

    config = read_json(args.config)
    config_out = decode(config.get("out"), str | None, "sweep config 'out'")
    out_path = args.out or config_out
    if not out_path:
        raise ValueError("sweep needs an output path (--out or config 'out')")
    done = set()
    if os.path.exists(out_path):
        done = {(decode_field(row, "cell_hash", str, where), decode_field(row, "seed", int, where))
                for where, row in read_json_lines(out_path)}
    seeds = decode(config.get("seeds", 1), int, "sweep config 'seeds'")
    if seeds < 0:
        raise ValueError(f"sweep config 'seeds' holds {seeds!r:.40}, not a count")
    # the whole config is checked here, once, before the output file opens
    effective = _effective_config(config)
    cells = [(cell, _cell_hash(effective, cell), _job_args(effective, cell))
             for cell in _sweep_cells(config)]
    jobs = [(cell, key, argparse.Namespace(**{**job_args, "seed": seed}))
            for cell, key, job_args in cells for seed in range(seeds) if (key, seed) not in done]

    violations = 0
    workers = min(_worker_count(), len(jobs))
    with (Pool(workers) if workers > 1 else nullcontext()) as pool:
        rows = pool.imap(_sweep_worker, jobs, chunksize=1) if pool else map(_sweep_worker, jobs)
        # no jobs, or a cell refused before the first row, leave no file and an existing one as is
        first = next(rows, None)
        if first is not None:
            with open(out_path, "a", encoding="utf-8") as fh:
                for row in itertools.chain([first], rows):
                    violations += row.sound is False
                    fh.write(canonical_json(row.to_json_dict()) + "\n")
                    fh.flush()

    if args.csv and os.path.exists(out_path):
        _export_csv(out_path, args.csv)

    print(f"sweep complete: {len(jobs)} new rows, {violations} violations")
    return EXIT_VIOLATED if violations else EXIT_OK


def _export_csv(jsonl_path: str, csv_path: str) -> None:
    """Secondary flat export of a sweep's JSONL rows; ValueError naming the
    line of a row that lacks a field or holds one of another type, before
    the CSV opens."""
    import csv

    rows = [oracle.SweepRow.from_json_dict(row, where)
            for where, row in read_json_lines(jsonl_path)]
    if not rows:
        return
    cell_keys = sorted({k for row in rows for k in row.cell})
    result_keys = sorted({k for row in rows for k in row.result})
    header = cell_keys + ["seed"] + result_keys + ["oracle", "sound", "cell_hash"]
    with open(csv_path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow(
                [row.cell.get(k, "") for k in cell_keys]
                + [row.seed]
                + [row.result.get(k, "") for k in result_keys]
                + [row.oracle, row.sound, row.cell_hash]
            )


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------

@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The `solgeo` parser, built once per process: nothing in it depends
    on argv, and `parse_args` leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="solgeo",
        description="certified bounds on the solution geometry of random CSPs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="sample a random instance to a JSON file")
    gen.add_argument("--kind", required=True, choices=list(_GENERATORS))
    gen.add_argument("-k", type=int, default=3)
    gen.add_argument("-n", type=int, required=True)
    gen.add_argument("-m", type=int, default=0)
    gen.add_argument("-d", type=int, default=3)
    gen.add_argument("--seed", type=int, required=True)
    gen.add_argument("--out", required=True)

    cert = sub.add_parser("certify", help="emit a certificate for an instance file")
    cert.add_argument("--kind", required=True, choices=list(KINDS))
    cert.add_argument("--instance", required=True)
    cert.add_argument("--out", required=True)
    cert.add_argument("--eta", type=finite_float, default=0.0)
    cert.add_argument("--rho", type=finite_float, default=None)
    cert.add_argument("--predicate", default=_DEFAULTS["predicate"], choices=list(_PREDICATES))
    cert.add_argument("--c0", type=finite_float, default=_DEFAULTS["c0"])

    orc = sub.add_parser("oracle", help="exact ground truth for an instance file")
    orc.add_argument("--kind", required=True, choices=list(_ORACLE_KINDS))
    orc.add_argument("--instance", required=True)
    orc.add_argument("--out", required=True)
    orc.add_argument("--eta", type=finite_float, default=0.0)
    orc.add_argument("--theta", type=finite_float, default=None)
    orc.add_argument("--threshold-size", type=int, default=None, dest="threshold_size")
    orc.add_argument("--predicate", default=_DEFAULTS["predicate"], choices=list(_PREDICATES))

    ver = sub.add_parser("verify", help="compare a certificate with an oracle result")
    ver.add_argument("--certificate", required=True)
    ver.add_argument("--oracle", required=True)

    swp = sub.add_parser("sweep", help="run a grid of certifications to JSONL")
    swp.add_argument("--config", required=True)
    swp.add_argument("--out", default=None)
    swp.add_argument("--csv", default=None, help="also export a flat CSV")

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        # looked up on each call: a wrapper set over a cmd_* after the parser is built runs
        return globals()[f"cmd_{args.command}"](args)
    except (ValueError, OSError) as exc:  # OSError: a path that cannot be read or written
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:  # a bug: every expected failure is a ValueError or OSError
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
