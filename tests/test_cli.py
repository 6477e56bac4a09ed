import argparse
import json
import math
import re

import jsonschema
import numpy as np
import pytest

from conftest import thread_map
from solgeo import cli, instances, oracle, schemas
from solgeo.cli import main
from solgeo.eigencount import certify_count_indsets, refute_indset_from_count
from solgeo.instances import MultiGraph, XorInstance, instance_doc, load_instance, read_instance
from solgeo.jsonio import canonical_json, read_json, sha256_of, write_json
from solgeo.oracle import PAIRINGS


def run(*argv) -> int:
    return main(list(argv))


def validate_file(path) -> dict:
    doc = read_json(str(path))
    jsonschema.validate(doc, schemas.schema_for(doc))
    return doc


def gen(tmp_path, name, *argv):
    out = tmp_path / name
    assert run("gen", "--out", str(out), *argv) == 0
    return out


def test_gen_is_deterministic_and_valid(tmp_path):
    a = gen(tmp_path, "a.json", "--kind", "xor", "-k", "3", "-n", "20", "-m", "60", "--seed", "1")
    b = gen(tmp_path, "b.json", "--kind", "xor", "-k", "3", "-n", "20", "-m", "60", "--seed", "1")
    assert a.read_bytes() == b.read_bytes()
    doc = validate_file(a)
    assert doc["kind"] == "xor" and doc["n"] == 20
    assert doc["seed"] == 1  # generated files record their seed


@pytest.mark.parametrize("kind", sorted(cli._GENERATORS))
def test_gen_writes_the_text_the_certifiers_hash(tmp_path, kind):
    argv = ["--kind", kind, "-k", "3", "-n", "12", "-m", "30", "-d", "3", "--seed", "4"]
    out = gen(tmp_path, "i.json", *argv)
    x = cli._GENERATORS[kind](cli._build_parser().parse_args(["gen", "--out", str(out), *argv]))
    assert out.read_text() == canonical_json({**instance_doc(x), "seed": 4}) + "\n"
    doc = read_json(str(out))
    del doc["seed"]
    assert sha256_of(doc) == (sha256_of(instance_doc(x)) if isinstance(x, np.ndarray) else x.sha256())


def test_one_parser_tree_serves_every_command(tmp_path, monkeypatch):
    # each `main` call once built the whole parser tree again
    built = []
    init = argparse.ArgumentParser.__init__

    def counted_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted_init)
    cli._build_parser.cache_clear()
    inst = gen(tmp_path, "i.json", "--kind", "xor", "-k", "2", "-n", "8", "-m", "28", "--seed", "3")
    cert, orc = tmp_path / "c.json", tmp_path / "o.json"
    assert run("certify", "--kind", "count", "--instance", str(inst), "--out", str(cert)) == 0
    assert run("oracle", "--kind", "count", "--instance", str(inst), "--out", str(orc)) == 0
    assert run("verify", "--certificate", str(cert), "--oracle", str(orc)) == 0
    assert run("gen", "--kind", "goe", "-n", "3", "--seed", "1", "--out", str(tmp_path / "g.json")) == 0
    commands = ["gen", "certify", "oracle", "verify", "sweep"]
    assert built == ["solgeo"] + [f"solgeo {c}" for c in commands]


def test_the_shared_parser_keeps_no_state_between_calls(tmp_path):
    inst = gen(tmp_path, "i.json", "--kind", "csp", "-k", "3", "-n", "8", "-m", "28", "--seed", "3")
    parity, plain, again = tmp_path / "x.json", tmp_path / "o.json", tmp_path / "o2.json"
    misses = cli._build_parser.cache_info().misses
    assert run("oracle", "--kind", "count", "--instance", str(inst), "--out", str(parity),
               "--eta", "0.25", "--predicate", "xor") == 0
    assert run("oracle", "--kind", "count", "--instance", str(inst), "--out", str(plain)) == 0
    doc = validate_file(plain)
    ksat = oracle.brute_count(read_instance(str(inst)), instances.Predicate.ksat(3), 0.0)
    assert doc["eta"] == 0.0 and doc["exact_value"] == ksat.exact_value
    assert validate_file(parity)["exact_value"] != ksat.exact_value
    with pytest.raises(SystemExit) as exc:
        run("oracle", "--kind", "nope", "--instance", str(inst), "--out", str(again))
    assert exc.value.code == 2
    assert run("oracle", "--kind", "count", "--instance", str(inst), "--out", str(again)) == 0
    assert again.read_bytes() == plain.read_bytes()
    assert cli._build_parser.cache_info().misses == misses  # one parser served them all


def test_command_is_looked_up_when_it_runs(tmp_path, monkeypatch):
    # the parser is built by the first call; a wrapper set over cmd_verify later still runs
    gen(tmp_path, "i.json", "--kind", "xor", "-k", "2", "-n", "8", "-m", "28", "--seed", "3")
    calls = []
    monkeypatch.setattr(cli, "cmd_verify", lambda args: calls.append(args) or 0)
    assert run("verify", "--certificate", "c.json", "--oracle", "o.json") == 0
    assert [(args.certificate, args.oracle) for args in calls] == [("c.json", "o.json")]


def test_key_error_is_an_internal_error(monkeypatch, capsys):
    # every reader names a missing field in a ValueError, so a KeyError is a bug
    def broken(args):
        raise KeyError("x")

    monkeypatch.setattr(cli, "cmd_verify", broken)
    assert run("verify", "--certificate", "c.json", "--oracle", "o.json") == cli.EXIT_INTERNAL == 4
    assert capsys.readouterr().err == "internal error: 'x'\n"


@pytest.mark.parametrize("flag", ["--instance", "--out", "--certificate"])
def test_directory_path_is_a_usage_error(tmp_path, capsys, flag):
    # each once exited 4 with "internal error: [Errno 21] Is a directory"
    inst = gen(tmp_path, "i.json", "--kind", "xor", "-k", "3", "-n", "10", "-m", "40", "--seed", "1")
    cert, orc, folder = tmp_path / "c.json", tmp_path / "o.json", tmp_path / "folder"
    assert run("certify", "--kind", "count", "--instance", str(inst), "--out", str(cert)) == 0
    assert run("oracle", "--kind", "count", "--instance", str(inst), "--out", str(orc)) == 0
    folder.mkdir()
    paths = {"--instance": str(inst), "--out": str(tmp_path / "c2.json"), "--certificate": str(cert)}
    paths[flag] = str(folder)
    capsys.readouterr()
    if flag == "--certificate":
        code = run("verify", "--certificate", paths[flag], "--oracle", str(orc))
    else:
        code = run("certify", "--kind", "count", "--instance", paths["--instance"],
                   "--out", paths["--out"])
    assert code == 2
    assert str(folder) in capsys.readouterr().err


def test_gen_rejects_invalid_arity(tmp_path):
    assert run(
        "gen", "--kind", "xor", "-k", "1", "-n", "10", "-m", "5",
        "--seed", "0", "--out", str(tmp_path / "x.json"),
    ) == 2


def test_certify_count_pipeline(tmp_path):
    inst = gen(tmp_path, "i.json", "--kind", "xor", "-k", "2", "-n", "8", "-m", "28", "--seed", "3")
    cert = tmp_path / "cert.json"
    assert run("certify", "--kind", "count", "--instance", str(inst),
               "--eta", "0.0", "--out", str(cert)) == 0
    doc = validate_file(cert)
    assert doc["kind"] == "count"
    orc = tmp_path / "oracle.json"
    assert run("oracle", "--kind", "count", "--instance", str(inst),
               "--eta", "0.0", "--out", str(orc)) == 0
    validate_file(orc)
    assert run("verify", "--certificate", str(cert), "--oracle", str(orc)) == 0


def test_certify_count_pipeline_at_k5(tmp_path):
    # deep enough for the kXOR recursion to reach 2XOR at depth 3
    inst = gen(tmp_path, "i.json", "--kind", "xor", "-k", "5", "-n", "12", "-m", "3000", "--seed", "1")
    cert, orc = tmp_path / "cert.json", tmp_path / "oracle.json"
    assert run("certify", "--kind", "count", "--instance", str(inst), "--out", str(cert)) == 0
    assert validate_file(cert)["kind"] == "count"
    assert run("oracle", "--kind", "count", "--instance", str(inst), "--out", str(orc)) == 0
    assert run("verify", "--certificate", str(cert), "--oracle", str(orc)) == 0


def test_certify_kind_mismatch_is_usage_error(tmp_path):
    inst = gen(tmp_path, "g.json", "--kind", "regular", "-n", "10", "-d", "3", "--seed", "1")
    assert run("certify", "--kind", "sk", "--instance", str(inst),
               "--eta", "0.1", "--out", str(tmp_path / "c.json")) == 2


def test_tampered_certificate_is_violated(tmp_path):
    inst = gen(tmp_path, "i.json", "--kind", "goe", "-n", "10", "--seed", "5")
    cert = tmp_path / "cert.json"
    orc = tmp_path / "oracle.json"
    assert run("certify", "--kind", "sk", "--instance", str(inst),
               "--eta", "0.3", "--out", str(cert)) == 0
    assert run("oracle", "--kind", "sk", "--instance", str(inst),
               "--eta", "0.3", "--out", str(orc)) == 0
    assert run("verify", "--certificate", str(cert), "--oracle", str(orc)) == 0
    doc = read_json(str(cert))
    count = read_json(str(orc))["exact_value"]["count"]
    if count > 0:
        doc["log2_bound"] = 0.0
        doc["fallback"] = False
        (tmp_path / "bad.json").write_text(json.dumps(doc))
        assert run("verify", "--certificate", str(tmp_path / "bad.json"),
                   "--oracle", str(orc)) == 3


def test_certify_rerun_byte_identical(tmp_path):
    inst = gen(tmp_path, "i.json", "--kind", "csp", "-k", "3", "-n", "12", "-m", "60", "--seed", "2")
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for out in (a, b):
        assert run("certify", "--kind", "count", "--instance", str(inst),
                   "--eta", "0.05", "--out", str(out)) == 0
    assert a.read_bytes() == b.read_bytes()


def test_balance_decline_writes_marker(tmp_path, capsys):
    inst = gen(tmp_path, "i.json", "--kind", "csp", "-k", "3", "-n", "12", "-m", "48", "--seed", "4")
    out = tmp_path / "bal.json"
    assert run("certify", "--kind", "balance", "--instance", str(inst),
               "--rho", "0.05", "--eta", "0.01", "--out", str(out)) == 0
    doc = validate_file(out)
    assert doc["kind"] == "balance-declined"
    # declined artifacts are not verifiable claims
    orc = tmp_path / "o.json"
    assert run("oracle", "--kind", "bias", "--instance", str(inst),
               "--eta", "0.01", "--out", str(orc)) == 0
    capsys.readouterr()
    assert run("verify", "--certificate", str(out), "--oracle", str(orc)) == 2
    assert capsys.readouterr().out == "inapplicable\n"


def test_sweep_row_of_a_declined_balance_run(tmp_path):
    # the rows as the sweep wrote them when it built the declined note by
    # hand: the declined cell records no oracle value and no verdict, while
    # the certified one runs the oracle; each cell_hash as of 0.7.0, whose
    # resume key no longer holds eps_exponent (0.6.0 wrote fc040df1b962630e
    # and 3bb76d00e0f74192)
    config = {"kind": "balance", "instance": "csp", "seeds": 1, "oracle_max_n": 10,
              "grid": {"n": [10], "k": [3], "m": [1000], "rho": [0.05, 0.8], "eta": [0.02]}}
    cfg, out = tmp_path / "cfg.json", tmp_path / "rows.jsonl"
    cfg.write_text(json.dumps(config))
    assert run("sweep", "--config", str(cfg), "--out", str(out)) == 0
    assert out.read_text().splitlines() == [
        '{"cell":{"eta":0.02,"k":3,"m":1000,"n":10,"rho":0.050000000000000003},'
        '"cell_hash":"40024fbcbcad7545","oracle":null,"result":{"kind":"balance-declined",'
        '"rho":0.050000000000000003},"seed":0,"sound":null}',
        '{"cell":{"eta":0.02,"k":3,"m":1000,"n":10,"rho":0.80000000000000004},'
        '"cell_hash":"b5e1d557a995e4d7","oracle":null,"result":{"checks_passed":0.0,"eta":0.02,'
        '"kind":"balance","rho":0.80000000000000004,"violated_fraction_bound":0.030700145202494721},'
        '"seed":0,"sound":true}',
    ]


def test_sweep_rows_and_their_schema_are_one_record(tmp_path, capsys):
    # schemas.SWEEP_ROW once required only cell, seed, result and
    # cell_hash, while `sweep --csv` refused a row without oracle or sound
    config = {"kind": "balance", "instance": "csp", "seeds": 1, "oracle_max_n": 10,
              "grid": {"n": [10], "k": [3], "m": [1000], "rho": [0.05, 0.8], "eta": [0.02]}}
    cfg, out, csv_out = tmp_path / "cfg.json", tmp_path / "rows.jsonl", tmp_path / "rows.csv"
    cfg.write_text(json.dumps(config))
    assert run("sweep", "--config", str(cfg), "--out", str(out), "--csv", str(csv_out)) == 0
    declined, certified = [json.loads(line) for line in out.read_text().splitlines()]
    assert declined["result"]["kind"] == "balance-declined"
    assert declined["oracle"] is None and declined["sound"] is None
    for row in (declined, certified):
        jsonschema.validate(row, schemas.SWEEP_ROW)
    for field in ("oracle", "sound"):
        row = {k: v for k, v in declined.items() if k != field}
        with pytest.raises(jsonschema.ValidationError):
            jsonschema.validate(row, schemas.SWEEP_ROW)
        out.write_text(json.dumps(row) + "\n")
        capsys.readouterr()
        assert run("sweep", "--config", str(cfg), "--out", str(out), "--csv", str(csv_out)) == 2
        assert capsys.readouterr().err == f"error: {out} line 1 lacks the field '{field}'\n"


@pytest.mark.parametrize("edit, message", [
    # once only "error: 'threshold_size'"
    (lambda t: t.pop("threshold_size"), "certificate transcript lacks the field 'threshold_size'"),
    # once verified as sound: 6.0 == 6
    (lambda t: t.update(threshold_size=float(t["threshold_size"])),
     "certificate transcript field 'threshold_size' holds float 6.0, not int"),
], ids=["missing", "float"])
def test_indset_threshold_of_another_type_is_usage_error(tmp_path, capsys, edit, message):
    inst = gen(tmp_path, "g.json", "--kind", "regular", "-n", "14", "-d", "3", "--seed", "7")
    cert, orc = tmp_path / "c.json", tmp_path / "o.json"
    for command, out in (("certify", cert), ("oracle", orc)):
        assert run(command, "--kind", "indset", "--eta", "0.2", "--instance", str(inst),
                   "--out", str(out)) == 0
    doc = read_json(str(cert))
    assert doc["transcript"]["threshold_size"] == 6
    edit(doc["transcript"])
    cert.write_text(json.dumps(doc))
    capsys.readouterr()
    assert run("verify", "--certificate", str(cert), "--oracle", str(orc)) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_indset_pipeline(tmp_path):
    inst = gen(tmp_path, "g.json", "--kind", "regular", "-n", "14", "-d", "3", "--seed", "7")
    cert = tmp_path / "c.json"
    orc = tmp_path / "o.json"
    assert run("certify", "--kind", "indset", "--instance", str(inst),
               "--eta", "0.2", "--out", str(cert)) == 0
    assert run("oracle", "--kind", "indset", "--instance", str(inst),
               "--eta", "0.2", "--out", str(orc)) == 0
    validate_file(cert)
    validate_file(orc)
    assert run("verify", "--certificate", str(cert), "--oracle", str(orc)) == 0


def sweep_config(tmp_path, **overrides):
    config = {
        "kind": "count",
        "instance": "xor",
        "grid": {"n": [10], "k": [3], "delta": [4], "eta": [0.0, 0.05, 0.1]},
        "seeds": 2,
        "oracle_max_n": 12,
    }
    config.update(overrides)
    path = tmp_path / "sweep.json"
    path.write_text(json.dumps(config))
    return path


def test_sweep_rows_and_monotonicity(tmp_path):
    cfg = sweep_config(tmp_path)
    out = tmp_path / "rows.jsonl"
    assert run("sweep", "--config", str(cfg), "--out", str(out)) == 0
    rows = [json.loads(line) for line in out.read_text().splitlines()]
    assert len(rows) == 6
    for row in rows:
        jsonschema.validate(row, schemas.SWEEP_ROW)
        assert row["sound"] is True
    # certified bound nondecreasing in eta within each (cell minus eta, seed)
    by_key = {}
    for row in rows:
        key = (row["cell"]["n"], row["cell"]["delta"], row["seed"])
        by_key.setdefault(key, []).append((row["cell"]["eta"], row["result"]["log2_bound"]))
    for series in by_key.values():
        series.sort()
        bounds = [b for _, b in series]
        assert all(x <= y + 1e-9 for x, y in zip(bounds, bounds[1:]))


def test_sweep_other_kinds_and_exponent_axis(tmp_path):
    out = tmp_path / "rows.jsonl"
    configs = [
        {"kind": "sk", "instance": "goe", "grid": {"n": [10], "eta": [0.1]},
         "seeds": 2, "oracle_max_n": 10},
        {"kind": "indset", "instance": "regular",
         "grid": {"n": [12], "d": [3], "eta": [0.2]}, "seeds": 2, "oracle_max_n": 12},
        {"kind": "count", "instance": "xor",
         "grid": {"n": [10], "k": [3], "delta_exp": [0.5], "eta": [0.05]},
         "seeds": 1, "oracle_max_n": 10},
        {"kind": "clusters", "instance": "xor",
         "grid": {"n": [10], "k": [3], "delta": [20], "eta": [0.02]},
         "seeds": 1, "oracle_max_n": 10, "c0": 8.0},
    ]
    rows = []
    for config in configs:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        out.unlink(missing_ok=True)
        assert run("sweep", "--config", str(cfg), "--out", str(out)) == 0
        rows += [json.loads(line) for line in out.read_text().splitlines()]
    assert all(row["sound"] in (True, None) for row in rows)
    kinds = {row["result"]["kind"] for row in rows}
    assert {"sk-count", "indset-count"} <= kinds


def test_sweep_resume_and_single_cell_match(tmp_path):
    cfg = sweep_config(tmp_path, grid={"n": [10], "k": [3], "delta": [4], "eta": [0.05]}, seeds=1)
    out = tmp_path / "rows.jsonl"
    csv_out = tmp_path / "rows.csv"
    assert run("sweep", "--config", str(cfg), "--out", str(out), "--csv", str(csv_out)) == 0
    first = out.read_bytes()
    header = csv_out.read_text().splitlines()[0].split(",")
    assert "log2_bound" in header and "seed" in header
    assert run("sweep", "--config", str(cfg), "--out", str(out)) == 0
    assert out.read_bytes() == first  # rerun adds nothing

    # a one-cell sweep reproduces the standalone certify bound
    row = json.loads(first)
    inst = gen(tmp_path, "i.json", "--kind", "xor", "-k", "3", "-n", "10", "-m", "40", "--seed", "0")
    cert = tmp_path / "c.json"
    assert run("certify", "--kind", "count", "--instance", str(inst),
               "--eta", "0.05", "--out", str(cert)) == 0
    assert read_json(str(cert))["log2_bound"] == row["result"]["log2_bound"]


def test_verify_refuses_oracle_of_another_instance(tmp_path, capsys):
    # an oracle for a different instance once passed as evidence: "sound"
    a = gen(tmp_path, "a.json", "--kind", "xor", "-k", "3", "-n", "12", "-m", "48", "--seed", "1")
    b = gen(tmp_path, "b.json", "--kind", "xor", "-k", "3", "-n", "14", "-m", "56", "--seed", "2")
    cert, orc = tmp_path / "c.json", tmp_path / "o.json"
    assert run("certify", "--kind", "count", "--instance", str(a),
               "--eta", "0.3", "--out", str(cert)) == 0
    assert run("oracle", "--kind", "count", "--instance", str(b),
               "--eta", "0.3", "--out", str(orc)) == 0
    capsys.readouterr()
    assert run("verify", "--certificate", str(cert), "--oracle", str(orc)) == 2
    captured = capsys.readouterr()
    assert "instance" in captured.err and "sound" not in captured.out


def test_oracle_binds_instance_and_parameters(tmp_path):
    inst = gen(tmp_path, "i.json", "--kind", "xor", "-k", "3", "-n", "10", "-m", "40", "--seed", "3")
    orc = tmp_path / "o.json"
    assert run("oracle", "--kind", "count", "--instance", str(inst),
               "--eta", "0.1", "--out", str(orc)) == 0
    doc = validate_file(orc)
    # XOR count certificates hold for every signing and bind the hypergraph
    H = XorInstance.from_json_dict(read_json(str(inst))).hypergraph()
    assert doc["instance_sha256"] == H.sha256()
    assert doc["eta"] == 0.1 and "theta" not in doc


@pytest.mark.parametrize("command, flag", [("certify", ["--eps-exponent=inf"]),
                                           ("certify", ["--eps-exponent=nan"]),
                                           ("certify", ["--eps-exponent=-inf"]),
                                           ("oracle", ["--timing"])],
                         ids=["certify---eps-exponent-inf", "certify---eps-exponent-nan",
                              "certify---eps-exponent--inf", "oracle---timing"])
def test_removed_flags_are_unrecognized(tmp_path, capsys, command, flag):
    # the kXOR block margin is a constant, and no output records a wall time;
    # the values the old flag refused as not finite now meet an unknown flag
    inst = gen(tmp_path, "i.json", "--kind", "xor", "-k", "3", "-n", "8", "-m", "28", "--seed", "3")
    out = tmp_path / "o.json"
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        run(command, "--kind", "count", "--instance", str(inst), "--out", str(out), *flag)
    assert exc.value.code == 2
    assert f"unrecognized arguments: {' '.join(flag)}" in capsys.readouterr().err
    assert not out.exists()


def test_oracle_file_with_a_wall_time_still_verifies(tmp_path):
    # files of 0.6.0 and before could carry runtime_ms; the reader passes over it
    inst = gen(tmp_path, "i.json", "--kind", "xor", "-k", "2", "-n", "8", "-m", "28", "--seed", "3")
    cert, orc = tmp_path / "c.json", tmp_path / "o.json"
    assert run("certify", "--kind", "count", "--instance", str(inst), "--out", str(cert)) == 0
    assert run("oracle", "--kind", "count", "--instance", str(inst), "--out", str(orc)) == 0
    doc = read_json(str(orc))
    assert "runtime_ms" not in doc
    write_json(str(orc), {**doc, "runtime_ms": 1.5})
    assert run("verify", "--certificate", str(cert), "--oracle", str(orc)) == 0


XOR10 = ["--kind", "xor", "-k", "3", "-n", "10", "-m", "30"]
# `gen` arguments and extra `oracle` flags for each `oracle --kind`
ORACLE_RUNS = {
    "count": (XOR10, []),
    "clusters": (XOR10, ["--theta", "0.2"]),
    "bias": (XOR10, []),
    "sk": (["--kind", "goe", "-n", "8"], []),
    "indset": (["--kind", "regular", "-n", "12", "-d", "3"], []),
}


@pytest.mark.parametrize("kind", sorted(cli._ORACLE_KINDS))
def test_every_oracle_kind_writes_a_result_a_certificate_pairs_with(tmp_path, kind):
    # `oracle --kind gauss` once wrote a gauss-count result that no certificate paired with
    gen_args, flags = ORACLE_RUNS[kind]
    inst, orc = gen(tmp_path, "i.json", *gen_args, "--seed", "1"), tmp_path / "o.json"
    assert run("oracle", "--kind", kind, *flags, "--instance", str(inst), "--out", str(orc)) == 0
    assert validate_file(orc)["kind"] in {row.oracle_kind for row in PAIRINGS.values()}


def test_oracle_kind_gauss_is_gone(tmp_path):
    inst = gen(tmp_path, "i.json", *XOR10, "--seed", "1")
    with pytest.raises(SystemExit) as exc:
        run("oracle", "--kind", "gauss", "--instance", str(inst), "--out", str(tmp_path / "o.json"))
    assert exc.value.code == 2


def test_eta_0_xor_count_sweep_checks_every_row_past_enumeration(tmp_path):
    # n = 30 once exited 2: "enumeration limited to n <= 24"
    grid = {"n": [30, 100], "k": [3], "delta": [0.5, 4], "eta": [0.0]}
    cfg, out = sweep_config(tmp_path, grid=grid, oracle_max_n=100), tmp_path / "rows.jsonl"
    assert run("sweep", "--config", str(cfg), "--out", str(out)) == 0
    rows = [json.loads(line) for line in out.read_text().splitlines()]
    assert len(rows) == 8
    assert all(type(row["oracle"]) is int and row["sound"] is True for row in rows)
    assert any(row["oracle"] > 0 for row in rows) and any(row["oracle"] == 0 for row in rows)


@pytest.mark.parametrize("doc", [
    {"kind": "xor", "k": 1, "n": 4, "clauses": [{"vars": [0], "rhs": 1}, {"vars": [2], "rhs": -1}]},
    {"kind": "hypergraph", "k": 1, "n": 4, "edges": [[0], [2]]},
], ids=["xor", "hypergraph"])
def test_count_certificate_refuses_arity_1(tmp_path, capsys, doc):
    # the kXOR recursion once built a 0-uniform block: "k and n must be positive"
    inst, cert = tmp_path / "i.json", tmp_path / "c.json"
    write_json(str(inst), doc)
    capsys.readouterr()
    assert run("certify", "--kind", "count", "--instance", str(inst), "--out", str(cert)) == 2
    assert capsys.readouterr().err == "error: kXOR counting requires k >= 2, got k = 1\n"
    assert not cert.exists()


@pytest.mark.parametrize("instance, certify, message", [
    (["csp", "-k", "2", "-m", "40"], ["count"], "the XOR principle requires k >= 3"),
    (["csp", "-k", "3", "-m", "0"], ["count"], "cannot certify an empty instance"),
    (["csp", "-k", "3", "-m", "0"], ["clusters"], "cannot certify an empty instance"),
    (["csp", "-k", "3", "-m", "200"], ["count", "--eta", "-0.1"], "eta must be nonnegative"),
    (["csp", "-k", "3", "-m", "200"], ["clusters", "--eta", "-0.1"], "eta must be nonnegative"),
    (["xor", "-k", "3", "-m", "200"], ["balance", "--rho", "0.5"],
     "balance certification needs a csp or k>=4 xor instance"),
], ids=["count-k2", "count-m0", "clusters-m0", "count-eta", "clusters-eta", "balance-xor-k3"])
def test_certify_guard_is_one_usage_line(tmp_path, capsys, instance, certify, message):
    inst = gen(tmp_path, "i.json", "--kind", *instance, "-n", "10", "--seed", "1")
    out = tmp_path / "c.json"
    capsys.readouterr()
    assert run("certify", "--kind", *certify, "--instance", str(inst), "--out", str(out)) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def test_verify_refuses_other_parameters(tmp_path):
    xor = gen(tmp_path, "x.json", "--kind", "xor", "-k", "3", "-n", "10", "-m", "200", "--seed", "4")
    reg = gen(tmp_path, "g.json", "--kind", "regular", "-n", "12", "-d", "3", "--seed", "4")
    cases = [
        (xor, ["--kind", "count", "--eta", "0.1"], ["--kind", "count", "--eta", "0.2"]),
        (xor, ["--kind", "clusters", "--eta", "0.05", "--c0", "6"],
         ["--kind", "clusters", "--eta", "0.05", "--theta", "0.1"]),
        (reg, ["--kind", "indset", "--eta", "0.2"],
         ["--kind", "indset", "--eta", "0.2", "--threshold-size", "1"]),
    ]
    cert, orc = tmp_path / "c.json", tmp_path / "o.json"
    for inst, certify, oracle in cases:
        assert run("certify", *certify, "--instance", str(inst), "--out", str(cert)) == 0
        assert run("oracle", *oracle, "--instance", str(inst), "--out", str(orc)) == 0
        assert run("verify", "--certificate", str(cert), "--oracle", str(orc)) == 2


def test_verify_refuses_a_negative_count(tmp_path, capsys):
    # an oracle file edited to a count of -7 was once "sound"
    inst = gen(tmp_path, "i.json", "--kind", "xor", "-k", "3", "-n", "10", "-m", "40", "--seed", "3")
    cert, orc = tmp_path / "c.json", tmp_path / "o.json"
    assert run("certify", "--kind", "count", "--instance", str(inst), "--out", str(cert)) == 0
    assert run("oracle", "--kind", "count", "--instance", str(inst), "--out", str(orc)) == 0
    write_json(str(orc), {**read_json(str(orc)), "exact_value": -7})
    capsys.readouterr()
    assert run("verify", "--certificate", str(cert), "--oracle", str(orc)) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: oracle exact_value holds -7, not a count\n"
    assert captured.out == ""


def test_verify_refuses_oracle_file_without_instance(tmp_path):
    inst = gen(tmp_path, "i.json", "--kind", "xor", "-k", "2", "-n", "8", "-m", "28", "--seed", "3")
    cert, orc = tmp_path / "c.json", tmp_path / "o.json"
    assert run("certify", "--kind", "count", "--instance", str(inst), "--out", str(cert)) == 0
    assert run("oracle", "--kind", "count", "--instance", str(inst), "--out", str(orc)) == 0
    doc = read_json(str(orc))
    del doc["instance_sha256"]  # the oracle format of version 0.2.0
    orc.write_text(json.dumps(doc))
    assert run("verify", "--certificate", str(cert), "--oracle", str(orc)) == 2


def test_sweep_resume_keys_on_effective_config(tmp_path):
    grid = {"n": [10], "k": [3], "delta": [4], "eta": [0.05]}
    out = tmp_path / "rows.jsonl"
    assert run("sweep", "--config", str(sweep_config(tmp_path, grid=grid, seeds=1)),
               "--out", str(out)) == 0
    assert len(out.read_text().splitlines()) == 1
    # another instance family is another sweep, even with the same cell
    csp = sweep_config(tmp_path, grid=grid, seeds=1, instance="csp")
    assert run("sweep", "--config", str(csp), "--out", str(out)) == 0
    rows = [json.loads(line) for line in out.read_text().splitlines()]
    assert len(rows) == 2 and rows[0]["cell_hash"] != rows[1]["cell_hash"]
    # spelling out the defaults changes nothing
    for c0 in (3.0, 3):
        explicit = sweep_config(tmp_path, grid=grid, seeds=1, instance="csp", predicate="ksat",
                                c0=c0)
        assert run("sweep", "--config", str(explicit), "--out", str(out)) == 0
        assert len(out.read_text().splitlines()) == 2, c0
    for key, value in [("predicate", "xor"), ("c0", 4.0), ("oracle_max_n", 0)]:
        config = sweep_config(tmp_path, grid=grid, seeds=1, instance="csp", **{key: value})
        before = len(out.read_text().splitlines())
        assert run("sweep", "--config", str(config), "--out", str(out)) == 0
        assert len(out.read_text().splitlines()) == before + 1, key


@pytest.mark.parametrize("config", [
    {"seeds": "2"},
    {"grid": {"n": 12, "k": [3], "delta": [4]}},
    {"grid": {"n": ["12"], "k": [3], "delta": [4]}},
    {"grid": {"n": [12.5], "k": [3], "delta": [4]}},
    {"oracle_max_n": "12"},
    {"c0": "6"},
    {"predicate": "maj"},
    {"instance": "ring"},
    {"eps_exponent": True},
], ids=["seeds-string", "axis-not-list", "axis-value-string", "size-float",
        "oracle-max-n-string", "c0-string", "predicate-unknown", "instance-unknown",
        "eps-exponent-bool"])
def test_malformed_sweep_config_is_usage_error(tmp_path, capsys, config):
    # each of these once exited 4, an internal error, or was accepted and
    # changed only the resume key
    cfg, out = sweep_config(tmp_path, **config), tmp_path / "rows.jsonl"
    capsys.readouterr()
    assert run("sweep", "--config", str(cfg), "--out", str(out)) == 2
    err = capsys.readouterr().err
    key = "n" if "grid" in config else next(iter(config))
    assert err.startswith("error: ") and f"'{key}'" in err
    assert not out.exists()  # refused before any job ran


@pytest.mark.parametrize("kind", [["count"], "bogus", "gauss", None],
                         ids=["list", "unknown", "no-certifier", "missing"])
def test_sweep_config_kind_names_a_certifiable_kind(tmp_path, capsys, kind):
    # a list once exited 4, an internal error; the others printed only
    # the key, as `error: 'bogus'` or `error: 'kind'`
    cfg, out = sweep_config(tmp_path, kind=kind), tmp_path / "rows.jsonl"
    if kind is None:
        config = json.loads(cfg.read_text())
        del config["kind"]
        cfg.write_text(json.dumps(config))
    capsys.readouterr()
    assert run("sweep", "--config", str(cfg), "--out", str(out)) == 2
    assert capsys.readouterr().err == (
        f"error: sweep config 'kind' holds {kind!r}, "
        "not one of count, clusters, balance, sk, indset\n")
    assert not out.exists()


@pytest.mark.parametrize("config, unread", [
    ({"kind": "clusters", "grid": {"n": [14], "m": [1960], "eta": [0.05], "c0": [3, 6]}},
     "grid axis 'c0'"),
    ({"oracel_max_n": 14}, "config key 'oracel_max_n'"),
    ({"eps_exponent": 0.05}, "config key 'eps_exponent'"),
], ids=["grid-axis-c0", "misspelled-key", "eps-exponent"])
def test_sweep_refuses_a_key_or_axis_it_does_not_read(tmp_path, capsys, config, unread):
    # the c0 axis was once overridden by the config's c0, so the row of its
    # cell c0 = 6 was a fallback that `certify --c0 6` does not give; the
    # misspelled key ran no oracle, and the sweep reported 0 violations
    cfg, out = sweep_config(tmp_path, **config), tmp_path / "rows.jsonl"
    capsys.readouterr()
    assert run("sweep", "--config", str(cfg), "--out", str(out)) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: sweep {unread} is not read; it reads ")
    assert not out.exists()  # refused before any job ran


@pytest.mark.parametrize("config, refused", [
    ({"grid": {"n": [10], "k": [3], "m": [40], "delta": [4, 8], "rho": [0.1, 0.2]}},
     "axes 'm', 'delta' each give the edge count; set at most one"),
    ({"grid": {"n": [10], "k": [3], "delta": [4], "delta_exp": [0.5]}},
     "axes 'delta', 'delta_exp' each give the edge count; set at most one"),
    ({"grid": {"n": [10], "k": [3], "m": [40], "rho": [0.1, 0.2]}},
     "axis 'rho' is not read by count on xor instances at k = 3; "
     "it reads n, k, m, delta, delta_exp, eta"),
    ({"kind": "sk", "instance": "goe", "grid": {"n": [10], "k": [3, 5], "d": [3, 4]}},
     "axis 'd' is not read by sk on goe instances; it reads n, eta"),
    ({"kind": "indset", "instance": "regular", "grid": {"n": [12], "d": [3], "m": [18]}},
     "axis 'm' is not read by indset on regular instances; it reads n, d, eta"),
    ({"kind": "count", "instance": "graph", "grid": {"n": [12], "k": [2], "m": [18]}},
     "axis 'k' is not read by count on graph instances; it reads n, m, delta, delta_exp, eta"),
    ({"kind": "balance", "grid": {"n": [10], "k": [4], "m": [200], "rho": [0.5],
                                  "eta": [0.0, 0.1]}},
     "axis 'eta' is not read by balance on xor instances at k = 4; "
     "it reads n, k, m, delta, delta_exp, rho"),
    ({"kind": "balance", "instance": "csp",
      "grid": {"n": [10], "k": [3, 4], "m": [400], "rho": [0.5], "eta": [0.1]}},
     "axis 'eta' is not read by balance on csp instances at k = 4; "
     "it reads n, k, m, delta, delta_exp, rho"),
], ids=["m-and-delta", "delta-and-delta-exp", "rho-on-count", "k-and-d-on-goe", "m-on-regular",
        "k-on-graph", "eta-on-xor-balance", "eta-on-4csp-balance"])
def test_sweep_refuses_an_axis_its_jobs_do_not_read(tmp_path, capsys, config, refused):
    # each once wrote one row per value of the unread axis, all of one
    # instance and one certificate: the count sweep four rows of the same
    # log2_bound, the sk sweep four rows of one certificate
    cfg, out = sweep_config(tmp_path, **config), tmp_path / "rows.jsonl"
    capsys.readouterr()
    assert run("sweep", "--config", str(cfg), "--out", str(out)) == 2
    assert capsys.readouterr().err == f"error: sweep grid {refused}\n"
    assert not out.exists()  # refused before any job ran


def test_certify_balance_3csp_reads_c0(tmp_path):
    # a 3CSP balance run once ignored --c0: --c0 9 wrote the bytes of --c0 3
    inst = gen(tmp_path, "i.json", "--kind", "csp", "-k", "3", "-n", "14", "-m", "1960", "--seed", "1")
    docs = {}
    for c0 in (None, "3", "9"):
        out = tmp_path / f"b{c0}.json"
        flags = ["--c0", c0] if c0 else []
        assert run("certify", "--kind", "balance", "--instance", str(inst), "--rho", "0.85",
                   "--eta", "0.02", *flags, "--out", str(out)) == 0
        docs[c0] = validate_file(out)
    assert docs[None] == docs["3"] != docs["9"]
    for low, high in zip(docs["3"]["checks"], docs["9"]["checks"]):
        assert low["name"] == high["name"] == "primal-norm"
        assert high["threshold"] == pytest.approx(3 * low["threshold"])


def test_sweep_with_no_jobs_leaves_no_rows_file(tmp_path):
    # "seeds": 0 once left an empty rows file
    out, csv_out = tmp_path / "rows.jsonl", tmp_path / "rows.csv"
    cfg = sweep_config(tmp_path, seeds=0)
    assert run("sweep", "--config", str(cfg), "--out", str(out), "--csv", str(csv_out)) == 0
    assert not out.exists() and not csv_out.exists()


def test_sweep_resume_hashes_are_unchanged():
    # recorded at 0.7.0, when eps_exponent left the effective config (0.6.0
    # gave a7ff39db31771168 and 171d54d732f3c2d5)
    config = {"kind": "count", "instance": "xor", "oracle_max_n": 12,
              "grid": {"n": [10], "k": [3], "delta": [4], "eta": [0.05]}}
    cell = {"n": 10, "k": 3, "delta": 4, "eta": 0.05}
    assert cli._cell_hash(cli._effective_config(config), cell) == "4f1a6208f07d22da"
    config = {"kind": "clusters", "instance": "csp", "predicate": "xor", "c0": 4.0, "grid": {}}
    assert cli._cell_hash(cli._effective_config(config), {}) == "ed779b2ad34a3622"


@pytest.mark.parametrize("key, value", [("c0", 3), ("c0", 0)])
def test_sweep_resume_key_holds_an_int_float_key_as_a_float(key, value):
    # an int once hashed as an int: "c0": 3 was another sweep than the
    # default 3.0, and "c0": 0 another than 0.0
    config = {"kind": "count", "grid": {}}
    as_float = cli._cell_hash(cli._effective_config({**config, key: float(value)}), {})
    assert cli._cell_hash(cli._effective_config({**config, key: value}), {}) == as_float


@pytest.mark.parametrize("axis, value", [("delta_exp", 400), ("delta", 1e308)])
def test_sweep_density_axis_without_an_edge_count_is_usage_error(tmp_path, capsys, axis, value):
    # delta_exp = 400 once exited 4 on an OverflowError, after the output
    # file was created
    cfg = sweep_config(tmp_path, grid={"n": [10], "k": [3], axis: [value]})
    out = tmp_path / "rows.jsonl"
    capsys.readouterr()
    assert run("sweep", "--config", str(cfg), "--out", str(out)) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and f"'{axis}'" in err
    assert not out.exists()


@pytest.mark.parametrize("density", [{"m": [10]}, {"delta": [4]}], ids=["m", "delta"])
def test_sweep_grid_without_n_is_refused_before_any_job(tmp_path, capsys, density):
    # every generator reads n: the m grid once exited 4, the delta grid
    # printed only "error: 'n'"
    cfg, out = sweep_config(tmp_path, grid={"k": [3], **density}), tmp_path / "rows.jsonl"
    capsys.readouterr()
    assert run("sweep", "--config", str(cfg), "--out", str(out)) == 2
    assert capsys.readouterr().err == (
        "error: sweep grid lacks the axis 'n', which every generator reads\n")
    assert not out.exists()


def test_sweep_config_takes_an_int_for_a_float_key(tmp_path):
    grid = {"n": [10], "k": [3], "delta": [4], "eta": [0.05]}
    out = tmp_path / "rows.jsonl"
    config = sweep_config(tmp_path, grid=grid, seeds=1, c0=3)
    assert run("sweep", "--config", str(config), "--out", str(out)) == 0
    assert len(out.read_text().splitlines()) == 1


@pytest.mark.parametrize("grid", [{"n": [2], "k": [3], "delta": [4]},
                                  {"n": [10], "k": [3], "delta": [4], "eta": [-0.5]}],
                         ids=["n-below-k", "eta-negative"])
def test_sweep_refused_at_its_first_cell_leaves_the_output_as_it_was(tmp_path, capsys, grid):
    # each once exited 2 and left an empty rows file behind
    out, csv_out = tmp_path / "rows.jsonl", tmp_path / "rows.csv"
    bad = sweep_config(tmp_path, grid=grid, seeds=1).rename(tmp_path / "bad.json")
    good = sweep_config(tmp_path, grid={"n": [10], "k": [3], "delta": [4]}, seeds=1)
    capsys.readouterr()
    assert run("sweep", "--config", str(bad), "--out", str(out)) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()
    assert run("sweep", "--config", str(good), "--out", str(out)) == 0
    rows = out.read_bytes()
    assert run("sweep", "--config", str(bad), "--out", str(out)) == 2
    assert out.read_bytes() == rows
    # a sweep with no new rows still exits 0 and exports the rows there are
    assert run("sweep", "--config", str(good), "--out", str(out), "--csv", str(csv_out)) == 0
    assert out.read_bytes() == rows and len(csv_out.read_text().splitlines()) == 2


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_non_json_number_in_a_certificate_is_usage_error(tmp_path, capsys, value):
    # json.dumps writes NaN, Infinity and -Infinity, which JSON has no number for;
    # a NaN bound once verified as violated (exit 3) and an infinite one as sound
    inst = gen(tmp_path, "i.json", "--kind", "xor", "-k", "3", "-n", "14", "-m", "30", "--seed", "3")
    cert, orc = tmp_path / "c.json", tmp_path / "o.json"
    for command, out in (("certify", cert), ("oracle", orc)):
        assert run(command, "--kind", "count", "--eta", "0.3", "--instance", str(inst),
                   "--out", str(out)) == 0
    doc = read_json(str(cert))
    doc.update(fallback=False, log2_bound=value)
    cert.write_text(json.dumps(doc))
    capsys.readouterr()
    assert run("verify", "--certificate", str(cert), "--oracle", str(orc)) == 2
    assert capsys.readouterr().err == (
        f"error: {cert} holds {json.dumps(value)} at ['log2_bound'], not a finite JSON number\n")


def test_non_json_number_in_sweep_rows_is_usage_error(tmp_path, capsys):
    # a NaN in a rows file was once read back and exported to the CSV as "nan"
    cfg = sweep_config(tmp_path, grid={"n": [10], "k": [3], "delta": [4]}, seeds=1)
    out = tmp_path / "rows.jsonl"
    assert run("sweep", "--config", str(cfg), "--out", str(out)) == 0
    row = json.loads(out.read_text())
    out.write_text(json.dumps({**row, "oracle": math.nan}) + "\n")
    capsys.readouterr()
    assert run("sweep", "--config", str(cfg), "--out", str(out),
               "--csv", str(tmp_path / "rows.csv")) == 2
    assert capsys.readouterr().err == (
        f"error: {out} line 1 holds NaN at ['oracle'], not a finite JSON number\n")


@pytest.mark.parametrize("literal, shown", [
    ("1e400", "float inf"),  # json reads it as inf: once verified as sound
    # once "internal error: int too large to convert to float" (exit 4)
    pytest.param("1" + "0" * 400, "int 1" + "0" * 39, id="401-digit-int"),
])
def test_certificate_number_beyond_a_float_is_usage_error(tmp_path, capsys, literal, shown):
    inst = gen(tmp_path, "i.json", "--kind", "xor", "-k", "3", "-n", "14", "-m", "30", "--seed", "3")
    cert, orc = tmp_path / "c.json", tmp_path / "o.json"
    for command, out in (("certify", cert), ("oracle", orc)):
        assert run(command, "--kind", "count", "--eta", "0.3", "--instance", str(inst),
                   "--out", str(out)) == 0
    doc = read_json(str(cert))
    doc.update(fallback=False, log2_bound=0.5)
    cert.write_text(json.dumps(doc).replace('"log2_bound": 0.5', f'"log2_bound": {literal}'))
    capsys.readouterr()
    assert run("verify", "--certificate", str(cert), "--oracle", str(orc)) == 2
    assert capsys.readouterr().err == (
        f"error: CountCertificate field 'log2_bound' holds {shown}, not finite float\n")


def test_file_that_is_not_json_is_named(tmp_path, capsys):
    # json's bare "Expecting value: line 1 column 1 (char 0)" once named no file
    cert = tmp_path / "nj.json"
    cert.write_text("not json")
    capsys.readouterr()
    assert run("verify", "--certificate", str(cert), "--oracle", str(cert)) == 2
    assert capsys.readouterr().err == (
        f"error: {cert} is not JSON: Expecting value: line 1 column 1 (char 0)\n")
    cfg = sweep_config(tmp_path, grid={"n": [10], "k": [3], "delta": [4]}, seeds=1)
    out = tmp_path / "rows.jsonl"
    assert run("sweep", "--config", str(cfg), "--out", str(out)) == 0
    out.write_text(out.read_text() + "not json\n")
    capsys.readouterr()
    assert run("sweep", "--config", str(cfg), "--out", str(out)) == 2
    assert capsys.readouterr().err == (
        f"error: {out} line 2 is not JSON: Expecting value: line 1 column 1 (char 0)\n")


@pytest.mark.parametrize("threads", ["abc", "-3"])
def test_malformed_solgeo_threads_is_usage_error(tmp_path, capsys, monkeypatch, threads):
    # "abc" once exited with int()'s message, and -3 meant one worker
    monkeypatch.setenv("SOLGEO_THREADS", threads)
    cfg, out = sweep_config(tmp_path), tmp_path / "rows.jsonl"
    capsys.readouterr()
    assert run("sweep", "--config", str(cfg), "--out", str(out)) == 2
    assert capsys.readouterr().err == (
        f"error: SOLGEO_THREADS holds {threads!r}, not an integer >= 1\n")
    assert not out.exists()


@pytest.mark.parametrize("value", ["inf", "nan", "-inf"])
@pytest.mark.parametrize("command, flag", [
    ("certify", "--eta"), ("certify", "--rho"), ("certify", "--c0"),
    ("oracle", "--eta"), ("oracle", "--theta"),
])
def test_nonfinite_float_flag_is_usage_error(tmp_path, capsys, command, flag, value):
    # --eta inf once exited 4 ("cannot convert float infinity to integer"),
    # and --c0 nan exited 2 only after all the work, with the serializer's message
    inst = gen(tmp_path, "x.json", "--kind", "xor", "-k", "3", "-n", "12", "-m", "60", "--seed", "1")
    out = tmp_path / "o.json"
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        run(command, "--kind", "count", "--instance", str(inst), "--out", str(out), f"{flag}={value}")
    assert exc.value.code == 2
    assert f"argument {flag}: {value!r} is not a finite number" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("key, config", [
    ("eta", {"grid": {"n": [10], "k": [3], "delta": [4], "eta": [0.05, math.inf]}}),
    ("rho", {"grid": {"n": [10], "k": [3], "delta": [4], "rho": [math.nan]}}),
    ("c0", {"c0": math.inf}),
    ("c0", {"c0": -math.inf}),
    ("c0", {"c0": math.nan}),
], ids=["grid-eta-inf", "grid-rho-nan", "c0-inf", "c0-minus-inf", "c0-nan"])
def test_nonfinite_sweep_number_is_usage_error(tmp_path, capsys, key, config):
    # a grid "eta": [Infinity] once exited 2 with only the serializer's
    # message, after the jobs had run
    cfg, out = sweep_config(tmp_path, **config), tmp_path / "rows.jsonl"
    capsys.readouterr()
    assert run("sweep", "--config", str(cfg), "--out", str(out)) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and f"'{key}'" in err and "finite" in err
    assert not out.exists()


@pytest.mark.parametrize("threads", ["abc", "-3"])
def test_test_thread_pool_shares_the_sweep_rule(monkeypatch, threads):
    # the tests' thread_map once read SOLGEO_THREADS with a bare int():
    # "abc" failed with int()'s message, and -3 meant one thread
    monkeypatch.setenv("SOLGEO_THREADS", threads)
    with pytest.raises(ValueError) as exc:
        thread_map(abs, [-1, 2])
    assert str(exc.value) == f"SOLGEO_THREADS holds {threads!r}, not an integer >= 1"
    monkeypatch.setenv("SOLGEO_THREADS", "1")
    assert thread_map(abs, [-1, 2]) == [1, 2]


def test_certify_rejects_asymmetric_goe(tmp_path, capsys):
    # asymmetry within the old 1e-5 relative tolerance but beyond what the
    # Cholesky proof absorbs once exited 4, an internal error
    inst = gen(tmp_path, "g.json", "--kind", "goe", "-n", "6", "--seed", "0")
    doc = read_json(str(inst))
    doc["matrix"][0][1] = 20.0
    doc["matrix"][1][0] = 20.0 + 9e-5
    inst.write_text(json.dumps(doc))
    capsys.readouterr()
    assert run("certify", "--kind", "sk", "--instance", str(inst),
               "--eta", "0.1", "--out", str(tmp_path / "c.json")) == 2
    assert "symmetric" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["certify", "oracle"])
def test_empty_goe_file_is_refused(tmp_path, capsys, command):
    # certify once exited 2 with "matrix must be square", oracle with the
    # SK enumeration's size limit
    inst, out = tmp_path / "g.json", tmp_path / "o.json"
    inst.write_text(json.dumps({"kind": "goe", "n": 0, "matrix": []}))
    capsys.readouterr()
    assert run(command, "--kind", "sk", "--eta", "0.1", "--instance", str(inst),
               "--out", str(out)) == 2
    assert capsys.readouterr().err == "error: n must be >= 1\n"
    assert not out.exists()


XOR = ["--kind", "xor", "-k", "3", "-n", "10", "-m", "40"]
CSP = ["--kind", "csp", "-k", "3", "-n", "10", "-m", "40"]
REGULAR = ["--kind", "regular", "-n", "10", "-d", "3"]
# a generated file, the --kind that certify and oracle both take it under,
# the path to one field, and the bad value written there
MALFORMED = {
    "var-string": (XOR, "count", ("clauses", 0, "vars", 2), "a"),
    "var-float": (XOR, "count", ("clauses", 0, "vars", 2), 2.5),
    "var-bool": (XOR, "count", ("clauses", 0, "vars", 2), True),
    "rhs-bool": (XOR, "count", ("clauses", 0, "rhs"), True),
    "sign-float": (CSP, "count", ("clauses", 0, "signs", 0), 1.0),
    # int() once truncated it to the generated edge [0, v]
    "edge-float": (REGULAR, "indset", ("edges", 0, 0), 0.7),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_instance_is_usage_error(tmp_path, capsys, case):
    gen_argv, kind, path, value = MALFORMED[case]
    inst = gen(tmp_path, "i.json", *gen_argv, "--seed", "1")
    doc = read_json(str(inst))
    field = doc
    for key in path[:-1]:
        field = field[key]
    field[path[-1]] = value
    inst.write_text(json.dumps(doc))
    for command in ("certify", "oracle"):
        capsys.readouterr()
        assert run(command, "--kind", kind, "--eta", "0.2", "--instance", str(inst),
                   "--out", str(tmp_path / "out.json")) == 2, command
        assert capsys.readouterr().err.startswith("error: "), command


# gen arguments of instance files of every kind the reader parses as arrays
GEN_FILES = [[*kind, "-k", str(k), "-n", "50", "-m", str(m), "--seed", str(seed)]
             for kind in (["--kind", "xor"], ["--kind", "csp"], ["--kind", "hypergraph"])
             for k in (2, 3, 4, 5) for m, seed in ((0, 1), (1, 2), (37, 3), (2000, 4))
             ] + [["--kind", "graph", "-n", "50", "-m", str(m), "--seed", "5"]
                  for m in (0, 1, 37, 2000)]


def test_gen_files_are_read_as_the_json_path_reads_them(tmp_path, monkeypatch):
    def refused(path):
        raise AssertionError("a file as gen writes it went through the JSON path")

    expected = []
    for i, argv in enumerate(GEN_FILES):
        path = str(gen(tmp_path, f"{i}.json", *argv))
        expected.append((path, load_instance(read_json(path))))
    monkeypatch.setattr(instances, "read_json", refused)
    for path, want in expected:
        got = read_instance(path)
        assert type(got) is type(want) and got == want, path
        assert got.sha256() == want.sha256(), path


def _first_vars(value: str):
    return lambda text: re.sub(r'"vars":\[[^]]*\]', '"vars":' + value, text, count=1)


# edits of the text of a generated 3XOR file, and a part of the message
# certify and oracle exit 2 with, or None where both read the file
EDITED_FILES = {
    "indented": (lambda text: json.dumps(json.loads(text), indent=1), None),
    "leading-zero": (_first_vars("[0,01,2]"), "is not JSON: Expecting ',' delimiter"),
    "minus-zero": (_first_vars("[0,-0,2]"), None),
    "float": (_first_vars("[0,1.0,2]"), "must hold integers"),
    "exponent": (_first_vars("[0,1e0,2]"), "must hold integers"),
    "bool": (_first_vars("[0,true,2]"), "must hold integers"),
    "beyond-int64": (_first_vars(f"[0,{2**63},2]"), "must hold integers within int64"),
    "number-outside-records": (lambda text: text.replace('{"rhs"', '5,{"rhs"', 1),
                               "malformed instance file"),
    # read_json keeps the later body, of one clause
    "body-repeated": (lambda text: text.rstrip()[:-1] + ',"clauses":[{"rhs":1,"vars":[0,1,2]}]}',
                      None),
    "index-base": (lambda text: text.replace('"index_base":0', '"index_base":1'),
                   "not index_base 1"),
    "text-after-brace": (lambda text: text + "x", "is not JSON: Extra data"),
}


@pytest.mark.parametrize("case", sorted(EDITED_FILES))
def test_edited_instance_file_is_read_as_the_json_path_reads_it(tmp_path, capsys, case):
    edit, message = EDITED_FILES[case]
    inst = gen(tmp_path, "i.json", *XOR, "--seed", "1")
    edited = tmp_path / "edited.json"
    edited.write_text(edit(inst.read_text()))
    if message is None:
        assert read_instance(str(edited)) == load_instance(read_json(str(edited)))
    else:
        with pytest.raises(ValueError) as exc:
            load_instance(read_json(str(edited)))
        assert message in str(exc.value)
    for command in ("certify", "oracle"):
        outs = [tmp_path / f"{command}-{name}.json" for name in ("i", "edited")]
        assert run(command, "--kind", "count", "--instance", str(inst), "--out", str(outs[0])) == 0
        capsys.readouterr()
        code = run(command, "--kind", "count", "--instance", str(edited), "--out", str(outs[1]))
        err = capsys.readouterr().err
        if message is None:
            assert (code, err) == (0, ""), command
        else:
            assert (code, err) == (2, f"error: {exc.value}\n"), command
        if case == "indented":
            assert outs[1].read_bytes() == outs[0].read_bytes(), command


# edits of a generated 3XOR file's header that keep its document
HEADER_EDITS = {
    "space-after-colon": lambda text: text.replace('"k":3', '"k": 3', 1),
    "keys-out-of-order": lambda text: text.replace('"k":3,"kind":"xor"', '"kind":"xor","k":3', 1),
}


@pytest.mark.parametrize("case", sorted(HEADER_EDITS))
def test_header_not_as_written_is_read_by_the_json_path(tmp_path, monkeypatch, case):
    inst = gen(tmp_path, "i.json", *XOR, "--seed", "1")
    edited = tmp_path / "edited.json"
    edited.write_text(HEADER_EDITS[case](inst.read_text()))
    assert edited.read_text() != inst.read_text()
    calls = []

    def counted(path):
        calls.append(path)
        return read_json(path)

    monkeypatch.setattr(instances, "read_json", counted)
    want = read_instance(str(inst))
    assert calls == []
    got = read_instance(str(edited))
    assert calls == [str(edited)]
    assert type(got) is type(want) and got == want and got.sha256() == want.sha256()


@pytest.mark.parametrize("position", ["certify", "oracle", "verify-certificate",
                                      "verify-oracle", "sweep"])
def test_file_without_json_object_is_usage_error(tmp_path, capsys, position):
    inst = gen(tmp_path, "i.json", *XOR, "--seed", "1")
    cert, orc, out = tmp_path / "c.json", tmp_path / "o.json", str(tmp_path / "out.json")
    assert run("certify", "--kind", "count", "--instance", str(inst), "--out", str(cert)) == 0
    assert run("oracle", "--kind", "count", "--instance", str(inst), "--out", str(orc)) == 0
    bad = tmp_path / "list.json"
    bad.write_text("[1, 2]")
    argv = {
        "certify": ["certify", "--kind", "count", "--instance", str(bad), "--out", out],
        "oracle": ["oracle", "--kind", "count", "--instance", str(bad), "--out", out],
        "verify-certificate": ["verify", "--certificate", str(bad), "--oracle", str(orc)],
        "verify-oracle": ["verify", "--certificate", str(cert), "--oracle", str(bad)],
        "sweep": ["sweep", "--config", str(bad), "--out", out],
    }[position]
    capsys.readouterr()
    assert run(*argv) == 2
    assert "JSON object" in capsys.readouterr().err


# the pipelines the malformed files come from: gen, certify and oracle
# arguments; a cluster oracle also takes the certificate's theta
MALFORMED_PIPELINES = {
    "count": (XOR, ["--kind", "count"], ["--kind", "count"]),
    "clusters": (["--kind", "xor", "-k", "3", "-n", "14", "-m", "1960"],
                 ["--kind", "clusters", "--eta", "0.05", "--c0", "6"],
                 ["--kind", "clusters", "--eta", "0.05"]),
    "balance": (["--kind", "csp", "-k", "3", "-n", "10", "-m", "1000"],
                ["--kind", "balance", "--rho", "0.8", "--eta", "0.02"],
                ["--kind", "bias", "--eta", "0.02"]),
}

# a hand-edited certificate or oracle field: the pipeline, which file, the
# field's path, its bad value, and a word the message must name
MALFORMED_VERIFY = {
    # each of these once exited 4, an internal error
    "checks-int": ("count", "certificate", ["checks"], 5, "'checks'"),
    "log2-bound-string": ("count", "certificate", ["log2_bound"], "7", "'log2_bound'"),
    "check-record-string": ("count", "certificate", ["checks"],
                            [{"name": "x", "measured": "1", "threshold": 1.0, "passed": True}],
                            "'measured'"),
    "n-float": ("count", "certificate", ["n"], 10.0, "'n'"),
    "enumeration-size-string": ("count", "oracle", ["enumeration_size"], "1024",
                                "'enumeration_size'"),
    "max-bias-string": ("balance", "oracle", ["exact_value"], "0.1", "exact_value"),
    "max-bias-bool": ("balance", "oracle", ["exact_value"], True, "exact_value"),
    "cover-count-string": ("clusters", "oracle", ["exact_value", "cover_count"], "3",
                           "'cover_count'"),
    "histogram-count-float": ("clusters", "oracle", ["exact_value", "distance_histogram"],
                              {"3": 1.5}, "'distance_histogram'"),
    "histogram-distance-word": ("clusters", "oracle", ["exact_value", "distance_histogram"],
                                {"three": 1}, "'distance_histogram'"),
    # once exited 4: the kind was looked up in a dict unhashed
    "kind-list": ("count", "certificate", ["kind"], ["count"], "unrecognized certificate kind"),
    "kind-object": ("count", "certificate", ["kind"], {"kind": "count"},
                    "unrecognized certificate kind"),
    # once silently sound: the verdict read it with int()
    "exact-value-string": ("count", "oracle", ["exact_value"], "3", "exact_value"),
    "exact-value-float": ("count", "oracle", ["exact_value"], 3.5, "exact_value"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_VERIFY))
def test_malformed_certificate_or_oracle_is_usage_error(tmp_path, capsys, case):
    pipeline, which, path, value, named = MALFORMED_VERIFY[case]
    instance, certify, oracle = MALFORMED_PIPELINES[pipeline]
    inst = gen(tmp_path, "i.json", *instance, "--seed", "1")
    files = {"certificate": tmp_path / "c.json", "oracle": tmp_path / "o.json"}
    assert run("certify", *certify, "--instance", str(inst),
               "--out", str(files["certificate"])) == 0
    cert = read_json(str(files["certificate"]))
    assert cert["kind"] == pipeline and not cert.get("fallback")
    if pipeline == "clusters":
        oracle = [*oracle, "--theta", repr(cert["theta"])]
    assert run("oracle", *oracle, "--instance", str(inst), "--out", str(files["oracle"])) == 0
    assert run("verify", "--certificate", str(files["certificate"]),
               "--oracle", str(files["oracle"])) == 0
    doc = read_json(str(files[which]))
    *parents, last = path
    target = doc
    for key in parents:
        target = target[key]
    target[last] = value
    files[which].write_text(json.dumps(doc))
    capsys.readouterr()
    assert run("verify", "--certificate", str(files["certificate"]),
               "--oracle", str(files["oracle"])) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and named in err


@pytest.mark.parametrize("value", ["9", 9.5, True], ids=["string", "float", "bool"])
def test_malformed_refuted_size_is_usage_error(tmp_path, capsys, value):
    # "9" once exited 4, 9.5 printed sound and true printed violated
    block = [(i, j) for i in range(4) for j in range(i + 1, 4)]
    G = MultiGraph.build(8, block + [(u + 4, v + 4) for u, v in block])  # two K4s
    ref = refute_indset_from_count(G, certify_count_indsets(G, 0.4), 0.4)
    inst, cert, orc = tmp_path / "g.json", tmp_path / "c.json", tmp_path / "o.json"
    write_json(str(inst), instance_doc(G))
    doc = ref.to_json_dict()
    write_json(str(cert), doc)
    assert run("oracle", "--kind", "indset", "--threshold-size", "1", "--instance", str(inst),
               "--out", str(orc)) == 0
    assert run("verify", "--certificate", str(cert), "--oracle", str(orc)) == 0
    doc["evidence"]["refuted_size"] = value
    cert.write_text(json.dumps(doc))
    capsys.readouterr()
    assert run("verify", "--certificate", str(cert), "--oracle", str(orc)) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "'refuted_size'" in err


@pytest.mark.parametrize("theta", ["0.7", "-0.1"])
def test_cluster_oracle_refuses_theta_outside_half_interval(tmp_path, capsys, theta):
    # both once exited 0 with a file that failed its schema
    inst = gen(tmp_path, "x.json", "--kind", "xor", "-k", "3", "-n", "10", "-m", "200", "--seed", "4")
    orc = tmp_path / "o.json"
    capsys.readouterr()
    assert run("oracle", "--kind", "clusters", "--eta", "0.05", "--theta", theta,
               "--instance", str(inst), "--out", str(orc)) == 2
    assert "theta must lie in [0, 1/2]" in capsys.readouterr().err
    assert not orc.exists()


def test_indset_oracle_needs_a_threshold_on_an_irregular_graph(tmp_path, capsys):
    # two K4s joined by the edge 1-4: the threshold once came from vertex 0's degree, 3
    block = [(i, j) for i in range(4) for j in range(i + 1, 4)]
    G = MultiGraph.build(8, block + [(u + 4, v + 4) for u, v in block] + [(1, 4)])
    inst, orc = tmp_path / "g.json", tmp_path / "o.json"
    write_json(str(inst), instance_doc(G))
    assert run("oracle", "--kind", "indset", "--eta", "0.2", "--instance", str(inst),
               "--out", str(orc)) == 2
    assert "regular graph" in capsys.readouterr().err
    assert not orc.exists()
    assert run("oracle", "--kind", "indset", "--threshold-size", "2", "--instance", str(inst),
               "--out", str(orc)) == 0
    assert validate_file(orc)["exact_value"] == {"alpha": 2, "count": 15}


@pytest.mark.parametrize("flag", [False, True], ids=["config-only", "with-out-flag"])
@pytest.mark.parametrize("value", [7, True, ["rows.jsonl"]], ids=["int", "bool", "list"])
def test_sweep_config_out_that_is_no_string_is_usage_error(tmp_path, capsys, value, flag):
    # 7 and true were once used as file descriptors (7 printed EBADF, true is
    # stdout), and the list exited 4 with os.stat's "path should be string"
    cfg = sweep_config(tmp_path, grid={"n": [10], "k": [3], "delta": [4]}, seeds=1, out=value)
    argv = ["--out", str(tmp_path / "rows.jsonl")] if flag else []
    capsys.readouterr()
    assert run("sweep", "--config", str(cfg), *argv) == 2
    err = capsys.readouterr().err
    assert err == f"error: sweep config 'out' holds {type(value).__name__} {value!r}, not str | None\n"
    assert [p.name for p in tmp_path.iterdir()] == [cfg.name]


@pytest.mark.parametrize("line, message", [
    # once "internal error: list indices must be integers or slices, not str" (exit 4)
    ("[1, 2]", "line 1 holds list [1, 2], not dict"),
    # once "internal error: unhashable type: 'list'" (exit 4)
    ('{"cell_hash": ["x"], "seed": 0}', "line 1 field 'cell_hash' holds list ['x'], not str"),
    # once only "error: 'seed'"
    ('{"cell_hash": "x"}', "line 1 lacks the field 'seed'"),
    ('{"cell_hash": "x", "seed": 0.0}', "line 1 field 'seed' holds float 0.0, not int"),
], ids=["list", "hash-list", "no-seed", "seed-float"])
def test_malformed_resume_row_is_usage_error(tmp_path, capsys, line, message):
    cfg = sweep_config(tmp_path, grid={"n": [10], "k": [3], "delta": [4]}, seeds=1)
    out = tmp_path / "rows.jsonl"
    out.write_text(line + "\n")
    capsys.readouterr()
    assert run("sweep", "--config", str(cfg), "--out", str(out)) == 2
    assert capsys.readouterr().err == f"error: {out} {message}\n"
    assert out.read_text() == line + "\n"


@pytest.mark.parametrize("edit, message", [
    # once "internal error: '<' not supported between instances of 'str' and 'int'" (exit 4)
    (lambda row: {**row, "cell": [1]}, "line 2 field 'cell' holds list [1], not dict"),
    # once only "error: 'cell'"
    (lambda row: {k: v for k, v in row.items() if k != "cell"}, "line 2 lacks the field 'cell'"),
], ids=["cell-list", "no-cell"])
def test_malformed_row_in_csv_export_is_usage_error(tmp_path, capsys, edit, message):
    cfg = sweep_config(tmp_path, grid={"n": [10], "k": [3], "delta": [4]}, seeds=2)
    out, csv_out = tmp_path / "rows.jsonl", tmp_path / "rows.csv"
    assert run("sweep", "--config", str(cfg), "--out", str(out)) == 0
    first, second = out.read_text().splitlines()
    out.write_text(first + "\n" + json.dumps(edit(json.loads(second))) + "\n")
    capsys.readouterr()
    assert run("sweep", "--config", str(cfg), "--out", str(out), "--csv", str(csv_out)) == 2
    assert capsys.readouterr().err == f"error: {out} {message}\n"
    assert not csv_out.exists()


def test_sweep_axis_number_beyond_a_float_is_usage_error(tmp_path, capsys):
    # once "internal error: int too large to convert to float" (exit 4)
    cfg = sweep_config(tmp_path, grid={"n": [10], "k": [3], "delta": [4], "eta": [0.0, 10**400]})
    out = tmp_path / "rows.jsonl"
    capsys.readouterr()
    assert run("sweep", "--config", str(cfg), "--out", str(out)) == 2
    assert capsys.readouterr().err == (
        f"error: sweep grid axis 'eta'[1] holds int {str(10**400)[:40]}, not finite float\n")
    assert not out.exists()


@pytest.mark.parametrize("which, field, record", [
    ("certificate", "n", "CountCertificate"),
    ("oracle", "exact_value", "OracleResult"),
    ("config", "grid", "sweep config"),
])
def test_missing_field_is_named_with_its_record(tmp_path, capsys, which, field, record):
    # each once printed only the key, as `error: 'n'`
    inst = gen(tmp_path, "i.json", *XOR, "--seed", "1")
    files = {"certificate": tmp_path / "c.json", "oracle": tmp_path / "o.json",
             "config": sweep_config(tmp_path, seeds=1)}
    assert run("certify", "--kind", "count", "--instance", str(inst),
               "--out", str(files["certificate"])) == 0
    assert run("oracle", "--kind", "count", "--instance", str(inst),
               "--out", str(files["oracle"])) == 0
    doc = read_json(str(files[which]))
    del doc[field]
    files[which].write_text(json.dumps(doc))
    argv = (["sweep", "--config", str(files["config"]), "--out", str(tmp_path / "rows.jsonl")]
            if which == "config" else
            ["verify", "--certificate", str(files["certificate"]), "--oracle", str(files["oracle"])])
    capsys.readouterr()
    assert run(*argv) == 2
    assert capsys.readouterr().err == f"error: {record} lacks the field '{field}'\n"


@pytest.mark.parametrize("command, kind", [
    ("certify", "count"), ("certify", "clusters"), ("oracle", "count"), ("oracle", "bias"),
])
def test_slack_whose_budget_overflows_is_usage_error(tmp_path, capsys, command, kind):
    # eta * m = inf once reached math.floor: "internal error: cannot
    # convert float infinity to integer" (exit 4)
    inst = gen(tmp_path, "x.json", "--kind", "xor", "-k", "3", "-n", "14", "-m", "112", "--seed", "1")
    out = tmp_path / "out.json"
    capsys.readouterr()
    assert run(command, "--kind", kind, "--eta", "1e308", "--instance", str(inst),
               "--out", str(out)) == 2
    assert capsys.readouterr().err == "error: eta = 1e+308 times 111 clauses is beyond a float\n"
    assert not out.exists()


def test_sweep_slack_whose_budget_overflows_is_usage_error(tmp_path, capsys):
    cfg = sweep_config(tmp_path, grid={"n": [10], "k": [3], "delta": [4], "eta": [1e308]}, seeds=1)
    out = tmp_path / "rows.jsonl"
    capsys.readouterr()
    assert run("sweep", "--config", str(cfg), "--out", str(out)) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: eta = 1e+308 times ") and err.endswith(" is beyond a float\n")
    assert not out.exists()
