import argparse
import json
import math

import jsonschema
import numpy as np
import pytest

from conftest import thread_map
from solgeo import cli, schemas
from solgeo.cli import main
from solgeo.eigencount import certify_count_indsets, refute_indset_from_count
from solgeo.instances import MultiGraph, XorInstance, instance_doc
from solgeo.jsonio import canonical_json, read_json, sha256_of, write_json


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
    inst = gen(tmp_path, "i.json", "--kind", "xor", "-k", "2", "-n", "8", "-m", "28", "--seed", "3")
    timed, plain, again = tmp_path / "t.json", tmp_path / "o.json", tmp_path / "o2.json"
    misses = cli._build_parser.cache_info().misses
    assert run("oracle", "--kind", "count", "--instance", str(inst), "--out", str(timed),
               "--eta", "0.25", "--timing") == 0
    assert run("oracle", "--kind", "count", "--instance", str(inst), "--out", str(plain)) == 0
    doc = validate_file(plain)
    assert "runtime_ms" not in doc and doc["eta"] == 0.0
    with pytest.raises(SystemExit) as exc:
        run("oracle", "--kind", "nope", "--instance", str(inst), "--out", str(again))
    assert exc.value.code == 2
    assert run("oracle", "--kind", "count", "--instance", str(inst), "--out", str(again)) == 0
    assert again.read_bytes() == plain.read_bytes()
    assert cli._build_parser.cache_info().misses == misses  # one parser served them all


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


def test_balance_decline_writes_marker(tmp_path):
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
    assert run("verify", "--certificate", str(out), "--oracle", str(orc)) == 2


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


def test_oracle_timing_is_opt_in(tmp_path):
    inst = gen(tmp_path, "i.json", "--kind", "xor", "-k", "2", "-n", "8", "-m", "28", "--seed", "3")
    cert, plain, timed = tmp_path / "c.json", tmp_path / "o.json", tmp_path / "t.json"
    assert run("certify", "--kind", "count", "--instance", str(inst), "--out", str(cert)) == 0
    assert run("oracle", "--kind", "count", "--instance", str(inst), "--out", str(plain)) == 0
    assert run("oracle", "--kind", "count", "--instance", str(inst), "--out", str(timed),
               "--timing") == 0
    doc, timed_doc = validate_file(plain), validate_file(timed)
    assert "runtime_ms" not in doc
    assert timed_doc.pop("runtime_ms") >= 0.0 and timed_doc == doc
    assert run("verify", "--certificate", str(cert), "--oracle", str(timed)) == 0


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
                                eps_exponent=0.05, c0=c0)
        assert run("sweep", "--config", str(explicit), "--out", str(out)) == 0
        assert len(out.read_text().splitlines()) == 2, c0
    for key, value in [("predicate", "xor"), ("eps_exponent", 0.1), ("c0", 4.0),
                       ("oracle_max_n", 0)]:
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


def test_sweep_resume_hashes_are_unchanged():
    # recorded before the kind joined the config checks
    config = {"kind": "count", "instance": "xor", "oracle_max_n": 12,
              "grid": {"n": [10], "k": [3], "delta": [4], "eta": [0.05]}}
    cell = {"n": 10, "k": 3, "delta": 4, "eta": 0.05}
    assert cli._cell_hash(cli._effective_config(config), cell) == "a7ff39db31771168"
    config = {"kind": "clusters", "instance": "csp", "predicate": "xor", "c0": 4.0, "grid": {}}
    assert cli._cell_hash(cli._effective_config(config), {}) == "171d54d732f3c2d5"


@pytest.mark.parametrize("key, value", [("c0", 3), ("eps_exponent", 0)])
def test_sweep_resume_key_holds_an_int_float_key_as_a_float(key, value):
    # an int once hashed as an int: "c0": 3 was another sweep than the
    # default 3.0, and "eps_exponent": 0 another than 0.0
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


def test_sweep_config_takes_an_int_for_a_float_key(tmp_path):
    grid = {"n": [10], "k": [3], "delta": [4], "eta": [0.05]}
    out = tmp_path / "rows.jsonl"
    config = sweep_config(tmp_path, grid=grid, seeds=1, c0=3, eps_exponent=0)
    assert run("sweep", "--config", str(config), "--out", str(out)) == 0
    assert len(out.read_text().splitlines()) == 1


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
    ("certify", "--eps-exponent"), ("oracle", "--eta"), ("oracle", "--theta"),
])
def test_nonfinite_float_flag_is_usage_error(tmp_path, capsys, command, flag, value):
    # --eta inf once exited 4 ("cannot convert float infinity to integer"),
    # --eps-exponent nan wrote a certificate, and --c0 nan exited 2 only
    # after all the work, with the serializer's message
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
    ("eps_exponent", {"eps_exponent": -math.inf}),
    ("eps_exponent", {"eps_exponent": math.nan}),
], ids=["grid-eta-inf", "grid-rho-nan", "c0-inf", "eps-exponent-minus-inf", "eps-exponent-nan"])
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
