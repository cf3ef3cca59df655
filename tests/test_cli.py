"""Command-line interface: schemas, exit codes, reproducibility."""

import argparse
import dataclasses
import hashlib
import json
import os
import re
import shlex
import shutil
import subprocess
import sys
from importlib import resources
from pathlib import Path

import jsonschema
import numpy as np
import pytest

import align_lab
from align_lab.cli import (_emit, _matrix_from_json, _pairs, build_parser, main, parse_range,
                           polynomial_system_text)
from align_lab.errors import DimensionMismatch, InvalidSpec
from align_lab.model import (
    IaSolution,
    block_diagonal_config,
    config_from_json,
    config_to_json,
    diagonal_config,
    generic_config,
    sample_channels,
    substream,
)
from align_lab.solve import SolverOptions, _minimize_runs, classify


def schema(name):
    text = resources.files("align_lab.schemas").joinpath(f"{name}.json").read_text()
    return json.loads(text)


def write_config(tmp_path, cfg, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(config_to_json(cfg)))
    return str(path)


def pairs(m):
    """The stdlib reference for a complex matrix: nested [re, im] lists."""
    return np.stack([m.real, m.imag], axis=-1).tolist()


def solution_text(sol):
    return json.dumps({"V": sol.V, "U": sol.U}, default=_pairs)


def run_json(tmp_path, args, out="out.json"):
    path = tmp_path / out
    rc = main(args + ["--out", str(path)])
    assert rc == 0, f"exit {rc} for {args}"
    return json.loads(path.read_text())


@pytest.mark.parametrize("call,error,message", [
    (lambda: parse_range("2:x"), InvalidSpec, "bad integer range '2:x', expected 'N' or 'LO:HI'"),
    (lambda: parse_range("5:3"), InvalidSpec, "range '5:3' is empty"),
    (lambda: polynomial_system_text(generic_config(2, 2, 1),
                                    sample_channels(diagonal_config(2, 2, 1))),
     DimensionMismatch, "channels (diagonal, N=(2, 2), M=None) are not in the layout of "
                        "the config (generic, N=(2, 2), M=None)"),
])
def test_cli_helpers_name_what_is_wrong(call, error, message):
    with pytest.raises(error) as exc:
        call()
    assert str(exc.value) == message


def test_bounds_sweep_validates_and_stays_below_half(tmp_path):
    doc = run_json(tmp_path, ["bounds", "--K", "3:6", "--n", "1:5", "--M", "1:2"])
    jsonschema.validate(doc, schema("bounds"))
    rows = [r for r in doc["rows"] if r["source"] == "BoundA"]
    assert len(rows) == 20
    assert all(r["value"] < 0.5 for r in rows)
    # exact rationals ride along with the decimal values
    assert all(re.fullmatch(r"[0-9]+/[0-9]+", r["exact"]) for r in rows)


def test_bounds_tdma_and_symmetric_rows(tmp_path):
    doc = run_json(tmp_path, ["bounds", "--K", "10:10", "--n", "1:1", "--M", "2:2"])
    tdma = next(r for r in doc["rows"] if r["source"] == "TDMA")
    assert tdma["exact"] == "1/10"
    doc3 = run_json(tmp_path, ["bounds", "--K", "3:3", "--n", "1:1", "--M", "2:2"])
    b = next(r for r in doc3["rows"] if r["source"] == "BoundB")
    assert b["exact"] == "1"


def test_cj_params_big_case(tmp_path):
    doc = run_json(tmp_path, ["cj-params", "--K", "4", "--n", "5:5"])
    jsonschema.validate(doc, schema("cj_params"))
    row = doc["rows"][0]
    assert row["N_s"] == 10901
    assert row["d"][0] == 7776


def test_contradiction_known_flips(tmp_path):
    doc = run_json(tmp_path, ["contradiction", "--K", "4:5", "--n-max", "50"])
    jsonschema.validate(doc, schema("contradiction"))
    by_k = {r["K"]: r for r in doc["rows"]}
    assert by_k[4]["min_improper_n"] == 5
    assert by_k[4]["N_s"] == 10901
    assert by_k[5]["min_improper_n"] == 6
    assert by_k[4]["N_e"] > by_k[4]["N_v"]


def test_contradiction_reports_absence_for_three_users(tmp_path):
    doc = run_json(tmp_path, ["contradiction", "--K", "3:3", "--n-max", "200"])
    row = doc["rows"][0]
    assert row["min_improper_n"] is None


@pytest.mark.parametrize("n_max", ["0", "-1"])
def test_contradiction_rejects_an_empty_sweep(tmp_path, capsys, n_max):
    # sweeping no index proves nothing, so it must not read as "all proper"
    capsys.readouterr()
    out = tmp_path / "o.json"
    assert main(["contradiction", "--K", "3:4", "--n-max", n_max, "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: n_max must be at least 1, got {n_max}\n"
    assert not out.exists()


def test_contradiction_rejects_out_of_range_users(tmp_path):
    assert main(["contradiction", "--K", "2:5", "--n-max", "10",
                 "--out", str(tmp_path / "x.json")]) == 2
    assert main(["contradiction", "--K", "4:13", "--n-max", "10",
                 "--out", str(tmp_path / "x.json")]) == 2


def test_cj3_witness_payload(tmp_path):
    doc = run_json(tmp_path, ["cj3", "--n", "2", "--seed", "7"])
    jsonschema.validate(doc, schema("cj3"))
    # the config alone holds N_s, d and the seed
    assert list(doc) == ["n", "d_bar", "d_bar_value", "verification", "config",
                         "channels", "solution"]
    assert doc["config"]["N"] == [5, 5, 5]
    assert doc["config"]["d"] == [3, 2, 2]
    assert doc["verification"]["aligned"] is True
    assert doc["verification"]["rank_ok"] is True
    assert doc["verification"]["leakage"] < 1e-9
    assert doc["d_bar"] == "7/15"
    assert doc["d_bar_value"] > 1 / 3


def test_probe_fill_payload(tmp_path):
    cfg_path = write_config(tmp_path, generic_config(3, 2, 1, seed=5))
    doc = run_json(tmp_path, ["probe", "--config", cfg_path, "--draws", "4"])
    jsonschema.validate(doc, schema("probe"))
    assert doc["dim_target"] == 24
    assert doc["filled"] is True


def test_solve_json(tmp_path):
    cfg_path = write_config(tmp_path, generic_config(3, 2, 1, seed=1))
    doc = run_json(tmp_path, ["solve", "--config", cfg_path, "--trials", "3",
                              "--max-iters", "800"])
    jsonschema.validate(doc, schema("solve"))
    # witness_status alone says whether a witness was found
    assert list(doc) == ["config", "success_rate", "best_leakage", "leakage_quantiles",
                         "classification", "witness_status", "evidence", "runs", "options"]
    assert doc["classification"] == "LikelyFeasible"
    assert len(doc["runs"]) == 3
    assert all(r["final_leakage"] < 1e-8 for r in doc["runs"])


def test_solve_writes_a_lost_signal_as_null(tmp_path, monkeypatch):
    # a run whose direct product is singular has an infinite I/S ratio
    def lost(cfg, opts):
        verdict = classify(cfg, opts)
        records = (dataclasses.replace(verdict.records[0], max_interference_to_signal=np.inf),
                   *verdict.records[1:])
        return dataclasses.replace(verdict, records=records)

    monkeypatch.setattr(align_lab.cli, "classify", lost)
    cfg_path = write_config(tmp_path, generic_config(3, 2, 1, seed=1))
    assert main(["solve", "--config", cfg_path, "--trials", "2",
                 "--out", str(tmp_path / "out.json")]) == 0
    doc = json.loads((tmp_path / "out.json").read_text(), parse_constant=pytest.fail)
    jsonschema.validate(doc, schema("solve"))
    assert doc["runs"][0]["max_interference_to_signal"] is None
    assert doc["runs"][1]["max_interference_to_signal"] >= 0


def test_every_schema_object_is_closed():
    def open_objects(node, where):
        if isinstance(node, dict):
            if node.get("type") == "object" and node.get("additionalProperties") is not False:
                yield where
            for key, value in node.items():
                yield from open_objects(value, f"{where}/{key}")
        elif isinstance(node, list):
            for i, value in enumerate(node):
                yield from open_objects(value, f"{where}/{i}")

    names = [p.name[:-5] for p in resources.files("align_lab.schemas").iterdir()
             if p.name.endswith(".json")]
    assert len(names) == 7
    assert [w for name in names for w in open_objects(schema(name), name)] == []


def test_schemas_do_not_drift():
    # a key dropped from "required" but left in "properties" still validates
    def unrequired(node, where):
        if isinstance(node, dict):
            if "properties" in node:
                for key in sorted(set(node["properties"]) - set(node.get("required", []))):
                    yield f"{where}/properties/{key}"
            for key, value in node.items():
                yield from unrequired(value, f"{where}/{key}")
        elif isinstance(node, list):
            for i, value in enumerate(node):
                yield from unrequired(value, f"{where}/{i}")

    names = [p.name[:-5] for p in resources.files("align_lab.schemas").iterdir()
             if p.name.endswith(".json")]
    holders = ["cj3", "probe", "solve", "verify"]
    # config_to_json writes M and N_c for block-diagonal configs alone
    assert sorted(w for name in names for w in unrequired(schema(name), name)) == sorted(
        f"{name}/$defs/config/properties/{path}" for name in holders
        for path in ("M", "structure/properties/N_c"))
    configs = [schema(name)["$defs"]["config"] for name in holders]
    assert all(config == configs[0] for config in configs)
    assert schema("cj3")["$defs"]["verification"] == schema("verify")["properties"]["result"]


def test_verify_accepts_stored_witness(tmp_path):
    witness = run_json(tmp_path, ["cj3", "--n", "1", "--seed", "3"], out="w.json")
    cfg_path = tmp_path / "wcfg.json"
    cfg_path.write_text(json.dumps(witness["config"]))
    ch_path = tmp_path / "wch.json"
    ch_path.write_text(json.dumps(witness["channels"]))
    sol_path = tmp_path / "wsol.json"
    sol_path.write_text(json.dumps(witness["solution"]))
    doc = run_json(tmp_path, ["verify", "--config", str(cfg_path),
                              "--channels", str(ch_path),
                              "--solution", str(sol_path)])
    jsonschema.validate(doc, schema("verify"))
    assert doc["result"]["aligned"] is True
    assert doc["result"]["rank_ok"] is True


def write_witness_with_stray_entry(tmp_path):
    """A cj3 witness whose H[0][1] gains a nonzero off-diagonal entry (1, 2)."""
    witness = run_json(tmp_path, ["cj3", "--n", "1", "--seed", "3"], out="w.json")
    paths = {}
    for name in ("config", "channels", "solution"):
        paths[name] = tmp_path / f"w{name}.json"
        paths[name].write_text(json.dumps(witness[name]))
    channels = witness["channels"]
    channels[0][1][1][2] = [5.0, 0.0]
    paths["stray"] = tmp_path / "wstray.json"
    paths["stray"].write_text(json.dumps(channels))
    return paths


@pytest.mark.parametrize("command", ["verify", "export-poly"])
def test_off_support_channel_entry_is_rejected(tmp_path, capsys, command):
    paths = write_witness_with_stray_entry(tmp_path)
    args = [command, "--config", str(paths["config"])]
    if command == "verify":
        args += ["--solution", str(paths["solution"])]
    out = tmp_path / "o.txt"
    assert main(args + ["--channels", str(paths["channels"]), "--out", str(out)]) == 0
    capsys.readouterr()
    assert main(args + ["--channels", str(paths["stray"]), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "H[0][1] has entry (1, 2) = (5+0j) outside the diagonal structure" in err


def replaced(path, value):
    """An edit of a stored document: the entry at index ``path`` becomes ``value``."""
    def edit(doc):
        target = doc
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value
        return doc
    return edit


@pytest.mark.parametrize("command, path", [
    (command, path) for command in ("cj3", "probe", "solve", "verify")
    for path in ("config.sead", "config.structure.Nc")
] + [("cj3", "verification.tolerances.tol_isr"), ("verify", "result.tolerances.tol_isr")])
def test_schemas_reject_keys_the_reports_never_write(tmp_path, command, path):
    # config_from_json rejects an unknown config or structure key, and so
    # does every schema that holds a config
    paths = write_witness_with_stray_entry(tmp_path)
    cfg = ["--config", str(paths["config"])]
    argv = {"cj3": ["--n", "1"],
            "probe": cfg + ["--draws", "1"],
            "solve": cfg + ["--trials", "1", "--max-iters", "2"],
            "verify": cfg + ["--solution", str(paths["solution"])]}[command]
    doc = run_json(tmp_path, [command, *argv])
    jsonschema.validate(doc, schema(command))
    replaced(path.split("."), 1)(doc)
    with pytest.raises(jsonschema.ValidationError, match="Additional properties"):
        jsonschema.validate(doc, schema(command))
    if path.startswith("config."):
        with pytest.raises(InvalidSpec, match="unknown"):
            config_from_json(doc["config"])


@pytest.mark.parametrize("flag, edit, what", [
    ("--channels", lambda doc: [[1, 2], [3, 4]], "channels"),
    ("--solution", lambda doc: {"V": 1}, "solution"),
    ("--solution", lambda doc: {"V": []}, "solution"),
    ("--channels", replaced([0, 1, 0, 0, 0], "1.5"), "channels"),
    ("--channels", replaced([0, 1, 0, 0, 1], None), "channels"),
    ("--channels", replaced([0, 1, 0, 0], [1, 2, 3]), "channels"),
    ("--channels", replaced([0, 1, 0, 0], [1]), "channels"),
    ("--channels", replaced([0, 1, 1], [[0.0, 0.0]]), "channels"),
    ("--channels", replaced([0, 1], [1.0, 0.0, 2.0]), "channels"),
    ("--channels", replaced([0, 1, 0, 0], {"re": 1.0, "im": 0.0}), "channels"),
    ("--channels", replaced([0, 1, 0, 0, 0], 10 ** 400), "channels"),
    ("--solution", replaced(["V", 0, 0, 0, 0], "1.5"), "solution"),
    ("--solution", replaced(["V", 0, 1], [[0.0, 0.0]]), "solution"),
], ids=["channels-of-ints", "solution-V-int", "solution-without-U",
        "channels-string-entry", "channels-null-entry", "channels-triple-entry",
        "channels-single-entry", "channels-ragged-row", "channels-flat-matrix",
        "channels-dict-entry", "channels-int-beyond-float", "solution-string-entry",
        "solution-ragged-row"])
def test_malformed_json_input_exits_2(tmp_path, capsys, flag, edit, what):
    paths = write_witness_with_stray_entry(tmp_path)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(edit(json.loads(paths[flag[2:]].read_text()))))
    inputs = {"--channels": paths["channels"], "--solution": paths["solution"], flag: bad}
    args = ["verify", "--config", str(paths["config"])]
    for name, path in inputs.items():
        args += [name, str(path)]
    capsys.readouterr()
    assert main(args + ["--out", str(tmp_path / "o.json")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: malformed {what} document: ")
    assert err.count("\n") == 1


@pytest.mark.parametrize("entry, shape", [([], "(0,)"), ([[]], "(1, 0)")],
                         ids=["empty", "empty-row"])
def test_empty_channel_matrix_is_named_by_its_shape(tmp_path, capsys, entry, shape):
    # an empty matrix passes the JSON reader, and the config's shape check names it
    cfg = generic_config(2, 2, 1)
    doc = [[pairs(m) for m in row] for row in sample_channels(cfg).matrices]
    doc[0][0] = entry
    ch_path = tmp_path / "ch.json"
    ch_path.write_text(json.dumps(doc))
    ones = (np.ones((2, 1)),) * 2
    sol_path = tmp_path / "sol.json"
    sol_path.write_text(solution_text(IaSolution(V=ones, U=ones)))
    capsys.readouterr()
    assert main(["verify", "--config", write_config(tmp_path, cfg), "--channels",
                 str(ch_path), "--solution", str(sol_path),
                 "--out", str(tmp_path / "o.json")]) == 2
    assert capsys.readouterr().err == \
        f"error: H[0][0] has shape {shape}, expected (2, 2)\n"


@pytest.mark.parametrize("entry", [[True, False], [1, 0]], ids=["bool", "int"])
def test_bool_and_int_channel_entries_are_numbers(tmp_path, entry):
    paths = write_witness_with_stray_entry(tmp_path)
    doc = json.loads(paths["channels"].read_text())
    doc[0][1][0][0] = entry  # on the diagonal: a free entry
    paths["channels"].write_text(json.dumps(doc))
    assert main(["verify", "--config", str(paths["config"]), "--channels",
                 str(paths["channels"]), "--solution", str(paths["solution"]),
                 "--out", str(tmp_path / "o.json")]) == 0


@pytest.mark.parametrize("tol", ["-1", "0", "nan", "inf"])
@pytest.mark.parametrize("command", ["verify", "solve"])
def test_nonpositive_tolerance_exits_2(tmp_path, capsys, command, tol):
    paths = write_witness_with_stray_entry(tmp_path)
    args = [command, "--config", str(paths["config"])]
    if command == "verify":
        args += ["--channels", str(paths["channels"]), "--solution", str(paths["solution"])]
    else:
        args += ["--trials", "1", "--max-iters", "2"]
    out = tmp_path / "o.json"
    capsys.readouterr()
    assert main(args + ["--tol", tol, "--out", str(out)]) == 2
    assert capsys.readouterr().err == \
        f"error: tol_align must be finite and positive, got {float(tol)}\n"
    assert not out.exists()


def test_verify_reports_misalignment_without_failing(tmp_path):
    cfg = generic_config(2, 2, 1, seed=6)
    cfg_path = write_config(tmp_path, generic_config(2, 2, 1, seed=999))
    rng = substream(6, 123)
    sol = _minimize_runs([sample_channels(cfg)], cfg.d,
                         SolverOptions(max_iters=1), [rng])[0][0]
    sol_path = tmp_path / "sol.json"
    sol_path.write_text(solution_text(sol))
    doc = run_json(tmp_path, ["verify", "--config", cfg_path,
                              "--solution", str(sol_path)])
    assert doc["result"]["aligned"] is False  # wrong channels; the check still ran


def test_export_poly_shape_and_gauge(tmp_path):
    cfg_path = write_config(tmp_path, generic_config(3, 2, 1, seed=5))
    out = tmp_path / "sys.txt"
    assert main(["export-poly", "--config", cfg_path, "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    header = [l for l in lines if l.startswith("#")]
    body = [l for l in lines if l and not l.startswith("#")]
    assert len(body) == 6  # one polynomial per cross-pair stream product
    names = set(re.findall(r"[uv]_\d+_\d+_\d+", "\n".join(body)))
    assert len(names) == 6  # gauge fixing removes the top identity rows
    assert all(re.match(r"[uv]_\d+_1_0", n) for n in names)
    assert header and "K=3" in header[0]


TERM = re.compile(r"\(([^,]+),([^)]+)\)((?:\*[uv]_\d+_\d+_\d+)*)")


def evaluate_poly(line, values):
    total = 0.0 + 0.0j
    for m in TERM.finditer(line):
        coeff = complex(float(m.group(1)), float(m.group(2)))
        for name in filter(None, m.group(3).split("*")):
            coeff *= values[name]
        total += coeff
    return total


def test_export_poly_evaluates_to_the_cross_terms(tmp_path):
    # d_k >= 2 puts several identity rows in the gauge, each of which may
    # enter only its own equation
    for cfg in (generic_config(3, (3, 2, 2), 1, seed=8),
                generic_config(3, 4, (2, 1, 2), seed=8),
                diagonal_config(3, 5, (2, 1, 1), seed=8),
                block_diagonal_config(3, (2, 1, 2), 2, (2, 1, 1), seed=8)):
        cfg_path = write_config(tmp_path, cfg)
        out = tmp_path / "sys.txt"
        assert main(["export-poly", "--config", cfg_path, "--out", str(out)]) == 0
        body = [l for l in out.read_text().splitlines()
                if l and not l.startswith("#")]

        ch = sample_channels(cfg)
        sol = _minimize_runs([ch], cfg.d, SolverOptions(max_iters=3),
                             [substream(8, 5)])[0][0]
        # export-poly's gauge: the first d_k rows of every matrix are identity
        sol = IaSolution(V=[m @ np.linalg.inv(m[:m.shape[1]]) for m in sol.V],
                         U=[m @ np.linalg.inv(m[:m.shape[1]]) for m in sol.U])
        values = {}
        for k, (v, u) in enumerate(zip(sol.V, sol.U)):
            for r in range(v.shape[0]):
                for n in range(v.shape[1]):
                    values[f"v_{k}_{r}_{n}"] = v[r, n]
                    values[f"u_{k}_{r}_{n}"] = np.conj(u[r, n])

        direct = []
        for j in range(3):
            for k in range(3):
                if j != k:
                    direct.extend((sol.U[j].conj().T @ ch.matrices[j][k]
                                   @ sol.V[k]).reshape(-1))
        assert len(body) == len(direct)
        for line, expect in zip(body, direct):
            assert abs(evaluate_poly(line, values) - expect) < 1e-12, cfg


def test_readme_config_examples_load():
    readme = Path(__file__).resolve().parents[1] / "README.md"
    blocks = re.findall(r"```json\n(.*?)```", readme.read_text(), re.S)
    # one block may hold several documents, separated by blank lines
    cfgs = [config_from_json(json.loads(doc))
            for block in blocks for doc in block.split("\n\n")]
    assert {cfg.structure.kind.value for cfg in cfgs} >= {"generic", "block-diagonal"}


def test_readme_commands_parse():
    # every command line the README shows parses, and every flag it names exists;
    # --no-build-isolation is pip's
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    parser = build_parser()
    commands = []
    for block in re.findall(r"```sh\n(.*?)```", readme, re.S):
        for line in block.splitlines():
            words = shlex.split(line, comments=True)
            for prog in ("align-lab", "align_lab.cli"):
                if prog in words:
                    commands.append(words[words.index(prog) + 1:])
    assert len(commands) >= 9
    for argv in commands:
        parser.parse_args(argv)
    subparsers = next(a for a in parser._actions
                      if isinstance(a, argparse._SubParsersAction))
    options = {flag for sp in subparsers.choices.values()
               for flag in sp._option_string_actions}
    named = set(re.findall(r"(?<![\w-])--[A-Za-z][\w-]*", readme))
    assert named - options == {"--no-build-isolation"}


def test_exit_code_for_malformed_config(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"K": 3}')
    assert main(["probe", "--config", str(bad), "--draws", "1",
                 "--out", str(tmp_path / "o.json")]) == 2


def test_exit_code_for_overloaded_streams(tmp_path):
    # written by hand: a SystemConfig with d_k > N_k cannot be built
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"K": 2, "N": [2, 2], "d": [3, 1],
                                    "structure": {"kind": "generic"}, "seed": 0}))
    assert main(["solve", "--config", str(cfg_path), "--trials", "1",
                 "--out", str(tmp_path / "o.json")]) == 2


@pytest.mark.parametrize("field, value, message", [
    ("N", [2.9, 2, 2], "N[0] must be an integer, got 2.9"),
    ("K", 3.7, "K must be an integer, got 3.7"),
    ("seed", 1.5, "seed must be an integer, got 1.5"),
    ("N_c", 2.0, "N_c must be an integer, got 2.0"),
    ("d", [True, 1, 1], "d[0] must be an integer, got True"),
    ("seed", True, "seed must be an integer, got True"),
], ids=["N-float", "K-float", "seed-float", "N_c-float", "d-bool", "seed-bool"])
@pytest.mark.parametrize("command", ["solve", "probe"])
def test_non_integer_config_numbers_exit_2(tmp_path, capsys, command, field, value, message):
    doc = {"K": 3, "N": [2, 2, 2], "d": [1, 1, 1], "structure": {"kind": "generic"},
           "seed": 0}
    if field == "N_c":
        doc.update(N=[4, 4, 4], M=[2, 2, 2],
                   structure={"kind": "block-diagonal", "N_c": value})
    else:
        doc[field] = value
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(doc))
    extra = ["--trials", "1", "--max-iters", "1"] if command == "solve" else ["--draws", "1"]
    capsys.readouterr()
    out = tmp_path / "o.json"
    assert main([command, "--config", str(cfg_path), *extra, "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("key, message", [
    ("sead", "unknown config key 'sead'; expected one of K, N, d, structure, M, seed"),
    ("Nc", "unknown structure key 'Nc'; expected one of kind, N_c"),
], ids=["sead", "Nc"])
@pytest.mark.parametrize("command", ["probe", "solve"])
def test_misspelt_config_keys_exit_2(tmp_path, capsys, command, key, message):
    # a misspelt key used to be ignored, so its field silently took its default
    doc = {"K": 3, "N": [2, 2, 2], "d": [1, 1, 1], "structure": {"kind": "generic"}}
    if key == "Nc":
        doc["structure"]["Nc"] = 4
    else:
        doc["sead"] = 5
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(doc))
    extra = ["--trials", "1", "--max-iters", "1"] if command == "solve" else ["--draws", "1"]
    capsys.readouterr()
    out = tmp_path / "o.json"
    assert main([command, "--config", str(cfg_path), *extra, "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("n", ["0", "-2"])
def test_cj3_names_a_nonpositive_index(tmp_path, capsys, n):
    # the message names --n, not the config the index would have built
    capsys.readouterr()
    out = tmp_path / "o.json"
    assert main(["cj3", "--n", n, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == f"error: n must be at least 1, got {n}\n"
    assert "d=" not in err and "N=" not in err
    assert not out.exists()


def test_cj3_start_vector_overflow_exits_3(tmp_path, capsys):
    # a RuntimeWarning is an error here, so stderr holds the one error line alone
    capsys.readouterr()
    out = tmp_path / "o.json"
    assert main(["cj3", "--n", "200", "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: the Krylov start vector ") and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("command", ["solve", "probe", "cj3"])
def test_negative_seed_is_named(tmp_path, capsys, command):
    cfg_path = write_config(tmp_path, generic_config(3, 2, 1))
    args = {"solve": ["--config", cfg_path, "--trials", "1", "--max-iters", "2"],
            "probe": ["--config", cfg_path, "--draws", "1"],
            "cj3": ["--n", "1"]}[command]
    out = tmp_path / "o.json"
    capsys.readouterr()
    assert main([command, *args, "--seed", "-1", "--out", str(out)]) == 2
    assert capsys.readouterr().err == "error: seed must be non-negative, got -1\n"
    assert not out.exists()


def test_seeds_beyond_64_bits_are_accepted(tmp_path):
    doc = run_json(tmp_path, ["cj3", "--n", "1", "--seed", str(2 ** 64)])
    jsonschema.validate(doc, schema("cj3"))
    assert doc["config"]["seed"] == 2 ** 64
    assert doc["verification"]["aligned"]


def test_verify_rejects_a_solution_for_other_stream_counts(tmp_path, capsys):
    solved = generic_config(3, 4, 1, seed=0)
    sol, traj, _ = _minimize_runs([sample_channels(solved)], solved.d,
                                  SolverOptions(max_iters=2000), [substream(0, 5)])[0]
    assert traj[-1] < 1e-12
    sol_path = tmp_path / "sol.json"
    sol_path.write_text(solution_text(sol))
    args = ["verify", "--solution", str(sol_path), "--out", str(tmp_path / "o.json")]
    # the same channels (same seed), and the config the solution was solved for
    assert main([*args, "--config", write_config(tmp_path, solved, "d1.json")]) == 0
    capsys.readouterr()
    named = write_config(tmp_path, generic_config(3, 4, 2, seed=0), "d2.json")
    assert main([*args, "--config", named]) == 2
    assert capsys.readouterr().err == \
        "error: user 0: the solution has 1 streams, the config names d_k=2\n"


@pytest.mark.parametrize("matrix, value", [("V", float("nan")), ("U", float("inf"))])
def test_non_finite_solution_entries_exit_2(tmp_path, capsys, matrix, value):
    paths = write_witness_with_stray_entry(tmp_path)
    doc = json.loads(paths["solution"].read_text())
    doc[matrix][1][0][0] = [value, 0.0]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["verify", "--config", str(paths["config"]), "--channels",
                 str(paths["channels"]), "--solution", str(bad),
                 "--out", str(tmp_path / "o.json")]) == 2
    name = "precoder" if matrix == "V" else "decoder"
    assert capsys.readouterr().err == \
        f"error: user 1: {name} contains non-finite entries\n"


def test_exit_code_for_missing_file(tmp_path):
    assert main(["probe", "--config", str(tmp_path / "nope.json"),
                 "--draws", "1", "--out", str(tmp_path / "o.json")]) == 1


def pair_rows(x):
    """[[x, x], [x, -x]] as rows of [re, im] pairs."""
    return [[[x, 0.0], [x, 0.0]], [[x, 0.0], [-x, 0.0]]]


EYE_ROWS = [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]
ZERO_ROWS = [[[0.0, 0.0]] * 2] * 2
LEAKAGE = "leakage overflows float64 at receiver 0"


# each id names the report that must not be written
@pytest.mark.parametrize("direct, cross, v, message", [
    (pair_rows(1e200), pair_rows(1e200), (1.0, 0.0), LEAKAGE),
    (EYE_ROWS, pair_rows(1e200), (1.0, 0.0), LEAKAGE),
    (EYE_ROWS, pair_rows(1.7e308), (0.6, 0.8), LEAKAGE),
    (pair_rows(1.7e308), ZERO_ROWS, (0.6, 0.8), "direct product of user 0 overflows float64"),
], ids=["json-huge", "json-identity", "json-max-cross", "json-max-direct"])
def test_overflowing_leakage_exits_3(tmp_path, capsys, direct, cross, v, message):
    # V = U = v on K=2, N=2, d=1. Entries of 1e200 square past float64 in the
    # leakage; with v = (0.6, 0.8), entries of 1.7e308 overflow the products H V
    # themselves. No figure can be reported, Infinity least of all, and since a
    # RuntimeWarning is an error here, stderr holds the one error line alone
    ch_path, sol_path = tmp_path / "ch.json", tmp_path / "sol.json"
    ch_path.write_text(json.dumps([[direct, cross], [cross, direct]]))
    vec = [[[v[0], 0.0]], [[v[1], 0.0]]]
    sol_path.write_text(json.dumps({"V": [vec, vec], "U": [vec, vec]}))
    out = tmp_path / "out.json"
    capsys.readouterr()
    assert main(["verify", "--config", write_config(tmp_path, generic_config(2, 2, 1)),
                 "--channels", str(ch_path), "--solution", str(sol_path),
                 "--out", str(out)]) == 3
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def test_exit_code_for_numerical_failure(tmp_path):
    cfg = generic_config(2, 3, 2, seed=0)
    cfg_path = write_config(tmp_path, cfg)
    rng = substream(0, 9)
    sol = _minimize_runs([sample_channels(cfg)], cfg.d,
                         SolverOptions(max_iters=1), [rng])[0][0]
    broken = json.loads(solution_text(sol))
    # duplicated precoder column: rank 1 < d=2 at user 0
    broken["V"][0][0] = broken["V"][0][0][:2] * 1
    for row in range(3):
        broken["V"][0][row][1] = broken["V"][0][row][0]
    sol_path = tmp_path / "sol.json"
    sol_path.write_text(json.dumps(broken))
    rc = main(["verify", "--config", cfg_path, "--solution", str(sol_path),
               "--out", str(tmp_path / "o.json")])
    assert rc == 3


@pytest.mark.parametrize("args,out", [
    (["cj3", "--n", "2", "--seed", "11"], "a.json"),
    (["contradiction", "--K", "4:4", "--n-max", "10"], "b.json"),
])
def test_outputs_are_bit_reproducible(tmp_path, args, out):
    p1, p2 = tmp_path / ("x" + out), tmp_path / ("y" + out)
    assert main(args + ["--out", str(p1)]) == 0
    assert main(args + ["--out", str(p2)]) == 0
    assert p1.read_bytes() == p2.read_bytes()


# SHA-256 of each exact subcommand's output at the acceptance suite's flags;
# integers, Fraction strings and correctly rounded floats give the same bytes
# on every platform, so a changed digest is a changed output
EXACT_FLAGS = {
    "bounds": ["--K", "3:5", "--n", "1:4", "--M", "1:3"],
    "cj-params": ["--K", "4", "--n", "1:6"],
    "contradiction": ["--K", "4:5", "--n-max", "20"],
}
EXACT_DIGESTS = {
    "bounds": "34d4e59fb959290f6d8e2de4194516c13882e26b26db68c157007a4c680a9318",
    "cj-params": "9cc5956f208b8247b6a1974612aa9578d1493d6b08e4f818f900797b9b70e6ad",
    "contradiction": "3d0938e6ce33b25d534ac9c6c2dd6152d68f87f54dcc8a147cd6836d5f613b60",
}


# each id names the report whose bytes are pinned
@pytest.mark.parametrize("command", list(EXACT_DIGESTS), ids=lambda c: f"{c}-json")
def test_exact_subcommands_keep_their_bytes(tmp_path, command):
    path = tmp_path / "out.json"
    assert main([command, *EXACT_FLAGS[command], "--out", str(path)]) == 0
    assert hashlib.sha256(path.read_bytes()).hexdigest() == EXACT_DIGESTS[command]


def test_probe_reproducible_and_seed_sensitive(tmp_path, monkeypatch):
    # the report cannot show seed sensitivity (nullities are generic), so the
    # draws themselves are recorded: one list of (V, U) per run
    runs = []
    draw = align_lab.probe._draw

    def recording_draw(cfg, rng):
        vu = draw(cfg, rng)
        runs[-1].append(vu)
        return vu

    monkeypatch.setattr(align_lab.probe, "_draw", recording_draw)
    cfg_path = write_config(tmp_path, diagonal_config(3, 5, (2, 1, 1), seed=3))
    docs = []
    for seed in ("1", "1", "2"):
        runs.append([])
        docs.append(run_json(tmp_path, ["probe", "--config", cfg_path, "--draws", "3",
                                        "--seed", seed]))
    assert docs[0] == docs[1]
    assert [len(r) for r in runs] == [3, 3, 3]

    def same(a, b):
        return all(np.array_equal(x, y) for x, y in zip(a[0] + a[1], b[0] + b[1]))

    assert all(same(a, b) for a, b in zip(runs[0], runs[1]))
    assert not any(same(a, b) for a, b in zip(runs[0], runs[2]))


def test_solve_flags_default_to_solver_options():
    args = build_parser().parse_args(["solve", "--config", "x"])
    opts = SolverOptions()
    flags = (args.max_iters, args.tol, args.trials, args.seed)
    fields = (opts.max_iters, opts.tol_align, opts.trials, opts.seed)
    assert [(type(x), x) for x in flags] == [(type(x), x) for x in fields]


def test_seed_meaning_per_subcommand(tmp_path):
    # probe and solve: --seed steers the draws and leaves the config's seed alone
    cfg_path = write_config(tmp_path, diagonal_config(3, 5, (2, 1, 1), seed=3))
    probe = ["probe", "--config", cfg_path, "--draws", "1"]
    doc = run_json(tmp_path, probe + ["--seed", "1"])
    assert (doc["config"]["seed"], doc["draws_seed"]) == (3, 1)
    assert run_json(tmp_path, probe)["draws_seed"] == 0
    solve = ["solve", "--config", cfg_path, "--trials", "1", "--max-iters", "2"]
    assert run_json(tmp_path, solve)["options"]["seed"] == 0
    doc = run_json(tmp_path, solve + ["--seed", "2"])
    assert (doc["config"]["seed"], doc["options"]["seed"]) == (3, 2)
    # cj3: --seed is the channel seed, 0 by default
    assert run_json(tmp_path, ["cj3", "--n", "1"])["config"]["seed"] == 0
    # verify and export-poly: the config's seed is the channel seed; no flag
    # overrides it (see test_flags_a_subcommand_would_ignore_are_rejected)
    paths = write_witness_with_stray_entry(tmp_path)
    doc = run_json(tmp_path, ["verify", "--config", str(paths["config"]),
                              "--solution", str(paths["solution"])])
    assert doc["config"]["seed"] == 3
    out = tmp_path / "sys.txt"
    assert main(["export-poly", "--config", str(paths["config"]), "--out", str(out)]) == 0
    assert " seed=3\n" in out.read_text().splitlines(keepends=True)[0]


@pytest.mark.parametrize("args", [
    ["bounds", "--seed", "7"],
    ["cj-params", "--K", "4", "--seed", "7"],
    ["contradiction", "--seed", "7"],
    ["verify", "--config", "cfg.json", "--solution", "sol.json", "--seed", "9"],
    ["export-poly", "--config", "cfg.json", "--seed", "9"],
    ["export-poly", "--config", "cfg.json", "--format", "json"],
    ["solve", "--config", "cfg.json", "--restarts", "2"],
    # cj3 checks its own unit-variance channels at verify's default tolerance
    ["cj3", "--tol", "1e-8"],
    # one report format: no subcommand takes --format
    ["bounds", "--format", "json"],
    ["cj-params", "--K", "4", "--format", "json"],
    ["contradiction", "--format", "json"],
    ["cj3", "--format", "json"],
    ["probe", "--config", "cfg.json", "--format", "json"],
    ["solve", "--config", "cfg.json", "--format", "json"],
    ["verify", "--config", "cfg.json", "--solution", "sol.json", "--format", "json"],
], ids=["bounds-seed", "cj-params-seed", "contradiction-seed", "verify-seed",
        "export-poly-seed", "export-poly-format", "solve-restarts", "cj3-tol",
        "bounds-format", "cj-params-format", "contradiction-format", "cj3-format",
        "probe-format", "solve-format", "verify-format"])
def test_flags_a_subcommand_would_ignore_are_rejected(args, capsys):
    with pytest.raises(SystemExit) as exc:
        main(args)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def run_recording_reads(argv):
    """One run of ``argv``'s subcommand: its JSON payload, and the dests that
    ``argv``'s parse sets and the run never reads."""
    args = build_parser().parse_args(argv)
    reads = set()

    class RecordingNamespace(argparse.Namespace):
        def __getattribute__(self, name):
            reads.add(name)
            return super().__getattribute__(name)

    recording = RecordingNamespace(**vars(args))
    report = recording.run(recording)
    _emit(recording, report)
    return report, set(vars(args)) - reads - {"command", "run"}


def test_every_parsed_flag_is_read(tmp_path):
    paths = write_witness_with_stray_entry(tmp_path)
    cfg_path = write_config(tmp_path, diagonal_config(3, 5, (2, 1, 1), seed=3))
    stored = ["--config", str(paths["config"]), "--channels", str(paths["channels"])]
    runs = {
        "bounds": ["--K", "3:4", "--n", "1:2", "--M", "1:2"],
        "cj-params": ["--K", "4", "--n", "1:2"],
        "contradiction": ["--K", "4:4", "--n-max", "10"],
        "cj3": ["--n", "1"],
        "probe": ["--config", cfg_path, "--draws", "1"],
        "solve": ["--config", cfg_path, "--trials", "1", "--max-iters", "2"],
        "verify": stored + ["--solution", str(paths["solution"])],
        "export-poly": stored,
    }
    subparsers = next(a for a in build_parser()._actions
                      if isinstance(a, argparse._SubParsersAction))
    assert set(runs) == set(subparsers.choices)
    results = {name: run_recording_reads([name] + argv + ["--out", str(tmp_path / name)])
               for name, argv in runs.items()}
    assert {name: unread for name, (_, unread) in results.items()} == \
        {name: set() for name in runs}
    # export-poly's text is written as it is, and every JSON report is the
    # stdlib's compact encoding on one line, byte for byte
    for name, (report, _) in results.items():
        expected = report if isinstance(report, str) else \
            json.dumps(report, default=pairs) + "\n"
        assert (tmp_path / name).read_text() == expected


# entries whose bits a decimal round trip could lose: signed zeros, the
# smallest subnormal and a value near the float64 ceiling
EDGE_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 1.7e308, -1.7e308]


@pytest.mark.parametrize("shape", [(2, 3), (0, 3), (3, 0)], ids=["2x3", "0x3", "3x0"])
def test_json_matrices_round_trip_bit_for_bit(tmp_path, shape):
    size = shape[0] * shape[1]
    parts = np.stack([EDGE_FLOATS[:size], EDGE_FLOATS[::-1][:size]], axis=-1)
    m = parts.view(complex).reshape(shape)
    path = tmp_path / "m.json"
    _emit(argparse.Namespace(out=path), {"m": m})
    text = path.read_text()
    assert text == json.dumps({"m": pairs(m)}) + "\n"
    back = _matrix_from_json(json.loads(text)["m"])
    # a (0, n) matrix is written as [], so only its emptiness survives; the
    # caller's shape checks name it
    assert back.dtype == complex and back.size == size
    assert back.shape == (shape if shape[0] else (0,))
    assert np.array_equal(back.reshape(shape).view(np.uint64), m.view(np.uint64))
    # a real array is not a complex matrix: json's own TypeError, not pairs
    with pytest.raises(TypeError, match="^Object of type ndarray is not JSON serializable$"):
        _emit(argparse.Namespace(out=path), {"m": m.real})


def test_stdout_and_out_get_the_same_bytes(tmp_path, capsys):
    path = tmp_path / "out.json"
    assert main(["cj3", "--n", "1"]) == 0
    stdout = capsys.readouterr().out
    assert main(["cj3", "--n", "1", "--out", str(path)]) == 0
    assert path.read_bytes() == stdout.encode("utf-8")
    assert stdout.endswith("}\n") and stdout.count("\n") == 1


def test_console_script_smoke(tmp_path):
    # The declared entry point, run in a child process the way the console
    # script runs it, against the same align_lab this process imported.
    try:
        import tomllib
    except ModuleNotFoundError:  # Python 3.10
        tomllib = pytest.importorskip("tomli")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    scripts = tomllib.loads(pyproject.read_text())["project"]["scripts"]
    assert scripts["align-lab"] == "align_lab.cli:main"

    # Calls made earlier in this process leave nothing behind in the shared
    # parser or the JSON writer.
    paths = write_witness_with_stray_entry(tmp_path)
    assert main(["verify", "--config", str(paths["config"]), "--channels",
                 str(paths["channels"]), "--solution", str(paths["solution"]),
                 "--out", str(tmp_path / "verify.json")]) == 0
    assert main(["probe", "--config", str(paths["config"]), "--draws", "2",
                 "--out", str(tmp_path / "probe.json")]) == 0

    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(Path(align_lab.__file__).parent.parent),
                    env.get("PYTHONPATH")) if p)
    stdout = {}
    for args in (["cj-params", "--K", "3", "--n", "1:3"],
                 ["cj3", "--n", "2", "--seed", "5"]):
        proc = subprocess.run([sys.executable, "-m", "align_lab.cli", *args],
                              capture_output=True, env=env, cwd=tmp_path,
                              timeout=60)
        assert proc.returncode == 0, proc.stderr.decode()
        out = tmp_path / "out.json"
        assert main(args + ["--out", str(out)]) == 0
        assert proc.stdout == out.read_bytes()
        stdout[args[0]] = proc.stdout
    assert json.loads(stdout["cj-params"])["rows"][0]["N_s"] == 3


@pytest.mark.skipif(shutil.which("align-lab") is None,
                    reason="align-lab console script not installed")
def test_installed_console_script():
    exe = shutil.which("align-lab")
    assert exe, "console script not installed"
    proc = subprocess.run([exe, "cj-params", "--K", "3", "--n", "1:3"],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["rows"][0]["N_s"] == 3
