"""Command-line interface: schemas, exit codes, formats, reproducibility."""

import csv
import json
import os
import re
import shutil
import subprocess
import sys
from importlib import resources
from pathlib import Path

import jsonschema
import numpy as np
import pytest

import align_lab
from align_lab.cli import main
from align_lab.model import (
    block_diagonal_config,
    config_from_json,
    config_to_json,
    diagonal_config,
    generic_config,
    sample_channels,
    solution_to_json,
    substream,
)
from align_lab.solve import SolverOptions, minimize_leakage
from align_lab.verify import normalize_gauge


def schema(name):
    text = resources.files("align_lab.schemas").joinpath(f"{name}.json").read_text()
    return json.loads(text)


def write_config(tmp_path, cfg, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(config_to_json(cfg)))
    return str(path)


def run_json(tmp_path, args, out="out.json"):
    path = tmp_path / out
    rc = main(args + ["--out", str(path)])
    assert rc == 0, f"exit {rc} for {args}"
    return json.loads(path.read_text())


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
    assert by_k[4]["improper_by_threshold"] is True


def test_contradiction_reports_absence_for_three_users(tmp_path):
    doc = run_json(tmp_path, ["contradiction", "--K", "3:3", "--n-max", "200"])
    row = doc["rows"][0]
    assert row["min_improper_n"] is None


def test_contradiction_rejects_out_of_range_users(tmp_path):
    assert main(["contradiction", "--K", "2:5", "--n-max", "10",
                 "--out", str(tmp_path / "x.json")]) == 2
    assert main(["contradiction", "--K", "4:13", "--n-max", "10",
                 "--out", str(tmp_path / "x.json")]) == 2


def test_cj3_witness_payload(tmp_path):
    doc = run_json(tmp_path, ["cj3", "--n", "2", "--seed", "7"])
    jsonschema.validate(doc, schema("cj3"))
    assert doc["N_s"] == 5
    assert doc["d"] == [3, 2, 2]
    assert doc["verification"]["aligned"] is True
    assert doc["verification"]["rank_ok"] is True
    assert doc["verification"]["leakage"] < 1e-9
    assert doc["exceeds_tdma"] is True
    assert doc["d_bar"] == "7/15"


def test_probe_fill_payload(tmp_path):
    cfg_path = write_config(tmp_path, generic_config(3, 2, 1, seed=5))
    doc = run_json(tmp_path, ["probe", "--config", cfg_path, "--draws", "4"])
    jsonschema.validate(doc, schema("probe"))
    assert doc["dim_target"] == 24
    assert doc["filled"] is True


def test_solve_json_and_csv(tmp_path):
    cfg_path = write_config(tmp_path, generic_config(3, 2, 1, seed=1))
    doc = run_json(tmp_path, ["solve", "--config", cfg_path, "--trials", "3",
                              "--max-iters", "800"])
    jsonschema.validate(doc, schema("solve"))
    assert doc["classification"] == "LikelyFeasible"

    csv_path = tmp_path / "runs.csv"
    rc = main(["solve", "--config", cfg_path, "--trials", "3",
               "--max-iters", "800", "--format", "csv", "--out", str(csv_path)])
    assert rc == 0
    rows = list(csv.DictReader(csv_path.open()))
    assert len(rows) == 3
    assert {"config", "trial", "restart", "iters", "stop_reason",
            "final_leakage", "rank_ok"} <= set(rows[0])
    assert all(float(r["final_leakage"]) < 1e-8 for r in rows)


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


def test_verify_reports_misalignment_without_failing(tmp_path):
    cfg = generic_config(2, 2, 1, seed=6)
    cfg_path = write_config(tmp_path, cfg)
    rng = substream(6, 123)
    sol = minimize_leakage(sample_channels(cfg), cfg.d,
                           SolverOptions(max_iters=1), rng=rng)[0]
    sol_path = tmp_path / "sol.json"
    sol_path.write_text(json.dumps(solution_to_json(sol)))
    doc = run_json(tmp_path, ["verify", "--config", cfg_path,
                              "--solution", str(sol_path), "--seed", "999"])
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
        sol = normalize_gauge(minimize_leakage(ch, cfg.d, SolverOptions(max_iters=3),
                                               rng=substream(8, 5))[0])
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


def test_exit_code_for_malformed_config(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"K": 3}')
    assert main(["probe", "--config", str(bad), "--draws", "1",
                 "--out", str(tmp_path / "o.json")]) == 2


def test_exit_code_for_overloaded_streams(tmp_path):
    cfg_path = write_config(tmp_path, generic_config(2, 2, (3, 1), seed=0))
    assert main(["solve", "--config", cfg_path, "--trials", "1",
                 "--out", str(tmp_path / "o.json")]) == 2


def test_exit_code_for_missing_file(tmp_path):
    assert main(["probe", "--config", str(tmp_path / "nope.json"),
                 "--draws", "1", "--out", str(tmp_path / "o.json")]) == 1


def test_exit_code_for_numerical_failure(tmp_path):
    cfg = generic_config(2, 3, 2, seed=0)
    cfg_path = write_config(tmp_path, cfg)
    rng = substream(0, 9)
    sol = minimize_leakage(sample_channels(cfg), cfg.d,
                           SolverOptions(max_iters=1), rng=rng)[0]
    broken = solution_to_json(sol)
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


def test_probe_reproducible_and_seed_sensitive(tmp_path):
    cfg_path = write_config(tmp_path, diagonal_config(3, 5, (2, 1, 1), seed=3))
    a = run_json(tmp_path, ["probe", "--config", cfg_path, "--draws", "3",
                            "--seed", "1"], out="a.json")
    b = run_json(tmp_path, ["probe", "--config", cfg_path, "--draws", "3",
                            "--seed", "1"], out="b.json")
    assert a == b


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
    assert run_json(tmp_path, ["cj3", "--n", "1"])["seed"] == 0
    # verify and export-poly: --seed overrides the config's channel seed
    paths = write_witness_with_stray_entry(tmp_path)
    doc = run_json(tmp_path, ["verify", "--config", str(paths["config"]),
                              "--solution", str(paths["solution"]), "--seed", "9"])
    assert doc["config"]["seed"] == 9
    out = tmp_path / "sys.txt"
    assert main(["export-poly", "--config", str(paths["config"]), "--seed", "9",
                 "--out", str(out)]) == 0
    assert " seed=9\n" in out.read_text().splitlines(keepends=True)[0]


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

    args = ["cj-params", "--K", "3", "--n", "1:3"]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(Path(align_lab.__file__).parent.parent),
                    env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-m", "align_lab.cli", *args],
                          capture_output=True, env=env, cwd=tmp_path,
                          timeout=60)
    assert proc.returncode == 0, proc.stderr.decode()
    doc = json.loads(proc.stdout)
    assert doc["rows"][0]["N_s"] == 3
    out = tmp_path / "out.json"
    assert main(args + ["--out", str(out)]) == 0
    assert proc.stdout == out.read_bytes()


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
