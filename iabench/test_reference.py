"""Self-test: each reference check accepts a correct output and rejects a corrupted one.

    python3 -m pytest -q iabench/test_reference.py

Run from the root of a checkout; align_lab is imported from ``src/``.
"""

import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "iabench"))

import align_lab.cli as al_cli                      # noqa: E402
from align_lab.cj3 import build_instance            # noqa: E402
from align_lab.counting import min_improper_n       # noqa: E402
from align_lab.model import config_from_json        # noqa: E402
from align_lab.probe import run_probe               # noqa: E402
from align_lab.solve import Classification, SolverOptions, classify  # noqa: E402

import reference as ref                             # noqa: E402
from reference import Rejected                      # noqa: E402
from workloads import PROBE_SPAN, _diagonals        # noqa: E402


def test_witness_check_rejects_a_perturbed_decoder_column():
    n = 4
    inst = build_instance(n, seed=5)
    diags = _diagonals(inst.channels.matrices)
    V, U = list(inst.solution.V), list(inst.solution.U)
    ref.check_witness(diags, V, U, n)
    bent = U[1].copy()
    bent[:, 0] += 1e-3 * np.random.default_rng(0).standard_normal(bent.shape[0])
    with pytest.raises(Rejected, match="leakage"):
        ref.check_witness(diags, V, [U[0], bent, U[2]], n)


def test_witness_check_rejects_lost_direct_rank():
    inst = build_instance(16, seed=3)          # a kept fault: direct ranks (17, 15, 16)
    with pytest.raises(Rejected, match="direct ranks"):
        ref.check_witness(_diagonals(inst.channels.matrices), inst.solution.V,
                          inst.solution.U, 16)


@pytest.mark.parametrize("kind, doc, draws, count", PROBE_SPAN)
def test_probe_check_rejects_a_nullity_off_by_one(kind, doc, draws, count):
    report = run_probe(config_from_json({**doc, "seed": 0}), draws, seed=1)
    ref.check_probe(report, doc, draws)
    nullities = list(report.per_draw_nullity)
    nullities[-1] += 1
    with pytest.raises(Rejected, match="nullities"):
        ref.check_probe(replace(report, per_draw_nullity=tuple(nullities)), doc, draws)


def test_series_check_rejects_a_wrong_min_improper_n():
    assert [ref.first_improper(K, 50) for K in (3, 4, 5, 6)] == [None, 5, 6, 8]
    for K in (3, 4, 5, 6):
        ref.check_min_improper(min_improper_n(K, 50), ref.first_improper(K, 50))
    with pytest.raises(Rejected):
        ref.check_min_improper(6, ref.first_improper(4, 50))
    with pytest.raises(Rejected):
        ref.check_min_improper(50, ref.first_improper(3, 50))


def test_dbar_check_is_exact():
    ref.check_dbar("10/21", 3)
    with pytest.raises(Rejected):
        ref.check_dbar("1/3", 1)


def test_poly_check_rejects_a_flipped_coefficient(tmp_path):
    n = 3
    inst = build_instance(n, seed=2)
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"K": 3, "N": [7, 7, 7], "d": [4, 3, 3], '
                   '"structure": {"kind": "diagonal"}, "seed": 2}')
    out = tmp_path / "poly.txt"
    assert al_cli.main(["export-poly", "--config", str(cfg), "--out", str(out)]) == 0
    text = out.read_text()
    U, V, d = inst.solution.U, inst.solution.V, (n + 1, n, n)
    ref.check_poly(text, U, V, d)
    lines = text.splitlines()
    first = next(i for i, ln in enumerate(lines) if not ln.startswith("#"))
    lines[first] = "(-" + lines[first][1:] if not lines[first].startswith("(-") \
        else "(" + lines[first][2:]
    with pytest.raises(Rejected, match="residual"):
        ref.check_poly("\n".join(lines) + "\n", U, V, d)
    with pytest.raises(Rejected, match="polynomials"):
        ref.check_poly("\n".join(lines[:-1]) + "\n", U, V, d)


def test_channel_check_rejects_an_off_diagonal_entry():
    inst = build_instance(2, seed=0)
    matrices = [[h.copy() for h in row] for row in inst.channels.matrices]
    ref.check_diagonal_channels(matrices, 5)
    matrices[0][1][0, 1] = 1e-300
    with pytest.raises(Rejected, match="diagonal"):
        ref.check_diagonal_channels(matrices, 5)


def test_verdict_check_rejects_a_wrong_classification_and_a_rising_trajectory():
    cfg = config_from_json({"K": 3, "N": [2, 2, 2], "d": [1, 1, 1],
                            "structure": {"kind": "generic"}, "seed": 4})
    verdict = classify(cfg, SolverOptions(max_iters=300, trials=2, seed=4))
    ref.check_verdict(verdict, 1e-8, improper=False, witness=False)
    assert any(r.success for r in verdict.records)
    with pytest.raises(Rejected, match="improper"):
        ref.check_verdict(verdict, 1e-8, improper=True, witness=False)
    with pytest.raises(Rejected, match="classification"):
        ref.check_verdict(replace(verdict, classification=Classification.INCONCLUSIVE),
                          1e-8, improper=False, witness=False)
    rec = verdict.records[0]
    rising = replace(rec, trajectory=rec.trajectory + (rec.trajectory[-1] + 1e-6,))
    with pytest.raises(Rejected, match="rises"):
        ref.check_verdict(replace(verdict, records=(rising,) + verdict.records[1:]),
                          1e-8, improper=False, witness=False)
