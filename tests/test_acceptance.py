"""End-to-end acceptance checks.

Run with ``pytest -v tests/test_acceptance.py`` to get one pass/fail line
per criterion. Each test pins the thresholds it enforces and asserts its
own wall-clock budget; Monte Carlo thresholds were measured in pilot runs
and then frozen here (see the repository notes for the measured margins).
"""

import json
import time
from fractions import Fraction

import numpy as np

from align_lab.cj3 import build_instance
from align_lab.cli import main
from align_lab.counting import (
    cj_parameters,
    dim_channel_space,
    improper_by_threshold,
    is_proper,
    min_improper_n,
    symmetric_bound,
)
from align_lab.model import (
    complex_normal,
    config_to_json,
    diagonal_config,
    generic_config,
    pair_support,
    sample_channels,
    substream,
    IaSolution,
)
from align_lab.probe import assemble_channels, draw_random_solution, pair_block, run_probe
from align_lab.subspaces import nullspace_basis
from align_lab.solve import Classification, SolverOptions, classify
from align_lab.verify import check, normalize_gauge


def test_criterion_1_properness_equals_closed_form_bound():
    """Counting verdict == symmetric closed form, exhaustively, exactly."""
    start = time.perf_counter()
    checked = 0
    for k in range(2, 11):
        for m in range(1, 9):
            for d in range(1, m + 1):
                cfg = generic_config(k, m, d)
                assert is_proper(cfg).proper == (Fraction(d) <= symmetric_bound(m, k)), \
                    f"disagreement at K={k}, M={m}, d={d}"
                checked += 1
    assert checked == 9 * sum(range(1, 9))
    assert time.perf_counter() - start < 1.0


def test_criterion_2_series_parameters_stay_below_half_and_increase():
    """Exact rationals: d_bar < 1/2 strictly, monotone in the series index."""
    start = time.perf_counter()
    for k in range(3, 7):
        previous = Fraction(0)
        for n in range(1, 51):
            p = cj_parameters(k, n)
            assert isinstance(p.d_bar, Fraction)
            assert previous < p.d_bar < Fraction(1, 2), (k, n, p.d_bar)
            assert p.N_s == p.d[0] + p.d[1]
            assert p.d_total == sum(p.d)
            previous = p.d_bar
    assert time.perf_counter() - start < 1.0


def test_criterion_3_contradiction_thresholds_at_four_and_five_users():
    """Brute-force sweep and closed inequality agree; none for three users."""
    start = time.perf_counter()
    assert min_improper_n(4, 100) == 5
    assert min_improper_n(5, 100) == 6
    for k, n_star in ((4, 5), (5, 6)):
        assert not improper_by_threshold(k, n_star - 1)
        assert improper_by_threshold(k, n_star)
    assert min_improper_n(3, 10 ** 6) is None
    assert time.perf_counter() - start < 10.0


def test_criterion_4_constructed_witnesses_verify_across_sizes_and_seeds():
    """160 instances: leakage < 1e-8, ranks (n+1, n, n), d_bar above 1/3."""
    start = time.perf_counter()
    for n in range(1, 9):
        d_bar = Fraction(3 * n + 1, 3 * (2 * n + 1))
        assert d_bar > Fraction(1, 3)
        for seed in range(20):
            inst = build_instance(n, seed=seed)
            res = check(inst.channels, inst.solution)
            assert res.leakage < 1e-8, (n, seed, res.leakage)
            assert res.direct_ranks == (n + 1, n, n), (n, seed, res.direct_ranks)
    assert time.perf_counter() - start < 30.0


def test_criterion_5_probe_solutions_realign_and_generic_space_fills():
    """Reassembled nullspace vectors align; dense small case fills in 4 draws."""
    start = time.perf_counter()
    picker = np.random.default_rng(20260818)
    checked_vectors = 0
    for case in range(100):
        seed = int(picker.integers(0, 2 ** 32))
        if case % 2 == 0:
            k = int(picker.integers(2, 4))
            n = int(picker.integers(2, 4))
            cfg = generic_config(k, n, 1, seed=seed)
        else:
            n_s = int(picker.integers(2, 6))
            cfg = diagonal_config(3, n_s, 1, seed=seed)
        sol = draw_random_solution(cfg, substream(seed, 404, case))
        # P is block-diagonal by pair: zero-padded block nullspaces span its nullspace
        offset = 0
        for j, k in [(j, k) for j in range(cfg.K) for k in range(cfg.K) if j != k]:
            rows, cols = pair_support(cfg, j, k)
            basis = nullspace_basis(pair_block(sol.U[j], sol.V[k], rows, cols))
            for i in range(basis.shape[1]):
                h = np.zeros(dim_channel_space(cfg), dtype=complex)
                h[offset:offset + rows.size] = basis[:, i]
                assert check(assemble_channels(cfg, h), sol).leakage <= 1e-8, (case, j, k, i)
                checked_vectors += 1
            offset += rows.size
    assert checked_vectors > 100  # the mix must actually exercise nullspaces

    filled = sum(run_probe(generic_config(3, 2, 1, seed=s), draws=4, seed=s).filled
                 for s in range(100))
    assert filled >= 95  # pilot measured 100/100
    assert time.perf_counter() - start < 60.0


def test_criterion_6_solver_separates_feasible_from_overloaded():
    """One stream per user converges; two streams per user cannot."""
    start = time.perf_counter()
    feasible = classify(generic_config(3, 2, 1, seed=0),
                        SolverOptions(max_iters=5000, trials=50, seed=0))
    assert feasible.classification is Classification.LIKELY_FEASIBLE
    assert feasible.success_rate >= 0.9
    for rec in feasible.records:
        assert np.all(np.diff(rec.trajectory) <= 1e-12), \
            f"leakage rose in trial {rec.trial}"

    overloaded = classify(generic_config(3, 2, 2, seed=0),
                          SolverOptions(max_iters=300, trials=50, seed=0))
    assert overloaded.classification is Classification.LIKELY_INFEASIBLE
    assert overloaded.success_rate == 0.0
    assert overloaded.best_leakage > 100 * 1e-8
    for rec in overloaded.records:
        assert np.all(np.diff(rec.trajectory) <= 1e-12)
    assert time.perf_counter() - start < 300.0


def test_criterion_7_gauge_preserves_leakage_and_cli_is_reproducible(tmp_path):
    """Gauge moves leakage < 1e-10; fixed seeds give identical bytes."""
    rng = np.random.default_rng(7)
    for case in range(100):
        k = int(rng.integers(2, 4))
        n = int(rng.integers(2, 5))
        d = int(rng.integers(1, n))
        cfg = generic_config(k, n, d, seed=case)
        ch = sample_channels(cfg)
        stream = substream(case, 505)
        sol = IaSolution(
            V=tuple(complex_normal(stream, n, d) for _ in range(k)),
            U=tuple(complex_normal(stream, n, d) for _ in range(k)))
        delta = abs(check(ch, sol).leakage - check(ch, normalize_gauge(sol)).leakage)
        assert delta < 1e-10, (case, delta)

    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(config_to_json(generic_config(3, 2, 1, seed=4))))
    commands = [
        ["bounds", "--K", "3:5", "--n", "1:4", "--M", "1:3"],
        ["cj-params", "--K", "4", "--n", "1:6"],
        ["contradiction", "--K", "4:5", "--n-max", "20"],
        ["cj3", "--n", "2", "--seed", "5"],
        ["probe", "--config", str(cfg_path), "--draws", "4", "--seed", "2"],
        ["solve", "--config", str(cfg_path), "--trials", "4", "--seed", "2",
         "--max-iters", "600"],
        ["export-poly", "--config", str(cfg_path)],
    ]
    for idx, args in enumerate(commands):
        first = tmp_path / f"first_{idx}.out"
        second = tmp_path / f"second_{idx}.out"
        assert main(args + ["--out", str(first)]) == 0
        assert main(args + ["--out", str(second)]) == 0
        assert first.read_bytes() == second.read_bytes(), args[0]
