"""Alternating leakage minimization and Monte Carlo feasibility verdicts."""

import warnings

import numpy as np
import pytest

from align_lab import solve
from align_lab.errors import DegenerateSpan
from align_lab.model import (
    ChannelSet,
    IaSolution,
    block_diagonal_config,
    complex_normal,
    diagonal_config,
    generic_config,
    sample_channels,
    substream,
)
from align_lab.solve import (
    Classification,
    SolverOptions,
    _fix_phase,
    _stop_reason,
    classify,
    config_digest,
    minimize_leakage,
    run_record_row,
    run_trials,
    verdict_to_json,
)
from align_lab.verify import check


def _fix_phase_loop(vectors):
    """Reference: the per-column phase fix the batched solver replaced."""
    out = vectors.copy()
    for c in range(out.shape[1]):
        col = out[:, c]
        idx = np.flatnonzero(np.abs(col) > 1e-12)
        if idx.size:
            pivot = col[idx[0]]
            out[:, c] = col * (pivot.conjugate() / abs(pivot))
    return out


def _loop_trajectory(ch, d, opts, rng):
    """Reference: the user-by-user solver the batched solver replaced."""
    K, N = ch.K, ch.N

    def update(x, link):
        out = []
        for k in range(K):
            q = np.zeros((N[k], N[k]), dtype=complex)
            for j in range(K):
                if j != k:
                    g = link(k, j) @ x[j]
                    q += g @ g.conj().T
            out.append(_fix_phase_loop(np.linalg.eigh(q)[1][:, :d[k]]))
        return out

    def leak(us, vs):
        return float(sum(np.linalg.norm(us[j].conj().T @ ch.matrices[j][k] @ vs[k]) ** 2
                         for j, k in ch.cross_pairs()))

    vs = [np.linalg.qr(complex_normal(rng, N[k], d[k]))[0] for k in range(K)]
    us = update(vs, lambda k, j: ch.matrices[k][j])
    traj = [leak(us, vs)]
    for _ in range(opts.max_iters):
        if traj[-1] == 0.0:
            break
        vs = update(us, lambda k, j: ch.matrices[j][k].conj().T)
        us = update(vs, lambda k, j: ch.matrices[k][j])
        traj.append(leak(us, vs))
        level = max(traj[-1], opts.tol_align)
        if abs(traj[-2] - traj[-1]) < opts.tol_align / 10 * level:
            break
    return traj


def test_fix_phase_matches_the_per_column_loop():
    x = complex_normal(substream(11, 3), 4, 6, 3)
    x[0, :, 1] = 0.0                    # zero padding of a stack
    x[1, :2, 0] = 1e-13                 # leading entries below the pivot cutoff
    x[2, :4, 2] = [1e-12, -1e-13j, 0.0, 1e-12 + 1e-12j]
    x[3, :, 2] = 1e-13                  # no entry above the cutoff
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = _fix_phase(x)
    for k in range(x.shape[0]):
        np.testing.assert_array_equal(out[k], _fix_phase_loop(x[k]))
    np.testing.assert_array_equal(out[0, :, 1], 0.0)
    np.testing.assert_array_equal(out[3, :, 2], x[3, :, 2])
    # 1e-12 itself is not above the cutoff: the pivot is row 3
    assert abs(out[2, 3, 2].imag) < 1e-15 * out[2, 3, 2].real


@pytest.mark.parametrize("cfg", [
    generic_config(3, 2, 1, seed=1),
    diagonal_config(3, 7, (4, 3, 3), seed=1),
    block_diagonal_config(3, 2, 2, 2, seed=1),
    generic_config(3, (2, 3, 4), (1, 1, 2), seed=1),
    generic_config(3, (2, 3, 4), (1, 3, 2), seed=1),   # N_0 < d_max
], ids=["generic-3-2-1", "diagonal-7-433", "block-diagonal-2-2-2", "generic-234-112",
        "generic-234-132"])
def test_batched_solver_matches_the_loop_solver(cfg):
    ch = sample_channels(cfg)
    opts = SolverOptions(max_iters=300)
    for seed in range(2):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sol, traj = minimize_leakage(ch, cfg.d, opts, rng=substream(seed, 1))
        ref = _loop_trajectory(ch, cfg.d, opts, substream(seed, 1))
        assert len(traj) == len(ref)
        # the covariances sum in another order, so only rounding may differ;
        # leakage carries an absolute error of a few eps times its start
        np.testing.assert_allclose(traj, ref, rtol=1e-9,
                                   atol=10 * np.finfo(float).eps * ref[0])
        assert sol.N == cfg.N and sol.d == cfg.d


def test_options_validation():
    with pytest.raises(ValueError):
        SolverOptions(max_iters=0)
    with pytest.raises(ValueError):
        SolverOptions(tol_align=0.0)
    with pytest.raises(ValueError):
        SolverOptions(restarts=0)
    with pytest.raises(ValueError):
        SolverOptions(trials=-1)


def test_trajectory_is_monotone_and_solution_verifies():
    cfg = generic_config(3, 2, 1, seed=1)
    ch = sample_channels(cfg)
    opts = SolverOptions(max_iters=500, trials=1)
    sol, traj = minimize_leakage(ch, cfg.d, opts, rng=substream(1, 0))
    diffs = np.diff(traj)
    assert np.all(diffs <= 1e-12)
    assert traj[-1] <= 1e-8
    res = check(ch, sol)
    assert res.aligned and res.rank_ok


def test_minimize_leakage_plateaus_on_overloaded_config():
    # twice the streams the dimension supports: leakage stays order one
    cfg = generic_config(3, 2, 2, seed=3)
    ch = sample_channels(cfg)
    sol, traj = minimize_leakage(ch, cfg.d, SolverOptions(max_iters=200),
                                 rng=substream(3, 0))
    assert np.all(np.diff(traj) <= 1e-12)
    assert traj[-1] > 1e-6
    assert sol.V[0].shape == (2, 2)


def test_run_trials_record_grid():
    cfg = generic_config(3, 2, 1, seed=2)
    opts = SolverOptions(max_iters=300, trials=3, restarts=2, seed=5)
    records = run_trials(cfg, opts)
    assert len(records) == 6
    assert {(r.trial, r.restart) for r in records} == \
        {(t, s) for t in range(3) for s in range(2)}
    for r in records:
        assert r.iters <= 300
        assert r.success == (r.aligned and r.rank_ok)
        # final_leakage is recomputed by the verifier on orthonormal bases,
        # so it matches the last trajectory point only to rounding
        assert r.trajectory[-1] == pytest.approx(r.final_leakage,
                                                 rel=1e-6, abs=1e-12)


def test_feasible_config_is_recognized():
    cfg = generic_config(3, 2, 1, seed=0)
    verdict = classify(cfg, SolverOptions(max_iters=1500, trials=10, seed=0))
    assert verdict.classification is Classification.LIKELY_FEASIBLE
    assert verdict.success_rate >= 0.9
    assert verdict.best_leakage <= 1e-8
    assert not verdict.witness_found


def test_overloaded_config_is_rejected():
    cfg = generic_config(3, 2, 2, seed=0)
    verdict = classify(cfg, SolverOptions(max_iters=150, trials=6, seed=0))
    assert verdict.classification is Classification.LIKELY_INFEASIBLE
    assert verdict.success_rate == 0.0
    assert verdict.best_leakage > 100 * 1e-8


def test_witness_overrides_low_success_rate():
    # the explicit construction exists for this shape, so the verdict is
    # feasible regardless of how the iterative runs fare
    cfg = diagonal_config(3, 3, (2, 1, 1), seed=4)
    verdict = classify(cfg, SolverOptions(max_iters=60, trials=2, seed=1))
    assert verdict.witness_found
    assert verdict.witness_status == "verified"
    assert verdict.classification is Classification.LIKELY_FEASIBLE


def test_witness_is_not_consulted_for_generic_structure():
    cfg = generic_config(3, 2, 2, seed=0)
    verdict = classify(cfg, SolverOptions(max_iters=60, trials=2, seed=1))
    assert not verdict.witness_found
    assert verdict.witness_status == "not_applicable"
    # diagonal, but not the (n+1, n, n) streams the construction needs
    verdict = classify(diagonal_config(3, 3, 1, seed=0),
                       SolverOptions(max_iters=60, trials=1, seed=1))
    assert verdict.witness_status == "not_applicable"


def _misaligned(ch, n):
    rng = substream(0, 3)
    return IaSolution(V=tuple(complex_normal(rng, 2 * n + 1, dk) for dk in (n + 1, n, n)),
                      U=tuple(complex_normal(rng, 2 * n + 1, dk) for dk in (n + 1, n, n)))


def _collapsed(ch, n):
    raise DegenerateSpan("Krylov space collapsed after 1 directions")


@pytest.mark.parametrize("construct, status", [
    (_misaligned, "failed_check"),
    (_collapsed, "raised: DegenerateSpan: Krylov space collapsed after 1 directions"),
], ids=["failed_check", "raised"])
def test_failed_witness_is_reported_not_swallowed(monkeypatch, construct, status):
    monkeypatch.setattr(solve.cj3, "construct", construct)
    cfg = diagonal_config(3, 3, (2, 1, 1), seed=4)
    verdict = classify(cfg, SolverOptions(max_iters=60, trials=2, seed=1))
    assert verdict.witness_status == status
    assert not verdict.witness_found
    doc = verdict_to_json(cfg, verdict)
    assert doc["witness_status"] == status and doc["witness_found"] is False


def test_stop_reason_zero_when_cross_channels_vanish():
    eye, zero = np.eye(3, dtype=complex), np.zeros((3, 3), dtype=complex)
    ch = ChannelSet(tuple(tuple(eye if j == k else zero for k in range(3))
                          for j in range(3)))
    opts = SolverOptions(max_iters=50)
    sol, traj = minimize_leakage(ch, (1, 2, 1), opts, rng=substream(0, 1))
    assert traj == [0.0]
    assert _stop_reason(traj, opts) == "zero"
    assert check(ch, sol).aligned


@pytest.mark.parametrize("cfg, max_iters, reason", [
    (generic_config(3, 2, 2, seed=3), 200, "plateau"),    # overloaded: stalls early
    (generic_config(4, 5, 2, seed=1), 40, "max_iters"),   # proper: slow descent
], ids=["plateau", "max_iters"])
def test_stop_reason_is_recorded(cfg, max_iters, reason):
    opts = SolverOptions(max_iters=max_iters, trials=2, seed=0)
    for rec in run_trials(cfg, opts):
        assert rec.stop_reason == reason
        assert (rec.iters == max_iters) == (reason == "max_iters")
        last_gain = rec.trajectory[-2] - rec.trajectory[-1]
        level = max(rec.trajectory[-1], opts.tol_align)
        assert (last_gain < opts.tol_align / 10 * level) == (reason == "plateau")


def test_verdict_quantiles_are_ordered():
    cfg = generic_config(3, 2, 1, seed=6)
    verdict = classify(cfg, SolverOptions(max_iters=400, trials=8, seed=2))
    median, p90 = verdict.leakage_quantiles
    assert 0 <= median <= p90
    assert verdict.best_leakage <= median


def test_classification_is_reproducible():
    cfg = generic_config(3, 2, 1, seed=9)
    opts = SolverOptions(max_iters=300, trials=4, seed=3)
    a = verdict_to_json(cfg, classify(cfg, opts))
    b = verdict_to_json(cfg, classify(cfg, opts))
    assert a == b


def test_solver_seed_changes_the_runs():
    cfg = generic_config(3, 2, 2, seed=9)
    r1 = run_trials(cfg, SolverOptions(max_iters=50, trials=2, seed=0))
    r2 = run_trials(cfg, SolverOptions(max_iters=50, trials=2, seed=1))
    assert [r.final_leakage for r in r1] != [r.final_leakage for r in r2]


def test_config_digest_is_short_and_stable():
    cfg = generic_config(3, 2, 1, seed=7)
    d1 = config_digest(cfg)
    assert len(d1) == 12
    assert d1 == config_digest(generic_config(3, 2, 1, seed=7))
    assert d1 != config_digest(generic_config(3, 2, 1, seed=8))


def test_run_record_rows_are_flat_and_typed():
    cfg = generic_config(3, 2, 1, seed=2)
    records = run_trials(cfg, SolverOptions(max_iters=200, trials=2, seed=0))
    rows = [run_record_row(cfg, r) for r in records]
    for row in rows:
        assert set(row) == {"config", "trial", "restart", "iters", "stop_reason",
                            "final_leakage", "rank_ok"}
        assert row["stop_reason"] in {"zero", "plateau", "max_iters"}
        assert row["config"] == config_digest(cfg)
        assert isinstance(row["final_leakage"], float)


def test_verdict_serialization_fields():
    cfg = generic_config(3, 2, 2, seed=1)
    doc = verdict_to_json(cfg, classify(cfg, SolverOptions(max_iters=60,
                                                           trials=3, seed=0)))
    assert doc["classification"] == "LikelyInfeasible"
    assert doc["witness_found"] is False
    assert doc["witness_status"] == "not_applicable"
    assert len(doc["runs"]) == 3
    assert all(row["config"] == config_digest(cfg) for row in doc["runs"])
    assert {"config", "success_rate", "best_leakage",
            "leakage_quantiles"} <= set(doc)
