"""Alternating leakage minimization and Monte Carlo feasibility verdicts."""

import json
import warnings
from dataclasses import replace

import numpy as np
import pytest

from align_lab import solve
from align_lab.cli import _config_digest, main
from align_lab.counting import cj_config
from align_lab.errors import DegenerateSpan, InvalidSpec
from align_lab.model import (
    ChannelSet,
    IaSolution,
    block_diagonal_config,
    complex_normal,
    config_to_json,
    cross_pairs,
    diagonal_config,
    generic_config,
    sample_channels,
    substream,
)
from align_lab.solve import (
    _RESTART_SALT,
    Classification,
    SolverOptions,
    _minimize_runs,
    _stop_reason,
    _trial_channel_seed,
    classify,
    run_trials,
)
from align_lab.verify import check


def solve_json(tmp_path, cfg, opts):
    """The ``solve`` subcommand's JSON report on ``cfg`` under ``opts``."""
    cfg_path, out = tmp_path / "cfg.json", tmp_path / "solve.json"
    cfg_path.write_text(json.dumps(config_to_json(cfg)))
    assert main(["solve", "--config", str(cfg_path), "--trials", str(opts.trials),
                 "--restarts", str(opts.restarts), "--max-iters", str(opts.max_iters),
                 "--tol", repr(opts.tol_align), "--seed", str(opts.seed),
                 "--out", str(out)]) == 0
    return json.loads(out.read_text())


def _fix_phase_loop(vectors):
    """Reference: rotate each column so its first entry above 1e-12 is real positive.

    The batched solver keeps the phases ``eigh`` returns; the reference fixes
    them, so agreement shows that the phases do not matter.
    """
    out = vectors.copy()
    for c in range(out.shape[1]):
        col = out[:, c]
        idx = np.flatnonzero(np.abs(col) > 1e-12)
        if idx.size:
            pivot = col[idx[0]]
            out[:, c] = col * (pivot.conjugate() / abs(pivot))
    return out


def _loop_trajectory(ch, d, opts, rng):
    """Reference: the user-by-user solver the batched solver replaced, with
    the Gauss-Newton polish written out pair by pair."""
    K, N, H = ch.K, ch.N, ch.matrices

    def update(x, link):
        # full eigenvector bases: the first d_k columns are the new subspace
        out = []
        for k in range(K):
            q = np.zeros((N[k], N[k]), dtype=complex)
            for j in range(K):
                if j != k:
                    g = link(k, j) @ x[j][:, :d[j]]
                    q += g @ g.conj().T
            out.append(_fix_phase_loop(np.linalg.eigh(q)[1]))
        return out

    def receive(vs):
        return update(vs, lambda k, j: H[k][j])

    def transmit(us):
        return update(us, lambda k, j: H[j][k].conj().T)

    def leak(us, vs):
        return float(sum(np.linalg.norm(us[j][:, :d[j]].conj().T @ H[j][k] @ vs[k][:, :d[k]])
                         ** 2 for j, k in cross_pairs(K)))

    def propose(us, vs):
        # C + P_j M + W B_k = 0 for every pair; column-major vec:
        # vec(P M) = (M^T kron I) vec(P), vec(W B) = (I kron W) vec(B)
        sizes = [d[j] * (N[j] - d[j]) for j in range(K)] * 2
        offsets = np.concatenate([[0], np.cumsum(sizes)])
        rows, rhs = [], []
        for j, k in cross_pairs(K):
            t = us[j].conj().T @ H[j][k] @ vs[k]
            c, m, w = t[:d[j], :d[k]], t[d[j]:, :d[k]], t[:d[j], d[k]:]
            row = np.zeros((d[j] * d[k], offsets[-1]), dtype=complex)
            row[:, offsets[j]:offsets[j + 1]] = np.kron(m.T, np.eye(d[j]))
            row[:, offsets[K + k]:offsets[K + k + 1]] = np.kron(np.eye(d[k]), w)
            rows.append(row)
            rhs.append(-c.reshape(-1, order="F"))
        step = np.linalg.lstsq(np.vstack(rows), np.concatenate(rhs), rcond=None)[0]
        out = []
        for k in range(K):
            b = step[offsets[K + k]:offsets[K + k + 1]].reshape(N[k] - d[k], d[k], order="F")
            out.append(np.linalg.qr(vs[k][:, :d[k]] + vs[k][:, d[k]:] @ b,
                                    mode="complete")[0])
        return out

    vs = [np.linalg.qr(complex_normal(rng, N[k], d[k]), mode="complete")[0] for k in range(K)]
    us = receive(vs)
    traj = [leak(us, vs)]
    retry_below = solve._POLISH_BELOW
    for _ in range(opts.max_iters):
        if traj[-1] == 0.0:
            break
        step = None
        if traj[-1] < retry_below:
            vs_p = propose(us, vs)
            us_p = receive(vs_p)
            if leak(us_p, vs_p) < traj[-1]:
                step = us_p, vs_p
            else:
                retry_below = traj[-1] / 10
        if step is None:
            vs = transmit(us)
            us = receive(vs)
        else:
            us, vs = step
        traj.append(leak(us, vs))
        level = max(traj[-1], opts.tol_align)
        if abs(traj[-2] - traj[-1]) < opts.tol_align / 10 * level:
            break
    return traj


@pytest.mark.parametrize("cfg", [
    generic_config(3, 2, 1, seed=1),
    diagonal_config(3, 7, (4, 3, 3), seed=1),
    block_diagonal_config(3, 2, 2, 2, seed=1),
    generic_config(3, (2, 3, 4), (1, 1, 2), seed=1),
    generic_config(3, (2, 3, 4), (1, 3, 2), seed=1),   # N_0 < d_max
    generic_config(5, 2, 1, seed=1),
    generic_config(4, 5, 2, seed=1),
], ids=["generic-3-2-1", "diagonal-7-433", "block-diagonal-2-2-2", "generic-234-112",
        "generic-234-132", "generic-5-2-1", "generic-4-5-2"])
def test_batched_solver_matches_the_loop_solver(cfg):
    ch = sample_channels(cfg)
    opts = SolverOptions(max_iters=300)
    for seed in range(2):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sol, traj, _ = _minimize_runs([ch], cfg.d, opts, [substream(seed, 1)])[0]
        ref = _loop_trajectory(ch, cfg.d, opts, substream(seed, 1))
        assert len(traj) == len(ref)
        # the covariances sum in another order, so only rounding may differ;
        # leakage carries an absolute error of a few eps times its start
        np.testing.assert_allclose(traj, ref, rtol=1e-9,
                                   atol=10 * np.finfo(float).eps * ref[0])
        assert sol.N == cfg.N and sol.d == cfg.d


def test_polish_stops_runs_soon_after_crossing():
    crossed = 0
    for seed in range(10):
        opts = SolverOptions(max_iters=500, trials=2, seed=seed)
        for rec in run_trials(generic_config(3, 2, 1, seed=seed), opts):
            below = np.flatnonzero(np.array(rec.trajectory) < solve._POLISH_BELOW)
            if below.size:
                crossed += 1
                assert rec.iters - below[0] <= 12, (seed, rec.trial, rec.iters, below[0])
    assert crossed > 10


def _plain_and_polished(monkeypatch, cfg, opts, seed):
    """(plain, polished) results of one run: without any proposal, then as is."""
    ch = sample_channels(cfg)
    with monkeypatch.context() as plain:
        plain.setattr(solve, "_POLISH_BELOW", 0.0)
        without = _minimize_runs([ch], cfg.d, opts, [substream(seed, 1)])[0]
    return without, _minimize_runs([ch], cfg.d, opts, [substream(seed, 1)])[0]


def _assert_bit_equal(a, b):
    (sol_a, traj_a, reason_a), (sol_b, traj_b, reason_b) = a, b
    assert (traj_a, reason_a) == (traj_b, reason_b)
    for got, want in zip(sol_a.V + sol_a.U, sol_b.V + sol_b.U, strict=True):
        assert got.tobytes() == want.tobytes()


def test_rejected_proposal_leaves_a_plain_sweep(monkeypatch):
    cfg, opts = generic_config(3, 2, 1, seed=1), SolverOptions(max_iters=500)
    tried = []

    def worse(h, us, vs, layout, shapes):
        tried.append(len(vs))
        # [V V^perp] rolled to [V^perp V]: the proposal is the complement, leakage order one
        return np.roll(solve._complete(vs, shapes), 1, axis=-1)

    monkeypatch.setattr(solve, "_propose", worse)
    plain, rejected = _plain_and_polished(monkeypatch, cfg, opts, seed=0)
    assert len(tried) >= 2                    # tried, then again after the back-off
    _assert_bit_equal(rejected, plain)


@pytest.mark.parametrize("cfg", [
    generic_config(3, 2, 1, seed=1),
    diagonal_config(3, 7, (4, 3, 3), seed=1),
], ids=["generic-3-2-1", "diagonal-7-433"])
def test_proposal_depends_only_on_the_spans(monkeypatch, cfg):
    """The same spans in other bases propose the same transmit spans.

    ``_propose`` completes U and V itself, so a unitary change of basis within
    each U_k and V_k changes only the complement bases, under which the
    min-norm step is invariant.
    """
    propose, calls = solve._propose, []

    def recorded(*args):
        calls.append(args)
        return propose(*args)

    monkeypatch.setattr(solve, "_propose", recorded)
    _minimize_runs([sample_channels(cfg)], cfg.d, SolverOptions(max_iters=300), [substream(0, 1)])
    h, us, vs, layout, shapes = calls[0]        # the first state below _POLISH_BELOW
    rng = substream(3, 7)
    turn = np.zeros((cfg.K, max(cfg.d), max(cfg.d)), dtype=complex)
    for k, d_k in enumerate(cfg.d):
        turn[k, :d_k, :d_k] = np.linalg.qr(complex_normal(rng, d_k, d_k))[0]
    want = propose(h, us, vs, layout, shapes)
    got = propose(h, us @ turn, vs @ turn, layout, shapes)
    for k, (n_k, d_k) in enumerate(zip(cfg.N, cfg.d)):
        a, b = want[0, k, :n_k, :d_k], got[0, k, :n_k, :d_k]
        assert not np.allclose(a, b)             # other bases ...
        sine = np.linalg.norm(b - a @ (a.conj().T @ b), 2)
        assert sine <= 1e-10                     # ... of the same span


def test_run_over_the_jacobian_budget_only_sweeps(monkeypatch):
    cfg, opts = generic_config(3, 2, 1, seed=1), SolverOptions(max_iters=500)
    plain, polished = _plain_and_polished(monkeypatch, cfg, opts, seed=0)
    assert len(polished[1]) < len(plain[1])
    # 6 equations in 6 complex unknowns: 576 bytes
    monkeypatch.setattr(solve, "_BATCH_BYTES", 6 * 6 * 16 - 1)
    _assert_bit_equal(_plain_and_polished(monkeypatch, cfg, opts, seed=0)[1], plain)


def test_options_validation():
    with pytest.raises(ValueError):
        SolverOptions(max_iters=0)
    with pytest.raises(ValueError):
        SolverOptions(tol_align=0.0)
    with pytest.raises(ValueError, match="tol_align must be finite and positive, got inf"):
        SolverOptions(tol_align=float("inf"))
    with pytest.raises(ValueError):
        SolverOptions(restarts=0)
    with pytest.raises(ValueError):
        SolverOptions(trials=-1)
    with pytest.raises(InvalidSpec, match="seed must be non-negative, got -1"):
        SolverOptions(seed=-1)
    assert SolverOptions(seed=2 ** 64).seed == 2 ** 64


@pytest.mark.parametrize("cfg, staggered", [
    (generic_config(3, 2, 1, seed=1), True),                    # runs leave the batch early
    (diagonal_config(3, 7, (4, 3, 3), seed=1), False),          # unequal d_k: the keep mask
    (generic_config(3, (2, 3, 4), (1, 3, 2), seed=1), False),   # two eigh groups, N_0 < d_max
], ids=["generic-3-2-1", "diagonal-7-433", "generic-234-132"])
def test_run_trials_matches_each_run_solved_alone(cfg, staggered):
    opts = SolverOptions(max_iters=300, trials=3, restarts=2, seed=4)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        records = run_trials(cfg, opts)
        for rec in records:
            ch = sample_channels(replace(cfg, seed=_trial_channel_seed(cfg, opts, rec.trial)))
            sol, traj, _ = _minimize_runs([ch], cfg.d, opts, [substream(
                opts.seed, _RESTART_SALT, rec.trial, rec.restart)])[0]
            assert rec.iters == len(traj) - 1
            assert rec.stop_reason == _stop_reason(traj, opts)
            assert rec.trajectory == tuple(traj)
            for got, want in zip(rec.solution.V + rec.solution.U, sol.V + sol.U):
                assert got.tobytes() == want.tobytes()
    if staggered:
        assert len({rec.iters for rec in records}) > 1


def test_run_trials_batches_split_without_changing_records(monkeypatch):
    cfg = generic_config(3, 2, 1, seed=1)
    opts = SolverOptions(max_iters=200, trials=3, restarts=2, seed=4)
    whole = run_trials(cfg, opts)
    # three runs per batch: trial 1's restarts fall into different batches
    monkeypatch.setattr(solve, "_BATCH_BYTES", 3 * solve._run_bytes(cfg))
    for a, b in zip(whole, run_trials(cfg, opts), strict=True):
        assert (a.trial, a.restart, a.iters, a.stop_reason, a.trajectory) == \
            (b.trial, b.restart, b.iters, b.stop_reason, b.trajectory)
        assert a.solution.V[0].tobytes() == b.solution.V[0].tobytes()


def test_trajectory_is_monotone_and_solution_verifies():
    cfg = generic_config(3, 2, 1, seed=1)
    ch = sample_channels(cfg)
    opts = SolverOptions(max_iters=500, trials=1)
    sol, traj, _ = _minimize_runs([ch], cfg.d, opts, [substream(1, 0)])[0]
    diffs = np.diff(traj)
    assert np.all(diffs <= 1e-12)
    assert traj[-1] <= 1e-8
    res = check(ch, sol)
    assert res.aligned and res.rank_ok


def test_overloaded_run_plateaus_above_tolerance():
    # twice the streams the dimension supports: leakage stays order one
    cfg = generic_config(3, 2, 2, seed=3)
    ch = sample_channels(cfg)
    sol, traj, _ = _minimize_runs([ch], cfg.d, SolverOptions(max_iters=200),
                                  [substream(3, 0)])[0]
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


def _near_misses(n):
    """Configs one step off ``cj_config(3, n)``: other kind, N_s, order or K."""
    return {"block-diagonal": block_diagonal_config(3, 1, 2 * n + 1, (n + 1, n, n)),
            "generic": generic_config(3, 2 * n + 1, (n + 1, n, n)),
            "even-N_s": diagonal_config(3, 2 * n + 2, (n + 1, n, n)),
            "streams-permuted": diagonal_config(3, 2 * n + 1, (n, n + 1, n)),
            "K=4": diagonal_config(4, 2 * n + 1, (n + 1, n, n, n))}


NEAR_MISSES = [pytest.param(cfg, id=f"{name}-n{n}")
               for n in (1, 2) for name, cfg in _near_misses(n).items()]
TRY_WITNESS = SolverOptions(max_iters=1, trials=1)


@pytest.mark.parametrize("cfg", NEAR_MISSES + [pytest.param(diagonal_config(3, 2, 1),
                                                            id="n0")])
def test_witness_does_not_apply_to_near_misses(cfg):
    assert classify(cfg, TRY_WITNESS).witness_status == "not_applicable"


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_witness_applies_to_every_rung_of_the_series(n):
    assert classify(cj_config(3, n, seed=n), TRY_WITNESS).witness_status != "not_applicable"


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
def test_failed_witness_is_reported_not_swallowed(tmp_path, monkeypatch, construct, status):
    monkeypatch.setattr(solve.cj3, "construct", construct)
    cfg = diagonal_config(3, 3, (2, 1, 1), seed=4)
    opts = SolverOptions(max_iters=60, trials=2, seed=1)
    verdict = classify(cfg, opts)
    assert verdict.witness_status == status
    assert not verdict.witness_found
    doc = solve_json(tmp_path, cfg, opts)
    assert doc["witness_status"] == status and doc["witness_found"] is False


def test_stop_reason_zero_when_cross_channels_vanish():
    eye, zero = np.eye(3, dtype=complex), np.zeros((3, 3), dtype=complex)
    ch = ChannelSet.from_dense(generic_config(3, 3, (1, 2, 1)),
                               [[eye if j == k else zero for k in range(3)]
                                for j in range(3)])
    opts = SolverOptions(max_iters=50)
    sol, traj, _ = _minimize_runs([ch], (1, 2, 1), opts, [substream(0, 1)])[0]
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


def test_classification_is_reproducible(tmp_path):
    cfg = generic_config(3, 2, 1, seed=9)
    opts = SolverOptions(max_iters=300, trials=4, seed=3)
    a = solve_json(tmp_path, cfg, opts)
    b = solve_json(tmp_path, cfg, opts)
    assert a == b


def test_solver_seed_changes_the_runs():
    cfg = generic_config(3, 2, 2, seed=9)
    r1 = run_trials(cfg, SolverOptions(max_iters=50, trials=2, seed=0))
    r2 = run_trials(cfg, SolverOptions(max_iters=50, trials=2, seed=1))
    assert [r.final_leakage for r in r1] != [r.final_leakage for r in r2]


def test_config_digest_is_short_and_stable():
    cfg = generic_config(3, 2, 1, seed=7)
    d1 = _config_digest(cfg)
    assert len(d1) == 12
    assert d1 == _config_digest(generic_config(3, 2, 1, seed=7))
    assert d1 != _config_digest(generic_config(3, 2, 1, seed=8))


def test_run_record_rows_are_flat_and_typed(tmp_path):
    cfg = generic_config(3, 2, 1, seed=2)
    rows = solve_json(tmp_path, cfg, SolverOptions(max_iters=200, trials=2, seed=0))["runs"]
    assert len(rows) == 2
    for row in rows:
        assert set(row) == {"config", "trial", "restart", "iters", "stop_reason",
                            "final_leakage", "rank_ok"}
        assert row["stop_reason"] in {"zero", "plateau", "max_iters"}
        assert row["config"] == _config_digest(cfg)
        assert isinstance(row["final_leakage"], float)


def test_verdict_serialization_fields(tmp_path):
    cfg = generic_config(3, 2, 2, seed=1)
    doc = solve_json(tmp_path, cfg, SolverOptions(max_iters=60, trials=3, seed=0))
    assert doc["classification"] == "LikelyInfeasible"
    assert doc["witness_found"] is False
    assert doc["witness_status"] == "not_applicable"
    assert len(doc["runs"]) == 3
    assert all(row["config"] == _config_digest(cfg) for row in doc["runs"])
    assert {"config", "success_rate", "best_leakage",
            "leakage_quantiles"} <= set(doc)
