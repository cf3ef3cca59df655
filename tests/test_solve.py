"""Alternating leakage minimization and Monte Carlo feasibility verdicts."""

import copy
import json
import warnings
from dataclasses import replace

import numpy as np
import pytest

from align_lab import solve
from align_lab.cli import main
from align_lab.counting import cj_config
from align_lab.errors import DegenerateSpan, InvalidSpec
from align_lab.model import (
    ChannelSet,
    IaSolution,
    _blocks,
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
    _START_SALT,
    Classification,
    Evidence,
    SolverOptions,
    _minimize_runs,
    _stop_reason,
    _trial_channel_seed,
    _witness,
    classify,
    run_trials,
)
from align_lab.verify import TOL_ISR, check


def solve_json(tmp_path, cfg, opts):
    """The ``solve`` subcommand's JSON report on ``cfg`` under ``opts``."""
    cfg_path, out = tmp_path / "cfg.json", tmp_path / "solve.json"
    cfg_path.write_text(json.dumps(config_to_json(cfg)))
    assert main(["solve", "--config", str(cfg_path), "--trials", str(opts.trials),
                 "--max-iters", str(opts.max_iters),
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


def _loop_solver(ch, d):
    """Reference: the user-by-user solver the batched solver replaced, with
    the line-searched Gauss-Newton step written out pair by pair.

    Returns ``receive``, ``leak``, ``direction`` and ``iterate``. The iterates
    are lists of full per-user bases, whose first d_k columns span the
    subspaces. ``direction(us, vs)`` is the list of V^perp B of the min-norm
    Gauss-Newton step, by ``lstsq``; ``iterate(us, vs, level, retry_below)``
    takes one iteration from bases whose leakage is ``level`` and returns the
    new bases and back-off level.
    """
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

    def direction(us, vs):
        # V^perp B of the min-norm solution of C + P_j M + W B_k = 0 over every pair;
        # column-major vec: vec(P M) = (M^T kron I) vec(P), vec(W B) = (I kron W) vec(B)
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
        return [vs[k][:, d[k]:] @ step[offsets[K + k]:offsets[K + k + 1]].reshape(
            N[k] - d[k], d[k], order="F") for k in range(K)]

    def line_search(us, vs, level):
        # the largest scale whose candidate lowers the leakage strictly, if any
        dirs = direction(us, vs)
        for scale in (1, 1 / 2, 1 / 4, 1 / 8, 1 / 16):
            vs_p = [np.linalg.qr(vs[k][:, :d[k]] + scale * dirs[k], mode="complete")[0]
                    for k in range(K)]
            us_p = receive(vs_p)
            if leak(us_p, vs_p) < level:
                return us_p, vs_p
        return None

    # proposals only where equations do not outnumber unknowns
    proposes = sum(d) ** 2 - sum(d_k * d_k for d_k in d) <= \
        2 * sum(d_k * (n_k - d_k) for n_k, d_k in zip(N, d))

    def iterate(us, vs, level, retry_below):
        step = None
        if proposes and level < retry_below:
            step = line_search(us, vs, level)
            if step is None:
                retry_below = level / 10
        if step is None:
            vs = transmit(us)
            us = receive(vs)
        else:
            us, vs = step
        return us, vs, retry_below

    return receive, leak, direction, iterate


@pytest.mark.parametrize("cfg, from_batched", [
    (generic_config(3, 2, 1, seed=1), False),
    (diagonal_config(3, 7, (4, 3, 3), seed=1), False),
    (block_diagonal_config(3, 2, 2, 2, seed=1), False),
    (generic_config(3, (2, 3, 4), (1, 1, 2), seed=1), False),
    (generic_config(3, (2, 3, 4), (1, 3, 2), seed=1), False),   # N_0 < d_max
    (generic_config(5, 2, 1, seed=1), False),
    (generic_config(4, 5, 2, seed=1), True),
], ids=["generic-3-2-1", "diagonal-7-433", "block-diagonal-2-2-2", "generic-234-112",
        "generic-234-132", "generic-5-2-1", "generic-4-5-2"])
def test_batched_solver_matches_the_loop_solver(cfg, from_batched):
    """The reference's trajectory is the batched solver's.

    Where ``from_batched`` is set, the reference restarts every iteration
    from the batched solver's iterate, so it checks each step rather than
    the whole trajectory. Far from a solution, generic-4-5-2's Gauss-Newton
    iterations amplify a rounding difference. Run whole, the reference's
    trajectory from seed 0 parts from the batched one by 3.7e-9 relative at
    iteration 10, 1.1e-7 at 13 and 1.0e-6 at 16, beyond the 1e-9 asked here,
    though both end below 1e-29 after 17 iterations.
    """
    ch = sample_channels(cfg)
    opts = SolverOptions(max_iters=300)
    receive, leak, _, iterate = _loop_solver(ch, cfg.d)
    for seed in range(2):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sol, traj, _ = _minimize_runs([ch], cfg.d, opts, [substream(seed, 1)])[0]
        rng = substream(seed, 1)
        vs = [np.linalg.qr(complex_normal(rng, n_k, d_k), mode="complete")[0]
              for n_k, d_k in zip(cfg.N, cfg.d)]
        us = receive(vs)
        ref, retry_below = [leak(us, vs)], np.inf
        while ref[-1] != 0.0:
            level = ref[-1]
            if from_batched and len(ref) > 1:   # the batched iterate after len(ref) - 1 iterations
                at = _minimize_runs([ch], cfg.d, replace(opts, max_iters=len(ref) - 1),
                                    [substream(seed, 1)])[0][0]
                vs = [np.linalg.qr(v, mode="complete")[0] for v in at.V]
                us = receive(vs)
                level = leak(us, vs)
            us, vs, retry_below = iterate(us, vs, level, retry_below)
            ref.append(leak(us, vs))
            if abs(level - ref[-1]) < opts.tol_align / 10 * max(ref[-1], opts.tol_align) \
                    or len(ref) - 1 == opts.max_iters:
                break
        assert len(traj) == len(ref)
        # the covariances sum in another order, so only rounding may differ;
        # leakage carries an absolute error of a few eps times its start
        np.testing.assert_allclose(traj, ref, rtol=1e-9,
                                   atol=10 * np.finfo(float).eps * ref[0])
        assert sol.N == cfg.N and sol.d == cfg.d


def _full_bases(rng, cfg, runs):
    """(runs, K, N_max, N_max) stack of random unitary N_k x N_k blocks, zero padded."""
    n = max(cfg.N)
    out = np.zeros((runs, cfg.K, n, n), dtype=complex)
    for r in range(runs):
        for k, n_k in enumerate(cfg.N):
            out[r, k, :n_k, :n_k] = np.linalg.qr(complex_normal(rng, n_k, n_k))[0]
    return out


@pytest.mark.parametrize("cfg", [
    generic_config(3, 2, 1),
    generic_config(4, 5, 2),
    diagonal_config(3, 7, (4, 3, 3)),
    generic_config(3, (2, 3, 4), (1, 1, 2)),
], ids=["generic-3-2-1", "generic-4-5-2", "diagonal-7-433", "generic-234-112"])
def test_stacked_step_is_each_runs_min_norm_step(cfg):
    chs = [sample_channels(replace(cfg, seed=s)) for s in range(3)]
    rng = substream(5, 2)
    eu, ev = _full_bases(rng, cfg, 3), _full_bases(rng, cfg, 3)
    got = solve._propose(solve._cross_stack(chs), eu, ev, solve._gn_layout(cfg.N, cfg.d))
    for r, ch in enumerate(chs):
        direction = _loop_solver(ch, cfg.d)[2]
        want = direction(*([x[r, k, :n_k, :n_k] for k, n_k in enumerate(cfg.N)]
                           for x in (eu, ev)))
        step = [got[r, k, :n_k, :d_k] for k, (n_k, d_k) in enumerate(zip(cfg.N, cfg.d))]
        error = np.sqrt(sum(np.linalg.norm(a - b) ** 2 for a, b in zip(step, want)))
        assert error <= 1e-10 * np.sqrt(sum(np.linalg.norm(b) ** 2 for b in want))


def test_singular_run_leaves_its_neighbours_steps_alone(monkeypatch):
    cfg = generic_config(4, 5, 2)
    chs = [sample_channels(replace(cfg, seed=s)) for s in range(3)]
    dense = [list(row) for row in chs[1].matrices]
    dense[0][1] = np.zeros_like(dense[0][1])    # zero rows in run 1's J: J J^H is singular
    chs[1] = ChannelSet.from_dense(cfg, dense)
    rng = substream(5, 3)
    eu, ev = _full_bases(rng, cfg, 3), _full_bases(rng, cfg, 3)
    h, layout = solve._cross_stack(chs), solve._gn_layout(cfg.N, cfg.d)
    lstsq, singular = np.linalg.lstsq, []

    def counted(*args, **kwargs):
        singular.append(args[0].shape)
        return lstsq(*args, **kwargs)

    with monkeypatch.context() as patched:
        patched.setattr(np.linalg, "lstsq", counted)
        got = solve._propose(h, eu, ev, layout)
    assert len(singular) == 1                   # run 1 alone goes to lstsq
    for r in (0, 2):
        alone = solve._propose(h[r:r + 1], eu[r:r + 1], ev[r:r + 1], layout)
        assert got[r].tobytes() == alone[0].tobytes()
    want = _loop_solver(chs[1], cfg.d)[2](*([x[1, k] for k in range(cfg.K)] for x in (eu, ev)))
    np.testing.assert_allclose(got[1], np.array(want), rtol=0,
                               atol=1e-10 * np.linalg.norm(np.array(want)))


def _scaled_channels(cfg, rng, scale):
    """A channel draw times ``scale``, and random orthonormal transmit bases."""
    ch = sample_channels(cfg)
    x = np.zeros((cfg.K, max(cfg.N), max(cfg.d)), dtype=complex)
    for k, (n_k, d_k) in enumerate(zip(cfg.N, cfg.d)):
        x[k, :n_k, :d_k] = np.linalg.qr(complex_normal(rng, n_k, d_k))[0]
    return ChannelSet.from_dense(cfg, [[scale * m for m in row] for row in ch.matrices]), x


def _rank_one(cfg, rng, scale):
    """Channels whose cross pairs into receiver 0 are scale * a b_k^H, inside
    the structure's first block, with every other cross pair zero, and
    transmit bases whose first column is b_k / |b_k|. Receiver 0's largest
    eigenvalue is then sum_k ||H_0k||_2^2 = ||h||_F^2, the bound behind the
    lift."""
    _, m = _blocks(cfg)
    a = np.zeros((cfg.N[0], 1), dtype=complex)
    a[:m[0]] = complex_normal(rng, m[0], 1)
    dense = [list(row) for row in sample_channels(cfg).matrices]
    x = np.zeros((cfg.K, max(cfg.N), max(cfg.d)), dtype=complex)
    for k, (n_k, d_k) in enumerate(zip(cfg.N, cfg.d)):
        b = np.zeros((n_k, 1), dtype=complex)
        b[:m[k]] = complex_normal(rng, m[k], 1)
        x[k, :n_k, :d_k] = np.linalg.qr(np.hstack([b, complex_normal(rng, n_k, d_k - 1)]))[0]
        for j in range(cfg.K):
            if j != k:
                dense[j][k] = scale * a @ b.conj().T if j == 0 else np.zeros((cfg.N[j], n_k))
    return ChannelSet.from_dense(cfg, dense), x


@pytest.mark.parametrize("cfg", [
    generic_config(3, (2, 3, 4), (1, 1, 2)),
    block_diagonal_config(3, (1, 2, 3), 2, (1, 2, 2)),
], ids=["generic-234", "block-diagonal-123"])
@pytest.mark.parametrize("draw", [_scaled_channels, _rank_one], ids=["dense", "rank-one"])
@pytest.mark.parametrize("scale", [1e-8, 1.0, 1e8])
def test_lift_puts_each_users_own_eigenvectors_first(cfg, draw, scale):
    """One ``eigh`` of the lifted covariance stack gives each user the
    eigenspaces of its own covariance first, then the padded unit vectors.
    Each run is its own stack, so a rank-one run's largest eigenvalue meets
    the bound its lift rests on."""
    rng = substream(8, 1)
    n = max(cfg.N)
    for s in range(8):
        ch, x = draw(replace(cfg, seed=s), rng, scale)
        h = solve._cross_stack([ch])
        run = solve._least_interference(h, x[None], solve._lift(h, cfg.N))[0][0]
        for k, (n_k, bases) in enumerate(zip(cfg.N, run)):
            g = np.hstack([ch.matrices[k][j] @ x[j, :cfg.N[j], :cfg.d[j]]
                           for j in range(cfg.K) if j != k])
            w, v = np.linalg.eigh(g @ g.conj().T)
            if draw is _rank_one and k == 0:
                assert w[-1] == pytest.approx(
                    sum(np.linalg.norm(ch.matrices[0][j], 2) ** 2 for j in range(1, cfg.K)),
                    rel=1e-12)
            np.testing.assert_allclose(bases[:, n_k:], np.eye(n)[:, n_k:], rtol=0, atol=1e-12)
            np.testing.assert_allclose(bases[n_k:, :n_k], 0, rtol=0, atol=1e-12)
            for m in range(1, n_k):     # each eigenspace boundary with a clear gap
                if w[m] - w[m - 1] > 1e-3 * w[-1]:
                    ours, want = bases[:n_k, :m], v[:, :m]
                    assert np.linalg.norm(ours - want @ (want.conj().T @ ours), 2) <= 1e-12


@pytest.mark.parametrize("cfg", [
    generic_config(3, (2, 3, 4), (1, 1, 2)),
    diagonal_config(3, 7, (4, 3, 3)),
], ids=["generic-234-112", "diagonal-7-433"])
def test_each_factorization_is_one_call_over_all_users(monkeypatch, cfg):
    """Every ``_least_interference`` call runs one ``eigh``, and every stack of
    bases, the initial draws and each line-search candidate stack, one ``qr``,
    however many distinct N_k or (N_k, d_k) the users have."""
    log = []

    def logged(name, call):
        def wrapper(*args, **kwargs):
            log.append(name)
            return call(*args, **kwargs)
        return wrapper

    for module, name in ((np.linalg, "eigh"), (np.linalg, "qr"), (solve, "_least_interference")):
        monkeypatch.setattr(module, name, logged(name, getattr(module, name)))
    chs = [sample_channels(replace(cfg, seed=s)) for s in range(2)]
    _minimize_runs(chs, cfg.d, SolverOptions(max_iters=20), [substream(s, 1) for s in range(2)])
    halves = [name for name in log if name != "qr"]
    assert halves == ["_least_interference", "eigh"] * (len(halves) // 2)
    stacks = [name for name in log if name != "eigh"]
    assert stacks.count("qr") >= 2     # the draws and at least one candidate stack
    assert all(after == "_least_interference" for before, after in zip(stacks, stacks[1:])
               if before == "qr")


def test_polish_stops_runs_soon_after_crossing():
    # below 1e-4 the Gauss-Newton steps converge quadratically
    crossed = 0
    for seed in range(10):
        opts = SolverOptions(max_iters=500, trials=2, seed=seed)
        for rec in run_trials(generic_config(3, 2, 1, seed=seed), opts):
            below = np.flatnonzero(np.array(rec.trajectory) < 1e-4)
            if below.size:
                crossed += 1
                assert rec.iters - below[0] <= 12, (seed, rec.trial, rec.iters, below[0])
    assert crossed > 10


def _plain(monkeypatch, cfg, opts, seed):
    """One run that only sweeps: no Gauss-Newton system fits a zero budget."""
    with monkeypatch.context() as plain:
        plain.setattr(solve, "_BATCH_BYTES", 0)
        return _minimize_runs([sample_channels(cfg)], cfg.d, opts, [substream(seed, 1)])[0]


def _never_proposes(*args):
    raise AssertionError("_propose called")


def _assert_bit_equal(a, b):
    (sol_a, traj_a, reason_a), (sol_b, traj_b, reason_b) = a, b
    assert (traj_a, reason_a) == (traj_b, reason_b)
    for got, want in zip(sol_a.V + sol_a.U, sol_b.V + sol_b.U, strict=True):
        assert got.tobytes() == want.tobytes()


def test_rejected_proposal_leaves_a_plain_sweep(monkeypatch):
    cfg, opts = generic_config(3, 2, 1, seed=1), SolverOptions(max_iters=500)
    tried = []

    def worse(h, eu, ev, layout):
        tried.append(len(ev))
        # far along the complement, column 1 at N=2, d=1: every scale proposes
        # about V^perp, whose leakage stays above each level this run reaches
        return 1e12 * ev[..., 1:2]

    plain = _plain(monkeypatch, cfg, opts, seed=0)
    monkeypatch.setattr(solve, "_propose", worse)
    rejected = _minimize_runs([sample_channels(cfg)], cfg.d, opts, [substream(0, 1)])[0]
    _assert_bit_equal(rejected, plain)
    # tried first, then again only once the leakage falls tenfold below the rejected level
    proposals, retry_below = 0, np.inf
    for level in plain[1][:-1]:               # each point that an iteration follows
        if level < retry_below:
            proposals, retry_below = proposals + 1, level / 10
    assert len(tried) == proposals >= 2


@pytest.mark.parametrize("cfg", [
    generic_config(5, 2, 1, seed=1),
    generic_config(3, 2, 2, seed=0),      # criterion 6's overloaded config
], ids=["generic-5-2-1", "generic-3-2-2"])
def test_more_equations_than_unknowns_never_proposes(monkeypatch, cfg):
    opts = SolverOptions(max_iters=300)
    plain = _plain(monkeypatch, cfg, opts, seed=0)
    monkeypatch.setattr(solve, "_propose", _never_proposes)
    _assert_bit_equal(_minimize_runs([sample_channels(cfg)], cfg.d, opts,
                                     [substream(0, 1)])[0], plain)


@pytest.mark.parametrize("cfg", [
    generic_config(3, 2, 1, seed=1),
    diagonal_config(3, 7, (4, 3, 3), seed=1),
], ids=["generic-3-2-1", "diagonal-7-433"])
def test_proposal_depends_only_on_the_spans(monkeypatch, cfg):
    """The same spans in other bases propose the same transmit spans.

    A unitary change of basis within each U_k, U_k^perp, V_k and V_k^perp
    turns the unknowns and equations of the Gauss-Newton system unitarily,
    under which the min-norm step, and so the span of V + V^perp B, is
    invariant.
    """
    propose, calls = solve._propose, []

    def recorded(*args):
        calls.append(args)
        return propose(*args)

    monkeypatch.setattr(solve, "_propose", recorded)
    _minimize_runs([sample_channels(cfg)], cfg.d, SolverOptions(max_iters=300), [substream(0, 1)])
    h, eu, ev, layout = calls[1]              # a state after one iteration
    rng = substream(3, 7)
    turn = np.zeros((cfg.K, max(cfg.N), max(cfg.N)), dtype=complex)
    for k, (n_k, d_k) in enumerate(zip(cfg.N, cfg.d)):
        turn[k, :d_k, :d_k] = np.linalg.qr(complex_normal(rng, d_k, d_k))[0]
        turn[k, d_k:n_k, d_k:n_k] = np.linalg.qr(complex_normal(rng, n_k - d_k, n_k - d_k))[0]
    want = ev[..., :max(cfg.d)] + propose(h, eu, ev, layout)
    got = (ev @ turn)[..., :max(cfg.d)] + propose(h, eu @ turn, ev @ turn, layout)
    for k, (n_k, d_k) in enumerate(zip(cfg.N, cfg.d)):
        a = np.linalg.qr(want[0, k, :n_k, :d_k])[0]
        b = np.linalg.qr(got[0, k, :n_k, :d_k])[0]
        assert not np.allclose(a, b)             # other bases ...
        sine = np.linalg.norm(b - a @ (a.conj().T @ b), 2)
        assert sine <= 1e-10                     # ... of the same span


def test_run_over_the_jacobian_budget_only_sweeps(monkeypatch):
    cfg, opts = generic_config(3, 2, 1, seed=1), SolverOptions(max_iters=500)
    ch = sample_channels(cfg)
    proposing = _minimize_runs([ch], cfg.d, opts, [substream(0, 1)])[0]
    # 6 equations in 6 complex unknowns: 576 bytes
    monkeypatch.setattr(solve, "_BATCH_BYTES", 6 * 6 * 16)
    _assert_bit_equal(_minimize_runs([ch], cfg.d, opts, [substream(0, 1)])[0], proposing)
    monkeypatch.setattr(solve, "_BATCH_BYTES", 6 * 6 * 16 - 1)
    monkeypatch.setattr(solve, "_propose", _never_proposes)
    sweeping = _minimize_runs([ch], cfg.d, opts, [substream(0, 1)])[0]
    assert len(proposing[1]) < len(sweeping[1])


def test_options_validation():
    with pytest.raises(ValueError):
        SolverOptions(max_iters=0)
    with pytest.raises(ValueError):
        SolverOptions(tol_align=0.0)
    with pytest.raises(ValueError, match="tol_align must be finite and positive, got inf"):
        SolverOptions(tol_align=float("inf"))
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
    opts = SolverOptions(max_iters=300, trials=6, seed=4)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        records = run_trials(cfg, opts)
        for rec in records:
            ch = sample_channels(replace(cfg, seed=_trial_channel_seed(cfg, opts, rec.trial)))
            sol, traj, _ = _minimize_runs([ch], cfg.d, opts, [substream(
                opts.seed, _START_SALT, rec.trial, 0)])[0]
            assert rec.iters == len(traj) - 1
            assert rec.stop_reason == _stop_reason(traj, opts)
            assert rec.trajectory == tuple(traj)
            for got, want in zip(rec.solution.V + rec.solution.U, sol.V + sol.U):
                assert got.tobytes() == want.tobytes()
    if staggered:
        assert len({rec.iters for rec in records}) > 1


def test_run_trials_batches_split_without_changing_records(monkeypatch):
    cfg = generic_config(3, 2, 1, seed=1)
    opts = SolverOptions(max_iters=200, trials=5, seed=4)
    whole = run_trials(cfg, opts)
    # three runs per batch: trials 0-2 in one batch, trials 3-4 in the next
    monkeypatch.setattr(solve, "_BATCH_BYTES", 3 * solve._run_bytes(cfg))
    for a, b in zip(whole, run_trials(cfg, opts), strict=True):
        assert (a.trial, a.iters, a.stop_reason, a.trajectory) == \
            (b.trial, b.iters, b.stop_reason, b.trajectory)
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
    opts = SolverOptions(max_iters=300, trials=6, seed=5)
    records = run_trials(cfg, opts)
    assert len(records) == 6
    assert [r.trial for r in records] == list(range(6))
    for r in records:
        assert r.iters <= 300
        assert r.success == (r.aligned and r.rank_ok)
        # final_leakage is recomputed by the verifier on orthonormal bases,
        # so it matches the last trajectory point only to rounding
        assert r.trajectory[-1] == pytest.approx(r.final_leakage,
                                                 rel=1e-6, abs=1e-12)


@pytest.mark.parametrize("seed, channel_seeds, starts", [
    (5, [10942835912910394806, 16075876241516178264, 10994723267955887488],
     ["0x1.e01cbed9dd3b3p+0", "0x1.14cebd564f557p-1", "0x1.20210bc78992dp+0"]),
    # SeedSequence pads a key to four 32-bit words with zeros, so only a key
    # longer than that, as with a two-word seed, shows the start stream's
    # trailing 0
    (2 ** 32, [6245216007075410194, 452284208873464198, 10993688548852777154],
     ["-0x1.dbd57bcaa5393p-1", "-0x1.995761d3a213ap-2", "-0x1.e1d8e8470dbc2p+0"]),
], ids=["one-word-seed", "two-word-seed"])
def test_seed_streams_are_pinned(monkeypatch, seed, channel_seeds, starts):
    # a changed stream key moves these values even where iters and
    # stop_reason stay put; Philox output does not depend on the BLAS
    cfg = generic_config(3, 2, 1, seed=2)
    opts = SolverOptions(trials=3, seed=seed)
    assert [_trial_channel_seed(cfg, opts, t) for t in range(3)] == channel_seeds
    firsts = []

    def recording(chs, d, opts, rngs):
        firsts.extend(copy.deepcopy(rng).standard_normal().hex() for rng in rngs)
        return _minimize_runs(chs, d, opts, rngs)

    monkeypatch.setattr(solve, "_minimize_runs", recording)
    run_trials(cfg, opts)
    assert firsts == starts


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


@pytest.mark.parametrize("cfg,opts,successes", [
    # one run in six aligns: too few for LikelyFeasible, too many for LikelyInfeasible
    (diagonal_config(4, 6, (3, 2, 2, 2)), SolverOptions(trials=6, seed=0), 1),
    # no run aligns in 3 iterations, but the best one is within 100 x tol
    (generic_config(3, 2, 1), SolverOptions(max_iters=3, trials=6, seed=1), 0),
])
def test_verdict_is_inconclusive_between_the_two_rules(cfg, opts, successes):
    verdict = classify(cfg, opts)
    assert verdict.classification is Classification.INCONCLUSIVE
    assert verdict.witness_status == "not_applicable"
    assert sum(r.success for r in verdict.records) == successes
    assert verdict.success_rate == successes / 6 < 0.5
    if not successes:
        assert opts.tol_align < verdict.best_leakage <= 100 * opts.tol_align


def test_proper_five_user_config_is_recognized():
    # generic K=5, N=6, d=2 is feasible; alternating minimization alone left
    # 18 of its 20 runs at the iteration cap
    verdict = classify(generic_config(5, 6, 2, seed=0), SolverOptions())
    assert verdict.classification is Classification.LIKELY_FEASIBLE
    assert all(r.max_interference_to_signal <= TOL_ISR for r in verdict.records if r.success)


def test_evidence_counts_capped_runs_and_lost_signals():
    # diagonal K=3, N_s=2, d=1 is infeasible: every run that aligns loses its signal
    verdict = classify(diagonal_config(3, 2, 1, seed=0), SolverOptions(seed=0))
    aligned = [r for r in verdict.records if r.aligned]
    assert aligned and all(r.max_interference_to_signal > TOL_ISR for r in aligned)
    assert verdict.evidence == Evidence(runs_at_max_iters=0, aligned_above_tol_isr=len(aligned))
    verdict = classify(generic_config(4, 5, 2, seed=1), SolverOptions(max_iters=10, trials=2))
    assert verdict.evidence == Evidence(runs_at_max_iters=2, aligned_above_tol_isr=0)


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
    assert doc["witness_status"] == status


def test_overflowing_witness_is_reported_not_raised():
    # at n=200 the witness's Krylov start vector exceeds float64 (seed 0)
    status = _witness(cj_config(3, 200), TRY_WITNESS)
    assert status.startswith("raised: NumericOverflow: the Krylov start vector")


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
    (generic_config(4, 5, 2, seed=1), 10, "max_iters"),   # proper: still descending
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


def test_run_record_rows_are_flat_and_typed(tmp_path):
    cfg = generic_config(3, 2, 1, seed=2)
    rows = solve_json(tmp_path, cfg, SolverOptions(max_iters=200, trials=2, seed=0))["runs"]
    assert len(rows) == 2
    for row in rows:
        assert set(row) == {"trial", "iters", "stop_reason",
                            "final_leakage", "max_interference_to_signal", "rank_ok"}
        assert row["stop_reason"] in {"zero", "plateau", "max_iters"}
        assert isinstance(row["final_leakage"], float)


def test_verdict_serialization_fields(tmp_path):
    cfg = generic_config(3, 2, 2, seed=1)
    doc = solve_json(tmp_path, cfg, SolverOptions(max_iters=60, trials=3, seed=0))
    assert doc["classification"] == "LikelyInfeasible"
    assert doc["witness_status"] == "not_applicable"
    assert len(doc["runs"]) == 3
    assert {"config", "success_rate", "best_leakage",
            "leakage_quantiles"} <= set(doc)
    assert doc["evidence"] == {"runs_at_max_iters": 0, "aligned_above_tol_isr": 0}
