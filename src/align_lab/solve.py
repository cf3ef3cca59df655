"""Iterative approximate alignment and Monte Carlo feasibility classification.

The solver is alternating interference-leakage minimization: with
precoders frozen, each decoder is set to the least-dominant eigenvectors of
the interference covariance at its receiver; with decoders frozen, precoders
get the symmetric update in the reciprocal network (all channels conjugate
transposed). Both half-steps minimize the same total leakage, so a sweep
never increases it. Each half-step updates all users of all runs at
once: one stacked product with the zero-padded channel stack of every run,
one matmul for all interference covariances, and one batched ``eigh``, with
each user's padded diagonal lifted above its spectrum. The iterates are
orthonormal bases whose column phases are whatever ``eigh`` returns; the
covariance sum_j H V_j V_j^H H^H, hence both half-steps and the leakage,
depends only on the spanned subspaces.

Alternating minimization converges only linearly, so every iteration of a run
first tries a Gauss-Newton step: the min-norm solution of the linearized cross
equations, built on the complements that the iterates' full bases already hold
(the ``eigh`` of each half-step and the complete QR of each accepted step give
them), found for all asking runs by one stacked solve of the normal equations.
A backtracking line search tries the full step, then 1/2, 1/4, 1/8 and 1/16 of
it, each followed by a receive half-step, and keeps the largest scale whose
leakage falls strictly; if none does, the run sweeps from the same state. So
each iteration, and each trajectory point, is one accepted step or one sweep,
and the trajectory never increases. After a run rejects every scale it tries
again only once its leakage has fallen tenfold below the rejected level. Runs
propose only when their cross equations do not outnumber the unknowns, the
count under which the step can zero every cross product, and their system fits
``_BATCH_BYTES``; other runs only sweep. A run that stops drops out of the
stacks; the others iterate on exactly as they would alone. The classifier
solves all its channel draws together, one run each, then buckets the outcome;
absence of success is weak evidence (local minima exist), so the thresholds
are deliberately asymmetric and a known explicit witness overrides solver
failure.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace

import numpy as np

from . import cj3
from .counting import cj_config
from .errors import DegenerateSpan, NumericOverflow, RankDeficient, SingularChannel
from .model import (ChannelSet, IaSolution, SystemConfig, _count, _seed, complex_normal,
                    cross_pairs, pair_support, sample_channels, substream)
from .subspaces import _BATCH_BYTES
from .verify import TOL_ALIGN, TOL_ISR, _check_tolerance, _cross_leakage, check

__all__ = [
    "SolverOptions",
    "RunRecord",
    "Classification",
    "Evidence",
    "FeasibilityVerdict",
    "run_trials",
    "classify",
]

_TRIAL_SALT = 65537    # derives per-trial channel seeds
_START_SALT = 9973     # keys (salt, trial, 0); the 0 keeps every seeded run's start stream
_SCALES = (1.0, 0.5, 0.25, 0.125, 0.0625)   # line-search step scales, full step first


class Classification(enum.Enum):
    LIKELY_FEASIBLE = "LikelyFeasible"
    LIKELY_INFEASIBLE = "LikelyInfeasible"
    INCONCLUSIVE = "Inconclusive"


@dataclass(frozen=True)
class SolverOptions:
    max_iters: int = 1000
    tol_align: float = TOL_ALIGN
    trials: int = 20
    seed: int = 0

    def __post_init__(self) -> None:
        for name in ("max_iters", "trials"):
            object.__setattr__(self, name, _count(name, getattr(self, name)))
        object.__setattr__(self, "tol_align", _check_tolerance(self.tol_align))
        object.__setattr__(self, "seed", _seed(self.seed))


@dataclass(frozen=True)
class RunRecord:
    """One solver run: one channel draw, one start.

    ``stop_reason`` says why the run ended: ``zero`` (exact zero leakage),
    ``plateau`` or ``max_iters``. ``max_interference_to_signal`` is the
    worst receiver's ``interference_to_signal`` in the final ``check``.
    """

    trial: int
    iters: int
    stop_reason: str
    final_leakage: float
    max_interference_to_signal: float
    aligned: bool
    rank_ok: bool
    success: bool
    trajectory: tuple[float, ...]
    solution: IaSolution


@dataclass(frozen=True)
class Evidence:
    """What the runs of a verdict cannot show.

    ``runs_at_max_iters`` counts runs stopped by the iteration budget while
    still descending, which are no evidence of infeasibility.
    ``aligned_above_tol_isr`` counts aligned runs whose worst
    interference-to-signal ratio exceeds ``TOL_ISR``: they reached zero
    leakage by losing signal, not by aligning it.
    """

    runs_at_max_iters: int
    aligned_above_tol_isr: int


@dataclass(frozen=True)
class FeasibilityVerdict:
    """Aggregate over all runs of one configuration.

    ``leakage_quantiles`` is (median, p90) of final leakages.
    ``witness_status`` reports the explicit three-user construction:
    ``not_applicable`` (not ``cj_config(3, n)`` for any n, seed aside),
    ``verified``, ``failed_check`` (built, but the verifier rejects it) or
    ``raised: <ErrorName>: <message>``. A verified witness settles existence
    regardless of the solver's success rate. ``evidence`` counts the runs
    that say less than their ``success`` flag suggests; it does not enter
    the classification.
    """

    success_rate: float
    best_leakage: float
    leakage_quantiles: tuple[float, float]
    classification: Classification
    witness_status: str
    evidence: Evidence
    records: tuple[RunRecord, ...]

    @property
    def witness_found(self) -> bool:
        return self.witness_status == "verified"


def _cross_stack(chs: list[ChannelSet]) -> np.ndarray:
    """Zero-padded (R, K, K, N_max, N_max) stack of the cross channels of R
    channel sets of one shape, direct pairs zero."""
    K, n = chs[0].K, max(chs[0].N)
    h = np.zeros((len(chs), K, K, n, n), dtype=complex)
    for j, k in cross_pairs(K):
        rows, cols = pair_support(chs[0], j, k)
        h[:, j, k, rows, cols] = [ch.free[j][k] for ch in chs]
    return h


def _least_interference(h: np.ndarray, x: np.ndarray,
                        lift: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """One half-step of many runs: every receiver's least-interference subspace.

    ``h`` is an (R, K, K, N_max, N_max) stack of R runs' channels with zero
    direct pairs and ``x`` the (R, K, N_max, d_max) stack of transmit bases.
    The interference covariance at receiver k of run r is G G^H, where G lines
    up the images h[r, k, j] @ x[r, j] over all j. With ``lift`` (``_lift``)
    added to the diagonals, one batched ``eigh`` gives each user's own
    eigenvectors first, in ascending order, with the column phases ``eigh``
    gives: the first d_k span the new subspace and the next N_k - d_k its
    complement. The padded columns are padded unit vectors, which is
    harmless: ``h`` is zero on padded rows and columns, and ``_gn_layout``
    reads only the real complements. Returns these full (R, K, N_max, N_max)
    receive bases and the (R, K, K, N_max, d_max) stack of images.
    """
    R, K, n, w = x.shape
    hx = h @ x[:, None]
    g = hx.transpose(0, 1, 3, 2, 4).reshape(R, K, n, K * w)
    q = g @ g.conj().swapaxes(-1, -2)
    diagonal = np.arange(n)
    q[..., diagonal, diagonal] += lift
    return np.linalg.eigh(q)[1], hx


def _lift(h: np.ndarray, N: tuple[int, ...]) -> np.ndarray:
    """(K, N_max) diagonal lift for the runs of ``h``, or any subset of them:
    zero on each user's N_k real entries, 1 + 2 ||h||_F^2 on its padded ones.
    It exceeds every covariance eigenvalue, since lambda_max(G G^H) <=
    sum_j ||H_kj||_2^2 <= ||h||_F^2 for orthonormal bases; the factor 2 keeps
    rounding in G G^H from reaching it at any channel scale."""
    return np.where(np.arange(h.shape[-1]) < np.array(N)[:, None], 0.0,
                    1 + 2 * np.vdot(h, h).real)


def _spans(full: np.ndarray, keep: np.ndarray) -> np.ndarray:
    """The (..., K, N_max, d_max) iterates in full bases: each user's first
    d_k columns, the rest zeroed by the (K, 1, d_max) mask ``keep``."""
    return full[..., :keep.shape[-1]] * keep


def _sweep(h: np.ndarray, h_rec: np.ndarray, us: np.ndarray, keep: np.ndarray,
           lift: np.ndarray) -> tuple[np.ndarray, ...]:
    """One sweep of many runs from the receive bases ``us``: the transmit
    half-step, in the reciprocal network ``h_rec``, then the receive
    half-step. Returns the full transmit and receive bases and the images."""
    ev, _ = _least_interference(h_rec, us, lift)
    return (ev, *_least_interference(h, _spans(ev, keep), lift))


def _gn_shape(N: tuple[int, ...], d: tuple[int, ...]) -> tuple[int, int] | None:
    """(N_e, N_v) of one run's Gauss-Newton system J, or None if its runs
    never propose.

    N_e counts the cross equations, sum over j != k of d_j d_k, and N_v the
    unknowns, 2 sum_k d_k (N_k - d_k). Runs propose iff N_e <= N_v, so that
    the min-norm step can zero every cross product to first order, and J fits
    ``_BATCH_BYTES``.
    """
    equations = sum(d) ** 2 - sum(d_k * d_k for d_k in d)
    unknowns = 2 * sum(d_k * (n_k - d_k) for n_k, d_k in zip(N, d))
    fits = equations * unknowns * np.dtype(complex).itemsize <= _BATCH_BYTES
    return (equations, unknowns) if equations <= unknowns and fits else None


def _gn_layout(N: tuple[int, ...], d: tuple[int, ...]
               ) -> tuple[np.ndarray, np.ndarray, tuple[np.ndarray, ...], int]:
    """Where the Gauss-Newton system of one run sits in its blocks.

    The blocks are T[j, k] = [U_j U_j^perp]^H H[j][k] [V_k V_k^perp] of the
    full bases, flattened, with one zero appended. Each cross pair's
    C = U_j^H H V_k, M = U_j^perp^H H V_k and W = U_j^H H V_k^perp are blocks
    of T[j, k], so C + P_j M + W B_k = 0 is one row per entry (a, b) of C over
    the unknowns P_j (d_j x (N_j - d_j)) and B_k ((N_k - d_k) x d_k). Returns
    the indices of C's entries (N_e,), of the system matrix J (N_e, N_v, with
    P's unknowns first and its absent entries on the zero), the (user, row,
    column) positions of B's unknowns in a (K, N_max, d_max) array B', and
    d_max. B' is B under d_k zero rows, so V^perp B = [V V^perp] B'.
    """
    K, n = len(N), max(N)
    zero = K * K * n * n

    def columns(entries, width):
        return np.array(entries, dtype=int).reshape(-1, width).T

    def flat(j, k, row, col):
        return ((j * K + k) * n + row) * n + col

    # equations down the rows, unknowns across the columns
    rj, rk, ra, rb = columns([(j, k, a, b) for j, k in cross_pairs(K)
                              for a in range(d[j]) for b in range(d[k])], 4)[:, :, None]
    pj, pa, pq = columns([(j, a, q) for j in range(K) for a in range(d[j])
                          for q in range(d[j], N[j])], 3)[:, None, :]
    bk, bq, bb = columns([(k, q, b) for k in range(K) for q in range(d[k], N[k])
                          for b in range(d[k])], 3)[:, None, :]
    jac = np.concatenate([
        np.where((rj == pj) & (ra == pa), flat(rj, rk, pq, rb), zero),
        np.where((rk == bk) & (rb == bb), flat(rj, rk, ra, bq), zero)], axis=1)
    return flat(rj, rk, ra, rb)[:, 0], jac, (bk[0], bq[0], bb[0]), max(d)


def _propose(h: np.ndarray, eu: np.ndarray, ev: np.ndarray, layout: tuple) -> np.ndarray:
    """Gauss-Newton directions V^perp B of many runs; (R, K, N_max, d_max).

    ``eu`` and ``ev`` are the runs' full receive and transmit bases
    [U U^perp] and [V V^perp]. Each run takes the min-norm solution (P, B) of
    the system J x = -c that ``_gn_layout`` lays out, the first-order
    condition that every cross product vanish: x = J^H (J J^H)^-1 (-c), one
    stacked solve of the normal equations for all runs. If some system is
    exactly singular, the runs are solved one by one and only the singular
    ones by ``lstsq``, so each run's direction is the one it gets alone.
    """
    cross, jac, b_at, w = layout
    R, K, n, _ = ev.shape
    t = eu.conj().swapaxes(-1, -2)[:, :, None] @ h @ ev[:, None]
    t = np.concatenate([t.reshape(R, -1), np.zeros((R, 1))], axis=1)
    # take keeps the runs outermost; t[:, jac] puts them innermost, and matmul
    # then rounds by batch size
    j, c = np.take(t, jac, axis=1), -t[:, cross, None]
    unknowns, jh = len(b_at[0]), j.conj().swapaxes(-1, -2)
    system, jh_b = j @ jh, jh[:, -unknowns:]

    def solved(runs: slice) -> np.ndarray:
        return (jh_b[runs] @ np.linalg.solve(system[runs], c[runs]))[..., 0]

    try:
        x = solved(slice(None))
    except np.linalg.LinAlgError:
        x = np.empty((R, unknowns), dtype=complex)
        for r in range(R):
            try:
                x[r] = solved(slice(r, r + 1))[0]
            except np.linalg.LinAlgError:
                x[r] = np.linalg.lstsq(j[r], c[r, :, 0], rcond=None)[0][-unknowns:]
    b = np.zeros((R, K, n, w), dtype=complex)
    b[(slice(None), *b_at)] = x
    return ev @ b


def _line_search(h: np.ndarray, eu: np.ndarray, ev: np.ndarray, levels: list[float],
                 layout: tuple, keep: np.ndarray, lift: np.ndarray
                 ) -> list[tuple[np.ndarray, np.ndarray, np.ndarray] | None]:
    """Backtracking along each run's Gauss-Newton direction.

    Candidates are orth(V + t V^perp B), the leading columns of one complete
    QR of the zero-padded candidate stack, each followed by the receive
    half-step. All runs try the full step t = 1 in one stack; the runs whose
    full step fails try the smaller ``_SCALES`` in one more. A candidate
    passes when its leakage, by the expression behind each trajectory point,
    is strictly below the run's entry in ``levels``. Returns, per run, the
    full transmit and receive bases and the images of the largest scale that
    passed, or None.
    """
    vs, step = _spans(ev, keep), _propose(h, eu, ev, layout)
    found: list = [None] * len(levels)
    runs = list(range(len(levels)))
    for scales in (_SCALES[:1], _SCALES[1:]):
        if not runs:
            break
        x = vs[runs] + np.array(scales)[:, None, None, None, None] * step[runs]
        ev_t = np.linalg.qr(x.reshape(-1, *x.shape[2:]), mode="complete")[0]
        eu_t, hv_t = _least_interference(h[runs * len(scales)], _spans(ev_t, keep), lift)
        us_t = _spans(eu_t, keep)
        for i, r in enumerate(runs * len(scales)):      # largest scale first
            if found[r] is None and _cross_leakage(us_t[i][:, None], hv_t[i])[0] < levels[r]:
                found[r] = ev_t[i], eu_t[i], hv_t[i]
        runs = [r for r in runs if found[r] is None]
    return found


def _stop_reason(trajectory: list[float], opts: SolverOptions) -> str | None:
    """Why a run with this trajectory stops now, or None if it iterates again.

    ``zero``: the leakage is exactly zero. ``plateau``: the last iteration
    gained less than tol_align/10 relative to the current leakage level, with
    tol_align as the level floor. ``max_iters``: the iteration budget is spent.
    """
    if trajectory[-1] == 0.0:
        return "zero"
    if len(trajectory) > 1:
        level = max(trajectory[-1], opts.tol_align)
        if abs(trajectory[-2] - trajectory[-1]) < opts.tol_align / 10 * level:
            return "plateau"
    if len(trajectory) - 1 >= opts.max_iters:
        return "max_iters"
    return None


def _minimize_runs(chs: list[ChannelSet], d: tuple[int, ...], opts: SolverOptions,
                   rngs: list[np.random.Generator]
                   ) -> list[tuple[IaSolution, list[float], str]]:
    """Leakage minimization of runs on channel sets of one shape.

    Run r solves ``chs[r]`` from orthonormalized complex-normal precoders
    drawn from ``rngs[r]``; returns its solution, trajectory and stop reason.
    Decoders take one half-step before the first trajectory point, so
    trajectory[0] is already a minimized value. Each further point is one
    iteration: a Gauss-Newton step that passed the line search
    (``_line_search``), or else a sweep. Runs propose every iteration when
    ``_gn_shape`` admits their shape; after a run rejects every scale, it
    proposes again only once its leakage has fallen tenfold below the
    rejected level. ``_stop_reason`` scales the plateau test by the leakage
    level, which keeps slow descents toward tolerance going without letting
    stalled runs burn the iteration budget. The iterates are carried as full
    bases, whose trailing columns are the complements a proposal needs. Every
    half-step updates all users of all live runs at once, and a run leaves
    the stacks as soon as it stops, so each run's iterates are exactly those
    it would take alone.
    """
    N = chs[0].N
    n, w = max(N), max(d)
    draws = np.zeros((len(chs), len(N), n, w), dtype=complex)
    for r, rng in enumerate(rngs):
        for k, (n_k, d_k) in enumerate(zip(N, d)):
            draws[r, k, :n_k, :d_k] = complex_normal(rng, n_k, d_k)
    ev = np.linalg.qr(draws, mode="complete")[0]
    h = _cross_stack(chs)
    h_rec = np.ascontiguousarray(h.conj().transpose(0, 2, 1, 4, 3))
    keep = (np.arange(w) < np.array(d)[:, None])[:, None, :]
    lift = _lift(h, N)
    layout = _gn_layout(N, d) if _gn_shape(N, d) else None

    live = list(range(len(chs)))
    trajectories: list[list[float]] = [[] for _ in chs]
    retry_below = [np.inf] * len(chs)
    done: list = [None] * len(chs)
    eu, hv = _least_interference(h, _spans(ev, keep), lift)
    while True:
        us = _spans(eu, keep)
        going = []
        for i, r in enumerate(live):
            trajectories[r].append(_cross_leakage(us[i][:, None], hv[i])[0])
            reason = _stop_reason(trajectories[r], opts)
            if reason is None:
                going.append(i)
                continue
            vs = _spans(ev[i], keep)
            sol = IaSolution(V=tuple(v[:n_k, :d_k] for v, n_k, d_k in zip(vs, N, d)),
                             U=tuple(u[:n_k, :d_k] for u, n_k, d_k in zip(us[i], N, d)))
            done[r] = (sol, trajectories[r], reason)
        if not going:
            return done
        if len(going) < len(live):
            live = [live[i] for i in going]
            h, h_rec, ev, eu, hv, us = (x[going] for x in (h, h_rec, ev, eu, hv, us))
        ask = [i for i, r in enumerate(live) if trajectories[r][-1] < retry_below[r]] \
            if layout else []
        if not ask:
            ev, eu, hv = _sweep(h, h_rec, us, keep, lift)
            continue
        found = _line_search(h[ask], eu[ask], ev[ask], [trajectories[live[i]][-1] for i in ask],
                             layout, keep, lift)
        took = {}
        for i, state in zip(ask, found):
            if state is None:
                retry_below[live[i]] = trajectories[live[i]][-1] / 10
            else:
                took[i] = state
        rest = [i for i in range(len(live)) if i not in took]
        if rest:
            ev[rest], eu[rest], hv[rest] = _sweep(h[rest], h_rec[rest], us[rest], keep, lift)
        for i, state in took.items():
            ev[i], eu[i], hv[i] = state


def _trial_channel_seed(cfg: SystemConfig, opts: SolverOptions, trial: int) -> int:
    ss = np.random.SeedSequence((cfg.seed, opts.seed, _TRIAL_SALT, trial))
    return int(ss.generate_state(1, np.uint64)[0])


def _run_bytes(cfg: SystemConfig) -> int:
    """Bytes one run adds to the stacks of a half-step.

    Its channels h and h_rec, the images hx and their regrouped copy g, and
    the covariances q, lifted in place, with the eigenvectors of their one
    ``eigh``; if it proposes, also its Gauss-Newton system J and J J^H, and
    one more copy of those half-step stacks for each backtracking scale (one
    complete QR per stack), which ``_line_search`` stacks together.
    """
    K, n, w = cfg.K, max(cfg.N), max(cfg.d)
    entries = 2 * (K * K * n * n + K * K * n * w + K * n * n)
    gn = _gn_shape(cfg.N, cfg.d)
    if gn:
        entries = entries * len(_SCALES) + gn[0] * sum(gn)
    return entries * np.dtype(complex).itemsize


def run_trials(cfg: SystemConfig, opts: SolverOptions) -> list[RunRecord]:
    """Solve ``opts.trials`` runs, one per channel draw; order-independent streams.

    The runs are solved together by ``_minimize_runs``, in batches whose
    solver stacks stay under ``_BATCH_BYTES``; a run too large for that is
    solved alone.
    """
    size = max(1, _BATCH_BYTES // _run_bytes(cfg))
    records = []
    for start in range(0, opts.trials, size):
        batch = range(start, min(start + size, opts.trials))
        chs = [sample_channels(replace(cfg, seed=_trial_channel_seed(cfg, opts, t)))
               for t in batch]
        runs = _minimize_runs(chs, cfg.d, opts,
                              [substream(opts.seed, _START_SALT, t, 0) for t in batch])
        for trial, ch, (sol, traj, reason) in zip(batch, chs, runs):
            res = check(ch, sol, tol_align=opts.tol_align)
            records.append(RunRecord(trial=trial, iters=len(traj) - 1, stop_reason=reason,
                                     final_leakage=res.leakage, aligned=res.aligned,
                                     max_interference_to_signal=max(res.interference_to_signal),
                                     rank_ok=res.rank_ok, success=res.aligned and res.rank_ok,
                                     trajectory=tuple(traj), solution=sol))
    return records


def _witness(cfg: SystemConfig, opts: SolverOptions) -> str:
    """Try the explicit three-user construction on this exact configuration.

    It applies to ``cj_config(3, n)`` with the config's seed, for the one n
    that N_0 = 2n+1 allows. Returns the ``witness_status`` of
    ``FeasibilityVerdict``.
    """
    n = (cfg.N[0] - 1) // 2
    if cfg.K != 3 or n < 1 or cfg != cj_config(3, n, seed=cfg.seed):
        return "not_applicable"
    try:
        inst = cj3.build_instance(n, seed=cfg.seed)
        res = check(inst.channels, inst.solution, tol_align=opts.tol_align)
    except (SingularChannel, DegenerateSpan, RankDeficient, NumericOverflow) as exc:
        return f"raised: {type(exc).__name__}: {exc}"
    return "verified" if res.aligned and res.rank_ok else "failed_check"


def classify(cfg: SystemConfig, opts: SolverOptions) -> FeasibilityVerdict:
    """Monte Carlo feasibility verdict for one configuration.

    LikelyFeasible when at least half the runs align (or an explicit witness
    exists), LikelyInfeasible only when no run aligns and even the best run
    stays two orders of magnitude above tolerance, Inconclusive otherwise.
    """
    records = run_trials(cfg, opts)
    finals = np.array([r.final_leakage for r in records])
    rate = sum(1 for r in records if r.success) / len(records)
    best = float(finals.min())
    quantiles = (float(np.median(finals)), float(np.percentile(finals, 90)))
    witness = _witness(cfg, opts)
    if witness == "verified" or rate >= 0.5:
        verdict = Classification.LIKELY_FEASIBLE
    elif rate == 0.0 and best > 100 * opts.tol_align:
        verdict = Classification.LIKELY_INFEASIBLE
    else:
        verdict = Classification.INCONCLUSIVE
    evidence = Evidence(
        runs_at_max_iters=sum(r.stop_reason == "max_iters" for r in records),
        aligned_above_tol_isr=sum(r.aligned and r.max_interference_to_signal > TOL_ISR
                                  for r in records))
    return FeasibilityVerdict(success_rate=rate, best_leakage=best,
                              leakage_quantiles=quantiles, classification=verdict,
                              witness_status=witness, evidence=evidence,
                              records=tuple(records))
