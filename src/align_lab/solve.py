"""Iterative approximate alignment and Monte Carlo feasibility classification.

The solver is plain alternating interference-leakage minimization: with
precoders frozen, each decoder is set to the least-dominant eigenvectors of
the interference covariance at its receiver; with decoders frozen, precoders
get the symmetric update in the reciprocal network (all channels conjugate
transposed). Both half-steps minimize the same total leakage, so the
trajectory never increases. Each half-step updates all users at once: one
stacked product with the zero-padded channel stack, one matmul for all
interference covariances, and one batched ``eigh`` per distinct N_k. The
classifier runs the solver on many channel draws and restarts, then buckets
the outcome; absence of success is weak evidence (local minima exist), so the
thresholds are deliberately asymmetric and a known explicit witness overrides
solver failure.
"""

from __future__ import annotations

import enum
import hashlib
import json
from dataclasses import dataclass

import numpy as np

from . import cj3
from .errors import DegenerateSpan, DimensionMismatch, RankDeficient, SingularChannel
from .model import (ChannelSet, IaSolution, StructureKind, SystemConfig,
                    complex_normal, config_to_json, pair_support, sample_channels,
                    substream, with_seed)
from .verify import _cross_leakage, _stack, check

__all__ = [
    "SolverOptions",
    "RunRecord",
    "Classification",
    "FeasibilityVerdict",
    "minimize_leakage",
    "run_trials",
    "classify",
    "config_digest",
    "run_record_row",
    "verdict_to_json",
]

_TRIAL_SALT = 65537    # derives per-trial channel seeds
_RESTART_SALT = 9973   # derives per-(trial, restart) init streams


class Classification(enum.Enum):
    LIKELY_FEASIBLE = "LikelyFeasible"
    LIKELY_INFEASIBLE = "LikelyInfeasible"
    INCONCLUSIVE = "Inconclusive"


@dataclass(frozen=True)
class SolverOptions:
    max_iters: int = 1000
    tol_align: float = 1e-8
    restarts: int = 1
    trials: int = 20
    seed: int = 0

    def __post_init__(self) -> None:
        if self.max_iters < 1:
            raise ValueError(f"max_iters must be at least 1, got {self.max_iters}")
        if not self.tol_align > 0:
            raise ValueError(f"tol_align must be positive, got {self.tol_align}")
        if self.restarts < 1:
            raise ValueError(f"restarts must be at least 1, got {self.restarts}")
        if self.trials < 1:
            raise ValueError(f"trials must be at least 1, got {self.trials}")


@dataclass(frozen=True)
class RunRecord:
    """One (channel draw, restart) solver run.

    ``stop_reason`` says why the run ended: ``zero`` (exact zero leakage),
    ``plateau`` or ``max_iters``.
    """

    trial: int
    restart: int
    iters: int
    stop_reason: str
    final_leakage: float
    aligned: bool
    rank_ok: bool
    success: bool
    trajectory: tuple[float, ...]
    solution: IaSolution


@dataclass(frozen=True)
class FeasibilityVerdict:
    """Aggregate over all runs of one configuration.

    ``leakage_quantiles`` is (median, p90) of final leakages.
    ``witness_status`` reports the explicit three-user construction:
    ``not_applicable`` (not a K=3 diagonal (n+1, n, n) configuration),
    ``verified``, ``failed_check`` (built, but the verifier rejects it) or
    ``raised: <ErrorName>: <message>``. A verified witness settles existence
    regardless of the solver's success rate.
    """

    success_rate: float
    best_leakage: float
    leakage_quantiles: tuple[float, float]
    classification: Classification
    witness_status: str
    records: tuple[RunRecord, ...]

    @property
    def witness_found(self) -> bool:
        return self.witness_status == "verified"


def _fix_phase(x: np.ndarray) -> np.ndarray:
    """Rotate each column so its first entry above 1e-12 in modulus is real positive.

    ``x`` is a (K, n, w) stack; columns with no such entry, such as the zero
    padding of a stack, are left as they are.
    """
    K, _, w = x.shape
    # np.hypot rounds as abs() of a complex scalar does; np.abs of an array may not
    mod = np.hypot(x.real, x.imag)
    at = (np.arange(K)[:, None], (mod > 1e-12).argmax(axis=1), np.arange(w))
    # argmax gives row 0 in a column without such an entry; do not rotate it
    pivot = np.where(mod[at] > 1e-12, x[at], 1.0)
    return x * (pivot.conj() / np.hypot(pivot.real, pivot.imag))[:, None, :]


def _cross_stack(ch: ChannelSet) -> np.ndarray:
    """Zero-padded (K, K, N_max, N_max) stack of the cross channels, direct pairs zero."""
    n = max(ch.N)
    h = np.zeros((ch.K, ch.K, n, n), dtype=complex)
    for j, k in ch.cross_pairs():
        h[j, k][pair_support(ch, j, k)] = ch.free[j][k]
    return h


def _least_interference(h: np.ndarray, x: np.ndarray, keep: np.ndarray,
                        groups: list[tuple[int, np.ndarray]]
                        ) -> tuple[np.ndarray, np.ndarray]:
    """One half-step: every receiver's least-interference subspace at once.

    ``h`` is a (K, K, N_max, N_max) channel stack with zero direct pairs and
    ``x`` the (K, N_max, d_max) stack of transmit bases. The interference
    covariance at receiver k is G_k G_k^H, where G_k lines up the images
    h[k, j] @ x[j] over all j. Its least-dominant eigenvectors, one batched
    ``eigh`` per distinct N_k in ``groups``, fill the first d_k columns of
    receiver k; ``keep`` (K, d_max) zeroes the rest. Returns the new receive
    bases and the (K, K, N_max, d_max) stack of images.
    """
    K, n, w = x.shape
    hx = h @ x[None]
    g = hx.transpose(0, 2, 1, 3).reshape(K, n, K * w)
    q = g @ g.conj().swapaxes(-1, -2)
    out = np.zeros_like(x)
    for n_k, users in groups:
        cols = min(n_k, w)
        out[users, :n_k, :cols] = np.linalg.eigh(q[users, :n_k, :n_k])[1][..., :cols]
    return _fix_phase(out * keep[:, None, :]), hx


def _stop_reason(trajectory: list[float], opts: SolverOptions) -> str | None:
    """Why a run with this trajectory stops now, or None if it sweeps again.

    ``zero``: the leakage is exactly zero. ``plateau``: the last sweep gained
    less than tol_align/10 relative to the current leakage level, with
    tol_align as the level floor. ``max_iters``: the sweep budget is spent.
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


def minimize_leakage(ch: ChannelSet, d: tuple[int, ...], opts: SolverOptions,
                     rng: np.random.Generator | None = None
                     ) -> tuple[IaSolution, list[float]]:
    """Alternating leakage minimization; returns the solution and trajectory.

    Precoders start as orthonormalized complex-normal draws and decoders take
    one half-step before the first trajectory point, so trajectory[0] is
    already a minimized value. Iteration stops as ``_stop_reason`` says: at
    exact zero, at a plateau, or after max_iters sweeps; scaling the plateau
    test by the level keeps slow descents toward tolerance alive without
    letting stalled runs burn the iteration budget. Each half-step updates
    all users at once on zero-padded stacks. All iterates have orthonormal
    columns, making the internal metric identical to the verifier's.
    """
    d = tuple(int(x) for x in d)
    if len(d) != ch.K:
        raise DimensionMismatch(f"{len(d)} stream counts for {ch.K} users")
    for k, (dk, nk) in enumerate(zip(d, ch.N)):
        if not 1 <= dk <= nk:
            raise DimensionMismatch(f"user {k}: d_k={dk} does not fit N_k={nk}")
    if rng is None:
        rng = substream(0, _RESTART_SALT, 0, 0)

    n, w = max(ch.N), max(d)
    vs = _stack([np.linalg.qr(complex_normal(rng, n_k, d_k))[0]
                 for n_k, d_k in zip(ch.N, d)], n, w)
    h = _cross_stack(ch)
    h_rec = np.ascontiguousarray(h.conj().transpose(1, 0, 3, 2))
    keep = np.arange(w) < np.array(d)[:, None]
    sizes = np.array(ch.N)
    groups = [(n_k, np.flatnonzero(sizes == n_k)) for n_k in sorted(set(ch.N))]

    us, hv = _least_interference(h, vs, keep, groups)
    trajectory = [_cross_leakage(us, hv)[0]]
    while _stop_reason(trajectory, opts) is None:
        vs = _least_interference(h_rec, us, keep, groups)[0]
        us, hv = _least_interference(h, vs, keep, groups)
        trajectory.append(_cross_leakage(us, hv)[0])
    sol = IaSolution(V=tuple(v[:n_k, :d_k] for v, n_k, d_k in zip(vs, ch.N, d)),
                     U=tuple(u[:n_k, :d_k] for u, n_k, d_k in zip(us, ch.N, d)))
    return sol, trajectory


def _trial_channel_seed(cfg: SystemConfig, opts: SolverOptions, trial: int) -> int:
    ss = np.random.SeedSequence((cfg.seed, opts.seed, _TRIAL_SALT, trial))
    return int(ss.generate_state(1, np.uint64)[0])


def run_trials(cfg: SystemConfig, opts: SolverOptions) -> list[RunRecord]:
    """Solve trials x restarts independent runs; order-independent streams."""
    records = []
    for trial in range(opts.trials):
        ch = sample_channels(with_seed(cfg, _trial_channel_seed(cfg, opts, trial)))
        for restart in range(opts.restarts):
            rng = substream(opts.seed, _RESTART_SALT, trial, restart)
            sol, traj = minimize_leakage(ch, cfg.d, opts, rng=rng)
            res = check(ch, sol, tol_align=opts.tol_align)
            records.append(RunRecord(trial=trial, restart=restart,
                                     iters=len(traj) - 1,
                                     stop_reason=_stop_reason(traj, opts),
                                     final_leakage=res.leakage,
                                     aligned=res.aligned, rank_ok=res.rank_ok,
                                     success=res.aligned and res.rank_ok,
                                     trajectory=tuple(traj), solution=sol))
    return records


def _witness(cfg: SystemConfig, opts: SolverOptions) -> str:
    """Try the explicit three-user construction on this exact configuration.

    Returns the ``witness_status`` of ``FeasibilityVerdict``.
    """
    if cfg.structure.kind is not StructureKind.DIAGONAL or cfg.K != 3:
        return "not_applicable"
    n_s = cfg.n_s
    n = (n_s - 1) // 2
    if n_s % 2 == 0 or n_s < 3 or cfg.d != (n + 1, n, n):
        return "not_applicable"
    try:
        ch = sample_channels(cfg)
        sol = cj3.construct(ch, n)
        res = check(ch, sol, tol_align=opts.tol_align)
    except (SingularChannel, DegenerateSpan, RankDeficient) as exc:
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
    return FeasibilityVerdict(success_rate=rate, best_leakage=best,
                              leakage_quantiles=quantiles, classification=verdict,
                              witness_status=witness, records=tuple(records))


def config_digest(cfg: SystemConfig) -> str:
    """Short stable hash identifying a configuration in tabular output."""
    blob = json.dumps(config_to_json(cfg), sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:12]


def run_record_row(cfg: SystemConfig, rec: RunRecord) -> dict:
    return {
        "config": config_digest(cfg),
        "trial": rec.trial,
        "restart": rec.restart,
        "iters": rec.iters,
        "stop_reason": rec.stop_reason,
        "final_leakage": rec.final_leakage,
        "rank_ok": rec.rank_ok,
    }


def verdict_to_json(cfg: SystemConfig, verdict: FeasibilityVerdict) -> dict:
    return {
        "config": config_to_json(cfg),
        "success_rate": verdict.success_rate,
        "best_leakage": verdict.best_leakage,
        "leakage_quantiles": {"median": verdict.leakage_quantiles[0],
                              "p90": verdict.leakage_quantiles[1]},
        "classification": verdict.classification.value,
        "witness_found": verdict.witness_found,
        "witness_status": verdict.witness_status,
        "runs": [run_record_row(cfg, r) for r in verdict.records],
    }
