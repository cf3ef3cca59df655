"""Iterative approximate alignment and Monte Carlo feasibility classification.

The solver is plain alternating interference-leakage minimization: with
precoders frozen, each decoder is set to the least-dominant eigenvectors of
the interference covariance at its receiver; with decoders frozen, precoders
get the symmetric update in the reciprocal network (all channels conjugate
transposed). Both half-steps minimize the same total leakage, so the
trajectory never increases. The classifier runs the solver on many channel
draws and restarts, then buckets the outcome; absence of success is weak
evidence (local minima exist), so the thresholds are deliberately asymmetric
and a known explicit witness overrides solver failure.
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
                    complex_normal, config_to_json, sample_channels, substream,
                    with_seed)
from .verify import _cross_leakage, check

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
    """One (channel draw, restart) solver run."""

    trial: int
    restart: int
    iters: int
    final_leakage: float
    aligned: bool
    rank_ok: bool
    success: bool
    trajectory: tuple[float, ...]
    solution: IaSolution


@dataclass(frozen=True)
class FeasibilityVerdict:
    """Aggregate over all runs of one configuration.

    ``leakage_quantiles`` is (median, p90) of final leakages. When
    ``witness_found`` is set, an explicit construction aligned this
    configuration's channels, which settles existence regardless of the
    solver's success rate.
    """

    success_rate: float
    best_leakage: float
    leakage_quantiles: tuple[float, float]
    classification: Classification
    witness_found: bool
    records: tuple[RunRecord, ...]


def _fix_phase(vectors: np.ndarray) -> np.ndarray:
    """Rotate each column so its first nonzero component is real positive."""
    out = vectors.copy()
    for c in range(out.shape[1]):
        col = out[:, c]
        idx = np.flatnonzero(np.abs(col) > 1e-12)
        if idx.size:
            pivot = col[idx[0]]
            out[:, c] = col * (pivot.conjugate() / abs(pivot))
    return out


def _least_eigvecs(q: np.ndarray, d: int) -> np.ndarray:
    vals, vecs = np.linalg.eigh(q)
    del vals  # ascending order; the first d columns are the least-dominant
    return _fix_phase(vecs[:, :d])


def minimize_leakage(ch: ChannelSet, d: tuple[int, ...], opts: SolverOptions,
                     rng: np.random.Generator | None = None
                     ) -> tuple[IaSolution, list[float]]:
    """Alternating leakage minimization; returns the solution and trajectory.

    Precoders start as orthonormalized complex-normal draws and decoders take
    one half-step before the first trajectory point, so trajectory[0] is
    already a minimized value. Iteration stops at a plateau, when the
    per-sweep improvement falls below tol_align/10 relative to the current
    leakage level (with tol_align as the level floor), or after max_iters
    sweeps; scaling the plateau test by the level keeps slow descents toward
    tolerance alive without letting stalled runs burn the iteration budget.
    All iterates have orthonormal columns, making the internal metric
    identical to the verifier's.
    """
    d = tuple(int(x) for x in d)
    if len(d) != ch.K:
        raise DimensionMismatch(f"{len(d)} stream counts for {ch.K} users")
    for k, (dk, nk) in enumerate(zip(d, ch.N)):
        if not 1 <= dk <= nk:
            raise DimensionMismatch(f"user {k}: d_k={dk} does not fit N_k={nk}")
    if rng is None:
        rng = substream(0, _RESTART_SALT, 0, 0)

    vs = []
    for k in range(ch.K):
        raw = complex_normal(rng, ch.N[k], d[k])
        q, _ = np.linalg.qr(raw)
        vs.append(q[:, :d[k]])

    def update_us() -> list[np.ndarray]:
        out = []
        for k in range(ch.K):
            q = np.zeros((ch.N[k], ch.N[k]), dtype=complex)
            for j in range(ch.K):
                if j == k:
                    continue
                g = ch.matrices[k][j] @ vs[j]
                q += g @ g.conj().T
            out.append(_least_eigvecs(q, d[k]))
        return out

    def update_vs() -> list[np.ndarray]:
        out = []
        for k in range(ch.K):
            q = np.zeros((ch.N[k], ch.N[k]), dtype=complex)
            for j in range(ch.K):
                if j == k:
                    continue
                g = ch.matrices[j][k].conj().T @ us[j]
                q += g @ g.conj().T
            out.append(_least_eigvecs(q, d[k]))
        return out

    us = update_us()
    trajectory = [_cross_leakage(ch, us, vs)[0]]
    for _ in range(opts.max_iters):
        if trajectory[-1] == 0.0:
            break
        vs = update_vs()
        us = update_us()
        trajectory.append(_cross_leakage(ch, us, vs)[0])
        level = max(trajectory[-1], opts.tol_align)
        if abs(trajectory[-2] - trajectory[-1]) < opts.tol_align / 10 * level:
            break
    return IaSolution(V=tuple(vs), U=tuple(us)), trajectory


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
                                     final_leakage=res.leakage,
                                     aligned=res.aligned, rank_ok=res.rank_ok,
                                     success=res.aligned and res.rank_ok,
                                     trajectory=tuple(traj), solution=sol))
    return records


def _witness(cfg: SystemConfig, opts: SolverOptions) -> bool:
    """Try the explicit three-user construction on this exact configuration."""
    if cfg.structure.kind is not StructureKind.DIAGONAL or cfg.K != 3:
        return False
    n_s = cfg.n_s
    if n_s % 2 == 0 or n_s < 3:
        return False
    n = (n_s - 1) // 2
    if cfg.d != (n + 1, n, n):
        return False
    try:
        ch = sample_channels(cfg)
        sol = cj3.construct(ch, n)
        res = check(ch, sol, tol_align=opts.tol_align)
    except (SingularChannel, DegenerateSpan, RankDeficient):
        return False
    return res.aligned and res.rank_ok


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
    if witness or rate >= 0.5:
        verdict = Classification.LIKELY_FEASIBLE
    elif rate == 0.0 and best > 100 * opts.tol_align:
        verdict = Classification.LIKELY_INFEASIBLE
    else:
        verdict = Classification.INCONCLUSIVE
    return FeasibilityVerdict(success_rate=rate, best_leakage=best,
                              leakage_quantiles=quantiles, classification=verdict,
                              witness_found=witness, records=tuple(records))


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
        "runs": [run_record_row(cfg, r) for r in verdict.records],
    }
