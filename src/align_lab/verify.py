"""Residual checks for candidate alignment solutions.

A solution aligns when every cross product (U^[j])^H H[j][k] V^[k], j != k,
vanishes while each direct product (U^[k])^H H[k][k] V^[k] keeps full rank
d_k. The continuous residual used here, ``leakage``, is the squared Frobenius
norm of the cross products evaluated on column-orthonormalized copies of U
and V. Orthonormalizing first makes the metric a property of the chosen
subspaces alone, so any change of basis within a precoder or decoder leaves
it unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, RankDeficient, SingularGaugeBlock
from .model import ChannelSet, IaSolution
from .subspaces import numerical_rank, orthonormal_columns

__all__ = [
    "TOL_ALIGN",
    "GAUGE_COND_MAX",
    "VerificationResult",
    "leakage",
    "check",
    "normalize_gauge",
    "result_to_json",
]

TOL_ALIGN = 1e-8            # absolute threshold on the normalized leakage
GAUGE_COND_MAX = 1e12       # condition limit for gauge top blocks


@dataclass(frozen=True)
class VerificationResult:
    """Outcome of checking one (channels, solution) pair.

    ``min_cross_residual`` is the largest entry magnitude among the
    normalized cross products, the residual that must vanish entirely for
    exact alignment. ``aligned`` and ``rank_ok`` are reported separately so
    experiments can tell an aligned-but-degenerate direct link from true
    misalignment.
    """

    leakage: float
    min_cross_residual: float
    direct_ranks: tuple[int, ...]
    aligned: bool
    rank_ok: bool
    tol_align: float


def _check_dims(ch: ChannelSet, sol: IaSolution) -> None:
    if sol.K != ch.K:
        raise DimensionMismatch(f"solution has {sol.K} users, channels have {ch.K}")
    if sol.N != ch.N:
        raise DimensionMismatch(f"solution dimensions {sol.N} do not match "
                                f"channel dimensions {ch.N}")


def _stack(mats, rows: int, cols: int) -> np.ndarray:
    """Zero-padded (len(mats), rows, cols) stack of per-user matrices."""
    out = np.zeros((len(mats), rows, cols), dtype=complex)
    for k, m in enumerate(mats):
        out[k, :m.shape[0], :m.shape[1]] = m
    return out


def _orthonormalized(sol: IaSolution) -> tuple[np.ndarray, np.ndarray]:
    """Zero-padded (K, N_max, d_max) stacks of orthonormal bases of U and V."""
    us, vs = [], []
    for k, (v, u) in enumerate(zip(sol.V, sol.U)):
        for name, mat, out in (("precoder", v, vs), ("decoder", u, us)):
            q, rank = orthonormal_columns(mat)
            if rank < mat.shape[1]:
                raise RankDeficient(f"user {k} {name} has column rank {rank} "
                                    f"< {mat.shape[1]}")
            out.append(q)
    n, w = max(sol.N), max(sol.d)
    return _stack(us, n, w), _stack(vs, n, w)


def _images(ch: ChannelSet, vs: np.ndarray) -> np.ndarray:
    """(K, K, N_max, d_max) stack of H[j][k] V^[k] for j != k, zero for j == k."""
    K, n, w = vs.shape
    hv = np.zeros((K, K, n, w), dtype=complex)
    for j, k in ch.cross_pairs():
        hv[j, k, :ch.N[j]] = ch.apply(j, k, vs[k, :ch.N[k]])
    return hv


def _cross_leakage(us: np.ndarray, hv: np.ndarray) -> tuple[float, np.ndarray]:
    """Leakage of orthonormal decoders ``us`` against the images ``hv``.

    ``us`` is a (K, N_max, d_max) stack zero outside each user's N_k x d_k
    block, and ``hv`` a stack like ``_images`` returns. Also returns the
    (K, K, d_max, d_max) stack of cross products (U^[j])^H H[j][k] V^[k],
    zero-padded, and zero for j == k.
    """
    crosses = us.conj().swapaxes(-1, -2)[:, None] @ hv
    return float(np.vdot(crosses, crosses).real), crosses


def leakage(ch: ChannelSet, sol: IaSolution) -> float:
    """Total interference power leaking outside the aligned subspaces.

    Zero exactly when every cross product vanishes. Raises RankDeficient when
    a precoder or decoder does not span a d_k-dimensional subspace, since the
    metric is then not about the intended subspace at all.
    """
    _check_dims(ch, sol)
    us, vs = _orthonormalized(sol)
    return _cross_leakage(us, _images(ch, vs))[0]


def check(ch: ChannelSet, sol: IaSolution, tol_align: float = TOL_ALIGN) -> VerificationResult:
    """Full verdict: leakage, worst cross entry, and per-user direct ranks."""
    _check_dims(ch, sol)
    us, vs = _orthonormalized(sol)
    leak, crosses = _cross_leakage(us, _images(ch, vs))
    worst = float(np.abs(crosses).max())
    ranks = tuple(numerical_rank(us[k, :n, :d].conj().T @ ch.apply(k, k, vs[k, :n, :d]))
                  for k, (n, d) in enumerate(zip(sol.N, sol.d)))
    rank_ok = all(r == d for r, d in zip(ranks, sol.d))
    return VerificationResult(leakage=leak, min_cross_residual=worst,
                              direct_ranks=ranks, aligned=leak <= tol_align,
                              rank_ok=rank_ok, tol_align=tol_align)


def _gauge_one(mat: np.ndarray, what: str, user: int, cond_max: float) -> np.ndarray:
    d = mat.shape[1]
    top = mat[:d, :]
    s = np.linalg.svd(top, compute_uv=False)
    if s.size == 0 or s[-1] == 0.0 or s[0] / s[-1] > cond_max:
        cond = float("inf") if s.size == 0 or s[-1] == 0.0 else float(s[0] / s[-1])
        raise SingularGaugeBlock(f"user {user} {what}: top {d}x{d} block has "
                                 f"condition {cond:.3g} (limit {cond_max:.3g})")
    return mat @ np.linalg.inv(top)


def normalize_gauge(sol: IaSolution, cond_max: float = GAUGE_COND_MAX) -> IaSolution:
    """Equivalent solution whose first d_k rows of each U^[k], V^[k] are identity.

    Right-multiplying a precoder or decoder by any invertible d_k x d_k
    matrix preserves the spanned subspaces, hence the leakage; this picks the
    unique representative with an identity top block.
    """
    vs = tuple(_gauge_one(v, "precoder", k, cond_max) for k, v in enumerate(sol.V))
    us = tuple(_gauge_one(u, "decoder", k, cond_max) for k, u in enumerate(sol.U))
    return IaSolution(V=vs, U=us)


def result_to_json(res: VerificationResult) -> dict:
    return {
        "leakage": res.leakage,
        "min_cross_residual": res.min_cross_residual,
        "direct_ranks": list(res.direct_ranks),
        "aligned": res.aligned,
        "rank_ok": res.rank_ok,
        "tolerances": {"tol_align": res.tol_align},
    }
