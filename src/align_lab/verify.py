"""Residual checks for candidate alignment solutions.

A solution aligns when every cross product (U^[j])^H H[j][k] V^[k], j != k,
vanishes while each direct product (U^[k])^H H[k][k] V^[k] keeps full rank
d_k. The continuous residual that ``check`` reports as ``leakage`` is the
squared Frobenius norm of the cross products evaluated on column-orthonormalized
copies of U and V. Orthonormalizing first makes the metric a property of the chosen
subspaces alone, so any change of basis within a precoder or decoder leaves
it unchanged. ``check`` also reports each receiver's interference-to-signal
ratio, which tells a genuine aligned point from one that reached zero leakage
by driving a direct link toward zero.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, NumericOverflow, RankDeficient
from .model import ChannelSet, IaSolution, cross_pairs
from .subspaces import _rank_from_singular_values, orthonormal_columns

__all__ = [
    "TOL_ALIGN",
    "TOL_ISR",
    "VerificationResult",
    "check",
]

TOL_ALIGN = 1e-8            # absolute threshold on the normalized leakage
# Interference-to-signal ratio above which an aligned point is degenerate:
# about the geometric middle of the widest gap measured between genuine solver
# points (<= 2.8e-5, for runs that stop just under TOL_ALIGN) and degenerate
# ones (>= 2.4e-2) on feasible and infeasible configs.
TOL_ISR = 1e-3


@dataclass(frozen=True)
class VerificationResult:
    """Outcome of checking one (channels, solution) pair.

    ``max_cross_residual`` is the largest entry magnitude among the
    normalized cross products, the residual that must vanish entirely for
    exact alignment. ``interference_to_signal`` is, per receiver k,
    sum_{j != k} ||U_k^H H[k][j] V_j||^2 / sigma_min(U_k^H H[k][k] V_k)^2,
    infinite when the direct product is singular. ``aligned`` and ``rank_ok``
    are reported separately so experiments can tell an aligned-but-degenerate
    direct link from true misalignment.
    """

    leakage: float
    max_cross_residual: float
    interference_to_signal: tuple[float, ...]
    direct_ranks: tuple[int, ...]
    aligned: bool
    rank_ok: bool
    tol_align: float


def _check_tolerance(tol_align: float) -> float:
    """``tol_align`` as a float; ValueError unless it is a finite positive
    Python or numpy integer or float. A bool is no tolerance, so ``True``
    raises too."""
    real = isinstance(tol_align, (int, float, np.integer, np.floating))
    if not real or isinstance(tol_align, bool) or not 0 < tol_align < float("inf"):
        raise ValueError(f"tol_align must be finite and positive, got {tol_align}")
    return float(tol_align)


def _check_dims(ch: ChannelSet, sol: IaSolution) -> None:
    if sol.K != ch.K:
        raise DimensionMismatch(f"solution has {sol.K} users, channels have {ch.K}")
    if sol.N != ch.N:
        raise DimensionMismatch(f"solution dimensions {sol.N} do not match "
                                f"channel dimensions {ch.N}")


def _orthonormalized(sol: IaSolution) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Per-user orthonormal bases of U and V."""
    us, vs = [], []
    for k, (v, u) in enumerate(zip(sol.V, sol.U)):
        for name, mat, out in (("precoder", v, vs), ("decoder", u, us)):
            q, rank = orthonormal_columns(mat)
            if rank < mat.shape[1]:
                raise RankDeficient(f"user {k} {name} has column rank {rank} "
                                    f"< {mat.shape[1]}")
            out.append(q)
    return us, vs


def _cross_leakage(us: np.ndarray, hv: np.ndarray) -> tuple[float, np.ndarray]:
    """Leakage of orthonormal decoders ``us`` against the images ``hv``.

    Returns the squared Frobenius norm of the cross products
    (U^[j])^H H[j][k] V^[k] and the products themselves. ``us`` (..., N, d_j)
    and ``hv`` (..., N, d_k) broadcast like a matmul: one decoder against
    one image H[j][k] V^[k], or zero-padded stacks of them.
    """
    crosses = us.conj().swapaxes(-1, -2) @ hv
    return float(np.vdot(crosses, crosses).real), crosses


def check(ch: ChannelSet, sol: IaSolution, tol_align: float = TOL_ALIGN) -> VerificationResult:
    """Full verdict: leakage, worst cross entry, per-user interference-to-signal
    ratios and direct ranks.

    The leakage is the total interference power outside the aligned
    subspaces, zero exactly when every cross product vanishes. Raises
    RankDeficient when a precoder or decoder does not span a d_k-dimensional
    subspace, since the metric is then not about the intended subspace at all.
    Raises NumericOverflow when the leakage, a direct product or a signal
    power exceeds float64, and ValueError unless ``tol_align`` is finite and
    positive.
    """
    tol_align = _check_tolerance(tol_align)
    _check_dims(ch, sol)
    us, vs = _orthonormalized(sol)
    leak = worst = 0.0
    interference = [0.0] * ch.K
    # finite inputs overflow only to inf, or to nan from inf - inf; each is
    # tested before a figure is read from it, so numpy need not warn
    with np.errstate(over="ignore", invalid="ignore"):
        for j, k in cross_pairs(ch.K):
            pair_leak, crosses = _cross_leakage(us[j], ch.apply(j, k, vs[k]))
            leak += pair_leak
            if not np.isfinite(leak):   # before abs, which would overflow
                raise NumericOverflow(f"leakage overflows float64 at receiver {j}")
            interference[j] += pair_leak
            worst = max(worst, float(np.abs(crosses).max()))
        ranks, ratios = [], []
        for k in range(ch.K):
            direct = us[k].conj().T @ ch.apply(k, k, vs[k])
            if not np.isfinite(direct).all():   # before the SVD, which cannot converge
                raise NumericOverflow(f"direct product of user {k} overflows float64")
            s = np.linalg.svd(direct, compute_uv=False)
            ranks.append(_rank_from_singular_values(direct.shape, s))
            signal = float(s[-1]) * float(s[-1])    # ** raises OverflowError
            if not np.isfinite(signal):
                raise NumericOverflow(f"signal power of user {k} overflows float64")
            ratios.append(interference[k] / signal if signal > 0 else float("inf"))
    rank_ok = all(r == d for r, d in zip(ranks, sol.d))
    return VerificationResult(leakage=leak, max_cross_residual=worst,
                              interference_to_signal=tuple(ratios), direct_ranks=tuple(ranks),
                              aligned=leak <= tol_align, rank_ok=rank_ok, tol_align=tol_align)
