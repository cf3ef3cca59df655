"""Explicit three-user alignment over 2n+1 extension slots.

With diagonal channels of common dimension N_s = 2n+1 the stream split
d = (n+1, n, n) is achievable for every positive n: a total of 3n+1 streams
on 2n+1 slots, so the normalized DoF (3n+1)/(3(2n+1)) approaches 1/2 from
below while plain time sharing is stuck at 1/3. That shape is the K=3 rung
of the time-extension series, and ``counting.cj_parameters(3, n)`` and
``counting.cj_config(3, n)`` own it; this module builds the witness
explicitly.

Writing t for the elementwise ratio that chains all six cross channels into
a loop, the precoder of user 1 spans the order-(n+1) Krylov space of diag(t)
applied to a magnitude-balancing seed vector, and users 2 and 3 use rescaled
copies of the order-n subspace. That choice makes the interference seen at
receiver 1 from users 2 and 3 literally identical, and the interference at
receivers 2 and 3 fall inside the image of user 1's span. So one product
spans each receiver's interference, and its decoder is the orthogonal
complement of that product, read off a complete QR. The construction is
accepted by the verifier, not by the derivation: tests re-check the three
span conditions and the residual on every instance.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .counting import cj_config, cj_parameters
from .errors import DegenerateSpan, DimensionMismatch, NumericOverflow, SingularChannel
from .model import ChannelSet, IaSolution, StructureKind, sample_channels
from .subspaces import orthonormal_columns

__all__ = ["Cj3Instance", "construct", "build_instance"]


@dataclass(frozen=True)
class Cj3Instance:
    """One constructed witness: channels plus the solution that aligns them."""

    n: int
    channels: ChannelSet
    solution: IaSolution

    def __post_init__(self) -> None:
        p = cj_parameters(3, self.n)
        for what, N in (("channels", self.channels.N), ("solution", self.solution.N)):
            if N != (p.N_s,) * 3:
                raise DimensionMismatch(f"{what}: N={N} is not three copies of "
                                        f"2n+1={p.N_s} for n={self.n}")
        if self.solution.d != p.d:
            raise DimensionMismatch(f"stream split {self.solution.d} is not "
                                    f"(n+1, n, n) for n={self.n}")


def _diagonals(ch: ChannelSet) -> tuple[tuple[np.ndarray, ...], ...]:
    """All nine diagonals, from a diagonal-layout set of three users.

    Dense diagonal matrices enter that layout through ``ChannelSet.from_dense``.
    """
    if ch.K != 3:
        raise DimensionMismatch(f"construction needs exactly 3 users, got K={ch.K}")
    if ch.structure.kind is not StructureKind.DIAGONAL:
        raise DimensionMismatch(f"construction needs diagonal channels, got the "
                                f"{ch.structure.kind.value} layout")
    for j, row in enumerate(ch.free):
        for k, d in enumerate(row):
            if np.any(d == 0):
                raise SingularChannel(f"H[{j}][{k}] has a zero diagonal entry; "
                                      "channel inverses are required")
    return ch.free


def _krylov_basis(t: np.ndarray, dim: int) -> np.ndarray:
    """Orthonormal basis of span{w, t*w, ..., t^(dim-1)*w}.

    The seed vector w = |t|^(-(dim-1)/2) centers the magnitude growth of the
    power chain: entry m of t^i * w has magnitude |t_m|^(i-(dim-1)/2), so the
    chain is balanced around its middle power instead of blowing up at the
    top. With w = all ones the chain spans |t_max/t_min|^(dim-1), which for
    unlucky draws drives the signal and interference subspaces within
    rounding distance of each other. Any w gives the same span conditions,
    so this is pure conditioning, not a different construction.

    Built one direction at a time with twice-iterated Gram-Schmidt; the raw
    power basis is numerically useless already at moderate n, and any basis of
    the same space is as good (changing basis within a precoder is gauge
    freedom). Breakdown before ``dim`` directions means the channels are
    degenerate (repeated ratio values). NumericOverflow when w or its norm
    exceeds float64, which a small |t_m| does at large ``dim``.
    """
    n_s = t.shape[0]
    q = np.empty((n_s, dim), dtype=complex)
    with np.errstate(over="ignore"):
        w = np.abs(t) ** (-(dim - 1) / 2.0)
        w_norm = np.linalg.norm(w)
    if not np.isfinite(w_norm):
        raise NumericOverflow(f"the Krylov start vector |t|^(-{(dim - 1) / 2}) has a "
                              "norm beyond the float64 range")
    q[:, 0] = w / w_norm
    for i in range(1, dim):
        z = t * q[:, i - 1]
        scale = float(np.linalg.norm(z))
        for _ in range(2):
            z = z - q[:, :i] @ (q[:, :i].conj().T @ z)
        norm = float(np.linalg.norm(z))
        if norm <= 100 * n_s * np.finfo(float).eps * max(scale, 1.0):
            raise DegenerateSpan(f"Krylov space collapsed after {i} directions "
                                 f"(need {dim}); channel ratios are degenerate")
        q[:, i] = z / norm
    return q


def construct(ch: ChannelSet, n: int) -> IaSolution:
    """Build the aligned solution with d = (n+1, n, n) on diagonal channels.

    Requires N_s = 2n+1 and every diagonal entry nonzero. The three span
    conditions witnessed by the output:

      (a) colspan(H[0][1] V2) = colspan(H[0][2] V3)   at receiver 0,
      (b) colspan(H[1][2] V3) in colspan(H[1][0] V1)  at receiver 1,
      (c) colspan(H[2][1] V2) in colspan(H[2][0] V1)  at receiver 2.

    By (a)-(c) the interference at receiver 0 spans colspan(H[0][1] V2) and
    at receivers 1 and 2 spans colspan(H[k][0] V1). Each decoder is the
    trailing N_s - r columns of a complete QR of that one N_s x r product,
    so it moves only in its last bits when the channels do.
    """
    p = cj_parameters(3, n)
    h = _diagonals(ch)
    n_s = ch.N[0]
    if n_s != p.N_s:
        raise DimensionMismatch(f"signal dimension {n_s} does not match "
                                f"2n+1={p.N_s} for n={n}")

    # one full trip around the interference loop, per slot
    t = (h[2][1] * h[0][2] * h[1][0]) / (h[2][0] * h[0][1] * h[1][2])

    q = _krylov_basis(t, n + 1)
    base = q[:, :n]
    v1 = q
    v3, rank3 = orthonormal_columns((h[1][0] / h[1][2])[:, None] * base)
    v2, rank2 = orthonormal_columns((h[2][0] / h[2][1])[:, None] * (t[:, None] * base))
    if rank2 < n or rank3 < n:
        raise DegenerateSpan(f"rescaled precoders lost rank ({rank2}, {rank3} < {n})")

    # receiver k's interference span, by (a)-(c): H[k][j] V_j for this j
    us = []
    for k, (j, vj) in enumerate(((1, v2), (0, v1), (0, v1))):
        w = ch.apply(k, j, vj)
        us.append(np.linalg.qr(w, mode="complete")[0][:, w.shape[1]:])

    return IaSolution(V=(v1, v2, v3), U=tuple(us))


def build_instance(n: int, seed: int = 0) -> Cj3Instance:
    """Sample channels for ``cj_config(3, n, seed)`` and align them."""
    ch = sample_channels(cj_config(3, n, seed=seed))
    return Cj3Instance(n=n, channels=ch, solution=construct(ch, n))
