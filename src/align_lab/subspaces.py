"""Tolerant subspace primitives shared by the verifier, constructor and probe.

Every rank decided here uses the same convention: a singular value counts as
zero when it is below max(m, n) * eps * sigma_max. Ranks are also counted
matrix by matrix over a stack (..., m, n). Bases returned here always have
orthonormal columns. One rank decision in the package does not use this
convention: ``cj3._krylov_basis`` declares a Krylov breakdown, without an
SVD, when a new direction's norm is at most 100 * N_s * eps * max(scale, 1).
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "numerical_rank",
    "orthonormal_columns",
    "nullspace_basis",
]

# Cap on one batch of stacked work: the solver's stacks for a batch of runs and
# the probe's stacked SVDs. Batching saves call overhead, which matters only on
# small matrices; runs of K=3, N >= 40 gain nothing from it, so a larger cap
# would only hold more memory.
_BATCH_BYTES = 2**20


def _rank_from_singular_values(shape: tuple[int, ...], s: np.ndarray) -> int | np.ndarray:
    """Count of the descending singular values ``s`` above the shared cutoff.

    ``shape`` is the matrix shape, (m, n) or a stack's (..., m, n). For a
    stack, ``s`` is (..., min(m, n)) and the counts form an array of its
    leading shape.
    """
    cutoff = max(shape[-2:]) * np.finfo(float).eps    # times each matrix's sigma_max
    rank = np.count_nonzero(s > cutoff * s[..., :1], axis=-1)
    return rank if s.ndim > 1 else int(rank)


def numerical_rank(a: np.ndarray) -> int | np.ndarray:
    """Rank of ``a`` under the shared singular-value cutoff; per matrix for a stack."""
    a = np.asarray(a)
    s = np.linalg.svd(a, compute_uv=False)
    return _rank_from_singular_values(a.shape, s)


def orthonormal_columns(a: np.ndarray) -> tuple[np.ndarray, int]:
    """Orthonormal basis of the column space of ``a`` and its numerical rank.

    The basis has exactly ``rank`` columns; callers that require full column
    rank compare the rank against a.shape[1] themselves.
    """
    a = np.asarray(a, dtype=complex)
    u, s, _ = np.linalg.svd(a, full_matrices=False)
    rank = _rank_from_singular_values(a.shape, s)
    return u[:, :rank], rank


def nullspace_basis(a: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the right nullspace of ``a`` (may have 0 columns)."""
    a = np.asarray(a, dtype=complex)
    _, s, vh = np.linalg.svd(a, full_matrices=True)
    rank = _rank_from_singular_values(a.shape, s)
    return vh[rank:].conj().T

