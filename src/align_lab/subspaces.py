"""Tolerant subspace primitives shared by the verifier, constructor and probe.

Every rank decision in the package uses the same convention: a singular value
counts as zero when it is below max(m, n) * eps * sigma_max. Ranks are also
counted matrix by matrix over a stack (..., m, n). Bases returned here always
have orthonormal columns.
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
    if s.ndim > 1:
        return np.count_nonzero(s > cutoff * s[..., :1], axis=-1)
    if s.size == 0:
        return 0
    return int(np.count_nonzero(s > cutoff * float(s[0])))


def numerical_rank(a: np.ndarray) -> int | np.ndarray:
    """Rank of ``a`` under the shared singular-value cutoff; per matrix for a stack."""
    a = np.asarray(a)
    if a.size == 0:
        return np.zeros(a.shape[:-2], dtype=int) if a.ndim > 2 else 0
    s = np.linalg.svd(a, compute_uv=False)
    return _rank_from_singular_values(a.shape, s)


def orthonormal_columns(a: np.ndarray) -> tuple[np.ndarray, int]:
    """Orthonormal basis of the column space of ``a`` and its numerical rank.

    The basis has exactly ``rank`` columns; callers that require full column
    rank compare the rank against a.shape[1] themselves.
    """
    a = np.asarray(a, dtype=complex)
    if a.size == 0:
        return np.zeros((a.shape[0], 0), dtype=complex), 0
    u, s, _ = np.linalg.svd(a, full_matrices=False)
    rank = _rank_from_singular_values(a.shape, s)
    return u[:, :rank], rank


def nullspace_basis(a: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the right nullspace of ``a`` (may have 0 columns)."""
    a = np.asarray(a, dtype=complex)
    if a.shape[1] == 0:
        return np.zeros((0, 0), dtype=complex)
    if a.shape[0] == 0:
        return np.eye(a.shape[1], dtype=complex)
    _, s, vh = np.linalg.svd(a, full_matrices=True)
    rank = _rank_from_singular_values(a.shape, s)
    return vh[rank:].conj().T

