"""Tolerant subspace primitives shared by the verifier, constructor and probe.

Every rank decision in the package uses the same convention: a singular value
counts as zero when it is below max(m, n) * eps * sigma_max. Bases returned
here always have orthonormal columns.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "rank_tolerance",
    "numerical_rank",
    "orthonormal_columns",
    "nullspace_basis",
]


def rank_tolerance(shape: tuple[int, int], sigma_max: float) -> float:
    """Cutoff below which a singular value is treated as zero."""
    return max(shape) * np.finfo(float).eps * sigma_max


def _rank_from_singular_values(shape: tuple[int, int], s: np.ndarray) -> int:
    if s.size == 0:
        return 0
    return int(np.count_nonzero(s > rank_tolerance(shape, float(s[0]))))


def numerical_rank(a: np.ndarray) -> int:
    """Rank of ``a`` under the shared singular-value cutoff."""
    a = np.asarray(a)
    if a.size == 0:
        return 0
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

