"""Channel-space probing: which channels admit a given random (U, V)?

The alignment equations are linear in the channel coefficients once (U, V)
is frozen. Stacking the free cross-channel entries into a vector h turns
them into P h = 0; every nullspace vector of P is a structured channel set
aligned by that (U, V). Drawing many random (U, V) and measuring the
dimension their nullspaces span gives a numerical hint as to whether such
solutions fill the whole structured channel space. The span is never formed:
the sum of the nullspaces null(P_i) is the orthogonal complement of the
intersection of the row spaces range(P_i^H), which is measured instead. The
hint is only a hint: linear combinations of solutions for different (U, V)
are not themselves solutions, so a full span proves nothing by itself, and
reports expose the raw evidence rather than a feasibility claim.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .counting import dim_channel_space
from .model import (SystemConfig, _count, _seed, complex_normal, cross_pairs, pair_support,
                    substream)
from .subspaces import _BATCH_BYTES, _rank_from_singular_values, nullspace_basis

__all__ = [
    "ProbeReport",
    "pair_block",
    "run_probe",
]

_DRAW_SALT = 104729  # keeps probe substreams clear of channel substreams


@dataclass(frozen=True)
class ProbeReport:
    """Evidence collected from one probing run.

    ``filled`` records span_rank = dim_target, the heuristic "solutions fill
    the space" indicator; it is an experimental output, not a feasibility
    verdict.
    """

    draws: int
    per_draw_nullity: tuple[int, ...]
    span_rank: int
    dim_target: int
    filled: bool

    @property
    def nontrivial_draws(self) -> int:
        """Draws with a nonzero nullity; the report writes ``per_draw_nullity`` alone."""
        return sum(1 for x in self.per_draw_nullity if x >= 1)


def pair_block(u: np.ndarray, v: np.ndarray, rows: np.ndarray,
               cols: np.ndarray) -> np.ndarray:
    """Coefficients of pair (j, k)'s free entries in its own cross equations.

    ``u`` is U^[j], ``v`` is V^[k] and (rows, cols) is ``pair_support(cfg,
    j, k)``. Row (m, n), n fastest, holds the expansion of entry (m, n) of
    (U^[j])^H H[j][k] V^[k]: conj(U^[j][t, m]) * V^[k][r, n] in the column
    of free entry (t, r). P is block-diagonal with these blocks, pairs in
    lexicographic order. ``u`` and ``v`` may be stacks (..., N, d) with
    broadcastable leading dimensions; the blocks are then (..., d_j d_k, f),
    each equal to the block of its own U^[j] and V^[k].
    """
    prod = u.conj()[..., rows, :, None] * v[..., cols, None, :]
    return prod.reshape(*prod.shape[:-2], -1).swapaxes(-1, -2)


def _draw(cfg: SystemConfig, rng: np.random.Generator
          ) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Independent complex-normal (V, U) as plain arrays; all precoders first."""
    vs = [complex_normal(rng, cfg.N[k], cfg.d[k]) for k in range(cfg.K)]
    us = [complex_normal(rng, cfg.N[k], cfg.d[k]) for k in range(cfg.K)]
    return vs, us


def _svd_bytes(rows: int, cols: int) -> int:
    """Bytes of one complex ``rows`` x ``cols`` block's thin SVD: the block, U and V^H."""
    m = min(rows, cols)
    return 16 * (rows * cols + rows * m + m * cols)


def _intersect(q: np.ndarray, r: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the intersection of range(q) and range(r).

    ``q`` and ``r`` have orthonormal columns. A unit null vector (x, y) of
    [q, -r] has q x = r y, so |x| = |y| = 1/sqrt(2), and sqrt(2) q x runs
    over an orthonormal basis of the intersection as (x, y) runs over one of
    the nullspace. The nullity is decided by the shared rank cutoff.
    """
    return np.sqrt(2) * (q @ nullspace_basis(np.hstack([q, -r]))[:q.shape[1]])


def run_probe(cfg: SystemConfig, draws: int, seed: int = 0) -> ProbeReport:
    """Draw (U, V) pairs, count aligned-channel nullities, measure their span.

    P is block-diagonal by ordered pair, so its nullspace is the direct sum
    of the pairs' nullspaces and the span is measured pair by pair: a draw's
    nullity and the span rank are sums over pairs. Draws come in batches.
    Within a batch, the pairs that share (N_j, d_j, N_k, d_k) share their
    support, so all their blocks are built by one ``pair_block`` and
    factored by one stacked SVD; every such stack stays under
    ``subspaces._BATCH_BYTES``, so a large block is factored alone. Each
    pair keeps an orthonormal basis of the intersection of its blocks' row
    spaces, at most d_j d_k columns, and adds f minus its width to the span
    rank (see the module docstring). A draw of rank f leaves the basis as it
    is; once the basis is empty, the pair's span work ends and only its
    nullities are counted. Deterministic given (cfg, draws, seed): draw i
    uses its own substream, and each pair intersects in draw order, so the
    report equals that of factoring one block per draw and pair.
    """
    draws, seed = _count("draws", draws), _seed(seed)
    groups: dict[tuple[int, ...], list[tuple[int, int]]] = {}
    for j, k in cross_pairs(cfg.K):
        groups.setdefault((cfg.N[j], cfg.d[j], cfg.N[k], cfg.d[k]), []).append((j, k))
    plans = []      # per group: its pairs, their support, blocks per SVD call, bases
    for (_, d_j, _, d_k), pairs in groups.items():
        rows, cols = pair_support(cfg, *pairs[0])
        step = max(1, _BATCH_BYTES // _svd_bytes(d_j * d_k, rows.size))
        # None is all of C^f: no draw has cut the pair's row-space intersection yet
        plans.append((pairs, rows, cols, step, [None] * len(pairs)))
    # as many draws as every group factors in one call, or one draw at a time
    batch = max(1, min(step // len(pairs) for pairs, _, _, step, _ in plans))
    nullities = [0] * draws
    for first in range(0, draws, batch):
        sols = [_draw(cfg, substream(seed, _DRAW_SALT, i))
                for i in range(first, min(first + batch, draws))]
        n = len(sols)
        for pairs, rows, cols, step, bases in plans:
            # pair-major: entry g * n + b is pair g at draw first + b
            us = np.stack([u[j] for j, _ in pairs for _, u in sols])
            vs = np.stack([v[k] for _, k in pairs for v, _ in sols])
            for lo in range(0, us.shape[0], step):
                blocks = pair_block(us[lo:lo + step], vs[lo:lo + step], rows, cols)
                _, s, vh = np.linalg.svd(blocks, full_matrices=False)
                ranks = _rank_from_singular_values(blocks.shape, s).tolist()
                for i, rank in enumerate(ranks, lo):
                    nullities[first + i % n] += rows.size - rank
                    q = bases[i // n]
                    if rank < rows.size and (q is None or q.shape[1]):
                        r = vh[i - lo, :rank].conj().T
                        bases[i // n] = r if q is None else _intersect(q, r)
    span_rank = sum(0 if q is None else rows.size - q.shape[1]
                    for _, rows, _, _, bases in plans for q in bases)
    dim_target = dim_channel_space(cfg)
    return ProbeReport(draws=draws,
                       per_draw_nullity=tuple(nullities),
                       span_rank=span_rank,
                       dim_target=dim_target,
                       filled=span_rank == dim_target)
