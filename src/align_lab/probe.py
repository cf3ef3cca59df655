"""Channel-space probing: which channels admit a given random (U, V)?

The alignment equations are linear in the channel coefficients once (U, V)
is frozen. Stacking the free cross-channel entries into a vector h turns
them into P h = 0; every nullspace vector of P is a structured channel set
aligned by that (U, V). Drawing many random (U, V), collecting nullspace
bases and measuring the dimension they span gives a numerical hint as to
whether such solutions fill the whole structured channel space. The hint is
only a hint: linear combinations of solutions for different (U, V) are not
themselves solutions, so a full span proves nothing by itself, and reports
expose the raw evidence rather than a feasibility claim.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .counting import dim_channel_space
from .model import (IaSolution, SystemConfig, _seed, complex_normal, cross_pairs,
                    pair_support, substream)
from .subspaces import nullspace_basis, numerical_rank, orthonormal_columns

__all__ = [
    "ProbeReport",
    "pair_block",
    "draw_random_solution",
    "run_probe",
]

_DRAW_SALT = 104729  # keeps probe substreams clear of channel substreams


@dataclass(frozen=True)
class ProbeReport:
    """Evidence collected from one probing run.

    ``filled`` records span_rank = dim_target, the heuristic "solutions fill
    the space" indicator; it is an experimental output, not a feasibility
    verdict. ``sd_upper_bound`` is dim_target - 1, the ceiling on the
    dimension of any proper algebraic subset of solution channels.
    """

    draws: int
    nontrivial_draws: int
    per_draw_nullity: tuple[int, ...]
    span_rank: int
    dim_target: int
    sd_upper_bound: int
    filled: bool


def pair_block(u: np.ndarray, v: np.ndarray, rows: np.ndarray,
               cols: np.ndarray) -> np.ndarray:
    """Coefficients of pair (j, k)'s free entries in its own cross equations.

    ``u`` is U^[j], ``v`` is V^[k] and (rows, cols) is ``pair_support(cfg,
    j, k)``. Row (m, n), n fastest, holds the expansion of entry (m, n) of
    (U^[j])^H H[j][k] V^[k]: conj(U^[j][t, m]) * V^[k][r, n] in the column
    of free entry (t, r). P is block-diagonal with these blocks, pairs in
    lexicographic order.
    """
    return (u.conj()[rows, :, None] * v[cols, None, :]).reshape(rows.size, -1).T


def draw_random_solution(cfg: SystemConfig, rng: np.random.Generator) -> IaSolution:
    """Independent complex-normal (U, V); all precoders first, then decoders."""
    vs = tuple(complex_normal(rng, cfg.N[k], cfg.d[k]) for k in range(cfg.K))
    us = tuple(complex_normal(rng, cfg.N[k], cfg.d[k]) for k in range(cfg.K))
    return IaSolution(V=vs, U=us)


def run_probe(cfg: SystemConfig, draws: int, seed: int = 0) -> ProbeReport:
    """Draw (U, V) pairs, collect aligned-channel nullspaces, measure their span.

    P is block-diagonal by ordered pair, so its nullspace is the direct sum
    of the pairs' nullspaces and the span is measured pair by pair: a draw's
    nullity and the span rank are sums over pairs. A pair's span is
    compressed to an orthonormal basis whenever it exceeds four times the
    pair's free-entry count, bounding memory without changing its rank.
    Deterministic given (cfg, draws, seed): draw i uses its own substream, and
    accumulation is a sequential reduction over draw index.
    """
    if draws < 1:
        raise ValueError(f"need at least one draw, got {draws}")
    seed = _seed(seed)
    supports = [(j, k, *pair_support(cfg, j, k)) for j, k in cross_pairs(cfg.K)]
    spans = [np.zeros((rows.size, 0), dtype=complex) for _, _, rows, _ in supports]
    nullities = []
    for i in range(draws):
        sol = draw_random_solution(cfg, substream(seed, _DRAW_SALT, i))
        nullity = 0
        for s, (j, k, rows, cols) in enumerate(supports):
            basis = nullspace_basis(pair_block(sol.U[j], sol.V[k], rows, cols))
            nullity += basis.shape[1]
            spans[s] = np.hstack([spans[s], basis])
            if spans[s].shape[1] > 4 * rows.size:
                spans[s], _ = orthonormal_columns(spans[s])
        nullities.append(nullity)
    span_rank = sum(numerical_rank(span) for span in spans)
    dim_target = dim_channel_space(cfg)
    return ProbeReport(draws=draws,
                       nontrivial_draws=sum(1 for x in nullities if x >= 1),
                       per_draw_nullity=tuple(nullities),
                       span_rank=span_rank,
                       dim_target=dim_target,
                       sd_upper_bound=dim_target - 1,
                       filled=span_rank == dim_target)
