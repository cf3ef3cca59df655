"""Exact calculators for the two degree-of-freedom bounds and their collision.

Two ceilings on normalized DoF (streams per user per signal dimension) are
computed here:

* Bound A, the time-extension series: for K users and an index n, a scheme
  over N_s = (n+1)^N + n^N extension slots delivers d_1 = (n+1)^N and
  d_k = n^N streams, with N = (K-1)(K-2) - 1. Its normalized DoF d_bar
  approaches 1/2 from below as n grows.
* Bound B, properness: counting equations against free variables in the
  alignment system caps the symmetric solvable regime at d <= 2M/(K+1).

For K >= 4 the series eventually violates the properness count, so the two
bounds contradict each other; ``min_improper_n`` locates the first index where
that happens. Every function in this module uses arbitrary-precision integer
and rational arithmetic only. No floating point, so the collision demo is
exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .model import StructureKind, SystemConfig, diagonal_config, validate_config

__all__ = [
    "CjParameters",
    "PropernessReport",
    "equation_count",
    "variable_count",
    "is_proper",
    "symmetric_bound",
    "cj_parameters",
    "cj_config",
    "tdma_baseline",
    "min_improper_n",
    "improper_by_threshold",
    "dim_channel_space",
    "sparse_dim_deficit",
    "bound_sweep_rows",
]


@dataclass(frozen=True)
class CjParameters:
    """Bound A scheme parameters at one series index n.

    All integers are exact; ``d_bar`` is the exact rational
    d_total / (K * N_s).
    """

    K: int
    n: int
    N_exp: int
    N_s: int
    d: tuple[int, ...]
    d_total: int
    d_bar: Fraction


@dataclass(frozen=True)
class PropernessReport:
    """Equation/variable tally of the alignment system for one config.

    proper <=> slack >= 0 where slack = N_v - N_e.
    """

    N_e: int
    N_v: int
    proper: bool
    slack: int


def equation_count(d: Sequence[int]) -> int:
    """Number of scalar alignment equations: sum of d_k*d_l over ordered pairs k != l."""
    d = [int(x) for x in d]
    if any(x < 1 for x in d):
        raise ValueError(f"stream counts must be positive, got {tuple(d)}")
    total = sum(d)
    return total * total - sum(x * x for x in d)


def variable_count(cfg: SystemConfig) -> int:
    """Free variables of the alignment system: 2 * sum_k (N_k*d_k - d_k^2).

    Each user contributes d_k*(N_k - d_k) free entries in its precoder and the
    same in its decoder once the gauge is fixed to identity top blocks.
    """
    validate_config(cfg)
    return 2 * sum(nk * dk - dk * dk for nk, dk in zip(cfg.N, cfg.d))


def is_proper(cfg: SystemConfig) -> PropernessReport:
    """Proper means the system has at least as many variables as equations."""
    n_e = equation_count(cfg.d)
    n_v = variable_count(cfg)
    return PropernessReport(N_e=n_e, N_v=n_v, proper=n_e <= n_v, slack=n_v - n_e)


def symmetric_bound(M: int, K: int) -> Fraction:
    """Properness ceiling on per-user streams in the symmetric M-antenna case."""
    if M < 1:
        raise ValueError(f"antenna count must be positive, got M={M}")
    if K < 2:
        raise ValueError(f"need at least two users, got K={K}")
    return Fraction(2 * M, K + 1)


def tdma_baseline(K: int) -> Fraction:
    """Normalized DoF of plain time sharing: 1/K, no alignment needed."""
    if K < 1:
        raise ValueError(f"user count must be positive, got K={K}")
    return Fraction(1, K)


def cj_parameters(K: int, n: int) -> CjParameters:
    """Bound A parameters for K users at series index n (exact arithmetic).

    Rejects K < 3: the exponent N = (K-1)(K-2) - 1 is nonpositive there and
    the scheme is undefined.
    """
    if K < 3:
        raise ValueError(f"the extension series needs K >= 3, got K={K} "
                         f"(exponent N would be {(K - 1) * (K - 2) - 1})")
    if n < 1:
        raise ValueError(f"series index must be a positive integer, got n={n}")
    n_exp = (K - 1) * (K - 2) - 1
    a = (n + 1) ** n_exp
    b = n ** n_exp
    d = (a,) + (b,) * (K - 1)
    d_total = a + (K - 1) * b
    return CjParameters(K=K, n=n, N_exp=n_exp, N_s=a + b, d=d, d_total=d_total,
                        d_bar=Fraction(d_total, K * (a + b)))


def cj_config(K: int, n: int, seed: int = 0) -> SystemConfig:
    """Diagonal config carrying the Bound A scheme's dimensions and streams."""
    p = cj_parameters(K, n)
    return diagonal_config(K, p.N_s, p.d, seed=seed)


def min_improper_n(K: int, n_max: int) -> int | None:
    """Smallest n <= n_max whose Bound A configuration fails properness.

    Sweeps n = 1, 2, ... evaluating the exact equation and variable counts of
    the scheme's diagonal configuration (inlined for speed; the counts are
    the same sums ``equation_count`` and ``variable_count`` compute). Returns
    None when every index up to n_max is proper. K=3 never turns improper;
    K >= 4 does at modest n.
    """
    if K < 3:
        raise ValueError(f"the extension series needs K >= 3, got K={K}")
    n_exp = (K - 1) * (K - 2) - 1
    for n in range(1, n_max + 1):
        a = (n + 1) ** n_exp
        b = n ** n_exp
        # stream vector (a, b, ..., b) over N_s = a + b slots
        sum_d = a + (K - 1) * b
        sum_d2 = a * a + (K - 1) * b * b
        n_e = sum_d * sum_d - sum_d2
        n_v = 2 * ((a + b) * sum_d - sum_d2)
        if n_e > n_v:
            return n
    return None


def improper_by_threshold(K: int, n: int) -> bool:
    """Closed-form improperness test: (K-1)(K-2)*n^N > 2*(n+1)^N.

    Algebraically equivalent to N_e > N_v for the Bound A configuration;
    kept as an independent cross-check for the sweep in ``min_improper_n``.
    """
    if K < 3:
        raise ValueError(f"the extension series needs K >= 3, got K={K}")
    if n < 1:
        raise ValueError(f"series index must be a positive integer, got n={n}")
    n_exp = (K - 1) * (K - 2) - 1
    return (K - 1) * (K - 2) * n ** n_exp > 2 * (n + 1) ** n_exp


def dim_channel_space(cfg: SystemConfig) -> int:
    """Dimension of the space of structured cross channels (closed form).

    Counts the free entries of all H[j][k], j != k; direct channels never
    enter the alignment equations. Generic: sum N_j*N_k; diagonal:
    K(K-1)*N_s; block-diagonal: sum N_c*M_j*M_k, all over ordered pairs
    j != k.
    """
    validate_config(cfg)
    kind = cfg.structure.kind
    if kind is StructureKind.DIAGONAL:
        return cfg.K * (cfg.K - 1) * cfg.n_s
    sizes = cfg.N if kind is StructureKind.GENERIC else cfg.M
    n_c = cfg.structure.subcarriers or 1
    return n_c * (sum(sizes) ** 2 - sum(m * m for m in sizes))


def sparse_dim_deficit(cfg: SystemConfig) -> int:
    """Equation count minus channel-space dimension.

    A positive value certifies that the alignment map has more equations than
    the structured channel space has dimensions, so the generic dominance
    argument behind the properness bound cannot apply to this structure.
    """
    return equation_count(cfg.d) - dim_channel_space(cfg)


def bound_sweep_rows(K_values: Iterable[int], n_values: Iterable[int],
                     M_values: Iterable[int]) -> list[dict]:
    """Rows for a bound-comparison table.

    One row per (K, n) with the Bound A normalized DoF, one per (K, M) with
    the Bound B ceiling, one per K with the TDMA baseline. ``param`` holds n
    or M (None for TDMA); ``value`` is exact.
    """
    rows: list[dict] = []
    for K in K_values:
        if K >= 3:
            for n in n_values:
                rows.append({"K": K, "param": n,
                             "value": cj_parameters(K, n).d_bar, "source": "BoundA"})
        for M in M_values:
            rows.append({"K": K, "param": M,
                         "value": symmetric_bound(M, K), "source": "BoundB"})
        rows.append({"K": K, "param": None,
                     "value": tdma_baseline(K), "source": "TDMA"})
    return rows
