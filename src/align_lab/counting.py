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
exact. Counts go through ``model._count``: a float, bool or other non-integer
count raises InvalidSpec, and one below its least value raises ValueError.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .model import SystemConfig, _blocks, _count, diagonal_config

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
    d = [_count(f"d[{i}]", x) for i, x in enumerate(d)]
    total = sum(d)
    return total * total - sum(x * x for x in d)


def variable_count(cfg: SystemConfig) -> int:
    """Free variables of the alignment system: 2 * sum_k (N_k*d_k - d_k^2).

    Each user contributes d_k*(N_k - d_k) free entries in its precoder and the
    same in its decoder once the gauge is fixed to identity top blocks.
    """
    return 2 * sum(nk * dk - dk * dk for nk, dk in zip(cfg.N, cfg.d))


def is_proper(cfg: SystemConfig) -> PropernessReport:
    """Proper means the system has at least as many variables as equations."""
    n_e = equation_count(cfg.d)
    n_v = variable_count(cfg)
    return PropernessReport(N_e=n_e, N_v=n_v, proper=n_e <= n_v, slack=n_v - n_e)


def symmetric_bound(M: int, K: int) -> Fraction:
    """Properness ceiling on per-user streams in the symmetric M-antenna case."""
    M, K = _count("M", M), _count("K", K, 2)
    return Fraction(2 * M, K + 1)


def tdma_baseline(K: int) -> Fraction:
    """Normalized DoF of plain time sharing: 1/K, no alignment needed."""
    return Fraction(1, _count("K", K))


def cj_parameters(K: int, n: int) -> CjParameters:
    """Bound A parameters for K users at series index n (exact arithmetic).

    Rejects K < 3: the exponent N = (K-1)(K-2) - 1 is nonpositive there and
    the scheme is undefined.
    """
    K, n = _count("K", K, 3), _count("n", n)
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

    Bisects n = 1..n_max with ``improper_by_threshold``, the closed form of
    N_e > N_v for the scheme's diagonal configuration. Returns None when
    every index up to n_max is proper. K=3 never turns improper; K >= 4 does
    at modest n. An empty sweep (n_max < 1) raises ValueError: it proves nothing.

    Bisection finds the first improper index of a linear sweep: index n is
    improper exactly when (1 + 1/n)^N < (K-1)(K-2)/2, with N = (K-1)(K-2) - 1
    >= 1. The left side falls strictly as n grows, so every index above an
    improper one is improper too: the improper indices are a final segment
    of 1..n_max, and ``bisect_left`` returns its first element.
    """
    K, n_max = _count("K", K, 3), _count("n_max", n_max)
    ns = range(1, n_max + 1)
    i = bisect.bisect_left(ns, True, key=lambda n: improper_by_threshold(K, n))
    return ns[i] if i < len(ns) else None


def improper_by_threshold(K: int, n: int) -> bool:
    """Closed-form improperness test: (K-1)(K-2)*n^N > 2*(n+1)^N.

    With a = (n+1)^N and b = n^N, the Bound A configuration has
    N_e - N_v = (K-1)(K-2)*b^2 - 2*a*b, so this is exactly N_e > N_v;
    ``is_proper`` on ``cj_config(K, n)`` computes the two counts directly.
    """
    K, n = _count("K", K, 3), _count("n", n)
    n_exp = (K - 1) * (K - 2) - 1
    return (K - 1) * (K - 2) * n ** n_exp > 2 * (n + 1) ** n_exp


def dim_channel_space(cfg: SystemConfig) -> int:
    """Dimension of the space of structured cross channels (closed form).

    Counts the free entries of all H[j][k], j != k; direct channels never
    enter the alignment equations. With H[j][k] made of N_c blocks of
    M_j x M_k, that is sum N_c*M_j*M_k over ordered pairs j != k: sum
    N_j*N_k for generic channels, K(K-1)*N_s for diagonal ones.
    """
    n_c, m = _blocks(cfg)
    return n_c * (sum(m) ** 2 - sum(x * x for x in m))
