"""Domain types for interference-alignment instances and seeded channel generation.

A K-user instance consists of channel matrices H[j][k] (receiver j, transmitter
k) of size N_j x N_k over the complex field. Three sparsity structures are
supported:

* generic: every entry is free (plain MIMO),
* diagonal: symbol extension over time slots or OFDM subcarriers, one shared
  signal dimension N_s, interference only within a slot,
* block-diagonal: MIMO plus subcarrier extension, N_c blocks of M_j x M_k.

Free entries are drawn i.i.d. from the circularly-symmetric complex standard
normal distribution; any continuous distribution gives generic channels with
probability 1. Generation is keyed by a counter-based PRNG (Philox4x32-10) so
every (j, k) pair owns a reproducible substream independent of draw order.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, replace
from typing import Iterator, Sequence

import numpy as np

from .errors import DimensionMismatch, InvalidSpec, StreamOverflow

__all__ = [
    "StructureKind",
    "ChannelStructure",
    "SystemConfig",
    "ChannelSet",
    "IaSolution",
    "validate_config",
    "sample_channels",
    "pair_support",
    "substream",
    "complex_normal",
    "generic_config",
    "diagonal_config",
    "block_diagonal_config",
    "config_to_json",
    "config_from_json",
    "channels_to_json",
    "channels_from_json",
    "solution_to_json",
    "solution_from_json",
]

_MAX_SEED = 2**64


class StructureKind(str, enum.Enum):
    GENERIC = "generic"
    DIAGONAL = "diagonal"
    BLOCK_DIAGONAL = "block-diagonal"


@dataclass(frozen=True)
class ChannelStructure:
    """Sparsity pattern of the channel matrices.

    ``subcarriers`` (N_c) is meaningful only for the block-diagonal kind and
    must be ``None`` otherwise.
    """

    kind: StructureKind
    subcarriers: int | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "kind", StructureKind(self.kind))


@dataclass(frozen=True)
class SystemConfig:
    """Parameters of one K-user instance.

    N[k] is the signal-space dimension of user k, d[k] its stream count, and
    M[k] its antenna count (block-diagonal structures only, where
    N[k] = M[k] * N_c). ``seed`` keys all channel randomness.
    """

    K: int
    N: tuple[int, ...]
    d: tuple[int, ...]
    structure: ChannelStructure
    M: tuple[int, ...] | None = None
    seed: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "N", tuple(int(x) for x in self.N))
        object.__setattr__(self, "d", tuple(int(x) for x in self.d))
        if self.M is not None:
            object.__setattr__(self, "M", tuple(int(x) for x in self.M))

    @property
    def n_s(self) -> int:
        """Shared signal dimension (diagonal structures)."""
        if len(set(self.N)) != 1:
            raise DimensionMismatch(f"no common signal dimension: N={self.N}")
        return self.N[0]


def generic_config(K: int, N: Sequence[int] | int, d: Sequence[int] | int,
                   seed: int = 0) -> SystemConfig:
    """Dense-channel config; scalar N or d is broadcast to all users."""
    N = (N,) * K if isinstance(N, int) else tuple(N)
    d = (d,) * K if isinstance(d, int) else tuple(d)
    return SystemConfig(K=K, N=N, d=d, structure=ChannelStructure(StructureKind.GENERIC),
                        seed=seed)


def diagonal_config(K: int, n_s: int, d: Sequence[int] | int, seed: int = 0) -> SystemConfig:
    """Diagonal-channel config with shared signal dimension ``n_s``."""
    d = (d,) * K if isinstance(d, int) else tuple(d)
    return SystemConfig(K=K, N=(n_s,) * K, d=d,
                        structure=ChannelStructure(StructureKind.DIAGONAL), seed=seed)


def block_diagonal_config(K: int, M: Sequence[int] | int, n_c: int,
                          d: Sequence[int] | int, seed: int = 0) -> SystemConfig:
    """Block-diagonal config: N_k = M_k * n_c."""
    M = (M,) * K if isinstance(M, int) else tuple(M)
    d = (d,) * K if isinstance(d, int) else tuple(d)
    return SystemConfig(K=K, N=tuple(m * n_c for m in M), d=d, M=M,
                        structure=ChannelStructure(StructureKind.BLOCK_DIAGONAL, n_c),
                        seed=seed)


def validate_config(cfg: SystemConfig) -> None:
    """Raise if any invariant of ``cfg`` is violated; the message names it."""
    if cfg.K < 2:
        raise DimensionMismatch(f"user count must be at least 2, got K={cfg.K}")
    if len(cfg.N) != cfg.K:
        raise DimensionMismatch(f"N has {len(cfg.N)} entries for K={cfg.K} users")
    if len(cfg.d) != cfg.K:
        raise DimensionMismatch(f"d has {len(cfg.d)} entries for K={cfg.K} users")
    if any(n < 1 for n in cfg.N):
        raise DimensionMismatch(f"signal dimensions must be positive, got N={cfg.N}")
    if any(dk < 1 for dk in cfg.d):
        raise DimensionMismatch(f"stream counts must be positive, got d={cfg.d}")
    for k, (nk, dk) in enumerate(zip(cfg.N, cfg.d)):
        if dk > nk:
            raise StreamOverflow(f"user {k}: d_k={dk} exceeds signal dimension N_k={nk}")
    if not isinstance(cfg.seed, int) or not 0 <= cfg.seed < _MAX_SEED:
        raise InvalidSpec(f"seed must be a 64-bit unsigned integer, got {cfg.seed!r}")

    kind = cfg.structure.kind
    if kind is StructureKind.BLOCK_DIAGONAL:
        n_c = cfg.structure.subcarriers
        if n_c is None or n_c < 1:
            raise DimensionMismatch("block-diagonal structure requires a positive subcarrier count")
        if cfg.M is None or len(cfg.M) != cfg.K:
            raise DimensionMismatch("block-diagonal structure requires per-user antenna counts M")
        if any(m < 1 for m in cfg.M):
            raise DimensionMismatch(f"antenna counts must be positive, got M={cfg.M}")
        for k, (nk, mk) in enumerate(zip(cfg.N, cfg.M)):
            if nk != mk * n_c:
                raise DimensionMismatch(
                    f"user {k}: N_k={nk} is not M_k*N_c={mk}*{n_c}={mk * n_c}")
    else:
        if cfg.structure.subcarriers is not None:
            raise DimensionMismatch(f"subcarrier count is only meaningful for "
                                    f"block-diagonal structures, got kind={kind.value}")
        if cfg.M is not None:
            raise DimensionMismatch("antenna counts M are only meaningful for "
                                    "block-diagonal structures")
        if kind is StructureKind.DIAGONAL and len(set(cfg.N)) != 1:
            raise DimensionMismatch(
                f"diagonal structure requires a common signal dimension, got N={cfg.N}")


# ---------------------------------------------------------------------------
# free-entry layout

def pair_support(cfg: SystemConfig, j: int, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Row and column indices of the free entries of H[j][k], in canonical order.

    Generic: all N_j x N_k entries, row-major. Diagonal: the N_s diagonal
    entries. Block-diagonal: the N_c blocks of M_j x M_k on the diagonal,
    block by block, row-major within a block. Stacking the cross pairs
    (j, k), j != k, in lexicographic order gives the canonical layout of the
    free cross-channel vector.
    """
    kind = cfg.structure.kind
    if kind is StructureKind.GENERIC:
        return np.divmod(np.arange(cfg.N[j] * cfg.N[k]), cfg.N[k])
    if kind is StructureKind.DIAGONAL:
        return np.arange(cfg.N[j]), np.arange(cfg.N[k])
    m_j, m_k = cfg.M[j], cfg.M[k]
    b, p, q = np.indices((cfg.structure.subcarriers, m_j, m_k)).reshape(3, -1)
    return b * m_j + p, b * m_k + q


# ---------------------------------------------------------------------------
# random generation

def substream(seed: int, *key: int) -> np.random.Generator:
    """Counter-based generator (Philox4x32-10) keyed by (seed, *key).

    Streams for distinct keys are independent and do not depend on the order
    in which they are created, which keeps parallel or reordered generation
    bit-reproducible.
    """
    return np.random.Generator(np.random.Philox(np.random.SeedSequence((seed,) + key)))


def complex_normal(rng: np.random.Generator, *shape: int) -> np.ndarray:
    """Circularly-symmetric complex standard normal draws, CN(0, 1)."""
    w = rng.standard_normal((2,) + shape)
    return (w[0] + 1j * w[1]) / math.sqrt(2.0)


@dataclass(frozen=True, eq=False)
class ChannelSet:
    """All K*K channel matrices of one instance; immutable after construction.

    A read-only complex array that owns its data is taken over without a
    copy; its creator hands it over and must not make it writeable again.
    Any other input is copied.
    """

    matrices: tuple[tuple[np.ndarray, ...], ...]

    def __post_init__(self) -> None:
        rows = []
        K = len(self.matrices)
        if K < 1:
            raise DimensionMismatch("a channel set needs at least one user")
        dims_rx = [np.asarray(self.matrices[j][j]).shape[0] for j in range(K)]
        for j in range(K):
            if len(self.matrices[j]) != K:
                raise DimensionMismatch(f"channel row {j} has {len(self.matrices[j])} "
                                        f"entries for K={K}")
            row = []
            for k in range(K):
                h = self.matrices[j][k]
                if not (type(h) is np.ndarray and h.dtype == complex
                        and h.flags.owndata and not h.flags.writeable):
                    h = np.array(h, dtype=complex)
                if h.ndim != 2 or h.shape != (dims_rx[j], dims_rx[k]):
                    raise DimensionMismatch(
                        f"H[{j}][{k}] has shape {h.shape}, expected "
                        f"({dims_rx[j]}, {dims_rx[k]})")
                if not np.all(np.isfinite(h.view(float))):
                    raise DimensionMismatch(f"H[{j}][{k}] contains non-finite entries")
                h.flags.writeable = False
                row.append(h)
            rows.append(tuple(row))
        object.__setattr__(self, "matrices", tuple(rows))

    @property
    def K(self) -> int:
        return len(self.matrices)

    @property
    def N(self) -> tuple[int, ...]:
        return tuple(self.matrices[j][j].shape[0] for j in range(self.K))

    def cross_pairs(self) -> Iterator[tuple[int, int]]:
        """Ordered pairs (j, k), j != k, in lexicographic order."""
        for j in range(self.K):
            for k in range(self.K):
                if j != k:
                    yield j, k


def sample_channels(cfg: SystemConfig) -> ChannelSet:
    """Draw a full channel set for ``cfg``.

    Every free entry is an independent CN(0, 1) draw from the (seed, j, k)
    substream; confined entries are exactly zero. The same config (seed
    included) always yields a bit-identical channel set.
    """
    validate_config(cfg)
    mats = []
    for j in range(cfg.K):
        row = []
        for k in range(cfg.K):
            rows, cols = pair_support(cfg, j, k)
            h = np.zeros((cfg.N[j], cfg.N[k]), dtype=complex)
            h[rows, cols] = complex_normal(substream(cfg.seed, j, k), rows.size)
            h.flags.writeable = False
            row.append(h)
        mats.append(tuple(row))
    return ChannelSet(tuple(mats))


@dataclass(frozen=True, eq=False)
class IaSolution:
    """Per-user precoders V[k] and decoders U[k], each N_k x d_k."""

    V: tuple[np.ndarray, ...]
    U: tuple[np.ndarray, ...]

    def __post_init__(self) -> None:
        if len(self.V) != len(self.U):
            raise DimensionMismatch(f"{len(self.V)} precoders vs {len(self.U)} decoders")
        vs, us = [], []
        for k, (v, u) in enumerate(zip(self.V, self.U)):
            v = np.array(v, dtype=complex)
            u = np.array(u, dtype=complex)
            if v.ndim != 2 or u.ndim != 2 or v.shape != u.shape:
                raise DimensionMismatch(
                    f"user {k}: precoder shape {v.shape} vs decoder shape {u.shape}")
            if v.shape[1] < 1 or v.shape[1] > v.shape[0]:
                raise DimensionMismatch(
                    f"user {k}: {v.shape[1]} streams do not fit in dimension {v.shape[0]}")
            v.flags.writeable = False
            u.flags.writeable = False
            vs.append(v)
            us.append(u)
        object.__setattr__(self, "V", tuple(vs))
        object.__setattr__(self, "U", tuple(us))

    @property
    def K(self) -> int:
        return len(self.V)

    @property
    def N(self) -> tuple[int, ...]:
        return tuple(v.shape[0] for v in self.V)

    @property
    def d(self) -> tuple[int, ...]:
        return tuple(v.shape[1] for v in self.V)


# ---------------------------------------------------------------------------
# JSON serialization

def config_to_json(cfg: SystemConfig) -> dict:
    doc: dict = {
        "K": cfg.K,
        "N": list(cfg.N),
        "d": list(cfg.d),
        "structure": {"kind": cfg.structure.kind.value},
        "seed": cfg.seed,
    }
    if cfg.M is not None:
        doc["M"] = list(cfg.M)
    if cfg.structure.subcarriers is not None:
        doc["structure"]["N_c"] = cfg.structure.subcarriers
    return doc


def config_from_json(doc: dict) -> SystemConfig:
    """Parse and validate a config document."""
    try:
        structure = ChannelStructure(kind=StructureKind(doc["structure"]["kind"]),
                                     subcarriers=doc["structure"].get("N_c"))
        cfg = SystemConfig(K=int(doc["K"]), N=tuple(doc["N"]), d=tuple(doc["d"]),
                           structure=structure,
                           M=tuple(doc["M"]) if doc.get("M") is not None else None,
                           seed=int(doc.get("seed", 0)))
    except (KeyError, TypeError, ValueError) as exc:
        raise DimensionMismatch(f"malformed config document: {exc}") from exc
    validate_config(cfg)
    return cfg


def _matrix_to_json(h: np.ndarray) -> list:
    return [[[float(x.real), float(x.imag)] for x in row] for row in np.asarray(h)]


def _matrix_from_json(rows: list) -> np.ndarray:
    h = np.array([[complex(re, im) for re, im in row] for row in rows], dtype=complex)
    h.flags.writeable = False
    return h


def channels_to_json(ch: ChannelSet) -> list:
    """K x K array of dense row-major matrices, entries as [re, im] pairs."""
    return [[_matrix_to_json(ch.matrices[j][k]) for k in range(ch.K)]
            for j in range(ch.K)]


def channels_from_json(doc: list) -> ChannelSet:
    return ChannelSet(tuple(tuple(_matrix_from_json(m) for m in row) for row in doc))


def solution_to_json(sol: IaSolution) -> dict:
    return {"V": [_matrix_to_json(v) for v in sol.V],
            "U": [_matrix_to_json(u) for u in sol.U]}


def solution_from_json(doc: dict) -> IaSolution:
    return IaSolution(V=tuple(_matrix_from_json(m) for m in doc["V"]),
                      U=tuple(_matrix_from_json(m) for m in doc["U"]))


def with_seed(cfg: SystemConfig, seed: int) -> SystemConfig:
    """Copy of ``cfg`` with a different channel seed."""
    return replace(cfg, seed=seed)
