"""Domain types for interference-alignment instances and seeded channel generation.

A K-user instance consists of channel matrices H[j][k] (receiver j, transmitter
k) of size N_j x N_k over the complex field. Every structure is N_c blocks of
M_j x M_k on the diagonal:

* generic: every entry is free (plain MIMO), one block (N_c = 1, M = N),
* diagonal: symbol extension over time slots or OFDM subcarriers, one shared
  signal dimension N_s, interference only within a slot (N_c = N_s, M = 1),
* block-diagonal: MIMO plus subcarrier extension, N_c blocks of M_j x M_k.

Free entries are drawn i.i.d. from the circularly-symmetric complex standard
normal distribution; any continuous distribution gives generic channels with
probability 1. Generation is keyed by a counter-based PRNG (Philox4x32-10) so
every (j, k) pair owns a reproducible substream independent of draw order.
"""

from __future__ import annotations

import enum
import math
import operator
from dataclasses import dataclass
from collections.abc import Iterable, Iterator, Sequence

import numpy as np

from .errors import DimensionMismatch, InvalidSpec, StreamOverflow

__all__ = [
    "StructureKind",
    "ChannelStructure",
    "SystemConfig",
    "ChannelSet",
    "IaSolution",
    "sample_channels",
    "pair_support",
    "cross_pairs",
    "substream",
    "complex_normal",
    "generic_config",
    "diagonal_config",
    "block_diagonal_config",
    "config_to_json",
    "config_from_json",
]


class StructureKind(str, enum.Enum):
    GENERIC = "generic"
    DIAGONAL = "diagonal"
    BLOCK_DIAGONAL = "block-diagonal"


def _int(name: str, x) -> int:
    """``x`` as an int; InvalidSpec, naming ``name``, for a float, bool or other non-integer."""
    if isinstance(x, bool) or not hasattr(type(x), "__index__"):
        raise InvalidSpec(f"{name} must be an integer, got {x!r}")
    return operator.index(x)


def _count(name: str, x, least: int = 1) -> int:
    """``x`` as an int of at least ``least``: InvalidSpec as in ``_int``, ValueError below."""
    n = _int(name, x)
    if n < least:
        raise ValueError(f"{name} must be at least {least}, got {n}")
    return n


def _seed(x) -> int:
    """``x`` as a seed: any non-negative integer; InvalidSpec otherwise."""
    seed = _int("seed", x)
    if seed < 0:
        raise InvalidSpec(f"seed must be non-negative, got {seed}")
    return seed


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
        if self.subcarriers is not None:
            object.__setattr__(self, "subcarriers", _int("N_c", self.subcarriers))


@dataclass(frozen=True)
class SystemConfig:
    """Parameters of one K-user instance, valid once built.

    N[k] is the signal-space dimension of user k, d[k] its stream count, and
    M[k] its antenna count (block-diagonal structures only, where
    N[k] = M[k] * N_c). ``seed`` keys all channel randomness. Construction (and
    ``dataclasses.replace``) coerces every count to int and raises, naming it,
    if an invariant is violated.
    """

    K: int
    N: tuple[int, ...]
    d: tuple[int, ...]
    structure: ChannelStructure
    M: tuple[int, ...] | None = None
    seed: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "K", _int("K", self.K))
        for name in ("N", "d", "M"):
            values = getattr(self, name)
            if values is not None:
                object.__setattr__(self, name, tuple(_int(f"{name}[{i}]", x)
                                                     for i, x in enumerate(values)))
        object.__setattr__(self, "seed", _seed(self.seed))

        if self.K < 2:
            raise DimensionMismatch(f"user count must be at least 2, got K={self.K}")
        if len(self.N) != self.K:
            raise DimensionMismatch(f"N has {len(self.N)} entries for K={self.K} users")
        if len(self.d) != self.K:
            raise DimensionMismatch(f"d has {len(self.d)} entries for K={self.K} users")
        if any(n < 1 for n in self.N):
            raise DimensionMismatch(f"signal dimensions must be positive, got N={self.N}")
        if any(dk < 1 for dk in self.d):
            raise DimensionMismatch(f"stream counts must be positive, got d={self.d}")
        for k, (nk, dk) in enumerate(zip(self.N, self.d)):
            if dk > nk:
                raise StreamOverflow(f"user {k}: d_k={dk} exceeds signal dimension N_k={nk}")

        kind = self.structure.kind
        if kind is StructureKind.BLOCK_DIAGONAL:
            n_c = self.structure.subcarriers
            if n_c is None or n_c < 1:
                raise DimensionMismatch(
                    "block-diagonal structure requires a positive subcarrier count")
            if self.M is None or len(self.M) != self.K:
                raise DimensionMismatch(
                    "block-diagonal structure requires per-user antenna counts M")
            if any(m < 1 for m in self.M):
                raise DimensionMismatch(f"antenna counts must be positive, got M={self.M}")
            for k, (nk, mk) in enumerate(zip(self.N, self.M)):
                if nk != mk * n_c:
                    raise DimensionMismatch(
                        f"user {k}: N_k={nk} is not M_k*N_c={mk}*{n_c}={mk * n_c}")
        else:
            if self.structure.subcarriers is not None:
                raise DimensionMismatch(f"subcarrier count is only meaningful for "
                                        f"block-diagonal structures, got kind={kind.value}")
            if self.M is not None:
                raise DimensionMismatch("antenna counts M are only meaningful for "
                                        "block-diagonal structures")
            if kind is StructureKind.DIAGONAL and len(set(self.N)) != 1:
                raise DimensionMismatch(
                    f"diagonal structure requires a common signal dimension, got N={self.N}")

    @property
    def n_s(self) -> int:
        """Shared signal dimension (diagonal structures)."""
        if len(set(self.N)) != 1:
            raise DimensionMismatch(f"no common signal dimension: N={self.N}")
        return self.N[0]


def _per_user(name: str, x, K: int) -> tuple:
    """``x`` as one entry per user: a sequence as given, a scalar repeated K
    times. A scalar that is not an integer raises InvalidSpec naming ``name``."""
    return tuple(x) if isinstance(x, Iterable) else (_int(name, x),) * K


def generic_config(K: int, N: Sequence[int] | int, d: Sequence[int] | int,
                   seed: int = 0) -> SystemConfig:
    """Dense-channel config; scalar N or d is broadcast to all users."""
    return SystemConfig(K=K, N=_per_user("N", N, K), d=_per_user("d", d, K),
                        structure=ChannelStructure(StructureKind.GENERIC), seed=seed)


def diagonal_config(K: int, n_s: int, d: Sequence[int] | int, seed: int = 0) -> SystemConfig:
    """Diagonal-channel config with shared signal dimension ``n_s``."""
    return SystemConfig(K=K, N=(n_s,) * K, d=_per_user("d", d, K),
                        structure=ChannelStructure(StructureKind.DIAGONAL), seed=seed)


def block_diagonal_config(K: int, M: Sequence[int] | int, n_c: int,
                          d: Sequence[int] | int, seed: int = 0) -> SystemConfig:
    """Block-diagonal config: N_k = M_k * n_c."""
    M = _per_user("M", M, K)
    return SystemConfig(K=K, N=tuple(m * n_c for m in M), d=_per_user("d", d, K), M=M,
                        structure=ChannelStructure(StructureKind.BLOCK_DIAGONAL, n_c),
                        seed=seed)


# ---------------------------------------------------------------------------
# free-entry layout

def _blocks(shape: SystemConfig | ChannelSet) -> tuple[int, tuple[int, ...]]:
    """Block layout (N_c, M) of ``shape``: H[j][k] is N_c diagonal blocks of M_j x M_k.

    The one place a structure kind picks a layout.
    """
    kind = shape.structure.kind
    if kind is StructureKind.GENERIC:
        return 1, shape.N
    if kind is StructureKind.DIAGONAL:
        return shape.N[0], (1,) * len(shape.N)
    return shape.structure.subcarriers, shape.M


def pair_support(cfg: SystemConfig | ChannelSet, j: int, k: int
                 ) -> tuple[np.ndarray, np.ndarray]:
    """Row and column indices of the free entries of H[j][k], in canonical order.

    ``cfg`` is a config or a channel set; only its N, structure and M are read.
    The entries of the N_c blocks of M_j x M_k on the diagonal, block by
    block, row-major within a block: all N_j x N_k entries row-major for a
    generic structure, the N_s diagonal entries for a diagonal one. Stacking
    the ``cross_pairs`` in order gives the canonical layout of the free
    cross-channel vector.
    """
    n_c, m = _blocks(cfg)
    # entry (p, q) of block b sits at row b*M_j + p, column b*M_k + q
    return (np.arange(n_c * m[j]).repeat(m[k]),
            np.arange(n_c * m[k]).reshape(n_c, m[k]).repeat(m[j], axis=0).ravel())


def _pair_size(cfg: SystemConfig | ChannelSet, j: int, k: int) -> int:
    """Number of free entries of H[j][k]: the length of ``pair_support``'s arrays."""
    n_c, m = _blocks(cfg)
    return n_c * m[j] * m[k]


def cross_pairs(K: int) -> Iterator[tuple[int, int]]:
    """Ordered pairs (j, k), j != k, of K users in lexicographic order."""
    return ((j, k) for j in range(K) for k in range(K) if j != k)


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


def _frozen(a, what: str) -> np.ndarray:
    """A read-only complex copy of ``a``: the one way a model object stores an array.

    Raises DimensionMismatch, naming ``what``, when an entry is not finite.
    """
    a = np.array(a, dtype=complex)
    if not np.isfinite(a).all():
        raise DimensionMismatch(f"{what} contains non-finite entries")
    a.flags.writeable = False
    return a


def _rows(items: Iterable[Iterable], K: int) -> list[list]:
    """``items`` read into K lists of K entries, each row read as it arrives.

    Raises DimensionMismatch, counting by ``len``, unless there are K rows of
    K entries; the row count is checked first.
    """
    rows = [list(row) for row in items]
    if len(rows) != K:
        raise DimensionMismatch(f"{len(rows)} channel rows for K={K}")
    for j, row in enumerate(rows):
        if len(row) != K:
            raise DimensionMismatch(f"channel row {j} has {len(row)} entries for K={K}")
    return rows


class _DenseRow(Sequence):
    """Row j of ``ChannelSet.matrices``: H[j][k] is built when indexed; a
    slice gives a tuple of them, as a tuple row would."""

    __slots__ = ("_ch", "_j")

    def __init__(self, ch: ChannelSet, j: int) -> None:
        self._ch, self._j = ch, j

    def __len__(self) -> int:
        return self._ch.K

    def __getitem__(self, k: int | slice) -> np.ndarray | tuple[np.ndarray, ...]:
        ch, j = self._ch, self._j
        k = range(ch.K)[k]
        if isinstance(k, range):
            return tuple(map(self.__getitem__, k))
        h = np.zeros((ch.N[j], ch.N[k]), dtype=complex)
        h[pair_support(ch, j, k)] = ch.free[j][k]
        h.flags.writeable = False
        return h


class ChannelSet:
    """All K*K channels of one instance, stored as their free entries; immutable.

    ``free[j][k]`` is the read-only 1-D vector of H[j][k]'s free entries in
    ``pair_support(ch, j, k)`` order; the entries the structure confines to
    zero are stored nowhere. ``N``, ``structure`` and ``M`` give the shape,
    so a channel set serves as the shape argument of ``pair_support``.

    ``ChannelSet(shape, free)`` stores a read-only copy of each free-entry
    vector for ``shape``'s N, structure and M, so later edits to the inputs
    never reach it. ``free`` may be any iterable of K rows of K vectors, a
    generator included: the rows are read into lists and counted, and then
    each vector is replaced by its checked copy in turn, so a vector and its
    copy coexist for one pair at a time.
    ``ChannelSet.from_dense(cfg, matrices)`` gathers them from dense matrices.
    """

    __slots__ = ("N", "structure", "M", "free")

    def __init__(self, shape: SystemConfig | ChannelSet,
                 free: Iterable[Iterable[np.ndarray]]) -> None:
        for name in ("N", "structure", "M"):
            object.__setattr__(self, name, getattr(shape, name))
        rows = _rows(free, self.K)
        for j, row in enumerate(rows):
            for k, v in enumerate(row):
                row[k] = v = _frozen(v, f"H[{j}][{k}]")
                size = _pair_size(self, j, k)
                if v.shape != (size,):
                    raise DimensionMismatch(f"H[{j}][{k}] has free entries of shape "
                                            f"{v.shape}, expected ({size},)")
        object.__setattr__(self, "free", tuple(map(tuple, rows)))

    @classmethod
    def from_dense(cls, cfg: SystemConfig,
                   matrices: Sequence[Sequence[np.ndarray]]) -> ChannelSet:
        """Channels of ``cfg`` from dense N_j x N_k matrices H[j][k].

        Raises DimensionMismatch when K or a matrix shape differs from
        ``cfg``'s, and, naming the pair and the entry, when an entry that
        ``cfg``'s structure confines to zero is nonzero.
        """
        def gathered(j: int, k: int, h) -> np.ndarray:
            h = np.asarray(h, dtype=complex)
            if h.shape != (cfg.N[j], cfg.N[k]):
                raise DimensionMismatch(f"H[{j}][{k}] has shape {h.shape}, "
                                        f"expected ({cfg.N[j]}, {cfg.N[k]})")
            support = pair_support(cfg, j, k)
            outside = h != 0
            outside[support] = False
            bad = np.flatnonzero(outside)
            if bad.size:
                r, c = divmod(int(bad[0]), cfg.N[k])
                raise DimensionMismatch(
                    f"H[{j}][{k}] has entry ({r}, {c}) = {complex(h[r, c])} "
                    f"outside the {cfg.structure.kind.value} structure")
            return h[support]

        return cls(cfg, [[gathered(j, k, h) for k, h in enumerate(row)]
                         for j, row in enumerate(_rows(matrices, cfg.K))])

    def __setattr__(self, name, value):
        raise AttributeError(f"ChannelSet is immutable; cannot set {name!r}")

    @property
    def K(self) -> int:
        return len(self.N)

    @property
    def matrices(self) -> tuple[Sequence[np.ndarray], ...]:
        """Dense view: ``matrices[j][k]`` builds H[j][k], read-only and not cached."""
        return tuple(_DenseRow(self, j) for j in range(self.K))

    def apply(self, j: int, k: int, x: np.typing.ArrayLike) -> np.ndarray:
        """H[j][k] @ x for an N_k x c array or nested list ``x``, from the free entries alone.

        DimensionMismatch, naming the pair, unless ``x`` is 2-D with N_k rows.
        One batched matmul over the N_c blocks; an elementwise product when
        both blocks are 1 x 1.
        """
        x = np.asarray(x)
        if x.ndim != 2 or x.shape[0] != self.N[k]:
            raise DimensionMismatch(f"H[{j}][{k}] @ x needs an N_k x c array with "
                                    f"N_k={self.N[k]}, got shape {x.shape}")
        v = self.free[j][k]
        n_c, m = _blocks(self)
        if m[j] == m[k] == 1:
            return v[:, None] * x
        c = x.shape[1]
        blocks = v.reshape(n_c, m[j], m[k]) @ x.reshape(n_c, m[k], c)
        return blocks.reshape(self.N[j], c)


def sample_channels(cfg: SystemConfig) -> ChannelSet:
    """Draw a full channel set for ``cfg``.

    Every free entry is an independent CN(0, 1) draw from the (seed, j, k)
    substream, written straight into the pair's free-entry vector; confined
    entries are exactly zero; ``ChannelSet`` replaces each draw by its copy in turn.
    The same config (seed included) always yields a bit-identical channel set.
    """
    return ChannelSet(cfg, ((complex_normal(substream(cfg.seed, j, k), _pair_size(cfg, j, k))
                             for k in range(cfg.K)) for j in range(cfg.K)))


@dataclass(frozen=True, eq=False)
class IaSolution:
    """Per-user precoders V[k] and decoders U[k], each N_k x d_k and finite; read-only copies."""

    V: tuple[np.ndarray, ...]
    U: tuple[np.ndarray, ...]

    def __post_init__(self) -> None:
        if len(self.V) != len(self.U):
            raise DimensionMismatch(f"{len(self.V)} precoders vs {len(self.U)} decoders")
        vs, us = [], []
        for k, (v, u) in enumerate(zip(self.V, self.U)):
            v = _frozen(v, f"user {k}: precoder")
            u = _frozen(u, f"user {k}: decoder")
            if v.ndim != 2 or u.ndim != 2 or v.shape != u.shape:
                raise DimensionMismatch(
                    f"user {k}: precoder shape {v.shape} vs decoder shape {u.shape}")
            if v.shape[1] < 1 or v.shape[1] > v.shape[0]:
                raise DimensionMismatch(
                    f"user {k}: {v.shape[1]} streams do not fit in dimension {v.shape[0]}")
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


_CONFIG_KEYS = ("K", "N", "d", "structure", "M", "seed")
_STRUCTURE_KEYS = ("kind", "N_c")


def _reject_unknown_keys(doc, known: tuple[str, ...], where: str) -> None:
    for key in doc if isinstance(doc, dict) else ():
        if key not in known:
            raise InvalidSpec(f"unknown {where} key {key!r}; expected one of "
                              f"{', '.join(known)}")


def config_from_json(doc: dict) -> SystemConfig:
    """Parse and validate a config document.

    A key outside the schema, at the top level or in ``structure``, and a
    float or bool count raise InvalidSpec naming it, so a misspelt field
    never falls back to its default.
    """
    _reject_unknown_keys(doc, _CONFIG_KEYS, "config")
    try:
        _reject_unknown_keys(doc["structure"], _STRUCTURE_KEYS, "structure")
        structure = ChannelStructure(kind=doc["structure"]["kind"],
                                     subcarriers=doc["structure"].get("N_c"))
        return SystemConfig(K=doc["K"], N=doc["N"], d=doc["d"], structure=structure,
                            M=doc.get("M"), seed=doc.get("seed", 0))
    except (KeyError, TypeError, ValueError) as exc:
        raise DimensionMismatch(f"malformed config document: {exc}") from exc
