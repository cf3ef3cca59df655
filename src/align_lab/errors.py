"""Exception types shared across the package."""


class AlignLabError(Exception):
    """Base class for all align-lab errors."""


class DimensionMismatch(AlignLabError):
    """A size/shape invariant is violated (matrix shapes, block factorizations, ...)."""


class StreamOverflow(AlignLabError):
    """A user requests more streams than its signal dimension allows (d_k > N_k)."""


class RankDeficient(AlignLabError):
    """A precoder or decoder matrix does not have full column rank."""


class SingularChannel(AlignLabError):
    """A diagonal channel entry is zero, so the required channel inverses do not exist."""


class DegenerateSpan(AlignLabError):
    """Interference subspaces are degenerate (non-generic channels)."""


class NumericOverflow(AlignLabError):
    """A figure exceeds the float64 range: one that ``check`` reports, or the
    start vector of the ``cj3`` witness's Krylov basis."""


class InvalidSpec(AlignLabError):
    """A CLI experiment specification is malformed."""
