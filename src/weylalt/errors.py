"""Exception types shared across the package."""


class WeylaltError(Exception):
    """Base class for all library errors."""


class NotInRootSpan(WeylaltError):
    """Vector lies outside the rational span of the simple roots."""


class UnsupportedRank(WeylaltError):
    """Rank outside the validity window for the requested type."""


class CapExceeded(WeylaltError):
    """An alternation-set walk visited more nodes than the configured cap."""


class TableTooLarge(WeylaltError):
    """P_q table over a box would exceed the memory budget."""


class HeightExceeded(WeylaltError):
    """Input too tall for the brute-force partition search."""
