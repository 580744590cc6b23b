"""Exception types shared across the package."""


class OverflowLimitError(OverflowError):
    """An input exceeds the supported integer width (or the certified primality range)."""


class SizeLimitError(ValueError):
    """An input passes a fixed size cap: a sequence longer than the
    subset-sum cap of 24 terms, or an F_p[t] sieve or modulus search over
    more monic polynomials than `ffield.MAX_MONICS` (2^16)."""


class InvalidCandidateError(ValueError):
    """An operation that requires a sum-distinct candidate received one that is not."""
