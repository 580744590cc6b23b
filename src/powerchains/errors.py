"""Exception types shared across the package."""


class OverflowLimitError(OverflowError):
    """An input exceeds the supported integer width (or the certified primality range)."""


class SizeLimitError(ValueError):
    """A sequence is longer than the fixed subset-sum cap of 24 terms."""


class InvalidCandidateError(ValueError):
    """An operation that requires a sum-distinct candidate received one that is not."""
