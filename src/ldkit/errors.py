"""Exception types shared across the toolkit."""


class LdkitError(Exception):
    """Base class for all toolkit errors."""


class OutsideDomain(LdkitError):
    """Momentum-branch radicand is negative beyond the roundoff tolerance."""


class TurningPoint(LdkitError):
    """Branch slope requested where the momentum branch vanishes."""


class NonFiniteEnergy(LdkitError):
    """Energy is NaN or infinite."""


class BelowMinimum(LdkitError):
    """Energy lies below the model's minimum (empty level set)."""


class TruncationRequired(LdkitError):
    """Unbounded model evaluated without a coordinate truncation."""


class TruncationInsideDomain(LdkitError):
    """Truncation cut falls to the right of the leftmost needed endpoint."""


class InvalidInterval(LdkitError):
    """Integration interval with lo >= hi."""


class StraddlesCritical(LdkitError):
    """Energy derivative requested at a breakpoint, where ell(E) has none."""


class EmptyLadder(LdkitError):
    """Every sample of a rate ladder failed."""


class DegenerateFit(LdkitError):
    """Power-law fit requested on samples spanning less than one decade."""
