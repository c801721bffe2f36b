"""Exception types raised across the package.

Everything derives from :class:`RadialMotError` so callers can catch the
package's failures with a single except clause while still distinguishing
geometric degeneracies from numerical ones.
"""

from __future__ import annotations

__all__ = [
    "RadialMotError",
    "InvalidRadii",
    "DegenerateRadii",
    "EqualRadii",
    "SingularConfiguration",
    "AllInfinite",
    "RootNotBracketed",
    "DensityError",
    "DensityFormatError",
    "DegenerateTertile",
    "InfeasibleCost",
    "SizeExceeded",
    "CertificationError",
    "GateFailed",
    "EpsMInfeasible",
    "JetNotPositive",
    "ViolationNotFound",
    "RegionEmpty",
]


class RadialMotError(Exception):
    """Base class for all errors raised by this package."""


class InvalidRadii(RadialMotError, ValueError):
    """Radii are not finite nonnegative numbers."""


class DegenerateRadii(RadialMotError, ValueError):
    """An operation that needs strictly ordered (or distinct) radii got ties."""


class EqualRadii(DegenerateRadii):
    """Two radii coincide where a pairwise quantity requires them distinct."""


class SingularConfiguration(RadialMotError):
    """Two particles sit at the same planar point, so derivatives blow up."""


class AllInfinite(RadialMotError):
    """Every angular configuration has a coincident pair (two radii are zero)."""


class RootNotBracketed(RadialMotError):
    """A one-dimensional solve found no sign change on its bracket.

    For implicit level curves this signals either a violated alignment
    condition or a resolution too coarse for the geometry.
    """


class DensityError(RadialMotError):
    """Base class for density construction and evaluation failures."""


class DensityFormatError(DensityError):
    """A density specification file violates the schema."""


class DegenerateTertile(DensityError):
    """A tertile boundary is not uniquely determined (flat CDF stretch)."""


class InfeasibleCost(RadialMotError):
    """Every feasible coupling of a discrete problem has infinite cost."""


class SizeExceeded(RadialMotError):
    """A brute-force solve was requested beyond its supported problem size."""


class CertificationError(RadialMotError):
    """An optimizer returned a solution that fails independent verification."""


class GateFailed(RadialMotError):
    """A scalar hypothesis gate (strict inequality) does not hold."""


class EpsMInfeasible(GateFailed):
    """No window parameters exist because the tertile ratio gate fails."""


class JetNotPositive(RadialMotError):
    """The realized bump profile dips to zero or below on its support."""


class ViolationNotFound(RadialMotError):
    """Window bisection exhausted its budget without an admissible pair."""


class RegionEmpty(RadialMotError):
    """The shrinking region iteration produced an empty admissible box."""
