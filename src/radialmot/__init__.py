"""Radial three-marginal Coulomb transport toolkit.

Three unit charges on the plane interact through the Coulomb cost; after
reduction by rotation invariance everything happens on radius triples
and two relative angles.  This package provides the angular cost and its
calculus, the alignment condition deciding when the minimizer is the
collinear configuration, tertile branch maps of one-dimensional radial
densities, a certified discrete three-marginal solver with
cyclical-monotonicity probes, and the constructive machinery that
produces densities whose optimal coupling is provably not a branch map.

Each submodule's ``__all__`` is the one list of its public names; the
package re-exports them all and its own ``__all__`` is their union.
"""

from . import costs, counterexample, density, density_io, errors, maps, minimize, mot
from .costs import *  # noqa: F403
from .counterexample import *  # noqa: F403
from .density import *  # noqa: F403
from .density_io import *  # noqa: F403
from .errors import *  # noqa: F403
from .maps import *  # noqa: F403
from .minimize import *  # noqa: F403
from .mot import *  # noqa: F403

__version__ = "0.1.0"

__all__ = [
    *costs.__all__,
    *counterexample.__all__,
    *density.__all__,
    *density_io.__all__,
    *errors.__all__,
    *maps.__all__,
    *minimize.__all__,
    *mot.__all__,
    "__version__",
]
