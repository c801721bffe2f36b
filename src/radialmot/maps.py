"""Tertile branch maps acting on a radial density.

Split the mass of a density into thirds at the tertile boundaries s1, s2.
A branch map sends each third onto the next one (cyclically) either
increasingly (letter I) or decreasingly (letter D), preserving mass.  In
CDF coordinates u = F(x), with b the tertile index of x and t = u - b/3
the offset inside its third, the image mass is

    I:  v = (b+1 mod 3)/3 + t
    D:  v = (b+1 mod 3)/3 + (1/3 - t)

and the mapped point is the quantile of v.  An orbit started at a
first-tertile mass m (``SeidlMap.orbit_of_mass``) applies the formulas to
masses only and takes the three quantiles, so it needs no CDF.  A
pattern is one letter per tertile; the four patterns with an even number
of D letters

    III, DDI, DID, IDD

are exactly those composing to the identity after three applications,
which is what makes them candidate optimal assignments for a symmetric
three-marginal problem.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .density import RadialDensity, Tertiles, _result

__all__ = ["PATTERNS", "SeidlMap", "MapDiagnostics", "build_map", "check_map"]

PATTERNS = ("III", "DDI", "DID", "IDD")

# per-probe tolerances of check_map; the cycle error is relative to
# max(1, |x|), since far-tail probes sit at x in the hundreds
_CYCLE_TOL = 1e-9
_PUSHFORWARD_TOL = 1e-9


@dataclass(frozen=True)
class SeidlMap:
    """A branch map for one density and pattern; callable on points,
    elementwise on arrays."""

    density: RadialDensity
    pattern: str
    tertiles: Tertiles

    def branch_index(self, x):
        """Tertile index of each x: 0 below s1, 1 below s2, else 2."""
        return np.searchsorted((self.tertiles.s1, self.tertiles.s2), x, "right")

    def image_mass(self, u, branch):
        """Image of each mass coordinate u under its branch's letter formula."""
        t = np.clip(np.asarray(u, dtype=float) - np.divide(branch, 3.0), 0.0, 1.0 / 3.0)
        base = np.remainder(np.add(branch, 1), 3) / 3.0
        increasing = np.take([c == "I" for c in self.pattern], branch)
        v = np.where(increasing, base + t, base + (1.0 / 3.0 - t))
        return _result(np.clip(v, 0.0, 1.0))

    def push(self, u, x):
        """Image of each point x, given the mass u below it."""
        return self.density.mass_quantile(self.image_mass(u, self.branch_index(x)))

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        return self.push(self.density.mass_below(x), x)

    def iterate(self, x, k: int):
        for _ in range(k):
            x = self(x)
        return x

    def orbit(self, x):
        tx = self(x)
        return (_result(x), tx, self(tx))

    def orbit_of_mass(self, m):
        """Orbit of each first-tertile mass m in [0, 1/3]: the quantiles of
        m and of its two images under the letter formulas, with no cdf
        taken, so the endpoints m = 0 and m = 1/3 continue the orbit to
        the tertile boundaries."""
        u = self.image_mass(m, 0)
        orbit = self.density.mass_quantile(np.stack([m, u, self.image_mass(u, 1)]))
        return tuple(_result(q) for q in orbit)


@dataclass(frozen=True)
class MapDiagnostics:
    """Probe-based verification record for one branch map."""

    n_probes: int
    max_cycle_error: float
    max_pushforward_error: float
    monotone_ok: tuple[bool, bool, bool]
    cycle_ok: bool
    pushforward_ok: bool
    violations: tuple[str, ...] = field(default_factory=tuple)

    @property
    def ok(self) -> bool:
        return self.cycle_ok and self.pushforward_ok and all(self.monotone_ok)


def build_map(density: RadialDensity, pattern: str) -> SeidlMap:
    """Construct the branch map for a pattern in PATTERNS."""
    if pattern not in PATTERNS:
        raise ValueError(
            f"unknown pattern {pattern!r}; expected one of {PATTERNS}"
        )
    return SeidlMap(density=density, pattern=pattern, tertiles=density.tertiles())


def check_map(seidl_map: SeidlMap, n_probe: int = 999) -> MapDiagnostics:
    """Verify the three defining identities of a branch map at probe points.

    Probes sit at masses (k + 1/2)/n_probe, so tertile boundaries are never
    probed exactly.  Checks, per probe: the three-fold cycle returns to the
    start within 1e-9 * max(1, |x|); the image's CDF value matches the
    branch formula within 1e-9; and the map is monotone on each tertile in
    its letter's direction.  max_cycle_error reports the absolute error.
    Raises ValueError for n_probe < 1, which would check nothing.
    """
    if n_probe < 1:
        raise ValueError(f"check_map needs at least 1 probe, got {n_probe}")
    rho = seidl_map.density
    p = (np.arange(n_probe) + 0.5) / n_probe
    x = rho.mass_quantile(p)
    b = np.minimum((3.0 * p).astype(int), 2)
    tx = seidl_map(x)
    u = rho.mass_below(tx)
    err_push = np.abs(u - seidl_map.image_mass(p, b))
    err_cycle = np.abs(seidl_map(seidl_map.push(u, tx)) - x)
    cycle_bad = err_cycle > _CYCLE_TOL * np.maximum(1.0, np.abs(x))
    push_bad = err_push > _PUSHFORWARD_TOL
    # a NaN error is never the maximum
    max_cycle = float(np.fmax.reduce(err_cycle, initial=0.0))
    max_push = float(np.fmax.reduce(err_push, initial=0.0))

    violations: list[str] = []
    for k in np.flatnonzero(cycle_bad | push_bad):
        if cycle_bad[k]:
            violations.append(f"cycle error {err_cycle[k]:.3e} at mass {p[k]:.6f}")
        if push_bad[k]:
            violations.append(f"pushforward error {err_push[k]:.3e} at mass {p[k]:.6f}")

    monotone = []
    for branch in range(3):
        # consecutive probes of the branch whose points strictly increase
        xs, ts = x[b == branch], tx[b == branch]
        d = np.diff(ts)[np.diff(xs) > 0.0]
        direction = 1.0 if seidl_map.pattern[branch] == "I" else -1.0
        ok = not np.any(direction * d < -1e-12)
        if not ok:
            violations.append(
                f"branch {branch} not monotone in direction {seidl_map.pattern[branch]}"
            )
        monotone.append(ok)

    return MapDiagnostics(
        n_probes=n_probe,
        max_cycle_error=max_cycle,
        max_pushforward_error=max_push,
        monotone_ok=tuple(monotone),
        cycle_ok=not np.any(cycle_bad),
        pushforward_ok=max_push <= _PUSHFORWARD_TOL,
        violations=tuple(violations),
    )
