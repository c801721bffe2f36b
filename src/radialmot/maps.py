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

import math
from dataclasses import dataclass, field

from .density import RadialDensity, Tertiles

__all__ = ["PATTERNS", "SeidlMap", "MapDiagnostics", "build_map", "check_map"]

PATTERNS = ("III", "DDI", "DID", "IDD")

# per-probe tolerances of check_map; the cycle error is relative to
# max(1, |x|), since far-tail probes sit at x in the hundreds
_CYCLE_TOL = 1e-9
_PUSHFORWARD_TOL = 1e-9


@dataclass(frozen=True)
class SeidlMap:
    """A branch map for one density and pattern; callable on points."""

    density: RadialDensity
    pattern: str
    tertiles: Tertiles

    def branch_index(self, x: float) -> int:
        if x < self.tertiles.s1:
            return 0
        if x < self.tertiles.s2:
            return 1
        return 2

    def image_mass(self, u: float, branch: int) -> float:
        """Image of mass coordinate u under the branch's letter formula."""
        t = u - branch / 3.0
        t = min(max(t, 0.0), 1.0 / 3.0)
        base = ((branch + 1) % 3) / 3.0
        if self.pattern[branch] == "I":
            v = base + t
        else:
            v = base + (1.0 / 3.0 - t)
        return min(max(v, 0.0), 1.0)

    def __call__(self, x: float) -> float:
        b = self.branch_index(x)
        u = self.density.cdf(x)
        return self.density.quantile(self.image_mass(u, b))

    def iterate(self, x: float, k: int) -> float:
        for _ in range(k):
            x = self(x)
        return x

    def orbit(self, x: float) -> tuple[float, float, float]:
        tx = self(x)
        return (x, tx, self(tx))

    def orbit_of_mass(self, m: float) -> tuple[float, float, float]:
        """Orbit of the first-tertile mass m in [0, 1/3]: the quantiles of
        m and of its two images under the letter formulas, with no cdf
        taken, so the endpoints m = 0 and m = 1/3 continue the orbit to
        the tertile boundaries."""
        u = self.image_mass(m, 0)
        q = self.density.quantile
        return (q(m), q(u), q(self.image_mass(u, 1)))


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
    violations: list[str] = []
    max_cycle = 0.0
    max_push = 0.0
    cycle_ok = True
    per_branch_pts: dict[int, list[tuple[float, float]]] = {0: [], 1: [], 2: []}

    for k in range(n_probe):
        p = (k + 0.5) / n_probe
        x = rho.quantile(p)
        b = min(int(3.0 * p), 2)
        tx = seidl_map(x)
        err_push = abs(rho.cdf(tx) - seidl_map.image_mass(p, b))
        max_push = max(max_push, err_push)
        err_cycle = abs(seidl_map.iterate(tx, 2) - x)
        max_cycle = max(max_cycle, err_cycle)
        if err_cycle > _CYCLE_TOL * max(1.0, abs(x)):
            cycle_ok = False
            violations.append(f"cycle error {err_cycle:.3e} at mass {p:.6f}")
        if err_push > _PUSHFORWARD_TOL:
            violations.append(f"pushforward error {err_push:.3e} at mass {p:.6f}")
        per_branch_pts[b].append((x, tx))

    monotone = []
    for b in range(3):
        pts = per_branch_pts[b]
        want_increasing = seidl_map.pattern[b] == "I"
        ok = True
        for (x0, t0), (x1, t1) in zip(pts, pts[1:]):
            if x1 <= x0:
                continue
            d = t1 - t0
            if want_increasing and d < -1e-12:
                ok = False
            if not want_increasing and d > 1e-12:
                ok = False
        if not ok:
            violations.append(
                f"branch {b} not monotone in direction {seidl_map.pattern[b]}"
            )
        monotone.append(ok)

    return MapDiagnostics(
        n_probes=n_probe,
        max_cycle_error=max_cycle,
        max_pushforward_error=max_push,
        monotone_ok=tuple(monotone),
        cycle_ok=cycle_ok,
        pushforward_ok=max_push <= _PUSHFORWARD_TOL,
        violations=tuple(violations),
    )
