"""One-variable radial theory: membership on jets, kernel-convexity,
monotone quotients, densities and the increasing/decreasing dichotomy.

Quotients and densities use the standard kernel normalization, so the
profile theta * K_p reports density theta.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DomainError
from .riesz import INF, KernelSpec, kernel
from .subeq import PropertyReport, fmt_param

JET_TOL = 1e-12
SECANT_TOL = 1e-9


@dataclass(frozen=True)
class OneVarJet:
    """Jet coordinates (radius t, first derivative lam, second derivative a)."""

    t: float
    lam: float
    a: float

    def __post_init__(self):
        if self.t <= 0.0:
            raise DomainError(f"jet radius must be positive, got {self.t}")


@dataclass
class RadialProfile:
    """Scalar profile psi on (0, r_max)."""

    fn: Callable
    r_max: float = INF
    name: str = ""

    def __call__(self, r):
        r = np.asarray(r, dtype=float)
        if not np.all((r > 0.0) & (r < self.r_max)):
            raise DomainError(f"radius outside (0, {self.r_max})")
        out = np.asarray(self.fn(r), dtype=float)
        return out if out.ndim else float(out)


# ---------------------------------------------------------------------------
# membership on jets
# ---------------------------------------------------------------------------


def _jet_tol(jet: OneVarJet) -> float:
    return JET_TOL * (1.0 + abs(jet.a) + abs(jet.lam) / jet.t)


def rp_up_membership(p: float, jet: OneVarJet) -> bool:
    """Increasing one-variable constraint: a + (p-1) lam / t >= 0, lam >= 0.

    At p = inf only the first-order half lam >= 0 remains.
    """
    tol = _jet_tol(jet)
    if math.isinf(p):
        return jet.lam >= -tol
    if p < 1.0:
        raise DomainError(f"p must be in [1, inf], got {p}")
    return jet.lam >= -tol and jet.a + (p - 1.0) * jet.lam / jet.t >= -tol


# ---------------------------------------------------------------------------
# kernel convexity and quotients
# ---------------------------------------------------------------------------


def quotients(values, radii, p: float) -> np.ndarray:
    """Monotone quotients (v_j - v_{j+1}) / (K(r_j) - K(r_{j+1})) of the
    values v_j at adjacent radii r_j; the one place they are computed."""
    values = np.asarray(values, dtype=float)
    k = np.asarray(kernel(KernelSpec(p=p), radii), dtype=float)
    return (values[:-1] - values[1:]) / (k[:-1] - k[1:])


def density_estimate(q) -> tuple[float, float, float]:
    """(theta, bracket, monotone_defect) from the quotients over strictly
    decreasing radii: the deepest quotient, its gap to the quotient one
    scale up, and the largest increase between adjacent quotients, which
    is 0 when they decrease with the radii as they must."""
    q = np.asarray(q, dtype=float)
    return (float(q[-1]), float(max(q[-2] - q[-1], 0.0)),
            float(np.max(q[1:] - q[:-1], initial=0.0)))


def density_radii(radii) -> np.ndarray:
    """The radii of a density estimate: strictly decreasing, at least
    three, positive and finite."""
    radii = np.asarray(radii, dtype=float)
    if radii.size < 3 or np.any(np.diff(radii) >= 0.0):
        raise DomainError("radii must be strictly decreasing, at least three")
    bad = radii[~(np.isfinite(radii) & (radii > 0.0))]
    if bad.size:
        raise DomainError(f"radius must be positive and finite, got {bad[0]}")
    return radii


def geometric_radii(r0: float, levels: int) -> np.ndarray:
    """The radius schedule r0 * 2^-j, j < levels, strictly decreasing."""
    return r0 * 0.5 ** np.arange(levels)


def kp_convexity_test(profile: RadialProfile, p: float, grid) -> PropertyReport:
    """Secant-slope monotonicity of psi as a function of s = K_p(r).

    Convexity in the pulled-back variable is what makes the monotone
    quotients (and hence densities) exist.  The slopes are the quotients
    over the ascending grid, so they must increase.
    """
    grid = np.sort(np.asarray(grid, dtype=float))
    if grid.size < 3:
        raise DomainError("need at least three grid radii")
    slopes = quotients(profile(grid), grid, p)
    worst = float(np.max(np.maximum(0.0, slopes[:-1] - slopes[1:]), initial=0.0))
    return PropertyReport(
        name="kp-convexity",
        sample_count=int(grid.size),
        worst_violation=worst,
        tolerance=SECANT_TOL,
        note=f"p={p:g}",
    )


def one_var_density(profile: RadialProfile, p: float, radii) -> tuple[float, float]:
    """Density estimate from the deepest quotient pair plus a monotone bracket.

    `radii` must be strictly decreasing; the bracket is the gap to the
    quotient one scale up (quotients decrease as both radii shrink, so
    no extrapolation is attempted).  Only the three deepest radii are read.
    """
    if math.isinf(p):
        raise DomainError("no density at p = inf")
    radii = density_radii(radii)[-3:]
    theta, bracket, _ = density_estimate(quotients(profile(radii), radii, p))
    return theta, bracket


# ---------------------------------------------------------------------------
# increasing / decreasing dichotomy
# ---------------------------------------------------------------------------

INCREASING = "increasing"
DECREASING_CONVEX = "decreasing-convex"
DECREASING_THEN_INCREASING = "decreasing-then-increasing"
NOT_SUBAFFINE_RADIAL = "not-subaffine-radial"


@dataclass(frozen=True)
class ProfileClass:
    kind: str
    breakpoint: float | None = None


def _secant_convex(values: np.ndarray, xs: np.ndarray, tol: float) -> bool:
    if values.size < 3:
        return True
    slopes = np.diff(values) / np.diff(xs)
    return bool(np.all(slopes[:-1] <= slopes[1:] + tol))


def classify_profile(profile: RadialProfile, grid) -> ProfileClass:
    """Sampled dichotomy: increasing, decreasing-and-convex, or
    decreasing-then-increasing with the grid breakpoint.

    Profiles matching none of the three patterns are reported as not
    subaffine-radial (a diagnostic, not an error).
    """
    grid = np.sort(np.asarray(grid, dtype=float))
    if grid.size < 4:
        raise DomainError("need at least four grid radii")
    v = np.asarray(profile(grid), dtype=float)
    tol = SECANT_TOL * (1.0 + float(np.abs(v).max()))
    diffs = np.diff(v)
    if np.all(diffs >= -tol):
        return ProfileClass(INCREASING)
    if np.all(diffs <= tol):
        if _secant_convex(v, grid, tol):
            return ProfileClass(DECREASING_CONVEX)
        return ProfileClass(NOT_SUBAFFINE_RADIAL)
    # candidate breakpoint at the sampled minimum
    i_min = int(np.argmin(v))
    dec, inc = diffs[:i_min], diffs[i_min:]
    if np.all(dec <= tol) and np.all(inc >= -tol):
        if _secant_convex(v[: i_min + 1], grid[: i_min + 1], tol):
            return ProfileClass(DECREASING_THEN_INCREASING, breakpoint=float(grid[i_min]))
        return ProfileClass(NOT_SUBAFFINE_RADIAL)
    return ProfileClass(NOT_SUBAFFINE_RADIAL)


# ---------------------------------------------------------------------------
# stock profiles
# ---------------------------------------------------------------------------


def kernel_profile(p: float, theta: float = 1.0) -> RadialProfile:
    spec = KernelSpec(p=p)
    return RadialProfile(
        fn=lambda r: theta * np.asarray(kernel(spec, r)),
        name=f"{fmt_param(theta)}*K_{fmt_param(p)}",
    )


def profile_from_callable(fn: Callable) -> RadialProfile:
    return RadialProfile(fn=fn)
