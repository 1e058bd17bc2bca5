"""One-variable radial theory: the Riesz kernels, membership on jets,
kernel-convexity, monotone quotients, densities and the
increasing/decreasing dichotomy.

Kernels come in two normalizations: the `standard` one (plain powers /
log) and the `barred` one whose derivative is r^(1-p).  Quotients and
densities use the standard one, so the profile theta * K_p reports
density theta.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DomainError
from .linalg import random_unit_vector
from .subeq import PropertyReport, Subequation, fmt_param, worst_case

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
    """Scalar profile psi on (0, r_max).  Every reading of the profile
    goes through the call, which refuses a radius where psi is not finite."""

    fn: Callable
    r_max: float = math.inf
    name: str = ""

    def __call__(self, r):
        r = np.asarray(r, dtype=float)
        if not np.all((r > 0.0) & (r < self.r_max)):
            raise DomainError(f"radius outside (0, {self.r_max})")
        out = np.asarray(self.fn(r), dtype=float)
        bad = ~np.isfinite(out)
        if bad.any():
            radius = np.broadcast_to(r, out.shape)[bad][0]
            raise DomainError(f"the profile {self.name or 'psi'} at radius {radius:.6g} "
                              f"is not finite")
        return out if out.ndim else float(out)


# ---------------------------------------------------------------------------
# kernels
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class KernelSpec:
    p: float
    normalization: str = "standard"

    def __post_init__(self):
        if not (1.0 <= self.p < math.inf):
            raise DomainError(f"kernel needs 1 <= p < inf, got {self.p}")
        if self.normalization not in ("standard", "barred"):
            raise DomainError(f"unknown normalization {self.normalization!r}")


def _check_positive(t):
    t = np.asarray(t, dtype=float)
    if not np.all(t > 0.0):  # NaN fails too
        raise DomainError("kernel arguments must be positive")
    return t


def _normalized(spec: KernelSpec, weight: float, t: np.ndarray) -> np.ndarray:
    """weight * kernel from t = log r (p = 2) or r^(2-p), in place: the sign
    of the standard kernel for p > 2 goes into the weight, as -w x has the
    floats of w (-x)."""
    p = spec.p
    if p != 2.0 and spec.normalization == "barred":
        t /= 2.0 - p
    t *= -weight if p > 2.0 and spec.normalization == "standard" else weight
    return t


def _weighted_kernel(spec: KernelSpec, weight: float, r: np.ndarray) -> np.ndarray:
    """`weighted_kernel` without its error state, for radii r > 0."""
    if spec.p == 2.0:
        np.log(r, out=r)
    else:
        r **= 2.0 - spec.p
    return _normalized(spec, weight, r)


def weighted_kernel(spec: KernelSpec, weight: float, r: np.ndarray) -> np.ndarray:
    """weight * kernel(spec, r) for radii r >= 0, unchecked, computed in
    place on the float array r, which it returns.  `**=` keeps the
    scalar-exponent fast paths of `**` (sqrt, reciprocal), so the floats are
    those of `r ** (2 - p)`.  r = 0 gives the kernel's value at 0, without
    a warning: 0 when p < 2, else -inf (NaN for a zero weight)."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return _weighted_kernel(spec, weight, r)


def weighted_kernel_of_square(spec: KernelSpec, weight: float, q: np.ndarray,
                              log_factor: np.ndarray | None = None) -> np.ndarray:
    """weight * kernel(spec, sqrt(q)) for squared distances q >= 0,
    unchecked, computed in place on the float array q, which it returns:
    with L = ln q, w L / 2 at p = 2, else exp(a) with a = (2 - p) L / 2,
    then the normalization and signed weight of `weighted_kernel`.  One
    log and one exp, no sqrt and no pow.  Given `log_factor` (an array
    that broadcasts against q), the result is multiplied by its exp, which
    for p != 2 is added to a before the exp: a kernel that overflows times
    a factor that underflows still gives their finite product.

    For the q given, the result is within (1 + |a|) eps relative of
    w K(sqrt(q)) (eps = 2^-52; the rounding of a costs about |a| eps), and
    at p = 2 within |w| eps (1 + |L| / 2) absolute.  q = 0 gives the
    kernel's value at 0, without a warning: 0 when p < 2, else -inf (NaN
    for a zero weight).
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        np.log(q, out=q)
        if spec.p == 2.0:
            q *= 0.5 * weight
            if log_factor is not None:
                q *= np.exp(log_factor)
            return q
        q *= 0.5 * (2.0 - spec.p)
        if log_factor is not None:
            q += log_factor
        np.exp(q, out=q)
        return _normalized(spec, weight, q)


def kernel(spec: KernelSpec, t):
    """Increasing radial kernel; scalar in, scalar out (arrays broadcast)."""
    out = _weighted_kernel(spec, 1.0, _check_positive(t).copy())  # t > 0: no error state
    return out if out.ndim else float(out)


def kernel_deriv1(spec: KernelSpec, t):
    t = _check_positive(t)
    p = spec.p
    if p == 2.0:
        out = 1.0 / t
    elif spec.normalization == "standard":
        out = abs(2.0 - p) * t ** (1.0 - p)
    else:
        out = t ** (1.0 - p)
    return out if out.ndim else float(out)


def kernel_deriv2(spec: KernelSpec, t):
    t = _check_positive(t)
    p = spec.p
    if p == 2.0:
        out = -1.0 / (t * t)
    elif spec.normalization == "standard":
        out = abs(2.0 - p) * (1.0 - p) * t ** (-p)
    else:
        out = (1.0 - p) * t ** (-p)
    return out if out.ndim else float(out)


def kernel_hessian(theta: float, p: float, x) -> np.ndarray:
    """Hessian of theta * K_barred_p(|x|): theta |x|^-p (P_perp - (p-1) P)."""
    x = np.asarray(x, dtype=float).reshape(-1)
    r = float(np.linalg.norm(x))
    if r == 0.0:
        raise DomainError("kernel Hessian undefined at the origin")
    e = x / r
    pe = np.outer(e, e)
    return theta * r ** (-p) * (np.eye(x.size) - pe - (p - 1.0) * pe)


def radial_harmonic_check(f: Subequation, theta: float, p: float, radii,
                          seed=0) -> PropertyReport:
    """Kernel Hessians in 4 random directions must sit on the boundary of F
    at every radius, up to 1e-8."""
    if theta < 0:
        raise DomainError("theta must be >= 0")
    if not math.isfinite(p):
        raise DomainError("needs a finite characteristic")
    rng = np.random.default_rng(seed)
    hessians = [kernel_hessian(theta, p, r * random_unit_vector(f.n, rng))
                for r in radii for _ in range(4)]
    stack = np.reshape(hessians, (-1, f.n, f.n))
    worst = worst_case(np.abs(f.margin(stack)))
    return PropertyReport(
        name="radial-harmonic",
        sample_count=len(hessians),
        worst_violation=worst,
        tolerance=1e-8,
        note=f"theta={theta:g}, p={p:g}",
    )


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
    values v_j at adjacent radii r_j; the one place they are computed.
    `values` is the array of the v_j, a stack (..., k) of such curves over
    the same k radii, which shares one kernel evaluation, or a profile, read
    at the radii only after the kernel: a radius where the kernel overflows
    is refused as such, and so is a quotient that is not finite, say one
    that overflows between two tiny radii (the first in row-major order)."""
    radii = np.asarray(radii, dtype=float)
    k = kernel(KernelSpec(p=p), radii)
    if not all(map(math.isfinite, k.tolist())):
        r = radii[~np.isfinite(k)][0]
        raise DomainError(f"the kernel K_{fmt_param(p)} at radius {r:.6g} overflows")
    values = np.asarray(values(radii) if callable(values) else values, dtype=float)
    with np.errstate(all="ignore"):  # a non-finite quotient is refused below
        q = (values[..., :-1] - values[..., 1:]) / (k[:-1] - k[1:])
    bad = ~np.isfinite(q)
    if bad.any():
        j = int(bad.argmax()) % q.shape[-1]
        raise DomainError(f"the quotient over the radii {radii[j]:.6g} and {radii[j + 1]:.6g} "
                          f"is not finite")
    return q


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
    slopes = quotients(profile, grid, p)
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
    radii = density_radii(radii)[-3:]
    theta, bracket, _ = density_estimate(quotients(profile, radii, p))
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
