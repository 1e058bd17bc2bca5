"""Scalar fields, spherical/volume averages, tangential flows, densities
and their cross-relations, plus the built-in example fields.

Averages use a seeded low-discrepancy sphere point set shared across all
radii of a run.  Sharing the point set makes quotients of exactly
scale-homogeneous fields exact (the quadrature error cancels), and the
reported noise bound of M, S and V alike comes from comparing against the
first half of the sample.

Every average (M, S and V, scalar or curve) comes from one sweep,
`average_curves` over `_shell_rows`: after checking each radius, it
evaluates every shell the request needs once, in blocks of at most
`SHELL_BLOCK` values -- the curve radii for M and S, then the node
radii behind V (`_volume_ladder`).  Shells come from one evaluator per call,
`radii -> (k, m)` values `values(x0 + s w)` over the m unit points w, or
from the field's faster `shells` hook (the kernel sums).  M is the
field's closed-form max, checked against the sampled maximum of its
shell, or else that sampled maximum; the kernel sums have a closed form
when their centres lie on one ray from x0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field
from functools import lru_cache
from typing import Callable, Sequence

import numpy as np

from ._numerics import gauss_jacobi, ndtri, sobol
from .errors import DomainError, NumericalError
from .linalg import row_norms
from .radial import (KernelSpec, density_estimate, density_radii, geometric_radii, kernel,
                     kernel_hessian, quotients, weighted_kernel, weighted_kernel_of_square)
from .subeq import PropertyReport, fmt_param, require_tol

CLIP_FLOOR = -1e12
MAX_CLIPPED_FRACTION = 1e-3
# nodes of the volume ladder in the innermost ball and per annulus
JACOBI_NODES = 32
ANNULUS_NODES = 8
# values per block of sphere shells: bounds their arrays
SHELL_BLOCK = 1 << 16
# sphere points per set, 16 times the largest default: 2^20 points at n = 16
# peak at about 165 MB of RSS while they are drawn (the finished set is 128 MiB)
QUAD_SIZE_MAX = 1 << 20
# sphere points drawn per block: bounds the draw's temporaries, so a set
# peaks at little more than its own array
QUAD_BLOCK = 1 << 10
# relative radius step of the backward difference behind the mass density
MASS_FD_STEP = 1e-3


def unit_ball_volume(k: float) -> float:
    """Volume of the unit ball in dimension k (real k >= 0 allowed)."""
    if k < 0:
        raise DomainError("dimension must be >= 0")
    return math.pi ** (k / 2.0) / math.gamma(k / 2.0 + 1.0)


def sphere_surface_area(n: int) -> float:
    """Surface area of the unit sphere in R^n."""
    return 2.0 * math.pi ** (n / 2.0) / math.gamma(n / 2.0)


def harnack_constant(n: int) -> float:
    """1 / phi(1/e) with phi(lam) = (1 - lam) / (1 + lam)^(n-1)."""
    lam = 1.0 / math.e
    return (1.0 + lam) ** (n - 1) / (1.0 - lam)


@lru_cache(maxsize=32)
def harnack_sup_constant(p: float, n: int) -> float:
    """Best constant in the two-sided max/spherical density comparison."""
    lams = np.linspace(1e-6, 1.0 - 1e-6, 20001)
    phi = (1.0 - lams) / (1.0 + lams) ** (n - 1)
    if p > 2.0:
        c = float(np.max(lams ** (p - 2.0) * phi))
    elif p < 2.0:
        psi = 1.0 + (1.0 + lams) ** (n - 1) / (1.0 - lams) * (lams ** (2.0 - p) - 1.0)
        c = float(np.max(psi))
    else:
        return 1.0
    if c <= 0.0:
        raise NumericalError("comparison constant came out non-positive")
    return 1.0 / c


# ---------------------------------------------------------------------------
# sphere quadrature
# ---------------------------------------------------------------------------


def default_quad_size(n: int) -> int:
    """Sphere points per shell: 4096 up to n = 4, doubling at n = 5, 9 and 13.
    Beyond n = 16 the Sobol table refuses the dimension."""
    return 4096 if n <= 4 else 16384 if n <= 8 else 32768 if n <= 12 else 65536


class SphereQuad:
    """Seeded low-discrepancy point set on the unit sphere, equal weights.

    Points come from a scrambled Sobol sequence mapped through the
    inverse Gaussian CDF and normalized.  The first half of the set is,
    bit for bit, the set of half the size and the same seed, which gives
    the doubling self-test behind the reported noise bounds.

    The set is drawn into its preallocated array in blocks of at most
    `QUAD_BLOCK` points, each from its own Sobol index range; every
    operation is per point, so the floats are those of one full-range draw.
    """

    def __init__(self, n: int, size: int | None = None, seed: int = 0):
        if n < 2:
            raise DomainError("sphere quadrature needs n >= 2")
        self.n = n
        self.size = default_quad_size(n) if size is None else int(size)
        if self.size < 8:
            raise DomainError("quadrature size too small")
        if self.size & (self.size - 1):
            raise DomainError(f"quadrature size must be a power of two (Sobol balance), "
                              f"got {self.size}")
        if self.size > QUAD_SIZE_MAX:
            raise DomainError(f"quadrature size must be at most 2^20, 16 times the largest "
                              f"default, got {self.size}")
        self.seed = int(seed)
        self.points = np.empty((self.size, n))
        for start in range(0, self.size, QUAD_BLOCK):
            stop = min(start + QUAD_BLOCK, self.size)
            u = np.clip(sobol(n, stop, self.seed, start), 1e-15, 1.0 - 1e-15)
            g = ndtri(u)
            norms = row_norms(g)
            norms[norms == 0.0] = 1.0
            np.divide(g, norms[:, None], out=self.points[start:stop])


@lru_cache(maxsize=32)
def sphere_quad(n: int, size: int | None = None, seed: int = 0) -> SphereQuad:
    return SphereQuad(n, size, seed)


def _volume_ladder(n: int, p: float, radii: np.ndarray, inner: int, per_annulus: int):
    """(shells, combine): the node radii of V(r_j) over the radii r_0 > r_1
    > ..., and the map from their sphere means to V.  V(r_min) = n int_0^1
    rho^(n+1-p) [rho^(p-2) S(rho r_min)] drho by the Gauss-Jacobi rule for
    rho^(n+1-p), exact for the centred kernel up to p < n + 2; then V(r_j)
    = (r_{j+1}/r_j)^n V(r_{j+1}) + n r_j^-n int t^(n-1) S(t) dt over
    [r_{j+1}, r_j] by Gauss-Legendre (Jacobi for rho^0); each rule summed
    by `math.fsum`.  `average_curves` also takes the ladder of half the
    nodes on the two deepest radii: the gap of its deepest quotient to the
    full ladder's is the curve's `quadrature_error`."""
    rho, w_inner = gauss_jacobi(inner, n + 1.0 - p)
    x, w = gauss_jacobi(per_annulus, 0.0)
    steps = radii[1:] / radii[:-1]  # r_{j+1} / r_j
    tau = steps[:, None] + (1.0 - steps[:, None]) * x  # annulus node t / r_j
    shells = np.concatenate([rho * radii[-1], (radii[:-1, None] * tau).ravel()])
    inner_weights = n * w_inner * rho ** (p - 2.0)
    annulus_weights = n * (1.0 - steps[:, None]) * w * tau ** (n - 1)

    def combine(means):
        annuli = means[inner:].reshape(-1, per_annulus)
        volume = [math.fsum(inner_weights * means[:inner])]
        for j in range(radii.size - 2, -1, -1):
            volume.append(steps[j] ** n * volume[-1] + math.fsum(annulus_weights[j] * annuli[j]))
        return np.array(volume[::-1])

    return shells, combine


# ---------------------------------------------------------------------------
# scalar fields
# ---------------------------------------------------------------------------


@dataclass
class ScalarField:
    """Evaluable function on a ball, with declared singular structure.

    ``values`` maps an (m, n) array of points to m values; a non-finite
    value (-inf, or NaN where a zero weight meets a pole) marks a hit on
    the singular set.  ``analytic_max(x0, r)``, when set, returns the
    exact spherical maximum, or None where it has no closed form at
    (x0, r); the maximum is then sampled.
    ``shells(x0, points)``, when set, returns ``radii -> (k, m)`` values,
    row i ``values(x0 + radii[i] * points)`` for the m unit ``points``,
    faster than ``values``; every sphere average reads its shells through
    it, at most `SHELL_BLOCK` values per call.  The array it returns may be
    read-only or a broadcast view, and is valid only until the next call,
    which may reuse its memory: its consumers only read it, each before
    they ask for the next.
    """

    n: int
    values: Callable
    name: str = "field"
    singular_points: tuple = ()
    singular_distance: Callable | None = None
    analytic_max: Callable | None = None
    shells: Callable | None = None

    def at(self, x) -> float:
        x = np.asarray(x, dtype=float).reshape(1, -1)
        return float(self.values(x)[0])

    def distance_to_singular(self, x) -> float:
        """Distance to the nearer of `singular_points` and `singular_distance`."""
        x = np.asarray(x, dtype=float).reshape(-1)
        dist = math.inf
        if self.singular_distance is not None:
            dist = float(self.singular_distance(x.reshape(1, -1))[0])
        if self.singular_points:
            pts = np.asarray(self.singular_points, dtype=float)
            dist = min(dist, float(row_norms(pts - x[None, :]).min()))
        return dist


def _clipped(vals: np.ndarray):
    """vals with each non-finite value, a hit on the singular set, set to
    CLIP_FLOOR, and the number of hits (per row of a 2-D array)."""
    bad = ~np.isfinite(vals)
    if bad.any():
        vals = np.where(bad, CLIP_FLOOR, vals)
    return vals, bad.sum(axis=-1)


# ---------------------------------------------------------------------------
# averages
# ---------------------------------------------------------------------------


def _shell_evaluator(field: ScalarField, x0: np.ndarray, points: np.ndarray) -> Callable:
    """radii -> (k, m) field values at x0 + s * points, one row per radius s:
    the field's `shells` hook, or else `values` on each shell's points."""
    if field.shells is not None:
        return field.shells(x0, points)
    return lambda radii: np.stack([field.values(x0[None, :] + s * points) for s in radii])


def _max_from_shell(field: ScalarField, x0: np.ndarray, r: float, vals: np.ndarray):
    """(M, leading-half M) of u about x0 at radius r from the clipped shell
    values: the field's closed form for both, which the sampled maximum
    must not exceed, or, where it has none, the maxima of the sample and
    of its leading half, whose gap the half-set noise bound reads."""
    exact = None if field.analytic_max is None else field.analytic_max(x0, r)
    sampled = float(vals.max())
    if exact is None:
        return sampled, float(vals[:vals.size // 2].max())
    exact = float(exact)
    if sampled > exact + 1e-6 * (1.0 + abs(exact)):
        raise NumericalError(f"sampled spherical max {sampled} exceeds closed form {exact}")
    return exact, exact


def _shell_rows(field: ScalarField, x0: np.ndarray, quad: SphereQuad, radii: np.ndarray,
                maxima: int):
    """(means, leading-half means, hits, maxima) of the sphere shells about
    x0 of the given radii, evaluated once each in one pass of blocks of at
    most SHELL_BLOCK values; the maxima are the (M, leading-half M) pairs
    (`_max_from_shell`) of the first `maxima` shells only, and the leading
    half of the points is the set of half the size.  A non-finite value
    makes its row sum non-finite, so the values are scanned and clipped
    only in a block with a non-finite row sum.  A shell whose row sum still
    overflows after clipping, or whose samples are all non-finite, is
    refused."""
    evaluate = _shell_evaluator(field, x0, quad.points)
    size, half = quad.size, quad.size // 2
    means, halves = np.empty(radii.size), np.empty(radii.size)
    hits = np.zeros(radii.size, dtype=int)
    tops = []
    step = max(1, SHELL_BLOCK // size)
    for lo in range(0, radii.size, step):
        block = radii[lo:lo + step]
        rows = slice(lo, lo + block.size)
        vals = evaluate(block)
        sums = vals.sum(axis=1)
        if not np.isfinite(sums).all():
            vals, hits[rows] = _clipped(vals)
            sums = vals.sum(axis=1)
            refused = ~np.isfinite(sums) | (hits[rows] == size)
            if refused.any():
                i = refused.argmax()
                if np.isfinite(sums[i]):
                    raise DomainError(f"every sphere sample at radius {block[i]:.6g} is "
                                      f"non-finite (float overflow or the singular set)")
                raise DomainError(f"the sum of the sphere samples at radius {block[i]:.6g} "
                                  f"overflows")
        means[rows] = sums / size
        halves[rows] = vals[:, :half].sum(axis=1) / half
        tops += [_max_from_shell(field, x0, r, row)
                 for r, row in zip(block[:max(0, maxima - lo)], vals)]
    return means, halves, hits, tops


@dataclass
class AverageCurve:
    kind: str  # "M" | "S" | "V"
    radii: np.ndarray
    values: np.ndarray
    clipped_fraction: float = 0.0
    # the same curve on the leading half of the points (M: its closed form, if any)
    half_values: np.ndarray | None = None
    # V: the gap of the deepest quotient to the half-order ladder's; 0 for M and S
    quadrature_error: float = 0.0

    def to_csv_rows(self, p: float):
        """(r, value, quotient to the next radius) rows; the last radius has
        no quotient."""
        quots = [*quotients(self.values, self.radii, p), ""]
        return [(float(r), float(v), q) for r, v, q in zip(self.radii, self.values, quots)]


def average_curves(field: ScalarField, kinds: Sequence[str], x0, radii,
                   quad: SphereQuad | None = None, p: float | None = None) -> dict:
    """kind -> AverageCurve, from one `_shell_rows` sweep after checking
    that each radius is positive and finite: M and S share the shell at
    each radius, and V is the `_volume_ladder` of their means (and half
    means)."""
    for kind in kinds:
        if kind not in ("M", "S", "V"):
            raise DomainError(f"unknown average kind {kind!r}")
    x0 = np.asarray(x0, dtype=float).reshape(-1)
    if x0.size != field.n or not np.all(np.isfinite(x0)):
        raise DomainError(f"center must be {field.n} finite coordinates, got {x0.tolist()}")
    radii = np.asarray(radii, dtype=float)
    for r in radii:
        if not 0.0 < r < math.inf:
            raise DomainError(f"radius must be positive and finite, got {r}")
    quad = quad or sphere_quad(field.n)
    k = radii.size if {"M", "S"} & set(kinds) else 0  # the curve shells lead the sweep
    shells = [radii[:k]]
    if "V" in kinds:
        _check_volume_density(kinds, p, field.n)
        if np.any(np.diff(radii) >= 0.0):
            raise DomainError("a volume average needs strictly decreasing radii")
        ladder, combine = _volume_ladder(field.n, p, radii, JACOBI_NODES, ANNULUS_NODES)
        coarse, combine_coarse = _volume_ladder(field.n, p, radii[-2:], JACOBI_NODES // 2,
                                                ANNULUS_NODES // 2)
        shells += [ladder, coarse]
    means, halves, hits, maxima = _shell_rows(field, x0, quad, np.concatenate(shells),
                                              k if "M" in kinds else 0)

    def curve(kind, values, half_values, nhits):
        clipped = int(nhits.sum()) / (nhits.size * quad.size) if nhits.size else 0.0
        return AverageCurve(kind, radii, np.asarray(values), clipped, np.asarray(half_values))

    out = {}
    for kind in kinds:
        if kind == "M":
            values, half_values = np.array(maxima).T
            out[kind] = AverageCurve(kind, radii, values, half_values=half_values)
        elif kind == "S":
            out[kind] = curve(kind, means[:k], halves[:k], hits[:k])
        else:
            end = k + ladder.size
            values = combine(means[k:end])
            gap = (quotients(values[-2:], radii[-2:], p)
                   - quotients(combine_coarse(means[end:]), radii[-2:], p))
            out[kind] = curve(kind, values, combine(halves[k:end]), hits[k:])
            out[kind].quadrature_error = float(np.abs(gap).max(initial=0.0))
    return out


def spherical_max(field: ScalarField, x0, r: float, quad: SphereQuad | None = None) -> float:
    """Spherical maximum M(u, x0; r): the field's closed form when it has
    one, checked against the sampled maximum; otherwise the sampled
    maximum, which is at most the true supremum."""
    return float(average_curves(field, ("M",), x0, [r], quad)["M"].values[0])


# ---------------------------------------------------------------------------
# tangential flow
# ---------------------------------------------------------------------------


def tangent_flow(field: ScalarField, p: float, r: float,
                 quad: SphereQuad | None = None) -> ScalarField:
    """One step of the tangential flow at scale r.

    u_r(x) = r^(p-2) (u(rx) - c) with c = 0 for p > 2, c = M(u, r) for
    p = 2, where the factor is exactly 1, and c = u(0) for p < 2, read
    from the field, which must be finite there.  The closed-form max
    follows the same formula.
    """
    if not 0.0 < r < math.inf:
        raise DomainError(f"flow scale must be positive and finite, got {r}")
    if math.isinf(p):
        raise DomainError("flow undefined at p = inf")
    n = field.n
    factor = r ** (p - 2.0)
    if p == 2.0:
        offset = spherical_max(field, np.zeros(n), r, quad)
    elif p < 2.0:
        offset = field.at(np.zeros(n))
        if not math.isfinite(offset):
            raise DomainError("flow with p < 2 needs a finite value at the origin")
    else:
        offset = 0.0

    base_values = field.values

    def values(pts):
        return factor * (base_values(r * np.asarray(pts, dtype=float)) - offset)

    singular = tuple(np.asarray(s, dtype=float) / r for s in field.singular_points)
    sing_dist = None
    if field.singular_distance is not None:
        base_dist = field.singular_distance

        def sing_dist(pts):
            return base_dist(np.asarray(pts, dtype=float) * r) / r

    analytic = None
    if field.analytic_max is not None:
        base_max = field.analytic_max

        def analytic(x0, rr):
            base = base_max(x0 * r, rr * r)
            return None if base is None else factor * (base - offset)

    return ScalarField(
        n=n,
        values=values,
        name=f"flow({field.name},p={fmt_param(p)},r={fmt_param(r)})",
        singular_points=singular,
        singular_distance=sing_dist,
        analytic_max=analytic,
    )


def flow_invariance_defect(field: ScalarField, p: float,
                           quad: SphereQuad | None = None) -> float:
    """sup |u_r - u| over the spheres of radius 0.5, 1 and 2, for the
    scales r = 0.5 and 2; 0 for exact fixpoints."""
    quad = quad or sphere_quad(field.n, size=256, seed=3)
    shells = [shell * quad.points for shell in (0.5, 1.0, 2.0)]
    base = [_clipped(field.values(pts))[0] for pts in shells]
    worst = 0.0
    for s in (0.5, 2.0):
        flowed = tangent_flow(field, p, s, quad)
        for pts, a in zip(shells, base):
            b, _ = _clipped(flowed.values(pts))
            worst = max(worst, float(np.abs(a - b).max()))
    return worst


# ---------------------------------------------------------------------------
# densities
# ---------------------------------------------------------------------------


@dataclass
class DensityReport:
    p: float
    n: int
    center: np.ndarray
    radii: np.ndarray
    theta: dict          # kind -> estimate
    bracket: dict        # kind -> monotone bracket
    quotients: dict      # kind -> per-scale quotient list
    residuals: dict      # named cross-relation residuals
    harnack_c: float
    noise_bound: float
    clipped_fraction: float
    monotone_defect: float
    monotone_ok: bool
    notes: list = dc_field(default_factory=list)


def default_radii() -> np.ndarray:
    return geometric_radii(1.0, 6)


def _density_radii(radii) -> np.ndarray:
    """Given or default radii, strictly decreasing and at least three."""
    return density_radii(default_radii() if radii is None else radii)


def _check_volume_density(kinds: Sequence[str], p: float | None, n: int) -> None:
    if "V" in kinds and (p is None or not p < n + 2.0):  # the kernel's ball average diverges
        raise DomainError(f"no volume density is defined at p >= n + 2 = {n + 2} "
                          f"or without p, got p = {p}")


def densities(field: ScalarField, x0, p: float, radii=None,
              quad: SphereQuad | None = None,
              kinds: Sequence[str] = ("M", "S", "V")) -> DensityReport:
    """Monotone-quotient density estimates for the requested averages.

    Each estimate is `radial.density_estimate` of the curve's quotients:
    the deepest quotient with the gap to the previous scale as bracket.
    Cross-relations between the spherical and volume densities (and the
    max/spherical comparison) are reported as residuals; quotient
    monotonicity failures are flagged rather than raised, since they
    usually mean the field is not subharmonic for the intended
    constraint or the quadrature is too coarse.

    Each sphere shell is evaluated once: the M and S curves share the
    shell at each radius, and the noise bound is the largest gap between
    the quotients of a curve and of its leading half, over every kind
    (0 for a closed-form M).  The V bracket adds the curve's
    `quadrature_error`.  The report keeps the curves as its `curves`
    attribute, which is not a field, so the JSON report leaves them out.
    """
    if math.isinf(p):
        raise DomainError("no density is defined at p = inf")
    x0 = np.asarray(x0, dtype=float).reshape(-1)
    radii = _density_radii(radii)
    curves = average_curves(field, kinds, x0, radii, quad, p)
    quots = {kind: quotients(curve.values, radii, p) for kind, curve in curves.items()}
    clipped = max((curve.clipped_fraction for curve in curves.values()), default=0.0)
    if clipped > MAX_CLIPPED_FRACTION:
        raise NumericalError(
            f"clipped sample fraction {clipped:.2e} exceeds {MAX_CLIPPED_FRACTION:.0e}"
        )

    # noise bound via the half sample
    noise = max((float(np.abs(quots[kind] - quotients(curve.half_values, radii, p)).max())
                 for kind, curve in curves.items()), default=0.0)

    theta, bracket = {}, {}
    mono_defect = 0.0
    tol_mono = 1e-6 + noise
    for kind in kinds:
        theta[kind], bracket[kind], defect = density_estimate(quots[kind])
        bracket[kind] += curves[kind].quadrature_error
        mono_defect = max(mono_defect, defect)

    residuals = {}
    notes = []
    n = field.n
    if "S" in kinds and "V" in kinds:
        predicted = (n - p + 2.0) / n * theta["V"]  # the factor is exactly 1 at p = 2
        residuals["spherical_vs_volume"] = abs(theta["S"] - predicted) / max(
            abs(theta["S"]), 1e-30
        )
    if "M" in kinds and "S" in kinds:
        if p == 2.0:
            residuals["max_vs_spherical"] = abs(theta["M"] - theta["S"]) / max(
                abs(theta["M"]), 1e-30
            )
        else:
            lo, hi = (theta["M"], theta["S"]) if p > 2.0 else (theta["S"], theta["M"])
            residuals["comparison_lower"] = max(0.0, lo - hi)
            if p > 1.0:
                # at p = 1 the upper comparison fails even for linear fields
                c = harnack_sup_constant(p, n)
                residuals["comparison_upper"] = max(0.0, hi - c * lo)
                notes.append(f"comparison constant C(p,n) = {c:.6g}")

    mono_ok = mono_defect <= tol_mono
    if not mono_ok:
        notes.append("not F-subharmonic or quadrature too coarse")
    report = DensityReport(
        p=p,
        n=n,
        center=x0,
        radii=radii,
        theta=theta,
        bracket=bracket,
        quotients=quots,
        residuals=residuals,
        harnack_c=harnack_constant(n),
        noise_bound=noise,
        clipped_fraction=clipped,
        monotone_defect=mono_defect,
        monotone_ok=mono_ok,
        notes=notes,
    )
    report.curves = curves
    return report


# ---------------------------------------------------------------------------
# mass density
# ---------------------------------------------------------------------------


@dataclass
class MassDensityReport:
    p: float
    n: int
    radii: np.ndarray
    ball_masses: np.ndarray
    theta_mass: float
    bracket: float
    spherical_residual: float
    warning: str = ""


def mass_density(field: ScalarField, x0, p: float, radii=None,
                 quad: SphereQuad | None = None) -> MassDensityReport:
    """Mass density of the distributional Laplacian via the flux formula.

    The ball mass is mu(B_r) = |S^(n-1)| r^(n-1) dS/dr with S the
    spherical average, dS/dr a backward difference of relative step
    MASS_FD_STEP; the (n-p)-density divides by alpha(n-p) r^(n-p).
    The spherical residual compares against the universal constant
    linking the spherical and mass densities.
    """
    n = field.n
    if n < 3:
        raise DomainError("mass density needs n >= 3")
    if math.isinf(p):
        raise DomainError("mass density needs finite p")
    k = n - p
    if k < 0:
        raise DomainError("mass density needs p <= n")
    radii = _density_radii(radii)
    both = np.concatenate([radii, radii * (1.0 - MASS_FD_STEP)])
    s_curve, s_lo = np.split(average_curves(field, ("S",), x0, both, quad)["S"].values, 2)
    deriv = (s_curve - s_lo) / (radii * MASS_FD_STEP)
    masses = sphere_surface_area(n) * radii ** (n - 1) * deriv

    alpha = unit_ball_volume(k)
    estimates = masses / (alpha * radii**k)
    theta_mass = float(estimates[-1])
    tail = estimates[-3:]
    bracket = float(tail.max() - tail.min())
    warning = ""
    diffs = np.diff(estimates)
    if np.any(diffs[:-1] * diffs[1:] < 0):
        warning = "oscillating finite-difference derivative; bracket widened"
        bracket = float(estimates.max() - estimates.min())

    # spherical density from the same curve for the cross-relation
    theta_s = float(quotients(s_curve, radii, p)[-1])
    const = alpha / (n * abs(p - 2.0) * unit_ball_volume(n)) if p != 2.0 else alpha / (
        n * unit_ball_volume(n)
    )
    predicted = const * theta_mass
    residual = abs(theta_s - predicted) / max(abs(theta_s), 1e-30)

    return MassDensityReport(
        p=p,
        n=n,
        radii=radii,
        ball_masses=masses,
        theta_mass=theta_mass,
        bracket=bracket,
        spherical_residual=residual,
        warning=warning,
    )


# ---------------------------------------------------------------------------
# flow experiments
# ---------------------------------------------------------------------------


@dataclass
class FlowSpec:
    """Exponent and flow-scale schedule of a tangent experiment."""

    p: float
    radii: np.ndarray = None

    def __post_init__(self):
        if self.radii is None:
            self.radii = geometric_radii(1.0, 11)
        self.radii = np.asarray(self.radii, dtype=float)
        if self.radii.size == 0 or not np.all((self.radii > 0.0) & (self.radii < math.inf)):
            raise DomainError(f"flow radii must be positive and finite, got "
                              f"{self.radii.tolist()}")
        if np.any(np.diff(self.radii) >= 0.0):
            raise DomainError("flow radii must be strictly decreasing")


def comparison_grid(spec: FlowSpec, n: int) -> np.ndarray:
    """Eight geometric shells of 256 sphere points each: the annulus
    0.5 <= |x| <= 2 for p >= 2; for p < 2 the shells 0.05 <= |x| <= 1 and
    the origin."""
    quad = sphere_quad(n, size=256, seed=7)
    if spec.p >= 2.0:
        shells = np.geomspace(0.5, 2.0, 8)
    else:
        shells = np.geomspace(0.05, 1.0, 8)
    pts = (shells[:, None, None] * quad.points[None, :, :]).reshape(-1, n)
    if spec.p < 2.0:
        pts = np.vstack([pts, np.zeros(n)])
    return pts


def _grid_distance(u_vals, v_vals, pts, metric: str, beta: float | None, rng) -> float:
    diff = u_vals - v_vals
    if metric == "l1":
        return float(np.abs(diff).mean())
    if metric == "sup":
        return float(np.abs(diff).max())
    if metric == "holder":
        ii, jj, gaps = _grid_pairs(pts, rng, 512)
        return float(np.abs(diff).max() + _pair_quotient(diff, ii, jj, gaps ** beta))
    raise DomainError(f"unknown metric {metric!r}")


def _grid_pairs(pts, rng, pairs: int):
    """(ii, jj, gaps): `pairs` index pairs of grid points drawn from rng,
    leaving out pairs of equal points, and the distances |x_i - x_j|."""
    k = pts.shape[0]
    ii = rng.integers(0, k, size=pairs)
    jj = rng.integers(0, k, size=pairs)
    keep = ii != jj
    ii, jj = ii[keep], jj[keep]
    gaps = row_norms(pts[ii] - pts[jj])
    keep = gaps > 0
    return ii[keep], jj[keep], gaps[keep]


def _pair_quotient(values, ii, jj, scale) -> float:
    """Max over the pairs of |u(x_i) - u(x_j)| / scale, where scale is
    |x_i - x_j|^alpha for a Hoelder quotient of exponent alpha."""
    return float((np.abs(values[ii] - values[jj]) / scale).max())


@dataclass
class ConvergenceRecord:
    metric: str
    radii: np.ndarray
    distances: np.ndarray
    converged: bool
    tolerance: float
    holder_seminorms: np.ndarray | None = None
    holder_bound: float | None = None
    holder_bound_ok: bool | None = None


def tangent_experiment(field: ScalarField, spec: FlowSpec, candidate: ScalarField,
                       metric: str = "sup", tol: float = 1e-3,
                       beta: float | None = None,
                       quad: SphereQuad | None = None) -> ConvergenceRecord:
    """Distances from the flowed field to a candidate tangent.

    Converged means the distance at the deepest scale is below `tol`.
    For p < 2 the grid Hoelder seminorms of the flowed fields (the max
    two-point quotient of exponent 2 - p over 2048 pairs of grid points
    from ``default_rng(11)``) are recorded together with the asymptotic
    bound by the max-density.  The seminorm pairs, their gaps and
    gaps^(2-p) are drawn and computed once per experiment and read at
    every radius; the Hoelder metric draws its 512 pairs per radius from
    the experiment's own stream, ``default_rng(13)``.
    """
    require_tol(tol)
    p = spec.p
    if candidate.n != field.n:
        raise DomainError(f"candidate lives on R^{candidate.n}, the field on R^{field.n}")
    if metric == "holder":
        if not p < 2.0:
            raise DomainError("the Hoelder metric needs p < 2")
        if beta is None or not 0.0 < beta < 2.0 - p:
            raise DomainError("the Hoelder metric needs 0 < beta < 2 - p")
    pts = comparison_grid(spec, field.n)
    rng = np.random.default_rng(13)
    cand_vals, _ = _clipped(candidate.values(pts))
    distances = []
    seminorms = [] if p < 2.0 else None
    if seminorms is not None:
        ii, jj, gaps = _grid_pairs(pts, np.random.default_rng(11), 2048)
        scale = gaps ** (2.0 - p)
    for r in spec.radii:
        flowed = tangent_flow(field, p, r, quad)
        vals, _ = _clipped(flowed.values(pts))
        distances.append(_grid_distance(vals, cand_vals, pts, metric, beta, rng))
        if seminorms is not None:
            seminorms.append(_pair_quotient(vals, ii, jj, scale))
    distances = np.asarray(distances)

    bound = None
    bound_ok = None
    if seminorms is not None:
        seminorms = np.asarray(seminorms)
        rep = densities(field, np.zeros(field.n), p, kinds=("M",), quad=quad)
        bound = rep.theta["M"] + rep.bracket["M"] + rep.noise_bound + 1e-6
        bound_ok = bool(seminorms[-3:].max() <= bound * (1.0 + 1e-3) + 1e-9)
    return ConvergenceRecord(
        metric=metric,
        radii=spec.radii,
        distances=distances,
        converged=bool(distances[-1] <= tol),
        tolerance=tol,
        holder_seminorms=seminorms,
        holder_bound=bound,
        holder_bound_ok=bound_ok,
    )


def averages_of_tangent_check(tangent: ScalarField, p: float, radii=None,
                              quad: SphereQuad | None = None,
                              kinds: Sequence[str] = ("M", "S", "V")) -> PropertyReport:
    """Averages of a flow-invariant field must be exact radial harmonics,
    up to 1e-6.

    For p != 2 each average equals its density times the kernel; for
    p = 2 the max average is exactly theta * log r while the spherical
    and volume constants live in the universal window [-C theta, 0]
    (volume: >= -(C+1) theta).
    """
    if math.isinf(p):
        raise DomainError("needs finite p")
    n = tangent.n
    _check_volume_density(kinds, p, n)
    radii = _density_radii(radii)
    defect = flow_invariance_defect(tangent, p, quad=quad or sphere_quad(n))
    worst = 0.0
    note_parts = [f"flow-invariance defect {defect:.2e}"]
    kvals = np.asarray(kernel(KernelSpec(p=p), radii), dtype=float)
    count = 0
    if p != 2.0:
        curves = average_curves(tangent, kinds, np.zeros(n), radii, quad, p)
        for kind in kinds:
            curve = curves[kind]
            theta_k = curve.values[0] / kvals[0]
            rel = np.abs(curve.values - theta_k * kvals) / np.maximum(np.abs(kvals), 1e-30)
            worst = max(worst, float(rel.max()))
            count += radii.size
            note_parts.append(f"theta_{kind}={theta_k:.6g}")
    else:
        windows = [kind for kind in ("S", "V") if kind in kinds]
        curves = average_curves(tangent, ("M", *windows), np.zeros(n), radii, quad, p)
        c_const = harnack_constant(n)
        m_curve = curves["M"]
        theta = quotients(m_curve.values, radii, p)[-1]
        worst = max(worst, float(np.abs(m_curve.values - theta * kvals).max()))
        count += radii.size
        note_parts.append(f"theta={theta:.6g}")
        for kind, floor in (("S", -c_const * theta), ("V", -(c_const + 1.0) * theta)):
            if kind not in windows:
                continue
            consts = curves[kind].values - theta * kvals
            # constant across scales, at most 0 and at least the floor
            worst = max(worst, float(consts.max() - consts.min()), float(consts.max()),
                        float(floor - consts.min()))
            count += radii.size
            note_parts.append(f"{kind}-const={consts.mean():.6g} floor={floor:.6g}")
    worst = max(worst, defect)
    return PropertyReport(
        name="averages-of-tangent",
        sample_count=count,
        worst_violation=worst,
        tolerance=1e-6,
        note="; ".join(note_parts),
    )


# ---------------------------------------------------------------------------
# density decay along paths, upper semicontinuity
# ---------------------------------------------------------------------------


@dataclass
class DecayReport:
    path_norms: np.ndarray
    path_thetas: np.ndarray
    center_theta: float
    center_bracket: float
    usc_ok: bool


def density_decay_check(field: ScalarField, x0, path_points, p: float,
                        quad: SphereQuad | None = None, levels: int = 6) -> DecayReport:
    """Volume densities along a path into a singular center.

    Radii at each path point scale with the distance to the singular
    set, so every ball stays inside the smooth region.  The upper
    semicontinuity probe checks limsup theta(path) <= theta(center)
    within brackets.
    """
    x0 = np.asarray(x0, dtype=float).reshape(-1)
    thetas = []
    norms = []
    for x in path_points:
        x = np.asarray(x, dtype=float).reshape(-1)
        d = field.distance_to_singular(x)
        if d <= 0.0:
            raise DomainError("path point lies on the singular set")
        rep = densities(field, x, p, radii=geometric_radii(d / 2.0, levels), quad=quad,
                        kinds=("V",))
        thetas.append(rep.theta["V"])
        norms.append(float(np.linalg.norm(x - x0)))

    d0 = min(
        (float(np.linalg.norm(np.asarray(s) - x0)) for s in field.singular_points
         if np.linalg.norm(np.asarray(s) - x0) > 0.0),
        default=1.0,
    )
    rep0 = densities(field, x0, p, radii=geometric_radii(d0 / 2.0, levels), quad=quad,
                     kinds=("V",))
    theta0 = rep0.theta["V"]
    bracket0 = rep0.bracket["V"]
    usc_ok = max(thetas) <= theta0 + bracket0 + 1e-6
    return DecayReport(
        path_norms=np.asarray(norms),
        path_thetas=np.asarray(thetas),
        center_theta=theta0,
        center_bracket=bracket0,
        usc_ok=usc_ok,
    )


# ---------------------------------------------------------------------------
# Hoelder machinery (1 <= p < 2)
# ---------------------------------------------------------------------------


def holder_estimate(field: ScalarField, x0, rho: float, big_r: float, p: float,
                    quad: SphereQuad | None = None) -> float:
    """Hoelder norm on B_rho from the max average at R: a bound where M has
    a closed form, and an estimate from the sampled maximum otherwise."""
    if not 1.0 <= p < 2.0:
        raise DomainError("Hoelder estimates need 1 <= p < 2")
    alpha = 2.0 - p
    if not (0.0 < 3.0 * rho <= big_r):
        raise DomainError("need 0 < 3 rho <= R")
    u0 = field.at(x0)
    if not math.isfinite(u0):
        raise DomainError("field must be finite at the center")
    m_r = spherical_max(field, x0, big_r, quad)
    lead = big_r**alpha / ((big_r - rho) ** alpha - rho**alpha)
    return float(lead * (m_r - u0) / big_r**alpha)


def infinitesimal_holder(field: ScalarField, x0, p: float, radii=None,
                         quad: SphereQuad | None = None) -> float:
    """(M(u, x0, r) - u(x0)) / r^alpha at the deepest radius; decreasing in r.
    A bound where M has a closed form, an estimate from the sampled
    maximum otherwise."""
    if not 1.0 <= p < 2.0:
        raise DomainError("needs 1 <= p < 2")
    alpha = 2.0 - p
    radii = _density_radii(radii)
    u0 = field.at(x0)
    r = float(radii[-1])
    return float((spherical_max(field, x0, r, quad) - u0) / r**alpha)


# ---------------------------------------------------------------------------
# built-in example fields
# ---------------------------------------------------------------------------


def _kernel_sum_field(n: int, spec: KernelSpec, weights: np.ndarray, centers: np.ndarray,
                      **meta) -> ScalarField:
    """The field sum_k w_k K(|x - c_k|) with its `shells` hook.

    For each center the hook computes t = <w, x0 - c> and
    h^2 = |x0 - c - t w|^2 once per (x0, points), h^2 for `QUAD_BLOCK`
    points at a time, so no (m, n) array is made; the shell of radius s is
    then at the squared distance q = |x - c|^2 = (s + t)^2 + h^2, O(m) per
    shell, computed for a block of radii at once in one buffer per
    off-centre term, reused from call to call, and turned into w K(sqrt(q))
    in place by one log and one exp
    (`radial.weighted_kernel_of_square`, no sqrt and no pow).  Unlike the
    expanded s^2 + 2 s t + |x0 - c|^2, this keeps its digits when the
    shell passes close to c.  A center at x0 has |x - c| = s exactly: a
    (k, 1) column w K(s) with the floats of `radial.kernel`.  The terms are
    summed in their order into the first full term, with the floats of a
    sum that starts from zeros; a block of centred terms only is their
    column, broadcast over the m points.  `values` keeps the
    sqrt-and-power route, the reference for the shells.

    `analytic_max` is sum_k w_k K(r + |x0 - c_k|) when every centre of
    positive weight other than x0 lies on one ray from x0 (directions
    within 1e-9, where the closed form's error, second order in the angle,
    is below rounding): each term then peaks at the same point of the
    sphere.  Off the ray it is None, and the maximum is sampled.
    """
    finite = np.isfinite(centers).all(axis=1)
    if not finite.all():
        raise DomainError(f"kernel center {centers[finite.argmin()].tolist()} is not finite")

    def values(pts):
        pts = np.asarray(pts, dtype=float)
        out = np.zeros(pts.shape[0])
        for w, c in zip(weights, centers):
            out += weighted_kernel(spec, w, row_norms(pts - c))
        return out

    def shells(x0, points):
        projections = []
        for c in centers:
            a = x0 - c
            if not a.any():
                projections.append(None)
                continue
            t = points @ a
            h2 = np.empty_like(t)
            for lo in range(0, t.size, QUAD_BLOCK):
                rows = slice(lo, lo + QUAD_BLOCK)
                perp = a - t[rows, None] * points[rows]
                np.einsum("ij,ij->i", perp, perp, out=h2[rows])
            projections.append((t, h2))
        buffers = [np.empty((0, points.shape[0])) for _ in centers]

        def evaluate(radii):
            radii = np.asarray(radii, dtype=float)
            total = None  # a (k, 1) column while every term so far is centred
            for i, (w, proj) in enumerate(zip(weights, projections)):
                if proj is None:
                    term = weighted_kernel(spec, w, radii[:, None].copy())
                else:
                    t, h2 = proj
                    if buffers[i].shape[0] < radii.size:
                        buffers[i] = np.empty((radii.size, t.size))
                    term = np.add(radii[:, None], t, out=buffers[i][:radii.size])
                    term *= term
                    term += h2
                    weighted_kernel_of_square(spec, w, term)
                if total is None:
                    term += 0.0  # the floats of 0 + term: a -0.0 comes out 0.0
                    total = term
                elif term.shape[1] > total.shape[1]:
                    term += total  # b + a has the floats of a + b
                    total = term
                else:
                    total += term
            if total.shape[1] < points.shape[0]:  # every term centred: one column
                return np.broadcast_to(total, (radii.size, points.shape[0]))
            return total

        return evaluate

    def analytic_max(x0, r):
        ray = None
        for w, c in zip(weights, centers):
            a = c - x0
            if w > 0 and a.any():
                a = a / np.abs(a).max()  # a tiny offset keeps a nonzero norm
                a = a / np.linalg.norm(a)
                if ray is None:
                    ray = a
                elif not np.linalg.norm(a - ray) <= 1e-9:
                    return None
        # summed from the first term, not from 0: one term keeps its floats
        first, *rest = (w * kernel(spec, r + float(np.linalg.norm(x0 - c)))
                        for w, c in zip(weights, centers))
        return sum(rest, first)

    return ScalarField(n=n, values=values, shells=shells, analytic_max=analytic_max, **meta)


def riesz_kernel_field(theta: float, p: float, n: int, center=None) -> ScalarField:
    """theta * K_p(|x - c|) in the standard normalization."""
    if not (math.isfinite(theta) and theta >= 0):
        raise DomainError(f"theta must be finite and >= 0, got {theta}")
    c = np.zeros(n) if center is None else np.asarray(center, dtype=float).reshape(-1)
    return _kernel_sum_field(
        n, KernelSpec(p=p), np.array([theta]), c[None, :],
        name=f"riesz(theta={fmt_param(theta)},p={fmt_param(p)})",
        singular_points=(c,),
    )


def log_modulus_coordinate_field(n_complex: int) -> ScalarField:
    """log |z_1| on C^nc, realized on R^(2 nc) with z_k = (x_k, x_{k+nc})."""
    n = 2 * n_complex

    def values(pts):
        pts = np.asarray(pts, dtype=float)
        mod = np.hypot(pts[:, 0], pts[:, n_complex])
        with np.errstate(divide="ignore"):
            return np.log(mod)

    def singular_distance(pts):
        pts = np.asarray(pts, dtype=float)
        return np.hypot(pts[:, 0], pts[:, n_complex])

    def analytic_max(x0, r):
        x0 = np.asarray(x0, dtype=float)
        return math.log(math.hypot(x0[0], x0[n_complex]) + r)

    return ScalarField(
        n=n,
        values=values,
        name=f"log|z_1| on C^{n_complex}",
        singular_distance=singular_distance,
        analytic_max=analytic_max,
    )


def partial_kernel_field(p: float, m: int, n: int) -> ScalarField:
    """Barred kernel of the first m coordinates: flow-invariant and on the
    min-max boundary off the singular slice."""
    if not 1 <= m < n:
        raise DomainError("need 1 <= m < n")
    spec = KernelSpec(p=p, normalization="barred")

    def values(pts):
        return weighted_kernel(spec, 1.0, row_norms(np.asarray(pts, dtype=float)[:, :m]))

    def singular_distance(pts):
        return row_norms(np.asarray(pts, dtype=float)[:, :m])

    def analytic_max(x0, r):
        x0 = np.asarray(x0, dtype=float)
        return kernel(spec, float(np.linalg.norm(x0[:m])) + r)

    return ScalarField(
        n=n,
        values=values,
        name=f"partial-kernel(p={fmt_param(p)},m={m})",
        singular_distance=singular_distance,
        analytic_max=analytic_max,
    )


def partial_kernel_hessian(p: float, m: int, x) -> np.ndarray:
    """Exact Hessian of the partial kernel at a point off the singular slice.

    The nonzero block is the kernel Hessian within the first m
    coordinates; eigenvalues are -(p-1), 0 (n-m times) and 1 (m-1
    times), all divided by |x_m|^p.
    """
    x = np.asarray(x, dtype=float).reshape(-1)
    if x.size < m:
        raise DomainError("point has fewer than m coordinates")
    if float(np.linalg.norm(x[:m])) == 0.0:
        raise DomainError("Hessian undefined on the singular slice")
    out = np.zeros((x.size, x.size))
    out[:m, :m] = kernel_hessian(1.0, p, x[:m])
    return out


def newtonian_potential_field(p: float, masses, n: int) -> ScalarField:
    """Sum of weighted kernels theta_i K_p(|x - a_i|) (a discrete-measure
    potential); classically subharmonic for the Laplacian when p <= n."""
    if p > n:
        raise DomainError("potential needs p <= n for subharmonicity")
    spec = KernelSpec(p=p)
    weights = np.asarray([m[0] for m in masses], dtype=float)
    if not np.all(np.isfinite(weights) & (weights >= 0)):
        raise DomainError(f"masses must be finite and >= 0, got {weights.tolist()}")
    centers = np.asarray([np.asarray(m[1], dtype=float) for m in masses])

    singular = tuple(centers[i] for i in range(centers.shape[0]) if weights[i] > 0)
    return _kernel_sum_field(
        n, spec, weights, centers,
        name=f"potential(p={fmt_param(p)},{len(masses)} masses)",
        singular_points=singular,
    )


def max_of_fields(*fields: ScalarField) -> ScalarField:
    """Pointwise maximum."""
    if not fields:
        raise DomainError("need at least one field")
    n = fields[0].n
    if any(f.n != n for f in fields):
        raise DomainError("dimension mismatch")

    def values(pts):
        return np.max(np.stack([f.values(pts) for f in fields]), axis=0)

    analytic = None
    if all(f.analytic_max is not None for f in fields):

        def analytic(x0, r):
            maxima = [f.analytic_max(x0, r) for f in fields]
            return None if any(m is None for m in maxima) else max(maxima)

    singular = tuple(s for f in fields for s in f.singular_points)
    dists = [f.singular_distance for f in fields if f.singular_distance is not None]
    sing_dist = None
    if dists:

        def sing_dist(pts):
            return np.min(np.stack([d(pts) for d in dists]), axis=0)

    return ScalarField(
        n=n,
        values=values,
        name="max(" + ",".join(f.name for f in fields) + ")",
        singular_points=singular,
        singular_distance=sing_dist,
        analytic_max=analytic,
    )


def plus_quadratic_field(base: ScalarField, c: float) -> ScalarField:
    """base + (c/2) |x|^2, the quadratic term from `quadratic_field`."""
    base_values = base.values
    quadratic = quadratic_field(c, base.n).values

    def values(pts):
        return base_values(pts) + quadratic(pts)

    return ScalarField(
        n=base.n,
        values=values,
        name=f"{base.name}+quadratic",
        singular_points=base.singular_points,
        singular_distance=base.singular_distance,
    )


def quadratic_field(a, n: int | None = None) -> ScalarField:
    """Smooth field (1/2) x^T A x (zero density everywhere)."""
    if np.isscalar(a):
        if n is None:
            raise DomainError("scalar quadratic needs n")
        a = float(a) * np.eye(n)
    a = 0.5 * (np.asarray(a, dtype=float) + np.asarray(a, dtype=float).T)
    n = a.shape[0]

    def values(pts):
        pts = np.asarray(pts, dtype=float)
        return 0.5 * np.einsum("mi,ij,mj->m", pts, a, pts)

    return ScalarField(
        n=n,
        values=values,
        name="quadratic",
    )


def zero_field(n: int) -> ScalarField:
    return ScalarField(
        n=n,
        values=lambda pts: np.zeros(np.asarray(pts).shape[0]),
        name="zero",
        analytic_max=lambda x0, r: 0.0,
    )
