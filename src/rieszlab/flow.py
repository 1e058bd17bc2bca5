"""Scalar fields, spherical/volume averages, tangential flows, densities
and their cross-relations, plus the built-in example fields.

Averages use a seeded low-discrepancy sphere point set shared across all
radii of a run.  Sharing the point set makes quotients of exactly
scale-homogeneous fields exact (the quadrature error cancels), and the
reported noise bound comes from comparing against the first half of the
sample.

Every average (M, S and V, the scalar calls as well as the curves) goes
through one shell path, `_average_curves`: it checks that each radius is
positive and finite, evaluates each sphere shell once, and always
samples the spherical maximum, so a closed-form max is checked against
the sampled one.

Shells are read through one evaluator per call, `radii -> (k, m)` values
`values(x0 + s w)` over the m unit points w, one row per radius s, in
blocks of at most `SHELL_BLOCK` values.  A field may specialise it with
its `shells` hook, as the kernel sums do: they project x0 - c on every w
once per call, so each shell costs O(m) instead of O(m n).  Other fields
call `values` once per shell.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field
from functools import lru_cache
from typing import Callable, Sequence

import numpy as np

from ._numerics import gamma, ndtri, sobol
from .errors import DomainError, NumericalError
from .radial import density_estimate, density_radii, geometric_radii, quotients
from .riesz import INF, KernelSpec, _weighted_kernel, kernel, kernel_hessian
from .subeq import PropertyReport, fmt_param

CLIP_FLOOR = -1e12
MAX_CLIPPED_FRACTION = 1e-3
GL_NODES = 32
NN_BLOCK_ROWS = 16
# field values per block of sphere shells: bounds the (k, m) arrays of a block
SHELL_BLOCK = 1 << 16
# relative radius step of the backward difference behind the mass density
MASS_FD_STEP = 1e-3


def unit_ball_volume(k: float) -> float:
    """Volume of the unit ball in dimension k (real k >= 0 allowed)."""
    if k < 0:
        raise DomainError("dimension must be >= 0")
    return math.pi ** (k / 2.0) / gamma(k / 2.0 + 1.0)


def sphere_surface_area(n: int) -> float:
    """Surface area of the unit sphere in R^n."""
    return 2.0 * math.pi ** (n / 2.0) / gamma(n / 2.0)


def harnack_constant(n: int) -> float:
    """1 / phi(1/e) with phi(lam) = (1 - lam) / (1 + lam)^(n-1)."""
    lam = 1.0 / math.e
    return (1.0 + lam) ** (n - 1) / (1.0 - lam)


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
    if n <= 4:
        return 4096
    if n <= 8:
        return 16384
    raise DomainError(f"no default quadrature for n = {n}")


class SphereQuad:
    """Seeded low-discrepancy point set on the unit sphere, equal weights.

    Points come from a scrambled Sobol sequence mapped through the
    inverse Gaussian CDF and normalized.  The first half of the set is a
    Sobol sequence in its own right, which gives the doubling self-test
    behind the reported noise bounds.
    """

    def __init__(self, n: int, size: int | None = None, seed: int = 0,
                 _points: np.ndarray | None = None):
        if n < 2:
            raise DomainError("sphere quadrature needs n >= 2")
        self.n = n
        self.size = default_quad_size(n) if size is None else int(size)
        if self.size < 8:
            raise DomainError("quadrature size too small")
        if self.size & (self.size - 1):
            raise DomainError(f"quadrature size must be a power of two (Sobol balance), "
                              f"got {self.size}")
        self.seed = int(seed)
        if _points is not None:
            self.points = _points
        else:
            u = np.clip(sobol(n, self.size, self.seed), 1e-15, 1.0 - 1e-15)
            g = ndtri(u)
            norms = np.linalg.norm(g, axis=1)
            norms[norms == 0.0] = 1.0
            self.points = g / norms[:, None]
        self._nn_cache = None

    def half(self) -> "SphereQuad":
        """The leading half of the point set (itself a Sobol sample)."""
        return SphereQuad(self.n, self.size // 2, self.seed,
                          _points=self.points[: self.size // 2])

    def neighbor_stats(self):
        """(indices, distances) of nearest neighbors for a 256-point subset."""
        if self._nn_cache is None:
            k = min(256, self.size)
            idx = np.empty(k, dtype=np.intp)
            dist = np.empty(k)
            for lo in range(0, k, NN_BLOCK_ROWS):  # bounds the difference tensor
                rows = np.arange(lo, min(lo + NN_BLOCK_ROWS, k))
                d2 = ((self.points[rows, None, :] - self.points[None, :, :]) ** 2).sum(axis=2)
                d2[rows - lo, rows] = np.inf
                idx[rows] = d2.argmin(axis=1)
                dist[rows] = np.sqrt(d2[rows - lo, idx[rows]])
            self._nn_cache = (idx, dist)
        return self._nn_cache


@lru_cache(maxsize=32)
def sphere_quad(n: int, size: int | None = None, seed: int = 0) -> SphereQuad:
    return SphereQuad(n, size, seed)


@lru_cache(maxsize=8)
def _gl_nodes(count: int = GL_NODES):
    x, w = np.polynomial.legendre.leggauss(count)
    ratio = 0.5 * (x + 1.0)  # map to (0, 1)
    weight = 0.5 * w
    return ratio, weight


# ---------------------------------------------------------------------------
# scalar fields
# ---------------------------------------------------------------------------


@dataclass
class ScalarField:
    """Evaluable function on a ball, with declared singular structure.

    ``values`` maps an (m, n) array of points to m values; -inf marks a
    hit on the singular set.  ``analytic_max(x0, r)`` returns the exact
    spherical maximum when a closed form is known (None means sample).
    ``shells(x0, points)``, when set, returns ``radii -> (k, m)`` values,
    row i ``values(x0 + radii[i] * points)`` for the m unit ``points``,
    faster than ``values``; every sphere average reads its shells through
    it, at most `SHELL_BLOCK` values per call.
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
        x = np.asarray(x, dtype=float).reshape(-1)
        if self.singular_distance is not None:
            return float(self.singular_distance(x.reshape(1, -1))[0])
        if not self.singular_points:
            return INF
        pts = np.asarray(self.singular_points, dtype=float)
        return float(np.linalg.norm(pts - x[None, :], axis=1).min())


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


def _shell_blocks(evaluate: Callable, radii: np.ndarray, size: int):
    """(radii, clipped (k, size) values, hits per row) over blocks of the
    spheres of the given radii, each block at most SHELL_BLOCK values."""
    step = max(1, SHELL_BLOCK // size)
    for lo in range(0, radii.size, step):
        block = radii[lo:lo + step]
        yield (block, *_clipped(evaluate(block)))


def _max_from_shell(field: ScalarField, x0: np.ndarray, r: float, quad: SphereQuad,
                    vals: np.ndarray) -> float:
    """M(u, x0; r) from the clipped shell values: the field's closed form,
    which the sampled maximum must not exceed, or else the sample maximum
    inflated by a nearest-neighbor Lipschitz estimate to cover the gap
    between the sample and the true supremum."""
    if field.analytic_max is not None:
        exact = float(field.analytic_max(x0, r))
        sampled = float(vals.max())
        if sampled > exact + 1e-6 * (1.0 + abs(exact)):
            raise NumericalError(
                f"sampled spherical max {sampled} exceeds closed form {exact}"
            )
        return exact
    idx, dist = quad.neighbor_stats()
    sub = vals[: idx.size]
    gaps = np.abs(sub - vals[idx])
    with np.errstate(divide="ignore", invalid="ignore"):
        lipschitz = float(np.max(np.where(dist > 0, gaps / dist, 0.0)))
    covering = 2.0 * float(dist.max())
    return float(vals.max()) + lipschitz * covering


def _shell_means(vals: np.ndarray, nclip: np.ndarray, half: int) -> list:
    """(mean, mean over the leading `half` points, clip count) of each shell
    (row); the leading points are those of `SphereQuad.half()`."""
    if np.any(nclip == vals.shape[1]):
        raise DomainError("all sphere samples hit the singular set")
    return list(zip(vals.mean(axis=1), vals[:, :half].mean(axis=1), nclip))


def _volume_stats(evaluate: Callable, n: int, r: float, quad: SphereQuad):
    """(ball average, leading-half ball average, clipped count) via the
    radial reduction n * int_0^1 S(rho r) rho^(n-1) drho."""
    rho, w = _gl_nodes()
    rows = [stats for _, vals, nclip in _shell_blocks(evaluate, rho * r, quad.size)
            for stats in _shell_means(vals, nclip, quad.size // 2)]
    total = half_total = 0.0
    nclip = 0
    for rho_i, w_i, (s_i, half_i, c_i) in zip(rho, w, rows):
        weight = w_i * n * rho_i ** (n - 1)
        total += weight * s_i
        half_total += weight * half_i
        nclip += c_i
    return float(total), float(half_total), int(nclip)


@dataclass
class AverageCurve:
    kind: str  # "M" | "S" | "V"
    radii: np.ndarray
    values: np.ndarray
    clipped_fraction: float = 0.0

    def to_csv_rows(self, p: float):
        """(r, value, quotient to the next radius) rows; the last radius has
        no quotient."""
        quots = [*quotients(self.values, self.radii, p), ""]
        return [(float(r), float(v), q) for r, v, q in zip(self.radii, self.values, quots)]


def _average_curves(field: ScalarField, kinds: Sequence[str], x0, radii,
                    quad: SphereQuad | None = None) -> dict:
    """kind -> (AverageCurve, leading-half values) over one evaluation per
    sphere shell: M and S share the shell at each radius, and the
    leading-half values (None for M) are what the same curve gives on
    `quad.half()`.  Every average reads its shells here, after checking
    that each radius is positive and finite."""
    for kind in kinds:
        if kind not in ("M", "S", "V"):
            raise DomainError(f"unknown average kind {kind!r}")
    x0 = np.asarray(x0, dtype=float).reshape(-1)
    if x0.size != field.n or not np.all(np.isfinite(x0)):
        raise DomainError(f"center must be {field.n} finite coordinates, got {x0.tolist()}")
    radii = np.asarray(radii, dtype=float)
    for r in radii:
        if not 0.0 < r < INF:
            raise DomainError(f"radius must be positive and finite, got {r}")
    quad = quad or sphere_quad(field.n)
    evaluate = _shell_evaluator(field, x0, quad.points)
    maxima, spherical = [], []
    if {"M", "S"} & set(kinds):
        for block, vals, nclip in _shell_blocks(evaluate, radii, quad.size):
            if "M" in kinds:
                maxima += [_max_from_shell(field, x0, r, quad, row) for r, row in zip(block, vals)]
            if "S" in kinds:
                spherical += _shell_means(vals, nclip, quad.size // 2)
    out = {}
    for kind in kinds:
        clipped = total = 0
        half_values = None
        if kind == "M":
            values = maxima
        else:
            if kind == "S":
                stats = spherical
            else:
                stats = [_volume_stats(evaluate, field.n, r, quad) for r in radii]
            values = [v for v, _, _ in stats]
            half_values = [h for _, h, _ in stats]
            clipped = int(sum(c for _, _, c in stats))
            total = len(stats) * quad.size * (1 if kind == "S" else GL_NODES)
        curve = AverageCurve(
            kind=kind,
            radii=radii,
            values=np.asarray(values),
            clipped_fraction=clipped / total if total else 0.0,
        )
        out[kind] = (curve, None if half_values is None else np.asarray(half_values))
    return out


def average_curve(field: ScalarField, kind: str, x0, radii,
                  quad: SphereQuad | None = None) -> AverageCurve:
    return _average_curves(field, (kind,), x0, radii, quad)[kind][0]


def spherical_max(field: ScalarField, x0, r: float, quad: SphereQuad | None = None) -> float:
    """Spherical maximum M(u, x0; r): the field's closed form when it has
    one, checked against the sampled maximum; otherwise the sample maximum
    inflated to cover the gap to the true supremum."""
    return float(average_curve(field, "M", x0, [r], quad).values[0])


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
    if not 0.0 < r < INF:
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
            return factor * (base_max(x0 * r, rr * r) - offset)

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
    worst = 0.0
    for s in (0.5, 2.0):
        flowed = tangent_flow(field, p, s, quad)
        for shell in (0.5, 1.0, 2.0):
            pts = shell * quad.points
            a, _ = _clipped(field.values(pts))
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


def default_radii(levels: int = 6, r0: float = 1.0) -> np.ndarray:
    return geometric_radii(r0, levels)


def _density_radii(radii) -> np.ndarray:
    """Given or default radii, strictly decreasing and at least three."""
    return density_radii(default_radii() if radii is None else radii)


def _check_volume_density(kinds: Sequence[str], p: float, n: int) -> None:
    if "V" in kinds and p >= n + 2.0:  # the kernel's ball average diverges
        raise DomainError(f"no volume density is defined at p >= n + 2 = {n + 2}")


def densities(field: ScalarField, x0, p: float, radii=None,
              quad: SphereQuad | None = None,
              kinds: Sequence[str] = ("M", "S", "V")) -> DensityReport:
    """Monotone-quotient density estimates for the requested averages.

    Each estimate is `radial.density_estimate` of the curve's quotients:
    the deepest quotient with the gap to the previous scale as bracket.  Cross-relations between the spherical and volume
    densities (and the max/spherical comparison) are reported as
    residuals; quotient monotonicity failures are flagged rather than
    raised, since they usually mean the field is not subharmonic for the
    intended constraint or the quadrature is too coarse.

    Each sphere shell is evaluated once: the M and S curves share the
    shell at each radius, and the half-sample noise bound takes the
    leading half of the same values (that half is `quad.half()`).
    """
    if math.isinf(p):
        raise DomainError("no density is defined at p = inf")
    _check_volume_density(kinds, p, field.n)
    x0 = np.asarray(x0, dtype=float).reshape(-1)
    radii = _density_radii(radii)
    curves = _average_curves(field, kinds, x0, radii, quad)
    quots = {kind: quotients(curve.values, radii, p) for kind, (curve, _) in curves.items()}
    clipped = max((curve.clipped_fraction for curve, _ in curves.values()), default=0.0)
    if clipped > MAX_CLIPPED_FRACTION:
        raise NumericalError(
            f"clipped sample fraction {clipped:.2e} exceeds {MAX_CLIPPED_FRACTION:.0e}"
        )

    # noise bound via the half sample
    noise = 0.0
    for kind in ("S", "V"):
        if kind in kinds:
            half_q = quotients(curves[kind][1], radii, p)
            noise = max(noise, float(np.abs(quots[kind] - half_q).max()))

    theta, bracket = {}, {}
    mono_defect = 0.0
    tol_mono = 1e-6 + noise
    for kind in kinds:
        theta[kind], bracket[kind], defect = density_estimate(quots[kind])
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
    return DensityReport(
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
    s_curve, s_lo = np.split(average_curve(field, "S", x0, both, quad).values, 2)
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
        if self.radii.size == 0 or not np.all((self.radii > 0.0) & (self.radii < INF)):
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
        return float(np.abs(diff).max() + _two_point_quotient(diff, pts, beta, rng, 512))
    raise DomainError(f"unknown metric {metric!r}")


def _two_point_quotient(values, pts, alpha: float, rng, pairs: int) -> float:
    """Max of |u(x)-u(y)| / |x-y|^alpha over `pairs` index pairs of grid
    points drawn from rng, leaving out pairs of equal points."""
    k = pts.shape[0]
    ii = rng.integers(0, k, size=pairs)
    jj = rng.integers(0, k, size=pairs)
    keep = ii != jj
    ii, jj = ii[keep], jj[keep]
    gaps = np.linalg.norm(pts[ii] - pts[jj], axis=1)
    keep = gaps > 0
    return (np.abs(values[ii] - values[jj])[keep] / gaps[keep] ** alpha).max()


def holder_seminorm(values: np.ndarray, pts: np.ndarray, alpha: float) -> float:
    """Max two-point quotient |u(x)-u(y)| / |x-y|^alpha over 2048 seeded
    pairs of grid points."""
    return float(_two_point_quotient(values, pts, alpha, np.random.default_rng(11), 2048))


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
    For p < 2 the grid Hoelder seminorms of the flowed fields are
    recorded together with the asymptotic bound by the max-density.
    """
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
    for r in spec.radii:
        flowed = tangent_flow(field, p, r, quad)
        vals, _ = _clipped(flowed.values(pts))
        distances.append(_grid_distance(vals, cand_vals, pts, metric, beta, rng))
        if seminorms is not None:
            seminorms.append(holder_seminorm(vals, pts, 2.0 - p))
    distances = np.asarray(distances)

    bound = None
    bound_ok = None
    if seminorms is not None:
        seminorms = np.asarray(seminorms)
        rep = densities(field, np.zeros(field.n), p, kinds=("M",), quad=quad)
        bound = rep.theta["M"] + rep.bracket["M"] + 1e-6
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
                              kinds: Sequence[str] = ("M", "S", "V"),
                              tol: float = 1e-6) -> PropertyReport:
    """Averages of a flow-invariant field must be exact radial harmonics.

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
        curves = _average_curves(tangent, kinds, np.zeros(n), radii, quad)
        for kind in kinds:
            curve = curves[kind][0]
            theta_k = curve.values[0] / kvals[0]
            rel = np.abs(curve.values - theta_k * kvals) / np.maximum(np.abs(kvals), 1e-30)
            worst = max(worst, float(rel.max()))
            count += radii.size
            note_parts.append(f"theta_{kind}={theta_k:.6g}")
    else:
        windows = [kind for kind in ("S", "V") if kind in kinds]
        curves = _average_curves(tangent, ("M", *windows), np.zeros(n), radii, quad)
        c_const = harnack_constant(n)
        m_curve = curves["M"][0]
        theta = quotients(m_curve.values, radii, p)[-1]
        worst = max(worst, float(np.abs(m_curve.values - theta * kvals).max()))
        count += radii.size
        note_parts.append(f"theta={theta:.6g}")
        for kind, floor in (("S", -c_const * theta), ("V", -(c_const + 1.0) * theta)):
            if kind not in windows:
                continue
            consts = curves[kind][0].values - theta * kvals
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
        tolerance=tol,
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
    """Closed-form Hoelder-norm bound on B_rho from the max average at R."""
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
    """(M(u, x0, r) - u(x0)) / r^alpha at the deepest radius; decreasing in r."""
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


def _kernel_of_radius(spec: KernelSpec, weight: float, r: np.ndarray) -> np.ndarray:
    """weight * K(r) pointwise, with the kernel's value at r = 0: -inf, or 0
    when p < 2."""
    pos = r > 0.0
    if pos.all():
        return _weighted_kernel(spec, weight, r)
    out = np.full(r.shape, 0.0 if spec.p < 2.0 else -np.inf)
    with np.errstate(divide="ignore"):
        out[pos] = _weighted_kernel(spec, weight, r[pos])
    return out


def _kernel_sum_field(n: int, spec: KernelSpec, weights: np.ndarray, centers: np.ndarray,
                      **meta) -> ScalarField:
    """The field sum_k w_k K(|x - c_k|) with its `shells` hook.

    For each center the hook computes t = <w, x0 - c> and
    h^2 = |x0 - c - t w|^2 once per (x0, points); the shell of radius s is
    then |x - c| = sqrt((s + t)^2 + h^2), O(m) per shell, computed in place
    for a block of radii at once.  Unlike the expanded
    s^2 + 2 s t + |x0 - c|^2, this keeps its digits when the shell passes
    close to c.  A center at x0 has |x - c| = s exactly: one scalar
    term with the floats of the general formula.
    """

    def values(pts):
        pts = np.asarray(pts, dtype=float)
        out = np.zeros(pts.shape[0])
        for w, c in zip(weights, centers):
            out += _kernel_of_radius(spec, w, np.linalg.norm(pts - c, axis=1))
        return out

    def shells(x0, points):
        projections = []
        for c in centers:
            a = x0 - c
            if not a.any():
                projections.append(None)
                continue
            t = points @ a
            perp = a[None, :] - t[:, None] * points
            projections.append((t, np.einsum("ij,ij->i", perp, perp)))

        def evaluate(radii):
            radii = np.asarray(radii, dtype=float)
            out = np.zeros((radii.size, points.shape[0]))
            for w, proj in zip(weights, projections):
                if proj is None:
                    out += _kernel_of_radius(spec, w, radii)[:, None]
                else:
                    t, h2 = proj
                    dist = radii[:, None] + t
                    dist *= dist
                    dist += h2
                    out += _kernel_of_radius(spec, w, np.sqrt(dist, out=dist))
            return out

        return evaluate

    return ScalarField(n=n, values=values, shells=shells, **meta)


def riesz_kernel_field(theta: float, p: float, n: int, center=None) -> ScalarField:
    """theta * K_p(|x - c|) in the standard normalization."""
    if not (math.isfinite(theta) and theta >= 0):
        raise DomainError(f"theta must be finite and >= 0, got {theta}")
    spec = KernelSpec(p=p)
    c = np.zeros(n) if center is None else np.asarray(center, dtype=float).reshape(-1)

    def analytic_max(x0, r):
        return theta * kernel(spec, r + float(np.linalg.norm(np.asarray(x0) - c)))

    return _kernel_sum_field(
        n, spec, np.array([theta]), c[None, :],
        name=f"riesz(theta={fmt_param(theta)},p={fmt_param(p)})",
        singular_points=(c,),
        analytic_max=analytic_max,
    )


def log_modulus_coordinate_field(n_complex: int = 2, slot: int = 0) -> ScalarField:
    """log |z_slot| on C^nc, realized on R^(2 nc) with z_k = (x_k, x_{k+nc})."""
    if not 0 <= slot < n_complex:
        raise DomainError("slot out of range")
    n = 2 * n_complex

    def values(pts):
        pts = np.asarray(pts, dtype=float)
        mod = np.hypot(pts[:, slot], pts[:, slot + n_complex])
        with np.errstate(divide="ignore"):
            return np.log(mod)

    def singular_distance(pts):
        pts = np.asarray(pts, dtype=float)
        return np.hypot(pts[:, slot], pts[:, slot + n_complex])

    def analytic_max(x0, r):
        x0 = np.asarray(x0, dtype=float)
        return math.log(math.hypot(x0[slot], x0[slot + n_complex]) + r)

    return ScalarField(
        n=n,
        values=values,
        name=f"log|z_{slot + 1}| on C^{n_complex}",
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
        r = np.linalg.norm(np.asarray(pts, dtype=float)[:, :m], axis=1)
        return _kernel_of_radius(spec, 1.0, r)

    def singular_distance(pts):
        return np.linalg.norm(np.asarray(pts, dtype=float)[:, :m], axis=1)

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
    analytic = None
    if len(singular) == 1 and np.allclose(centers[0], 0.0):

        def analytic(x0, r):
            return weights[0] * kernel(spec, r + float(np.linalg.norm(x0)))

    return _kernel_sum_field(
        n, spec, weights, centers,
        name=f"potential(p={fmt_param(p)},{len(masses)} masses)",
        singular_points=singular,
        analytic_max=analytic,
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
            return max(f.analytic_max(x0, r) for f in fields)

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


def plus_quadratic_field(base: ScalarField, quadratic) -> ScalarField:
    """base + (1/2) x^T A x; a scalar A means that multiple of the identity."""
    if np.isscalar(quadratic):
        a = float(quadratic) * np.eye(base.n)
    else:
        a = 0.5 * (np.asarray(quadratic, dtype=float) + np.asarray(quadratic, dtype=float).T)
    base_values = base.values

    def values(pts):
        pts = np.asarray(pts, dtype=float)
        return base_values(pts) + 0.5 * np.einsum("mi,ij,mj->m", pts, a, pts)

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
