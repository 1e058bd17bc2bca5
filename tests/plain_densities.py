"""The density report computed plainly, kept as the tests' reference.

Every quotient curve is its own ``radial.quotients`` call, so the kernel
is computed at the radii once per curve; every shell row is summed by
numpy's ``sum(axis=1)``, its leading half summed again on its own.  A
field with exact means (``ScalarField.means``) reads them for S and V,
the coarse rule as the half means.  A field with certified maxima
(``ScalarField.maxima``) reads M at each radius on its own as the
attained end, with the gap to the upper end plus the rounding as its
error (``certified``); a sampled field's shell maximum, its non-finite
samples read as -inf, must not pass that radius's upper end.  The S and
V brackets' rounding terms are ``flow._quotient_rounding``'s, read from
each shell's plain sum of absolute values (or the exact means' and their
rounding bounds).  ``kernel_sum_max`` is the closed-form maximum of a
kernel sum on the ray of its centres, an oracle for the certificate.
``rieszlab.flow.densities`` must return the same report, curves
included, bit for bit.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from rieszlab import flow
from rieszlab.errors import DomainError, NumericalError
from rieszlab.radial import KernelSpec, density_estimate, kernel, quotients


def kernel_sum_max(p: float, weights, centers):
    """(x0, radii) -> the maxima of sum_k w_k K_p(|x - c_k|) over the spheres
    about x0, sum_k w_k K(r + |x0 - c_k|), where every centre of positive
    weight other than x0 lies on one ray from x0; None off that ray."""
    spec = KernelSpec(p=p)
    weights = np.asarray(weights, dtype=float)
    centers = np.asarray(centers, dtype=float)

    def closed_form(x0, radii):
        maxima = [at_radius(x0, r) for r in radii]
        return None if any(m is None for m in maxima) else np.array(maxima)

    def at_radius(x0, r):
        ray = None
        for w, c in zip(weights, centers):
            a = c - x0
            if w > 0 and a.any():
                a = a / np.abs(a).max()
                a = a / np.linalg.norm(a)
                if ray is None:
                    ray = a
                elif not np.linalg.norm(a - ray) <= 1e-9:
                    return None
        first, *rest = (w * kernel(spec, r + float(np.linalg.norm(x0 - c)))
                        for w, c in zip(weights, centers))
        return sum(rest, first)

    return closed_form


def plus_quadratic(base: flow.ScalarField, c: float) -> flow.ScalarField:
    """base + (c/2) |x|^2 with the quadratic from numpy's three-operand einsum."""
    a = c * np.eye(base.n)

    def values(pts):
        pts = np.asarray(pts, dtype=float)
        return base.values(pts) + 0.5 * np.einsum("mi,ij,mj->m", pts, a, pts)

    return dataclasses.replace(base, values=values, means=None, maxima=None)


def maximum(r, vals, upper):
    """(M, leading-half M) of the shell vals at radius r, its non-finite
    samples read as -inf: the maxima of the sample and of its leading half,
    the first of which must not pass the certified upper end, if any."""
    if not np.isfinite(vals).any():
        raise DomainError(f"every sphere sample at radius {r:.6g} is non-finite (float overflow "
                          f"or the singular set)")
    vals = np.where(np.isfinite(vals), vals, -np.inf)
    sampled = float(vals.max())
    if upper is not None and sampled > upper + 1e-6 * (1.0 + abs(upper)):
        raise NumericalError(f"sampled spherical max {sampled} exceeds certified max {upper}")
    return sampled, float(vals[:vals.size // 2].max())


def certified(radii, bounds):
    """(M, leading-half M, M's error) at each radius from certified maxima
    (attained, upper end, rounding): the attained end, with its gap to the
    upper end plus the rounding."""
    tops = []
    for r, (lower, upper, rounding) in zip(radii, bounds.T):
        if not np.isfinite([lower, upper, rounding]).all():
            raise DomainError(f"the spherical max at radius {r:.6g} is not finite")
        tops.append((lower, lower, upper - lower + rounding))
    return tops


def shell_rows(field, x0, quad, radii, maxima):
    if field.means is not None:
        means, halves, absolute, rounding = field.means(x0)(radii)
    bounds = field.maxima(x0)(radii[:maxima]) if field.maxima is not None and maxima else None
    tops = [] if bounds is None else certified(radii[:maxima], bounds)
    if field.means is not None:
        return means, halves, absolute, rounding, np.zeros(radii.size, dtype=int), tops, 0
    evaluate = flow._shell_evaluator(field, x0, quad.points)
    size, half = quad.size, quad.size // 2
    means, halves, absolute = np.empty(radii.size), np.empty(radii.size), np.empty(radii.size)
    hits = np.zeros(radii.size, dtype=int)
    step = max(1, flow.SHELL_BLOCK // size)
    for lo in range(0, radii.size, step):
        block = radii[lo:lo + step]
        rows = slice(lo, lo + block.size)
        vals = raw = evaluate(block)
        sums = vals.sum(axis=1)
        if not np.isfinite(sums).all():
            vals, hits[rows] = flow._clipped(vals)
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
        absolute[rows] = np.abs(vals).sum(axis=1) / size
        for i, (r, row) in enumerate(zip(block[:max(0, maxima - lo)], raw)):
            sampled = maximum(r, row, None if bounds is None else float(bounds[1, lo + i]))
            if bounds is None:
                tops.append((*sampled, 0.0))
    depth = size // 8 + 2 if size <= 128 else size.bit_length() + 10  # numpy's pairwise sum
    return means, halves, absolute, np.zeros(radii.size), hits, tops, depth


def average_curves(field, kinds, x0, radii, quad, p):
    x0 = np.asarray(x0, dtype=float).reshape(-1)
    radii = np.asarray(radii, dtype=float)
    k = radii.size if {"M", "S"} & set(kinds) else 0
    shells = [radii[:k]]
    if "V" in kinds:
        ladder, combine = flow._volume_ladder(field.n, p, radii, flow.JACOBI_NODES,
                                              flow.ANNULUS_NODES)
        coarse, combine_coarse = flow._volume_ladder(field.n, p, radii[-2:],
                                                     flow.JACOBI_NODES // 2,
                                                     flow.ANNULUS_NODES // 2)
        shells += [ladder, coarse]
    means, halves, absolute, rounding, hits, maxima, depth = shell_rows(
        field, x0, quad, np.concatenate(shells), k if "M" in kinds else 0)

    def curve(kind, values, half_values, nhits):
        clipped = int(nhits.sum()) / (nhits.size * quad.size) if nhits.size else 0.0
        return flow.AverageCurve(kind, radii, np.asarray(values), clipped,
                                 np.asarray(half_values))

    out = {}
    for kind in kinds:
        if kind == "M":
            values, half_values, errors = np.array(maxima).T
            out[kind] = flow.AverageCurve(kind, radii, values, half_values=half_values)
            if errors[-2:].sum() and p is not None and radii.size > 1:
                spec = KernelSpec(p=p)
                out[kind].quadrature_error = float(errors[-2:].sum() / abs(
                    kernel(spec, radii[-2]) - kernel(spec, radii[-1])))
        elif kind == "S":
            out[kind] = curve(kind, means[:k], halves[:k], hits[:k])
            if p is not None and radii.size > 1:
                out[kind].quadrature_error = flow._quotient_rounding(
                    depth, kernel(KernelSpec(p=p), radii[-2:]), absolute[k - 2:k],
                    rounding[k - 2:k], float(quotients(means[k - 2:k], radii[-2:], p)[0]))
        else:
            end = k + ladder.size
            values = combine(means[k:end])
            fine = quotients(values[-2:], radii[-2:], p)
            gap = fine - quotients(combine_coarse(means[end:]), radii[-2:], p)
            out[kind] = curve(kind, values, combine(halves[k:end]), hits[k:])
            out[kind].quadrature_error = float(np.abs(gap).max(initial=0.0))
            if radii.size > 1:
                out[kind].quadrature_error += flow._quotient_rounding(
                    field.n + 4 + depth, kernel(KernelSpec(p=p), radii[-2:]),
                    combine(absolute[k:end])[-2:], combine(rounding[k:end])[-2:],
                    float(fine[0]))
    return out


def densities(field, x0, p, radii=None, quad=None, kinds=("M", "S", "V")):
    x0 = np.asarray(x0, dtype=float).reshape(-1)
    radii = flow.default_radii() if radii is None else np.asarray(radii, dtype=float)
    quad = quad or flow.sphere_quad(field.n)
    curves = average_curves(field, kinds, x0, radii, quad, p)
    quots = {kind: quotients(curve.values, radii, p) for kind, curve in curves.items()}
    clipped = max((curve.clipped_fraction for curve in curves.values()), default=0.0)
    if clipped > flow.MAX_CLIPPED_FRACTION:
        raise NumericalError(
            f"clipped sample fraction {clipped:.2e} exceeds {flow.MAX_CLIPPED_FRACTION:.0e}")
    noise = max((float(np.abs(quots[kind] - quotients(curve.half_values, radii, p)).max())
                 for kind, curve in curves.items()), default=0.0)
    theta, bracket = {}, {}
    mono_defect = 0.0
    for kind in kinds:
        theta[kind], bracket[kind], defect = density_estimate(quots[kind])
        bracket[kind] += curves[kind].quadrature_error
        mono_defect = max(mono_defect, defect)
    residuals, notes = {}, []
    n = field.n
    if "S" in kinds and "V" in kinds:
        predicted = (n - p + 2.0) / n * theta["V"]
        residuals["spherical_vs_volume"] = abs(theta["S"] - predicted) / max(
            abs(theta["S"]), 1e-30)
    if "M" in kinds and "S" in kinds:
        if p == 2.0:
            residuals["max_vs_spherical"] = abs(theta["M"] - theta["S"]) / max(
                abs(theta["M"]), 1e-30)
        else:
            lo, hi = (theta["M"], theta["S"]) if p > 2.0 else (theta["S"], theta["M"])
            residuals["comparison_lower"] = max(0.0, lo - hi)
            if p > 1.0:
                c = flow.harnack_sup_constant(p, n)
                notes.append(f"comparison constant C(p,n) = {c:.6g}")
                if c < math.inf:
                    residuals["comparison_upper"] = max(0.0, hi - c * lo)
    mono_ok = mono_defect <= 1e-6 + noise
    if not mono_ok:
        notes.append("not F-subharmonic or quadrature too coarse")
    report = flow.DensityReport(
        p=p, n=n, center=x0, radii=radii, theta=theta, bracket=bracket, quotients=quots,
        residuals=residuals, harnack_c=flow.harnack_constant(n), noise_bound=noise,
        clipped_fraction=clipped, monotone_defect=mono_defect, monotone_ok=mono_ok,
        notes=notes)
    report.curves = curves
    return report


def same_floats(a, b) -> bool:
    """a and b equal to the bit: floats by `float.hex`, arrays by bytes,
    containers and dataclasses element by element."""
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        a, b = np.asarray(a), np.asarray(b)
        return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
    if isinstance(a, float) and isinstance(b, float):
        return a.hex() == b.hex() or (math.isnan(a) and math.isnan(b))
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(same_floats(a[k], b[k]) for k in a)
    if isinstance(a, (list, tuple)) and isinstance(b, (list, tuple)):
        return len(a) == len(b) and all(map(same_floats, a, b))
    if dataclasses.is_dataclass(a) and dataclasses.is_dataclass(b):
        return type(a) is type(b) and all(
            same_floats(getattr(a, f.name), getattr(b, f.name)) for f in dataclasses.fields(a))
    return type(a) is type(b) and a == b
