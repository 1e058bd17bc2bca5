"""Correctness oracles for benchmark operations.

Each oracle returns None when a result is right and a one-line reason
when it is not.  Results are checked against the paper's closed forms
and identities within tolerances, never against golden bytes, so that
ulp-level moves (another eigensolver, another BLAS) do not count as
failures while a wrong answer does.
"""

from __future__ import annotations

import csv
import io
import json
import math

import numpy as np

# Characteristics: the solver bisects to 1e-9, so 1e-7 leaves room for
# rounding but rejects any wrong closed form.
CHARX_TOL = 1e-7
# Densities: the reported bracket plus the half-sample noise bound cover
# truncation and sampling error, but not the fixed Gauss-Legendre rule
# behind volume averages of singular fields (about 1e-7 relative at
# n = 3), so a relative slack of 1e-6 is added.
DENSITY_RTOL = 1e-6
# Mass density: mass_density differentiates with a backward difference of
# relative step 1e-3, which biases the estimate by about (p - 1) * 5e-4.
MASS_RTOL = 5e-3
MASS_RESIDUAL_MAX = 1e-2
# Adjacency and containment in transitivity chains are tested against the
# sample's angle tolerance with this much rounding slack.
ANGLE_SLACK = 1e-12


def close(value: float, expected: float, tol: float, what: str) -> str | None:
    if math.isinf(expected):
        if value == expected:
            return None
        return f"{what} = {value!r}, expected {expected!r}"
    if abs(value - expected) <= tol:
        return None
    return f"{what} = {value!r}, expected {expected!r} within {tol:g}"


def characteristic(value: float, closed: float, what: str = "p") -> str | None:
    return close(float(value), float(closed), CHARX_TOL, what)


def property_report(report, expect_pass: bool) -> str | None:
    """A PropertyReport must run, carry a consistent flag and match the
    expected outcome (only designed failures are expected to fail)."""
    if report.skipped:
        return f"{report.name}: skipped"
    consistent = bool(report.passed) == bool(report.worst_violation <= report.tolerance)
    if not consistent:
        return f"{report.name}: pass flag disagrees with worst_violation"
    if bool(report.passed) != expect_pass:
        return (f"{report.name}: pass={bool(report.passed)}, expected {expect_pass} "
                f"(worst {report.worst_violation:.3e})")
    return None


def density_values(theta: dict, bracket: dict, noise: float, monotone_ok: bool,
                   expected: dict) -> str | None:
    if not monotone_ok:
        return "monotone_ok is false"
    for kind, want in expected.items():
        slack = float(bracket[kind]) + float(noise) + DENSITY_RTOL * (1.0 + abs(want))
        reason = close(float(theta[kind]), want, slack, f"theta_{kind}")
        if reason:
            return reason
    return None


def density_report(report, expected: dict) -> str | None:
    """DensityReport: each requested density within bracket plus noise of
    the field's known density, with monotone quotients."""
    return density_values(report.theta, report.bracket, report.noise_bound,
                          report.monotone_ok, expected)


def mass_values(theta_mass: float, residual: float, expected: float) -> str | None:
    if not residual <= MASS_RESIDUAL_MAX:
        return f"spherical_residual = {residual!r} above {MASS_RESIDUAL_MAX:g}"
    return close(float(theta_mass), expected, MASS_RTOL * abs(expected), "theta_mass")


def mass_report(report, expected: float) -> str | None:
    return mass_values(report.theta_mass, report.spherical_residual, expected)


def expected_mass_density(theta: float, p: float, n: int) -> float:
    """Flux-formula density theta (p - 2) |S^(n-1)| / alpha(n - p) of theta K_p, p > 2."""
    area = 2.0 * math.pi ** (n / 2.0) / math.gamma(n / 2.0)
    k = n - p
    alpha = math.pi ** (k / 2.0) / math.gamma(k / 2.0 + 1.0)
    return theta * (p - 2.0) * area / alpha


def tangent_record(record, expect_holder: bool) -> str | None:
    if not record.converged:
        return f"no convergence: last distance {float(record.distances[-1]):.3e}"
    if expect_holder and not record.holder_bound_ok:
        return "Hoelder seminorms exceed the max-density bound"
    return None


def transitivity(result, planes: list, angle_tol: float, x, y) -> str | None:
    """`found` with a certified chain: the end planes contain x and y, and
    consecutive planes meet at an angle within the sample tolerance."""
    if not result.found:
        return f"transitivity not found: {result.reason}"
    chain = list(result.chain)
    if not chain:
        return "empty chain"
    for point, idx in ((x, chain[0]), (y, chain[-1])):
        w = planes[idx]
        ph = np.asarray(point, dtype=float) / np.linalg.norm(point)
        if np.linalg.norm(ph - w @ (w.T @ ph)) > angle_tol + ANGLE_SLACK:
            return f"plane {idx} does not contain its endpoint"
    for i, j in zip(chain, chain[1:]):
        s = np.linalg.svd(planes[i].T @ planes[j], compute_uv=False).max()
        if np.arccos(min(1.0, s)) > angle_tol + ANGLE_SLACK:
            return f"planes {i} and {j} are not adjacent"
    return None


# ---------------------------------------------------------------------------
# command-line reports
# ---------------------------------------------------------------------------


def cli_charx(text: str, closed: float) -> str | None:
    rec = json.loads(text)
    return (characteristic(float(rec["p"]), closed)
            or characteristic(float(rec["closed_form"]), closed, "closed_form"))


def cli_table(text: str, rows: list) -> str | None:
    """CSV catalog: every row within CHARX_TOL of the benchmark's own closed
    form (the CLI prints 9 significant digits, hence the relative term)."""
    table = list(csv.DictReader(io.StringIO(text)))
    if len(table) != len(rows):
        return f"{len(table)} catalog rows, expected {len(rows)}"
    for got, (family, closed) in zip(table, rows):
        if got["family"] != family:
            return f"row family {got['family']!r}, expected {family!r}"
        tol = CHARX_TOL + 1e-8 * abs(closed)
        reason = (close(float(got["computed_p"]), closed, tol, f"{family} computed_p")
                  or close(float(got["closed_form_p"]), closed, tol, f"{family} closed_form_p"))
        if reason:
            return reason
    return None


def cli_verify(text: str, expected: dict) -> str | None:
    rec = json.loads(text)
    got = {r["property"]: r for r in rec["reports"]}
    if set(got) != set(expected):
        return f"reports {sorted(got)}, expected {sorted(expected)}"
    for name, want in expected.items():
        if got[name]["skipped"] or bool(got[name]["pass"]) != want:
            return f"{name}: pass={got[name]['pass']}, expected {want}"
    return None


def cli_density(text: str, expected: dict) -> str | None:
    rec = json.loads(text)
    return density_values(rec["theta"], rec["bracket"], rec["noise_bound"],
                          rec["monotone_ok"], expected)


def cli_mass(text: str, expected: float) -> str | None:
    rec = json.loads(text)
    return mass_values(float(rec["theta_mass"]), float(rec["spherical_residual"]), expected)


def cli_flow(text: str) -> str | None:
    rec = json.loads(text)
    if not rec["converged"]:
        return f"no convergence: last distance {rec['distances'][-1]}"
    return None


def cli_grassmann(text: str) -> str | None:
    trans = json.loads(text)["transitivity"]
    if not trans["found"] or not trans["chain"]:
        return f"transitivity not found: {trans['reason']}"
    return None


def cli_radial(text: str, kind: str, theta: float) -> str | None:
    rec = json.loads(text)
    if rec["classification"]["kind"] != kind:
        return f"classification {rec['classification']['kind']!r}, expected {kind!r}"
    if not rec["kp_convexity"]["pass"]:
        return "kp-convexity failed"
    dens = rec["density"]
    slack = float(dens["bracket"]) + DENSITY_RTOL * (1.0 + abs(theta))
    return close(float(dens["theta"]), theta, slack, "theta")


def cli_run(returncode: int, stdout: str, expect_rc: int, parse) -> str | None:
    """Exit code first, then a stdout that parses and passes `parse`."""
    if returncode != expect_rc:
        return f"exit code {returncode}, expected {expect_rc}"
    try:
        return parse(stdout)
    except (ValueError, KeyError, TypeError) as exc:
        return f"stdout does not parse: {exc!r}"
