"""Acceptance suite.

Each criterion runs at its stated tolerance and prints one pass/fail
line (run with ``pytest tests/test_acceptance.py -v -s`` to see the
lines as they happen).
"""

import math
import time

import numpy as np

from rieszlab import flow, linalg, radial, riesz, subeq
from rieszlab.cli import catalog_rows

INF = math.inf


def _line(index: int, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {index}: {status} - {detail}", flush=True)
    assert ok, detail


# ---------------------------------------------------------------------------
# 1. closed-form characteristics
# ---------------------------------------------------------------------------


def test_criterion_1_closed_form_characteristics():
    start = time.monotonic()
    rows = catalog_rows(tol=1e-9)
    worst = 0.0
    for family, params, n, computed, closed in rows:
        worst = max(worst, abs(computed - closed))
    elapsed = time.monotonic() - start
    ok = len(rows) >= 12 and worst <= 1e-6 and elapsed < 10.0
    _line(1, ok, f"{len(rows)} catalog rows, worst residual {worst:.2e}, "
                 f"{elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 2. duality and the pair constraint
# ---------------------------------------------------------------------------

CATALOG = [
    ("p", {}, 3),
    ("p-convex", {"p": 2.5}, 4),
    ("laplacian", {}, 5),
    ("sigma-k", {"k": 2}, 4),
    ("pdelta", {"delta": 1.0}, 3),
    ("min-max", {"p": 3.0}, 4),
    ("min-2", {"p": 3.0}, 4),
    ("dual-min-max", {"p": 3.0}, 4),
    ("dual-min-2", {"p": 3.0}, 4),
    ("trace-power", {"k": 4, "q": 3.0}, 4),
    ("subaffine", {}, 3),
    ("largest-convex", {"p": 2.0}, 4),
]


def test_criterion_2_duality_and_pair_constraint():
    failures = []
    for family, params, n, in CATALOG:
        f = subeq.builtin(family, n, **params)
        q, _ = riesz.decreasing_characteristic(f)
        p_dual, _ = riesz.increasing_characteristic(subeq.dual(f))
        if math.isinf(q) != math.isinf(p_dual):
            failures.append(f"{family}: q={q} vs dual p={p_dual}")
        elif math.isfinite(q) and abs(q - p_dual) > 1e-6:
            failures.append(f"{family}: |q - p_dual| = {abs(q - p_dual):.2e}")
        p, _ = riesz.increasing_characteristic(f)
        if math.isfinite(p) and math.isfinite(q):
            if (p - 1.0) * (q - 1.0) < 1.0 - 1e-6:
                failures.append(f"{family}: pair constraint {(p - 1) * (q - 1):.9f}")

    pair = riesz.characteristic_pair(subeq.builtin("min-max", 4, p=3.0))
    if abs((pair.p - 1.0) * (pair.q - 1.0) - 1.0) > 1e-6:
        failures.append("min-max pair equality")

    q_lap, _ = riesz.decreasing_characteristic(subeq.builtin("laplacian", 5))
    if abs(q_lap - 5.0) > 1e-6:
        failures.append(f"q_Laplacian = {q_lap}")

    # membership-form infinity detection
    psd = subeq.builtin("p", 3)
    e = psd.direction()
    if psd.margin(linalg.projector_onto(e)) > subeq.MEMBER_TOL * 2.0:
        failures.append("P_e interior to the PSD cone")
    if riesz.decreasing_characteristic(psd)[0] != INF:
        failures.append("q_P finite")
    sub = subeq.builtin("subaffine", 3)
    if sub.margin(-linalg.projector_onto(e[:3] if e.size != 3 else e)) < -subeq.MEMBER_TOL:
        failures.append("-P_e outside the subaffine cone")
    if riesz.increasing_characteristic(sub)[0] != INF:
        failures.append("p_subaffine finite")

    _line(2, not failures, f"catalog of {len(CATALOG)} families; " +
          ("; ".join(failures) if failures else "dual route, pair constraint, infinity tests"))


# ---------------------------------------------------------------------------
# 3. kernel calculus
# ---------------------------------------------------------------------------


def test_criterion_3_kernel_calculus():
    failures = []
    rng = np.random.default_rng(17)
    n = 4
    # closed-form Hessian from the one-variable jet, to machine precision
    for p in (1.3, 2.0, 3.0, float(n)):
        spec = radial.KernelSpec(p=p, normalization="barred")
        for _ in range(5):
            x = rng.standard_normal(n)
            x *= rng.uniform(0.5, 2.0) / np.linalg.norm(x)
            r = float(np.linalg.norm(x))
            via_jet = linalg.radial_hessian(
                radial.kernel_deriv1(spec, r), radial.kernel_deriv2(spec, r), x
            )
            direct = radial.kernel_hessian(1.0, p, x)
            if np.abs(via_jet - direct).max() > 1e-13 * (1.0 + np.abs(direct).max()):
                failures.append(f"jet Hessian mismatch at p={p}")

        # finite differences against the closed form at 20 random points
        def field(pts, _spec=spec):
            return np.asarray(radial.kernel(_spec, np.linalg.norm(np.asarray(pts), axis=1)))

        for _ in range(20):
            x = rng.standard_normal(n)
            x *= rng.uniform(0.6, 1.8) / np.linalg.norm(x)
            fd = linalg.finite_diff_hessian(field, x)
            exact = radial.kernel_hessian(1.0, p, x)
            rel = np.linalg.norm(fd - exact) / np.linalg.norm(exact)
            if rel > 1e-6:
                failures.append(f"FD mismatch {rel:.2e} at p={p}")

    # kernel Hessians live on the boundary of each catalog family
    radii = (0.1, 1.0, 10.0)
    for family, params, nn, p in [
        ("p-convex", {"p": 2.5}, 4, 2.5),
        ("sigma-k", {"k": 2}, 4, 2.0),
        ("pdelta", {"delta": 1.0}, 3, 1.5),
        ("min-max", {"p": 3.0}, 4, 3.0),
    ]:
        f = subeq.builtin(family, nn, **params)
        rep = radial.radial_harmonic_check(f, theta=1.0, p=p, radii=radii, seed=3)
        if not rep.passed:
            failures.append(f"radial harmonic {family}: {rep.worst_violation:.2e}")

    _line(3, not failures,
          "; ".join(failures) if failures else
          "jet/closed-form agreement, FD oracle 1e-6, boundary margins <= 1e-8")


# ---------------------------------------------------------------------------
# 4. sandwich and structural suites
# ---------------------------------------------------------------------------


def test_criterion_4_structural_suites():
    failures = []
    for family, params, n in CATALOG:
        f = subeq.builtin(family, n, **params)
        if not subeq.check_positivity(f, sample_count=200, seed=0).passed:
            failures.append(f"positivity {family}")
        if not subeq.check_cone(f, sample_count=200, seed=1).passed:
            failures.append(f"cone {family}")
        inv = subeq.check_st_invariance(f, sample_count=60, seed=2)
        if not (inv.passed or inv.skipped):
            failures.append(f"invariance {family}")
        if not subeq.check_maximum_principle(f).passed:
            failures.append(f"maximum principle {family}")
    for variant in (subeq.complex_lift("p-convex", 2, p=1.5),
                    subeq.quaternionic_lift("p", 2)):
        if not subeq.check_st_invariance(variant, sample_count=25, seed=3).passed:
            failures.append(f"invariance {variant.name}")
    if subeq.check_maximum_principle(subeq.builtin("full-space", 3)).passed:
        failures.append("full space should fail the maximum principle")

    for family, params, n, p in [("sigma-k", {"k": 2}, 4, 2.0),
                                 ("pdelta", {"delta": 1.0}, 3, 1.5)]:
        f = subeq.builtin(family, n, **params)
        rep = riesz.sandwich_check(f, p, sample_count=1000, seed=4)
        if not rep.passed:
            failures.append(f"sandwich {family}: {rep.worst_violation:.2e}")

    for delta in (0.25, 1.0):
        if not subeq.check_uniform_ellipticity(delta, 3, sample_count=1000, seed=5).passed:
            failures.append(f"uniform ellipticity delta={delta}")

    _line(4, not failures,
          "; ".join(failures) if failures else
          "positivity/cone/invariance/mp on the catalog, sandwich 10^3, ellipticity 10^3")


# ---------------------------------------------------------------------------
# 5. density suite
# ---------------------------------------------------------------------------


def test_criterion_5_density_suite():
    start = time.monotonic()
    failures = []
    for theta, p, n in [(3.0, 3.0, 4), (1.0, 2.5, 5), (2.0, 1.5, 3)]:
        u = flow.riesz_kernel_field(theta, p, n)
        rep = flow.densities(u, np.zeros(n), p)
        if abs(rep.theta["M"] - theta) > 1e-3 or abs(rep.theta["S"] - theta) > 1e-3:
            failures.append(f"theta M/S for ({theta},{p},{n})")
        target_v = theta * n / (n - p + 2.0)
        if abs(rep.theta["V"] - target_v) > 0.01 * abs(target_v):
            failures.append(f"theta V for ({theta},{p},{n})")
        if rep.residuals["spherical_vs_volume"] > 0.01:
            failures.append(f"S/V relation for ({theta},{p},{n})")
        if not rep.monotone_ok or len(rep.quotients["M"]) < 5:
            failures.append(f"quotient monotonicity for ({theta},{p},{n})")

    u = flow.log_modulus_coordinate_field(2)
    rep = flow.densities(u, np.zeros(4), 2.0)
    for kind in ("M", "S", "V"):
        if abs(rep.theta[kind] - 1.0) > 0.01:
            failures.append(f"log-modulus theta {kind} = {rep.theta[kind]:.4f}")
    if rep.residuals["max_vs_spherical"] > 0.01 or rep.residuals["spherical_vs_volume"] > 0.01:
        failures.append("log-modulus equalities")
    if not rep.monotone_ok:
        failures.append("log-modulus monotonicity")

    elapsed = time.monotonic() - start
    if elapsed >= 60.0:
        failures.append(f"runtime {elapsed:.0f}s")
    _line(5, not failures,
          "; ".join(failures) if failures else
          f"kernel and log-modulus densities within stated tolerances, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 6. mass density
# ---------------------------------------------------------------------------


def test_criterion_6_mass_density():
    u = flow.newtonian_potential_field(3.0, [(1.0, np.zeros(3))], 3)
    rep = flow.mass_density(u, np.zeros(3), 3.0, radii=0.5 ** np.arange(1, 8))
    four_pi = 4.0 * math.pi
    spread = np.abs(rep.ball_masses / four_pi - 1.0).max()
    ok = (
        spread <= 0.02
        and abs(rep.theta_mass - four_pi) <= 0.02 * four_pi
        and rep.spherical_residual <= 0.02
    )
    _line(6, ok, f"flux masses within {spread:.2%} of 4pi, "
                 f"theta = {rep.theta_mass:.4f}, relation residual {rep.spherical_residual:.2%}")


# ---------------------------------------------------------------------------
# 7. tangent experiments
# ---------------------------------------------------------------------------


def test_criterion_7_tangent_experiments():
    failures = []
    radii = 0.5 ** np.arange(11)   # down to 2^-10

    # radial perturbation flows to the kernel uniformly on the annulus
    u = flow.plus_quadratic_field(flow.riesz_kernel_field(1.0, 3.0, 4), 2.0)
    kernel_tangent = flow.riesz_kernel_field(1.0, 3.0, 4)
    rec = flow.tangent_experiment(u, flow.FlowSpec(p=3.0, radii=radii), kernel_tangent,
                                  metric="sup", tol=1e-3)
    if not rec.converged:
        failures.append("radial perturbation did not converge")

    # two point masses flow to the kernel of the mass at the origin
    masses = [(2.0, np.zeros(4)), (1.0, np.array([0.9, 0.0, 0.0, 0.0]))]
    potential = flow.newtonian_potential_field(3.0, masses, 4)
    potential_tangent = flow.riesz_kernel_field(2.0, 3.0, 4)
    rec = flow.tangent_experiment(potential, flow.FlowSpec(p=3.0, radii=radii),
                                  potential_tangent, metric="l1", tol=1e-2)
    if not rec.converged:
        failures.append("two-mass potential did not converge")

    # smooth fields flow to zero
    smooth = flow.quadratic_field(1.0, 4)
    rec = flow.tangent_experiment(smooth, flow.FlowSpec(p=3.0, radii=radii),
                                  flow.zero_field(4), metric="sup", tol=1e-3)
    if not rec.converged:
        failures.append("smooth field did not converge to zero")

    # the partial kernel is exactly flow invariant and sits on the
    # min-max boundary off its singular slice
    partial = flow.partial_kernel_field(3.0, 2, 4)
    if flow.flow_invariance_defect(partial, 3.0) > 1e-12:
        failures.append("partial kernel not flow invariant")
    mm = subeq.builtin("min-max", 4, p=3.0)
    rng = np.random.default_rng(23)
    for _ in range(40):
        x = rng.standard_normal(4)
        margin = mm.margin(flow.partial_kernel_hessian(3.0, 2, x))
        if margin < -1e-8 or abs(margin) > 1e-8:
            failures.append(f"partial kernel margin {margin:.2e}")
            break

    # averages of every computed tangent are radial harmonics
    for tangent, p, kinds in [
        (kernel_tangent, 3.0, ("M", "S", "V")),
        (potential_tangent, 3.0, ("M", "S", "V")),
        (flow.zero_field(4), 3.0, ("M", "S", "V")),
        (partial, 3.0, ("M",)),
        (flow.log_modulus_coordinate_field(2), 2.0, ("M", "S", "V")),
    ]:
        rep = flow.averages_of_tangent_check(tangent, p, kinds=kinds)
        if not rep.passed:
            failures.append(f"averages of tangent {tangent.name}: {rep.worst_violation:.2e}")

    # the two-dimensional comparison constant
    if abs(flow.harnack_constant(2) - (math.e + 1.0) / (math.e - 1.0)) > 1e-12:
        failures.append("harnack constant closed form")
    if abs(flow.harnack_constant(2) - 2.1640) > 1e-4:
        failures.append(f"harnack constant value {flow.harnack_constant(2):.5f}")

    _line(7, not failures,
          "; ".join(failures) if failures else
          "flows converge, partial kernel exactly invariant, tangent averages harmonic")


# ---------------------------------------------------------------------------
# 8. Hoelder suite
# ---------------------------------------------------------------------------


def test_criterion_8_hoelder_suite():
    failures = []
    p, alpha, n = 1.5, 0.5, 3
    a = np.array([1.0, 0.0, 0.0])
    pure = flow.riesz_kernel_field(1.0, p, n)
    shifted = flow.riesz_kernel_field(1.0, p, n, center=a)
    fields = [("|x|^a", pure, 0.5 ** np.arange(9)),
              ("max", flow.max_of_fields(pure, shifted), 0.5 ** np.arange(17, 25))]

    rng = np.random.default_rng(31)
    for label, u, deep_radii in fields:
        # two-point quotients never exceed the closed-form bound
        rho, big_r = 0.3, 1.0
        bound = flow.holder_estimate(u, np.zeros(n), rho, big_r, p)
        pts = rng.standard_normal((1000, n))
        pts = rho * pts / np.linalg.norm(pts, axis=1)[:, None]
        pts *= rng.uniform(0.0, 1.0, 1000)[:, None] ** (1.0 / n)
        vals = u.values(pts)
        ii = rng.integers(0, 1000, 2000)
        jj = rng.integers(0, 1000, 2000)
        keep = ii != jj
        quot = np.abs(vals[ii[keep]] - vals[jj[keep]]) / np.linalg.norm(
            pts[ii[keep]] - pts[jj[keep]], axis=1
        ) ** alpha
        if quot.max() > bound:
            failures.append(f"{label}: quotient {quot.max():.3f} above bound {bound:.3f}")

        # infinitesimal Hoelder norm equals the max density
        ih = flow.infinitesimal_holder(u, np.zeros(n), p, radii=deep_radii)
        rep = flow.densities(u, np.zeros(n), p, radii=deep_radii, kinds=("M",))
        if abs(ih - rep.theta["M"]) > 1e-3:
            failures.append(f"{label}: |holder - theta| = {abs(ih - rep.theta['M']):.2e}")

    # flow seminorm bound along the dyadic schedule
    rec = flow.tangent_experiment(pure, flow.FlowSpec(p=p), pure, metric="sup", tol=1e-3)
    if not rec.holder_bound_ok:
        failures.append("flow seminorm bound")

    # ray limit equivalence: (u(y) - u(0)) / |y|^alpha -> theta
    rays = rng.standard_normal((20, n))
    rays /= np.linalg.norm(rays, axis=1)[:, None]
    vals = (pure.values(1e-6 * rays) - pure.at(np.zeros(n))) / 1e-6**alpha
    if np.abs(vals - 1.0).max() > 1e-3:
        failures.append("ray limit for the kernel")
    max_field = fields[1][1]
    vals = (max_field.values(1e-8 * rays) - max_field.at(np.zeros(n))) / 1e-8**alpha
    if np.abs(vals - 0.0).max() > 1e-3:
        failures.append("ray limit for the max field")

    _line(8, not failures,
          "; ".join(failures) if failures else
          "two-point bound, infinitesimal norm = density, flow bound, ray limits")


# ---------------------------------------------------------------------------
# 9. density decay and upper semicontinuity
# ---------------------------------------------------------------------------


def test_criterion_9_density_decay():
    a = np.array([1.0, 0.0, 0.0])
    u = flow.newtonian_potential_field(2.0, [(1.0, np.zeros(3)), (1.0, a)], 3)
    path = [np.array([0.0, 0.0, 1.0]) * 2.0 ** (-k) for k in range(2, 11)]
    rep = flow.density_decay_check(u, np.zeros(3), path, 2.0)
    deep = rep.path_thetas[rep.path_norms <= 2.0**-8]
    ok = (
        abs(rep.center_theta - 1.0) <= 0.01
        and deep.size > 0
        and np.all(deep <= 1e-3)
        and rep.usc_ok
    )
    _line(9, ok, f"center theta {rep.center_theta:.4f}, "
                 f"deep path thetas <= {deep.max():.1e}, usc {rep.usc_ok}")


# ---------------------------------------------------------------------------
# 10. one-variable suite
# ---------------------------------------------------------------------------


def test_criterion_10_one_variable_suite():
    failures = []
    grid = np.geomspace(0.05, 4.0, 48)

    for p in (1.5, 2.0, 3.0):
        # boundary jets of the barred kernel are members with exact equality
        for t in (0.25, 1.0, 4.0):
            jet = radial.OneVarJet(t=t, lam=t ** (1.0 - p), a=(1.0 - p) * t**-p)
            if abs(jet.a + (p - 1.0) * jet.lam / t) > 1e-15:
                failures.append(f"jet equality p={p}")
            if not radial.rp_up_membership(p, jet):
                failures.append(f"jet membership p={p}")

        spec = radial.KernelSpec(p=p)
        profiles = {
            "kernel": radial.kernel_profile(p),
            "kernel+r2": radial.RadialProfile(
                fn=lambda r, _s=spec: np.asarray(radial.kernel(_s, r)) + np.asarray(r) ** 2
            ),
            "max(kernel,c)": radial.RadialProfile(
                fn=lambda r, _s=spec: np.maximum(
                    np.asarray(radial.kernel(_s, r)), -0.5 if p >= 2 else 0.5
                )
            ),
        }
        for label, prof in profiles.items():
            if not radial.kp_convexity_test(prof, p, grid).passed:
                failures.append(f"convexity {label} p={p}")
            # quotient double monotonicity on nested radius pairs
            nested = radial.geometric_radii(1.0, 8)
            quots = radial.quotients(prof(nested), nested, p)
            if np.any(np.diff(quots) > 1e-9):
                failures.append(f"double monotonicity {label} p={p}")
            # limit forms: the offset from theta * K shrinks monotonically
            radii = radial.geometric_radii(0.125, 14)
            theta, _ = radial.one_var_density(prof, p, radii)
            kvals = np.asarray(radial.kernel(spec, radii))
            values = np.asarray(prof(radii))
            if p < 2.0:
                psi0 = float(prof(np.asarray([1e-30]))[0])
                ratios = (values - psi0) / kvals
                if np.any(np.diff(ratios) > 1e-9) or abs(ratios[-1] - theta) > 1e-5:
                    failures.append(f"limit form {label} p={p}")
            else:
                offsets = np.abs(values - theta * kvals)
                if np.any(np.diff(offsets) > 1e-9):
                    failures.append(f"limit form {label} p={p}")

    # increasing / decreasing dichotomy on the stated examples
    cls_grid = np.linspace(0.05, 0.95, 48)
    checks = [
        (radial.RadialProfile(fn=lambda r: np.asarray(r, dtype=float)), radial.INCREASING),
        (radial.RadialProfile(fn=lambda r: 1.0 / np.asarray(r, dtype=float), r_max=1.0),
         radial.DECREASING_CONVEX),
        (radial.RadialProfile(fn=lambda r: (np.asarray(r, dtype=float) - 0.4) ** 2),
         radial.DECREASING_THEN_INCREASING),
    ]
    for prof, expected in checks:
        if radial.classify_profile(prof, cls_grid).kind != expected:
            failures.append(f"classification {expected}")

    _line(10, not failures,
          "; ".join(failures) if failures else
          "memberships, convexity, double monotonicity, limit forms, dichotomy")
