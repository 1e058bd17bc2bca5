"""The benchmark's workloads: generated inputs, operations and oracles.

A workload turns a seed into a fixed list of operations.  An operation
is one library call, or one CLI command, on one generated input, paired
with an oracle from `oracles`.  Each workload's reason for being in the
benchmark sits beside its definition (`WHY`), and `BENCHMARK.json` repeats
it.

Only the public API of `rieszlab` is used, so the workloads keep working
when the eigensolver, the margins or the imports are rebuilt behind it.
"""

from __future__ import annotations

import math
import os
import random
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import oracles

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
LAUNCHER = Path(__file__).resolve().parent / "launch.py"


@dataclass
class Op:
    label: str
    call: Callable[[], object]
    check: Callable[[object], str | None]


@dataclass(frozen=True)
class Workload:
    why: str
    build: Callable  # (seed, tiny, tracer) -> list[Op]
    # Operations run in child processes: peak memory is theirs.
    children: bool = False
    # A timed run makes at least this many passes over the operations;
    # with fewer than 40 operations in a pass, two give the tail latency
    # ten samples beyond its percentile.
    min_passes: int = 1


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


# ---------------------------------------------------------------------------
# closed forms (the oracle for every characteristic)
# ---------------------------------------------------------------------------


def closed_form(family: str, n: int, params: dict) -> float:
    """Increasing characteristic of a built-in family, from the paper's catalog."""
    if family == "p":
        return 1.0
    if family in ("p-convex", "min-max", "min-2", "largest-convex"):
        return float(params["p"])
    if family == "sigma-k":
        return n / params["k"]
    if family == "pdelta":
        d = params["delta"]
        return n * (1.0 + d) / (n + d)
    if family == "trace-power":
        return 1.0 + (params["k"] - 1.0) ** (1.0 / params["q"])
    if family == "subaffine":
        return math.inf
    raise KeyError(family)


def regularized_closed_form(base: float, n: int, delta: float) -> float:
    return base * n * (1.0 + delta) / (n + delta * base)


LIFT_MULTIPLIER = {"complex": 2.0, "quaternionic": 4.0}

# The paper's 17-row catalog, as the `table` command prints it.
CATALOG = [
    ("sigma-k", {"k": 2}, 4), ("sigma-k", {"k": 3}, 6), ("sigma-k", {"k": 1}, 5),
    ("p-convex", {"p": 1.0}, 4), ("p-convex", {"p": 2.5}, 5), ("p-convex", {"p": 4.0}, 4),
    ("pdelta", {"delta": 0.5}, 3), ("pdelta", {"delta": 1.0}, 3), ("pdelta", {"delta": 3.0}, 3),
    ("trace-power", {"k": 4, "q": 3.0}, 4), ("trace-power", {"k": 3, "q": 5.0}, 4),
    ("min-max", {"p": 3.0}, 4), ("min-2", {"p": 3.0}, 4), ("largest-convex", {"p": 2.0}, 4),
]
CATALOG_EXTRA = [  # label, closed form
    ("regularized(p-convex)", regularized_closed_form(2.0, 4, 1.0)),
    ("complex(p-convex)", 2.0),
    ("quaternionic(p)", 4.0),
]


def random_params(family: str, n: int, rng: np.random.Generator) -> dict:
    """Seeded parameters inside each family's valid range, kept where both
    characteristics are infinite or below the solver's bracket limit of
    128: p-convex with p in (n - 1, n) and min-max or largest-convex with p
    near 1 have finite decreasing characteristics far above it."""
    if family in ("p", "subaffine"):
        return {}
    if family == "p-convex":
        return {"p": float(rng.uniform(1.0, n - 1.0))}
    if family in ("min-max", "min-2", "dual-min-max", "dual-min-2"):
        return {"p": float(rng.uniform(1.5, 6.0))}
    if family == "largest-convex":
        return {"p": float(rng.uniform(1.5, n - 1.0))}
    if family == "sigma-k":
        # not drawn: a sigma-k margin costs in proportion to k
        return {"k": (n + 1) // 2}
    if family == "pdelta":
        return {"delta": float(rng.uniform(0.25, 4.0))}
    if family == "trace-power":
        return {"k": int(rng.integers(1, n + 1)), "q": float(rng.uniform(1.0, 5.0))}
    raise KeyError(family)


def _sub_seed(rng: np.random.Generator) -> int:
    return int(rng.integers(0, 2**31 - 1))


# ---------------------------------------------------------------------------
# cli-cold
# ---------------------------------------------------------------------------

CLI_COLD_WHY = ("What a user pays per README command: interpreter start and import "
                "dominate, the solves take milliseconds.")

README_COMMANDS = [  # argv, expected exit code, stdout oracle
    ("charx sigma-k --n 4 --k 2", 0, lambda t: oracles.cli_charx(t, 2.0)),
    ("charx p-convex --n 3 --p 1 --variant complex", 0, lambda t: oracles.cli_charx(t, 2.0)),
    ("table --format csv", 0, lambda t: oracles.cli_table(t, [
        *[(f, closed_form(f, n, prm)) for f, prm, n in CATALOG], *CATALOG_EXTRA])),
    ("verify pdelta --n 3 --delta 1 --suite ue", 0,
     lambda t: oracles.cli_verify(t, {"uniform-ellipticity": True})),
    ("verify full-space --suite mp", 2,
     lambda t: oracles.cli_verify(t, {"maximum-principle": False})),
    ("density riesz --theta 3 --p 3 --n 4", 0,
     lambda t: oracles.cli_density(t, {"M": 3.0, "S": 3.0, "V": 3.0 * 4 / 3})),
    ("density newtonian --p 3 --n 3 --mass", 0,
     lambda t: oracles.cli_mass(t, oracles.expected_mass_density(1.0, 3.0, 3))),
    ("flow radial-perturbed --p 3 --n 4 --candidate riesz", 0, oracles.cli_flow),
    ("grassmann g2r3 --transitivity --planes 512 --angle-tol 0.15", 0, oracles.cli_grassmann),
    ("radial kernel --p 3", 0, lambda t: oracles.cli_radial(t, "increasing", 1.0)),
]


class CliCommand:
    """One README command in a fresh interpreter.  Repeats within a run
    must print byte-identical stdout.  When the tracer is active the
    command runs through the launcher under `-X importtime`, which reports
    start-up and per-layer numbers on stderr."""

    def __init__(self, argv: list[str], expect_rc: int, parse, tracer):
        self.argv = argv + ["--no-timestamp"]
        self.expect_rc = expect_rc
        self.parse = parse
        self.tracer = tracer
        self.first_stdout = None

    def __call__(self):
        if self.tracer is not None and self.tracer.active:
            cmd = [sys.executable, "-X", "importtime", str(LAUNCHER), *self.argv]
        else:
            cmd = [sys.executable, "-m", "rieszlab.cli", *self.argv]
        return subprocess.run(cmd, capture_output=True, text=True, env=child_env(),
                              cwd=ROOT, timeout=120)

    def check(self, proc) -> str | None:
        if self.tracer is not None and self.tracer.active:
            self.tracer.absorb_child(proc.stderr)
        reason = oracles.cli_run(proc.returncode, proc.stdout, self.expect_rc, self.parse)
        if reason:
            return reason
        if self.first_stdout is None:
            self.first_stdout = proc.stdout
        elif proc.stdout != self.first_stdout:
            return "stdout differs from an earlier run of the same command"
        return None


def build_cli_cold(seed: int, tiny: bool, tracer) -> list[Op]:
    # The commands are the README's, verbatim.  The seed only orders them:
    # the first stays first, so that first_result_s always times the same one.
    commands = README_COMMANDS[:2] if tiny else list(README_COMMANDS)
    rest = commands[1:]
    random.Random(seed).shuffle(rest)
    ops = []
    for text, rc, parse in [commands[0], *rest]:
        command = CliCommand(text.split(), rc, parse, tracer)
        ops.append(Op(text, command, command.check))
    return ops


# ---------------------------------------------------------------------------
# charx-bisect
# ---------------------------------------------------------------------------

CHARX_WHY = ("Serial bisection chains of single-matrix margins: coordinate pencils are "
             "diagonal, so per-call overhead dominates; random directions give dense pencils.")


def build_charx_bisect(seed: int, tiny: bool, tracer) -> list[Op]:
    from rieszlab import riesz, subeq

    rng = np.random.default_rng([seed, 1])
    cases = []  # label, subequation, closed form, extra characteristic_pair kwargs

    for family, params, n in CATALOG:
        cases.append((f"catalog {family} n={n}", subeq.builtin(family, n, **params),
                      closed_form(family, n, params), {}))
    (reg_label, reg_closed), (c_label, c_closed), (q_label, q_closed) = CATALOG_EXTRA
    cases.append((reg_label, subeq.uniform_elliptic_regularization(
        subeq.builtin("p-convex", 4, p=2.0), 1.0), reg_closed, {}))
    cases.append((c_label, subeq.complex_lift("p-convex", 3, p=1.0), c_closed, {}))
    cases.append((q_label, subeq.quaternionic_lift("p", 2), q_closed, {}))

    # Families are fixed per slot and the seed draws their parameters, so
    # the work in a pass is about the same for every seed.
    for family, n in (("sigma-k", 6), ("min-max", 6), ("p-convex", 9), ("trace-power", 9),
                      ("pdelta", 12), ("largest-convex", 12), ("sigma-k", 16), ("min-2", 16)):
        params = random_params(family, n, rng)
        cases.append((f"builtin {family} n={n}", subeq.builtin(family, n, **params),
                      closed_form(family, n, params), {}))

    # complex and quaternionic lifts up to n = 16
    for variant, family, m in (("complex", "p-convex", 3), ("complex", "sigma-k", 5),
                               ("complex", "pdelta", 8), ("quaternionic", "p", 2),
                               ("quaternionic", "min-max", 3), ("quaternionic", "sigma-k", 4)):
        params = random_params(family, m, rng)
        lift = subeq.complex_lift if variant == "complex" else subeq.quaternionic_lift
        cases.append((f"{variant} {family} m={m}", lift(family, m, **params),
                      LIFT_MULTIPLIER[variant] * closed_form(family, m, params), {}))

    # random-direction cross-checks: dense pencils.  Parameters keep the
    # characteristic above 1: at exactly 1 the pencil starts on the boundary
    # and rounding in a dense spectrum makes the solver raise "no sign
    # change" for about a third of the directions.
    for family, n, directions in (("sigma-k", 4, 2), ("p-convex", 6, 2), ("pdelta", 8, 2),
                                  ("sigma-k", 10, 1), ("p-convex", 12, 1), ("pdelta", 16, 1)):
        params = random_params(family, n, rng)
        if family == "p-convex":
            params["p"] = float(rng.uniform(1.5, n - 1.0))
        cases.append((f"directions {family} n={n}", subeq.builtin(family, n, **params),
                      closed_form(family, n, params),
                      {"check_directions": directions, "seed": _sub_seed(rng)}))

    if tiny:
        cases = cases[:3] + cases[-6:-5]

    ops = []
    for label, f, closed, kwargs in cases:
        def call(f=f, kwargs=kwargs):
            return riesz.characteristic_pair(f, **kwargs)

        # characteristic_pair runs the dual cross-check itself and raises on
        # disagreement, which the harness counts as a failed operation.
        ops.append(Op(label, call, lambda pair, closed=closed: oracles.characteristic(pair.p, closed)))

    # geometric subequations: margins without the eigensolver
    for n, p in ((5, 2), (6, 3), (6, 2), (7, 3)) if not tiny else ((4, 2),):
        sample = subeq.sample_grassmannian(n, p, count=64 if tiny else 256, seed=_sub_seed(rng))
        f = subeq.geometric(sample)
        ops.append(Op(f"geometric g{p}r{n}", lambda f=f: riesz.increasing_characteristic(f)[0],
                      lambda value, p=p: oracles.characteristic(value, float(p))))
    return ops


# ---------------------------------------------------------------------------
# verify-suites
# ---------------------------------------------------------------------------

VERIFY_WHY = ("Property suites over many independent dense samples: the throughput use "
              "of margins and eigensolves, where batching applies.")

# Suites with their two fixed families and the samples per operation,
# scaled so that each takes roughly 0.05 to 0.3 s with the numpy Jacobi
# solver at n = 4, 8 and 16.  Fixed families keep the work per pass the
# same for every seed; the seed draws parameters and samples.
SUITES = {
    "positivity": (("sigma-k", "min-2"), {4: 14, 8: 2, 16: 1}),
    "cone": (("p-convex", "trace-power"), {4: 8, 8: 2, 16: 1}),
    "invariance": (("pdelta", "largest-convex"), {4: 20, 8: 3, 16: 1}),
    "monotonicity": (("min-max", "sigma-k"), {4: 5, 8: 1}),
    "ue": ((None, None), {4: 12, 8: 4, 16: 1}),
    "sandwich": (("p-convex", "pdelta"), {4: 2, 8: 2}),
}


def build_verify_suites(seed: int, tiny: bool, tracer) -> list[Op]:
    from rieszlab import riesz, subeq

    rng = np.random.default_rng([seed, 2])
    ops = []

    def add(label, call, expect_pass=True):
        ops.append(Op(label, call, lambda rep: oracles.property_report(rep, expect_pass)))

    checks = {"positivity": subeq.check_positivity, "cone": subeq.check_cone,
              "invariance": subeq.check_st_invariance,
              "monotonicity": subeq.margin_monotonicity_check}
    dims = (4,) if tiny else (4, 8, 16)
    for n in dims:
        for suite, (families, counts) in SUITES.items():
            if n not in counts:
                continue
            for family in families[:1] if tiny else families:
                count = 3 if tiny else counts[n]
                s = _sub_seed(rng)
                if suite == "ue":
                    delta = float(rng.uniform(0.25, 4.0))
                    add(f"ue n={n}", lambda d=delta, n=n, c=count, s=s:
                        subeq.check_uniform_ellipticity(d, n, c, s))
                    continue
                params = random_params(family, n, rng)
                f = subeq.builtin(family, n, **params)
                label = f"{suite} {family} n={n}"
                if suite == "sandwich":
                    p = closed_form(family, n, params)
                    add(label, lambda f=f, p=p, c=count, s=s: riesz.sandwich_check(f, p, c, s))
                else:
                    add(label, lambda check=checks[suite], f=f, c=count, s=s: check(f, c, s))

    # lifts: U(n) and Sp(n) rotations go through expm
    lifts = [("complex", 2, 12), ("quaternionic", 1, 12)] if tiny else [
        ("complex", 2, 12), ("quaternionic", 1, 12), ("complex", 4, 5),
        ("quaternionic", 2, 5), ("complex", 8, 1), ("quaternionic", 4, 1)]
    for variant, m, count in lifts:
        family = "sigma-k" if variant == "complex" else "pdelta"
        params = random_params(family, m, rng)
        lift = subeq.complex_lift if variant == "complex" else subeq.quaternionic_lift
        f = lift(family, m, **params)
        s = _sub_seed(rng)
        add(f"invariance {variant} {family} n={f.n}",
            lambda f=f, c=3 if tiny else count, s=s: subeq.check_st_invariance(f, c, s))

    # maximum principle: holds for every cone subequation except the full space,
    # whose failure is by design
    for family in ("sigma-k", "pdelta"):
        n = int(rng.integers(2, 17))
        f = subeq.builtin(family, n, **random_params(family, n, rng))
        add(f"mp {family} n={n}", lambda f=f: subeq.check_maximum_principle(f))
    full = subeq.builtin("full-space", int(rng.integers(2, 17)))
    add(f"mp full-space n={full.n}", lambda: subeq.check_maximum_principle(full),
        expect_pass=False)
    return ops


# ---------------------------------------------------------------------------
# density-flow
# ---------------------------------------------------------------------------

DENSITY_WHY = ("Vectorized field evaluation on sphere point sets and plane-graph memory, "
               "with no eigensolves: the bypass for solver and margin changes.")

TRANSITIVITY_ANGLE_TOL = 0.15


def build_density_flow(seed: int, tiny: bool, tracer) -> list[Op]:
    from rieszlab import flow, radial, subeq

    rng = np.random.default_rng([seed, 3])
    ops = []
    dims = (3,) if tiny else (3, 4, 6, 8)
    quads = {n: flow.sphere_quad(n, 512) if tiny else flow.sphere_quad(n) for n in dims}

    for n in dims:
        p = float(rng.uniform(2.25, min(n, 3.75)))
        theta, theta2 = (float(t) for t in rng.uniform(0.5, 3.0, size=2))
        far = np.zeros(n)
        far[0] = float(rng.uniform(2.0, 3.0))  # outside every averaging ball
        fields = [
            ("riesz", flow.riesz_kernel_field(theta, p, n), theta),
            ("newtonian", flow.newtonian_potential_field(p, [(theta, np.zeros(n)), (theta2, far)], n),
             theta),
            ("two-kernel", flow.newtonian_potential_field(p, [(1.0, np.zeros(n)), (1.0, far)], n),
             1.0),
        ]
        for name, field, t0 in fields:
            expected = {"M": t0, "S": t0, "V": t0 * n / (n - p + 2.0)}
            ops.append(Op(f"densities {name} n={n}",
                          lambda u=field, n=n, p=p: flow.densities(u, np.zeros(n), p, quad=quads[n]),
                          lambda rep, e=expected: oracles.density_report(rep, e)))

    for n in dims[:2]:
        p = float(rng.uniform(2.25, n))
        theta = float(rng.uniform(0.5, 3.0))
        field = flow.newtonian_potential_field(p, [(theta, np.zeros(n))], n)
        expected = oracles.expected_mass_density(theta, p, n)
        ops.append(Op(f"mass_density n={n}",
                      lambda u=field, n=n, p=p: flow.mass_density(u, np.zeros(n), p, quad=quads[n]),
                      lambda rep, e=expected: oracles.mass_report(rep, e)))

    # tangent flows: sup metric at p > 2, Hoelder metric at p < 2
    p_sup = float(rng.uniform(2.25, 3.5))
    perturbed = flow.plus_quadratic_field(flow.riesz_kernel_field(1.0, p_sup, 4),
                                          float(rng.uniform(0.5, 3.0)))
    ops.append(Op("tangent sup",
                  lambda: flow.tangent_experiment(perturbed, flow.FlowSpec(p=p_sup),
                                                  flow.riesz_kernel_field(1.0, p_sup, 4),
                                                  metric="sup", tol=1e-3),
                  lambda rec: oracles.tangent_record(rec, expect_holder=False)))
    p_hol = float(rng.uniform(1.3, 1.7))
    kernel_field = flow.riesz_kernel_field(float(rng.uniform(0.5, 2.0)), p_hol, 3)
    ops.append(Op("tangent holder",
                  lambda: flow.tangent_experiment(kernel_field, flow.FlowSpec(p=p_hol), kernel_field,
                                                  metric="holder", beta=0.5 * (2.0 - p_hol),
                                                  tol=1e-6),
                  lambda rec: oracles.tangent_record(rec, expect_holder=True)))

    # radial one-variable theory: the dichotomy, convexity and a density
    grid = np.geomspace(0.05, 2.0, 64)
    c = float(rng.uniform(0.3, 1.5))
    shifted = radial.profile_from_callable(lambda r: (np.asarray(r, dtype=float) - c) ** 2)
    ops.append(Op("radial classify", lambda: radial.classify_profile(shifted, grid).kind,
                  lambda kind: None if kind == radial.DECREASING_THEN_INCREASING
                  else f"classified {kind!r}"))
    p_rad = float(rng.uniform(1.5, 4.0))
    theta_rad = float(rng.uniform(0.5, 3.0))
    profile = radial.kernel_profile(p_rad, theta_rad)
    ops.append(Op("radial convexity", lambda: radial.kp_convexity_test(profile, p_rad, grid),
                  lambda rep: oracles.property_report(rep, True)))
    ops.append(Op("radial density",
                  lambda: radial.one_var_density(profile, p_rad, radial.geometric_radii(1.0, 8)),
                  lambda tb: oracles.close(tb[0], theta_rad,
                                           tb[1] + oracles.DENSITY_RTOL * (1.0 + theta_rad),
                                           "theta")))

    # plane-graph transitivity on a default-size sample
    n_planes, n_space = (2, 3) if tiny else (2, 5)
    sample = subeq.sample_grassmannian(n_space, n_planes, count=512 if tiny else None,
                                       seed=_sub_seed(rng), angle_tol=TRANSITIVITY_ANGLE_TOL)
    planes = [w.columns for w in sample.planes]
    i, j = rng.choice(len(planes), size=2, replace=False)
    x = planes[i] @ rng.standard_normal(n_planes)
    y = planes[j] @ rng.standard_normal(n_planes)
    ops.append(Op(f"transitivity g{n_planes}r{n_space}#{len(planes)}",
                  lambda: subeq.transitivity_check(sample, x, y),
                  lambda res: oracles.transitivity(res, planes, sample.angle_tol, x, y)))
    return ops


WORKLOADS = {
    # two passes, so that every command's stdout is compared with a repeat
    "cli-cold": Workload(CLI_COLD_WHY, build_cli_cold, children=True, min_passes=2),
    "charx-bisect": Workload(CHARX_WHY, build_charx_bisect),
    "verify-suites": Workload(VERIFY_WHY, build_verify_suites),
    "density-flow": Workload(DENSITY_WHY, build_density_flow, min_passes=2),
}
