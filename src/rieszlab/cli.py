"""Command-line front end.

Subcommands: charx, verify, table, density, flow, grassmann, radial.
Reports are JSON (schema 1), or CSV for table alone; identical config +
seed gives byte-identical output apart from the timestamp, which
--no-timestamp suppresses.  Exit codes: 0 ok, 2 check failure, 3
solver/domain error, 4 config error, 141 stdout closed by its reader
before the report was written (as a shell reports a writer stopped by
SIGPIPE).
"""

from __future__ import annotations

import argparse
import dataclasses
import datetime
import json
import math
import os
import sys

import numpy as np

from . import flow as fl
from . import radial as rad
from . import riesz, subeq
from .errors import DomainError, RieszlabError

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_CHECK_FAILED = 2
EXIT_SOLVER = 3
EXIT_CONFIG = 4
EXIT_BROKEN_PIPE = 141


class ConfigError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """A usage error is a config error: one stderr line and exit 4, not
    argparse's usage text and exit 2, which means a failed check here.
    Subparsers are built from the same class.  Flags are matched in full:
    a prefix such as `--n` is not read as `--no-timestamp`."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, allow_abbrev=False, **kwargs)

    def error(self, message):
        raise ConfigError(message)


# ---------------------------------------------------------------------------
# families and fields addressable from the command line
# ---------------------------------------------------------------------------


def build_family(name: str, n: int, variant: str | None, args) -> subeq.Subequation:
    """The named family, or its complex or quaternionic lift, then the
    uniformly elliptic regularization if --regularize is given."""
    if name not in subeq.family_names():
        raise ConfigError(f"unknown family {name!r}; known: {subeq.family_names()}")
    params = {}
    for key in subeq.family_params(name):
        params[key] = getattr(args, key)
        if params[key] is None:
            raise ConfigError(f"family {name!r} needs --{key}")
    lift = {"complex": subeq.complex_lift, "quaternionic": subeq.quaternionic_lift}
    f = lift.get(variant, subeq.builtin)(name, n, **params)
    if args.regularize is not None:
        f = subeq.uniform_elliptic_regularization(f, args.regularize)
    return f


def build_field(name: str, args) -> fl.ScalarField:
    n = args.n
    if n < 2:
        raise DomainError(f"fields are averaged over spheres in R^n, n >= 2; got --n {n}")
    theta = args.theta
    p = args.p
    if name == "riesz":
        return fl.riesz_kernel_field(theta, float(p), n)
    if name == "radial-perturbed":
        base = fl.riesz_kernel_field(theta, float(p), n)
        return fl.plus_quadratic_field(base, 2.0)
    if name == "log-coord":
        if n % 2:
            raise DomainError(f"log-coord lives on C^(n/2) and needs an even --n, got {n}")
        return fl.log_modulus_coordinate_field(n // 2)
    if name == "partial-kernel":
        return fl.partial_kernel_field(float(p), args.m, n)
    if name == "newtonian":
        masses = [(theta, np.zeros(n))]
        if args.offset is not None:
            second = np.zeros(n)
            second[0] = args.offset
            masses.append((args.theta2, second))
        return fl.newtonian_potential_field(float(p), masses, n)
    if name == "smooth":
        return fl.quadratic_field(1.0, n)
    if name == "two-kernel":
        a = np.zeros(n)
        a[0] = 1.0 if args.offset is None else args.offset
        return fl.newtonian_potential_field(float(p), [(1.0, np.zeros(n)), (1.0, a)], n)
    if name == "zero":
        return fl.zero_field(n)
    raise ConfigError(f"unknown field {name!r}")


_PROFILES = {
    "kernel": lambda p: rad.kernel_profile(p),
    "kernel-plus-square": lambda p: rad.RadialProfile(
        fn=lambda r: np.asarray(riesz.kernel(riesz.KernelSpec(p=p), r)) + r**2,
        name="kernel+r^2",
    ),
    "max-kernel-const": lambda p: rad.RadialProfile(
        fn=lambda r: np.maximum(np.asarray(riesz.kernel(riesz.KernelSpec(p=p), r)), -0.5),
        name="max(kernel,-1/2)",
    ),
    "linear": lambda p: rad.RadialProfile(fn=lambda r: np.asarray(r, dtype=float), name="t"),
    "reciprocal": lambda p: rad.RadialProfile(fn=lambda r: 1.0 / np.asarray(r, dtype=float),
                                              name="1/t"),
    "shifted-square": lambda p: rad.RadialProfile(fn=lambda r: (np.asarray(r) - 1.0) ** 2,
                                                  name="(t-1)^2"),
}


# ---------------------------------------------------------------------------
# output plumbing
# ---------------------------------------------------------------------------


# Report fields whose JSON key differs from the field name (schema 1).
_RENAMES = {subeq.PropertyReport: {"name": "property", "sample_count": "samples",
                                   "passed": "pass"}}


def _sanitize(obj):
    """The JSON form of a report: a dataclass becomes an object of its
    fields (keys renamed by _RENAMES), arrays and tuples become lists,
    numpy scalars Python ones, and non-finite floats strings."""
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        names = _RENAMES.get(type(obj), {})
        return {names.get(f.name, f.name): _sanitize(getattr(obj, f.name))
                for f in dataclasses.fields(obj)}
    if isinstance(obj, np.ndarray):
        return _sanitize(obj.tolist())
    if isinstance(obj, dict):
        return {k: _sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_sanitize(v) for v in obj]
    if isinstance(obj, float) and not math.isfinite(obj):
        return "inf" if obj > 0 else ("-inf" if obj < 0 else "nan")
    if isinstance(obj, np.floating):
        return float(obj)
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.bool_):
        return bool(obj)
    return obj


def emit(payload: dict, args) -> None:
    payload = {"schema": SCHEMA_VERSION, **payload}
    if not args.no_timestamp:
        payload["timestamp"] = datetime.datetime.now(datetime.timezone.utc).isoformat()
    if getattr(args, "format", "json") == "json":  # only table has --format
        text = json.dumps(_sanitize(payload), indent=2, sort_keys=True)
    else:
        text = _to_csv(payload)
    if args.out:
        with open(args.out, "w") as handle:
            handle.write(text + "\n")
    else:
        print(text)


def _fmt(x) -> str:
    if isinstance(x, float):
        return f"{x:.9g}"
    return str(x)


def _to_csv(payload: dict) -> str:
    lines = [",".join(payload["columns"])]
    for row in payload["rows"]:
        lines.append(",".join(_fmt(v) for v in row))
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_charx(args) -> int:
    tokens = args.family
    variant = args.variant
    if len(tokens) == 2 and tokens[0] in ("complex", "quaternionic"):
        variant, tokens = tokens[0], tokens[1:]
    if len(tokens) != 1:
        raise ConfigError(f"bad family spec {' '.join(tokens)!r}")
    f = build_family(tokens[0], args.n, variant, args)
    pair = riesz.characteristic_pair(f, tol=args.tol, check_directions=args.check_directions,
                                     seed=args.seed)
    record = {
        "command": "charx",
        "family": f.name,
        "n": f.n,
        **_sanitize(pair),
    }
    closed = f.closed_form
    if closed is None:
        emit(record, args)
        return EXIT_OK
    if math.isfinite(closed) and math.isfinite(pair.p):
        residual = abs(pair.p - closed)
    else:
        residual = 0.0 if closed == pair.p else math.inf
    emit({**record, "closed_form": closed, "residual": residual}, args)
    if residual > 10.0 * args.tol:
        # the computed p misses the catalog's closed form
        print(f"check failed: p = {pair.p}, closed_form = {closed}, residual = {residual}",
              file=sys.stderr)
        return EXIT_CHECK_FAILED
    return EXIT_OK


_SUITES = ("positivity", "cone", "invariance", "mp", "ue", "sandwich")


def cmd_verify(args) -> int:
    f = build_family(args.family, args.n, args.variant, args)
    suites = args.suite
    if not suites:
        # the applicable default set: ellipticity only for pdelta, the
        # sandwich only when the characteristic is finite
        suites = ["positivity", "cone", "invariance", "mp", "sandwich"]
        if args.family == "pdelta":
            suites.append("ue")
    reports = []
    for suite in suites:
        if suite == "positivity":
            reports.append(subeq.check_positivity(f, args.samples, args.seed))
        elif suite == "cone":
            reports.append(subeq.check_cone(f, args.samples, args.seed))
        elif suite == "invariance":
            reports.append(subeq.check_st_invariance(f, args.samples, args.seed))
        elif suite == "mp":
            reports.append(subeq.check_maximum_principle(f))
        elif suite == "ue":
            if args.family != "pdelta":
                raise ConfigError("--suite ue applies to the pdelta family")
            reports.append(subeq.check_uniform_ellipticity(args.delta, args.n,
                                                           args.samples, args.seed))
        else:  # sandwich
            p, _ = riesz.increasing_characteristic(f, tol=args.tol)
            if math.isinf(p):
                reports.append(subeq.PropertyReport(
                    "sandwich", 0, 0.0, 0.0, skipped=True,
                    note="infinite characteristic: no finite sandwich"))
            else:
                reports.append(riesz.sandwich_check(f, p, args.samples, args.seed))
    emit({"command": "verify", "family": f.name, "n": f.n,
          "reports": reports}, args)
    failed = [r for r in reports if not (r.passed or r.skipped)]
    if failed:
        print("check failed: " + "; ".join(
            f"{r.name} worst_violation = {r.worst_violation}, tolerance = {r.tolerance}"
            for r in failed), file=sys.stderr)
        return EXIT_CHECK_FAILED
    return EXIT_OK


def catalog_rows(tol: float = 1e-9):
    """Closed-form catalog used by the table command and the acceptance
    suite: (label, params, n, computed p, closed form) rows."""
    entries = [(family, params, n, subeq.builtin(family, n, **params))
               for family, params, n in [
                   ("sigma-k", {"k": 2}, 4),
                   ("sigma-k", {"k": 3}, 6),
                   ("sigma-k", {"k": 1}, 5),
                   ("p-convex", {"p": 1.0}, 4),
                   ("p-convex", {"p": 2.5}, 5),
                   ("p-convex", {"p": 4.0}, 4),
                   ("pdelta", {"delta": 0.5}, 3),
                   ("pdelta", {"delta": 1.0}, 3),
                   ("pdelta", {"delta": 3.0}, 3),
                   ("trace-power", {"k": 4, "q": 3.0}, 4),
                   ("trace-power", {"k": 3, "q": 5.0}, 4),
                   ("min-max", {"p": 3.0}, 4),
                   ("min-2", {"p": 3.0}, 4),
                   ("largest-convex", {"p": 2.0}, 4),
               ]]
    entries += [
        ("regularized(p-convex)", {"p": 2.0, "delta": 1.0}, 4,
         subeq.uniform_elliptic_regularization(subeq.builtin("p-convex", 4, p=2.0), 1.0)),
        ("complex(p-convex)", {"p": 1.0}, 3, subeq.complex_lift("p-convex", 3, p=1.0)),
        ("quaternionic(p)", {}, 2, subeq.quaternionic_lift("p", 2)),
    ]
    rows = []
    for label, params, n, f in entries:
        p, _ = riesz.increasing_characteristic(f, tol=tol)
        rows.append((label, params, n, p, f.closed_form))
    return rows


def cmd_table(args) -> int:
    rows = []
    for family, params, n, computed, closed in catalog_rows(args.tol):
        label = ";".join(f"{k}={subeq.fmt_param(v)}" for k, v in sorted(params.items()))
        rows.append((family, label, n, computed, closed, abs(computed - closed)))
    payload = {
        "command": "table",
        "columns": ["family", "params", "n", "computed_p", "closed_form_p", "residual"],
        "rows": rows,
    }
    emit(payload, args)
    return EXIT_OK


def cmd_density(args) -> int:
    field = build_field(args.field, args)
    quad = fl.sphere_quad(field.n, args.quad, args.seed)
    center = np.zeros(field.n)
    if args.center is not None:
        center = np.asarray(args.center, dtype=float)
    density = fl.mass_density if args.mass else fl.densities
    report = density(field, center, args.p, radii=args.radii, quad=quad)
    if args.curve_out:
        _write_curve_csv(args.curve_out, field, center, report.radii, quad, args.p)
    emit({"command": "density", "field": field.name, **_sanitize(report)}, args)
    return EXIT_OK


def _write_curve_csv(path: str, field, center, radii, quad, p: float) -> None:
    lines = ["kind,r,value,quotient"]
    for kind, curve in fl._average_curves(field, ("M", "S", "V"), center, radii, quad, p).items():
        for r, value, quotient in curve.to_csv_rows(p):
            lines.append(f"{kind},{_fmt(r)},{_fmt(value)},{_fmt(quotient)}")
    with open(path, "w") as handle:
        handle.write("\n".join(lines) + "\n")


def cmd_flow(args) -> int:
    field = build_field(args.field, args)
    candidate = build_field(args.candidate, args)
    spec = fl.FlowSpec(p=args.p, radii=args.radii)
    quad = fl.sphere_quad(field.n, args.quad, args.seed)
    record = fl.tangent_experiment(field, spec, candidate, metric=args.metric,
                                   tol=args.conv_tol, beta=args.beta, quad=quad)
    # the Hoelder fields are None for p >= 2 and left out
    fields = {k: v for k, v in _sanitize(record).items() if v is not None}
    emit({"command": "flow", "field": field.name, "candidate": candidate.name, **fields}, args)
    return EXIT_OK if record.converged else EXIT_CHECK_FAILED


def _parse_grassmann_spec(spec: str):
    # accepts gPrN, e.g. g2r3 for 2-planes in R^3
    spec = spec.strip().lower()
    if not spec.startswith("g") or "r" not in spec:
        raise ConfigError("grassmann spec must look like g2r3")
    try:
        p_str, n_str = spec[1:].split("r", 1)
        return int(p_str), int(n_str)
    except ValueError as exc:
        raise ConfigError(f"bad grassmann spec {spec!r}") from exc


def cmd_grassmann(args) -> int:
    p, n = _parse_grassmann_spec(args.sample)
    sample = subeq.sample_grassmannian(n, p, count=args.planes, seed=args.seed,
                                       angle_tol=args.angle_tol)
    payload = {"command": "grassmann", "n": n, "p": p, "planes": len(sample.planes)}
    status = EXIT_OK
    if args.transitivity:
        rng = np.random.default_rng(args.seed)
        x = np.asarray(args.x, dtype=float) if args.x else rng.standard_normal(n)
        y = np.asarray(args.y, dtype=float) if args.y else rng.standard_normal(n)
        result = subeq.transitivity_check(sample, x, y)
        payload["transitivity"] = result
        status = EXIT_OK if result.found else EXIT_CHECK_FAILED
    if args.charx:
        f = subeq.geometric(sample)
        value, bracket = riesz.increasing_characteristic(f, tol=args.tol)
        payload["charx"] = {"p": value, "bracket": bracket, "closed_form": f.closed_form,
                            "residual": abs(value - f.closed_form)}
    emit(payload, args)
    return status


def cmd_radial(args) -> int:
    if args.profile not in _PROFILES:
        raise ConfigError(f"unknown profile {args.profile!r}; known: {sorted(_PROFILES)}")
    profile = _PROFILES[args.profile](args.p)
    if not 0.0 < args.grid_min < args.grid_max < math.inf:
        raise DomainError(f"the radial grid needs 0 < --grid-min < --grid-max < inf, got "
                          f"{args.grid_min} and {args.grid_max}")
    grid = np.geomspace(args.grid_min, args.grid_max, args.grid_points)
    classification = rad.classify_profile(profile, grid)
    payload = {
        "command": "radial",
        "profile": profile.name,
        "p": args.p,
        "classification": classification,
    }
    convexity = rad.kp_convexity_test(profile, args.p, grid)
    payload["kp_convexity"] = convexity
    if convexity.passed:
        radii = rad.geometric_radii(args.grid_max / 2.0, 8)
        theta, bracket = rad.one_var_density(profile, args.p, radii)
        payload["density"] = {"theta": theta, "bracket": bracket}
    emit(payload, args)
    if not convexity.passed:
        # the classification is a diagnostic; K_p-convexity is the check
        print(f"check failed: kp-convexity worst_violation = {convexity.worst_violation}, "
              f"tolerance = {convexity.tolerance}", file=sys.stderr)
        return EXIT_CHECK_FAILED
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser and config handling
# ---------------------------------------------------------------------------


def _add_common(sub):
    sub.add_argument("--out", type=str, default=None)
    sub.add_argument("--no-timestamp", action="store_true")
    sub.add_argument("--config", type=str, default=None,
                     help="JSON file with defaults for the optional flags; flags override")


def _add_family_params(sub):
    sub.add_argument("--n", type=int, default=3, help="ambient dimension")
    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument("--tol", type=float, default=1e-9)
    sub.add_argument("--p", type=float, default=None)
    sub.add_argument("--k", type=int, default=None)
    sub.add_argument("--q", type=float, default=None)
    sub.add_argument("--delta", type=float, default=None)
    sub.add_argument("--regularize", type=float, default=None,
                     help="wrap in the uniformly elliptic regularization")
    sub.add_argument("--variant", choices=("complex", "quaternionic"), default=None)


def _add_field_flags(sub):
    """The field and its sphere samples, as density and flow read them."""
    sub.add_argument("field")
    sub.add_argument("--n", type=int, default=3, help="ambient dimension")
    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument("--quad", type=int, default=None,
                     help="sphere sample size, a power of two >= 8")
    sub.add_argument("--p", type=float, required=True)
    sub.add_argument("--theta", type=float, default=1.0,
                     help="weight of the kernel at the origin (default %(default)s)")
    sub.add_argument("--m", type=int, default=1,
                     help="partial-kernel coordinates (default %(default)s)")
    sub.add_argument("--offset", type=float, default=None,
                     help="first coordinate of a second centre")
    sub.add_argument("--theta2", type=float, default=1.0,
                     help="weight of the newtonian second mass (default %(default)s)")
    sub.add_argument("--radii", type=float, nargs="+", default=None)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="rieszlab",
        description="Characteristics, verification suites and flow/density experiments "
                    "for cone subequations",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    sub = subparsers.add_parser("charx", help="compute the characteristic pair")
    sub.add_argument("family", nargs="+",
                     help="family name, optionally prefixed by 'complex' or 'quaternionic'")
    _add_family_params(sub)
    sub.add_argument("--check-directions", type=int, default=0)
    _add_common(sub)
    sub.set_defaults(func=cmd_charx)

    sub = subparsers.add_parser("verify", help="run structural property suites")
    sub.add_argument("family")
    _add_family_params(sub)
    sub.add_argument("--suite", action="append", choices=_SUITES, default=None)
    sub.add_argument("--samples", type=int, default=200)
    _add_common(sub)
    sub.set_defaults(func=cmd_verify)

    sub = subparsers.add_parser("table", help="closed-form characteristic catalog")
    sub.add_argument("--tol", type=float, default=1e-9)
    sub.add_argument("--format", choices=("json", "csv"), default="json")
    _add_common(sub)
    sub.set_defaults(func=cmd_table)

    sub = subparsers.add_parser("density", help="density estimation for a field")
    _add_field_flags(sub)
    sub.add_argument("--center", type=float, nargs="+", default=None)
    sub.add_argument("--mass", action="store_true", help="mass density via the flux formula")
    sub.add_argument("--curve-out", type=str, default=None,
                     help="dump the average curves as CSV (kind, r, value, quotient)")
    _add_common(sub)
    sub.set_defaults(func=cmd_density)

    sub = subparsers.add_parser("flow", help="tangential flow convergence experiment")
    _add_field_flags(sub)
    sub.add_argument("--candidate", type=str, default="riesz")
    sub.add_argument("--conv-tol", type=float, default=1e-3,
                     help="distance threshold declaring convergence")
    sub.add_argument("--metric", choices=("l1", "sup", "holder"), default="sup")
    sub.add_argument("--beta", type=float, default=None)
    _add_common(sub)
    sub.set_defaults(func=cmd_flow)

    sub = subparsers.add_parser("grassmann", help="plane-sample experiments")
    sub.add_argument("sample", help="spec like g2r3")
    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument("--tol", type=float, default=1e-9)
    sub.add_argument("--planes", type=int, default=None)
    sub.add_argument("--angle-tol", type=float, default=1e-3)
    sub.add_argument("--transitivity", action="store_true")
    sub.add_argument("--charx", action="store_true")
    sub.add_argument("--x", type=float, nargs="+", default=None)
    sub.add_argument("--y", type=float, nargs="+", default=None)
    _add_common(sub)
    sub.set_defaults(func=cmd_grassmann)

    sub = subparsers.add_parser("radial", help="one-variable profile classification")
    sub.add_argument("profile")
    sub.add_argument("--p", type=float, default=3.0)
    sub.add_argument("--grid-min", type=float, default=0.05)
    sub.add_argument("--grid-max", type=float, default=2.0)
    sub.add_argument("--grid-points", type=int, default=64)
    _add_common(sub)
    sub.set_defaults(func=cmd_radial)

    return parser


def _command_parser(parser: argparse.ArgumentParser, command: str) -> argparse.ArgumentParser:
    return parser._subparsers._group_actions[0].choices[command]


def _explicit_dests(argv: list[str], command: str) -> set:
    """The destinations argv sets itself, default or not: argv parsed again
    with every default of its subcommand suppressed."""
    probe = build_parser()
    for action in _command_parser(probe, command)._actions:
        action.default = argparse.SUPPRESS
    return set(vars(probe.parse_args(argv)))


def apply_config(parser: argparse.ArgumentParser, argv: list[str]) -> argparse.Namespace:
    """Parse argv, then fill the values argv does not set from --config.
    A key must name an optional flag of the command other than --config;
    explicit flags win over file values, also where they equal the default."""
    args = parser.parse_args(argv)
    if not args.config:
        return args
    try:
        with open(args.config) as handle:
            raw = json.load(handle)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")
    actions = {action.dest: action for action in _command_parser(parser, args.command)._actions
               if action.option_strings and action.dest not in ("help", "config")}
    unknown = [k for k in raw if k.replace("-", "_") not in actions]
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    explicit = _explicit_dests(argv, args.command)
    for key, value in raw.items():
        dest = key.replace("-", "_")
        if dest not in explicit:
            setattr(args, dest, _config_value(actions[dest], key, value))
    return args


def _config_value(action: argparse.Action, key: str, value):
    """Convert a config value as argparse converts the flag's strings:
    through the action's `type` (applied to `str(value)`, so 2.5 is not an
    int), `nargs` (a list for multi-valued flags) and `choices`."""
    if action.nargs == 0:  # store_true
        if not isinstance(value, bool):
            raise ConfigError(f"config key {key!r} must be true or false")
        return value
    many = action.nargs in ("+", "*") or isinstance(action, argparse._AppendAction)
    if many != isinstance(value, list) or (many and action.nargs == "+" and not value):
        shape = "a non-empty list" if many else "a single value"
        raise ConfigError(f"config key {key!r} must be {shape}")
    convert = action.type or str
    out = []
    for item in value if many else [value]:
        if isinstance(item, (bool, list, dict)) or item is None:
            raise ConfigError(f"config key {key!r}: bad value {item!r}")
        try:
            item = convert(str(item))
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"config key {key!r}: bad value {item!r}") from exc
        if action.choices is not None and item not in action.choices:
            raise ConfigError(f"config key {key!r}: {item!r} is not one of {list(action.choices)}")
        out.append(item)
    return out if many else out[0]


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = apply_config(parser, sys.argv[1:] if argv is None else list(argv))
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        # a margin that overflows is read as inf or NaN, and the solver
        # judges it; numpy's warnings would only add stderr lines
        with np.errstate(all="ignore"):
            status = args.func(args)
        sys.stdout.flush()
        return status
    except BrokenPipeError:
        # the reader closed stdout early (`rieszlab table | head -1`): point
        # stdout at devnull, so the flush at exit cannot fail on stderr
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_BROKEN_PIPE
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except RieszlabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SOLVER


if __name__ == "__main__":
    sys.exit(main())
