"""Span tracer for the traced benchmark run.

The tracer wraps public functions of `rieszlab` from outside: it replaces
the attribute in every `rieszlab` module namespace that holds the same
function object (modules bind names with `from .linalg import ...`), and
it wraps the `margin` and `values` callables of the `Subequation` and
`ScalarField` objects that the public constructors return.  No code under
`src/` changes.

Each span records a name, a kind, start, end and parent.  Spans stay in
memory and are folded into per-kind aggregates after each operation; the
first spans are kept verbatim for the trace file written at the end.  A
span's self time is its duration minus the time its child spans cover.
"""

from __future__ import annotations

import dataclasses
import functools
import inspect
import json
import sys
from time import perf_counter

# What each wrapped public function is, by module.  A target missing from
# the installed package is recorded as absent, and so are the metrics that
# need it.
SUBEQ_CONSTRUCTORS = ("builtin", "dual", "complex_lift", "quaternionic_lift", "geometric",
                      "garding_branch", "uniform_elliptic_regularization", "intersection",
                      "union")
FIELD_CONSTRUCTORS = ("riesz_kernel_field", "newtonian_potential_field", "plus_quadratic_field",
                      "quadratic_field", "zero_field", "partial_kernel_field",
                      "log_modulus_coordinate_field", "max_of_fields", "tangent_flow",
                      "catalog_field")
TARGETS = {
    "linalg": {"ordered_eigenvalues": "eig", "random_symmetric": "sampling",
               "random_psd": "sampling", "random_rotation": "sampling",
               "random_unit_vector": "sampling"},
    "subeq": {**{name: "subeq" for name in SUBEQ_CONSTRUCTORS},
              "sample_grassmannian": "subeq", "shift_into": "shift",
              "check_positivity": "suite", "check_cone": "suite",
              "check_st_invariance": "suite", "check_maximum_principle": "suite",
              "check_uniform_ellipticity": "suite", "margin_monotonicity_check": "suite",
              "invariance_rotation": "rotation", "transitivity_check": "transitivity"},
    "riesz": {"characteristic_pair": "charx", "increasing_characteristic": "charx",
              "decreasing_characteristic": "charx", "sandwich_check": "sandwich",
              "radial_harmonic_check": "riesz", "bisection_certificate": "riesz"},
    "radial": {},  # every public function defined in the module, kind "radial"
    "flow": {**{name: "flow" for name in FIELD_CONSTRUCTORS},
             "average_curve": "average", "spherical_average": "average",
             "volume_average": "average", "spherical_max": "average",
             "sphere_quad": "quad", "densities": "flow", "mass_density": "flow",
             "tangent_experiment": "flow", "holder_estimate": "flow",
             "infinitesimal_holder": "flow", "density_decay_check": "flow"},
}
# Kinds of the callables wrapped on returned objects.
OBJECT_KINDS = ("margin", "values")
KINDS = sorted({k for table in TARGETS.values() for k in table.values()} | {"radial", *OBJECT_KINDS})
BIT = {kind: 1 << i for i, kind in enumerate(KINDS)}

KEEP_SPANS = 20000  # spans written verbatim to the trace file
# Prefix of the line a traced CLI launch writes last on stderr.
TRACE_MARKER = "PERFBENCH-TRACE "


def _add(agg: dict, key: str, count=0, incl=0.0, self_=0.0, points=0):
    row = agg.setdefault(key, [0, 0.0, 0.0, 0])
    row[0] += count
    row[1] += incl
    row[2] += self_
    row[3] += points


def merge(into: dict, other: dict):
    for key, (count, incl, self_, points) in other.items():
        _add(into, key, count, incl, self_, points)


class Tracer:
    def __init__(self):
        self.active = False
        self.phase = "setup"  # aggregates go to "setup" or "pass"
        self.aggregates = {"setup": {}, "pass": {}}
        self.spans = []   # [name, kind, start, end, parent, ancestor_mask, points]
        self._stack = []
        self.kept = []
        self.installed = set()
        self.absent = []
        self.children = []  # per-command records absorbed from traced CLI launches

    # -- wrapping ----------------------------------------------------------

    def _traced(self, name: str, kind: str, fn, post=None):
        tracer = self
        points = kind == "values"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                result = fn(*args, **kwargs)
            else:
                stack, spans = tracer._stack, tracer.spans
                if stack:
                    parent = stack[-1]
                    prec = spans[parent]
                    mask = prec[5] | BIT[prec[1]]
                else:
                    parent, mask = -1, 0
                rec = [name, kind, 0.0, 0.0, parent, mask,
                       len(args[0]) if points and args else 0]
                stack.append(len(spans))
                spans.append(rec)
                rec[2] = perf_counter()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    rec[3] = perf_counter()
                    stack.pop()
            return post(result) if post is not None else result

        return wrapper

    def _wrap_returned(self, obj):
        """Wrap `margin` on Subequations and `values` on ScalarFields."""
        if not dataclasses.is_dataclass(obj):
            return obj
        for attr in OBJECT_KINDS:
            fn = getattr(obj, attr, None)
            if callable(fn) and not getattr(fn, "_perfbench", False):
                wrapped = self._traced(f"{type(obj).__name__}.{attr}", attr, fn)
                wrapped._perfbench = True
                if type(obj).__dataclass_params__.frozen:
                    obj = dataclasses.replace(obj, **{attr: wrapped})
                else:
                    setattr(obj, attr, wrapped)
        return obj

    def install(self):
        """Wrap the targets in every loaded `rieszlab` module namespace."""
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "rieszlab" or name.startswith("rieszlab."))]
        for short, table in TARGETS.items():
            module = sys.modules.get(f"rieszlab.{short}")
            if module is None:
                self.absent.append(f"rieszlab.{short}")
                continue
            if short == "radial":
                table = {name: "radial" for name, fn in vars(module).items()
                         if inspect.isfunction(fn) and not name.startswith("_")
                         and fn.__module__ == module.__name__}
            for name, kind in table.items():
                original = getattr(module, name, None)
                if original is None or not callable(original):
                    self.absent.append(f"{short}.{name}")
                    continue
                post = self._wrap_returned if name in SUBEQ_CONSTRUCTORS + FIELD_CONSTRUCTORS else None
                wrapper = self._traced(f"{short}.{name}", kind, original, post)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapper)
                self.installed.add(kind)
        self.installed.update(OBJECT_KINDS)

    # -- folding -----------------------------------------------------------

    def fold(self):
        """Fold the spans recorded since the last fold into the aggregates
        of the current phase."""
        spans = self.spans
        if not spans:
            return
        child = [0.0] * len(spans)
        for rec in spans:
            if rec[4] >= 0:
                child[rec[4]] += rec[3] - rec[2]
        agg = self.aggregates[self.phase]
        margin_bit, shift_bit, charx_bit = BIT["margin"], BIT["shift"], BIT["charx"]
        for i, (name, kind, start, end, parent, mask, points) in enumerate(spans):
            dur = end - start
            _add(agg, kind, 1, dur, dur - child[i], points)
            if not mask & BIT[kind]:
                _add(agg, kind + ".top", 1, dur, dur - child[i], points)
                if kind == "margin":
                    if mask & shift_bit:
                        _add(agg, "margin.top_in_shift", 1)
                    if mask & charx_bit:
                        _add(agg, "margin.top_in_charx", 1)
        room = KEEP_SPANS - len(self.kept)
        if room > 0:
            base = len(self.kept)
            for rec in spans[:room]:
                name, kind, start, end, parent, _, points = rec
                self.kept.append({"name": name, "kind": kind, "start": start, "end": end,
                                  "parent": parent + base if parent >= 0 else None,
                                  "points": points, "phase": self.phase})
        self.spans = []

    def absorb_child(self, stderr: str):
        """Merge the record a traced CLI launch wrote as its last stderr line."""
        lines = stderr.splitlines()
        record = {"import_s": None, "main_s": None, "aggregate": {}}
        marked = [ln for ln in lines if ln.startswith(TRACE_MARKER)]
        if marked:
            record = json.loads(marked[-1][len(TRACE_MARKER):])
            merge(self.aggregates["pass"], record["aggregate"])
        record["importtime"] = importtime_cumulative(lines)
        self.children.append(record)

    def write(self, path):
        with open(path, "w") as handle:
            for span in self.kept:
                handle.write(json.dumps(span) + "\n")



def importtime_cumulative(lines) -> dict:
    """Cumulative seconds per module from `python -X importtime` stderr."""
    out = {}
    for line in lines:
        if not line.startswith("import time:"):
            continue
        parts = line[len("import time:"):].split("|")
        if len(parts) != 3:
            continue
        try:
            out[parts[2].strip()] = int(parts[1]) * 1e-6
        except ValueError:
            continue  # the header line
    return out


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------


def _get(agg: dict, key: str, field: int):
    row = agg.get(key)
    return row[field] if row else 0


COUNT, INCL, SELF, POINTS = range(4)


def layer_metrics(tracer: Tracer, passes: int) -> dict:
    """Per-layer values per traced pass of the workload's operations.
    A metric whose wrapped targets are all absent is None."""
    agg = tracer.aggregates["pass"]
    setup = tracer.aggregates["setup"]

    def per_pass(key, field, kinds):
        if not set(kinds) <= tracer.installed:
            return None
        return _get(agg, key, field) / passes

    def ratio(num_key, den_key, kinds):
        if not set(kinds) <= tracer.installed:
            return None
        den = _get(agg, den_key, COUNT)
        return _get(agg, num_key, COUNT) / den if den else 0.0

    quad = None
    if "quad" in tracer.installed:
        quad = _get(setup, "quad", INCL) + _get(agg, "quad", INCL) / passes
    return {
        "linalg.eigensolve_calls": per_pass("eig", COUNT, ["eig"]),
        "linalg.eigensolve_self_s": per_pass("eig", SELF, ["eig"]),
        "linalg.sampling_self_s": per_pass("sampling", SELF, ["sampling"]),
        "subeq.margin_calls": per_pass("margin.top", COUNT, ["margin"]),
        "subeq.margin_self_s": per_pass("margin", SELF, ["margin"]),
        "subeq.suite_s": per_pass("suite.top", INCL, ["suite"]),
        "subeq.rotation_self_s": per_pass("rotation", SELF, ["rotation"]),
        "subeq.shift_margins_per_sample": ratio("margin.top_in_shift", "shift", ["shift", "margin"]),
        "subeq.transitivity_s": per_pass("transitivity", INCL, ["transitivity"]),
        "riesz.charx_calls": per_pass("charx.top", COUNT, ["charx"]),
        "riesz.charx_s": per_pass("charx.top", INCL, ["charx"]),
        "riesz.margins_per_charx": ratio("margin.top_in_charx", "charx.top", ["charx", "margin"]),
        "riesz.sandwich_s": per_pass("sandwich.top", INCL, ["sandwich"]),
        "radial.self_s": per_pass("radial", SELF, ["radial"]),
        "flow.field_points": per_pass("values.top", POINTS, ["values"]),
        "flow.field_eval_self_s": per_pass("values", SELF, ["values"]),
        "flow.average_s": per_pass("average.top", INCL, ["average"]),
        "flow.quad_build_s": quad,
    }
