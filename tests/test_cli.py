import contextlib
import dataclasses
import inspect
import io
import json
import math
import os
import re
import resource
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import rieszlab
from rieszlab import cli, flow, radial, riesz, subeq


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv, "--no-timestamp")
    return code, json.loads(out)


# ---------------------------------------------------------------------------
# charx
# ---------------------------------------------------------------------------


def test_charx_sigma_k(capsys):
    code, payload = run_json(capsys, "charx", "sigma-k", "--n", "4", "--k", "2")
    assert code == 0
    assert payload["schema"] == 1
    assert payload["p"] == pytest.approx(2.0, abs=1e-6)
    assert payload["closed_form"] == 2.0
    assert payload["residual"] < 1e-6


def test_charx_fractional_p(capsys):
    code, payload = run_json(capsys, "charx", "p-convex", "--n", "5", "--p", "3.5")
    assert code == 0
    assert payload["p"] == pytest.approx(3.5, abs=1e-6)


@pytest.mark.parametrize("argv,name,closed", [
    (["garding-sum", "--n", "4", "--p", "2", "--k", "3"], "garding-sum(k=3,p=2)", 2.0),
    (["garding-sum", "--n", "4", "--p", "2", "--k", "4"], "garding-sum(k=4,p=2)", "inf"),
    (["garding-det", "--n", "3", "--k", "1"], "garding-det(k=1)", 1.0),
    (["garding-pdelta", "--n", "3", "--delta", "1", "--k", "2"], "garding-pdelta(delta=1,k=2)",
     6.0),
    (["garding-det", "--n", "2", "--k", "1", "--variant", "complex"],
     "complex(garding-det(k=1))", 2.0),
])
def test_charx_garding_families_print_their_closed_forms(capsys, argv, name, closed):
    code, payload = run_json(capsys, "charx", *argv)
    assert code == 0
    assert (payload["family"], payload["closed_form"]) == (name, closed)
    assert payload["residual"] <= 1e-8


def test_charx_complex_variant(capsys):
    code, payload = run_json(capsys, "charx", "p-convex", "--n", "3", "--p", "1",
                             "--variant", "complex")
    assert code == 0
    assert payload["p"] == pytest.approx(2.0, abs=1e-6)
    assert payload["n"] == 6


def test_charx_reports_infinite_q(capsys):
    code, payload = run_json(capsys, "charx", "p", "--n", "3")
    assert code == 0
    assert payload["q"] == "inf"


def test_charx_solver_error_exit_code(capsys):
    code = cli.main(["charx", "p-convex", "--n", "3", "--p", "9"])
    assert code == 3


@pytest.mark.parametrize("message,line", [
    ("Unable to allocate 48.0 TiB", "error: out of memory: Unable to allocate 48.0 TiB\n"),
    ("", "error: out of memory\n"),
])
def test_out_of_memory_exits_3_with_one_line(capsys, monkeypatch, message, line):
    def refuse(args):
        raise MemoryError(message)

    monkeypatch.setattr(cli, "cmd_grassmann", refuse)
    code = cli.main(["grassmann", "g2r3", "--planes", "1099511627776", "--no-timestamp"])
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (3, "", line)


@pytest.mark.parametrize("size", [2**21, 2**31])
def test_a_quadrature_above_2_to_the_20_exits_3(capsys, monkeypatch, size):
    monkeypatch.setattr(flow, "sobol", lambda *args: pytest.fail("sobol was called"))
    code = cli.main(["density", "riesz", "--p", "3", "--n", "3", "--quad", str(size),
                     "--no-timestamp"])
    captured = capsys.readouterr()
    assert (code, captured.out) == (3, "")
    assert captured.err == ("error: quadrature size must be at most 2^20, 16 times the "
                            f"largest default, got {size}\n")


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("samples", ["0", "-3"])
def test_verify_rejects_nonpositive_samples(capsys, samples):
    code = cli.main(["verify", "sigma-k", "--n", "4", "--k", "2", "--samples", samples,
                     "--no-timestamp"])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert captured.err.startswith("error:") and captured.err.count("\n") == 1


@pytest.mark.parametrize("value", ["nan", "inf"])
@pytest.mark.parametrize("argv", [
    ["verify", "pdelta", "--n", "3", "--delta", "{}", "--suite", "ue"],
    ["charx", "min-max", "--n", "4", "--p", "{}"],
    ["charx", "p-convex", "--n", "3", "--p", "{}", "--variant", "complex"],
    ["charx", "trace-power", "--n", "4", "--k", "2", "--q", "{}"],
    ["verify", "sigma-k", "--n", "4", "--k", "2", "--regularize", "{}", "--suite", "cone"],
    ["charx", "sigma-k", "--n", "4", "--k", "2", "--tol", "{}"],
    ["density", "riesz", "--p", "3", "--n", "4", "--theta", "{}"],
    ["flow", "riesz", "--p", "3", "--n", "4", "--theta", "{}"],
    ["density", "newtonian", "--p", "3", "--n", "3", "--offset", "1", "--theta2", "{}"],
])
def test_non_finite_parameters_exit_3(capsys, argv, value):
    code = cli.main([a.format(value) for a in argv] + ["--no-timestamp"])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert "finite" in captured.err and captured.err.count("\n") == 1


def test_charx_regularizes_the_lift(capsys):
    code, payload = run_json(capsys, "charx", "p-convex", "--n", "3", "--p", "1",
                             "--variant", "complex", "--regularize", "1")
    assert code == 0
    assert payload["family"] == "regularized(complex(p-convex(p=1)),delta=1)"
    assert payload["closed_form"] == 3.0
    assert payload["residual"] <= 1e-6


def test_verify_regularizes_the_lift(capsys):
    code, payload = run_json(capsys, "verify", "p-convex", "--n", "3", "--p", "1",
                             "--variant", "complex", "--regularize", "1",
                             "--suite", "invariance", "--samples", "20")
    assert code == 0
    assert payload["family"] == "regularized(complex(p-convex(p=1)),delta=1)"
    assert payload["n"] == 6


def test_zero_regularization_is_rejected(capsys):
    code = cli.main(["charx", "p", "--n", "3", "--regularize", "0", "--no-timestamp"])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert "delta > 0" in captured.err and captured.err.count("\n") == 1


def _main(argv):
    """Exit code, stdout and stderr of one in-process run."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def _exits_cleanly(argv, code, out, err):
    assert code in (0, 2, 3, 4), argv
    assert err.count("\n") <= 1 and "Traceback" not in err, argv
    if code == 0:
        assert "nan" not in out, argv


_FUZZ_VALUES = ["nan", "inf", "-1", "0", "0.5", "1", "2", "3.5", "1e300"]
_FUZZ_INTS = ["-1", "0", "1", "2"]  # --k is an integer flag


@st.composite
def charx_argv(draw):
    variant = draw(st.sampled_from([None, "complex", "quaternionic"]))
    argv = ["charx", draw(st.sampled_from(subeq.family_names())),
            "--n", str(draw(st.integers(-1, 6)))]
    if variant is not None:
        argv += ["--variant", variant]
    return argv + _family_flags(draw)


def _family_flags(draw):
    argv = []
    for flag in ("p", "k", "q", "delta"):
        if draw(st.booleans()):
            argv += [f"--{flag}", draw(st.sampled_from(_FUZZ_INTS if flag == "k" else _FUZZ_VALUES))]
    regularize = draw(st.sampled_from([None, "nan", "inf", "-1", "0", "0.5", "1e300"]))
    if regularize is not None:
        argv += ["--regularize", regularize]
    return argv


@settings(max_examples=200, derandomize=True, deadline=None)
@given(argv=charx_argv())
@example(argv=["charx", "p-convex", "--n", "3", "--p", "1", "--variant", "complex",
               "--regularize", "1"])
def test_charx_fuzz_exits_cleanly_and_matches_closed_forms(argv):
    code, out, err = _main(argv + ["--no-timestamp"])
    assert code in (0, 3, 4), argv
    assert err.count("\n") <= 1 and "Traceback" not in err, argv
    if code == 0:
        payload = json.loads(out)
        if "closed_form" in payload:
            assert float(payload["residual"]) <= 1e-6, (argv, payload)


_FIELDS = ("riesz", "radial-perturbed", "log-coord", "partial-kernel", "newtonian", "smooth",
           "zero")
# two draws in three are usable values, one is non-finite, zero, negative or
# huge; hypothesis tries the first entries of each list most often
_USABLE = st.sampled_from(["3", "2", "1.5", "1", "0.25"])
_FIELD_VALUE = st.one_of(_USABLE, _USABLE,
                         st.sampled_from(["nan", "inf", "-inf", "0", "-1", "1e300"]))


@st.composite
def field_argv(draw):
    command = draw(st.sampled_from(["density", "flow"]))
    n = draw(st.one_of(st.sampled_from([3, 4, 2]), st.sampled_from(range(-1, 10))))
    field = draw(st.sampled_from(_FIELDS))
    argv = [command, field, "--n", str(n),
            "--p", draw(_FIELD_VALUE), "--quad", draw(st.sampled_from(["64", "256", "100"]))]
    for flag in ("theta", "radii", "center", "beta"):
        if (flag, command) in {("center", "flow"), ("beta", "density")} or not draw(st.booleans()):
            continue
        if flag in ("radii", "center"):
            argv += [f"--{flag}", *draw(st.lists(_FIELD_VALUE, min_size=1, max_size=max(n, 1)))]
        else:
            argv += [f"--{flag}", draw(_FIELD_VALUE)]
    if command == "density":
        if draw(st.booleans()):
            argv.append("--mass")
        candidate = None
    else:
        candidate = draw(st.sampled_from(_FIELDS))
        argv += ["--candidate", candidate,
                 "--metric", draw(st.sampled_from(["sup", "l1", "holder"]))]
    # the second mass of a newtonian field or candidate sits at --offset
    if "newtonian" in (field, candidate) and draw(st.booleans()):
        argv += ["--offset", draw(_FIELD_VALUE)]
    return argv


@settings(max_examples=200, derandomize=True, deadline=None)
@given(argv=field_argv())
@example(argv=["density", "newtonian", "--p", "3", "--n", "3", "--center", "1", "0"])
@example(argv=["flow", "log-coord", "--n", "3", "--p", "2", "--candidate", "smooth"])
@example(argv=["density", "newtonian", "--p", "3", "--n", "3", "--mass", "--radii", "1", "0.5",
               "inf"])
@example(argv=["flow", "riesz", "--p", "3", "--n", "4", "--radii", "1", "nan", "0.25"])
@example(argv=["density", "riesz", "--theta", "3", "--p", "3", "--n", "4", "--radii", "1",
               "0.5", "nan"])
@example(argv=["density", "smooth", "--n", "-1", "--p", "2"])
@example(argv=["density", "smooth", "--n", "3", "--p", "1", "--radii", "3", "1", "1", "--mass"])
@example(argv=["flow", "newtonian", "--n", "0", "--p", "2.5", "--offset", "1"])
@example(argv=["density", "riesz", "--p", "3", "--n", "4", "--theta", "-inf"])
def test_density_and_flow_fuzz_exit_cleanly(argv):
    _exits_cleanly(argv, *_main(argv + ["--no-timestamp"]))


# usable family parameters, drawn two times in three: most verify runs
# reach the suites
_FAMILY_VALUES = {"p": ["2", "1.5", "1"], "k": ["2", "1"], "q": ["2", "1.5"], "delta": ["0.7", "1"]}


@st.composite
def verify_argv(draw):
    family = draw(st.sampled_from(subeq.family_names()))
    n = draw(st.one_of(st.sampled_from([3, 4, 2]), st.sampled_from(range(-1, 6))))
    argv = ["verify", family, "--n", str(n),
            "--samples", draw(st.sampled_from(["20", "7", "20", "1", "0", "-1"]))]
    for flag in subeq.family_params(family):
        junk = _FUZZ_INTS if flag == "k" else _FUZZ_VALUES
        usable = st.sampled_from(_FAMILY_VALUES[flag])
        argv += [f"--{flag}", draw(st.one_of(usable, usable, st.sampled_from(junk)))]
    for suite in draw(st.lists(st.sampled_from(cli._SUITES), max_size=2)):
        argv += ["--suite", suite]
    variant = draw(st.sampled_from([None, None, "complex", "quaternionic"]))
    if variant is not None:
        argv += ["--variant", variant]
    if draw(st.integers(0, 3)) == 0:
        argv += ["--regularize", draw(st.sampled_from(["0.5", "nan", "0", "1e300"]))]
    return argv


@settings(max_examples=100, derandomize=True, deadline=None)
@given(argv=verify_argv())
@example(argv=["verify", "laplacian", "--n", "1", "--samples", "1", "--variant", "complex"])
def test_verify_fuzz_exits_cleanly(argv):
    _exits_cleanly(argv, *_main(argv + ["--no-timestamp"]))


_USABLE_ANGLE_TOL = st.sampled_from(["0.15", "0.3", "1e-3"])


@st.composite
def grassmann_argv(draw):
    usable = st.sampled_from(["g2r3", "g1r3", "g2r4", "g1r2", "g3r3"])
    spec = draw(st.one_of(usable, usable, st.sampled_from(
        ["g0r3", "g4r3", "g-1r2", "g2", "r3", "gar3", "g2r", "g2r3x"])))
    argv = ["grassmann", spec,
            "--planes", draw(st.sampled_from(["64", "16", "64", "16", "1", "0", "-1"])),
            "--angle-tol", draw(st.one_of(_USABLE_ANGLE_TOL, _USABLE_ANGLE_TOL, st.sampled_from(
                ["nan", "inf", "-inf", "0", "-1", "1e300"])))]
    for flag in ("transitivity", "charx"):
        if draw(st.booleans()):
            argv.append(f"--{flag}")
    for flag in ("x", "y"):
        if draw(st.integers(0, 3)) == 0:
            argv += [f"--{flag}", *draw(st.lists(_FIELD_VALUE, min_size=1, max_size=5))]
    return argv


@settings(max_examples=100, derandomize=True, deadline=None)
@given(argv=grassmann_argv())
@example(argv=["grassmann", "g2r3", "--transitivity", "--planes", "64", "--angle-tol", "nan"])
@example(argv=["grassmann", "g2r3", "--transitivity", "--planes", "64", "--angle-tol", "-1"])
def test_grassmann_fuzz_exits_cleanly(argv):
    code, out, err = _main(argv + ["--no-timestamp"])
    _exits_cleanly(argv, code, out, err)
    angle_tol = float(argv[argv.index("--angle-tol") + 1])
    if not (math.isfinite(angle_tol) and angle_tol > 0):
        # an unusable tolerance is a domain error, not a failed check
        assert code in (3, 4), argv


@pytest.mark.parametrize("argv,flags", [
    (["verify", "p", "--suite", "cone"], ["--n", "3"]),
    (["verify", "p", "--suite", "cone"], ["--samples", "200"]),
])
def test_a_flag_given_at_its_default_changes_nothing(capsys, argv, flags):
    assert run_json(capsys, *argv, *flags) == run_json(capsys, *argv)


@pytest.mark.parametrize("argv,reason", [
    (["density", "newtonian", "--p", "3", "--n", "3", "--center", "1", "0"],
     "center must be 3 finite coordinates"),
    (["flow", "log-coord", "--n", "3", "--p", "2", "--candidate", "smooth"], "even --n"),
    (["density", "newtonian", "--p", "3", "--n", "3", "--mass", "--radii", "1", "0.5", "inf"],
     "strictly decreasing"),
    (["density", "newtonian", "--p", "3", "--n", "3", "--mass", "--radii", "inf", "1", "0.5"],
     "radius must be positive and finite, got inf"),
    (["flow", "riesz", "--p", "3", "--n", "4", "--radii", "1", "nan", "0.25"],
     "flow radii must be positive and finite"),
    (["density", "riesz", "--theta", "3", "--p", "3", "--n", "4", "--radii", "1", "0.5", "nan"],
     "radius must be positive and finite, got nan"),
    (["density", "smooth", "--n", "-1", "--p", "2"], "n >= 2"),
    (["density", "newtonian", "--p", "3", "--n", "3", "--mass", "--radii", "1"],
     "strictly decreasing, at least three"),
    (["flow", "newtonian", "--n", "0", "--p", "2.5"], "n >= 2"),
    (["charx", "full-space", "--n", "3"], "contains -Id"),
    (["density", "newtonian", "--p", "3", "--n", "4", "--offset", "nan"],
     "kernel center [nan, 0.0, 0.0, 0.0] is not finite"),
    (["flow", "newtonian", "--p", "3", "--n", "4", "--offset", "inf"],
     "kernel center [inf, 0.0, 0.0, 0.0] is not finite"),
    (["flow", "radial-perturbed", "--p", "3", "--n", "4", "--conv-tol", "nan"],
     "tol must be finite and > 0, got nan"),
    (["flow", "radial-perturbed", "--p", "3", "--n", "4", "--conv-tol", "-1"],
     "tol must be finite and > 0, got -1.0"),
    (["charx", "sigma-k", "--n", "4", "--k", "2", "--check-directions", "-1"],
     "check_directions must be >= 0, got -1"),
    # the directions are drawn as one stack, which numpy refuses up front; a
    # list built one vector at a time grew until the process was killed
    (["charx", "p", "--n", "3", "--check-directions", "100000000000"],
     "error: out of memory"),
    # the kernel's exponent check is the density's, made before any shell
    (["density", "zero", "--p", "inf", "--n", "4"], "error: kernel needs 1 <= p < inf, got inf"),
    # and the flow's, made before any evaluation: the factor r^(p - 2) was
    # NaN, every flowed value clipped, and the sup distance 1e12 exited 2
    (["flow", "zero", "--p", "nan", "--n", "3", "--candidate", "zero"],
     "error: kernel needs 1 <= p < inf, got nan"),
])
def test_bad_field_inputs_exit_3_with_their_reason(capsys, argv, reason):
    code = cli.main(argv + ["--no-timestamp"])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and reason in captured.err


@pytest.mark.parametrize("argv,reason", [
    (["charx", "p", "--n", "3", "--bogus"], "unrecognized arguments: --bogus"),
    (["density", "riesz", "--p", "3", "--n", "4", "--theta", "-inf"],
     "argument --theta: expected one argument"),
    (["density", "riesz", "--n", "4"], "required: --p"),
    (["charx", "p", "--n", "three"], "invalid int value"),
    (["frobnicate"], "invalid choice"),
    (["charx", "p", "--n", "3", "--config", "x.json"], "unrecognized arguments: --config"),
])
def test_usage_errors_are_config_errors(argv, reason):
    result = _charx_subprocess(argv)
    assert result.returncode == 4
    assert result.stdout == ""
    assert result.stderr.startswith("config error:") and result.stderr.count("\n") == 1
    assert reason in result.stderr


def test_every_flag_is_read_by_its_command():
    # read as args.<dest> in the command's cmd_* function or in a helper it
    # calls; build_family reads each family parameter through getattr
    family_params = {key for name in subeq.family_names() for key in subeq.family_params(name)}
    parser = cli.build_parser()
    for name in parser._subparsers._group_actions[0].choices:
        sub = parser._subparsers._group_actions[0].choices[name]
        source = inspect.getsource(sub.get_default("func"))
        texts = [source] + [
            inspect.getsource(helper) for helper in (cli.build_family, cli.build_field, cli.emit)
            if f"{helper.__name__}(" in source]
        if "build_field(" in source:  # each field's builder reads its own flags
            texts += [inspect.getsource(build) for build in cli._FIELDS.values()]
        read = {dest for text in texts
                for dest in re.findall(r'(?:\bargs\.|getattr\(args, ")(\w+)', text)}
        if "build_family(" in source:
            read |= family_params
        flags = {action.dest for action in sub._actions
                 if action.option_strings and action.dest != "help"}
        assert flags <= read, (name, sorted(flags - read))


@pytest.mark.parametrize("argv", [
    ["charx", "sigma-k", "--n", "4", "--k", "2", "--quad", "64"],
    ["verify", "p", "--n", "3", "--format", "json"],
    ["table", "--seed", "1"],
    ["density", "riesz", "--p", "3", "--n", "4", "--tol", "1e-6"],
    ["flow", "riesz", "--p", "3", "--n", "4", "--format", "json"],
    ["grassmann", "g2r3", "--quad", "256"],
    ["radial", "kernel", "--p", "3", "--seed", "1"],
    ["charx", "sigma-k", "--n", "4", "--k", "2", "--theta", "2"],
    ["density", "riesz", "--p", "3", "--n", "4", "--k", "2"],
    ["grassmann", "g2r3", "--n", "3"],
    ["radial", "kernel", "--p", "3", "--planes", "4"],
])
def test_flags_a_command_does_not_read_are_refused(argv):
    code, out, err = _main([*argv, "--no-timestamp"])
    assert (code, out) == (4, ""), argv
    assert err.startswith("config error:") and err.count("\n") == 1, argv


@pytest.mark.parametrize("argv", [
    ["charx", "sigma-k", "--n", "4", "--k", "2"],
    ["verify", "p", "--n", "3"],
    ["table"],
    ["density", "riesz", "--p", "3", "--n", "4"],
    ["flow", "riesz", "--p", "3", "--n", "4"],
    ["grassmann", "g2r3"],
    ["radial", "kernel", "--p", "3"],
], ids=lambda argv: argv[0])
def test_config_is_an_unknown_flag_to_every_command(argv):
    # flags are given on the command line only; no command reads a JSON file
    code, out, err = _main([*argv, "--config", "cfg.json", "--no-timestamp"])
    assert (code, out) == (4, "")
    assert err == "config error: unrecognized arguments: --config cfg.json\n"


@pytest.mark.parametrize("argv,flag", [
    (["radial", "kernel", "--p", "3", "--n"], "--n"),
    (["charx", "sigma-k", "--n", "4", "--k", "2", "--no-time"], "--no-time"),
    (["charx", "p", "--n", "3", "--che", "1"], "--che"),
    (["density", "riesz", "--p", "3", "--n", "4", "--the", "2"], "--the"),
])
def test_abbreviated_flags_are_refused_by_name(argv, flag):
    code, out, err = _main([*argv, "--no-timestamp"])
    assert (code, out) == (4, "")
    assert err.startswith("config error: unrecognized arguments: " + flag)
    assert err.count("\n") == 1


SEEDED_COMMANDS = [
    ["charx", "sigma-k", "--n", "4", "--k", "2", "--check-directions", "3"],
    ["verify", "sigma-k", "--n", "4", "--k", "2"],
    ["density", "riesz", "--p", "3", "--n", "4"],
    ["flow", "radial-perturbed", "--p", "3", "--n", "4"],
    ["grassmann", "g2r3"],
]


@pytest.mark.parametrize("argv", SEEDED_COMMANDS, ids=lambda argv: argv[0])
def test_a_negative_seed_is_a_config_error(argv):
    # numpy's generators take integers >= 0: a negative seed was a ValueError
    # traceback with exit 1
    code, out, err = _main([*argv, "--seed", "-1", "--no-timestamp"])
    assert (code, out) == (4, "")
    assert err == "config error: argument --seed: invalid seed value: '-1'\n"


def test_help_still_exits_0():
    result = _charx_subprocess(["density", "-h"])
    assert result.returncode == 0
    assert result.stdout.startswith("usage: rieszlab density") and result.stderr == ""


@pytest.mark.parametrize("argv,exit_code,err_lines,reason", [
    # the signed powers are taken of the rescaled spectrum, so they stay finite
    (["charx", "trace-power", "--n", "8", "--k", "2", "--q", "1e300", "--regularize", "0.5"],
     0, 0, ""),
    # overflow to inf is read correctly and prints no numpy warning
    (["charx", "sigma-k", "--n", "4", "--k", "2", "--variant", "quaternionic",
      "--regularize", "1e300"], 0, 0, ""),
    (["charx", "min-2", "--n", "5", "--p", "1e300", "--regularize", "1e300"], 0, 0, ""),
    (["charx", "p", "--n", "1"], 3, 1, "n >= 2"),
])
def test_charx_overflow_and_n1_exit_codes(argv, exit_code, err_lines, reason):
    env = dict(os.environ, PYTHONPATH=str(Path(rieszlab.__file__).parents[1]))
    result = subprocess.run([sys.executable, "-m", "rieszlab.cli", *argv, "--no-timestamp"],
                            env=env, capture_output=True, text=True)
    assert result.returncode == exit_code
    assert result.stderr.count("\n") == err_lines and reason in result.stderr
    assert bool(result.stdout) == (exit_code == 0)


@pytest.mark.parametrize("argv,q", [
    # p-convex with n - 1 < p < n: q = p / (p - n + 1)
    (["charx", "p-convex", "--n", "3", "--p", "2.01"], 201.0),
    # the complex lift doubles it
    (["charx", "p-convex", "--n", "3", "--p", "2.01", "--variant", "complex"], 402.0),
    # largest-convex: q = p (n - 1) / (p - 1)
    (["charx", "largest-convex", "--n", "4", "--p", "1.01"], 303.0),
])
def test_charx_decreasing_characteristic_above_128(capsys, argv, q):
    # exit 0 means two matrix margins of the dual confirmed its spectral bracket as well
    code, payload = run_json(capsys, *argv)
    assert code == 0
    assert payload["q"] == pytest.approx(q, abs=1e-6)
    assert float(payload["residual"]) <= 1e-8


def _charx_subprocess(argv):
    env = dict(os.environ, PYTHONPATH=str(Path(rieszlab.__file__).parents[1]))
    return subprocess.run([sys.executable, "-m", "rieszlab.cli", *argv, "--no-timestamp"],
                          env=env, capture_output=True, text=True)


_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def test_direction_check_too_large_for_a_memory_cap_exits_3_at_once():
    # the pencils along the directions are one stack, allocated before any
    # loop over them, so under a 2,000,000 KiB address-space cap numpy
    # refuses it at once, before the per-direction work of seconds begins
    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (2_000_000 * 1024,) * 2)

    # one BLAS thread: per-thread buffers of many cores would not map under the cap
    env = dict(os.environ, PYTHONPATH=str(Path(rieszlab.__file__).parents[1]),
               **dict.fromkeys(_THREAD_VARS, "1"))
    start = time.monotonic()
    result = subprocess.run([sys.executable, "-m", "rieszlab.cli", "charx", "p", "--n", "16",
                             "--check-directions", "5000000", "--no-timestamp"],
                            env=env, capture_output=True, text=True, preexec_fn=cap,
                            timeout=60)
    assert time.monotonic() - start < 5.0
    assert (result.returncode, result.stdout) == (3, "")
    assert result.stderr.startswith("error: out of memory") and result.stderr.count("\n") == 1


def test_charx_residual_above_tolerance_is_a_failed_check():
    # the regularized margin at -P_e is about -1e-300, inside the membership
    # band, so -P_e reads as a member: p = inf against the closed form 8e300
    result = _charx_subprocess(["charx", "subaffine", "--n", "8", "--regularize", "1e-300"])
    assert result.returncode == 2
    assert result.stderr.count("\n") == 1
    assert all(word in result.stderr
               for word in ("p = inf", "closed_form = 7.999999999999999e+300", "residual = inf"))
    assert json.loads(result.stdout)["residual"] == "inf"


@pytest.mark.parametrize("argv,closed_form", [
    (["charx", "trace-power", "--n", "2", "--k", "2", "--q", "1e300",
      "--variant", "quaternionic", "--regularize", "0.5"], 8.0),
    (["charx", "trace-power", "--n", "8", "--k", "2", "--q", "1e300", "--regularize", "0.5"],
     8.0 / 3.0),
])
def test_charx_trace_power_at_huge_q_answers_its_closed_form(capsys, argv, closed_form):
    # |lambda|^q over- or underflows for every |lambda| != 1; the sign of the
    # margin is read from the spectrum divided by its largest head entry
    code, payload = run_json(capsys, *argv)
    assert code == 0
    assert payload["closed_form"] == closed_form
    assert payload["p"] == pytest.approx(closed_form, abs=1e-8)


@pytest.mark.parametrize("argv,key,name", [
    # 6 digits would print p=2 for each of these
    (["charx", "p-convex", "--n", "3", "--p", "2.0000001"], None,
     "no boundary crossing for dual(p-convex(p=2.0000001))"),
    (["density", "riesz", "--p", "2.000000001", "--theta", "3", "--n", "4", "--quad", "256"],
     "field", "riesz(theta=3,p=2.000000001)"),
    (["radial", "kernel", "--p", "3.0000001"], "profile", "1*K_3.0000001"),
    # ... while names that round-trip in 6 digits keep them
    (["density", "riesz", "--p", "2.5", "--theta", "0.1", "--n", "4", "--quad", "256"],
     "field", "riesz(theta=0.1,p=2.5)"),
])
def test_names_keep_every_digit_of_their_parameters(capsys, argv, key, name):
    if key is None:
        result = _charx_subprocess(argv)
        assert result.returncode == 3 and name in result.stderr
    else:
        code, payload = run_json(capsys, *argv)
        assert code == 0 and payload[key] == name


def test_charx_trace_power_at_tiny_q_refuses_in_one_line():
    # 1 + (k - 1)^(1/q) overflows the closed form: inf, and no bracket holds it
    result = _charx_subprocess(["charx", "trace-power", "--n", "4", "--k", "3", "--q", "1e-300"])
    assert (result.returncode, result.stdout) == (3, "")
    assert result.stderr.startswith("error: no boundary crossing for trace-power(k=3,q=1e-300)")
    assert result.stderr.count("\n") == 1


@pytest.mark.parametrize("argv,shift,code,err", [
    (["charx", "no-such", "--n", "3"], None, 4, "config error: unknown family 'no-such'; known: "),
    (["density", "no-such", "--p", "3"], None, 4, "config error: unknown field 'no-such'"),
    # newtonian with its second mass at --offset is the one spelling of two kernels
    (["density", "two-kernel", "--p", "3", "--n", "4"], None, 4,
     "config error: unknown field 'two-kernel'; known: ['log-coord', 'newtonian', "
     "'partial-kernel', 'radial-perturbed', 'riesz', 'smooth', 'zero']"),
    (["radial", "no-such"], None, 4, "config error: unknown profile 'no-such'; known: "),
    # a family outside the closed-form catalog reports no closed_form or residual
    (["charx", "dual-min-max", "--n", "4", "--p", "3"], None, 0, ""),
    # a closed form moved by 1 leaves a residual of about 1: a failed check
    (["charx", "p-convex", "--n", "3", "--p", "2"], 1.0, 2, "check failed: p = "),
], ids=["family", "field", "alias", "profile", "no-closed-form", "residual"])
def test_unknown_names_and_charx_closed_form_branches(monkeypatch, argv, shift, code, err):
    if shift is not None:
        build = cli.build_family

        def moved(*args):
            f = build(*args)
            return dataclasses.replace(f, closed_form=f.closed_form + shift)

        monkeypatch.setattr(cli, "build_family", moved)
    got, out, stderr = _main([*argv, "--no-timestamp"])
    assert got == code
    assert stderr.startswith(err) and stderr.count("\n") == (code != 0)
    if code == 4:
        assert out == ""
        return
    payload = json.loads(out)
    assert ("closed_form" in payload, "residual" in payload) == (shift is not None,) * 2
    if shift is not None:
        assert payload["residual"] == pytest.approx(1.0, abs=1e-8)
        assert f"residual = {payload['residual']!r}" in stderr


def test_charx_residual_within_tolerance_exits_0():
    result = _charx_subprocess(["charx", "sigma-k", "--n", "4", "--k", "2"])
    assert result.returncode == 0 and result.stderr == ""
    assert float(json.loads(result.stdout)["residual"]) <= 1e-8


def test_verify_pdelta_uniform_ellipticity(capsys):
    code, payload = run_json(capsys, "verify", "pdelta", "--n", "3", "--delta", "1",
                             "--suite", "ue", "--samples", "300")
    assert code == 0
    assert payload["reports"][0]["pass"] is True


@pytest.mark.parametrize("family", [
    ["pdelta", "--delta", "1", "--variant", "complex"],
    ["pdelta", "--delta", "1", "--variant", "quaternionic"],
    ["pdelta", "--delta", "1", "--regularize", "5"],
    ["sigma-k", "--k", "2"],
])
def test_verify_ue_checks_plain_pdelta_only(capsys, family):
    # the suite checks pdelta on R^n itself: an explicit --suite ue on any
    # other family is refused, and the default list leaves it out
    argv = ["verify", *family, "--n", "3"]
    code, out, err = _main([*argv, "--suite", "ue", "--no-timestamp"])
    assert (code, out) == (4, "")
    assert err == ("config error: --suite ue applies to the pdelta family, with no --variant "
                   "or --regularize\n")
    code, payload = run_json(capsys, *argv, "--samples", "20")
    assert code == 0
    assert [r["property"] for r in payload["reports"]] == [
        "positivity", "cone", "st-invariance", "maximum-principle", "sandwich"]


def test_verify_sigma_k_sandwich(capsys):
    code, payload = run_json(capsys, "verify", "sigma-k", "--n", "4", "--k", "2",
                             "--suite", "sandwich", "--samples", "300")
    assert code == 0
    assert payload["reports"][0]["pass"] is True


def test_verify_full_space_fails_mp(capsys):
    code, payload = run_json(capsys, "verify", "full-space", "--suite", "mp")
    assert code == 2
    assert payload["reports"][0]["pass"] is False


def test_verify_names_the_failed_suites_on_stderr(capsys):
    # one stderr line names every failed suite; passed and skipped ones are left out
    code = cli.main(["verify", "full-space", "--n", "3", "--samples", "20", "--no-timestamp",
                     *("--suite", "mp", "--suite", "positivity", "--suite", "sandwich",
                       "--suite", "mp")])
    captured = capsys.readouterr()
    reports = json.loads(captured.out)["reports"]
    assert code == 2
    assert [(r["pass"], r["skipped"]) for r in reports] == [
        (False, False), (True, False), (True, True), (False, False)]
    failed = "maximum-principle worst_violation = 1.0, tolerance = 1e-12"
    assert captured.err == f"check failed: {failed}; {failed}\n"
    assert cli.main(["verify", "pdelta", "--n", "3", "--delta", "1", "--suite", "ue",
                     "--no-timestamp"]) == 0
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("argv", [
    ["flow", "log-coord", "--n", "4", "--p", "2", "--candidate", "riesz"],
    ["grassmann", "g2r3", "--planes", "4", "--transitivity"],
], ids=["flow", "grassmann"])
def test_flow_and_transitivity_failures_print_one_line_after_the_report(capsys, argv):
    code = cli.main([*argv, "--no-timestamp"])
    captured = capsys.readouterr()
    payload = json.loads(captured.out)
    if argv[0] == "flow":  # the deepest distance against --conv-tol
        reason = (f"{payload['metric']} distance at r = {payload['radii'][-1]} is "
                  f"{payload['distances'][-1]}, conv_tol = {payload['tolerance']}")
    else:
        reason = f"transitivity: {payload['transitivity']['reason']}"
    assert (code, captured.err) == (2, f"check failed: {reason}\n")


# ---------------------------------------------------------------------------
# table
# ---------------------------------------------------------------------------


def test_table_csv(capsys):
    code, out = run(capsys, "table", "--format", "csv", "--no-timestamp")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "family,params,n,computed_p,closed_form_p,residual"
    assert len(lines) - 1 >= 12
    for line in lines[1:]:
        residual = float(line.rsplit(",", 1)[1])
        assert residual < 1e-6


def test_table_covers_required_families(capsys):
    _, out = run(capsys, "table", "--format", "csv", "--no-timestamp")
    body = out.lower()
    for token in ("sigma-k", "p-convex", "pdelta", "trace-power", "regularized",
                  "complex", "quaternionic", "min-max", "min-2", "largest-convex"):
        assert token in body


# ---------------------------------------------------------------------------
# density / flow / grassmann / radial
# ---------------------------------------------------------------------------


def test_density_zero_theta_is_used_as_given(capsys):
    code, payload = run_json(capsys, "density", "riesz", "--theta", "0", "--p", "3",
                             "--n", "4", "--quad", "256")
    assert code == 0
    assert payload["field"] == "riesz(theta=0,p=3)"
    assert payload["theta"] == {"M": 0.0, "S": 0.0, "V": 0.0}


def test_density_zero_m_is_rejected(capsys):
    code = cli.main(["density", "partial-kernel", "--p", "3", "--n", "4", "--m", "0",
                     "--no-timestamp"])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert captured.err.startswith("error:") and captured.err.count("\n") == 1


def test_density_command(capsys):
    code, payload = run_json(capsys, "density", "riesz", "--theta", "3", "--p", "3",
                             "--n", "4", "--quad", "1024")
    assert code == 0
    assert payload["theta"]["M"] == pytest.approx(3.0, abs=1e-3)
    assert payload["theta"]["S"] == pytest.approx(3.0, abs=1e-3)
    assert payload["theta"]["V"] == pytest.approx(4.0, rel=1e-2)


def test_mass_density_command(capsys):
    code, payload = run_json(capsys, "density", "newtonian", "--p", "3", "--n", "3",
                             "--quad", "1024", "--mass")
    assert code == 0
    assert payload["theta_mass"] == pytest.approx(4.0 * 3.141592653589793, rel=0.02)


def test_flow_command(capsys):
    code, payload = run_json(capsys, "flow", "radial-perturbed", "--p", "3", "--n", "4",
                             "--candidate", "riesz", "--quad", "512")
    assert code == 0
    assert payload["converged"] is True


def test_grassmann_transitivity(capsys):
    code, payload = run_json(capsys, "grassmann", "g2r3", "--transitivity",
                             "--planes", "256", "--angle-tol", "0.15")
    assert code == 0
    assert payload["transitivity"]["found"] is True


@pytest.mark.parametrize("argv", [
    ["g2r3", "--transitivity", "--x", "1", "0"],
    ["g2r3", "--transitivity", "--y", "1", "nan", "0"],
    ["g5r3"],
    *(["g2r3", "--transitivity", "--angle-tol", tol] for tol in ("nan", "-1", "0", "inf")),
])
def test_grassmann_bad_input_is_one_error_line(capsys, argv):
    code = cli.main(["grassmann", *argv, "--planes", "16", "--no-timestamp"])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert captured.err.startswith("error:") and captured.err.count("\n") == 1


@pytest.mark.parametrize("planes", ["0", "-1"])
def test_grassmann_refuses_an_empty_sample(capsys, planes):
    code = cli.main(["grassmann", "g2r3", "--planes", planes, "--no-timestamp"])
    captured = capsys.readouterr()
    assert (code, captured.out) == (3, "")
    assert captured.err == f"error: Grassmann sample needs count >= 1, got count={planes}\n"


def test_grassmann_charx(capsys):
    code, payload = run_json(capsys, "grassmann", "g2r4", "--charx", "--planes", "64")
    assert code == 0
    assert payload["charx"]["p"] == pytest.approx(2.0, abs=1e-6)


def test_radial_command(capsys):
    code, payload = run_json(capsys, "radial", "kernel", "--p", "3")
    assert code == 0
    assert payload["classification"]["kind"] == "increasing"
    assert payload["density"]["theta"] == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize("grid", [["--grid-max", "nan"], ["--grid-min", "inf"],
                                  ["--grid-min", "2", "--grid-max", "1"], ["--grid-min", "0"]])
def test_radial_grid_must_be_finite_and_increasing(capsys, grid):
    code = cli.main(["radial", "kernel", "--p", "3", *grid, "--no-timestamp"])
    captured = capsys.readouterr()
    assert (code, captured.out) == (3, "")
    assert captured.err.count("\n") == 1 and "the radial grid needs" in captured.err


@pytest.mark.parametrize("points", ["-5", "0", "3"])
def test_radial_grid_needs_four_points(capsys, points):
    code = cli.main(["radial", "kernel", "--p", "3", "--grid-points", points, "--no-timestamp"])
    captured = capsys.readouterr()
    assert (code, captured.out) == (3, "")
    assert captured.err.count("\n") == 1 and "--grid-points >= 4" in captured.err


def test_radial_dip_classification(capsys):
    # the classification is a diagnostic; the failed K_p-convexity check sets exit 2
    code, payload = run_json(capsys, "radial", "shifted-square", "--p", "3")
    assert code == 2
    assert payload["classification"]["kind"] == "decreasing-then-increasing"
    assert payload["kp_convexity"]["pass"] is False


@pytest.mark.parametrize("profile,code", [("shifted-square", 2), ("kernel", 0)])
def test_radial_exit_code_is_the_kp_convexity_check(capsys, profile, code):
    assert cli.main(["radial", profile, "--p", "3", "--no-timestamp"]) == code
    captured = capsys.readouterr()
    assert json.loads(captured.out)["kp_convexity"]["pass"] is (code == 0)
    if code:
        assert captured.err.count("\n") == 1
        assert captured.err.startswith("check failed: kp-convexity worst_violation = ")
    else:
        assert captured.err == ""


# ---------------------------------------------------------------------------
# determinism, exit codes
# ---------------------------------------------------------------------------


def test_output_is_byte_identical(capsys):
    _, out1 = run(capsys, "charx", "sigma-k", "--n", "4", "--k", "2", "--seed", "7",
                  "--no-timestamp")
    _, out2 = run(capsys, "charx", "sigma-k", "--n", "4", "--k", "2", "--seed", "7",
                  "--no-timestamp")
    assert out1 == out2


def test_timestamp_present_by_default(capsys):
    _, out = run(capsys, "charx", "p", "--n", "3")
    assert "timestamp" in out


@pytest.mark.parametrize("argv,line", [
    (["charx", "sigma-k", "--n", "abc", "--k", "2"], "argument --n: invalid int value: 'abc'"),
    (["charx", "sigma-k", "--n", "4", "--k", "2.5"], "argument --k: invalid int value: '2.5'"),
    (["charx", "sigma-k", "--n", "True", "--k", "2"], "argument --n: invalid int value: 'True'"),
    (["charx", "sigma-k", "--n", "4", "5", "--k", "2"], "unrecognized arguments: 5"),
    (["table", "--format", "xml"],
     "argument --format: invalid choice: 'xml' (choose from 'json', 'csv')"),
    (["charx", "sigma-k", "--n", "4", "--k", "2", "--no-timestamp", "1"],
     "unrecognized arguments: 1"),
])
def test_flag_values_are_typed(capsys, argv, line):
    assert cli.main(argv) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"config error: {line}\n"


def test_output_file(tmp_path, capsys):
    target = tmp_path / "out.json"
    code = cli.main(["charx", "p", "--n", "3", "--no-timestamp", "--out", str(target)])
    assert code == 0
    payload = json.loads(target.read_text())
    assert payload["p"] == pytest.approx(1.0, abs=1e-6)


@pytest.mark.parametrize("argv", [
    ["density", "riesz", "--theta", "3", "--p", "3", "--n", "4"],
    ["charx", "sigma-k", "--n", "4", "--k", "2"],
    ["radial", "kernel", "--p", "3"],
])
def test_csv_format_is_refused_before_any_work(tmp_path, capsys, argv):
    target = tmp_path / "c.csv"
    extra = ["--curve-out", str(target)] if argv[0] == "density" else []
    code = cli.main([*argv, "--format", "csv", *extra, "--out", str(tmp_path / "out")])
    captured = capsys.readouterr()
    assert (code, captured.out) == (4, "")
    assert captured.err == "config error: unrecognized arguments: --format csv\n"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv", [
    ["table", "--out"],
    ["density", "riesz", "--p", "3", "--n", "3", "--quad", "256", "--curve-out"],
], ids=["out", "curve-out"])
def test_an_unwritable_output_path_exits_4_with_one_line(tmp_path, capsys, argv):
    target = tmp_path / "missing" / "report"
    code = cli.main([*argv, str(target), "--no-timestamp"])
    captured = capsys.readouterr()
    assert (code, captured.out) == (4, "")
    assert captured.err == f"config error: cannot write {target}: No such file or directory\n"


def test_density_curve_csv_output(tmp_path, capsys):
    target = tmp_path / "curves.csv"
    code, _ = run_json(capsys, "density", "riesz", "--theta", "1", "--p", "3", "--n", "3",
                       "--quad", "256", "--curve-out", str(target))
    assert code == 0
    lines = target.read_text().strip().splitlines()
    assert lines[0] == "kind,r,value,quotient"
    assert len(lines) > 10
    assert lines[1].startswith("M,")


def test_density_curve_csv_reuses_the_density_sweep(tmp_path, capsys, monkeypatch):
    # 98 shells for the densities; the curve CSV reads the same curves
    radii = []
    shell_rows = flow._shell_rows
    monkeypatch.setattr(flow, "_shell_rows", lambda *args: radii.extend(args[3])
                        or shell_rows(*args))
    argv = ("density", "riesz", "--theta", "3", "--p", "3", "--n", "4")
    target = tmp_path / "curves.csv"
    code, out = run(capsys, *argv, "--curve-out", str(target), "--no-timestamp")
    assert code == 0 and len(radii) == 98
    assert (code, out) == run(capsys, *argv, "--no-timestamp")
    report = json.loads(out)
    field = cli.build_field("riesz", cli.build_parser().parse_args([*argv]))
    swept = tmp_path / "swept.csv"
    cli._write_curve_csv(str(swept), field, np.zeros(4), np.array(report["radii"]),
                         flow.sphere_quad(4, None, 0), 3.0)
    assert target.read_text() == swept.read_text()


@pytest.mark.parametrize("argv", [
    ["charx", "complex", "p-convex", "--n", "3", "--p", "1"],
    ["charx", "quaternionic", "p", "--n", "2"],
    # the prefix no longer overrides the flag: the command is refused
    ["charx", "complex", "p-convex", "--n", "3", "--p", "1", "--variant", "quaternionic"],
])
def test_charx_variant_prefix_form_is_refused(argv):
    # --variant is the one way to lift a family
    code, out, err = _main([*argv, "--no-timestamp"])
    assert (code, out) == (4, "")
    assert err.startswith("config error: unrecognized arguments: ") and err.count("\n") == 1


def test_verify_default_suites(capsys):
    code, payload = run_json(capsys, "verify", "pdelta", "--n", "3", "--delta", "1",
                             "--samples", "150")
    assert code == 0
    names = {r["property"] for r in payload["reports"]}
    assert {"positivity", "cone", "st-invariance", "maximum-principle",
            "sandwich", "uniform-ellipticity"} <= names


def test_verify_default_handles_infinite_characteristic(capsys):
    code, payload = run_json(capsys, "verify", "subaffine", "--n", "3", "--samples", "100")
    assert code == 0
    sandwich = [r for r in payload["reports"] if r["property"] == "sandwich"][0]
    assert sandwich["skipped"] is True


@pytest.mark.parametrize("suite", ["sandwich", "invariance"])
def test_zero_samples_exit_3_before_an_infinite_characteristic_skip(capsys, suite):
    # subaffine has p = inf: the sandwich skips itself, but only after the count check
    code = cli.main(["verify", "subaffine", "--n", "3", "--suite", suite, "--samples", "0",
                     "--no-timestamp"])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert captured.err == "error: sample count must be >= 1, got 0\n"


def test_density_rejects_unbalanced_sobol_size(capsys):
    code = cli.main(["density", "riesz", "--theta", "3", "--p", "3", "--n", "4",
                     "--quad", "300", "--no-timestamp"])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert "power of two" in captured.err and captured.err.count("\n") == 1


@pytest.mark.parametrize("n", [9, 12, 16])
def test_density_has_a_default_quadrature_up_to_n_16(capsys, n):
    code, payload = run_json(capsys, "density", "riesz", "--theta", "3", "--p", "3",
                             "--n", str(n))
    assert code == 0
    exact = 3 * n / (n - 1)
    # at n = 9 theta_V is 4 ulp off; the V bracket holds the ladder's rounding
    assert abs(payload["theta"]["V"] - exact) <= payload["bracket"]["V"] + 8 * math.ulp(exact)


# every README and CI `density` and `flow` command of a kernel sum
KERNEL_SUM_COMMANDS = [
    "density riesz --theta 3 --p 3 --n 4", "density newtonian --p 3 --n 3 --mass",
    "density riesz --p 5 --n 4", "density newtonian --p 3 --n 6 --offset 2.5",
    "density newtonian --p 3 --n 4 --offset 0.5 --center 0.01 -0.02 0.03 -0.04",
    "density newtonian --p 3 --n 4 --offset 0.5 --center 0.01 -0.02 0.03 -0.04 --quad 8 "
    "--seed 9",
    "density riesz --theta 3 --p 3 --n 12", "density riesz --theta 3 --p 3 --n 16",
    "density newtonian --p 3 --n 16 --offset 0.5", "density newtonian --p 3 --n 8 --offset 2.5",
    "density riesz --theta 3 --p 3 --n 8", "density newtonian --p 3 --n 4 --offset 0.5",
    "density newtonian --n 3 --p 3 --offset 0.5", "density riesz --theta 1 --n 4 --p 5.9",
    "density riesz --theta 3 --p 3 --n 6", "density riesz --theta 3 --p 2 --n 2",
    "density riesz --theta 3 --p 2.5 --n 2", "density newtonian --p 3 --n 4 --offset 1e160",
    "density newtonian --p 1.5 --n 4 --offset 1e150",
    "density newtonian --p 3 --n 4 --offset 0.5 --center 0.01 -0.02 0.03 -0.04 "
    "--radii 1e160 1e159 1e158",
    "density newtonian --p 2.001 --n 4 --offset 1e160",
    "density newtonian --p 2 --n 2 --offset 1 --center 0.3 0.4",
    "density riesz --p 4 --n 3 --center 0.5 0 0", "density riesz --theta 1e304 --p 3 --n 4",
    "density newtonian --p 3 --n 4 --theta 1e304 --offset 0.5",
    "density newtonian --p 2 --n 4 --offset 1e160",
    "density newtonian --p 2 --n 4 --offset 0.5 --radii 1e160 1e159 1e158",
    "flow riesz --p 1.5 --n 3 --candidate riesz",
    "flow riesz --p 1.5 --n 3 --candidate riesz --metric holder --beta 0.25",
]


@pytest.mark.parametrize("command", KERNEL_SUM_COMMANDS)
def test_no_kernel_sum_report_reads_a_sphere_point(monkeypatch, capsys, command):
    # each sphere set is built fresh, so that one drawn by an earlier call
    # is seen: a density reads none, and a flow only its comparison grid
    # (256 points, seed 7), not the set of --quad and --seed
    built = []

    def fresh(*args, **kwargs):
        built.append(flow.SphereQuad(*args, **kwargs))
        return built[-1]

    monkeypatch.setattr(flow, "sphere_quad", fresh)
    code = cli.main([*command.split(), "--no-timestamp"])
    capsys.readouterr()
    assert code in (0, 3)
    read = [(quad.size, quad.seed) for quad in built if "points" in vars(quad)]
    assert built and read == ([(256, 7)] if command.startswith("flow") else [])


@pytest.mark.parametrize("argv,line", [
    (["--n", "17"], "error: Sobol direction numbers are tabulated for 1 <= d <= 16, got d = 17\n"),
    (["--n", "3", "--quad", "2097152"], "error: quadrature size must be at most 2^20, 16 times "
     "the largest default, got 2097152\n"),
])
def test_a_kernel_sum_density_still_refuses_its_sphere_set(monkeypatch, capsys, argv, line):
    # the set is checked when it is built, though no kernel sum reads it
    monkeypatch.setattr(flow, "sobol", lambda *args: pytest.fail("drew a point"))
    code = cli.main(["density", "riesz", "--theta", "3", "--p", "3", *argv, "--no-timestamp"])
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (3, "", line)


@pytest.mark.parametrize("extra", [["--quad", "8", "--seed", "9"], ["--seed", "123"],
                                   ["--quad", "1048576"]])
def test_quad_and_seed_change_no_kernel_sum_density(capsys, extra):
    base = "density newtonian --p 3 --n 4 --offset 0.5 --center 0.01 -0.02 0.03 -0.04".split()
    assert run(capsys, *base, "--no-timestamp") == run(capsys, *base, *extra, "--no-timestamp")


def test_density_refuses_n_beyond_the_sobol_table(capsys):
    code = cli.main(["density", "riesz", "--theta", "3", "--p", "3", "--n", "17",
                     "--no-timestamp"])
    captured = capsys.readouterr()
    assert (code, captured.out) == (3, "")
    assert "d <= 16" in captured.err and captured.err.count("\n") == 1


def test_density_answers_below_the_clip_floor(capsys):
    # the innermost V shell (radius about 4.3e-5) has finite values below
    # CLIP_FLOOR; only non-finite values are singular-set hits
    code, payload = run_json(capsys, "density", "riesz", "--p", "5", "--n", "4")
    assert code == 0
    assert payload["theta"] == {"M": 1.0, "S": 1.0, "V": pytest.approx(4.0, rel=1e-12)}
    assert payload["clipped_fraction"] == 0.0


@pytest.mark.parametrize("argv,theta", [
    (["riesz", "--theta", "1e303", "--p", "3", "--n", "4"], {"M": 1e303, "S": 1e303}),
    (["riesz", "--theta", "1e300", "--p", "3", "--n", "4"], {"M": 1e300, "S": 1e300}),
    (["newtonian", "--p", "3", "--n", "3", "--mass", "--theta", "1e304"], None),
], ids=["centred-1e303", "centred-1e300", "centred-mass"])
def test_density_answers_where_a_sum_of_samples_overflowed(capsys, argv, theta):
    # theta K(r) = -1e303 / r: a sum of 4,096 samples overflowed on the
    # shell of radius 0.000183 (and at --mass --theta 1e304 on that of
    # radius 0.125), but each mean and its rounding bound are finite
    code, payload = run_json(capsys, "density", *argv)
    assert code == 0
    if theta is None:
        assert math.isfinite(payload["theta_mass"]) and math.isfinite(payload["bracket"])
        return
    assert {kind: payload["theta"][kind] for kind in theta} == theta
    assert payload["theta"]["V"] == pytest.approx(4.0 / 3.0 * theta["S"], rel=1e-14)
    assert all(math.isfinite(b) for b in [*payload["bracket"].values(),
                                          payload["noise_bound"]])


def test_density_names_the_shell_whose_values_overflow(capsys):
    # the sampled field theta K(r) plus a quadratic is -8e304 on the S
    # shell of radius 0.125: every sample is finite, but their sum
    # overflows to -inf; at theta = 1e300 the sums of every shell stay finite
    code = cli.main(["density", "radial-perturbed", "--theta", "1e304", "--p", "3", "--n", "4",
                     "--no-timestamp"])
    captured = capsys.readouterr()
    assert (code, captured.out) == (3, "")
    assert captured.err == "error: the sum of the sphere samples at radius 0.125 overflows\n"
    code, payload = run_json(capsys, "density", "radial-perturbed", "--theta", "1e300", "--p",
                             "3", "--n", "4")
    assert code == 0 and payload["theta"]["M"] == pytest.approx(1e300, rel=1e-14)


@pytest.mark.parametrize("argv,message", [
    # theta K(r) = -1e308 / r overflows at radius 1/2: the mean itself does
    (["riesz", "--theta", "1e308", "--p", "3", "--n", "4"],
     "the sphere mean at radius 0.5 is not finite (float overflow)"),
    # theta K(r) = -1e304 / r is -5.5e307 at the innermost V radius: the
    # mean is finite, its rounding bound 4 |mean| is not
    (["riesz", "--theta", "1e304", "--p", "3", "--n", "4"],
     "the rounding bound of the sphere mean at radius 0.000183287 overflows"),
    (["newtonian", "--p", "3", "--n", "4", "--theta", "1e304", "--offset", "0.5"],
     "the rounding bound of the sphere mean at radius 0.000183287 overflows"),
    # at --theta2 1e306 the second mass's mean through its pole, -2e306, is
    # finite and its rounding bound is not
    (["newtonian", "--p", "3", "--n", "3", "--theta", "1", "--offset", "0.5", "--theta2",
      "1e306"], "the rounding bound of the sphere mean at radius 0.5 overflows"),
    # the second mass's exact mean is -2e308 on the sphere through its pole
    (["newtonian", "--p", "3", "--n", "3", "--theta", "1", "--offset", "0.5", "--theta2",
      "1e308"], "the sphere mean at radius 0.5 is not finite (float overflow)"),
], ids=["centred-mean", "centred-rounding", "off-centre-rounding", "through-pole-rounding",
        "exact-mean"])
def test_density_refuses_a_shell_sum_that_overflows(capsys, argv, message):
    # a rounding bound that overflowed printed a V bracket of inf with exit 0
    code = cli.main(["density", *argv, "--no-timestamp"])
    captured = capsys.readouterr()
    assert (code, captured.out) == (3, "")
    assert captured.err == f"error: {message}\n"


@pytest.mark.parametrize("argv,theta", [
    (["newtonian", "--p", "3", "--n", "4", "--offset", "1e160"], {"M": 1.0, "S": 1.0, "V": 4 / 3}),
    (["riesz", "--p", "3", "--n", "4", "--center", "1e200", "1e200", "0", "0"],
     {"M": 0.0, "S": 0.0, "V": 0.0}),
], ids=["second-mass", "far-centre"])
def test_density_keeps_a_centre_whose_squared_distance_overflows(capsys, argv, theta):
    # |x0 - c|^2 overflows beyond 1e154: the mean reads q / max(r, d)^2
    code, payload = run_json(capsys, "density", *argv)
    assert code == 0
    assert (payload["theta"]["M"], payload["theta"]["S"]) == (theta["M"], theta["S"])
    assert abs(payload["theta"]["V"] - theta["V"]) <= payload["bracket"]["V"]


@pytest.mark.parametrize("p", ["2", "1.5"])
def test_density_refuses_a_centre_whose_squared_distance_overflows_at_p_up_to_2(capsys, p):
    code = cli.main(["density", "newtonian", "--p", p, "--n", "4", "--offset", "1e160",
                     "--no-timestamp"])
    captured = capsys.readouterr()
    assert (code, captured.out) == (3, "")
    assert captured.err == ("error: the sphere mean of a kernel centre at distance 1e+160 from "
                            "x0 is refused at p <= 2: its squared distance overflows\n")


FAR_RADII = ["--offset", "0.5", "--center", "0.01", "-0.02", "0.03", "-0.04",
             "--radii", "1e160", "1e159", "1e158"]


def test_density_keeps_m_at_radii_whose_squared_distance_overflows(capsys):
    # q = s (s + 2 t) + |x0 - c|^2 overflowed on s^2 beyond 1e154, and M read 0.0
    code, payload = run_json(capsys, "density", "newtonian", "--p", "3", "--n", "4", *FAR_RADII)
    assert code == 0
    theta, bracket = payload["theta"], payload["bracket"]
    assert abs(theta["M"] - theta["S"]) <= bracket["M"] + payload["noise_bound"]


@pytest.mark.parametrize("center", [[], FAR_RADII[2:7]], ids=["on-ray", "off-ray"])
def test_density_reads_s_at_radii_whose_squared_distance_overflows_within_its_bracket(
        capsys, center):
    # the S quotient is 2 up to terms of order (0.5 / 1e158)^2; the kernel's
    # exponent is about 368 there, and the S bracket holds its rounding
    code, payload = run_json(capsys, "density", "newtonian", "--p", "3", "--n", "4",
                             *FAR_RADII[:2], *center, *FAR_RADII[7:])
    assert code == 0
    assert abs(payload["theta"]["S"] - 2.0) <= payload["bracket"]["S"] + payload["noise_bound"]


@pytest.mark.parametrize("p", ["2", "1.5"])
def test_density_refuses_radii_whose_squared_distance_overflows_at_p_up_to_2(capsys, p):
    code = cli.main(["density", "newtonian", "--p", p, "--n", "4", *FAR_RADII, "--no-timestamp"])
    captured = capsys.readouterr()
    assert (code, captured.out) == (3, "")
    assert captured.err == ("error: the sphere of radius 1e+160 about x0 is refused at p <= 2: "
                            "its squared distance to a kernel centre overflows\n")


@pytest.mark.parametrize("p,n", [("1.2", "16"), ("1.05", "10"), ("1.01", "4"), ("1.001", "16")])
def test_density_answers_where_the_comparison_supremum_lies_below_the_linear_grid(capsys, p, n):
    # psi's supremum lies below 1e-6; at p = 1.001, n = 16 it underflows and
    # the upper comparison is left out with a note
    code, payload = run_json(capsys, "density", "riesz", "--p", p, "--n", n)
    assert code == 0 and payload["theta"]["S"] == 1.0
    assert ("comparison_upper" in payload["residuals"]) is (p != "1.001")
    assert payload["notes"][0].startswith("comparison constant C(p,n) ")


def test_density_reads_the_centred_kernel_density_at_p_2_exactly(capsys):
    # each centred mean is its column theta K(r), with no rounding of a sum
    code, payload = run_json(capsys, "density", "riesz", "--theta", "3", "--p", "2", "--n", "2")
    assert code == 0 and payload["theta"]["S"] == 3.0


@pytest.mark.parametrize("argv", [
    ["--p", "6", "--n", "4"],
    ["--p", "40", "--n", "16", "--quad", "512"],
])
def test_density_refuses_a_divergent_volume_average(capsys, argv):
    code = cli.main(["density", "riesz", *argv, "--no-timestamp"])
    captured = capsys.readouterr()
    assert (code, captured.out) == (3, "")
    assert captured.err.startswith("error: no volume density is defined at p >= n + 2")
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize("argv,radius", [
    (["radial", "kernel", "--p", "400"], "K_400 at radius 0.05"),
    (["density", "zero", "--p", "5", "--n", "4", "--radii", "1e-110", "1e-111", "1e-112"],
     "K_5 at radius 1e-111"),
])
def test_a_kernel_that_overflows_at_a_radius_is_refused(capsys, argv, radius):
    # quotients over such a radius were NaN: a NaN convexity violation with
    # exit 2, NaN densities with exit 0
    code = cli.main([*argv, "--no-timestamp"])
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (3, "", f"error: the kernel {radius} overflows\n")


def test_a_radial_profile_that_is_not_finite_at_a_grid_radius_is_refused(capsys):
    # 1/t is inf at the subnormal radius 1e-320: its NaN slope was reported
    # as worst_violation "nan" with exit 2
    code = cli.main(["radial", "reciprocal", "--p", "1", "--grid-min", "1e-320",
                     "--no-timestamp"])
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (
        3, "", "error: the profile 1/t at radius 9.99989e-321 is not finite\n")


def test_a_radial_quotient_that_overflows_is_refused(capsys):
    # 1/t and K_1 are finite at 1e-300, but their slope overflows: two -inf
    # slopes were reported as worst_violation "nan" with exit 2
    code = cli.main(["radial", "reciprocal", "--p", "1", "--grid-min", "1e-300",
                     "--no-timestamp"])
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (
        3, "", "error: the quotient over the radii 1e-300 and 5.84363e-296 is not finite\n")


def readme_commands():
    """(argv, documented exit code) for each command of the README's
    command-line block."""
    text = (Path(__file__).parents[1] / "README.md").read_text()
    block = text.split("## Command line", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    commands = []
    for line in block.strip().splitlines():
        command, _, comment = line.partition("#")
        exit_code = int(comment.split("exit", 1)[1].strip(" )")) if "exit" in comment else 0
        commands.append((command.split()[1:], exit_code))
    return commands


# The runtime needs numpy only: each README command (and a lifted invariance
# suite, which samples U(n) rotations) is launched once, through the
# `rieszlab.cli` `__main__` entry, with `import scipy` made to fail.
SCIPY_BLOCKED = ("import runpy, sys; sys.modules['scipy'] = None; "
                 "runpy.run_module('rieszlab.cli', run_name='__main__', alter_sys=True)")
LIFTED_SUITE = ["verify", "sigma-k", "--n", "2", "--k", "1", "--variant", "complex",
                "--suite", "invariance"]


@pytest.fixture(scope="module")
def blocked_launches():
    """(argv, completed process) for each README command and the lifted suite."""
    env = dict(os.environ, PYTHONPATH=str(Path(rieszlab.__file__).parents[1]))
    return [(argv, subprocess.run([sys.executable, "-c", SCIPY_BLOCKED, *argv, "--no-timestamp"],
                                  env=env, capture_output=True, text=True))
            for argv in [argv for argv, _ in readme_commands()] + [LIFTED_SUITE]]


def test_readme_commands_exit_as_documented_and_say_why_they_fail(blocked_launches):
    # stderr is empty on exit 0 and one `check failed:` line on exit 2
    commands = readme_commands()
    assert len(commands) == 10
    for (argv, exit_code), (_, result) in zip(commands, blocked_launches):
        assert result.returncode == exit_code, argv
        if exit_code:
            assert result.stderr.startswith("check failed: "), argv
            assert result.stderr.count("\n") == 1, argv
        else:
            assert result.stderr == "", argv
        assert result.stdout


def test_readme_commands_run_with_scipy_blocked(capsys, blocked_launches):
    # each launch prints what the same command prints in-process
    for argv, result in blocked_launches:
        code = cli.main([*argv, "--no-timestamp"])
        captured = capsys.readouterr()
        assert (result.returncode, result.stdout, result.stderr) == (
            code, captured.out, captured.err), argv


def test_only_density_and_flow_commands_import_the_numerics():
    # the package root binds its modules lazily, so a command runs only the
    # modules it reads; charx, table, verify, grassmann and radial never
    # read the Sobol points or Gauss-Jacobi rules of `flow`, density, flow
    # and radial never run the solver of `riesz`, and the solver commands
    # never run `radial`.  A lazy module becomes a plain module once it runs.
    probe = ("import sys, types; from rieszlab.cli import main; code = main(sys.argv[1:]); "
             "print(*(type(sys.modules.get(f'rieszlab.{name}')) is types.ModuleType "
             "for name in ('_numerics', 'riesz', 'radial')), file=sys.stderr); sys.exit(code)")
    env = dict(os.environ, PYTHONPATH=str(Path(rieszlab.__file__).parents[1]))
    commands = readme_commands()
    assert {argv[0] for argv, _ in commands} >= {"charx", "table", "verify", "grassmann",
                                                  "radial", "density", "flow"}
    for argv, exit_code in commands:
        result = subprocess.run([sys.executable, "-c", probe, *argv, "--no-timestamp"],
                                env=env, capture_output=True, text=True)
        assert result.returncode == exit_code, argv
        numerics, solver, radial_ran = result.stderr.splitlines()[-1].split()
        assert numerics == str(argv[0] in ("density", "flow")), argv
        if argv[0] in ("density", "flow", "radial"):
            assert solver == "False", argv
        else:
            assert radial_ran == "False", argv


# ---------------------------------------------------------------------------
# the report serializer
# ---------------------------------------------------------------------------
#
# The JSON objects the reports' own `to_dict` methods built before
# `cli._sanitize` became the one serializer, kept as the reference.


def ref_characteristic_pair(pair):
    return {"p": pair.p, "q": pair.q, "p_bracket": pair.p_bracket, "q_bracket": pair.q_bracket}


def ref_property_report(report):
    return {
        "property": report.name,
        "samples": report.sample_count,
        "worst_violation": report.worst_violation,
        "tolerance": report.tolerance,
        "pass": bool(report.passed),
        "skipped": bool(report.skipped),
        "note": report.note,
    }


def ref_transitivity_result(result):
    return {"found": result.found, "chain": list(result.chain), "reason": result.reason}


def ref_profile_class(classification):
    return {"kind": classification.kind, "breakpoint": classification.breakpoint}


def ref_average_curve(curve):
    return {
        "kind": curve.kind,
        "samples": [[float(r), float(v)] for r, v in zip(curve.radii, curve.values)],
        "clipped_fraction": curve.clipped_fraction,
    }


def ref_density_report(report):
    return {
        "p": report.p,
        "n": report.n,
        "center": [float(c) for c in report.center],
        "radii": [float(r) for r in report.radii],
        "theta": {k: float(v) for k, v in report.theta.items()},
        "bracket": {k: float(v) for k, v in report.bracket.items()},
        "quotients": {k: [float(x) for x in v] for k, v in report.quotients.items()},
        "residuals": {k: float(v) for k, v in report.residuals.items()},
        "harnack_c": report.harnack_c,
        "noise_bound": report.noise_bound,
        "clipped_fraction": report.clipped_fraction,
        "monotone_defect": report.monotone_defect,
        "monotone_ok": report.monotone_ok,
        "notes": list(report.notes),
    }


def ref_mass_density_report(report):
    return {
        "p": report.p,
        "n": report.n,
        "radii": [float(r) for r in report.radii],
        "ball_masses": [float(m) for m in report.ball_masses],
        "theta_mass": report.theta_mass,
        "bracket": report.bracket,
        "spherical_residual": report.spherical_residual,
        "warning": report.warning,
    }


def ref_convergence_record(record):
    out = {
        "metric": record.metric,
        "radii": [float(r) for r in record.radii],
        "distances": [float(d) for d in record.distances],
        "converged": bool(record.converged),
        "tolerance": record.tolerance,
    }
    if record.holder_seminorms is not None:
        out["holder_seminorms"] = [float(h) for h in record.holder_seminorms]
        out["holder_bound"] = record.holder_bound
        out["holder_bound_ok"] = bool(record.holder_bound_ok)
    return out


def ref_decay_report(report):
    return {
        "path_norms": [float(x) for x in report.path_norms],
        "path_thetas": [float(x) for x in report.path_thetas],
        "center_theta": report.center_theta,
        "center_bracket": report.center_bracket,
        "usc_ok": bool(report.usc_ok),
    }


def _json_text(obj):
    return json.dumps(cli._sanitize(obj), indent=2, sort_keys=True)


def _seeded_reports():
    quad = flow.sphere_quad(3, 512, seed=1)
    kernel3 = flow.riesz_kernel_field(2.0, 3.0, 3)
    kernel15 = flow.riesz_kernel_field(1.0, 1.5, 3)
    sample = subeq.sample_grassmannian(3, 2, count=64, seed=3, angle_tol=0.15)
    x = np.array([1.0, 0.2, -0.3])
    short = flow.FlowSpec(p=1.5, radii=[1.0, 0.5, 0.25])
    return [
        (ref_characteristic_pair, riesz.characteristic_pair(subeq.builtin("sigma-k", 4, k=2))),
        (ref_characteristic_pair, riesz.characteristic_pair(subeq.builtin("subaffine", 3))),
        (ref_property_report, subeq.check_cone(subeq.builtin("min-max", 3, p=2.5), 20, 4)),
        (ref_property_report, subeq.check_maximum_principle(subeq.builtin("full-space", 3))),
        (ref_property_report, subeq.check_st_invariance(subeq.geometric(sample), 5, 0)),
        (ref_transitivity_result, subeq.transitivity_check(sample, x, x[::-1])),
        (ref_transitivity_result, subeq.transitivity_check(
            subeq.sample_grassmannian(3, 2, count=2, seed=0, angle_tol=1e-3), x, x[::-1])),
        (ref_profile_class, radial.classify_profile(radial.kernel_profile(3.0),
                                                    np.geomspace(0.05, 2.0, 16))),
        (ref_profile_class, radial.classify_profile(
            radial.profile_from_callable(lambda r: (np.asarray(r) - 1.0) ** 2),
            np.geomspace(0.05, 2.0, 16))),
        (ref_density_report, flow.densities(kernel3, np.zeros(3), 3.0, quad=quad)),
        (ref_density_report, flow.densities(kernel15, np.array([0.1, 0.0, 0.0]), 1.5,
                                            radii=[0.05, 0.025, 0.0125], quad=quad)),
        (ref_mass_density_report, flow.mass_density(
            flow.newtonian_potential_field(3.0, [(1.0, np.zeros(3))], 3), np.zeros(3), 3.0,
            quad=quad)),
        (ref_convergence_record, flow.tangent_experiment(kernel15, short, kernel15, quad=quad)),
        (ref_convergence_record, flow.tangent_experiment(
            kernel3, flow.FlowSpec(p=3.0, radii=[1.0, 0.5]), kernel3, metric="l1", quad=quad)),
        (ref_decay_report, flow.density_decay_check(
            kernel3, np.zeros(3), [[0.5, 0.0, 0.0], [0.25, 0.0, 0.0]], 3.0, quad=quad,
            levels=4)),
    ]


def test_serializer_gives_the_reports_json():
    reports = _seeded_reports()
    assert {type(report).__name__ for _, report in reports} == {
        "CharacteristicPair", "PropertyReport", "TransitivityResult", "ProfileClass",
        "DensityReport", "MassDensityReport", "ConvergenceRecord", "DecayReport"}
    assert any(getattr(report, "breakpoint", 0) is None for _, report in reports)
    assert {report.holder_bound is None for _, report in reports
            if type(report).__name__ == "ConvergenceRecord"} == {True, False}
    for ref, report in reports:
        fields = cli._sanitize(report)
        if type(report).__name__ == "ConvergenceRecord":
            # cmd_flow leaves out the Hoelder fields, which are None for p >= 2
            fields = {k: v for k, v in fields.items() if v is not None}
        assert (json.dumps(fields, indent=2, sort_keys=True)
                == json.dumps(cli._sanitize(ref(report)), indent=2, sort_keys=True)), ref


def test_serializer_gives_an_average_curve_its_fields():
    # the curve's old JSON was never emitted; its fields carry the same numbers
    curve = flow.average_curves(flow.riesz_kernel_field(1.0, 3.0, 3), ("S",), np.zeros(3),
                                flow.default_radii()[:4], flow.sphere_quad(3, 512))["S"]
    fields, ref = cli._sanitize(curve), cli._sanitize(ref_average_curve(curve))
    assert [[r, v] for r, v in zip(fields["radii"], fields["values"])] == ref["samples"]
    assert all(fields[k] == ref[k] for k in ("kind", "clipped_fraction"))


def test_serializer_converts_numpy_values():
    assert cli._sanitize({"a": np.array([1.0, np.inf]), "b": np.bool_(False),
                          "c": (np.int64(3), np.float64(-np.inf))}) == {
        "a": [1.0, "inf"], "b": False, "c": [3, "-inf"]}


@pytest.mark.parametrize("p,holder", [("1.5", True), ("3", False)])
def test_flow_command_reports_hoelder_fields_only_below_2(capsys, p, holder):
    code, payload = run_json(capsys, "flow", "riesz", "--p", p, "--n", "3", "--radii", "1", "0.5",
                             "0.25", "--quad", "512")
    assert code == 0
    keys = {"holder_seminorms", "holder_bound", "holder_bound_ok"}
    assert (keys <= set(payload)) if holder else not keys & set(payload)


def test_potential_flows_below_2_subtract_their_value_at_the_origin(capsys):
    # one mass at the origin is the kernel field, 0 at the origin; a second
    # mass at --offset 1 is finite there too, and its flow leaves the kernel
    code, newtonian = run_json(capsys, "flow", "newtonian", "--p", "1.5", "--n", "3")
    assert code == 0
    _, kernel = run_json(capsys, "flow", "riesz", "--p", "1.5", "--n", "3")
    assert newtonian["distances"] == kernel["distances"]
    code, _ = run_json(capsys, "flow", "newtonian", "--p", "1.5", "--n", "3", "--offset", "1")
    assert code == 2


@pytest.mark.parametrize("argv", [["table"], ["radial", "kernel", "--p", "3"]],
                         ids=["table", "radial"])
def test_closed_stdout_exits_141_with_empty_stderr(argv):
    # the reader is gone before the report is written, as in
    # `rieszlab table | head -1` once head has exited
    read_end, write_end = os.pipe()
    os.close(read_end)
    env = dict(os.environ, PYTHONPATH=str(Path(rieszlab.__file__).parents[1]))
    try:
        result = subprocess.run([sys.executable, "-m", "rieszlab.cli", *argv, "--no-timestamp"],
                                env=env, stdout=write_end, stderr=subprocess.PIPE, text=True)
    finally:
        os.close(write_end)
    assert (result.returncode, result.stderr) == (cli.EXIT_BROKEN_PIPE, "")


def test_st_invariance_at_huge_parameter_exits_0(capsys):
    # rounding of margins near 1e300 used to read as a violation of 4.3e284
    code, payload = run_json(capsys, "verify", "dual-min-max", "--n", "3", "--samples", "20",
                             "--p", "1e300", "--suite", "invariance")
    assert code == 0
    assert payload["reports"][0]["pass"] is True
