import contextlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
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
    ["charx", "complex", "p-convex", "--n", "3", "--p", "{}"],
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
    argv = ["charx"]
    variant = draw(st.sampled_from([None, "complex", "quaternionic"]))
    if variant is not None:
        argv.append(variant)
    argv += [draw(st.sampled_from(subeq.family_names())), "--n", str(draw(st.integers(-1, 6)))]
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
@example(argv=["charx", "complex", "p-convex", "--n", "3", "--p", "1", "--regularize", "1"])
def test_charx_fuzz_exits_cleanly_and_matches_closed_forms(argv):
    code, out, err = _main(argv + ["--no-timestamp"])
    assert code in (0, 3, 4), argv
    assert err.count("\n") <= 1 and "Traceback" not in err, argv
    if code == 0:
        payload = json.loads(out)
        if "closed_form" in payload:
            assert float(payload["residual"]) <= 1e-6, (argv, payload)


_FIELDS = ("riesz", "radial-perturbed", "log-coord", "partial-kernel", "newtonian", "smooth",
           "two-kernel", "zero")
# two draws in three are usable values, one is non-finite, zero, negative or
# huge; hypothesis tries the first entries of each list most often
_USABLE = st.sampled_from(["3", "2", "1.5", "1", "0.25"])
_FIELD_VALUE = st.one_of(_USABLE, _USABLE,
                         st.sampled_from(["nan", "inf", "-inf", "0", "-1", "1e300"]))


@st.composite
def field_argv(draw):
    command = draw(st.sampled_from(["density", "flow"]))
    n = draw(st.one_of(st.sampled_from([3, 4, 2]), st.sampled_from(range(-1, 10))))
    argv = [command, draw(st.sampled_from(_FIELDS)), "--n", str(n),
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
    else:
        argv += ["--candidate", draw(st.sampled_from(_FIELDS)),
                 "--metric", draw(st.sampled_from(["sup", "l1", "holder"]))]
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
@example(argv=["flow", "two-kernel", "--n", "0", "--p", "2.5"])
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


# config values: mostly usable ones, then values of the wrong type
_CONFIG_JUNK = st.sampled_from([None, True, [], {}, "abc", 2.5, -1])
_CONFIG_VALUES = {
    "n": st.sampled_from([5, 3, 2, 0]),
    "samples": st.sampled_from([10, 3, 0]),
    "seed": st.sampled_from([7, 0]),
    "tol": st.sampled_from([1e-6, 1e-9, 0, "nan"]),
    "p": st.sampled_from([2.5, 1, 0.5, "inf"]),
    "k": st.sampled_from([2, 1, 0]),
    "delta": st.sampled_from([0.7, 0]),
    "suite": st.lists(st.sampled_from([*cli._SUITES, "bogus"]), max_size=2),
    "variant": st.sampled_from(["complex", "real"]),
    "format": st.sampled_from(["json", "csv", "xml"]),
    "no-timestamp": st.sampled_from([True, False]),
    "check-directions": st.sampled_from([1, 0]),
    "bogus": st.just(1),
}


@st.composite
def config_case(draw):
    """A charx or verify argv and the text of its --config file."""
    command = draw(st.sampled_from(["verify", "charx"]))
    argv = [command, draw(st.sampled_from(["p", "sigma-k", "p-convex", "pdelta", "laplacian"]))]
    for flag, values in (("n", ["3", "4"]), ("samples", ["200", "20"]), ("k", ["2"]),
                         ("p", ["2.5"]), ("seed", ["0", "3"])):
        if (command, flag) != ("charx", "samples") and draw(st.booleans()):
            argv += [f"--{flag}", draw(st.sampled_from(values))]
    keys = draw(st.lists(st.sampled_from(sorted(_CONFIG_VALUES)), max_size=4, unique=True))
    config = {key: draw(st.one_of(_CONFIG_VALUES[key], _CONFIG_VALUES[key], _CONFIG_JUNK))
              for key in keys
              if (command, key) not in {("charx", "samples"), ("charx", "suite"),
                                        ("verify", "check-directions")}}
    return argv, json.dumps(config) if draw(st.integers(0, 9)) else draw(
        st.sampled_from(["[]", "{", "3", ""]))


@settings(max_examples=100, derandomize=True, deadline=None)
@given(case=config_case())
@example(case=(["verify", "p", "--n", "3"], '{"n": 5}'))
@example(case=(["verify", "p", "--samples", "200"], '{"samples": 10}'))
def test_config_fuzz_exits_cleanly_and_flags_win(case):
    argv, text = case
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "config.json"
        path.write_text(text)
        run_config = _main(argv + ["--config", str(path), "--no-timestamp"])
        _exits_cleanly(argv, *run_config)
        try:
            config = json.loads(text)
        except json.JSONDecodeError:
            return
        if not isinstance(config, dict):
            return
        # a key that argv sets is never read: dropping it changes nothing
        path.write_text(json.dumps({k: v for k, v in config.items() if f"--{k}" not in argv}))
        run_rest = _main(argv + ["--config", str(path), "--no-timestamp"])
    assert run_config[:2] == run_rest[:2], (argv, text)


@pytest.mark.parametrize("argv,config,key,value", [
    (["verify", "p", "--n", "3", "--suite", "cone"], {"n": 5}, "n", 3),
    (["verify", "p", "--samples", "200", "--suite", "cone"], {"samples": 10}, "samples", 200),
])
def test_explicit_flags_win_even_at_their_default(tmp_path, capsys, argv, config, key, value):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    code, payload = run_json(capsys, *argv, "--config", str(cfg))
    assert code == 0
    assert (payload if key == "n" else payload["reports"][0])[key] == value


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
    (["flow", "two-kernel", "--n", "0", "--p", "2.5"], "n >= 2"),
    (["charx", "full-space", "--n", "3"], "contains -Id"),
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
])
def test_usage_errors_are_config_errors(argv, reason):
    result = _charx_subprocess(argv)
    assert result.returncode == 4
    assert result.stdout == ""
    assert result.stderr.startswith("config error:") and result.stderr.count("\n") == 1
    assert reason in result.stderr


def test_help_still_exits_0():
    result = _charx_subprocess(["density", "-h"])
    assert result.returncode == 0
    assert result.stdout.startswith("usage: rieszlab density") and result.stderr == ""


@pytest.mark.parametrize("argv,exit_code,err_lines,reason", [
    # the signed powers are taken of the rescaled spectrum, so they stay finite
    (["charx", "trace-power", "--n", "8", "--k", "2", "--q", "1e300", "--regularize", "0.5"],
     0, 0, ""),
    # overflow to inf is read correctly and prints no numpy warning
    (["charx", "quaternionic", "sigma-k", "--n", "4", "--k", "2", "--regularize", "1e300"],
     0, 0, ""),
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
    (["charx", "complex", "p-convex", "--n", "3", "--p", "2.01"], 402.0),
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
    (["charx", "quaternionic", "trace-power", "--n", "2", "--k", "2", "--q", "1e300",
      "--regularize", "0.5"], 8.0),
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


def test_charx_residual_within_tolerance_exits_0():
    result = _charx_subprocess(["charx", "sigma-k", "--n", "4", "--k", "2"])
    assert result.returncode == 0 and result.stderr == ""
    assert float(json.loads(result.stdout)["residual"]) <= 1e-8


def test_verify_pdelta_uniform_ellipticity(capsys):
    code, payload = run_json(capsys, "verify", "pdelta", "--n", "3", "--delta", "1",
                             "--suite", "ue", "--samples", "300")
    assert code == 0
    assert payload["reports"][0]["pass"] is True


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
# determinism, config, exit codes
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


def test_config_file_supplies_defaults(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n": 4, "k": 2}))
    code, payload = run_json(capsys, "charx", "sigma-k", "--config", str(cfg))
    assert code == 0
    assert payload["p"] == pytest.approx(2.0, abs=1e-6)


def test_flags_override_config(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n": 4, "k": 2}))
    code, payload = run_json(capsys, "charx", "sigma-k", "--config", str(cfg),
                             "--n", "6", "--k", "3")
    assert code == 0
    assert payload["n"] == 6
    assert payload["p"] == pytest.approx(2.0, abs=1e-6)


def test_unknown_config_keys_rejected(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n": 4, "bogus": 1}))
    assert cli.main(["charx", "p", "--config", str(cfg)]) == 4


@pytest.mark.parametrize("config", [
    {"n": "abc", "k": 2},
    {"n": 4, "k": 2.5},
    {"n": True, "k": 2},
    {"n": [4], "k": 2},
    {"n": 4, "k": 2, "format": "xml"},
    {"n": 4, "k": 2, "no-timestamp": 1},
])
def test_config_values_are_typed(tmp_path, capsys, config):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    assert cli.main(["charx", "sigma-k", "--config", str(cfg)]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("config error:") and captured.err.count("\n") == 1


def test_config_values_convert_like_flags(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"quad": "256", "theta": 2, "radii": [1, 0.5, 0.25],
                               "center": [0, 0, 0]}))
    from_config = run(capsys, "density", "riesz", "--p", "3", "--config", str(cfg),
                      "--no-timestamp")
    from_flags = run(capsys, "density", "riesz", "--p", "3", "--quad", "256", "--theta", "2",
                     "--radii", "1", "0.5", "0.25", "--center", "0", "0", "0", "--no-timestamp")
    assert from_config == from_flags


def test_missing_config_file(tmp_path):
    assert cli.main(["charx", "p", "--config", str(tmp_path / "nope.json")]) == 4


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
    assert captured.err == "config error: csv output is only available for tabular commands\n"
    assert list(tmp_path.iterdir()) == []


def test_density_curve_csv_output(tmp_path, capsys):
    target = tmp_path / "curves.csv"
    code, _ = run_json(capsys, "density", "riesz", "--theta", "1", "--p", "3", "--n", "3",
                       "--quad", "256", "--curve-out", str(target))
    assert code == 0
    lines = target.read_text().strip().splitlines()
    assert lines[0] == "kind,r,value,quotient"
    assert len(lines) > 10
    assert lines[1].startswith("M,")


def test_charx_variant_prefix_form(capsys):
    code, payload = run_json(capsys, "charx", "complex", "p-convex", "--n", "3", "--p", "1")
    assert code == 0
    assert payload["p"] == pytest.approx(2.0, abs=1e-6)
    code, payload = run_json(capsys, "charx", "quaternionic", "p", "--n", "2")
    assert code == 0
    assert payload["p"] == pytest.approx(4.0, abs=1e-6)


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


def test_density_rejects_unbalanced_sobol_size(capsys):
    code = cli.main(["density", "riesz", "--theta", "3", "--p", "3", "--n", "4",
                     "--quad", "300", "--no-timestamp"])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert "power of two" in captured.err and captured.err.count("\n") == 1


def test_density_answers_below_the_clip_floor(capsys):
    # the innermost V shell (radius about 4.3e-5) has finite values below
    # CLIP_FLOOR; only non-finite values are singular-set hits
    code, payload = run_json(capsys, "density", "riesz", "--p", "5", "--n", "4")
    assert code == 0
    assert payload["theta"] == {"M": 1.0, "S": 1.0, "V": pytest.approx(4.0, rel=1e-12)}
    assert payload["clipped_fraction"] == 0.0


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


def test_readme_commands_exit_as_documented_and_say_why_they_fail():
    # stderr is empty on exit 0 and one `check failed:` line on exit 2
    commands = readme_commands()
    assert len(commands) == 10
    env = dict(os.environ, PYTHONPATH=str(Path(rieszlab.__file__).parents[1]))
    for argv, exit_code in commands:
        result = subprocess.run([sys.executable, "-m", "rieszlab.cli", *argv, "--no-timestamp"],
                                env=env, capture_output=True, text=True)
        assert result.returncode == exit_code, argv
        if exit_code:
            assert result.stderr.startswith("check failed: "), argv
            assert result.stderr.count("\n") == 1, argv
        else:
            assert result.stderr == "", argv
        assert result.stdout


def test_readme_commands_run_with_scipy_blocked(capsys):
    # the runtime needs numpy only: with `import scipy` made to fail, each
    # README command (and a lifted invariance suite, which samples U(n)
    # rotations) prints what it prints in-process
    blocked = "import sys; sys.modules['scipy'] = None; from rieszlab.cli import main; " \
              "sys.exit(main())"
    lifted = ["verify", "sigma-k", "--n", "2", "--k", "1", "--variant", "complex",
              "--suite", "invariance"]
    env = dict(os.environ, PYTHONPATH=str(Path(rieszlab.__file__).parents[1]))
    for argv in [argv for argv, _ in readme_commands()] + [lifted]:
        result = subprocess.run([sys.executable, "-c", blocked, *argv, "--no-timestamp"],
                                env=env, capture_output=True, text=True)
        code = cli.main([*argv, "--no-timestamp"])
        captured = capsys.readouterr()
        assert (result.returncode, result.stdout, result.stderr) == (
            code, captured.out, captured.err), argv


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
    curve = flow.average_curve(flow.riesz_kernel_field(1.0, 3.0, 3), "S", np.zeros(3),
                               flow.default_radii(4), flow.sphere_quad(3, 512))
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
    # one mass at the origin is the kernel field, 0 at the origin; the second
    # mass of two-kernel is finite there too, and its flow leaves the kernel
    code, newtonian = run_json(capsys, "flow", "newtonian", "--p", "1.5", "--n", "3")
    assert code == 0
    _, kernel = run_json(capsys, "flow", "riesz", "--p", "1.5", "--n", "3")
    assert newtonian["distances"] == kernel["distances"]
    code, _ = run_json(capsys, "flow", "two-kernel", "--p", "1.5", "--n", "3")
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
