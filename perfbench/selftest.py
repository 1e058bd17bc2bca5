"""Self-test of the benchmark harness at a tiny input size.

    python3 perfbench/selftest.py

Checks that every end-to-end and per-layer metric named in
`BENCHMARK.json` is emitted with its unit on every workload, that the
workloads' reasons match the ones recorded there, and that each oracle
rejects a deliberately wrong result.  Takes about a minute.
"""

from __future__ import annotations

import dataclasses
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import oracles  # noqa: E402
import workloads  # noqa: E402

FAILURES = []


def expect(condition: bool, what: str):
    print(("ok   " if condition else "FAIL ") + what)
    if not condition:
        FAILURES.append(what)


def rejects(reason, what: str):
    expect(isinstance(reason, str) and reason != "", f"oracle rejects {what}: {reason}")


def accepts(reason, what: str):
    expect(reason is None, f"oracle accepts {what}" + (f": {reason}" if reason else ""))


def check_emitted_metrics(spec: dict):
    for name in workloads.WORKLOADS:
        expect(workloads.WORKLOADS[name].why
               == next(w["why"] for w in spec["workloads"] if w["name"] == name),
               f"{name}: why matches BENCHMARK.json")
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", "3",
                 "--seconds", "1", "--trace", str(trace), "--tiny"],
                capture_output=True, text=True, cwd=ROOT, timeout=170)
            expect(proc.returncode == 0, f"{name} trace={trace}: exit code 0")
            if proc.returncode != 0:
                print(proc.stderr)
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            expect(set(result) == {"correct", "attempted", "failed", "metrics"},
                   f"{name} trace={trace}: result keys")
            expect(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
                   f"{name} trace={trace}: all {result['attempted']} operations correct")
            wanted = {m["name"]: m["unit"] for m in spec[section]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            expect(got == wanted, f"{name} trace={trace}: every {section} metric with its unit")
            values = [v["value"] for v in result["metrics"].values()]
            expect(all(isinstance(v, (int, float)) for v in values),
                   f"{name} trace={trace}: every metric has a numeric value")
            if trace == 0:
                expect(all(v > 0 for v in values), f"{name}: no end-to-end metric is 0")


def check_oracles_reject_wrong_results():
    from rieszlab import flow, radial, riesz, subeq

    # closed-form characteristics, perturbed
    f = subeq.builtin("sigma-k", 4, k=2)
    pair = riesz.characteristic_pair(f)
    accepts(oracles.characteristic(pair.p, 2.0), "the sigma-k characteristic")
    rejects(oracles.characteristic(pair.p + 1e-6, 2.0), "a characteristic off by 1e-6")
    rejects(oracles.characteristic(pair.p, workloads.LIFT_MULTIPLIER["complex"] * 2.0),
            "a missing lift multiplier")
    rejects(oracles.characteristic(5.0, float("inf")), "a finite value for an infinite one")

    # property reports: the expected flag, and a consistent one
    mp = subeq.check_maximum_principle(subeq.builtin("full-space", 3))
    accepts(oracles.property_report(mp, expect_pass=False), "full-space failing mp")
    rejects(oracles.property_report(mp, expect_pass=True), "full-space passing mp")
    good = subeq.check_cone(subeq.builtin("p-convex", 4, p=2.0), 5, 0)
    accepts(oracles.property_report(good, expect_pass=True), "a passing cone suite")
    rejects(oracles.property_report(dataclasses.replace(good, worst_violation=1.0), True),
            "a pass flag that contradicts worst_violation")
    rejects(oracles.property_report(dataclasses.replace(good, skipped=True), True),
            "a skipped suite")

    # densities: theta outside bracket plus noise, and monotone_ok false
    u = flow.riesz_kernel_field(2.0, 3.0, 4)
    quad = flow.sphere_quad(4, 512)
    rep = flow.densities(u, np.zeros(4), 3.0, quad=quad)
    want = {"M": 2.0, "S": 2.0, "V": 2.0 * 4 / 3}
    accepts(oracles.density_report(rep, want), "the riesz-field densities")
    wrong = dict(rep.theta, S=rep.theta["S"] * 1.01)
    rejects(oracles.density_report(dataclasses.replace(rep, theta=wrong), want),
            "theta_S off by 1%")
    rejects(oracles.density_report(dataclasses.replace(rep, monotone_ok=False), want),
            "monotone_ok false")
    m = flow.mass_density(flow.newtonian_potential_field(3.0, [(1.0, np.zeros(3))], 3),
                          np.zeros(3), 3.0, quad=flow.sphere_quad(3, 512))
    expected = oracles.expected_mass_density(1.0, 3.0, 3)
    accepts(oracles.mass_report(m, expected), "the newtonian mass density")
    rejects(oracles.mass_report(dataclasses.replace(m, theta_mass=m.theta_mass * 1.05),
                                expected), "a mass density off by 5%")

    # transitivity: found with a certified chain
    sample = subeq.sample_grassmannian(3, 2, count=512, seed=3, angle_tol=0.15)
    planes = [w.columns for w in sample.planes]
    x, y = planes[0][:, 0], planes[1][:, 1]
    res = subeq.transitivity_check(sample, x, y)
    accepts(oracles.transitivity(res, planes, sample.angle_tol, x, y), "a transitivity chain")
    rejects(oracles.transitivity(dataclasses.replace(res, found=False, reason="forced"),
                                 planes, sample.angle_tol, x, y), "found = False")
    far = int(np.argmin([abs(w[:, 0] @ x) + abs(w[:, 1] @ x) for w in planes]))
    rejects(oracles.transitivity(dataclasses.replace(res, chain=(far,) + tuple(res.chain)),
                                 planes, sample.angle_tol, x, y),
            "a chain starting at a plane that misses x")

    # tangent flows and radial theory
    rec = flow.tangent_experiment(flow.riesz_kernel_field(1.0, 1.5, 3), flow.FlowSpec(p=1.5),
                                  flow.riesz_kernel_field(1.0, 1.5, 3), metric="sup", tol=1e-3)
    accepts(oracles.tangent_record(rec, expect_holder=True), "a converged Hoelder flow")
    rejects(oracles.tangent_record(dataclasses.replace(rec, converged=False), False),
            "a flow that did not converge")
    rejects(oracles.tangent_record(dataclasses.replace(rec, holder_bound_ok=False), True),
            "a Hoelder bound violation")
    theta, bracket = radial.one_var_density(radial.kernel_profile(3.0, 2.0), 3.0,
                                            radial.geometric_radii(1.0, 8))
    rejects(oracles.close(theta * 1.001, 2.0, bracket + oracles.DENSITY_RTOL * 3.0, "theta"),
            "a one-variable density off by 0.1%")

    # CLI: exit code, parse failures, wrong values, and non-identical repeats
    charx_json = json.dumps({"p": 2.0000000004, "closed_form": 2.0})
    accepts(oracles.cli_run(0, charx_json, 0, lambda t: oracles.cli_charx(t, 2.0)),
            "a charx report")
    rejects(oracles.cli_run(1, charx_json, 0, lambda t: oracles.cli_charx(t, 2.0)),
            "exit code 1")
    rejects(oracles.cli_run(0, "Traceback (most recent call last)", 0,
                            lambda t: oracles.cli_charx(t, 2.0)), "stdout that does not parse")
    rejects(oracles.cli_run(0, json.dumps({"p": 2.1, "closed_form": 2.0}), 0,
                            lambda t: oracles.cli_charx(t, 2.0)), "a wrong charx value")
    table = "family,params,n,computed_p,closed_form_p,residual\nsigma-k,k=2,4,2.5,2,0.5\n"
    rejects(oracles.cli_table(table, [("sigma-k", 2.0)]), "a wrong catalog row")
    rejects(oracles.cli_verify(json.dumps({"reports": [
        {"property": "maximum-principle", "pass": True, "skipped": False}]}),
        {"maximum-principle": False}), "full-space mp reported as passing")
    command = workloads.CliCommand(["table"], 0, lambda t: None, None)
    first = subprocess.CompletedProcess([], 0, stdout="a\n", stderr="")
    again = subprocess.CompletedProcess([], 0, stdout="b\n", stderr="")
    accepts(command.check(first), "a first CLI run")
    rejects(command.check(again), "a repeat whose stdout differs")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    check_oracles_reject_wrong_results()
    check_emitted_metrics(spec)
    print(f"{len(FAILURES)} failure(s)")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
