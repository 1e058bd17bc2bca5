"""rieszlab benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is taken from `src/`, and
nothing needs to be installed or built.  Workloads (see `workloads.py`):
`cli-cold`, `charx-bisect`, `verify-suites`, `density-flow`.

`--trace 0` measures the end-to-end metrics: set-up is timed in
`SETUP_LAUNCHES` fresh processes (probes plus the measured one), then one
process runs whole passes over the workload's operations in a closed
loop for `--seconds`.  Times are CPU seconds at reference host speed:
each is rescaled by a calibration loop timed beside it (see worker.py),
and the wall-clock figures are printed above the result.  `--trace 1` is
a separate traced run that reports per-layer metrics and the tracing
overhead, and writes the kept spans to `.bench_out/`.  Every operation is
checked by an oracle; the last line of stdout is one JSON object with
`correct`, `attempted`, `failed` and `metrics`.
`python3 perfbench/selftest.py` checks the harness itself.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import signal
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".bench_out"
SETUP_LAUNCHES = 3  # fresh processes that time set-up and the first result
TIME_LIMIT_S = 170.0  # a run must end within 180 s
# Tail latency: the highest of these percentiles with at least ten
# operations beyond it (see `tail`).
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)

END_TO_END_UNITS = {
    "setup_s": "s",
    "first_result_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "peak_rss_mb": "MB",
    "ok_rate": "ratio",
}
PER_LAYER_UNITS = {
    "linalg.eigensolve_calls": "count",
    "linalg.eigensolve_self_s": "s",
    "linalg.sampling_self_s": "s",
    "subeq.margin_calls": "count",
    "subeq.margin_self_s": "s",
    "subeq.suite_s": "s",
    "subeq.rotation_self_s": "s",
    "subeq.shift_margins_per_sample": "ratio",
    "subeq.transitivity_s": "s",
    "riesz.charx_calls": "count",
    "riesz.charx_s": "s",
    "riesz.margins_per_charx": "ratio",
    "riesz.sandwich_s": "s",
    "radial.self_s": "s",
    "flow.field_points": "count",
    "flow.field_eval_self_s": "s",
    "flow.average_s": "s",
    "flow.quad_build_s": "s",
    "cli.interpreter_s": "s",
    "cli.import_s": "s",
    "cli.import_scipy_stats_s": "s",
    "cli.import_scipy_linalg_s": "s",
    "cli.main_s": "s",
    "trace.overhead_ratio": "ratio",
}


class BenchError(Exception):
    pass


def run_worker(args, mode: str, deadline: float, extra=()) -> tuple[float, dict]:
    """Start the measured process; return (launch time, its record)."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--mode", mode, *extra]
    if args.tiny:
        cmd.append("--tiny")
    launched = time.monotonic()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=workloads.child_env(), stdout=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)  # the worker and any command it started
        proc.wait()
        raise BenchError(f"{mode} run exceeded the time limit")
    if proc.returncode != 0:
        raise BenchError(f"{mode} run exited with code {proc.returncode}")
    return launched, json.loads(out.strip().splitlines()[-1])


def tail(samples: list[float], guaranteed: int) -> tuple[str, float]:
    """The highest ladder percentile with at least ten samples beyond it.
    The rung is chosen from the samples every run is sure to have, not
    from how many fit in the time, so that it stays the same between runs."""
    ordered = sorted(samples)
    for pct in TAIL_LADDER:
        if guaranteed * (1.0 - pct / 100.0) >= 10:
            rank = math.ceil(pct / 100.0 * len(ordered))  # nearest rank
            return f"p{pct:g}", ordered[rank - 1]
    return "max", ordered[-1]


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(args, deadline: float) -> dict:
    setups, firsts, setup_walls = [], [], []

    def launch(mode):
        launched, rec = run_worker(args, mode, deadline)
        setups.append(rec["setup_s"])
        firsts.append(rec["first_result_s"])
        setup_walls.append(rec["setup_done"] - launched)
        return rec

    for _ in range(SETUP_LAUNCHES - 1):
        launch("probe")
    rec = launch("timed")

    # latencies at reference host speed (see worker.py), over whole passes
    scaled = [x for row in rec["scaled"] for x in row]
    wall = [x for row in rec["wall"] for x in row]
    attempted, failed = len(wall), len(rec["failures"])
    workload = workloads.WORKLOADS[args.workload]
    tail_label, tail_value = tail(scaled, workload.min_passes * len(rec["scaled"][0]))
    values = {
        "setup_s": median(setups),
        "first_result_s": median(firsts),
        "ops_per_s": attempted / sum(scaled),
        "op_p50_ms": 1000.0 * median(scaled),
        "op_tail_ms": 1000.0 * tail_value,
        "peak_rss_mb": rec["peak_rss_mb"],
        "ok_rate": (attempted - failed) / attempted,
    }
    print(f"environment: {json.dumps(rec['env'], sort_keys=True)}")
    print("passes (wall s / cpu s): " + ", ".join(f"{w:.3f}/{c:.3f}" for w, c in rec["passes"]))
    print(f"set-up launches (s): {', '.join(f'{s:.4f}' for s in setups)}; "
          f"first results (s): {', '.join(f'{s:.4f}' for s in firsts)}")
    print(f"wall clock: set-up {', '.join(f'{s:.4f}' for s in setup_walls)} s; "
          f"{attempted / sum(wall):.6g} ops/s, p50 {1000.0 * median(wall):.6g} ms")
    notes = {
        "setup_s": f"median of {len(setups)} launches",
        "first_result_s": f"median of {len(firsts)} launches",
        "ops_per_s": f"{len(rec['scaled'][0])} operations x {len(rec['scaled'])} passes",
        "op_tail_ms": f"{tail_label} of {attempted} operations",
        "ok_rate": f"error_rate {failed / attempted:.4g} ({failed} of {attempted} failed)",
    }
    for name, unit in END_TO_END_UNITS.items():
        print(f"{name:<16} {values[name]:>14.6g} {unit:<6} {notes.get(name, '')}")
    return {"attempted": attempted, "failures": rec["failures"],
            "metrics": {name: metric(values[name], unit) for name, unit in END_TO_END_UNITS.items()}}


def per_layer(args, deadline: float) -> dict:
    OUT_DIR.mkdir(exist_ok=True)
    trace_file = OUT_DIR / f"trace-{args.workload}-{args.seed}.jsonl"
    _, rec = run_worker(args, "traced", deadline, ["--trace-out", str(trace_file)])
    # times at reference host speed, by the traced operations' mean factor
    values = {name: value * rec["traced_factor"] if name.endswith("_s") and value is not None
              else value for name, value in rec["layers"].items()}
    values["trace.overhead_ratio"] = rec["busy_traced_s"] / rec["busy_untraced_s"] - 1.0
    print("passes (wall s / cpu s), untraced and traced alternating: "
          + ", ".join(f"{w:.3f}/{c:.3f}" for w, c in rec["passes"]))
    print(f"traced passes: {rec['traced_passes']}; absent targets: {rec['absent'] or 'none'}")
    print("self time by kind, share of traced operation wall time: " + ", ".join(
        f"{kind} {100.0 * t / rec['traced_wall_s']:.1f}%"
        for kind, t in sorted(rec["self_s"].items(), key=lambda kv: -kv[1])))
    for name, unit in PER_LAYER_UNITS.items():
        value = values.get(name)
        shown = "absent" if value is None else f"{value:.6g}"
        print(f"{name:<32} {shown:>14} {unit}")
    print(f"spans kept in {trace_file.relative_to(ROOT)}")
    return {"attempted": rec["attempted"], "failures": rec["failures"],
            "metrics": {name: metric(values.get(name), unit)
                        for name, unit in PER_LAYER_UNITS.items()}}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="tiny inputs, for the harness self-test")
    args = parser.parse_args()
    start = time.monotonic()
    if not (ROOT / "src" / "rieszlab" / "__init__.py").is_file():
        print(f"perfbench: no rieszlab package under {ROOT / 'src'}; "
              "run from the root of a rieszlab checkout", file=sys.stderr)
        return 2
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}: {workloads.WORKLOADS[args.workload].why}")
    try:
        result = (per_layer if args.trace else end_to_end)(args, start + TIME_LIMIT_S)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    for failure in result["failures"][:10]:
        print(f"FAILED {failure}")
    failed = len(result["failures"])
    print(json.dumps({"correct": failed == 0, "attempted": result["attempted"],
                      "failed": failed, "metrics": result["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
