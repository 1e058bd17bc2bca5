"""The measured process of one benchmark run; `run.py` starts it.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S --mode MODE [--tiny]

MODE is `probe` (set up, run the first operation, stop), `timed` (the
closed loop that end-to-end metrics come from) or `traced` (passes that
alternate between untraced and traced, for per-layer metrics).  One
caller runs operations back to back; the next starts when the previous
returns.  The last line of stdout is one JSON record; its timestamps are
`time.monotonic()` readings, which `run.py` compares with its own
launch time.

Host speed.  On the 2-core virtual machine this benchmark was tuned on,
wall time swings by up to 2x within minutes, for two reasons: the
hypervisor steals time, and the core itself slows to about half speed
for seconds at a time.  So each operation is timed in CPU seconds of the
worker and its children, which leave out stolen time, and rescaled by a
fixed pure-Python loop timed on the same CPU right before and after it,
to a host on which one pass of the loop takes `REFERENCE_LOOP_S`.  The
worker pins itself, and the commands it starts, to one CPU so that the
loop and the operation run on the same core.  Wall times are recorded too.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import importlib.util
import json
import math
import os
import platform
import resource
import subprocess
import sys
import time
from pathlib import Path
from statistics import mean, median

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
# The command the in-process workloads launch to measure CLI start-up.
CLI_PROBE_COMMAND = ["charx", "sigma-k", "--n", "4", "--k", "2", "--no-timestamp"]
CLI_PROBE_REPEATS = 3
# One pass of the calibration loop at full speed on the tuning container
# (Intel Xeon, 2 vCPUs, Python 3.11).
REFERENCE_LOOP_S = 125e-6


def loop_seconds() -> float:
    """Fastest of three passes of a fixed pure-Python loop."""
    best = math.inf
    for _ in range(3):
        start = time.perf_counter()
        acc = 0
        for i in range(2000):
            acc += i * i % 7
        best = min(best, time.perf_counter() - start)
    return best


def cpu_seconds() -> float:
    """CPU seconds of this process and of its children that have ended."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


def run_op(op, failures: list) -> tuple[float, float]:
    """Run one operation; return its (wall, CPU) seconds.  The oracle
    runs after the stamps, so it is not part of the latency."""
    wall0, cpu0 = time.monotonic(), cpu_seconds()
    try:
        result = op.call()
        wall1, cpu1 = time.monotonic(), cpu_seconds()
        reason = op.check(result)
    except Exception as exc:  # a failed operation, not a failed run
        wall1, cpu1 = time.monotonic(), cpu_seconds()
        reason = f"{type(exc).__name__}: {exc}"
    if reason:
        failures.append(f"{op.label}: {reason}")
    return wall1 - wall0, cpu1 - cpu0


def speed_factor(readings: list[float]) -> float:
    """Converts CPU seconds measured beside these calibration readings to
    CPU seconds at reference speed."""
    return REFERENCE_LOOP_S / mean(readings)


class Clock:
    """Times operations with a calibration reading on either side."""

    def __init__(self):
        self.readings = [loop_seconds()]

    def run(self, op, failures: list) -> tuple[float, float]:
        """Return (wall seconds, CPU seconds at reference speed)."""
        wall, cpu = run_op(op, failures)
        self.readings.append(loop_seconds())
        return wall, cpu * speed_factor(self.readings[-2:])


def timed_loop(ops, seconds: float, min_passes: int, clock: Clock) -> dict:
    """Whole passes over the operations until `seconds` have passed, and
    at least `min_passes` of them."""
    wall, scaled, failures, passes = [], [], [], []
    deadline = time.monotonic() + seconds
    while len(passes) < min_passes or time.monotonic() < deadline:
        wall0, cpu0 = time.monotonic(), cpu_seconds()
        wall.append([])
        scaled.append([])
        for op in ops:
            latency, at_reference = clock.run(op, failures)
            wall[-1].append(latency)
            scaled[-1].append(at_reference)
        passes.append([time.monotonic() - wall0, cpu_seconds() - cpu0])
    return {"wall": wall, "scaled": scaled, "failures": failures, "passes": passes}


def traced_loop(ops, seconds: float, per_op: bool, tracer, clock: Clock) -> dict:
    """Alternate untraced and traced runs of the same operations, so the
    tracing overhead is measured against the same work.  In-process
    workloads alternate whole passes until the deadline; subprocess
    workloads (`per_op`) run each command once each way."""
    busy = {False: 0.0, True: 0.0}
    traced_wall = 0.0
    failures, passes = [], []

    def one(op, active):
        nonlocal traced_wall
        tracer.active = active
        latency, at_reference = clock.run(op, failures)
        tracer.active = False
        busy[active] += at_reference
        if active:
            traced_wall += latency
        tracer.fold()

    deadline = time.monotonic() + seconds
    if per_op:
        wall0, cpu0 = time.monotonic(), cpu_seconds()
        for op in ops:
            one(op, False)
            one(op, True)
        passes.append([time.monotonic() - wall0, cpu_seconds() - cpu0])
        traced_passes = 1
    else:
        traced_passes = 0
        while True:
            for active in (False, True):
                wall0, cpu0 = time.monotonic(), cpu_seconds()
                for op in ops:
                    one(op, active)
                passes.append([time.monotonic() - wall0, cpu_seconds() - cpu0])
            traced_passes += 1
            if time.monotonic() >= deadline:
                break
    return {"failures": failures, "passes": passes, "traced_passes": traced_passes,
            "busy_untraced_s": busy[False], "busy_traced_s": busy[True],
            "traced_wall_s": traced_wall,
            # converts the spans' wall seconds to CPU seconds at reference speed
            "traced_factor": busy[True] / traced_wall,
            "attempted": len(ops) * 2 * traced_passes}


def cli_layer(tracer, interpreter: list[float]) -> dict:
    """cli.* metrics as medians over traced launches."""
    children = tracer.children

    def med(values):
        values = [v for v in values if v is not None]
        return median(values) if values else None

    return {
        "cli.interpreter_s": med(interpreter),
        "cli.import_s": med(c["import_s"] for c in children),
        # a module that a command never imports costs it nothing
        "cli.import_scipy_stats_s": med(c["importtime"].get("scipy.stats", 0.0) for c in children),
        "cli.import_scipy_linalg_s": med(c["importtime"].get("scipy.linalg", 0.0) for c in children),
        "cli.main_s": med(c["main_s"] for c in children),
    }


def bare_interpreter_seconds(env) -> list[float]:
    times = []
    for _ in range(CLI_PROBE_REPEATS):
        t0 = time.monotonic()
        subprocess.run([sys.executable, "-c", "pass"], env=env, check=True)
        times.append(time.monotonic() - t0)
    return times


def environment() -> dict:
    import numpy as np
    import rieszlab

    def version(dist):
        try:
            return importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            return "absent"

    def public_call(name):
        fn = getattr(rieszlab, name, None)
        return fn() if callable(fn) else "absent"

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": version("scipy"),
        "blas": blas,
        "nproc": os.cpu_count(),
        "cpus_used": sorted(os.sched_getaffinity(0)),
        "numba": importlib.util.find_spec("numba") is not None,
        "rieszlab": getattr(rieszlab, "__version__", "absent"),
        "backend_name": public_call("backend_name"),
        "worker_count": public_call("worker_count"),
        "variables": {k: v for k, v in sorted(os.environ.items())
                      if k.startswith("RIESZLAB_") or k in THREAD_VARS},
    }


def peak_rss_mb(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0  # kilobytes on Linux


def main() -> int:
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    before = cpu_seconds()
    at_start = loop_seconds()
    calibrating = cpu_seconds() - before  # excluded from set-up

    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=("probe", "timed", "traced"), required=True)
    parser.add_argument("--tiny", action="store_true")
    parser.add_argument("--trace-out", default=None)
    args = parser.parse_args()

    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    import rieszlab  # noqa: F401  (set-up includes the package import)
    import rieszlab.cli  # noqa: F401

    import workloads

    workload = workloads.WORKLOADS[args.workload]
    tracer = None
    if args.mode == "traced":
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
        tracer.active = not workload.children  # in-process set-up is traced too
    ops = workload.build(args.seed, args.tiny, tracer)
    setup_done, setup_cpu = time.monotonic(), cpu_seconds() - calibrating
    if tracer is not None:
        tracer.active = False
        tracer.fold()
        tracer.phase = "pass"
    clock = Clock()
    record = {"setup_done": setup_done,
              "setup_s": setup_cpu * speed_factor([at_start, clock.readings[0]])}
    # first result: set-up plus the first operation (a probe runs only that)
    _, first_cpu = run_op(ops[0], [])
    clock.readings.append(loop_seconds())
    record["first_result_s"] = ((setup_cpu + first_cpu)
                                * speed_factor([at_start, *clock.readings[:2]]))

    if args.mode == "timed":
        record.update(timed_loop(ops, args.seconds, workload.min_passes, clock))
        record["env"] = environment()
        record["peak_rss_mb"] = peak_rss_mb(workload.children)
    elif args.mode == "traced":
        record.update(traced_loop(ops, args.seconds, workload.children, tracer, clock))
        import tracer as tracer_module

        env = workloads.child_env()
        if workload.children:
            launches = tracer
        else:
            launches = tracer_module.Tracer()
            for _ in range(CLI_PROBE_REPEATS):
                proc = subprocess.run(
                    [sys.executable, "-X", "importtime", str(workloads.LAUNCHER),
                     *CLI_PROBE_COMMAND], capture_output=True, text=True, env=env, check=True)
                launches.absorb_child(proc.stderr)
        layers = tracer_module.layer_metrics(tracer, record["traced_passes"])
        layers.update(cli_layer(launches, bare_interpreter_seconds(env)))
        record["layers"] = layers
        record["absent"] = tracer.absent
        record["self_s"] = {kind: row[2] for kind, row in tracer.aggregates["pass"].items()
                            if "." not in kind}
        if args.trace_out:
            tracer.write(args.trace_out)
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
