"""Paired benchmark record of a change against its parent.

    python3 benchmarks/record.py --label NAME --base REV --change REV \
        --pairs cli-cold=10 --pairs charx-bisect=4 --seeds 1 2 3 \
        --cold "density riesz --p 3 --n 16"

Each revision is extracted with `git archive` into its own directory,
with no `__pycache__` and `PYTHONDONTWRITEBYTECODE=1`, so that every
launch compiles its sources as a fresh checkout does.  For each workload,
pair i runs `perfbench/run.py --trace 0` for the `run_seconds` of
`BENCHMARK.json` once on each side, with the i-th seed (cycling through
`--seeds`); the side that runs first alternates from pair to pair, so a
drift of the host's speed weighs on both sides.

Each `--cold` command line is launched COLD_PAIRS times on each side,
alternating likewise, as `python -m rieszlab.cli ARGS --no-timestamp`
from the tree's `src`; its wall time, interpreter start and import
included, is the command's `wall_s`.

The record, `BENCH_<label>.json` next to this script, holds the
environment, the revisions, the seeds and, for each workload and
end-to-end metric of `BENCHMARK.json` and each cold command's `wall_s`,
the runs of both sides, their medians and quartiles and the number of
pairs the change won.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from statistics import median, quantiles

ROOT = Path(__file__).resolve().parents[1]
ENV_PREFIX = "environment: "
COLD_PAIRS = 10


def git(*args) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True,
                          text=True).stdout.strip()


def extract(rev: str, into: Path) -> Path:
    """A `git archive` copy of rev, without bytecode caches."""
    into.mkdir(parents=True)
    archive = subprocess.run(["git", "archive", "--format=tar", rev], cwd=ROOT, check=True,
                             capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(into)], input=archive, check=True)
    for cache in into.rglob("__pycache__"):
        shutil.rmtree(cache)
    return into


def run(tree: Path, workload: str, seed: int, seconds: float) -> tuple[dict, dict]:
    """(end-to-end metric values, environment) of one benchmark run in tree."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                          cwd=tree, env=env, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"record: {workload} seed {seed} in {tree.name} exited "
                         f"{proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    environment = next((json.loads(line[len(ENV_PREFIX):]) for line in lines
                        if line.startswith(ENV_PREFIX)), {})
    return {name: m["value"] for name, m in result["metrics"].items()}, environment


def launch(tree: Path, args: str) -> float:
    """Wall time of one cold launch of the command line args in tree."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env.update(PYTHONDONTWRITEBYTECODE="1", PYTHONPATH=str(tree / "src"))
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "rieszlab.cli", *args.split(), "--no-timestamp"],
                          cwd=tree, env=env, capture_output=True, text=True)
    wall = time.perf_counter() - start
    if proc.returncode != 0:
        raise SystemExit(f"record: {args} in {tree.name} exited {proc.returncode}:\n{proc.stderr}")
    return wall


def summary(runs: list[float]) -> dict:
    q1, _, q3 = quantiles(runs, n=4, method="inclusive")
    return {"runs": runs, "median": median(runs), "q1": q1, "q3": q3}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--label", required=True)
    parser.add_argument("--base", required=True, help="the parent revision")
    parser.add_argument("--change", required=True, help="the changed revision")
    parser.add_argument("--pairs", action="append", required=True, metavar="WORKLOAD=COUNT")
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--cold", action="append", default=[], metavar="ARGS",
                        help="a command line whose cold launch is timed on both sides")
    args = parser.parse_args()
    pairs = [(workload, int(count)) for workload, count in (p.split("=") for p in args.pairs)]
    if any(count < 2 for _, count in pairs):
        parser.error("each workload needs at least 2 pairs, for its quartiles")

    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = benchmark["run_seconds"]
    better = {m["name"]: m["better"] for m in benchmark["end_to_end"]}
    revs = {"base": git("rev-parse", args.base), "change": git("rev-parse", args.change)}
    started = datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds")
    record = {"label": args.label, "revisions": revs, "seconds": seconds, "started": started,
              "environment": {}, "workloads": {}, "commands": {}}
    with tempfile.TemporaryDirectory() as work:
        trees = {side: extract(rev, Path(work) / side) for side, rev in revs.items()}
        for workload, count in pairs:
            runs = {"base": [], "change": []}
            seeds = [args.seeds[i % len(args.seeds)] for i in range(count)]
            for i, seed in enumerate(seeds):
                for side in ("base", "change") if i % 2 == 0 else ("change", "base"):
                    values, record["environment"] = run(trees[side], workload, seed, seconds)
                    runs[side].append(values)
                    print(f"{workload} seed {seed} {side}: " + ", ".join(
                        f"{name} {values[name]:.6g}" for name in better), flush=True)
            metrics = {}
            for name, direction in better.items():
                base = [r[name] for r in runs["base"]]
                change = [r[name] for r in runs["change"]]
                won = sum(c < b if direction == "lower" else c > b for b, c in zip(base, change))
                metrics[name] = {"better": direction, "base": summary(base),
                                 "change": summary(change), "pairs_won": won,
                                 "pairs": len(seeds)}
            record["workloads"][workload] = {"seeds": seeds, "metrics": metrics}
        for command in args.cold:
            walls = {"base": [], "change": []}
            for i in range(COLD_PAIRS):
                for side in ("base", "change") if i % 2 == 0 else ("change", "base"):
                    walls[side].append(launch(trees[side], command))
                print(f"{command}: base {walls['base'][-1]:.4f} s, change "
                      f"{walls['change'][-1]:.4f} s", flush=True)
            won = sum(c < b for b, c in zip(walls["base"], walls["change"]))
            record["commands"][command] = {"wall_s": {
                "better": "lower", "base": summary(walls["base"]),
                "change": summary(walls["change"]), "pairs_won": won,
                "pairs": COLD_PAIRS}}
    out = Path(__file__).resolve().parent / f"BENCH_{args.label}.json"
    out.write_text(json.dumps(record, indent=1) + "\n")
    print(f"wrote {out.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
