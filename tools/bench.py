"""Write BENCH_<pr>.json: perfbench's metrics over alternated runs, one
traced pass, one timed Tier-1 run and the resource cases.

Usage, from the root of a checkout:

    python3 tools/bench.py --pr 31                     # bench this checkout
    python3 tools/bench.py --pr 30 --root ../parent    # bench another checkout

Each of ROUNDS rounds runs `perfbench/run.py --workload <w> --seed 1
--seconds 55 --trace 0` of the benched checkout once per workload of its
BENCHMARK.json, each in a fresh process; odd rounds take the workloads in
reverse order, so that no workload always runs after the same one.  Then
the same command with `--trace 1` runs once per workload, then the Tier-1
suite once (TIER1, timed end to end), then every case of
`tools/resource_cases.py` of this script's checkout, with no bounds, on
the benched checkout's `src/`.  The commands are fixed, so that every
BENCH file compares with every other.

The file, written next to this script's checkout, holds per workload and
metric the median, the quartiles and every run's value; per workload the
per-layer metrics of its traced pass; the Tier-1 wall time and test counts;
each resource case's wall time and peak RSS; the machine record perfbench
prints (cpu_model, nproc, numpy, python, git_commit, src_lines); and
`sys.flags.dont_write_bytecode`, which the runs inherit through the
environment: when it is set, every run compiles `src/` afresh.  A perfbench
run that fails or reads `correct: false` stops the bench, and no file is
written; a failing Tier-1 test is recorded in its counts.
"""

import argparse
import json
import os
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

from resource_cases import CASES, run_case

ROOT = Path(__file__).resolve().parent.parent
ROUNDS = 5
SECONDS = 55
SEED = 1
MACHINE = ("cpu_model", "nproc", "numpy", "python", "git_commit", "src_lines")
RECORD_PREFIX = "run record: "


COMMAND = ("perfbench/run.py", "--workload", "<w>", "--seed", str(SEED),
           "--seconds", str(SECONDS), "--trace", "<t>")
TIER1 = ("-m", "pytest", "-q", "--continue-on-collection-errors")


def run_once(root: Path, workload: str, trace: int = 0) -> tuple:
    """(metrics, run record) of one fresh perfbench process."""
    fill = {"<w>": workload, "<t>": str(trace)}
    argv = [sys.executable] + [fill.get(arg, arg) for arg in COMMAND]
    proc = subprocess.run(argv, cwd=root, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"bench: {workload} exited {proc.returncode}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"bench: {workload} read correct: false")
    record = next(json.loads(line[len(RECORD_PREFIX):]) for line in lines
                  if line.startswith(RECORD_PREFIX))
    return {name: m["value"] for name, m in result["metrics"].items()}, record


def run_tier1(root: Path) -> dict:
    """Wall time and outcome counts of one Tier-1 run of `root`."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, *TIER1], cwd=root, env=env,
                          capture_output=True, text=True)
    wall = time.perf_counter() - start
    last = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else ""
    counts = {kind: int(k) for k, kind in re.findall(r"(\d+) ([a-z]+)", last)}
    return {"wall_s": wall, "exit_code": proc.returncode, **counts}


def summary(values: list) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "runs": values}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--pr", type=int, required=True, help="number in the file name")
    parser.add_argument("--root", type=Path, default=ROOT, help="checkout to bench")
    args = parser.parse_args(argv)
    root = args.root.resolve()
    workloads = [w["name"] for w in json.loads((root / "BENCHMARK.json").read_text())["workloads"]]
    values = {w: {} for w in workloads}
    machine = None
    for r in range(ROUNDS):
        for workload in workloads if r % 2 == 0 else workloads[::-1]:
            metrics, record = run_once(root, workload)
            print(f"round {r + 1}/{ROUNDS} {workload}: "
                  + ", ".join(f"{k} {v:.6g}" for k, v in metrics.items()), flush=True)
            machine = machine or {key: record[key] for key in MACHINE}
            for name, value in metrics.items():
                values[workload].setdefault(name, []).append(value)
    traced = {w: run_once(root, w, trace=1)[0] for w in workloads}
    print("traced: " + ", ".join(f"{w} {len(m)} metrics" for w, m in traced.items()), flush=True)
    tier1 = run_tier1(root)
    print(f"tier-1: {tier1}", flush=True)
    cases = {}
    for name, _, case_args in CASES:
        wall, peak = run_case(root, case_args)
        cases[name] = {"wall_s": wall, "peak_rss_mib": peak}
        print(f"{name}: {wall:.2f} s, {peak:.1f} MiB", flush=True)
    bench = {
        "pr": args.pr,
        "command": " ".join(COMMAND),
        "rounds": ROUNDS,
        "machine": machine,
        "dont_write_bytecode": bool(sys.flags.dont_write_bytecode),
        "workloads": {w: {name: summary(v) for name, v in metrics.items()}
                      for w, metrics in values.items()},
        "traced": traced,
        "tier1": {"command": "python " + " ".join(TIER1), **tier1},
        "resource_cases": cases,
    }
    out = ROOT / f"BENCH_{args.pr}.json"
    out.write_text(json.dumps(bench, indent=1) + "\n")
    print(f"wrote {out.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
