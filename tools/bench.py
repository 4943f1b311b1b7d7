"""Write BENCH_<pr>.json: perfbench's end-to-end metrics over alternated runs.

Usage, from the root of a checkout:

    python3 tools/bench.py --pr 31                     # bench this checkout
    python3 tools/bench.py --pr 30 --root ../parent    # bench another checkout

Each of ROUNDS rounds runs `perfbench/run.py --workload <w> --seed 1
--seconds 55 --trace 0` of the benched checkout once per workload of its
BENCHMARK.json, each in a fresh process; odd rounds take the workloads in
reverse order, so that no workload always runs after the same one.  The
command is fixed, so that every BENCH file compares with every other.

The file, written next to this script's checkout, holds per workload and
metric the median, the quartiles and every run's value; the machine record
perfbench prints (cpu_model, nproc, numpy, python, git_commit, src_lines);
and `sys.flags.dont_write_bytecode`, which the runs inherit through the
environment: when it is set, every run compiles `src/` afresh.  A run that
fails or reads `correct: false` stops the bench, and no file is written.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
ROUNDS = 5
SECONDS = 55
SEED = 1
MACHINE = ("cpu_model", "nproc", "numpy", "python", "git_commit", "src_lines")
RECORD_PREFIX = "run record: "


COMMAND = ("perfbench/run.py", "--workload", "<w>", "--seed", str(SEED),
           "--seconds", str(SECONDS), "--trace", "0")


def run_once(root: Path, workload: str) -> tuple:
    """(metrics, run record) of one fresh perfbench process."""
    argv = [sys.executable] + [workload if arg == "<w>" else arg for arg in COMMAND]
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
    bench = {
        "pr": args.pr,
        "command": " ".join(COMMAND),
        "rounds": ROUNDS,
        "machine": machine,
        "dont_write_bytecode": bool(sys.flags.dont_write_bytecode),
        "workloads": {w: {name: summary(v) for name, v in metrics.items()}
                      for w, metrics in values.items()},
    }
    out = ROOT / f"BENCH_{args.pr}.json"
    out.write_text(json.dumps(bench, indent=1) + "\n")
    print(f"wrote {out.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
