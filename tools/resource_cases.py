"""The resource cases: wordlab runs whose peak RSS CI bounds.

Usage, from the root of a checkout:

    python3 tools/resource_cases.py

Each case runs in a child process with `src/` of this checkout on
PYTHONPATH; its wall time and peak RSS (the child's own `ru_maxrss`, from
`os.wait4`) are printed, after one line with the CPUs this process may use.
The script exits 1 if a case fails or peaks past its bound.  Wall times have
no bound, since shared runners are noisy.  `tools/bench.py` runs the same
table, with no bounds, and records every case in the BENCH file.
"""

import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# (name, RSS bound in MiB, argv after the interpreter); "<out>" stands for a
# fresh output directory.
CASES = (
    # The golden walk-gcd-two-batches run (2 * 10^7 step draws): its
    # endpoints are drawn in blocks of 2^18 steps (about 42 MiB peak), where
    # one 2^24-step batch took 245 MiB.  Its draw runs on two threads beside
    # the DPs; wall time about 0.45 s on a 2-core x86 VM.
    ("walk-gcd-two-batches", 128,
     ("-m", "wordlab.cli", "walk-gcd", "--seed", "4", "--d", "2", "--n", "400",
      "--samples", "50000", "--gcd-cap", "8", "--out", "<out>")),
    # A sampled density run at the carrier cap (p(p^2-1) = 912,576 on
    # sl2:97), about 121 MiB: coverage keeps three boolean masks of the
    # carrier, where sets of Python ints over the whole carrier took about
    # 310 MiB.
    ("density-carrier-cap", 152,
     ("-m", "wordlab.cli", "density", "--seed", "1", "--d", "2", "--n", "100",
      "--words", "2", "--groups", "sl2:97,psl2:97", "--mode", "sampled",
      "--samples", "2000", "--gcd-cap", "30", "--out", "<out>")),
    # symmetric:9 and alternating:9 and their inverse arrays, about 54 MiB:
    # the carrier is held once, as int8 one-line rows, and their ranks and
    # inverses are built one column at a time, where an int64 copy of the
    # rows for a matmul and an argsort took about 73 MiB, and a list of
    # tuples, a dict from tuple to index and the rows about 167-207 MiB.
    ("permutation-degree-9", 82,
     ("-c", "from wordlab.groups import construct_group\n"
            "for spec in ('symmetric:9', 'alternating:9'):\n"
            "    construct_group(spec).inv_array()\n")),
    # An exact density run of x1^100 on symmetric:9 and alternating:9, about
    # 110 MiB: the class-label maps are built one generator at a time, where
    # all |S| maps at once held |S| lifted copies of the carrier and the run
    # took about 351 MiB.
    ("power-density-degree-9", 160,
     ("-m", "wordlab.cli", "density", "--seed", "1", "--d", "1", "--n", "100",
      "--model", "positive", "--words", "2", "--groups", "symmetric:9,alternating:9",
      "--gcd-cap", "30", "--out", "<out>")),
    # The generating-pair count of sl2:17 (order 4896, above the table cap,
    # so every map is a native product), about 42 MiB: `orbit_labels` labels
    # the closures <H, g> of one subgroup node in blocks of 2^16 elements;
    # the peak grows with the block (about 56 MiB at 2^18, 74 MiB at 2^19).
    ("generation-sl2-17", 96,
     ("-m", "wordlab.cli", "generation", "--seed", "1", "--group", "sl2:17", "--d", "2",
      "--out", "<out>")),
)


def run_case(root: Path, args: tuple) -> tuple:
    """(wall time in s, peak RSS in MiB) of one case of `root`'s `src/`, run
    in a child process; raises SystemExit if the child fails."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    with tempfile.TemporaryDirectory() as out:
        argv = [sys.executable] + [out if arg == "<out>" else arg for arg in args]
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=root, env=env, stdout=subprocess.DEVNULL)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        raise SystemExit(f"resource case exited {proc.returncode}: {' '.join(args)}")
    return wall, usage.ru_maxrss / 1024


def main() -> int:
    print(f"CPUs: {len(os.sched_getaffinity(0))}")
    over = []
    for name, bound, args in CASES:
        wall, peak = run_case(ROOT, args)
        print(f"{name} wall time: {wall:.2f} s, peak RSS: {peak:.1f} MiB (bound {bound})",
              flush=True)
        if peak > bound:
            over.append(name)
    if over:
        print(f"over their RSS bound: {', '.join(over)}")
    return 1 if over else 0


if __name__ == "__main__":
    sys.exit(main())
