"""wordlab benchmark: one closed-loop client, one thread, fixed seeded inputs.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload density --seed 1 --seconds 55 --trace 0
    python3 perfbench/run.py --workload all --seed 1          # every workload, both modes
    python3 perfbench/run.py --record-digests                 # refresh reference_digests.json

A run sets up (imports wordlab from `src/`, writes the seeded inputs, warms
up), then runs the workload's list of ops in order, wrapping round, until
`--seconds` have passed and at least MIN_OPS ops are done.  `--trace 0`
reports the end-to-end metrics; `--trace 1` runs untraced ops for half the
time and whole traced passes over the list for the other half, reports the
per-layer metrics of a pass, and prints the tracing overhead.  The last
line of standard output is one JSON object: correct, attempted, failed and
metrics.  See README.md.
"""

import time

_STARTED = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402
from types import SimpleNamespace  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUTPUT = ROOT / ".perfbench"
DIGESTS = HERE / "reference_digests.json"
DEFAULT_SEED = 1
DEFAULT_SECONDS = 55
SETUP_REPEATS = 5
# p90 needs at least ten latencies beyond it; the peak RSS is taken after
# this many ops.
MIN_OPS = 100
END_TO_END = (("setup_s", "s"), ("ops_per_s", "ops/s"), ("op_p50_s", "s"),
              ("op_p90_s", "s"), ("peak_rss_mib", "MiB"))

sys.path.insert(0, str(HERE))
import ops as op_runner  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def import_wordlab():
    """Import wordlab from this checkout's src/, or exit 2 if it is not there."""
    src = ROOT / "src"
    if not (src / "wordlab" / "__init__.py").is_file():
        print(f"perfbench: no wordlab sources under {src}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(src))
    import numpy
    import wordlab.cli
    import wordlab.generation
    import wordlab.groups
    if Path(wordlab.__file__).resolve().parent != (src / "wordlab").resolve():
        print(f"perfbench: imported wordlab from {wordlab.__file__}, not {src}", file=sys.stderr)
        sys.exit(2)
    return SimpleNamespace(cli=wordlab.cli, groups=wordlab.groups,
                           generation=wordlab.generation, numpy=numpy)


def load_reference(workload: str, seed: int):
    """Digests to check this run against: only for the seed they were made with."""
    if seed != DEFAULT_SEED:
        return None
    stored = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}
    return stored.get(workload, {})


def run_record(args, wl) -> dict:
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    try:  # only a git work tree rooted at this checkout counts
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
        top = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=10, env=env)
        lines = top.stdout.splitlines()
        commit = (lines[1] if top.returncode == 0 and len(lines) == 2
                  and Path(lines[0]).resolve() == ROOT.resolve() else "unknown")
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    src_lines = sum(len(p.read_bytes().splitlines()) for p in (ROOT / "src").rglob("*.py"))
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": os.cpu_count(), "cpu_model": cpu,
        "python": platform.python_version(), "numpy": wl.numpy.__version__,
        "git_commit": commit, "src_lines": src_lines,
    }


class Runner:
    """Runs a workload's ops in a closed loop and keeps the op outcomes."""

    def __init__(self, wl, ops: list, reference):
        self.wl = wl
        self.ops = ops
        self.reference = reference
        self.attempted = 0
        self.failures = []
        self.peak_rss_mib = None
        self.exact_cells = sum(op.cells for op in ops if op.kind == "density"
                               and op.expect.get("mode", "exact") == "exact")

    def run(self, index: int, tracer=None) -> float:
        """One op: its call and its check.  Returns the latency in seconds."""
        op = self.ops[index]
        span = tracer.begin_op(self.attempted, op.name) if tracer else None
        t0 = time.perf_counter()
        problems = op_runner.run_op(op, self.wl, self.reference)
        latency = time.perf_counter() - t0
        if tracer:
            tracer.end_op(span)
        self.attempted += 1
        if problems:
            self.failures.append((op.name, problems))
        return latency

    def cycle(self, seconds: float, min_ops: int = 0) -> tuple:
        """Ops in list order, wrapping round, until `seconds` have passed and
        `min_ops` ops are done.  Returns ([(op index, latency)], elapsed).

        The peak RSS is taken when `min_ops` ops are done: a fixed amount of
        work, not as many passes as the machine's speed lets into the run.
        """
        done = []
        started = time.perf_counter()
        while time.perf_counter() - started < seconds or len(done) < min_ops:
            index = len(done) % len(self.ops)
            done.append((index, self.run(index)))
            if len(done) == min_ops:
                self.peak_rss_mib = peak_rss_mib()
        return done, time.perf_counter() - started

    def passes(self, seconds: float, tracer, on_pass) -> list:
        """Whole passes, at least one, while the next one should end within `seconds`."""
        done = []
        started = time.perf_counter()
        while True:
            mark = tracer.checkpoint()
            begun = time.perf_counter()
            done += [(i, self.run(i, tracer)) for i in range(len(self.ops))]
            on_pass(mark)
            now = time.perf_counter()
            if now - started + (now - begun) > seconds:
                return done


def set_up(args, wl, workdir: Path):
    """Inputs and warm-up, SETUP_REPEATS times; returns (ops, seconds, problems)."""
    times, problems = [], []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        ops = workloads.build_pass(args.workload, args.seed, workdir)
        for op in workloads.build_warmup(args.workload, workdir):
            problems += [f"warm-up {op.name}: {p}" for p in op_runner.run_op(op, wl)]
        times.append(time.perf_counter() - t0)
    return ops, statistics.median(times), problems


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def percentile_90(values: list) -> float:
    return statistics.quantiles(values, n=10)[-1]


def measure(args, runner: Runner, record: dict) -> dict:
    done, elapsed = runner.cycle(args.seconds, MIN_OPS)
    latencies = [latency for _, latency in done]
    by_op = {}
    for index, latency in done:
        by_op.setdefault(index, []).append(latency)
    # A pass's time is estimated as the sum of each op's median latency, so
    # that a pass cut short by the deadline does not skew the op mix.
    pass_s = sum(statistics.median(v) for v in by_op.values())
    p90 = percentile_90(latencies)
    record.update(op_samples=len(latencies), ops_per_pass=len(runner.ops),
                  measured_s=elapsed, pass_s=pass_s,
                  min_runs_per_op=min(len(v) for v in by_op.values()),
                  p50_samples=len(latencies), p90_samples=len(latencies),
                  samples_beyond_p90=sum(1 for v in latencies if v > p90),
                  peak_rss_ops=MIN_OPS, peak_rss_end_mib=peak_rss_mib())
    return {
        "ops_per_s": len(runner.ops) / pass_s,
        "op_p50_s": statistics.median(latencies),
        "op_p90_s": p90,
        "peak_rss_mib": runner.peak_rss_mib,
    }


def measure_traced(args, runner: Runner, record: dict) -> dict:
    """Untraced ops for half the time, then whole traced passes for the rest."""
    plain, _ = runner.cycle(args.seconds / 2)
    tracer = tracing.Tracer()
    per_pass, self_times = [], []

    def on_pass(mark):
        metrics, layer_self = tracer.since(mark, runner.exact_cells)
        per_pass.append(metrics)
        self_times.append(layer_self)

    tracer.install()
    try:
        traced_ops = runner.passes(args.seconds / 2, tracer, on_pass)
    finally:
        tracer.uninstall()
    metrics = {}
    repeat = True
    for name in tracing.PER_LAYER:
        values = [m[name] for m in per_pass]
        if tracing.metric_unit(name) == "s":
            metrics[name] = statistics.median(values)
        else:
            metrics[name] = values[0]
            repeat = repeat and all(v == values[0] for v in values)
    layers = sorted({k for s in self_times for k in s})
    layer_self = {k: statistics.median(s.get(k, 0.0) for s in self_times) for k in layers}
    # Overhead: the same ops, timed untraced and traced (first run of each).
    untraced_by_op = {}
    for index, latency in plain:
        untraced_by_op.setdefault(index, latency)
    pairs = [(untraced_by_op[i], latency) for i, latency in traced_ops[:len(runner.ops)]
             if i in untraced_by_op]
    untraced = len(pairs) / sum(u for u, _ in pairs)
    traced = len(pairs) / sum(t for _, t in pairs)
    overhead = untraced / traced - 1.0
    record.update(untraced_ops=len(plain), traced_passes=len(per_pass),
                  overhead_ops=len(pairs), untraced_ops_per_s=untraced,
                  traced_ops_per_s=traced, trace_overhead_frac=overhead,
                  counts_repeat_across_passes=repeat)
    print(f"tracing overhead: {overhead:+.1%} op time on {len(pairs)} ops run both ways "
          f"(untraced {untraced:.3f} ops/s, traced {traced:.3f} ops/s)")
    total = sum(layer_self.values()) or 1.0
    print("per-layer self time per pass (median of traced passes):")
    for layer in layers:
        print(f"  {layer:<14} {layer_self[layer]:10.4f} s  {layer_self[layer] / total:6.1%}")
    if not repeat:
        print("warning: per-layer counts differ between traced passes", file=sys.stderr)
    trace_file = OUTPUT / f"trace-{args.workload}-seed{args.seed}.json"
    spans = [[n, layer, s - _STARTED, e - _STARTED, p, o]
             for n, layer, s, e, p, o in tracer.spans]
    trace_file.write_text(json.dumps({
        "record": record, "metrics": metrics, "layer_self_s": layer_self,
        "span_fields": ["name", "layer", "start_s", "end_s", "parent", "op"],
        "spans": spans,
    }))
    print(f"trace: {trace_file.relative_to(ROOT)} ({len(spans)} spans)")
    return metrics


def run_workload(args) -> int:
    wl = import_wordlab()
    imported = time.perf_counter() - _STARTED
    (OUTPUT / "work").mkdir(parents=True, exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUTPUT / "work"))
    os.chdir(workdir)
    try:
        ops, inputs_s, setup_problems = set_up(args, wl, Path("."))
        setup_s = imported + inputs_s
        runner = Runner(wl, ops, load_reference(args.workload, args.seed))
        record = run_record(args, wl)
        if args.trace:
            metrics = measure_traced(args, runner, record)
            units = {name: tracing.metric_unit(name) for name in metrics}
        else:
            metrics = {"setup_s": setup_s, **measure(args, runner, record)}
            units = dict(END_TO_END)
            record.update(setup_repeats=SETUP_REPEATS, import_s=imported)
    finally:
        os.chdir(ROOT)
        shutil.rmtree(workdir, ignore_errors=True)
    failed = len(runner.failures)
    for name, problems in runner.failures[:5]:
        print(f"failed op {name}: {'; '.join(problems)}", file=sys.stderr)
    for problem in setup_problems[:5]:
        print(f"set-up: {problem}", file=sys.stderr)
    if not args.trace:
        for name, unit in END_TO_END:
            print(f"{args.workload:<16} {name:<14} {metrics[name]:14.6f} {unit}")
        print(f"{args.workload:<16} {'failed_op_frac':<14} "
              f"{failed / runner.attempted:14.6f} fraction")
    else:
        for name in tracing.PER_LAYER:
            print(f"{args.workload:<16} {name:<32} {metrics[name]:16.6f} {units[name]}")
    print("run record: " + json.dumps(record, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0 and not setup_problems,
        "attempted": runner.attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in metrics},
    }))
    return 0


def run_all(args) -> int:
    """Every workload in its own process: untraced, then traced."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in workloads.WORKLOADS:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                 "--seed", str(args.seed), "--seconds", str(args.seconds),
                 "--trace", str(trace)],
                capture_output=True, text=True, cwd=ROOT)
            lines = proc.stdout.strip().splitlines()
            sys.stdout.write("\n".join(lines[:-1]) + "\n")
            sys.stderr.write(proc.stderr)
            if proc.returncode != 0 or not lines:
                print(f"perfbench: {workload} --trace {trace} exited {proc.returncode}",
                      file=sys.stderr)
                return proc.returncode or 1
            result = json.loads(lines[-1])
            combined["correct"] = combined["correct"] and result["correct"]
            combined["attempted"] += result["attempted"]
            combined["failed"] += result["failed"]
            for name, value in result["metrics"].items():
                combined["metrics"][f"{workload}.{name}"] = value
    print(json.dumps(combined))
    return 0


def record_digests() -> int:
    """Run one pass of each workload with the default seed; store report digests."""
    wl = import_wordlab()
    stored = {}
    (OUTPUT / "work").mkdir(parents=True, exist_ok=True)
    for workload in workloads.WORKLOADS:
        workdir = Path(tempfile.mkdtemp(prefix=f"digests-{workload}-", dir=OUTPUT / "work"))
        os.chdir(workdir)
        try:
            digests = {}
            for op in workloads.build_pass(workload, DEFAULT_SEED, Path(".")):
                problems = op_runner.run_op(op, wl)
                if problems:
                    print(f"perfbench: {op.name} failed, no digests written: {problems}",
                          file=sys.stderr)
                    return 1
                if op.out is not None:
                    digests[op.name] = op_runner.digest(op_runner.report_path(op).read_bytes())
            stored[workload] = digests
        finally:
            os.chdir(ROOT)
            shutil.rmtree(workdir, ignore_errors=True)
    DIGESTS.write_text(json.dumps(stored, indent=1, sort_keys=True) + "\n")
    print(f"wrote {DIGESTS.relative_to(ROOT)}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-digests", action="store_true",
                        help=f"store report digests of seed {DEFAULT_SEED} and exit")
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if args.record_digests:
        return record_digests()
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
