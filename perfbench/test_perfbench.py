"""Tests of the benchmark itself.  Run from the repository root:

    python3 -m pytest perfbench/test_perfbench.py -q
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import ops  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args],
                          capture_output=True, text=True, cwd=cwd, timeout=170)


def result_of(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def traced_runs():
    return [result_of(bench("--workload", "structure_walks", "--seed", "5",
                            "--seconds", "1", "--trace", "1")) for _ in range(2)]


@pytest.fixture
def workdir():
    base = ROOT / ".perfbench" / "work"
    base.mkdir(parents=True, exist_ok=True)
    path = Path(tempfile.mkdtemp(prefix="test-", dir=base))
    old = os.getcwd()
    os.chdir(path)
    yield path
    os.chdir(old)
    shutil.rmtree(path, ignore_errors=True)


def test_end_to_end_metric_names_match_benchmark_json():
    result = result_of(bench("--workload", "structure_walks", "--seed", "5", "--seconds", "1"))
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= run.MIN_OPS
    spec = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == spec
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_per_layer_metric_names_match_benchmark_json(traced_runs):
    spec = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    for result in traced_runs:
        assert result["correct"]
        assert {k: v["unit"] for k, v in result["metrics"].items()} == spec


def test_two_traced_runs_give_identical_counts(traced_runs):
    first, second = (
        {k: v["value"] for k, v in r["metrics"].items() if v["unit"] != "s"}
        for r in traced_runs)
    assert first == second
    assert first["lattice_walks.endpoint_steps"] > 0 and first["groups.closure_calls"] > 0


def test_workloads_in_benchmark_json_are_the_ones_run():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


def test_inputs_are_a_function_of_the_seed(workdir):
    def snapshot(seed):
        built = workloads.build_pass("structure_walks", seed, Path("."))
        files = {p.as_posix(): p.read_bytes() for p in sorted(Path(".").rglob("*")) if p.is_file()}
        return [(o.name, o.argv, o.pairs) for o in built], files

    assert snapshot(7) == snapshot(7)
    assert snapshot(7) != snapshot(8)


def test_tampered_report_and_wrong_digest_fail_the_op(workdir):
    wl = run.import_wordlab()
    op = workloads.build_pass("density", run.DEFAULT_SEED, Path("."))[0]
    reference = run.load_reference("density", run.DEFAULT_SEED)
    assert ops.run_op(op, wl, reference) == []

    runner = run.Runner(wl, [op], {op.name: "0" * 64})
    runner.run(0)
    assert runner.attempted == 1 and len(runner.failures) == 1
    assert "digest" in runner.failures[0][1][0]

    path = ops.report_path(op)
    pristine = path.read_text()
    report = json.loads(pristine)
    # A cell edit that keeps every aggregate: the audit passes, the digest does not.
    # A cell at distance 0 would be left as it is, so take one that is not.
    cell = next(c for rec in report["words"] for c in rec["groups"]
                if Fraction(c["l1_exact"]) != 0)
    tau = report["aggregates"]["tau"]
    l1 = Fraction(cell["l1_exact"])
    l1 = l1 / 2 if l1 < tau else (l1 + 2) / 2  # same side of tau, inside [0, 2]
    cell["l1"], cell["l1_exact"] = float(l1), f"{l1.numerator}/{l1.denominator}"
    path.write_text(json.dumps(report, sort_keys=True, indent=2) + "\n")
    problems = ops.check_output(op, wl, reference)
    assert problems and all("digest" in p for p in problems)

    # An edited aggregate: the audit fails as well.
    report = json.loads(pristine)
    report["aggregates"]["word_count"] += 1
    path.write_text(json.dumps(report, sort_keys=True, indent=2) + "\n")
    problems = ops.check_output(op, wl, None)
    assert any(p.startswith("audit") for p in problems)


def test_without_the_program_the_benchmark_fails_without_a_result(workdir):
    shutil.copy(ROOT / "BENCHMARK.json", workdir / "BENCHMARK.json")
    shutil.copytree(HERE, workdir / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "structure_walks", "--seed", "1", "--seconds", "1",
                 "--trace", "0", cwd=workdir)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
