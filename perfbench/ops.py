"""Run one op through wordlab's public entry points and check its output.

An op fails when its call raises, exits non-zero, or its output fails a
check: `wordlab audit` on the report, the dual-route agreements the report
carries, and, for the reference seed, the SHA-256 of the canonical report
bytes against the digest committed in `reference_digests.json`.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import traceback
from fractions import Fraction
from pathlib import Path

# Largest allowed |DP zero probability - combinatorial return probability|.
ZERO_ROUTE_TOLERANCE = 1e-12
# Largest allowed |z| between the sampled and the predicted gcd tail.
AGREEMENT_Z_LIMIT = 6.0


def call_cli(cli, argv: list) -> tuple:
    """`wordlab.cli.main(argv)` with its console output captured."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
        rc = cli.main(argv)
    return rc, buf.getvalue()


def report_path(op) -> Path:
    return Path(op.out) / ("ingest.json" if op.kind == "ingest" else "report.json")


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_op(op, wordlab, reference=None) -> list:
    """Make the op's call and check it; return the problems found (empty: ok).

    `wordlab` holds the imported modules `cli`, `groups` and `generation`.
    `reference` maps op names to report digests, or is None when the seed
    has no committed digests.  Paths are relative to the working directory.
    """
    try:
        if op.kind == "power":
            group = wordlab.groups.construct_group("alternating:5")
            tuples = [tuple(group.index_of_perm(p) for p in pair) for pair in op.pairs]
            result = wordlab.generation.power_tuple_generates(group, tuples)
            return [] if result is True else [f"power_tuple_generates returned {result!r}"]
        rc, text = call_cli(wordlab.cli, op.argv)
        if rc != 0:
            return [f"exit code {rc}: {text.strip()[-400:]}"]
        return check_output(op, wordlab, reference)
    except Exception:  # an op that raises is a failed op; the run goes on
        return ["raised: " + traceback.format_exc(limit=4).strip()[-800:]]


def check_output(op, wordlab, reference=None) -> list:
    """Check the report an op wrote: content, audit and reference digest."""
    path = report_path(op)
    data = path.read_bytes()
    problems = CHECKS[op.kind](op, json.loads(data))
    if op.kind != "ingest":
        rc, text = call_cli(wordlab.cli, ["audit", str(path)])
        if rc != 0:
            problems.append(f"audit exit {rc}: {text.strip()[-400:]}")
    if reference is not None:
        want = reference.get(op.name)
        got = digest(data)
        if got != want:
            problems.append(f"report digest {got} != reference {want}")
    return problems


def _check_density(op, report: dict) -> list:
    problems = []
    mode = op.expect.get("mode", "exact")
    if report["config"].get("mode") != mode:
        problems.append(f"mode {report['config'].get('mode')!r}, expected {mode}")
    agg = report["aggregates"]
    if agg["cell_error_count"]:
        problems.append(f"{agg['cell_error_count']} cell error(s)")
    cells = [(rec, cell) for rec in report["words"] for cell in rec["groups"]]
    if len(cells) != op.cells:
        problems.append(f"{len(cells)} cells, expected {op.cells}")
    for rec, cell in cells:
        where = f"word {rec['index']} on {cell['group']}"
        if cell["l1"] is None or not 0.0 <= cell["l1"] <= 2.0:
            problems.append(f"{where}: l1 {cell['l1']!r} outside [0, 2]")
        elif mode == "exact" and (cell["l1_exact"] is None
                                  or float(Fraction(cell["l1_exact"])) != cell["l1"]):
            problems.append(f"{where}: l1 {cell['l1']!r} != l1_exact {cell['l1_exact']}")
        # Bezout certificate: every gamma-th power lies in the word map's image.
        if rec["gamma"] != 0 and cell["covers_powers"] is not True:
            problems.append(f"{where}: gamma {rec['gamma']} but powers not covered")
    return problems


def _check_generation(op, report: dict) -> list:
    problems = []
    count, order, d = report["tuple_count"], report["order"], report["d"]
    if not 0 < count <= order**d:
        problems.append(f"tuple_count {count} outside (0, {order}^{d}]")
    if report["aut_order"] is not None and report["consistent"] is not True:
        problems.append(f"sqrt bound {report['sqrt_bound']} exceeds "
                        f"max_power {report['max_power']}")
    return problems


def _check_mixing(op, report: dict) -> list:
    problems = []
    profile = report["profile_l1"]
    if any(b > a for a, b in zip(profile, profile[1:])):
        problems.append("mixing profile increases")
    obstruction = report["obstruction"]
    if (obstruction is not None) != op.expect["obstruction"]:
        problems.append(f"obstruction {obstruction!r}, expected one: {op.expect['obstruction']}")
    if obstruction is not None:
        floor = obstruction["distance_floor"]["l1"]
        if min(profile) < floor:
            problems.append(f"profile dips to {min(profile)!r}, below the witness floor {floor}")
    return problems


def _check_walk_gcd(op, report: dict) -> list:
    problems = []
    gap = report["prediction"]["zero_route_gap"]
    if not gap <= ZERO_ROUTE_TOLERANCE:
        problems.append(f"zero_route_gap {gap!r} above {ZERO_ROUTE_TOLERANCE}")
    z = report["agreement_z"]
    if not abs(z) <= AGREEMENT_Z_LIMIT:
        problems.append(f"sampled and predicted tails disagree: z = {z!r}")
    return problems


def _check_ingest(op, summary: dict) -> list:
    return [f"{key}: {summary.get(key)!r}, expected {want!r}"
            for key, want in op.expect.items() if summary.get(key) != want]


CHECKS = {
    "density": _check_density,
    "generation": _check_generation,
    "mixing": _check_mixing,
    "walk-gcd": _check_walk_gcd,
    "ingest": _check_ingest,
}
