"""Experiment harness: flat-file configs, deterministic runs, auditable reports.

A config is a flat text file of `key = value` lines (comments with `#`).
Unknown keys, and keys the experiment does not take, are rejected, and
`seed` is always required: every random draw in a run is derived from the
seed through named substreams, so a report is a pure function of its
config and rerunning it reproduces the same bytes.

Reports are JSON with sorted keys.  Every aggregate is recomputable from
the per-record data in the same file; `audit_report` does exactly that
and returns the list of discrepancies (empty for an intact report).
Wall-clock time is returned to callers in memory but kept out of the
written JSON so that byte-identity across reruns is meaningful.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable, Optional, Sequence, Union

import numpy as np

from . import __version__
from .errors import (
    BudgetExceededError,
    ConfigError,
    NotInCatalogError,
    UnsupportedParameterError,
    WordlabError,
)
from .generation import count_generating_tuples, hall_max_power
from .group_walks import StepSet, cyclic_obstruction, mixing_profile
from .groups import (
    PermutationGroup,
    _is_prime,
    center,
    construct_group,
    is_perfect,
    load_cayley_table,
)
from .lattice_walks import (
    check_moduli,
    divisible_counts,
    endpoint_gcds,
    mod_zero_probabilities,
    predicted_tail_probability,
    sample_endpoints,
    tail_box_radius,
    tail_estimate_from_histogram,
)
from .measure import (
    exact_distribution,
    image_and_power_coverage,
    l1_uniform_distance,
    monte_carlo_distribution,
)
from .rng import stream
from .words import Word, abelianize, gcd_of_vector, parse_word, sample_word

# key -> (type tag, short description); value types and flag help come from here
KNOWN_KEYS = {
    "experiment": ("str", "experiment name; must match the subcommand"),
    "seed": ("int", "root seed; mandatory everywhere"),
    "model": ("str", "word sampling model"),
    "d": ("int", "word rank / lattice dimension / tuple length"),
    "n": ("int", "word length / step count / profile horizon"),
    "words": ("int", "number of sampled words (density)"),
    "word": ("str", "explicit word text, e.g. 'x1 x2 X1 X2' (trend)"),
    "groups": ("str", "comma-separated group specs (density, trend)"),
    "group": ("str", "single group spec (mixing, generation)"),
    "mode": ("str", "distribution mode"),
    "samples": ("int", "sample count for sampled mode / walks"),
    "tau": ("float", "closeness threshold on the L1 distance, a proxy"),
    "gcd_cap": ("int", "gcd histogram cap M"),
    "steps": ("str", "comma-separated element indices (mixing)"),
    "cycles": ("str", "semicolon-separated cycles, e.g. (1 2 3);(1 2) (mixing)"),
    "out": ("str", "output directory"),
}

DEFAULTS = {
    "model": "symmetric",
    "mode": "exact",
    "tau": 0.1,
    "out": ".",
}

CHOICES = {
    "model": ("positive", "symmetric"),
    "mode": ("exact", "sampled"),
}

VOLATILE_REPORT_KEYS = ("wall_clock_seconds", "_witness_labels")


@dataclass
class ExperimentConfig:
    """Validated flat configuration; unset optional keys are None."""

    experiment: str
    seed: int
    values: dict

    def get(self, key: str):
        return self.values.get(key)

    def require(self, *keys: str):
        missing = [k for k in keys if self.values.get(k) is None]
        if missing:
            raise ConfigError(
                f"{self.experiment}: missing required key(s): {', '.join(missing)}"
            )
        return [self.values[k] for k in keys]

    # Keys that steer execution but cannot change any computed value; they
    # are kept out of the config echo so reports stay byte-identical across
    # output locations.
    EXECUTION_KEYS = ("out",)

    def echo(self) -> dict:
        out = {"experiment": self.experiment, "seed": str(self.seed)}
        for k, v in sorted(self.values.items()):
            if v is not None and k not in ("experiment", "seed") + self.EXECUTION_KEYS:
                out[k] = str(v)
        return out


def _convert(key: str, raw: str):
    kind = KNOWN_KEYS[key][0]
    try:
        if kind == "int":
            return int(raw)
        if kind == "float":
            return float(raw)
        return str(raw)
    except ValueError as exc:
        raise ConfigError(f"key {key}: cannot parse {raw!r} as {kind}") from exc


def parse_config_file(path: Union[str, Path]) -> dict:
    """Read a flat key=value file into a raw-string mapping."""
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    raw = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key = value, got {line!r}")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key in raw:
            raise ConfigError(f"{path}:{lineno}: duplicate key {key!r}")
        raw[key] = value
    return raw


def build_config(experiment: str, *sources: dict) -> ExperimentConfig:
    """Merge raw mappings (later sources win), validate keys and types.

    `experiment` comes from the caller (the CLI subcommand); a conflicting
    `experiment` key inside a source is an error, and so is a key the
    experiment does not take.  Values from a file and from flags alike
    arrive here as given and are typed and checked here only.
    """
    if experiment not in EXPERIMENTS:
        raise ConfigError(f"unknown experiment {experiment!r}")
    merged = {}
    for src in sources:
        for key, value in src.items():
            if value is None:
                continue
            merged[key] = value
    unknown = sorted(set(merged) - set(KNOWN_KEYS))
    if unknown:
        raise ConfigError(
            "unknown config key(s): " + ", ".join(unknown)
            + "; known keys: " + ", ".join(sorted(KNOWN_KEYS))
        )
    taken = {"experiment", "seed", "out", *EXPERIMENTS[experiment].keys}
    foreign = sorted(set(merged) - taken)
    if foreign:
        raise ConfigError(f"{experiment} does not take key(s): {', '.join(foreign)}")
    values = {}
    for key, value in merged.items():
        values[key] = _convert(key, str(value))
    declared = values.pop("experiment", None)
    if declared is not None and declared != experiment:
        raise ConfigError(
            f"config says experiment={declared!r} but {experiment!r} was requested"
        )
    if "seed" not in values:
        raise ConfigError("seed is mandatory and has no default")
    seed = values.pop("seed")
    for key, default in DEFAULTS.items():
        values.setdefault(key, default)
    for key, allowed in CHOICES.items():
        if values[key] not in allowed:
            raise ConfigError(f"{key} must be {' or '.join(allowed)}, got {values[key]!r}")
    return ExperimentConfig(experiment=experiment, seed=seed, values=values)


# ---------------------------------------------------------------------------
# Canonical JSON
# ---------------------------------------------------------------------------


def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, Fraction):
        return f"{obj.numerator}/{obj.denominator}"
    if isinstance(obj, np.integer):
        return int(obj)
    return obj


def canonical_report_bytes(report: dict) -> bytes:
    """Deterministic JSON encoding with volatile fields stripped."""
    clean = {k: v for k, v in report.items() if k not in VOLATILE_REPORT_KEYS}
    text = json.dumps(_jsonable(clean), sort_keys=True, indent=2)
    return (text + "\n").encode("utf-8")


def _out_path(out_dir: Union[str, Path], name: str) -> Path:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out / name


def _write_csv(out_dir: Union[str, Path], name: str, header: list, rows) -> Path:
    path = _out_path(out_dir, name)
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
    return path


def write_report(report: dict, out_dir: Union[str, Path]) -> Path:
    path = _out_path(out_dir, "report.json")
    path.write_bytes(canonical_report_bytes(report))
    return path


def _compare(diffs: list, label: str, stored, recomputed) -> None:
    a = json.dumps(_jsonable(stored), sort_keys=True)
    b = json.dumps(_jsonable(recomputed), sort_keys=True)
    if a != b:
        diffs.append(f"{label}: stored {a} != recomputed {b}")


def _report(name: str, config: ExperimentConfig, t0: float, body: dict) -> dict:
    """Name, version and config echo, then `body`, then the time since `t0`."""
    return {"experiment": name, "version": __version__, "config": config.echo(),
            **body, "wall_clock_seconds": time.perf_counter() - t0}


def _fraction_fields(value) -> dict:
    """A distance as a float plus, when exact, the full rational."""
    if isinstance(value, Fraction):
        return {"l1": float(value), "l1_exact": f"{value.numerator}/{value.denominator}"}
    return {"l1": float(value), "l1_exact": None}


# ---------------------------------------------------------------------------
# Density experiment
# ---------------------------------------------------------------------------


def _mode_and_samples(config: ExperimentConfig) -> tuple:
    mode = config.get("mode")
    samples = config.get("samples")
    if mode == "sampled" and samples is None:
        raise ConfigError("sampled mode requires samples")
    if mode == "sampled" and samples < 1:
        raise ConfigError(f"samples must be >= 1, got {samples}")
    return mode, samples


def _group_specs(text: str) -> list:
    specs = [s.strip() for s in text.split(",") if s.strip()]
    if not specs:
        raise ConfigError("groups must name at least one group spec")
    return specs


def _cell_law(word: Word, group, mode: str, samples: Optional[int], seed: int,
              *path: int):
    """The word's law on one group: enumerated, or sampled from substream
    (seed, *path).  The stream is built only when it is used."""
    if mode == "exact":
        return exact_distribution(word, group)
    return monte_carlo_distribution(word, group, samples, stream(seed, *path))


def _density_cell(word: Word, gamma: int, group, spec: str, mode: str,
                  samples: Optional[int], seed: int, word_index: int,
                  group_index: int) -> dict:
    record = {
        "group": spec,
        "order": group.order,
        "l1": None,
        "l1_exact": None,
        "covers_powers": None,
        "m": None,
        "error": None,
    }
    try:
        dist = _cell_law(word, group, mode, samples, seed, 11, word_index, group_index)
        record.update(_fraction_fields(l1_uniform_distance(dist)))
        if gamma != 0:
            # in sampled mode the certificate pins every m-th power, so the
            # cell's own sample serves the coverage check as well
            cov = image_and_power_coverage(word, dist)
            record["covers_powers"] = bool(cov.covers_powers)
            record["m"] = int(cov.m)
    except BudgetExceededError as exc:
        record["error"] = f"budget: {exc}"
    except WordlabError as exc:
        record["error"] = f"{type(exc).__name__}: {exc}"
    return record


def density_aggregates(word_records: Sequence[dict], tau: float, gcd_cap: int) -> dict:
    """Aggregates derived purely from per-word records (auditable)."""
    total = len(word_records)
    histogram = {}
    in_range = 0
    all_below = 0
    errors = 0
    budget_errors = 0
    for rec in word_records:
        gamma = rec["gamma"]
        histogram[str(gamma)] = histogram.get(str(gamma), 0) + 1
        if 1 <= gamma <= gcd_cap:
            in_range += 1
        cells = rec["groups"]
        cell_errors = [c for c in cells if c["error"] is not None]
        errors += len(cell_errors)
        budget_errors += sum(1 for c in cell_errors if c["error"].startswith("budget:"))
        if cells and not cell_errors and all(c["l1"] < tau for c in cells):
            all_below += 1
    return {
        "word_count": total,
        "gamma_histogram": histogram,
        "fraction_gamma_in_cap_range": (in_range / total) if total else 0.0,
        "fraction_gamma_zero_or_above_cap": ((total - in_range) / total) if total else 0.0,
        "fraction_words_all_below_tau": (all_below / total) if total else 0.0,
        "cell_error_count": errors,
        "budget_error_count": budget_errors,
        "tau": tau,
        "gcd_cap": gcd_cap,
    }


def run_density(config: ExperimentConfig) -> dict:
    """Sample R words, push them through every group, aggregate the results.

    Word i draws from substream (7, i) and its cell on group j from
    (11, i, j), so a record depends on the seed and its indices, not on
    the order in which cells are evaluated.
    """
    t0 = time.perf_counter()
    model, d, n, r, group_text, gcd_cap = config.require(
        "model", "d", "n", "words", "groups", "gcd_cap"
    )
    if r < 1:
        raise ConfigError(f"words must be >= 1, got {r}")
    mode, samples = _mode_and_samples(config)
    tau = config.get("tau")
    specs = _group_specs(group_text)
    groups = [construct_group(s) for s in specs]
    word_records = []
    for i in range(r):
        w = sample_word(model, d, n, stream(config.seed, 7, i))
        vector = abelianize(w)
        gamma = gcd_of_vector(vector)
        word_records.append({
            "index": i,
            "word": w.to_text(),
            "reduced_length": len(w),
            "exponent_vector": list(vector),
            "gamma": gamma,
            "groups": [_density_cell(w, gamma, g, spec, mode, samples, config.seed, i, j)
                       for j, (g, spec) in enumerate(zip(groups, specs))],
        })
    return _report("density", config, t0, {
        "group_specs": specs,
        "words": word_records,
        "aggregates": density_aggregates(word_records, tau, gcd_cap),
    })


def write_density_csv(report: dict, out_dir: Union[str, Path]) -> Path:
    header = ["word_index", "word", "reduced_length", "gamma",
              "group", "l1", "l1_exact", "covers_powers", "error"]
    rows = ([rec["index"], rec["word"], rec["reduced_length"], rec["gamma"],
             cell["group"],
             "" if cell["l1"] is None else repr(cell["l1"]),
             cell["l1_exact"] or "",
             "" if cell["covers_powers"] is None else cell["covers_powers"],
             cell["error"] or ""]
            for rec in report["words"] for cell in rec["groups"])
    return _write_csv(out_dir, "words.csv", header, rows)


def _audit_density(report: dict, path: Path, diffs: list) -> None:
    agg = report["aggregates"]
    tau = agg.get("tau")
    gcd_cap = agg.get("gcd_cap")
    if tau is None or gcd_cap is None:
        diffs.append("aggregates lack tau/gcd_cap echo")
    else:
        _compare(diffs, "aggregates", agg, density_aggregates(report["words"], tau, gcd_cap))
    for rec in report["words"]:
        gamma = gcd_of_vector(rec["exponent_vector"])
        if gamma != rec["gamma"]:
            diffs.append(f"word {rec['index']}: gamma {rec['gamma']} != {gamma}")


def _summarize_density(report: dict) -> int:
    agg = report["aggregates"]
    print(f"words: {agg['word_count']}  "
          f"gamma in [1, {agg['gcd_cap']}]: {agg['fraction_gamma_in_cap_range']:.4f}  "
          f"all L1 < {agg['tau']}: {agg['fraction_words_all_below_tau']:.4f}")
    if agg["budget_error_count"] > 0:
        print(f"budget errors in {agg['budget_error_count']} cell(s)", file=sys.stderr)
        return 2
    return 0


# ---------------------------------------------------------------------------
# Trend experiment
# ---------------------------------------------------------------------------


def run_trend(config: ExperimentConfig) -> dict:
    """One word's distance to uniform across several groups.

    In sampled mode row j (the j-th spec as given) draws from substream
    (j).  A group that cannot be built or measured is recorded in its row
    instead of aborting the sweep; rows are ordered by group order, those
    without one last.
    """
    t0 = time.perf_counter()
    word_text, group_text = config.require("word", "groups")
    mode, samples = _mode_and_samples(config)
    word = parse_word(word_text)
    rows = []
    for j, spec in enumerate(_group_specs(group_text)):
        row = {"spec": spec, "order": None, "mode": mode, "error": None,
               "l1": None, "l1_exact": None}
        try:
            group = construct_group(spec)
            row["order"] = group.order
            row.update(_fraction_fields(l1_uniform_distance(
                _cell_law(word, group, mode, samples, config.seed, j))))
        except WordlabError as exc:
            row["error"] = f"{type(exc).__name__}: {exc}"
        rows.append(row)
    rows.sort(key=lambda r: (r["order"] is None, r["order"] or 0, r["spec"]))
    return _report("trend", config, t0, {
        "word": word.to_text(),
        "gamma": gcd_of_vector(abelianize(word)),
        "rows": rows,
    })


def write_trend_csv(report: dict, out_dir: Union[str, Path]) -> Path:
    rows = ([row["spec"],
             "" if row["order"] is None else row["order"],
             "" if row["l1"] is None else repr(row["l1"]),
             row["l1_exact"] or "",
             row["error"] or ""]
            for row in report["rows"])
    return _write_csv(out_dir, "trend.csv", ["spec", "order", "l1", "l1_exact", "error"], rows)


def _audit_trend(report: dict, path: Path, diffs: list) -> None:
    keys = [(r["order"] is None, r["order"] or 0, r["spec"]) for r in report["rows"]]
    if keys != sorted(keys):
        diffs.append("trend rows not sorted by (order, spec)")


def _summarize_trend(report: dict) -> int:
    for row in report["rows"]:
        status = row["error"] or (f"l1={row['l1']!r}")
        print(f"{row['spec']} (order {row['order']}): {status}")
    return 0


# ---------------------------------------------------------------------------
# Lattice gcd experiment
# ---------------------------------------------------------------------------


def _prime_powers_up_to(cap: int) -> list:
    """(p, k, p**k) for primes p and k >= 1 with p**k <= cap."""
    out = []
    for p in filter(_is_prime, range(2, cap + 1)):
        q, k = p, 1
        while q <= cap:
            out.append((p, k, q))
            q *= p
            k += 1
    return out


def run_walk_gcd(config: ExperimentConfig) -> dict:
    """Sampled endpoint-gcd statistics with two sampling-free cross-checks.

    The DP prediction block restates the tail probability from an exact
    boxed convolution; its zero probability must match the combinatorial
    return probability (dual-route identity carried in the report).  The
    mod-law block compares, for every prime power q <= M, the exact
    probability that the endpoint vanishes mod q with the sampled fraction
    of endpoints whose gcd q divides.

    The order: the sample count, then the parameters and state caps of
    both DPs (`tail_box_radius`, `check_moduli`) are checked, so that every
    error either DP or the draw can raise comes before any endpoint is
    drawn.  Then the one `sample_endpoints` call that feeds the estimate
    and the mod-law rows checks its own parameters, starts its worker
    thread on the last blocks of the endpoint stream (if there is more
    than one block), runs both DPs on this thread as its `meanwhile`, and
    then draws the first blocks here until the two meet; the endpoints
    are those of one serial draw.
    """
    t0 = time.perf_counter()
    d, n, samples, gcd_cap = config.require("d", "n", "samples", "gcd_cap")
    if samples < 1:  # sample_endpoints would say so only after the DP checks
        raise UnsupportedParameterError(f"samples must be >= 1, got {samples}")
    moduli = _prime_powers_up_to(min(gcd_cap, 64))
    qs = [q for _, _, q in moduli]
    tail_box_radius(d, n, gcd_cap)
    check_moduli(d, n, qs)
    dps = []

    def run_dps():
        dps.extend((predicted_tail_probability(d, n, gcd_cap), mod_zero_probabilities(d, n, qs)))

    ends = sample_endpoints(d, n, samples, stream(config.seed, 3), meanwhile=run_dps)
    pred, dp_zero = dps
    per_gamma = np.bincount(endpoint_gcds(ends))
    est = tail_estimate_from_histogram(d, n, gcd_cap, per_gamma)
    se = math.sqrt(max(pred.probability * (1 - pred.probability), 1e-300) / samples)
    z = (est.tail_probability - pred.probability) / se
    mod_rows = []
    # q divides the endpoint gcd exactly when the endpoint is 0 mod q
    # (gamma = 0, the true origin, counts as divisible on both routes).
    divisible_by = divisible_counts(per_gamma, qs)
    for (p, k, q), prob_zero, divisible in zip(moduli, dp_zero, divisible_by):
        mod_rows.append({
            "p": p, "k": k, "modulus": q,
            "dp_prob_zero": prob_zero,
            "mc_fraction": divisible / samples,
            "mc_count": divisible,
        })
    return _report("walk-gcd", config, t0, {
        "estimate": {
            "d": est.d, "n": est.n, "gcd_cap": est.gcd_cap, "samples": est.samples,
            "tail_count": est.tail_count, "zero_count": est.zero_count,
            "tail_probability": est.tail_probability,
            "zero_probability": est.zero_probability,
            "tail_ci": list(est.tail_ci), "zero_ci": list(est.zero_ci),
            "gamma_counts": dict(est.gamma_counts),
        },
        "prediction": {
            "box_radius": pred.box_radius,
            "tail_probability": pred.probability,
            "zero_probability_dp": pred.zero_probability,
            "return_probability_exact": pred.return_probability,
            "zero_route_gap": abs(pred.zero_probability - pred.return_probability),
            "gcd_law_head": dict(pred.gcd_law_head),
        },
        "agreement_z": z,
        "mod_laws": mod_rows,
    })


def write_walk_gcd_csv(report: dict, out_dir: Union[str, Path]) -> Path:
    est = report["estimate"]
    pred = report["prediction"]["gcd_law_head"]
    samples = est["samples"]
    rows = []
    for v in range(est["gcd_cap"] + 1):
        c = est["gamma_counts"].get(str(v), 0)
        rows.append([v, c, repr(c / samples), repr(pred.get(str(v), 0.0))])
    return _write_csv(out_dir, "gcd_law.csv",
                      ["gamma", "mc_count", "mc_fraction", "dp_probability"], rows)


def write_mod_law_csv(report: dict, out_dir: Union[str, Path]) -> Path:
    rows = ([row["p"], row["k"], row["modulus"],
             repr(row["dp_prob_zero"]), repr(row["mc_fraction"]), row["mc_count"]]
            for row in report["mod_laws"])
    return _write_csv(out_dir, "mod_laws.csv",
                      ["p", "k", "modulus", "dp_prob_zero", "mc_fraction", "mc_count"], rows)


def _audit_walk_gcd(report: dict, path: Path, diffs: list) -> None:
    est = report["estimate"]
    samples = est["samples"]
    _compare(diffs, "estimate.tail_probability",
             est["tail_probability"], est["tail_count"] / samples)
    _compare(diffs, "estimate.zero_probability",
             est["zero_probability"], est["zero_count"] / samples)
    pred = report["prediction"]
    _compare(diffs, "prediction.zero_route_gap",
             pred["zero_route_gap"],
             abs(pred["zero_probability_dp"] - pred["return_probability_exact"]))
    p = pred["tail_probability"]
    se = math.sqrt(max(p * (1 - p), 1e-300) / samples)
    _compare(diffs, "agreement_z", report["agreement_z"],
             (est["tail_probability"] - p) / se)
    for row in report["mod_laws"]:
        _compare(diffs, f"mod_laws[{row['modulus']}].mc_fraction",
                 row["mc_fraction"], row["mc_count"] / samples)


def _summarize_walk_gcd(report: dict) -> int:
    est, pred = report["estimate"], report["prediction"]
    print(f"tail Pr[gcd > {est['gcd_cap']}]: sampled {est['tail_probability']:.6f} "
          f"predicted {pred['tail_probability']:.6f} (z = {report['agreement_z']:+.2f})")
    print(f"zero-probability routes agree to {pred['zero_route_gap']:.3e}")
    return 0


# ---------------------------------------------------------------------------
# Mixing experiment
# ---------------------------------------------------------------------------


def _parse_cycles_text(text: str) -> list:
    """Parse '(1 2 3)(4 5);(1 2)' into lists of cycles (1-based points)."""
    steps = []
    for part in text.split(";"):
        part = part.strip()
        if not part:
            continue
        cycles = []
        buf = part
        while "(" in buf:
            start = buf.index("(")
            end = buf.index(")", start)
            inner = buf[start + 1:end].replace(",", " ").split()
            cycles.append(tuple(int(x) for x in inner))
            buf = buf[end + 1:]
        if not cycles:
            raise ConfigError(f"cannot parse cycle step {part!r}")
        steps.append(cycles)
    if not steps:
        raise ConfigError("cycles text contains no steps")
    return steps


def _labels_digest(labels) -> str:
    return hashlib.sha256(json.dumps(list(labels)).encode()).hexdigest()


def run_mixing(config: ExperimentConfig) -> dict:
    t0 = time.perf_counter()
    group_text, n_max = config.require("group", "n")
    tau = config.get("tau")
    group = construct_group(group_text)
    steps_text = config.get("steps")
    cycles_text = config.get("cycles")
    if (steps_text is None) == (cycles_text is None):
        raise ConfigError("mixing needs exactly one of steps or cycles")
    if steps_text is not None:
        try:
            indices = [int(s) for s in steps_text.split(",") if s.strip()]
        except ValueError as exc:
            raise ConfigError(f"steps must be comma-separated indices: {exc}") from exc
    else:
        if not isinstance(group, PermutationGroup):
            raise ConfigError("cycles syntax only applies to permutation groups")
        try:
            indices = [group.index_of_cycles(c) for c in _parse_cycles_text(cycles_text)]
        except (KeyError, ValueError, IndexError) as exc:
            raise ConfigError(f"bad cycles for {group.name}: {exc}") from exc
    try:
        step_set = StepSet.uniform(group, indices)
    except IndexError as exc:
        raise ConfigError(f"bad steps for {group.name}: {exc}") from exc
    witness = cyclic_obstruction(group, step_set)
    profile = mixing_profile(group, step_set, n_max)
    floats = [float(v) for v in profile]
    # Compared on floats so the audit can reproduce the cut from the report.
    below = [i for i, v in enumerate(floats) if v < tau]
    first_below = below[0] if below else None
    obstruction = None
    if witness is not None:
        obstruction = {
            "modulus": witness.modulus,
            "labels_sha256": _labels_digest(witness.labels),
            "distance_floor": _fraction_fields(witness.distance_floor()),
        }
    report = _report("mixing", config, t0, {
        "group": group.name,
        "order": group.order,
        "step_indices": list(step_set.support),
        "step_elements": [group.element_repr(i) for i in step_set.support],
        "profile_l1": floats,
        "final_l1": floats[-1],
        "first_n_below_tau": first_below,
        "obstruction": obstruction,
    })
    if witness is not None:
        report["witness_file"] = "witness.json"
        report["_witness_labels"] = list(witness.labels)
    return report


def write_mixing_outputs(report: dict, out_dir: Union[str, Path]) -> list:
    """Profile CSV plus, when an obstruction exists, the full witness JSON."""
    paths = [_write_csv(out_dir, "profile.csv", ["n", "l1"],
                        ([i, repr(v)] for i, v in enumerate(report["profile_l1"])))]
    labels = report.get("_witness_labels")
    if report.get("obstruction") is not None and labels is not None:
        wpath = _out_path(out_dir, report["witness_file"])
        payload = {
            "group": report["group"],
            "modulus": report["obstruction"]["modulus"],
            "labels": list(labels),
            "labels_sha256": report["obstruction"]["labels_sha256"],
        }
        wpath.write_bytes(canonical_report_bytes(payload))
        paths.append(wpath)
    return paths


def _audit_mixing(report: dict, path: Path, diffs: list) -> None:
    floats = report["profile_l1"]
    _compare(diffs, "final_l1", report["final_l1"], floats[-1])
    tau = float(report["config"].get("tau", DEFAULTS["tau"]))
    below = [i for i, v in enumerate(floats) if v < tau]
    _compare(diffs, "first_n_below_tau", report["first_n_below_tau"],
             below[0] if below else None)
    ob = report["obstruction"]
    if ob is not None and report.get("witness_file"):
        wpath = path.parent / report["witness_file"]
        if wpath.exists():
            witness = json.loads(wpath.read_text())
            _compare(diffs, "witness digest", ob["labels_sha256"],
                     _labels_digest(witness["labels"]))
        else:
            diffs.append(f"witness file {wpath} missing")


def _summarize_mixing(report: dict) -> int:
    if report["obstruction"] is not None:
        print(f"obstruction: walk is locked mod {report['obstruction']['modulus']}; "
              f"L1 floor {report['obstruction']['distance_floor']['l1']}")
    cut = report["first_n_below_tau"]
    print(f"final L1 after {len(report['profile_l1']) - 1} steps: "
          f"{report['final_l1']:.3e}" +
          (f"; first below tau at n = {cut}" if cut is not None else "; never below tau"))
    return 0


# ---------------------------------------------------------------------------
# Generation experiment
# ---------------------------------------------------------------------------


def run_generation(config: ExperimentConfig) -> dict:
    t0 = time.perf_counter()
    group_text, d = config.require("group", "d")
    if d < 1:
        raise ConfigError(f"d must be >= 1, got {d}")
    group = construct_group(group_text)
    body = {
        "group": group.name,
        "order": group.order,
        "d": d,
    }
    try:
        hall = hall_max_power(group, d)
        body.update({
            "tuple_count": hall.tuple_count,
            "aut_order": hall.aut_order,
            "max_power": hall.max_power,
            "sqrt_bound": hall.sqrt_bound,
            "consistent": hall.consistent,
        })
    except NotInCatalogError:
        body.update({
            "tuple_count": count_generating_tuples(group, d),
            "aut_order": None,
            "max_power": None,
            "sqrt_bound": math.isqrt(4 * group.order),
            "consistent": None,
        })
    return _report("generation", config, t0, body)


def _audit_generation(report: dict, path: Path, diffs: list) -> None:
    if report["aut_order"] is not None:
        _compare(diffs, "max_power", report["max_power"],
                 report["tuple_count"] // report["aut_order"])
        _compare(diffs, "consistent", report["consistent"],
                 report["sqrt_bound"] <= report["max_power"])
    _compare(diffs, "sqrt_bound", report["sqrt_bound"],
             math.isqrt(4 * report["order"]))


def _summarize_generation(report: dict) -> int:
    if report["max_power"] is not None:
        print(f"{report['group']}: {report['tuple_count']} generating "
              f"{report['d']}-tuples, |Aut| = {report['aut_order']}, "
              f"largest {report['d']}-generated power: {report['max_power']}")
    else:
        print(f"{report['group']}: {report['tuple_count']} generating "
              f"{report['d']}-tuples (no Aut catalog entry)")
    return 0


# ---------------------------------------------------------------------------
# Experiment registry
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Experiment:
    """Everything the CLI, `build_config` and `audit_report` know of an experiment.

    `keys` are the config keys its subcommand takes as flags, besides
    `seed` and `out`.  `run` makes the report; `write` writes every output
    file and returns the paths; `audit(report, path, diffs)` appends the
    report's discrepancies; `summarize` prints the console summary and
    returns the exit code.  `run` and `write` look the module's functions
    up by name at each call, so rebinding one (as the benchmark's tracer
    does) takes effect here too.
    """

    help: str
    keys: tuple
    run: Callable[[ExperimentConfig], dict]
    write: Callable[[dict, Union[str, Path]], list]
    audit: Callable[[dict, Path, list], None]
    summarize: Callable[[dict], int]


EXPERIMENTS = {
    "density": Experiment(
        "distance-to-uniform of sampled words across groups",
        ("model", "d", "n", "words", "groups", "mode", "samples", "tau", "gcd_cap"),
        run=lambda config: run_density(config),
        write=lambda report, out: [write_report(report, out),
                                   write_density_csv(report, out)],
        audit=_audit_density,
        summarize=_summarize_density,
    ),
    "trend": Experiment(
        "one word across a family of groups",
        ("word", "groups", "mode", "samples"),
        run=lambda config: run_trend(config),
        write=lambda report, out: [write_report(report, out),
                                   write_trend_csv(report, out)],
        audit=_audit_trend,
        summarize=_summarize_trend,
    ),
    "walk-gcd": Experiment(
        "endpoint gcd statistics of lattice walks",
        ("d", "n", "samples", "gcd_cap"),
        run=lambda config: run_walk_gcd(config),
        write=lambda report, out: [write_report(report, out),
                                   write_walk_gcd_csv(report, out),
                                   write_mod_law_csv(report, out)],
        audit=_audit_walk_gcd,
        summarize=_summarize_walk_gcd,
    ),
    "mixing": Experiment(
        "exact mixing profile of a walk on a group",
        ("group", "n", "steps", "cycles", "tau"),
        run=lambda config: run_mixing(config),
        write=lambda report, out: [write_report(report, out),
                                   *write_mixing_outputs(report, out)],
        audit=_audit_mixing,
        summarize=_summarize_mixing,
    ),
    "generation": Experiment(
        "generating-tuple counts and largest power",
        ("group", "d"),
        run=lambda config: run_generation(config),
        write=lambda report, out: [write_report(report, out)],
        audit=_audit_generation,
        summarize=_summarize_generation,
    ),
}


# ---------------------------------------------------------------------------
# Audit
# ---------------------------------------------------------------------------


def audit_report(path: Union[str, Path]) -> list:
    """Recompute every derived field of a report from its own records.

    Returns the list of discrepancies; an empty list means the aggregates
    are exactly the function of the raw records that the harness claims.
    A report that is not a JSON object, or lacks a field its audit reads,
    raises ConfigError.
    """
    path = Path(path)
    try:
        report = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read report {path}: {exc}") from exc
    if not isinstance(report, dict):
        raise ConfigError(f"{path}: report is not a JSON object")
    kind = report.get("experiment")
    if kind is None:
        raise ConfigError(f"{path}: no experiment field")
    if not isinstance(kind, str) or kind not in EXPERIMENTS:
        raise ConfigError(f"{path}: unknown experiment {kind!r}")
    diffs = []
    try:
        if "seed" not in report.get("config", {}):
            diffs.append("config echo lacks seed")
        EXPERIMENTS[kind].audit(report, path, diffs)
    except KeyError as exc:
        raise ConfigError(f"{path}: {kind} report lacks field {exc.args[0]!r}") from exc
    except (TypeError, AttributeError, IndexError) as exc:
        raise ConfigError(f"{path}: malformed {kind} report: {exc}") from exc
    return diffs


# ---------------------------------------------------------------------------
# Cayley-table ingestion
# ---------------------------------------------------------------------------

# Structural characterizations are computed only for tables up to this order.
INGEST_STRUCTURE_CAP = 2048


def ingest_cayley_table(path: Union[str, Path],
                        out_dir: Optional[Union[str, Path]] = None) -> dict:
    """Validate an external Cayley-table file and summarize the group.

    Raises MalformedCayleyTableError (via the loader) for anything that is
    not a group table.  When `out_dir` is given, a summary JSON is written
    there.
    """
    group = load_cayley_table(path)
    summary = {
        "source": str(path),
        "order": group.order,
        "abelian": None,
        "center_size": None,
        "perfect": None,
    }
    if group.order <= INGEST_STRUCTURE_CAP:
        z = center(group)
        summary["center_size"] = len(z)
        summary["abelian"] = len(z) == group.order
        summary["perfect"] = is_perfect(group)
    if out_dir is not None:
        _out_path(out_dir, "ingest.json").write_bytes(canonical_report_bytes(summary))
    return summary
