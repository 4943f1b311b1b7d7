"""Workload inputs, built from the workload seed alone.

Every workload is a fixed list of ops (one pass).  An op is one public call
into wordlab plus the check of its output.  `build_pass` writes the config
files and the Cayley-table file an op needs into the work directory and
returns the ops; the same (workload, seed) always yields the same files and
the same op list.

The group-theoretic inputs (the PSL(2,7) Cayley table and the A5
generating pairs) are computed here with plain permutation and matrix
arithmetic, independently of wordlab, so that the checks of the ops that
consume them are real second routes.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

WORKLOADS = ("density", "structure_walks")

DENSITY_EXACT_GROUPS = "symmetric:3,alternating:4,alternating:5,psl2:7"
DENSITY_SAMPLED_GROUP = "sl2:17"  # order 4896: above the table cap of 4096

# Distinct words per pass and mode.  One op's cost varies by about 18% from
# word to word, so a pass averages over many words to keep the run's figures
# from moving with the seed.
DENSITY_OPS = 20


@dataclass
class Op:
    """One public call.  `kind` picks the entry point and the output check."""

    name: str
    kind: str  # density | generation | ingest | power | mixing | walk-gcd
    argv: list = field(default_factory=list)
    expect: dict = field(default_factory=dict)
    out: Optional[str] = None
    cells: int = 0  # density cells the call evaluates (words x groups)
    pairs: tuple = ()  # power: generating pairs of A5, as permutations


def _write_config(path: Path, values: dict) -> None:
    lines = [f"{k} = {v}" for k, v in values.items()]
    path.write_text("\n".join(lines) + "\n")


def _experiment(workdir: Path, name: str, experiment: str, values: dict,
                **fields) -> Op:
    cfg = workdir / "configs" / f"{name}.cfg"
    cfg.parent.mkdir(parents=True, exist_ok=True)
    _write_config(cfg, {"experiment": experiment, **values})
    out = f"out/{name}"
    return Op(name=name, kind=experiment,
              argv=[experiment, "--config", str(cfg.relative_to(workdir)), "--out", out],
              out=out, **fields)


# ---------------------------------------------------------------------------
# Independent group arithmetic for the generated inputs
# ---------------------------------------------------------------------------


def _compose(p: tuple, q: tuple) -> tuple:
    """(p*q)(x) = p(q(x)), the convention of wordlab's permutation groups."""
    return tuple(p[x] for x in q)


def _inverse(p: tuple) -> tuple:
    out = [0] * len(p)
    for i, x in enumerate(p):
        out[x] = i
    return tuple(out)


def _is_even(p: tuple) -> bool:
    inversions = sum(1 for i, j in itertools.combinations(range(len(p)), 2) if p[i] > p[j])
    return inversions % 2 == 0


def _generated(gens) -> set:
    identity = tuple(range(len(gens[0])))
    seen = {identity}
    frontier = [identity]
    while frontier:
        nxt = []
        for x in frontier:
            for g in gens:
                y = _compose(x, g)
                if y not in seen:
                    seen.add(y)
                    nxt.append(y)
        frontier = nxt
    return seen


A5 = [p for p in itertools.permutations(range(5)) if _is_even(p)]
S5 = list(itertools.permutations(range(5)))


def _aut_equivalent(a: tuple, b: tuple) -> bool:
    """Aut(A5) = S5 acting by conjugation: is some s with s a s^-1 = b?"""
    for s in S5:
        s_inv = _inverse(s)
        if all(_compose(_compose(s, x), s_inv) == y for x, y in zip(a, b)):
            return True
    return False


def a5_generating_pairs(rng: random.Random, count: int) -> tuple:
    """`count` generating pairs of A5, pairwise inequivalent under Aut(A5).

    By P. Hall (1936) such pairs, read coordinatewise, generate A5^count,
    so `power_tuple_generates` must answer True on them.
    """
    pairs = []
    while len(pairs) < count:
        pair = (rng.choice(A5), rng.choice(A5))
        if len(_generated(pair)) == 60 and not any(_aut_equivalent(pair, q) for q in pairs):
            pairs.append(pair)
    return tuple(pairs)


def psl2_table(p: int, rng: random.Random) -> list:
    """Cayley table of PSL(2,p), elements relabelled at random, identity at 0."""
    def canon(m):
        neg = tuple((-x) % p for x in m)
        return min(m, neg)

    elements = sorted({canon((a, b, c, d))
                       for a, b, c, d in itertools.product(range(p), repeat=4)
                       if (a * d - b * c) % p == 1})
    identity = canon((1, 0, 0, 1))
    others = [e for e in elements if e != identity]
    rng.shuffle(others)
    order = [identity] + others
    index = {e: i for i, e in enumerate(order)}

    def mul(x, y):
        a, b, c, d = x
        e, f, g, h = y
        return index[canon(((a * e + b * g) % p, (a * f + b * h) % p,
                            (c * e + d * g) % p, (c * f + d * h) % p))]

    return [[mul(x, y) for y in order] for x in order]


def write_table(path: Path, table: list) -> None:
    rows = [" ".join(str(v) for v in row) for row in table]
    path.write_text(f"{len(table)}\n" + "\n".join(rows) + "\n")


# ---------------------------------------------------------------------------
# Passes
# ---------------------------------------------------------------------------


def _op_seed(rng: random.Random) -> int:
    return rng.randrange(1, 2**31)


def _density(workdir: Path, rng: random.Random) -> list:
    exact = [
        _experiment(workdir, f"density_exact_{i:02d}", "density", {
            "seed": _op_seed(rng), "model": "symmetric", "d": 2, "n": 200,
            "words": 1, "groups": DENSITY_EXACT_GROUPS, "gcd_cap": 30,
        }, cells=4)
        for i in range(DENSITY_OPS)
    ]
    sampled = [
        _experiment(workdir, f"density_sampled_{i:02d}", "density", {
            "seed": _op_seed(rng), "model": "symmetric", "d": 2, "n": 100,
            "words": 1, "groups": DENSITY_SAMPLED_GROUP, "mode": "sampled",
            "samples": 2000, "gcd_cap": 30,
        }, cells=1, expect={"mode": "sampled"})
        for i in range(DENSITY_OPS)
    ]
    # Alternate the two modes, so that both see the same stretch of the run.
    return [op for pair in zip(exact, sampled) for op in pair]


# Op costs in `structure_walks` fall into tiers: small (under 0.07 s), middle
# (0.13-0.22 s), heavy (0.4-0.55 s) and the ingest (about 1.3 s).  The pass
# holds 5 small, 20 middle, 4 heavy ops and the ingest, so that the median
# falls in the middle of the middle tier and p90 in the middle of the heavy
# tier: either percentile then times one kind of op, not the boundary
# between two.


def _structure_walks(workdir: Path, rng: random.Random) -> list:
    table = workdir / "psl2_7.txt"
    write_table(table, psl2_table(7, rng))
    ingest = Op(name="ingest_psl2_7", kind="ingest",
                argv=["ingest", table.name, "--out", "out/ingest"], out="out/ingest",
                expect={"order": 168, "perfect": True, "abelian": False, "center_size": 1})

    def generation(i, group, d):
        return _experiment(workdir, f"generation_{i:02d}", "generation",
                           {"seed": _op_seed(rng), "group": group, "d": d})

    def power(i):
        return Op(name=f"power_a5_{i}", kind="power", pairs=a5_generating_pairs(rng, 2))

    def mixing(name, values, obstruction):
        return _experiment(workdir, name, "mixing", {"seed": _op_seed(rng), **values},
                           expect={"obstruction": obstruction})

    def walk_gcd(name, d, n, samples):
        return _experiment(workdir, name, "walk-gcd", {
            "seed": _op_seed(rng), "d": d, "n": n, "samples": samples, "gcd_cap": 8})

    s5 = {"group": "symmetric:5", "cycles": "(1 2);(2 3 4 5)", "n": 60}
    a5_d2 = [generation(i, "alternating:5", 2) for i in range(10)]
    gcd_d3 = [walk_gcd(f"walk_gcd_d3_{i}", 3, 20, 20000) for i in range(7)]
    gcd_d2 = [walk_gcd(f"walk_gcd_d2_{i}", 2, 100, 50000) for i in range(3)]
    middle = [op for pair in zip(a5_d2, gcd_d3 + gcd_d2) for op in pair]
    small = [power(0), mixing("mixing_s5_0", s5, True), generation(10, "symmetric:4", 3),
             power(1), mixing("mixing_s5_1", s5, True)]
    heavy = [generation(11, "alternating:5", 3),
             mixing("mixing_psl2_13", {"group": "psl2:13", "steps": "1,2", "n": 150}, False),
             generation(12, "alternating:5", 3),
             mixing("mixing_sl2_11", {"group": "sl2:11", "steps": "1,2", "n": 90}, False)]
    # One small or heavy op, in turn, after every second middle op; the ingest last.
    extra = [op for pair in zip(small, heavy + [None]) for op in pair if op is not None]
    ops = []
    for i, op in enumerate(middle):
        ops.append(op)
        if i % 2 == 1 and extra:
            ops.append(extra.pop(0))
    return ops + [ingest]


_PASSES = {
    "density": _density,
    "structure_walks": _structure_walks,
}


def build_pass(workload: str, seed: int, workdir: Path) -> list:
    """Write the inputs of one pass under `workdir` and return its ops."""
    rng = random.Random(f"{workload}:{seed}")
    return _PASSES[workload](workdir, rng)


def build_warmup(workload: str, workdir: Path) -> list:
    """Tiny ops of the kinds the workload runs, to load every code path."""
    if workload == "density":
        return [
            _experiment(workdir, "warm_exact", "density", {
                "seed": 1, "d": 2, "n": 10, "words": 1, "groups": "symmetric:3",
                "gcd_cap": 30}, cells=1),
            _experiment(workdir, "warm_sampled", "density", {
                "seed": 1, "d": 2, "n": 10, "words": 1, "groups": "symmetric:3",
                "mode": "sampled", "samples": 100, "gcd_cap": 30}, cells=1,
                expect={"mode": "sampled"}),
        ]
    table = workdir / "warm_a5.txt"
    a5_index = {p: i for i, p in enumerate(A5)}
    write_table(table, [[a5_index[_compose(x, y)] for y in A5] for x in A5])
    return [
        Op(name="warm_ingest", kind="ingest", out="out/warm",
           argv=["ingest", table.name, "--out", "out/warm"],
           expect={"order": 60, "perfect": True, "abelian": False, "center_size": 1}),
        _experiment(workdir, "warm_generation", "generation",
                    {"seed": 1, "group": "symmetric:3", "d": 2}),
        Op(name="warm_power", kind="power",
           pairs=a5_generating_pairs(random.Random("warmup"), 1)),
        _experiment(workdir, "warm_mixing", "mixing", {
            "seed": 1, "group": "symmetric:3", "cycles": "(1 2);(1 2 3)", "n": 4},
            expect={"obstruction": False}),
        _experiment(workdir, "warm_walk_gcd", "walk-gcd", {
            "seed": 1, "d": 2, "n": 10, "samples": 100, "gcd_cap": 4}),
    ]
