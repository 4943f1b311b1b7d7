"""Harness: configs, deterministic reports, audits, and CLI exit codes."""

import json
import threading
import time
from fractions import Fraction

import numpy as np
import pytest

from wordlab import harness, lattice_walks
from wordlab.cli import main
from wordlab.errors import ConfigError, MalformedCayleyTableError, UnsupportedParameterError
from wordlab.generation import count_generating_tuples
from wordlab.harness import (
    EXPERIMENTS,
    audit_report,
    build_config,
    canonical_report_bytes,
    ingest_cayley_table,
    parse_config_file,
    run_density,
    run_generation,
    run_mixing,
    run_trend,
    run_walk_gcd,
    write_density_csv,
    write_mixing_outputs,
    write_report,
)

from conftest import get_group

C3_TABLE = "3\n0 1 2\n1 2 0\n2 0 1\n"


def density_config(**overrides):
    base = {
        "seed": 5, "model": "symmetric", "d": 2, "n": 30,
        "words": 10, "groups": "symmetric:3,cyclic:6", "gcd_cap": 6,
    }
    base.update(overrides)
    return build_config("density", base)


# ---------------------------------------------------------------------------
# Config parsing and validation
# ---------------------------------------------------------------------------


def test_parse_config_file(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "# an experiment\n"
        "seed = 7\n"
        "\n"
        "groups = symmetric:3, cyclic:6  # trailing comment\n"
        "d=2\n"
    )
    raw = parse_config_file(cfg)
    assert raw == {"seed": "7", "groups": "symmetric:3, cyclic:6", "d": "2"}
    bad = tmp_path / "dup.cfg"
    bad.write_text("seed = 1\nseed = 2\n")
    with pytest.raises(ConfigError):
        parse_config_file(bad)
    bad.write_text("just words\n")
    with pytest.raises(ConfigError):
        parse_config_file(bad)
    with pytest.raises(ConfigError):
        parse_config_file(tmp_path / "missing.cfg")


def test_build_config_validation():
    with pytest.raises(ConfigError, match="unknown config key"):
        build_config("density", {"seed": 1, "bogus": "x"})
    with pytest.raises(ConfigError, match="seed is mandatory"):
        build_config("density", {"d": 2})
    with pytest.raises(ConfigError, match="experiment"):
        build_config("density", {"seed": 1, "experiment": "trend"})
    with pytest.raises(ConfigError, match="model"):
        build_config("density", {"seed": 1, "model": "weird"})
    with pytest.raises(ConfigError, match="mode"):
        build_config("density", {"seed": 1, "mode": "weird"})
    with pytest.raises(ConfigError, match="cannot parse"):
        build_config("density", {"seed": 1, "d": "two"})
    with pytest.raises(ConfigError, match="unknown experiment"):
        build_config("nonsense", {"seed": 1})
    config = build_config("density", {"seed": 1, "d": 2}, {"d": 3})
    assert config.get("d") == 3  # later sources win
    assert config.get("model") == "symmetric"
    assert config.get("tau") == 0.1
    assert config.get("out") == "."


def test_workers_key_is_refused(tmp_path):
    # density runs its cells serially; a leftover thread-count key is unknown
    with pytest.raises(ConfigError, match="unknown config key\\(s\\): workers"):
        build_config("density", {"seed": 1, "d": 2, "workers": 2})
    cfg = tmp_path / "threads.cfg"
    cfg.write_text("seed = 1\nd = 2\nn = 8\nwords = 2\ngroups = cyclic:4\n"
                   "gcd_cap = 4\nworkers = 2\n")
    assert main(["density", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 1
    assert not (tmp_path / "out").exists()


def test_config_file_keys_the_experiment_does_not_take_are_refused(tmp_path, capsys):
    # as the flag --words is refused for walk-gcd, so is a file's words key
    cfg = tmp_path / "walk.cfg"
    cfg.write_text("seed = 4\nd = 2\nn = 30\nsamples = 200\ngcd_cap = 5\n"
                   "words = 7\ngroups = psl2:7\n")
    assert main(["walk-gcd", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 1
    assert "walk-gcd does not take key(s): groups, words" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()
    with pytest.raises(ConfigError, match="trend does not take key\\(s\\): tau"):
        build_config("trend", {"seed": 1, "tau": 0.2})


def test_config_echo_hides_execution_keys():
    config = build_config("density", {"seed": 1, "d": 2, "out": "/tmp/x"})
    echo = config.echo()
    assert "out" not in echo
    assert echo["experiment"] == "density" and echo["seed"] == "1"


def test_canonical_bytes():
    a = canonical_report_bytes(
        {"b": Fraction(3, 4), "a": np.int64(2), "wall_clock_seconds": 1.23}
    )
    b = canonical_report_bytes({"a": 2, "b": "3/4"})
    assert a == b
    assert b.endswith(b"\n")
    assert b"wall_clock" not in a


# ---------------------------------------------------------------------------
# Density
# ---------------------------------------------------------------------------


def test_density_run_contents_and_determinism(tmp_path):
    config = density_config()
    report = run_density(config)
    words = report["words"]
    assert len(words) == 10
    for rec in words:
        assert len(rec["groups"]) == 2
        gamma = 0
        for v in rec["exponent_vector"]:
            gamma = int(np.gcd(gamma, abs(v)))
        assert rec["gamma"] == gamma
        for cell in rec["groups"]:
            assert cell["error"] is None
            assert cell["l1_exact"] is not None
    agg = report["aggregates"]
    assert agg["word_count"] == 10
    assert sum(agg["gamma_histogram"].values()) == 10
    assert agg["cell_error_count"] == 0

    # exact same bytes on a rerun
    again = run_density(density_config())
    assert canonical_report_bytes(report) == canonical_report_bytes(again)

    path = write_report(report, tmp_path)
    assert audit_report(path) == []
    csv_path = write_density_csv(report, tmp_path)
    lines = csv_path.read_text().strip().splitlines()
    assert len(lines) == 1 + 10 * 2


def test_density_audit_catches_tampering(tmp_path):
    report = run_density(density_config(words=5))
    path = write_report(report, tmp_path)
    loaded = json.loads(path.read_text())
    loaded["aggregates"]["cell_error_count"] = 99
    path.write_text(json.dumps(loaded))
    diffs = audit_report(path)
    assert diffs and any("aggregates" in d for d in diffs)

    loaded = json.loads(canonical_report_bytes(report).decode())
    loaded["words"][0]["gamma"] = 999
    path.write_text(json.dumps(loaded))
    diffs = audit_report(path)
    assert any("gamma" in d for d in diffs)


def test_density_budget_cells_are_recorded():
    config = density_config(words=3, groups="symmetric:9", n=10)
    report = run_density(config)
    for rec in report["words"]:
        assert rec["groups"][0]["error"].startswith("budget:")
        assert rec["groups"][0]["l1"] is None
    agg = report["aggregates"]
    assert agg["cell_error_count"] == 3
    assert agg["budget_error_count"] == 3
    assert agg["fraction_words_all_below_tau"] == 0.0


def test_density_sampled_mode_is_deterministic():
    config = density_config(mode="sampled", samples=1500, words=4)
    report = run_density(config)
    for rec in report["words"]:
        for cell in rec["groups"]:
            assert cell["error"] is None
            assert cell["l1_exact"] is None
            assert isinstance(cell["l1"], float)
    again = run_density(density_config(mode="sampled", samples=1500, words=4))
    assert canonical_report_bytes(report) == canonical_report_bytes(again)
    with pytest.raises(ConfigError, match="samples"):
        run_density(density_config(mode="sampled"))


def test_density_refuses_fewer_than_one_word(tmp_path):
    for words in (0, -1):
        with pytest.raises(ConfigError, match="words must be >= 1"):
            run_density(density_config(words=words))
        assert main(["density", "--seed", "1", "--words", str(words),
                     "--out", str(tmp_path)]) == 1
    assert not (tmp_path / "report.json").exists()


# ---------------------------------------------------------------------------
# Trend
# ---------------------------------------------------------------------------


def test_trend_run_and_audit(tmp_path):
    config = build_config(
        "trend", {"seed": 2, "word": "x1 x1", "groups": "psl2:7,cyclic:5,psl2:5"}
    )
    report = run_trend(config)
    assert report["gamma"] == 2
    rows = report["rows"]
    assert [r["spec"] for r in rows] == ["cyclic:5", "psl2:5", "psl2:7"]
    assert [r["order"] for r in rows] == [5, 60, 168]
    # squaring is a bijection on an odd cyclic group, far from it on psl2
    assert rows[0]["l1_exact"] == "0/1"
    assert rows[1]["l1_exact"] == "1/2"
    assert rows[2]["l1_exact"] == "1/2"
    path = write_report(report, tmp_path)
    assert audit_report(path) == []
    loaded = json.loads(path.read_text())
    loaded["rows"] = loaded["rows"][::-1]
    path.write_text(json.dumps(loaded))
    assert any("sorted" in d for d in audit_report(path))


def test_trend_sorts_rows_and_captures_errors():
    # x2 X2 cancels but makes the word rank 2, so the budget is |G|^2
    config = build_config("trend", {"seed": 0, "word": "x2 X2 x1 x1",
                                    "groups": "symmetric:4,cyclic:2,symmetric:9,nosuch:3"})
    report = run_trend(config)
    assert report["word"] == "x1 x1"
    rows = report["rows"]
    # sorted by order, errors (no order) last
    assert [r["spec"] for r in rows] == ["cyclic:2", "symmetric:4", "symmetric:9", "nosuch:3"]
    assert rows[2]["order"] == 362880 and rows[2]["l1"] is None
    assert rows[2]["error"].startswith("BudgetExceededError: ")  # symmetric:9 at d = 2
    assert rows[3]["order"] is None and rows[3]["error"] is not None
    assert rows[0]["error"] is None and rows[0]["l1_exact"] == "1/1"


def test_trend_reads_cayley_file_rows(tmp_path):
    # dihedral:4's own table with its non-identity labels reversed: an
    # isomorphic group, so the same law up to relabelling
    table = get_group("dihedral:4").mul_table()
    relabel = np.array([0, 7, 6, 5, 4, 3, 2, 1])
    relabelled = np.empty_like(table)
    relabelled[np.ix_(relabel, relabel)] = relabel[table]
    path = tmp_path / "d4.txt"
    path.write_text("8\n" + "\n".join(" ".join(map(str, row)) for row in relabelled) + "\n")
    config = build_config("trend", {"seed": 1, "word": "x1 x2 X1 X2",
                                    "groups": f"cayley-file:{path},dihedral:4,cayley-file:"})
    rows = {r["spec"]: r for r in run_trend(config)["rows"]}
    file_row, native_row = rows[f"cayley-file:{path}"], rows["dihedral:4"]
    assert file_row["error"] is None and file_row["order"] == 8
    assert file_row["l1_exact"] == native_row["l1_exact"] != "0/1"
    assert rows["cayley-file:"]["error"] == "UnsupportedParameterError: cayley-file spec needs a path"


def test_sampled_trend_refuses_zero_samples():
    # refused with the config, before any row is sampled
    config = build_config("trend", {"seed": 2, "word": "x1 x2 X1 X2",
                                    "groups": "alternating:5,cyclic:3",
                                    "mode": "sampled", "samples": 0})
    with pytest.raises(ConfigError, match="samples must be >= 1, got 0"):
        run_trend(config)


# ---------------------------------------------------------------------------
# Lattice walk gcd
# ---------------------------------------------------------------------------


def test_walk_gcd_run_and_audit(tmp_path):
    config = build_config(
        "walk-gcd", {"seed": 3, "d": 2, "n": 60, "samples": 20000, "gcd_cap": 8}
    )
    report = run_walk_gcd(config)
    assert report["estimate"]["samples"] == 20000
    assert abs(report["agreement_z"]) < 5
    assert report["prediction"]["zero_route_gap"] < 1e-12
    moduli = [row["modulus"] for row in report["mod_laws"]]
    assert moduli == [2, 4, 8, 3, 5, 7]
    for row in report["mod_laws"]:
        assert abs(row["mc_fraction"] - row["dp_prob_zero"]) < 0.025
    again = run_walk_gcd(config)
    assert canonical_report_bytes(report) == canonical_report_bytes(again)
    path = write_report(report, tmp_path)
    assert audit_report(path) == []
    loaded = json.loads(path.read_text())
    loaded["mod_laws"][0]["mc_fraction"] = 0.123
    path.write_text(json.dumps(loaded))
    assert any("mc_fraction" in d for d in audit_report(path))


def test_walk_gcd_with_gcd_cap_zero_has_no_moduli(tmp_path):
    # Pr[gcd > 0] is well defined; no modulus divides into a cap of 0
    assert lattice_walks.mod_zero_probabilities(2, 10, []) == []
    assert main(["walk-gcd", "--seed", "1", "--d", "2", "--n", "10", "--samples", "10",
                 "--gcd-cap", "0", "--out", str(tmp_path)]) == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["mod_laws"] == []
    assert (tmp_path / "mod_laws.csv").read_text().splitlines() == [
        "p,k,modulus,dp_prob_zero,mc_fraction,mc_count"]
    assert audit_report(tmp_path / "report.json") == []


def test_an_out_path_that_is_a_file_is_an_io_error(tmp_path, capsys):
    taken = tmp_path / "taken"
    taken.write_text("")
    assert main(["walk-gcd", "--seed", "1", "--d", "2", "--n", "10", "--samples", "10",
                 "--gcd-cap", "3", "--out", str(taken)]) == 1
    assert "io error:" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# Mixing
# ---------------------------------------------------------------------------


def test_mixing_obstructed_run(tmp_path):
    config = build_config(
        "mixing", {"seed": 1, "group": "cyclic:4", "steps": "1", "n": 40, "tau": 0.5}
    )
    report = run_mixing(config)
    assert report["obstruction"]["modulus"] == 4
    assert report["first_n_below_tau"] is None
    assert report["final_l1"] >= 1.5
    paths = write_mixing_outputs(report, tmp_path)
    assert [p.name for p in paths] == ["profile.csv", "witness.json"]
    report_path = write_report(report, tmp_path)
    assert audit_report(report_path) == []
    # a corrupted witness file breaks the recorded digest
    witness = json.loads((tmp_path / "witness.json").read_text())
    witness["labels"][1] = 3
    (tmp_path / "witness.json").write_text(json.dumps(witness))
    assert any("digest" in d for d in audit_report(report_path))
    (tmp_path / "witness.json").unlink()
    assert any("missing" in d for d in audit_report(report_path))


def test_mixing_cycles_run(tmp_path):
    config = build_config(
        "mixing",
        {"seed": 1, "group": "alternating:5",
         "cycles": "(1 2 3 4 5);(1 2 3)", "n": 60},
    )
    report = run_mixing(config)
    assert report["obstruction"] is None
    assert len(report["profile_l1"]) == 61
    assert report["final_l1"] < 1e-4
    assert isinstance(report["first_n_below_tau"], int)
    paths = write_mixing_outputs(report, tmp_path)
    assert [p.name for p in paths] == ["profile.csv"]
    assert audit_report(write_report(report, tmp_path)) == []


def test_mixing_config_errors():
    def cfg(**kw):
        base = {"seed": 1, "group": "symmetric:3", "n": 10}
        base.update(kw)
        return build_config("mixing", base)

    with pytest.raises(ConfigError, match="exactly one"):
        run_mixing(cfg(steps="1,2", cycles="(1 2)"))
    with pytest.raises(ConfigError, match="exactly one"):
        run_mixing(cfg())
    with pytest.raises(ConfigError, match="permutation"):
        run_mixing(cfg(group="cyclic:6", cycles="(1 2)"))
    with pytest.raises(ConfigError, match="comma-separated"):
        run_mixing(cfg(steps="a,b"))
    with pytest.raises(ConfigError, match="cycle"):
        run_mixing(cfg(cycles="no parens"))
    with pytest.raises(ConfigError, match="bad cycles"):
        run_mixing(cfg(cycles="(1 2 9)"))


@pytest.mark.parametrize("cycles, problem", [
    ("(1 2)(1 2);(1 1);(1 2 3)", "named twice"),
    ("(0 1)", "outside 1..3"),
])
def test_mixing_refuses_malformed_cycles(tmp_path, capsys, cycles, problem):
    # a point in two cycles, a repeated point or one outside 1..n is a
    # config error, not a silently different step
    argv = ["mixing", "--seed", "1", "--group", "symmetric:3", "--cycles", cycles,
            "--n", "4", "--out", str(tmp_path)]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: bad cycles for symmetric:3: ") and problem in err
    assert not (tmp_path / "report.json").exists()


# ---------------------------------------------------------------------------
# Generation
# ---------------------------------------------------------------------------


def test_generation_run_and_audit(tmp_path):
    config = build_config("generation", {"seed": 1, "group": "alternating:5", "d": 2})
    report = run_generation(config)
    assert report["tuple_count"] == 2280
    assert report["aut_order"] == 120
    assert report["max_power"] == 19
    assert report["sqrt_bound"] == 15
    assert report["consistent"] is True
    path = write_report(report, tmp_path)
    assert audit_report(path) == []
    loaded = json.loads(path.read_text())
    loaded["max_power"] = 20
    path.write_text(json.dumps(loaded))
    assert any("max_power" in d for d in audit_report(path))


def test_generation_without_catalog_entry(tmp_path):
    config = build_config("generation", {"seed": 1, "group": "symmetric:4", "d": 2})
    report = run_generation(config)
    assert report["aut_order"] is None
    assert report["max_power"] is None
    assert report["tuple_count"] == count_generating_tuples(get_group("symmetric:4"), 2)
    assert audit_report(write_report(report, tmp_path)) == []


# ---------------------------------------------------------------------------
# Ingest
# ---------------------------------------------------------------------------


def test_ingest_cayley_table(tmp_path):
    table = tmp_path / "c3.txt"
    table.write_text(C3_TABLE)
    summary = ingest_cayley_table(table, tmp_path / "out")
    assert summary["order"] == 3
    assert summary["abelian"] is True
    assert summary["center_size"] == 3
    assert summary["perfect"] is False
    assert (tmp_path / "out" / "ingest.json").exists()
    bad = tmp_path / "bad.txt"
    bad.write_text("2\n0 1\n1 1\n")
    with pytest.raises(MalformedCayleyTableError):
        ingest_cayley_table(bad)


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


def test_cli_density_roundtrip(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "seed = 5\nmodel = symmetric\nd = 2\nn = 30\nwords = 6\n"
        "groups = symmetric:3,cyclic:6\ngcd_cap = 6\n"
    )
    out = tmp_path / "out"
    assert main(["density", "--config", str(cfg), "--out", str(out)]) == 0
    captured = capsys.readouterr()
    assert "wrote" in captured.out
    report_path = out / "report.json"
    assert report_path.exists() and (out / "words.csv").exists()
    assert main(["audit", str(report_path)]) == 0
    loaded = json.loads(report_path.read_text())
    loaded["aggregates"]["word_count"] = 77
    report_path.write_text(json.dumps(loaded))
    assert main(["audit", str(report_path)]) == 1


def test_cli_flag_overrides_config(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "seed = 5\nd = 2\nn = 30\nwords = 6\n"
        "groups = symmetric:3\ngcd_cap = 6\n"
    )
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["density", "--config", str(cfg), "--out", str(out1)]) == 0
    assert main(["density", "--config", str(cfg), "--out", str(out2),
                 "--words", "3"]) == 0
    r1 = json.loads((out1 / "report.json").read_text())
    r2 = json.loads((out2 / "report.json").read_text())
    assert r1["aggregates"]["word_count"] == 6
    assert r2["aggregates"]["word_count"] == 3


def test_cli_exit_codes(tmp_path):
    # config problems: exit 1
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("seed = 1\nbogus = 2\n")
    assert main(["mixing", "--config", str(cfg), "--out", str(tmp_path)]) == 1
    assert main(["mixing", "--group", "cyclic:4", "--steps", "1",
                 "--n", "10", "--out", str(tmp_path)]) == 1  # no seed
    assert main(["audit", str(tmp_path / "nothing.json")]) == 1
    # a step index outside the group
    for steps in ("1,99", "-1"):
        assert main(["mixing", "--seed", "1", "--group", "symmetric:3", "--n", "5",
                     "--steps", steps, "--out", str(tmp_path)]) == 1
    # a bad flag is a config problem too, not argparse's exit 2
    for flags in (["--bogus", "1"], ["--d", "two"], ["--mode", "weird"], ["--workers", "2"],
                  ["--mode", "sampled", "--samples", "0"]):
        assert main(["density", "--seed", "1", "--out", str(tmp_path)] + flags) == 1
    # a generation count over no letters is refused, as density refuses no words
    for d in ("0", "-1"):
        assert main(["generation", "--group", "symmetric:3", "--d", d,
                     "--seed", "1", "--out", str(tmp_path / "no-letters")]) == 1
    assert not (tmp_path / "no-letters").exists()
    for argv in (["--help"], ["density", "--help"]):
        with pytest.raises(SystemExit) as help_exit:
            main(argv)
        assert help_exit.value.code == 0
    # budget problems: exit 2
    assert main(["generation", "--group", "symmetric:6", "--d", "3",
                 "--seed", "1", "--out", str(tmp_path)]) == 2
    out = tmp_path / "budget-cells"
    assert main(["density", "--seed", "1", "--d", "2", "--n", "10",
                 "--words", "2", "--groups", "symmetric:9", "--gcd-cap", "4",
                 "--out", str(out)]) == 2
    # the partial report is still written and passes its audit
    assert audit_report(out / "report.json") == []


# Tiny flags for each registered experiment, and the files its run writes.
ROUND_TRIP = {
    "density": (["--d", "2", "--n", "8", "--words", "3", "--groups", "cyclic:4",
                 "--mode", "sampled", "--samples", "200", "--gcd-cap", "4"],
                {"report.json", "words.csv"}),
    "trend": (["--word", "x1 x2 X1 X2", "--groups", "symmetric:3,cyclic:3"],
              {"report.json", "trend.csv"}),
    "walk-gcd": (["--d", "1", "--n", "10", "--samples", "300", "--gcd-cap", "3"],
                 {"report.json", "gcd_law.csv", "mod_laws.csv"}),
    "mixing": (["--group", "cyclic:5", "--steps", "1,2", "--n", "5"],
               {"report.json", "profile.csv"}),
    "generation": (["--group", "symmetric:3", "--d", "2"], {"report.json"}),
}


@pytest.mark.parametrize("name", sorted(EXPERIMENTS))
def test_cli_round_trip_for_every_experiment(name, tmp_path):
    flags, files = ROUND_TRIP[name]
    out = tmp_path / "out"
    assert main([name, "--seed", "3", "--out", str(out)] + flags) == 0
    assert {p.name for p in out.iterdir()} == files
    assert main(["audit", str(out / "report.json")]) == 0


def test_audit_of_a_malformed_report_is_a_config_error(tmp_path):
    path = tmp_path / "report.json"

    def check(report, field):
        path.write_text(json.dumps(report))
        with pytest.raises(ConfigError, match=field):
            audit_report(path)
        assert main(["audit", str(path)]) == 1

    walk = run_walk_gcd(build_config(
        "walk-gcd", {"seed": 3, "d": 2, "n": 10, "samples": 200, "gcd_cap": 3}))
    del walk["estimate"]
    check(walk, "'estimate'")
    check([1, 2], "not a JSON object")
    density = json.loads(canonical_report_bytes(run_density(density_config(words=2))))
    del density["words"]
    check(density, "'words'")
    check({"config": {"seed": "1"}}, "no experiment field")
    check({"experiment": "nosuch"}, "unknown experiment")
    density["words"] = 5
    check(density, "malformed density report")


def test_walk_gcd_draws_its_endpoints_once(monkeypatch):
    calls = []
    draw = harness.sample_endpoints

    def counted(*args, **kwargs):
        calls.append(args)
        return draw(*args, **kwargs)

    for module in (harness, lattice_walks):
        monkeypatch.setattr(module, "sample_endpoints", counted)
    run_walk_gcd(build_config(
        "walk-gcd", {"seed": 3, "d": 2, "n": 30, "samples": 500, "gcd_cap": 6}))
    assert len(calls) == 1


def test_walk_gcd_checks_its_state_caps_before_sampling(monkeypatch, capsys):
    def refuse(*args, **kwargs):
        raise AssertionError("work started before the checks")

    for module in (harness, lattice_walks):
        monkeypatch.setattr(module, "sample_endpoints", refuse)
    t0 = time.perf_counter()
    # box side 4761: 22.7M states against the 4M cap, and 2*10^8 steps to draw
    assert main(["walk-gcd", "--seed", "1", "--d", "2", "--n", "100000",
                 "--samples", "2000", "--gcd-cap", "8"]) == 2
    # generous wall-clock guard against a return of the 2*10^8-step draw
    assert time.perf_counter() - t0 < 10.0
    assert "budget exceeded" in capsys.readouterr().err
    # a sample count that sample_endpoints refuses is refused before the DPs
    monkeypatch.setattr(harness, "predicted_tail_probability", refuse)
    assert main(["walk-gcd", "--seed", "1", "--d", "2", "--n", "10",
                 "--samples", "0", "--gcd-cap", "3"]) == 1
    assert "samples must be >= 1" in capsys.readouterr().err


def test_walk_gcd_joins_its_worker_before_a_dp_error(monkeypatch, capsys):
    threads = []

    def failing(*args, **kwargs):
        threads.append(threading.active_count())
        raise UnsupportedParameterError("patched DP failure")

    # the caps pass; the DP fails while the worker draws the last of 2 * 10^7 steps
    monkeypatch.setattr(harness, "predicted_tail_probability", failing)
    before = threading.active_count()
    assert main(["walk-gcd", "--seed", "4", "--d", "2", "--n", "400", "--samples", "50000",
                 "--gcd-cap", "8"]) == 1
    assert threading.active_count() == before
    assert threads == [before + 1]
    assert "patched DP failure" in capsys.readouterr().err


def test_cli_ingest(tmp_path, capsys):
    table = tmp_path / "c3.txt"
    table.write_text(C3_TABLE)
    assert main(["ingest", str(table), "--out", str(tmp_path / "o")]) == 0
    assert "valid Cayley table: order 3" in capsys.readouterr().out
    bad = tmp_path / "bad.txt"
    bad.write_text("1 2 3")
    assert main(["ingest", str(bad)]) == 1
    huge = tmp_path / "huge.txt"
    huge.write_text(f"2\n0 1\n1 {10**30}\n")
    assert main(["ingest", str(huge)]) == 1
    assert "row 1 has an index outside [0,2)" in capsys.readouterr().err


def test_cli_mixing_and_walk_gcd(tmp_path, capsys):
    out = tmp_path / "mix"
    assert main(["mixing", "--group", "symmetric:3", "--cycles", "(1 2);(1 3)",
                 "--n", "40", "--seed", "9", "--out", str(out)]) == 0
    text = capsys.readouterr().out
    assert "locked mod 2" in text
    assert audit_report(out / "report.json") == []
    out2 = tmp_path / "gcd"
    assert main(["walk-gcd", "--d", "2", "--n", "50", "--samples", "5000",
                 "--gcd-cap", "5", "--seed", "4", "--out", str(out2)]) == 0
    assert (out2 / "gcd_law.csv").exists() and (out2 / "mod_laws.csv").exists()
    assert audit_report(out2 / "report.json") == []
