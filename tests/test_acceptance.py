"""Acceptance gate: ten end-to-end criteria, one printed line each.

Every test prints `[criterion NN] PASS/FAIL - detail` and asserts both the
substance of the criterion (at its stated tolerance) and a wall-clock
budget, so the whole gate stays honest about cost as well as correctness.
"""

import time
from contextlib import contextmanager
from fractions import Fraction

import numpy as np

from wordlab.generation import (
    count_generating_tuples,
    hall_max_power,
    power_tuple_generates,
)
from wordlab.group_walks import StepSet, cyclic_obstruction, exact_walk_law, mixing_profile
from wordlab.groups import center, closure, quotient_by_center, vector_multiplier
from wordlab.harness import (
    audit_report,
    build_config,
    canonical_report_bytes,
    run_density,
    write_report,
)
from wordlab.lattice_walks import exact_mod_law, sample_endpoints
from wordlab.measure import exact_distribution, l1_uniform_distance
from wordlab.rng import stream
from wordlab.words import abelianize, bezout_certificate, evaluate_indices, parse_word, sample_word

from conftest import CATALOG, conjugacy_classes, get_group, s5_conjugation_maps


@contextmanager
def criterion(num: int, budget_seconds: float, holder: dict):
    t0 = time.perf_counter()
    try:
        yield holder
    except BaseException:
        elapsed = time.perf_counter() - t0
        print(f"[criterion {num:02d}] FAIL - {holder.get('detail', 'assertion failed')} "
              f"({elapsed:.1f}s)")
        raise
    elapsed = time.perf_counter() - t0
    in_time = elapsed < budget_seconds
    status = "PASS" if in_time else "FAIL"
    print(f"[criterion {num:02d}] {status} - {holder.get('detail', '')} "
          f"({elapsed:.1f}s, budget {budget_seconds:.0f}s)")
    assert in_time, (
        f"criterion {num:02d} exceeded its {budget_seconds:.0f}s budget: {elapsed:.1f}s"
    )


def test_criterion_01_group_axioms_and_central_quotient():
    with criterion(1, 30, {}) as c:
        triples = 10_000
        for i, spec in enumerate(CATALOG):
            group = get_group(spec)
            mul_vec = vector_multiplier(group)
            assert mul_vec is not None, spec
            rng = stream(801, i)
            a = rng.integers(0, group.order, size=triples)
            b = rng.integers(0, group.order, size=triples)
            d = rng.integers(0, group.order, size=triples)
            assert np.array_equal(
                mul_vec(mul_vec(a, b), d), mul_vec(a, mul_vec(b, d))
            ), f"{spec}: associativity"
            assert np.array_equal(mul_vec(a, np.zeros_like(a)), a), f"{spec}: identity"
            inv = group.inv_array().astype(np.int64)
            assert np.all(mul_vec(a, inv[a]) == group.identity), f"{spec}: inverses"
        sl = get_group("sl2:5")
        z = center(sl)
        assert len(z) == 2
        quot = quotient_by_center(sl)
        assert quot.order == 60
        proj = quot.projection
        rng = stream(801, 99)
        xs = rng.integers(0, sl.order, size=1000)
        ys = rng.integers(0, sl.order, size=1000)
        for x, y in zip(xs, ys):
            assert proj[sl.mul(int(x), int(y))] == quot.mul(proj[x], proj[y])
        c["detail"] = (
            f"{triples} random triples per group across {len(CATALOG)} groups; "
            "center(sl2:5) has 2 elements and the central quotient has order 60"
        )


def test_criterion_02_single_letter_words_are_exactly_uniform():
    with criterion(2, 120, {}) as c:
        checked = 0
        for spec in CATALOG:
            group = get_group(spec)
            if group.order > 360:
                continue
            for d in (2, 3):
                if group.order**d > 10**8:
                    continue
                word = parse_word("x1", rank=d)
                dist = exact_distribution(word, group)
                assert dist.total == group.order**d
                assert l1_uniform_distance(dist) == Fraction(0), (spec, d)
                checked += 1
        assert checked >= 20
        c["detail"] = (
            f"projection to one coordinate is exactly uniform (L1 = 0 as a "
            f"rational) in {checked} (group, rank) combinations"
        )


def test_criterion_03_commutator_identity_mass_counts_classes():
    with criterion(3, 60, {}) as c:
        word = parse_word("x1 x2 X1 X2")
        expected = {"alternating:5": 300, "psl2:7": 1008}
        for spec, pinned in expected.items():
            group = get_group(spec)
            dist = exact_distribution(word, group)
            identity_count = int(np.asarray(dist.counts)[group.identity])
            classes = conjugacy_classes(group)
            assert identity_count == group.order * len(classes) == pinned, spec
        c["detail"] = (
            "commuting pairs = |G| x #classes on both groups: "
            "300 on alternating:5 (5 classes), 1008 on psl2:7 (6 classes)"
        )


def test_criterion_04_gcd_certificates_pin_the_image():
    with criterion(4, 120, {}) as c:
        group = get_group("psl2:7")
        accepted = []
        draws = 0
        while len(accepted) < 100 and draws < 2000:
            w = sample_word("symmetric", 2, 40, stream(804, draws))
            draws += 1
            vec = abelianize(w)
            gamma = int(np.gcd(abs(vec[0]), abs(vec[1])))
            if gamma in (1, 2, 3):
                accepted.append((w, vec, gamma))
        assert len(accepted) == 100
        ones = 0
        for w, vec, gamma in accepted:
            m, coeffs = bezout_certificate(vec)
            assert m == gamma
            assert max(abs(x) for x in coeffs) <= max(abs(v) for v in vec)
            # substituting x_i = g^(b_i) collapses the word to g^m, so the
            # image of the word map contains every m-th power
            for g in range(group.order):
                args = tuple(group.pow(g, bi) for bi in coeffs)
                assert evaluate_indices(w, group, args) == group.pow(g, m)
            if m == 1:
                ones += 1
                counts = np.asarray(exact_distribution(w, group).counts)
                assert int(np.count_nonzero(counts)) == group.order
        assert ones > 0
        c["detail"] = (
            f"100 sampled words with gcd in {{1,2,3}} ({draws} draws): each "
            f"certificate pins all of psl2:7's m-th powers inside the image; "
            f"all {ones} gcd-1 words cover the full group"
        )


def test_criterion_05_squaring_map_far_from_uniform():
    with criterion(5, 60, {}) as c:
        word = parse_word("x1 x1")
        for spec in ("psl2:5", "psl2:7", "psl2:11", "psl2:13"):
            group = get_group(spec)
            dist = exact_distribution(word, group)
            squares = np.zeros(group.order, dtype=np.int64)
            for g in range(group.order):
                squares[group.mul(g, g)] += 1
            assert np.array_equal(np.asarray(dist.counts), squares), spec
            assert l1_uniform_distance(dist) == Fraction(1, 2), spec
        c["detail"] = (
            "the squaring word matches the direct g -> g*g pushforward and "
            "sits at L1 distance exactly 1/2 on psl2:5, 7, 11, 13"
        )


def test_criterion_06_lattice_mod_laws_hit_their_limits():
    with criterion(6, 10, {}) as c:
        law = exact_mod_law(2, 2, 1, 501)
        assert law.prob_zero() == Fraction(0)
        gaps = []
        for p in (3, 5):
            law = exact_mod_law(2, p, 1, 500)
            gap = abs(float(law.prob_zero()) - 1 / p**2)
            assert gap < 1e-3, (p, gap)
            gaps.append(gap)
        law = exact_mod_law(2, 2, 2, 500)
        gap8 = abs(float(law.prob_zero()) - 1 / 8)
        assert gap8 < 1e-3
        c["detail"] = (
            "odd-step return mod 2 is exactly 0; at n=500 the origin "
            f"probabilities sit within {max(max(gaps), gap8):.2e} of 1/9, "
            "1/25, and 1/8"
        )


def test_criterion_07_sampled_walks_match_exact_mod_9_law():
    with criterion(7, 30, {}) as c:
        n, samples = 200, 100_000
        ends = sample_endpoints(2, n, samples, stream(807))
        states = (ends[:, 0] % 9) * 9 + (ends[:, 1] % 9)
        counts = np.bincount(states, minlength=81)
        law = exact_mod_law(2, 3, 2, n)
        probs = law.probability_vector()
        worst = 0.0
        for s in range(81):
            p = float(probs[s])
            if p == 0.0:
                assert counts[s] == 0, f"state {s} is unreachable"
                continue
            sigma = (p * (1 - p) / samples) ** 0.5
            pull = abs(counts[s] / samples - p) / sigma
            worst = max(worst, pull)
            assert pull < 4, f"state {s}: {pull:.2f} sigma"
        c["detail"] = (
            f"{samples} walks of {n} steps: all 81 mod-9 states within "
            f"4 sigma of the exact law (worst {worst:.2f})"
        )


def test_criterion_08_group_walk_mixing_and_obstruction():
    with criterion(8, 30, {}) as c:
        a5 = get_group("alternating:5")
        steps = StepSet.uniform(
            a5,
            [a5.index_of_cycles([(1, 2, 3, 4, 5)]), a5.index_of_cycles([(1, 2, 3)])],
        )
        final = l1_uniform_distance(exact_walk_law(a5, steps, 300))
        assert final < Fraction(1, 10**4)
        s3 = get_group("symmetric:3")
        trans = StepSet.uniform(
            s3, [s3.index_of_cycles([(1, 2)]), s3.index_of_cycles([(1, 3)])]
        )
        witness = cyclic_obstruction(s3, trans)
        assert witness is not None and witness.modulus == 2
        profile = mixing_profile(s3, trans, 600)
        floor = witness.distance_floor()
        assert floor == 1
        assert min(profile) == floor
        c["detail"] = (
            f"alternating:5 walk reaches L1 = {float(final):.1e} < 1e-4 at "
            "n=300; the two-transposition walk on symmetric:3 is locked mod 2 "
            "and never drops below L1 = 1 across 600 steps"
        )


def test_criterion_09_generating_pairs_and_largest_power():
    with criterion(9, 120, {}) as c:
        a5 = get_group("alternating:5")
        count = count_generating_tuples(a5, 2)
        assert count == 2280
        # independent route: enumerate the pairs and partition them into
        # orbits of the conjugation action of the degree-5 symmetric group
        pairs = {
            (a, b)
            for a in range(60)
            for b in range(60)
            if len(closure(a5, (a, b))) == 60
        }
        assert len(pairs) == 2280
        maps = s5_conjugation_maps(a5)
        assert len(maps) == 120
        seen = set()
        orbits = 0
        for pair in sorted(pairs):
            if pair in seen:
                continue
            orbit = {(m[pair[0]], m[pair[1]]) for m in maps}
            assert len(orbit) == 120
            assert orbit <= pairs
            seen |= orbit
            orbits += 1
        assert orbits == 19
        hall = hall_max_power(a5, 2)
        assert hall.max_power == 19
        assert hall.sqrt_bound == 15 <= hall.max_power
        assert hall.consistent
        five = a5.index_of_cycles([(1, 2, 3, 4, 5)])
        three = a5.index_of_cycles([(1, 2, 3)])
        other = a5.index_of_cycles([(1, 2, 4)])
        assert power_tuple_generates(a5, [(five, three), (five, other)])
        assert not power_tuple_generates(a5, [(five, three), (five, three)])
        c["detail"] = (
            "2280 generating pairs of alternating:5 by both routes, exactly "
            "19 orbits of size 120, floor(2*sqrt(60)) = 15 <= 19; distinct-"
            "orbit tuples generate the square, a repeated tuple does not"
        )


def test_criterion_10_density_harness_reproducibility(tmp_path):
    with criterion(10, 300, {}) as c:
        settings = {
            "seed": 810, "model": "symmetric", "d": 2, "n": 200,
            "words": 500, "groups": "symmetric:3,alternating:4", "gcd_cap": 30,
        }
        report = run_density(build_config("density", settings))
        again = run_density(build_config("density", settings))
        assert canonical_report_bytes(again) == canonical_report_bytes(report)
        path = write_report(report, tmp_path)
        assert audit_report(path) == []
        agg = report["aggregates"]
        assert agg["word_count"] == 500
        assert agg["cell_error_count"] == 0
        assert agg["fraction_gamma_zero_or_above_cap"] < 0.1
        c["detail"] = (
            "500-word density run is byte-identical across reruns, audits "
            "clean, and only "
            f"{agg['fraction_gamma_zero_or_above_cap']:.3f} of words fall "
            "outside the gcd cap"
        )
