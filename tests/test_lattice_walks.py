"""Lattice walks: exact mod laws, return probabilities, gcd tail prediction."""

import itertools
import math
import time
from fractions import Fraction

import numpy as np
import pytest

from wordlab import lattice_walks
from wordlab.cli import main
from wordlab.errors import BudgetExceededError, UnsupportedParameterError
from wordlab.lattice_walks import (
    GATHER_STATES,
    _closed_walk_count,
    _torus_laws,
    exact_mod_law,
    gcd_of_endpoint,
    gcd_tail_estimate,
    predicted_tail_probability,
    return_probability,
    sample_endpoints,
    simulate_walk,
)
from wordlab.rng import stream

from conftest import (
    bincount_endpoints,
    broadcast_gcd_tail,
    comb_closed_walk_count,
    list_mod_law_counts,
    roll_torus_law,
)


def test_endpoint_sampling_moments():
    d, n, samples = 2, 100, 50_000
    ends = sample_endpoints(d, n, samples, stream(1))
    assert ends.shape == (samples, d)
    # the squared endpoint norm has mean exactly n
    norm2 = float((ends.astype(np.float64) ** 2).sum(axis=1).mean())
    assert abs(norm2 - n) < 8 * n / math.sqrt(samples)
    again = sample_endpoints(d, n, samples, stream(1))
    assert np.array_equal(ends, again)
    # each step flips the parity of the coordinate sum
    assert np.all((ends.sum(axis=1) - n) % 2 == 0)


@pytest.mark.parametrize("d", range(1, 7))
def test_endpoints_match_int64_draws_counted_by_bincount(d):
    for n in (0, 1, 7, 100):
        got = sample_endpoints(d, n, 500, stream(6, d))
        want = bincount_endpoints(d, n, 500, stream(6, d), 1 << 24)
        assert got.dtype == want.dtype and np.array_equal(got, want), (d, n)


def test_endpoints_match_int64_draws_across_batches(monkeypatch):
    # 1000 elements per batch: 10 rows of 100 steps, so 95 rows take ten batches
    monkeypatch.setattr(lattice_walks, "_BATCH_ELEMS", 1000)
    for d in (1, 2, 5):
        got = sample_endpoints(d, 100, 95, stream(7, d))
        assert np.array_equal(got, bincount_endpoints(d, 100, 95, stream(7, d), 1000)), d


def test_gcd_of_endpoint():
    assert gcd_of_endpoint((4, 6)) == 2
    assert gcd_of_endpoint((0, 0)) == 0
    assert gcd_of_endpoint((0, -5)) == 5
    assert len(simulate_walk(3, 7, stream(2))) == 3


def test_mod_law_brute_force_small():
    # full enumeration of all (2d)^n step sequences, reduced mod q
    d, p, k, n = 2, 3, 1, 6
    q = p**k
    counts = {}
    moves = [(1, 0), (-1, 0), (0, 1), (0, -1)]
    for seq in itertools.product(moves, repeat=n):
        x = sum(m[0] for m in seq) % q
        y = sum(m[1] for m in seq) % q
        counts[(x, y)] = counts.get((x, y), 0) + 1
    law = exact_mod_law(d, p, k, n)
    assert law.exact
    total = (2 * d) ** n
    for x in range(q):
        for y in range(q):
            assert law.probability((x, y)) == Fraction(counts.get((x, y), 0), total)
            # coordinates are read mod q, negative ones too
            assert law.probability((x - q, y - 2 * q)) == law.probability((x, y))


def test_mod_law_parity_and_limits():
    # p = 2: an odd step count can never return to 0 mod 2 in every coordinate
    law = exact_mod_law(2, 2, 1, 501)
    assert law.prob_zero() == Fraction(0)
    # near-uniform limits at n = 500
    for p in (3, 5):
        law = exact_mod_law(2, p, 1, 500)
        assert abs(float(law.prob_zero()) - 1 / p**2) < 1e-3
    # mod 4 the even-time limit doubles the even states: Pr[0] -> 2/16 = 1/8
    law = exact_mod_law(2, 2, 2, 500)
    assert abs(float(law.prob_zero()) - 1 / 8) < 1e-3


def test_mod_law_exact_and_float_paths_agree():
    exact = exact_mod_law(2, 3, 2, 40, exact=True)
    fast = exact_mod_law(2, 3, 2, 40, exact=False)
    assert exact.exact and not fast.exact
    ev = exact.probability_vector()
    fv = fast.probability_vector()
    assert float(np.max(np.abs(ev - fv))) < 1e-12


@pytest.mark.parametrize("d, p, k, n", [(2, 3, 2, 40), (1, 2, 3, 500)])
def test_exact_mod_law_matches_list_counts(d, p, k, n):
    law = exact_mod_law(d, p, k, n, exact=True)
    assert law.counts == list_mod_law_counts(d, p**k, n)
    assert all(type(c) is int for c in law.counts)


def test_mod_law_marginal_consistency():
    law9 = exact_mod_law(2, 3, 2, 30)
    law3 = exact_mod_law(2, 3, 1, 30)
    marg = law9.marginal(1)
    assert marg.modulus == 3
    v1 = marg.probability_vector()
    v2 = law3.probability_vector()
    assert float(np.max(np.abs(v1 - v2))) < 1e-15
    # exact marginal of an exact law stays exact
    assert marg.exact
    assert marg.prob_zero() == law3.prob_zero()


def test_mod_law_guards():
    with pytest.raises(BudgetExceededError):
        exact_mod_law(3, 101, 1, 10)  # 101^3 states, over the overall cap
    with pytest.raises(BudgetExceededError):
        exact_mod_law(2, 11, 2, 5, exact=True)  # 121^2 over the exact cap
    with pytest.raises(UnsupportedParameterError):
        exact_mod_law(0, 3, 1, 10)
    with pytest.raises(UnsupportedParameterError):
        exact_mod_law(2, 4, 1, 10)  # modulus base must be prime
    with pytest.raises(UnsupportedParameterError):
        exact_mod_law(2, 3, 0, 10)


def test_return_probability_closed_forms():
    # d = 1: central binomial coefficient
    for m in (1, 2, 5, 10):
        want = Fraction(math.comb(2 * m, m), 4**m)
        assert return_probability(1, 2 * m) == want
    assert return_probability(1, 7) == 0
    # d = 2: brute force over all step sequences for small n
    for n in (2, 4, 6):
        moves = [(1, 0), (-1, 0), (0, 1), (0, -1)]
        hits = sum(
            1
            for seq in itertools.product(moves, repeat=n)
            if sum(m[0] for m in seq) == 0 and sum(m[1] for m in seq) == 0
        )
        assert return_probability(2, n) == Fraction(hits, 4**n)


def test_closed_walk_count_matches_the_binomial_formula():
    for d in range(1, 5):
        for n in range(41):
            assert _closed_walk_count(d, n) == comb_closed_walk_count(d, n), (d, n)


@pytest.mark.parametrize("n", (0, 2, 4, 10, 64, 301, 500, 1000, 2000))
def test_closed_walk_count_closed_forms(n):
    # d = 1: C(n, n/2); d = 2: C(n, n/2)^2 (rotate the axes by 45 degrees)
    want = math.comb(n, n // 2) if n % 2 == 0 else 0
    assert _closed_walk_count(1, n) == want
    assert _closed_walk_count(2, n) == want**2


def test_long_one_dimensional_walk_gcd_run_is_quick(tmp_path):
    # the exact return probability at n = 20000 once took about 90 s
    start = time.perf_counter()
    assert main(["walk-gcd", "--seed", "1", "--d", "1", "--n", "20000", "--gcd-cap", "8",
                 "--samples", "10", "--out", str(tmp_path)]) == 0
    assert time.perf_counter() - start < 30


def test_tail_prediction_internal_cross_check():
    for d, n in ((1, 60), (2, 120), (3, 40)):
        pred = predicted_tail_probability(d, n, 10)
        # dual routes to the origin probability must coincide
        assert abs(pred.zero_probability - pred.return_probability) < 1e-12
        # mass below the cap plus the tail accounts for everything
        mass_le_cap = sum(
            prob for v, prob in pred.gcd_law_head.items() if int(v) <= 10
        )
        assert abs(mass_le_cap + pred.probability - 1.0) < 1e-9


@pytest.mark.parametrize("d, n, cap", [(1, 4, 10**5), (2, 30, 8), (3, 6, 4)])
def test_tail_prediction_gcd_grid_matches_broadcast(d, n, cap):
    # d = 1 with a huge cap: side 200031, so a side x side gcd table would not fit
    pred = predicted_tail_probability(d, n, cap)
    tail, head = broadcast_gcd_tail(d, n, cap, pred.box_radius)
    assert pred.probability == tail
    assert pred.gcd_law_head == head


def test_tail_prediction_matches_sampling():
    d, n, cap, samples = 2, 400, 20, 200_000
    pred = predicted_tail_probability(d, n, cap)
    est = gcd_tail_estimate(d, n, cap, samples, stream(3))
    se = math.sqrt(pred.probability * (1 - pred.probability) / samples)
    assert abs(est.tail_probability - pred.probability) < 4 * se
    # per-value agreement for the most likely small gcds
    for v in (1, 2, 3):
        pv = pred.gcd_law_head[str(v)]
        cv = est.gamma_counts.get(str(v), 0)
        sev = math.sqrt(pv * (1 - pv) / samples)
        assert abs(cv / samples - pv) < 4.5 * sev, f"gamma={v}"


def test_tail_estimate_bookkeeping():
    est = gcd_tail_estimate(2, 50, 5, 10_000, stream(4))
    head = sum(est.gamma_counts.values())
    assert head + est.tail_count == 10_000
    assert est.gamma_counts.get("0", 0) == est.zero_count
    lo, hi = est.tail_ci
    assert lo <= est.tail_probability <= hi


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("side", [2, 3, 4, 5, 7, 8, 85, "past-gather"])
def test_torus_law_matches_full_roll_bytes(side, d):
    # all tori step in one call: the small ones by gathers, each joining the
    # shared vector when its box meets its edge after (side - 1) // 2 steps,
    # and 85 (in d > 1) and the least side past GATHER_STATES by slices
    big = next(s for s in itertools.count(2) if s**d > GATHER_STATES)
    sides = [2, 3, 4, 5, 7, 8, 85, big]
    side = big if side == "past-gather" else side
    reach = (side - 1) // 2
    for n in sorted({0, max(reach - 1, 0), reach, reach + 1, 40}):
        got = _torus_laws(sides, d, n)[sides.index(side)]
        want = roll_torus_law(side, d, n)
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes(), (side, d, n)
