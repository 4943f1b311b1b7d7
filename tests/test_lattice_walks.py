"""Lattice walks: exact mod laws, return probabilities, gcd tail prediction."""

import itertools
import math
import threading
import time
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from wordlab import lattice_walks
from wordlab.cli import main
from wordlab.errors import BudgetExceededError, UnsupportedParameterError
from wordlab.harness import _prime_powers_up_to
from wordlab.lattice_walks import (
    EXACT_WORK_CAP,
    GATHER_STATES,
    _bounded_draws,
    _closed_walk_count,
    _stream_position,
    _torus_laws,
    divisible_counts,
    endpoint_gcds,
    exact_mod_law,
    gcd_tail_estimate,
    predicted_tail_probability,
    return_probability,
    sample_endpoints,
    tail_estimate_from_histogram,
)
from wordlab.rng import stream
from wordlab.words import gcd_of_vector

from conftest import (
    bincount_endpoints,
    broadcast_gcd_tail,
    comb_closed_walk_count,
    int64_draws,
    list_mod_law_counts,
    remainder_gcd_statistics,
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


def test_sample_endpoints_peak_memory():
    # 2 * 10^7 steps, drawn and counted in blocks of _BATCH_ELEMS steps: all
    # on this thread, then, beside a `meanwhile`, a block on each of two threads
    for meanwhile in (None, lambda: None):
        tracemalloc.start()
        try:
            ends = sample_endpoints(2, 400, 50_000, stream(8), meanwhile=meanwhile)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= ends.nbytes + 8 * 2**20, meanwhile


def test_endpoints_match_int64_draws_across_batches(monkeypatch):
    # 1000 elements per batch: 10 rows of 100 steps, so 95 rows take ten batches
    monkeypatch.setattr(lattice_walks, "_BATCH_ELEMS", 1000)
    for d in (1, 2, 5):
        got = sample_endpoints(d, 100, 95, stream(7, d))
        assert np.array_equal(got, bincount_endpoints(d, 100, 95, stream(7, d), 1000)), d


@pytest.mark.parametrize("m", [*range(2, 13), 3 * 2**29])
@pytest.mark.parametrize("held", [False, True])
def test_bounded_draws_match_numpy_and_leave_the_same_state(m, held):
    # m = 3 * 2^29 rejects x with (x m) mod 2^32 < 2^30: a quarter of the draws
    for count in (1, 2, 999, 1000):
        ours, theirs = stream(11, m), stream(11, m)
        if held:  # a 32-bit draw leaves the high half of its 64-bit output held
            for rng in (ours, theirs):
                rng.integers(0, 2**32, size=1, dtype=np.uint32)
        got = _bounded_draws(ours, m, count)
        want = theirs.integers(0, m, size=count, dtype=np.int64)
        assert got.dtype == np.uint32 and np.array_equal(got, want), (m, held, count)
        # the next 32-bit draws read a held half first, the 64-bit ones do not
        for draw in (lambda r: r.integers(0, 2**32, size=3, dtype=np.uint32), lambda r: r.random(3)):
            assert np.array_equal(draw(ours), draw(theirs)), (m, held, count)


def test_endpoints_match_int64_draws_on_odd_blocks(monkeypatch):
    # blocks of 3 rows of 7 steps: 21 draws, so every other block starts on a held half
    monkeypatch.setattr(lattice_walks, "_BATCH_ELEMS", 21)
    for d in (1, 2, 3, 5):
        got = sample_endpoints(d, 7, 10, stream(12, d))
        assert np.array_equal(got, bincount_endpoints(d, 7, 10, stream(12, d), 21)), d


def test_endpoints_need_a_pcg64_generator():
    # MT19937 gives its 32-bit outputs in another order than halves of PCG64's
    with pytest.raises(UnsupportedParameterError):
        sample_endpoints(2, 10, 5, np.random.Generator(np.random.MT19937(1)))


def _watched_draws(mp, worker_blocks: int, reject_at=None) -> tuple:
    """Patch `_bounded_draws` to record the thread of each call.  Once a
    thread other than this one has made `worker_blocks` calls, an event is
    set and that thread waits until this one has made a call, so that both
    draw.  A call that starts at the stream position `reject_at` first draws
    one more 32-bit half, as a rejected draw would.  Returns (the calling
    threads, the event, the wrap that adds the rejection)."""
    caller, threads = threading.get_ident(), []
    worker_drew, head_drew = threading.Event(), threading.Event()

    def rejecting(draw):
        def wrapped(rng, m, count):
            if _stream_position(rng.bit_generator) == reject_at:
                rng.integers(0, 2**32, dtype=np.uint32)
            return draw(rng, m, count)
        return wrapped

    draw = rejecting(lattice_walks._bounded_draws)

    def watched(rng, m, count):
        values = draw(rng, m, count)
        threads.append(threading.get_ident())
        if threads[-1] == caller:
            head_drew.set()
        elif sum(t != caller for t in threads) == worker_blocks:
            worker_drew.set()
            head_drew.wait(30)
        return values

    mp.setattr(lattice_walks, "_bounded_draws", watched)
    return threads, worker_drew, rejecting


def _position_after(seed: int, halves: int) -> tuple:
    rng = stream(seed)
    rng.integers(0, 2**32, size=halves, dtype=np.uint32)
    return _stream_position(rng.bit_generator)


@given(st.data())
def test_two_thread_draw_matches_one_serial_draw(data):
    d = data.draw(st.integers(1, 5))
    n = data.draw(st.integers(1, 40))
    samples = data.draw(st.integers(1, 300))
    held = data.draw(st.booleans())
    rows = data.draw(st.integers(1, max(1, samples // 4)))  # rows per block
    ours, theirs = stream(13, d, n), stream(13, d, n)
    if held:  # a 32-bit draw leaves the high half of its 64-bit output held
        for rng in (ours, theirs):
            rng.integers(0, 2**32, size=1, dtype=np.uint32)
    blocks = -(-samples // rows)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(lattice_walks, "_BATCH_ELEMS", rows * n)
        threads, worker_drew, _ = _watched_draws(mp, 1)
        # this thread draws the head only once the worker has taken a block
        got = sample_endpoints(d, n, samples, ours,
                               meanwhile=lambda: blocks == 1 or worker_drew.wait(30))
    assert np.array_equal(got, bincount_endpoints(d, n, samples, theirs, rows * n))
    assert len(set(threads)) == min(blocks, 2)
    if d in (1, 2, 4):  # 2d a power of two rejects nothing: no block is drawn twice
        assert len(threads) == blocks
    for draw in (lambda r: r.integers(0, 2**32, size=3, dtype=np.uint32), lambda r: r.random(3)):
        assert np.array_equal(draw(ours), draw(theirs))


@pytest.mark.parametrize("where", ["head", "tail"])
def test_a_rejected_draw_redraws_the_tail_serially(monkeypatch, where):
    # ten blocks of 7 rows of 30 steps; 2d = 4 rejects nothing by itself
    d, n, rows, samples = 2, 30, 7, 70
    monkeypatch.setattr(lattice_walks, "_BATCH_ELEMS", rows * n)
    # the head draws block 1 after the worker has drawn blocks 9 and 8; both
    # generators start on a held half, so block i starts after 1 + i rows n halves
    block = {"head": 1, "tail": 8}[where]
    reject_at = _position_after(14, 1 + block * rows * n)
    threads, worker_drew, rejecting = _watched_draws(monkeypatch, 2, reject_at)
    ours, theirs = stream(14), stream(14)
    for rng in (ours, theirs):
        rng.integers(0, 2**32, size=1, dtype=np.uint32)
    got = sample_endpoints(d, n, samples, ours, meanwhile=lambda: worker_drew.wait(30))
    want = bincount_endpoints(d, n, samples, theirs, rows * n, rejecting(int64_draws))
    assert np.array_equal(got, want)
    assert _stream_position(ours.bit_generator) == _stream_position(theirs.bit_generator)
    # every block once, then the worker's blocks again on this thread
    worker = sum(t != threading.get_ident() for t in threads)
    assert 2 <= worker < 10 and len(threads) == 10 + worker


def test_one_block_starts_no_thread():
    seen = []
    ends = sample_endpoints(2, 100, 50, stream(15),
                            meanwhile=lambda: seen.append(threading.active_count()))
    assert seen == [threading.active_count()]
    assert np.array_equal(ends, bincount_endpoints(2, 100, 50, stream(15), 1 << 24))


def test_a_draw_with_nothing_meanwhile_starts_no_thread(monkeypatch):
    # ten blocks, every one drawn on this thread
    monkeypatch.setattr(lattice_walks, "_BATCH_ELEMS", 7 * 30)
    threads, _, _ = _watched_draws(monkeypatch, 1)
    ends = sample_endpoints(3, 30, 70, stream(17))
    assert threads == [threading.get_ident()] * 10
    assert np.array_equal(ends, bincount_endpoints(3, 30, 70, stream(17), 7 * 30))


def test_an_error_meanwhile_stops_the_worker_at_its_next_block(monkeypatch):
    # 1000 blocks of one row; the worker pauses after its first block until
    # `meanwhile` is about to raise, and may take at most a few more after it
    monkeypatch.setattr(lattice_walks, "_BATCH_ELEMS", 30)
    calls, drew, failing_now = [], threading.Event(), threading.Event()
    draw = lattice_walks._bounded_draws

    def watched(*args):
        values = draw(*args)
        calls.append(threading.get_ident())
        drew.set()
        failing_now.wait(30)
        return values

    def failing():
        drew.wait(30)
        failing_now.set()
        raise UnsupportedParameterError("patched failure")

    monkeypatch.setattr(lattice_walks, "_bounded_draws", watched)
    before = threading.active_count()
    with pytest.raises(UnsupportedParameterError, match="patched failure"):
        sample_endpoints(2, 30, 1000, stream(18), meanwhile=failing)
    assert threading.active_count() == before
    assert 1 <= len(calls) < 100 and threading.get_ident() not in calls


def test_gcd_of_endpoint():
    assert gcd_of_vector((4, 6)) == 2
    assert gcd_of_vector((0, 0)) == 0
    assert gcd_of_vector((0, -5)) == 5
    for d in (1, 3):
        ends = sample_endpoints(d, 50, 300, stream(2, d))
        assert endpoint_gcds(ends).tolist() == [gcd_of_vector(row) for row in ends.tolist()]


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
    ev = exact_mod_law(2, 3, 2, 40).probability_vector()
    fv = _torus_laws([9], 2, 40)[0].ravel()
    assert float(np.max(np.abs(ev - fv))) < 1e-12


@pytest.mark.parametrize("d, p, k, n", [(2, 3, 2, 40), (1, 2, 3, 500), (2, 37, 1, 20)])
def test_exact_mod_law_matches_list_counts(d, p, k, n):
    law = exact_mod_law(d, p, k, n)
    assert law.counts == list_mod_law_counts(d, p**k, n)
    assert all(type(c) is int for c in law.counts)


def test_mod_law_marginal_consistency():
    # coordinate x mod 9 has base-3 digits (x // 3, x % 3), most significant
    # first, so summing out each coordinate's high digit leaves the mod-3 law
    law9 = np.array(exact_mod_law(2, 3, 2, 30).counts, dtype=object).reshape(3, 3, 3, 3)
    marginal = law9.sum(axis=(0, 2)).ravel().tolist()
    assert marginal == exact_mod_law(2, 3, 1, 30).counts
    assert all(type(c) is int for c in marginal)


def test_mod_law_guards():
    with pytest.raises(BudgetExceededError):
        exact_mod_law(3, 101, 1, 10)  # 101^3 states, over the overall cap
    with pytest.raises(BudgetExceededError):
        exact_mod_law(2, 11, 2, 5)  # 121^2 over the exact cap
    with pytest.raises(UnsupportedParameterError):
        exact_mod_law(0, 3, 1, 10)
    with pytest.raises(UnsupportedParameterError):
        exact_mod_law(2, 4, 1, 10)  # modulus base must be prime
    with pytest.raises(UnsupportedParameterError):
        exact_mod_law(2, 3, 0, 10)


def test_mod_law_work_guard(monkeypatch):
    # the budget counts d q^d n^2 and is checked before the DP builds its columns
    class DPStarted(Exception):
        pass

    def no_dp(d, q):
        raise DPStarted

    monkeypatch.setattr(lattice_walks, "_neighbor_indices", no_dp)
    # (2, 97, 1, 20000) and (13, 2, 1, 1100) pass the state cap
    for args in ((2, 97, 1, 20000), (13, 2, 1, 1100), (1, 2, 1, 100001)):
        with pytest.raises(BudgetExceededError):
            exact_mod_law(*args)
    assert 1 * 2 * 100000**2 == EXACT_WORK_CAP
    with pytest.raises(DPStarted):
        exact_mod_law(1, 2, 1, 100000)  # at the cap: allowed


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


@pytest.mark.parametrize("d, n, cap", [(1, 4, 10**5), (2, 30, 8), (3, 6, 4), (2, 100, 8),
                                      (3, 3, 8)])
def test_tail_prediction_gcd_grid_matches_broadcast(d, n, cap):
    # d = 1 with a huge cap: side 200031, so a side x side gcd table would not fit.
    # The law bins only the box of radius min(n, box radius): n = 100 passes
    # the box radius 83, and at n = 3 the box radius 3 is below the head's 16.
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


def _past_gather(d: int, side) -> int:
    """`side` itself, or for "past-gather" the least side, and for
    "past-gather-even" the least even side, whose torus has more than
    GATHER_STATES states in dimension d."""
    if side == "past-gather":
        return next(s for s in itertools.count(2) if s**d > GATHER_STATES)
    if side == "past-gather-even":
        return next(s for s in itertools.count(2, 2) if s**d > GATHER_STATES)
    return side


# (side, d): the small sides step by gathers; 85, 167 and the sides past
# GATHER_STATES each run their own padded box DP
TORUS_CASES = ([(side, d) for d in (1, 2, 3) for side in (2, 3, 4, 5, 7, 8, 85, "past-gather")]
               + [(167, 2), (2, 4), (3, 4), ("past-gather", 4)]
               + [("past-gather-even", d) for d in (1, 2, 3, 4)])


@pytest.mark.parametrize("side, d", TORUS_CASES)
def test_torus_law_matches_full_roll_bytes(side, d):
    # all the tori of one dimension step in one call.  n = 20 on side 85
    # never wraps (a box of side 41), nor n = 83 on side 167 (a box of side
    # 167 with no halo); the halo starts at n = reach + 1
    sides = [_past_gather(d, s) for s, dd in TORUS_CASES if dd == d]
    side = _past_gather(d, side)
    reach = (side - 1) // 2
    for n in sorted({0, 20, max(reach - 1, 0), reach, reach + 1, 40}):
        got = _torus_laws(sides, d, n)[sides.index(side)]
        want = roll_torus_law(side, d, n)
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes(), (side, d, n)


@pytest.mark.parametrize("case", ["zeros", "below-cap", "past-64"])
def test_gcd_histogram_matches_remainder_counts(case):
    gcd_cap, rng = 8, stream(9)
    gammas = {
        "zeros": np.zeros(500, dtype=np.int64),
        "below-cap": rng.integers(0, gcd_cap, size=5000),
        "past-64": rng.integers(0, 200, size=5000),
    }[case]
    moduli = [q for _, _, q in _prime_powers_up_to(64)]
    tail, zero, counts, divisible = remainder_gcd_statistics(gammas, gcd_cap, moduli)
    per_gamma = np.bincount(gammas)
    est = tail_estimate_from_histogram(2, 10, gcd_cap, per_gamma)
    assert est.samples == len(gammas)
    assert (est.tail_count, est.zero_count, est.gamma_counts) == (tail, zero, counts)
    assert divisible_counts(per_gamma, moduli) == divisible
