"""Nearest-neighbour walks on Z^d and the gcd of their endpoints.

A walk takes n uniform steps from {+-e_1, ..., +-e_d}.  This module gives
samplers for endpoints, exact n-step laws modulo prime powers (dynamic
programming over the torus (Z/p^k)^d), the exact return probability, and
a two-route account of Pr[gcd of endpoint coordinates > M]: a Monte Carlo
estimate and an independent prediction assembled from the mod-p^k laws.
"""

from __future__ import annotations

import collections
import math
import threading
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Optional, Sequence, Tuple, Union

import numpy as np

from .errors import BudgetExceededError, UnsupportedParameterError
from .groups import _is_prime
from .rng import Rng, as_rng

# State caps: q^d per float torus DP, and p^(k*d) for an exact big-integer law.
STATE_CAP = 10**6
EXACT_STATE_CAP = 10**4
# Work cap of an exact law, in units of d * q^d * n^2: each of the n steps adds
# 2d neighbour counts per state, and the counts grow to about n log2(2d) bits.
# A call at the cap took 2.0 s at (2, 97, 1, 1030), 3.0 s at (13, 2, 1, 433),
# 0.3 s at (1, 2, 1, 100000) (in process; 2-core x86 VM, Python 3.11).
EXACT_WORK_CAP = 2 * 10**10

# Steps drawn per sampling block (rows per block = max(1, this // n)): 1 MiB
# of uint32 step kinds, 2 MiB of uint64 products when 2d is not a power of
# two, and at most 2 MiB of packed words, counted while still in cache.
# Measured on sample_endpoints(2, 400, 50000), 2 * 10^7 steps (median of 9
# calls; numpy 2.4.6, 2-core x86 VM, 2 MiB L2 per core), by block size:
#   2^16: 54 ms, 2^18: 56 ms, 2^20: 80 ms, 2^24: 105 ms;
#   tracemalloc peak beside the output: 1.0, 4.0, 16.1 and 206 MiB.
# Beside a `meanwhile`, with a block in flight on each of two threads, 2^18
# peaks at 6.2 MiB.
_BATCH_ELEMS = 1 << 18


def _check_walk_params(d: int, n: int) -> None:
    if d < 1:
        raise UnsupportedParameterError(f"dimension must be >= 1, got {d}")
    if n < 0:
        raise UnsupportedParameterError(f"step count must be >= 0, got {n}")


def _bounded_draws(rng: Rng, m: int, count: int) -> np.ndarray:
    """The values of `rng.integers(0, m, size=count, dtype=np.uint32)` for
    1 < m < 2^32, count >= 1 and a PCG64 `rng`, as uint32, leaving `rng` in
    the state that call leaves.

    numpy draws each value by Lemire's rule from the bit generator's next
    32-bit output x: the value is (x m) >> 32, and x is rejected while
    (x m) mod 2^32 < (2^32 - m) mod m.  PCG64 gives its 32-bit outputs as
    the halves of 64-bit ones, low half first, and holds an unused high
    half for the next one; so here the halves come in bulk from 64-bit
    draws, after the held half if there is one, and an odd last half is
    drawn alone, which holds its high half as numpy's own draw would.  For
    m a power of two no x is rejected and the value is x >> (32 - log2 m).
    Otherwise the product is formed in uint64; rejected values, a share
    below m / 2^32, are dropped and the deficit drawn the same way.
    """
    held = int(rng.bit_generator.state["has_uint32"])
    pairs, odd = divmod(count - held, 2)
    # the halves of each 64-bit draw, low half first on any host
    x = rng.integers(0, 2**64, size=pairs, dtype=np.uint64).astype("<u8", copy=False).view("<u4")
    if held or odd:  # a 64-bit draw leaves the held half in place
        x = np.concatenate([rng.integers(0, 2**32, size=held, dtype=np.uint32), x,
                            rng.integers(0, 2**32, size=odd, dtype=np.uint32)])
    if m & (m - 1) == 0:
        x >>= 33 - m.bit_length()
        return x
    threshold = (2**32 - m) % m
    wide = np.multiply(x, np.uint64(m), dtype=np.uint64)
    np.multiply(x, np.uint32(m), out=x)  # (x m) mod 2^32
    rejected = x < threshold if x.min() < threshold else None
    np.right_shift(wide, np.uint64(32), out=x, casting="unsafe")
    if rejected is None:
        return x
    kept = x[~rejected]
    return np.concatenate([kept, _bounded_draws(rng, m, count - kept.size)])


def _stream_position(bits: np.random.PCG64) -> tuple:
    """Where a PCG64 generator stands in its stream of 32-bit halves: its
    128-bit state and its held half, if any.  (numpy keeps the bits of a
    used half in the state too, but never reads them.)"""
    state = bits.state
    held = state["has_uint32"]
    return state["state"]["state"], held, state["uinteger"] if held else 0


def _walk_counter(d: int, n: int, rows: int):
    """count(rng, block): draw the n >= 1 steps of each of the at most
    `rows` walks of `block`, a row block of the output, from `rng`, and
    write their endpoints there.

    A step's kind j (axis j // 2, sign + for even j) adds 1 << (k j) to its
    row's sum, with k bits per kind, in one uint32 word when all 2d kinds
    fit and in uint64 words otherwise.  uint32 words overwrite the draws;
    uint64 words go to one buffer that the counter keeps, so each thread
    takes its own counter.
    """
    k = n.bit_length()
    word = np.uint32 if 2 * d * k <= 32 else np.uint64
    per_word = 8 * np.dtype(word).itemsize // k
    wide = np.empty((rows, n), dtype=word) if word is np.uint64 else None

    def count(rng: Rng, block: np.ndarray) -> None:
        b = len(block)
        shifts = _bounded_draws(rng, 2 * d, b * n).reshape(b, n)
        shifts *= k
        words = shifts if wide is None else wide[:b]
        cnt = np.empty((b, 2 * d), dtype=np.int64)
        for j0 in range(0, 2 * d, per_word):
            if j0:  # kind j0 moves to shift 0; smaller kinds wrap past the width and add 0
                shifts -= k * per_word
            np.left_shift(word(1), shifts, out=words)
            # kinds past this word's fields add multiples of 2^(k per_word),
            # which may wrap but leave the fields below them exact
            packed = words.sum(axis=1, dtype=word)
            fields = min(per_word, 2 * d - j0)
            cnt[:, j0 : j0 + fields] = (
                packed[:, None] >> (k * np.arange(fields, dtype=word))) & word((1 << k) - 1)
        block[:] = cnt[:, 0::2] - cnt[:, 1::2]

    return count


def sample_endpoints(d: int, n: int, samples: int, rng: Union[Rng, int], *,
                     meanwhile: Optional[Callable[[], None]] = None) -> np.ndarray:
    """Endpoints of independent walks, shape (samples, d), int64.

    A step's kind j in [0, 2d) (axis j // 2, sign + for even j) is the
    value `rng.integers(0, 2d)` draws with an int32 or int64 dtype: Lemire's
    multiply-and-reject rule on the 32-bit halves of PCG64's 64-bit outputs,
    here applied to those outputs drawn in bulk (`_bounded_draws`), so the
    generator must be PCG64, as every `stream` is.  Each row's steps are
    counted in packed words (`_walk_counter`).  Rows are drawn and counted
    in blocks of about _BATCH_ELEMS steps, so the working set beside the
    output stays a few MiB whatever `samples` is.

    The parameters are checked first.  With `meanwhile` given and more
    than one block, a worker thread then draws blocks from the last one
    backwards, while this thread runs `meanwhile` and then draws blocks
    from the first one forwards on `rng`; the two pop blocks from the two
    ends of one deque, each pop atomic, until it is empty.  Both are done
    before the call returns or raises; if `meanwhile` raises, the worker
    stops at its next block.  Otherwise no thread starts: `meanwhile`, if
    given, runs first, and then this thread draws every block in order.

    With `rows` walks per block, block i starts at 32-bit position
    P = i * rows * n of the stream, counted from `rng`'s held half if it
    has one, assuming no draw before it was rejected.  The worker reaches
    P on its own PCG64 copy of `rng`'s start state: `advance` by
    (P - held) // 2 64-bit outputs, then one 32-bit draw when P - held is
    odd.  After the join, every worker block must start where the block
    before it ended; if one does not (a Lemire rejection, at most
    (2^32 mod 2d) / 2^32 per draw and never for 2d a power of two), every
    worker block is drawn again, in order, on `rng`.  So the endpoints,
    and the state `rng` is left in, are those of drawing every block in
    order on `rng`, whatever the scheduling and the block size.
    """
    _check_walk_params(d, n)
    if samples < 1:
        raise UnsupportedParameterError(f"samples must be >= 1, got {samples}")
    rng = as_rng(rng)
    if not isinstance(rng.bit_generator, np.random.PCG64):
        raise UnsupportedParameterError(
            f"walk steps are drawn from PCG64 outputs, not {type(rng.bit_generator).__name__}")
    out = np.zeros((samples, d), dtype=np.int64)
    rows = min(max(1, _BATCH_ELEMS // max(n, 1)), samples)
    blocks = [out[i : i + rows] for i in range(0, samples, rows)] if n else []
    count = _walk_counter(d, n, rows) if n else None
    if meanwhile is None or len(blocks) < 2:
        if meanwhile is not None:
            meanwhile()
        for block in blocks:
            count(rng, block)
        return out
    start = rng.bit_generator.state
    held = start["has_uint32"]
    todo = collections.deque(range(len(blocks)))  # blocks not taken yet; a pop is atomic
    stop = threading.Event()
    tail = {}  # worker block -> (start position, end position, end state)
    failed = []

    def taken(pop: Callable[[], int]):
        while True:
            try:
                yield pop()
            except IndexError:
                return

    def draw_tail() -> None:
        try:
            count = _walk_counter(d, n, rows)
            bits = np.random.PCG64(0)
            gen = np.random.Generator(bits)
            for i in taken(todo.pop):
                if stop.is_set():
                    return
                bits.state = start
                if i:  # block 0 starts at `start` itself, held half and all
                    at = i * rows * n - held
                    bits.advance(at // 2)  # drops the held half
                    if at % 2:
                        gen.integers(0, 2**32, dtype=np.uint32)
                first = _stream_position(bits)
                count(gen, blocks[i])
                tail[i] = first, _stream_position(bits), bits.state
        except BaseException as exc:  # re-raised on the calling thread
            failed.append(exc)

    worker = threading.Thread(target=draw_tail)
    worker.start()
    try:
        meanwhile()
        for i in taken(todo.popleft):
            count(rng, blocks[i])
    finally:
        stop.set()
        worker.join()
    if failed:
        raise failed[0]
    if tail:
        order = sorted(tail)
        ends = [_stream_position(rng.bit_generator)] + [tail[i][1] for i in order[:-1]]
        if all(tail[i][0] == end for i, end in zip(order, ends)):
            rng.bit_generator.state = tail[order[-1]][2]
        else:
            for i in order:
                count(rng, blocks[i])
    return out


# ---------------------------------------------------------------------------
# Exact laws modulo prime powers
# ---------------------------------------------------------------------------


@dataclass
class ModLaw:
    """Exact n-step law of the walk reduced modulo p^k, flat mixed-radix states.

    State index: coordinate 0 is the most significant digit base p^k.
    `counts` holds the big-integer number of walks ending in each state;
    they sum to (2d)^n.
    """

    d: int
    p: int
    k: int
    n: int
    counts: list  # python ints

    @property
    def modulus(self) -> int:
        return self.p**self.k

    def state_index(self, coords: Sequence[int]) -> int:
        if len(coords) != self.d:
            raise UnsupportedParameterError(f"state needs {self.d} coordinates")
        return int(np.ravel_multi_index(coords, (self.modulus,) * self.d, mode="wrap"))

    def probability(self, coords: Sequence[int]) -> Fraction:
        return Fraction(self.counts[self.state_index(coords)], (2 * self.d) ** self.n)

    def prob_zero(self) -> Fraction:
        return self.probability((0,) * self.d)

    def probability_vector(self) -> np.ndarray:
        """Float probabilities for all states, in state-index order."""
        total = (2 * self.d) ** self.n
        return np.array([c / total for c in self.counts], dtype=np.float64)


def _neighbor_indices(d: int, q: int) -> np.ndarray:
    """Flat indices of s - e_a and of s + e_a on (Z/q)^d, for each axis a
    with axis 0 (the most significant digit) first: shape (2d, q^d)."""
    grid = np.arange(q**d, dtype=np.intp).reshape((q,) * d)
    # rolling by +1 brings s - e_a to s, rolling by -1 brings s + e_a
    return np.stack([np.roll(grid, shift, axis=axis).ravel()
                     for axis in range(d) for shift in (1, -1)])


# Largest torus (in states) that `_torus_laws` steps by gathers in the flat
# vector shared by all such tori of its call; a larger torus runs its own
# `_torus_law`.  The shared vector costs 4d numpy calls per step for all its
# tori together, and `_torus_law` as many per wrapped step for each torus,
# but a gather costs more per state than a slice.  Measured per torus and
# wrapped step (median over 3 of the best of 7 runs of 400 steps; numpy
# 2.4.6, 2-core x86 VM), gathers in the shared vector against `_torus_law`:
#   512 states:    d=1  3 / 4 us,   d=3   9 / 13 us
#   4096 states:   d=1 15 / 16 us,  d=2  23 / 14 us,  d=3  29 / 25 us
#   16384 states:  d=1 47 / 23 us,  d=2  84 / 34 us  (d=3 at 32768: 255 / 104 us)
GATHER_STATES = 4096


def _torus_law(side: int, d: int, n: int) -> np.ndarray:
    """Float64 n-step law on the torus (Z/side)^d, one array axis per
    coordinate, origin at index 0.

    One DP runs in two flat vectors of the box of side S = min(side, 2n + 1),
    origin at box index c = (S - 1) // 2, padded by one axis-0 slab at
    either end.  Until step c the walk cannot wrap, and after t steps it
    lies in the box of radius t, so a step writes only the slabs of the box
    of radius t + 1: the law moved by -1 and by +1 along axis 0, then along
    each other axis by its stride, then divided by 2d.  A state on the box
    edge of a later axis reads, across the flat vector or in a halo, a state
    the walk cannot reach yet, which adds +0.0.  If the walk wraps (n > c, so
    S = side), every other axis is padded by one halo cell at either end
    too, and each step from step c on first copies every face of the box
    into the halo beyond the opposite face, then writes the whole vector.
    So every state receives 0.0 + p[s - e_0] + p[s + e_0] + ... +
    p[s + e_(d-1)], each move one contiguous slice, then one division by 2d:
    the floats of rolling the whole torus by +1 then by -1 along each axis
    from step 0, since every term left out is +0.0.  The box is written
    into a zero torus around index 0.
    """
    size = min(side, 2 * n + 1)
    centre = (size - 1) // 2
    halo = int(n > centre)
    shape = (size + 2,) + (size + 2 * halo,) * (d - 1)
    slab = math.prod(shape[1:])
    strides = [math.prod(shape[axis + 1 :]) for axis in range(1, d)]
    probs = np.zeros(math.prod(shape), dtype=np.float64)
    nxt = np.zeros_like(probs)
    probs[np.ravel_multi_index((centre + 1,) + (centre + halo,) * (d - 1), shape)] = 1.0
    for t in range(n):
        if t < centre:
            lo, hi = (centre - t) * slab, (centre + t + 3) * slab
        else:
            lo, hi = slab, (size + 1) * slab
            grid = probs.reshape(shape)
            for axis in range(d):
                head = (slice(None),) * axis
                grid[head + (0,)] = grid[head + (size,)]
                grid[head + (size + 1,)] = grid[head + (1,)]
        out = nxt[lo:hi]
        np.add(probs[lo - slab : hi - slab], probs[lo + slab : hi + slab], out=out)
        for stride in strides:
            out += probs[lo - stride : hi - stride]
            out += probs[lo + stride : hi + stride]
        out /= 2 * d
        probs, nxt = nxt, probs
    del nxt  # freed before the torus is allocated
    box = probs.reshape(shape)[(slice(1, size + 1),) + (slice(halo, size + halo),) * (d - 1)]
    at = np.arange(-centre, size - centre) % side
    law = np.zeros((side,) * d, dtype=np.float64)
    law[np.ix_(*[at] * d)] = box
    return law


def _gather_steps(sides: Sequence[int], d: int, n: int) -> list:
    """The n-step laws of the tori (Z/side)^d, one per side, by gathers in
    one flat vector that holds them all, each from the point mass at its
    origin."""
    offsets = np.cumsum([0] + [side**d for side in sides])
    vec = np.zeros(offsets[-1], dtype=np.float64)
    vec[offsets[:-1]] = 1.0
    cols = np.concatenate([_neighbor_indices(d, side) + offset
                           for side, offset in zip(sides, offsets)], axis=1)
    for _ in range(n):
        nxt = vec[cols[0]]
        for col in cols[1:]:
            nxt += vec[col]
        nxt /= 2 * d
        vec = nxt
    return [vec[lo:hi].reshape((side,) * d)
            for side, lo, hi in zip(sides, offsets[:-1], offsets[1:])]


def _torus_laws(sides: Sequence[int], d: int, n: int) -> list:
    """Float64 n-step laws on the tori (Z/side)^d, one array axis per
    coordinate, origin at index 0.

    The tori of at most GATHER_STATES states step together by gathers in
    one flat vector (`_gather_steps`); each larger torus runs its own padded
    box DP (`_torus_law`).  Either way every state receives
    0.0 + p[s - e_0] + p[s + e_0] + ... + p[s + e_(d-1)], then one division
    by 2d, so the floats are those of rolling the whole torus by +1 then by
    -1 along each axis at every step, from the point mass at the origin.
    """
    small = [side for side in sides if side**d <= GATHER_STATES]
    stepped = iter(_gather_steps(small, d, n) if small else [])
    return [next(stepped) if side**d <= GATHER_STATES else _torus_law(side, d, n)
            for side in sides]


def check_moduli(d: int, n: int, moduli: Sequence[int]) -> None:
    """Raise what `mod_zero_probabilities(d, n, moduli)` raises for its
    parameters and state cap, without running its DP."""
    _check_walk_params(d, n)
    for q in moduli:
        if q < 1:
            raise UnsupportedParameterError(f"modulus must be >= 1, got {q}")
        if q**d > STATE_CAP:
            raise BudgetExceededError(f"state space {q**d} exceeds cap {STATE_CAP}")


def mod_zero_probabilities(d: int, n: int, moduli: Sequence[int]) -> list:
    """Float Pr[endpoint = 0 mod q] after n steps, for each modulus q, read
    at the origin of one `_torus_laws` call.  `exact_mod_law` counts the
    same laws exactly, for prime-power moduli on small tori."""
    check_moduli(d, n, moduli)
    return [float(law[(0,) * d]) for law in _torus_laws(moduli, d, n)]


def exact_mod_law(d: int, p: int, k: int, n: int) -> ModLaw:
    """n-fold convolution of the uniform step law on the torus (Z/p^k)^d,
    as big-integer counts, for at most EXACT_STATE_CAP states and
    EXACT_WORK_CAP units of d q^d n^2 work, both checked before the first
    step.  The float laws of tori live in `_torus_laws`, read through
    `mod_zero_probabilities` and `predicted_tail_probability`."""
    _check_walk_params(d, n)
    if k < 1:
        raise UnsupportedParameterError(f"need k >= 1, got k={k}")
    if not _is_prime(p):
        raise UnsupportedParameterError(f"modulus base must be prime, got {p}")
    q = p**k
    size = q**d
    if size > EXACT_STATE_CAP:
        raise BudgetExceededError(f"exact DP over {size} states exceeds cap {EXACT_STATE_CAP}")
    if d * size * n * n > EXACT_WORK_CAP:
        raise BudgetExceededError(
            f"exact DP work d q^d n^2 = {d * size * n * n} exceeds cap {EXACT_WORK_CAP}")
    # gathers on an object array of python ints
    nbr = _neighbor_indices(d, q)
    counts = np.zeros(size, dtype=object)
    counts[0] = 1
    for _ in range(n):
        nxt = counts[nbr[0]]
        for col in nbr[1:]:
            nxt += counts[col]
        counts = nxt
    return ModLaw(d, p, k, n, counts.tolist())


# ---------------------------------------------------------------------------
# Exact return probability
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _closed_walk_count(d: int, n: int) -> int:
    """Number of n-step walks on Z^d that end at the origin.

    Slots are assigned axis by axis: an axis taking 2k of the r remaining
    slots contributes C(r, 2k) * C(2k, k) = r! / ((r-2k)! k! k!), and each
    term is the last one times (r-2k)(r-2k-1) / (k+1)^2, exactly.
    """
    prev = [0] * (n + 1)
    prev[0] = 1
    for _ in range(d):
        cur = [0] * (n + 1)
        for used in range(n + 1):
            w = prev[used]
            if not w:
                continue
            remaining = n - used
            for k in range(remaining // 2 + 1):
                cur[used + 2 * k] += w
                w = w * (remaining - 2 * k) * (remaining - 2 * k - 1) // ((k + 1) ** 2)
        prev = cur
    return prev[n]


def return_probability(d: int, n: int) -> Fraction:
    """Exact probability that the n-step walk ends at the origin."""
    _check_walk_params(d, n)
    return Fraction(_closed_walk_count(d, n), (2 * d) ** n)


# ---------------------------------------------------------------------------
# Gcd tail: Monte Carlo estimate and DP-assembled prediction
# ---------------------------------------------------------------------------


def _wilson_interval(successes: int, trials: int) -> Tuple[float, float]:
    """95% score interval for a binomial proportion."""
    z = 1.959963984540054
    phat = successes / trials
    denom = 1.0 + z * z / trials
    centre = phat + z * z / (2 * trials)
    half = z * math.sqrt(phat * (1.0 - phat) / trials + z * z / (4.0 * trials * trials))
    return max(0.0, (centre - half) / denom), min(1.0, (centre + half) / denom)


@dataclass
class TailEstimate:
    d: int
    n: int
    gcd_cap: int  # M
    samples: int
    tail_count: int  # endpoints with gcd > M (zero endpoint excluded)
    zero_count: int  # endpoints exactly at the origin
    tail_probability: float
    zero_probability: float
    tail_ci: Tuple[float, float]
    zero_ci: Tuple[float, float]
    gamma_counts: dict  # str(v) -> count of endpoints with gcd exactly v <= M


def endpoint_gcds(ends: np.ndarray) -> np.ndarray:
    """gcd of each endpoint's coordinates (0 for the origin), shape (samples,)."""
    gammas = np.abs(ends[:, 0])
    for axis in range(1, ends.shape[1]):
        np.gcd(gammas, ends[:, axis], out=gammas)
    return gammas


def gcd_tail_estimate(d: int, n: int, gcd_cap: int, samples: int,
                      rng: Union[Rng, int]) -> TailEstimate:
    """Monte Carlo estimate of Pr[gcd(endpoint) > M] and Pr[endpoint = 0]."""
    if gcd_cap < 0:
        raise UnsupportedParameterError(f"gcd cap must be >= 0, got {gcd_cap}")
    gammas = endpoint_gcds(sample_endpoints(d, n, samples, rng))
    return tail_estimate_from_histogram(d, n, gcd_cap, np.bincount(gammas))


def tail_estimate_from_histogram(d: int, n: int, gcd_cap: int,
                                 per_gamma: np.ndarray) -> TailEstimate:
    """The `gcd_tail_estimate` statistics of already drawn endpoints, from
    per_gamma[v] = the number of them whose gcd is v (`np.bincount`)."""
    samples = int(per_gamma.sum())
    tail = int(per_gamma[gcd_cap + 1 :].sum())
    zero = int(per_gamma[0])
    return TailEstimate(
        d=d, n=n, gcd_cap=gcd_cap, samples=samples,
        tail_count=tail, zero_count=zero,
        tail_probability=tail / samples, zero_probability=zero / samples,
        tail_ci=_wilson_interval(tail, samples),
        zero_ci=_wilson_interval(zero, samples),
        gamma_counts={str(v): int(c) for v, c in enumerate(per_gamma[: gcd_cap + 1]) if c},
    )


def divisible_counts(per_gamma: np.ndarray, moduli: Sequence[int]) -> list:
    """For each modulus q, the number of endpoints whose gcd q divides, from
    the gcd histogram; the origin, gcd 0, counts for every q."""
    return [int(per_gamma[::q].sum()) for q in moduli]


@dataclass
class TailPrediction:
    """Sampling-free account of the endpoint gcd law.

    `zero_probability` comes from the torus DP; `return_probability` is the
    independent exact combinatorial count, so the two must agree to float
    precision (a built-in cross-check of the DP route).
    """

    d: int
    n: int
    gcd_cap: int
    box_radius: int
    probability: float  # Pr[gcd > gcd_cap]
    zero_probability: float  # Pr[endpoint = 0], DP route
    return_probability: float  # Pr[endpoint = 0], combinatorial route
    gcd_law_head: dict  # str(v) -> Pr[gcd = v] for small v


# Float DP states allowed for the boxed full-law prediction.
BOX_STATE_CAP = 4 * 10**6


def tail_box_radius(d: int, n: int, gcd_cap: int) -> int:
    """The box radius L of `predicted_tail_probability(d, n, gcd_cap)`,
    after the checks of its parameters and state cap, which raise what
    that call raises without running its DP."""
    _check_walk_params(d, n)
    if gcd_cap < 0:
        raise UnsupportedParameterError(f"gcd cap must be >= 0, got {gcd_cap}")
    box_radius = gcd_cap + math.ceil(7.5 * math.sqrt(max(n, 1)))
    side = 2 * box_radius + 1
    if side**d > BOX_STATE_CAP:
        raise BudgetExceededError(
            f"boxed law needs {side**d} states, over the {BOX_STATE_CAP} cap; "
            "reduce n or gcd_cap"
        )
    return box_radius


def predicted_tail_probability(d: int, n: int, gcd_cap: int) -> TailPrediction:
    """Predict Pr[gcd of endpoint > M] by exact convolution, no sampling.

    The n-step law is computed on the torus of odd side Q = 2L + 1, which
    coincides with the law on Z^d up to wraparound mass below exp(-L^2/2n);
    the radius L = M + ceil(7.5 sqrt(n)) puts that under 1e-12.
    Each torus state is read back as the integer vector in [-L, L]^d and
    the gcd law is accumulated directly, with no independence assumptions.
    """
    box_radius = tail_box_radius(d, n, gcd_cap)
    side = 2 * box_radius + 1
    probs = _torus_laws([side], d, n)[0]
    # torus coordinate t in [0, side) represents the integer t or t - side
    signed = np.arange(side, dtype=np.int64)
    signed[signed > box_radius] -= side
    mags = np.abs(signed)
    # every gcd lies in [0, L]: the grid is held in the least dtype for L
    gamma = mags.astype(np.min_scalar_type(box_radius))
    if d > 1:
        # gcd_with[g, i] = gcd(g, mags[i]); each pass appends one coordinate
        # axis. Its (L + 1) * side entries stay under side^2 <= BOX_STATE_CAP.
        gcd_with = np.gcd.outer(np.arange(box_radius + 1), mags).astype(gamma.dtype)
        for _ in range(d - 1):
            gamma = gcd_with[gamma]
    # numpy's pairwise sum depends on the layout of what it adds, zeros
    # included, so the tail selects from the whole torus
    tail = float(probs.ravel()[gamma.ravel() > gcd_cap].sum())
    # a state out of reach of n steps holds 0.0 and would add +0.0 to its
    # bin, so the law bins only the reachable box, by one flat index in
    # torus order
    near = np.flatnonzero(mags <= min(n, box_radius))
    flat = near
    for _ in range(d - 1):
        flat = np.add.outer(flat * side, near).ravel()
    law = np.bincount(gamma.ravel()[flat], weights=probs.ravel()[flat],
                      minlength=box_radius + 1)
    zero = float(probs[(0,) * d])
    head_cap = min(len(law) - 1, max(2 * gcd_cap, 10))
    head = {str(v): float(law[v]) for v in range(head_cap + 1)}
    return TailPrediction(
        d=d, n=n, gcd_cap=gcd_cap, box_radius=box_radius,
        probability=tail, zero_probability=zero,
        return_probability=float(return_probability(d, n)),
        gcd_law_head=head,
    )
