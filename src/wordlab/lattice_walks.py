"""Nearest-neighbour walks on Z^d and the gcd of their endpoints.

A walk takes n uniform steps from {+-e_1, ..., +-e_d}.  This module gives
samplers for endpoints, exact n-step laws modulo prime powers (dynamic
programming over the torus (Z/p^k)^d), the exact return probability, and
a two-route account of Pr[gcd of endpoint coordinates > M]: a Monte Carlo
estimate and an independent prediction assembled from the mod-p^k laws.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Optional, Sequence, Tuple, Union

import numpy as np

from .errors import BudgetExceededError, UnsupportedParameterError
from .groups import _is_prime
from .rng import Rng, as_rng
from .words import gcd_of_vector

# Torus DP state count p^(k*d) cap, and the cap for exact big-integer DP.
STATE_CAP = 10**6
EXACT_STATE_CAP = 10**4
# Default policy: exact rational DP only when the state space is this small.
EXACT_DEFAULT_CAP = 1024

# Elements drawn per sampling batch (batch size = this // n).
_BATCH_ELEMS = 1 << 24


def _check_walk_params(d: int, n: int) -> None:
    if d < 1:
        raise UnsupportedParameterError(f"dimension must be >= 1, got {d}")
    if n < 0:
        raise UnsupportedParameterError(f"step count must be >= 0, got {n}")


def simulate_walk(d: int, n: int, rng: Union[Rng, int]) -> Tuple[int, ...]:
    """Endpoint of one n-step walk.  Step j means axis j//2, sign (-1)^j."""
    return tuple(int(v) for v in sample_endpoints(d, n, 1, rng)[0])


def sample_endpoints(d: int, n: int, samples: int, rng: Union[Rng, int]) -> np.ndarray:
    """Endpoints of independent walks, shape (samples, d), int64.

    Steps are drawn as int32, which for a range below 2^32 gives the values
    int64 draws give.  Each row's steps are counted in packed words: a step
    of kind j adds 1 << (k j) to its row's sum, with k bits per kind, in
    one uint32 word when all 2d kinds fit and in uint64 words otherwise.
    """
    _check_walk_params(d, n)
    if samples < 1:
        raise UnsupportedParameterError(f"samples must be >= 1, got {samples}")
    rng = as_rng(rng)
    out = np.zeros((samples, d), dtype=np.int64)
    if n == 0:
        return out
    k = n.bit_length()
    word = np.uint32 if 2 * d * k <= 32 else np.uint64
    per_word = 8 * np.dtype(word).itemsize // k
    batch = max(1, _BATCH_ELEMS // n)
    done = 0
    while done < samples:
        b = min(batch, samples - done)
        shifts = rng.integers(0, 2 * d, size=(b, n), dtype=np.int32).view(np.uint32)
        shifts *= k
        cnt = np.empty((b, 2 * d), dtype=np.int64)
        for j0 in range(0, 2 * d, per_word):
            if j0:  # kind j0 moves to shift 0; smaller kinds wrap past the width and add 0
                shifts -= k * per_word
            # a uint32 word holds every kind, so it may overwrite the shifts
            words = (np.left_shift(word(1), shifts, out=shifts) if word is np.uint32
                     else np.left_shift(word(1), shifts, dtype=word))
            # kinds past this word's fields add multiples of 2^(k per_word),
            # which may wrap but leave the fields below them exact
            packed = words.sum(axis=1, dtype=word)
            fields = min(per_word, 2 * d - j0)
            cnt[:, j0 : j0 + fields] = (
                packed[:, None] >> (k * np.arange(fields, dtype=word))) & word((1 << k) - 1)
        out[done : done + b] = cnt[:, 0::2] - cnt[:, 1::2]
        done += b
    return out


gcd_of_endpoint = gcd_of_vector


# ---------------------------------------------------------------------------
# Exact laws modulo prime powers
# ---------------------------------------------------------------------------


@dataclass
class ModLaw:
    """n-step law of the walk reduced modulo p^k, flat mixed-radix states.

    State index: coordinate 0 is the most significant digit base p^k.
    Exact laws carry big-integer counts with total (2d)^n; float laws carry
    a float64 probability vector.
    """

    d: int
    p: int
    k: int
    n: int
    exact: bool
    counts: Optional[list]  # python ints, present iff exact
    probs: Optional[np.ndarray]  # float64, present iff not exact

    @property
    def modulus(self) -> int:
        return self.p**self.k

    @property
    def size(self) -> int:
        return self.modulus**self.d

    def state_index(self, coords: Sequence[int]) -> int:
        if len(coords) != self.d:
            raise UnsupportedParameterError(f"state needs {self.d} coordinates")
        return int(np.ravel_multi_index(coords, (self.modulus,) * self.d, mode="wrap"))

    def probability(self, coords: Sequence[int]) -> Union[Fraction, float]:
        idx = self.state_index(coords)
        if self.exact:
            return Fraction(self.counts[idx], (2 * self.d) ** self.n)
        return float(self.probs[idx])

    def prob_zero(self) -> Union[Fraction, float]:
        return self.probability((0,) * self.d)

    def probability_vector(self) -> np.ndarray:
        """Float probabilities for all states, in state-index order."""
        if self.exact:
            total = (2 * self.d) ** self.n
            return np.array([c / total for c in self.counts], dtype=np.float64)
        return self.probs.copy()

    def marginal(self, k2: int) -> "ModLaw":
        """Reduce the law to modulus p^k2 for k2 <= k."""
        if not 0 < k2 <= self.k:
            raise UnsupportedParameterError(f"need 0 < k2 <= {self.k}, got {k2}")
        q, q2 = self.modulus, self.p**k2
        size2 = q2**self.d
        proj = _projection_indices(self.d, q, q2)
        if self.exact:
            counts = [0] * size2
            for s, c in enumerate(self.counts):
                counts[proj[s]] += c
            return ModLaw(self.d, self.p, k2, self.n, True, counts, None)
        probs = np.zeros(size2, dtype=np.float64)
        np.add.at(probs, proj, self.probs)
        return ModLaw(self.d, self.p, k2, self.n, False, None, probs)


def _projection_indices(d: int, q: int, q2: int) -> np.ndarray:
    """Flat index map (Z/q)^d -> (Z/q2)^d for q2 | q."""
    digits = np.unravel_index(np.arange(q**d), (q,) * d)
    return np.ravel_multi_index(digits, (q2,) * d, mode="wrap")


def _neighbor_indices(d: int, q: int) -> np.ndarray:
    """Flat indices of s - e_a and of s + e_a on (Z/q)^d, for each axis a
    with axis 0 (the most significant digit) first: shape (2d, q^d)."""
    grid = np.arange(q**d, dtype=np.intp).reshape((q,) * d)
    # rolling by +1 brings s - e_a to s, rolling by -1 brings s + e_a
    return np.stack([np.roll(grid, shift, axis=axis).ravel()
                     for axis in range(d) for shift in (1, -1)])


# (destination, source) slice pairs along one axis for a move of the whole
# torus: by +1 (two pieces, the second across the edge), then by -1.
_WRAP_SHIFTS = (
    (slice(1, None), slice(None, -1)), (slice(None, 1), slice(-1, None)),
    (slice(None, -1), slice(1, None)), (slice(-1, None), slice(None, 1)),
)

# Largest torus (in states) whose wrapped steps run as gathers in the flat
# vector shared by the small tori of a `_torus_laws` call; a larger torus
# steps by slices of its own array.  The shared vector costs 4d numpy calls
# per step for all its tori together, against 4d + 2 calls per torus for
# slices, but a gather costs more per state than a slice.  Measured per
# torus and step (best of 5 runs of 50 steps; numpy 2.4.6, 2-core x86 VM),
# gather added to the shared vector against slices:
#   4096 states:   d=1 24 / 23 us,  d=2  41 / 55 us,  d=3  66 / 97 us
#   16384 states:  d=1 89 / 50 us,  d=2 165 / 122 us  (d=3 at 32768: 470 / 351 us)
GATHER_STATES = 4096


def _box_laws(d: int, radii: set) -> dict:
    """The law on Z^d after r steps, for each r in `radii`: an array of side
    2r + 1 with the origin at its centre.

    One DP runs to the largest radius.  After t steps the walk lies in the
    box of radius t, so a step adds only that box, moved by -1 and by +1
    along each axis, into the box of radius t + 1.
    """
    top = max(radii)
    probs = np.zeros((2 * top + 1,) * d, dtype=np.float64)
    nxt = np.zeros_like(probs)
    probs[(top,) * d] = 1.0
    laws = {}
    for t in range(top):
        if t in radii:
            laws[t] = probs[(slice(top - t, top + t + 1),) * d].copy()
        box = slice(top - t, top + t + 1)
        grown = (slice(top - t - 1, top + t + 2),) * d
        nxt[grown] = 0.0
        for axis in range(d):
            for shift in (1, -1):
                dst = [box] * d
                dst[axis] = slice(top - t + shift, top + t + 1 + shift)
                nxt[tuple(dst)] += probs[(box,) * d]
        nxt[grown] /= 2 * d
        probs, nxt = nxt, probs
    laws[top] = probs
    return laws


def _slice_steps(probs: np.ndarray, steps: int) -> np.ndarray:
    """`steps` steps of the whole torus `probs`, each move in two slices."""
    d = probs.ndim
    nxt = np.empty_like(probs)
    for _ in range(steps):
        nxt.fill(0.0)
        for axis in range(d):
            head = (slice(None),) * axis
            for dst, src in _WRAP_SHIFTS:
                nxt[head + (dst,)] += probs[head + (src,)]
        nxt /= 2 * d
        probs, nxt = nxt, probs
    return probs


def _gather_steps(laws: list, starts: list, d: int, n: int) -> list:
    """Torus law i run from step starts[i] to step n, for every i, by
    gathers in one flat vector that each torus joins at its start step."""
    order = sorted(range(len(laws)), key=starts.__getitem__)
    vec = np.zeros(0, dtype=np.float64)
    cols = np.zeros((2 * d, 0), dtype=np.intp)
    offsets = []
    for t in range(starts[order[0]], n):
        while len(offsets) < len(order) and starts[order[len(offsets)]] == t:
            law = laws[order[len(offsets)]]
            offsets.append(vec.size)
            cols = np.concatenate([cols, _neighbor_indices(d, law.shape[0]) + vec.size], axis=1)
            vec = np.concatenate([vec, law.ravel()])
        nxt = vec[cols[0]]
        for col in cols[1:]:
            nxt += vec[col]
        nxt /= 2 * d
        vec = nxt
    out = list(laws)
    for i, offset in zip(order, offsets):
        out[i] = vec[offset : offset + laws[i].size].reshape(laws[i].shape)
    return out


def _torus_laws(sides: Sequence[int], d: int, n: int) -> list:
    """Float64 n-step laws on the tori (Z/side)^d, one array axis per
    coordinate, origin at index 0.

    Until step reach = (side - 1) // 2 the walk cannot wrap, so each torus
    starts from the law on Z^d after min(n, reach) steps, taken from one
    box DP for all sides and written around index 0.  A torus with steps
    left then runs the whole-torus recurrence: by gathers in a flat vector
    shared with the other tori of at most GATHER_STATES states, or by
    slices of its own array.  Either way every state receives
    0.0 + p[s - e_0] + p[s + e_0] + ... + p[s + e_(d-1)], then one division
    by 2d, the order of rolling the whole torus by +1 then by -1 along each
    axis; the terms left out are +0.0, so the floats are those of that
    roll from step 0.
    """
    if not sides:
        return []
    reaches = [(side - 1) // 2 for side in sides]
    boxes = _box_laws(d, {min(n, r) for r in reaches})
    laws = []
    for side, reach in zip(sides, reaches):
        r = min(n, reach)
        at = np.arange(-r, r + 1) % side
        law = np.zeros((side,) * d, dtype=np.float64)
        law[np.ix_(*[at] * d)] = boxes[r]
        laws.append(law)
    wrapped = [i for i, reach in enumerate(reaches) if reach < n]
    small = [i for i in wrapped if laws[i].size <= GATHER_STATES]
    for i in wrapped:
        if laws[i].size > GATHER_STATES:
            laws[i] = _slice_steps(laws[i], n - reaches[i])
    if small:
        stepped = _gather_steps([laws[i] for i in small], [reaches[i] for i in small], d, n)
        for i, law in zip(small, stepped):
            laws[i] = law
    return laws


def _check_torus_states(size: int) -> None:
    if size > STATE_CAP:
        raise BudgetExceededError(f"state space {size} exceeds cap {STATE_CAP}")


def mod_zero_probabilities(d: int, n: int, moduli: Sequence[int]) -> list:
    """Float Pr[endpoint = 0 mod q] after n steps, for each modulus q, from
    one `_torus_laws` call: the `prob_zero` of each float `exact_mod_law`."""
    _check_walk_params(d, n)
    for q in moduli:
        if q < 1:
            raise UnsupportedParameterError(f"modulus must be >= 1, got {q}")
        _check_torus_states(q**d)
    return [float(law[(0,) * d]) for law in _torus_laws(moduli, d, n)]


def exact_mod_law(d: int, p: int, k: int, n: int, exact: Optional[bool] = None) -> ModLaw:
    """n-fold convolution of the uniform step law on the torus (Z/p^k)^d.

    `exact=None` picks big-integer counts for small state spaces and
    float64 otherwise; forcing exact=True is allowed up to the exact cap.
    """
    _check_walk_params(d, n)
    if k < 1:
        raise UnsupportedParameterError(f"need k >= 1, got k={k}")
    if not _is_prime(p):
        raise UnsupportedParameterError(f"modulus base must be prime, got {p}")
    q = p**k
    size = q**d
    _check_torus_states(size)
    if exact is None:
        exact = size <= EXACT_DEFAULT_CAP
    if exact and size > EXACT_STATE_CAP:
        raise BudgetExceededError(
            f"exact DP over {size} states exceeds cap {EXACT_STATE_CAP}"
        )
    if exact:
        # gathers on an object array of python ints
        nbr = _neighbor_indices(d, q)
        counts = np.zeros(size, dtype=object)
        counts[0] = 1
        for _ in range(n):
            nxt = counts[nbr[0]]
            for col in nbr[1:]:
                nxt += counts[col]
            counts = nxt
        return ModLaw(d, p, k, n, True, counts.tolist(), None)
    return ModLaw(d, p, k, n, False, None, _torus_laws([q], d, n)[0].reshape(-1))


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
    return np.gcd.reduce(np.abs(ends), axis=1)


def gcd_tail_estimate(d: int, n: int, gcd_cap: int, samples: int,
                      rng: Union[Rng, int]) -> TailEstimate:
    """Monte Carlo estimate of Pr[gcd(endpoint) > M] and Pr[endpoint = 0]."""
    if gcd_cap < 0:
        raise UnsupportedParameterError(f"gcd cap must be >= 0, got {gcd_cap}")
    gammas = endpoint_gcds(sample_endpoints(d, n, samples, rng))
    return tail_estimate_from_gcds(d, n, gcd_cap, gammas)


def tail_estimate_from_gcds(d: int, n: int, gcd_cap: int,
                            gammas: np.ndarray) -> TailEstimate:
    """The `gcd_tail_estimate` statistics of already drawn endpoint gcds."""
    samples = len(gammas)
    tail = int(np.count_nonzero(gammas > gcd_cap))
    zero = int(np.count_nonzero(gammas == 0))
    head = np.bincount(gammas[gammas <= gcd_cap], minlength=gcd_cap + 1)
    return TailEstimate(
        d=d, n=n, gcd_cap=gcd_cap, samples=samples,
        tail_count=tail, zero_count=zero,
        tail_probability=tail / samples, zero_probability=zero / samples,
        tail_ci=_wilson_interval(tail, samples),
        zero_ci=_wilson_interval(zero, samples),
        gamma_counts={str(v): int(c) for v, c in enumerate(head) if c},
    )


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


def predicted_tail_probability(d: int, n: int, gcd_cap: int) -> TailPrediction:
    """Predict Pr[gcd of endpoint > M] by exact convolution, no sampling.

    The n-step law is computed on the torus of odd side Q = 2L + 1, which
    coincides with the law on Z^d up to wraparound mass below exp(-L^2/2n);
    the radius L = M + ceil(7.5 sqrt(n)) puts that under 1e-12.
    Each torus state is read back as the integer vector in [-L, L]^d and
    the gcd law is accumulated directly, with no independence assumptions.
    """
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
    probs = _torus_laws([side], d, n)[0]
    # torus coordinate t in [0, side) represents the integer t or t - side
    signed = np.arange(side, dtype=np.int64)
    signed[signed > box_radius] -= side
    mags = np.abs(signed)
    gamma = mags
    if d > 1:
        # gcd_with[g, i] = gcd(g, mags[i]); each pass appends one coordinate
        # axis. Its (L + 1) * side entries stay under side^2 <= BOX_STATE_CAP.
        gcd_with = np.gcd.outer(np.arange(box_radius + 1), mags)
        for _ in range(d - 1):
            gamma = gcd_with[gamma]
    flat_gamma = gamma.ravel()
    flat_probs = probs.ravel()
    law = np.bincount(flat_gamma, weights=flat_probs)
    tail = float(flat_probs[flat_gamma > gcd_cap].sum())
    zero = float(probs[(0,) * d])
    head_cap = min(len(law) - 1, max(2 * gcd_cap, 10))
    head = {str(v): float(law[v]) for v in range(head_cap + 1)}
    return TailPrediction(
        d=d, n=n, gcd_cap=gcd_cap, box_radius=box_radius,
        probability=tail, zero_probability=zero,
        return_probability=float(return_probability(d, n)),
        gcd_law_head=head,
    )
