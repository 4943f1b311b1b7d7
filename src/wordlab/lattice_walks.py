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
    """Endpoints of independent walks, shape (samples, d), int64."""
    _check_walk_params(d, n)
    if samples < 1:
        raise UnsupportedParameterError(f"samples must be >= 1, got {samples}")
    rng = as_rng(rng)
    out = np.zeros((samples, d), dtype=np.int64)
    if n == 0:
        return out
    batch = max(1, _BATCH_ELEMS // n)
    done = 0
    while done < samples:
        b = min(batch, samples - done)
        draws = rng.integers(0, 2 * d, size=(b, n), dtype=np.int64)
        offsets = draws + (np.arange(b, dtype=np.int64) * (2 * d))[:, None]
        cnt = np.bincount(offsets.ravel(), minlength=b * 2 * d).reshape(b, 2 * d)
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
        q = self.modulus
        if len(coords) != self.d:
            raise UnsupportedParameterError(f"state needs {self.d} coordinates")
        idx = 0
        for c in coords:
            idx = idx * q + (c % q)
        return idx

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
    rest = np.arange(q**d, dtype=np.int64)
    digits = []
    for _ in range(d):
        rest, dig = np.divmod(rest, q)
        digits.append(dig % q2)  # least significant first
    out = np.zeros(q**d, dtype=np.int64)
    for dig in reversed(digits):
        out = out * q2 + dig
    return out


def _neighbor_indices(d: int, q: int) -> list:
    """For each axis and sign, the flat index reached by a +-1 move."""
    size = q**d
    flat = np.arange(size, dtype=np.int64)
    cols = []
    stride = 1
    for _ in range(d):
        digit = (flat // stride) % q
        plus = flat + stride * (((digit + 1) % q) - digit)
        minus = flat + stride * (((digit - 1) % q) - digit)
        cols.append(plus)
        cols.append(minus)
        stride *= q
    return cols


# (destination, source) slice pairs along one axis for a move of the whole
# torus: by +1 (two pieces, the second across the edge), then by -1.
_WRAP_SHIFTS = (
    (slice(1, None), slice(None, -1)), (slice(None, 1), slice(-1, None)),
    (slice(None, -1), slice(1, None)), (slice(-1, None), slice(None, 1)),
)


def _torus_law(side: int, d: int, n: int) -> np.ndarray:
    """Float64 n-step law on the torus (Z/side)^d, one array axis per coordinate.

    The walk starts at the centre index c = side // 2 and after t steps
    lies in the box of radius t around it.  While the box of radius t + 1
    stays clear of the edge, a step adds only the current box, moved by
    +1 and by -1 along each axis, into the next one; after that a step
    adds the whole torus, moved with wraparound.  Every state receives
    its nonzero terms in the order of the full-torus recurrence (per axis,
    roll by +1 then by -1, then divide by 2d); the terms left out are
    +0.0, so the floats are the same.  A final roll by -c puts the origin
    at index 0.
    """
    c = side // 2
    reach = (side - 1) // 2  # largest box radius around c that does not wrap
    probs = np.zeros((side,) * d, dtype=np.float64)
    nxt = np.zeros_like(probs)
    probs[(c,) * d] = 1.0
    for t in range(n):
        if t < reach:
            box = slice(c - t, c + t + 1)
            grown = (slice(c - t - 1, c + t + 2),) * d
            nxt[grown] = 0.0
            for axis in range(d):
                for shift in (1, -1):
                    dst = [box] * d
                    dst[axis] = slice(c - t + shift, c + t + 1 + shift)
                    nxt[tuple(dst)] += probs[(box,) * d]
            nxt[grown] /= 2 * d
        else:
            nxt.fill(0.0)
            for axis in range(d):
                head = (slice(None),) * axis
                for dst, src in _WRAP_SHIFTS:
                    nxt[head + (dst,)] += probs[head + (src,)]
            nxt /= 2 * d
        probs, nxt = nxt, probs
    return np.roll(probs, -c, axis=tuple(range(d)))


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
    if size > STATE_CAP:
        raise BudgetExceededError(f"state space {size} exceeds cap {STATE_CAP}")
    if exact is None:
        exact = size <= EXACT_DEFAULT_CAP
    if exact and size > EXACT_STATE_CAP:
        raise BudgetExceededError(
            f"exact DP over {size} states exceeds cap {EXACT_STATE_CAP}"
        )
    if exact:
        nbr = list(zip(*(col.tolist() for col in _neighbor_indices(d, q))))
        counts = [0] * size
        counts[0] = 1
        for _ in range(n):
            counts = [sum(counts[j] for j in nbr[s]) for s in range(size)]
        return ModLaw(d, p, k, n, True, counts, None)
    return ModLaw(d, p, k, n, False, None, _torus_law(q, d, n).reshape(-1))


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
    if trials == 0:
        return 0.0, 1.0
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


def predicted_tail_probability(d: int, n: int, gcd_cap: int,
                               box_radius: Optional[int] = None) -> TailPrediction:
    """Predict Pr[gcd of endpoint > M] by exact convolution, no sampling.

    The n-step law is computed on the torus of odd side Q = 2L + 1, which
    coincides with the law on Z^d up to wraparound mass below exp(-L^2/2n);
    the default radius L = M + ceil(7.5 sqrt(n)) puts that under 1e-12.
    Each torus state is read back as the integer vector in [-L, L]^d and
    the gcd law is accumulated directly, with no independence assumptions.
    """
    _check_walk_params(d, n)
    if gcd_cap < 0:
        raise UnsupportedParameterError(f"gcd cap must be >= 0, got {gcd_cap}")
    if box_radius is None:
        box_radius = gcd_cap + math.ceil(7.5 * math.sqrt(max(n, 1)))
    side = 2 * box_radius + 1
    if side**d > BOX_STATE_CAP:
        raise BudgetExceededError(
            f"boxed law needs {side**d} states, over the {BOX_STATE_CAP} cap; "
            "reduce n or pass a smaller box_radius"
        )
    probs = _torus_law(side, d, n)
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
