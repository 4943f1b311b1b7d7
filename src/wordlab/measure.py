"""Pushforward distributions of word maps and their distance to uniform.

For a word w of rank d and a finite group G, the word map sends a tuple in
G^d to its substitution product.  `exact_distribution` enumerates the full
pushforward of the uniform measure on G^d; `monte_carlo_distribution`
estimates it from uniform samples.  Both return integer counts, so the L1
distance to uniform is a Fraction in exact mode.

The L1 distance used everywhere is sum_g |P(g) - 1/|G||, which ranges over
[0, 2] and is twice the total-variation distance.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence, Union

import numpy as np

from .errors import BudgetExceededError, EmptyWordError, UnsupportedParameterError
from .groups import Group, classes, power_array, word_multiplier
from .rng import Rng, as_rng
from .words import Word, abelianize, bezout_certificate, gcd_of_vector

# Total tuple count |G|^d an exact enumeration may cover.
TUPLE_BUDGET = 10**8
# Samples processed per vectorized batch.
BATCH = 1 << 16


@dataclass
class Distribution:
    """Integer counts over a group carrier; total = |G|^d or the sample count.

    Word-map counts fit numpy int64 (bounded by the tuple budget); exact
    walk laws carry python big integers in an object array.  Both dtypes
    are accepted everywhere distances are computed.
    """

    group: Group
    counts: np.ndarray
    total: int
    mode: str  # "exact" | "sampled"
    # sampled mode, word with a nonzero exponent-sum gcd: its values at the
    # certificate tuples of the class representatives (`_certificate_columns`)
    certified: Optional[np.ndarray] = None

    def __post_init__(self):
        if self.mode not in ("exact", "sampled"):
            raise UnsupportedParameterError(f"bad distribution mode {self.mode!r}")


def _check_budget(group: Group, d: int) -> int:
    total = group.order**d
    if total > TUPLE_BUDGET:
        raise BudgetExceededError(
            f"{group.name}^{d} has {total} tuples, over the {TUPLE_BUDGET} budget"
        )
    return total


def exact_distribution(word: Word, group: Group) -> Distribution:
    """Full pushforward of the uniform measure on G^d under the word map.

    Only the k generators that occur in the word are enumerated; the other
    d - k coordinates, or d - 1 when k = 0, contribute the exact factor
    |G|^(d - max(k, 1)).  A word in at most one generator is the power map
    x -> x^a, with a its exponent sum, counted over the carrier by
    `power_array`; two or more generators are class-reduced
    (`_class_totals`).  The budget is checked on the full |G|^d.
    """
    d = word.rank
    total = _check_budget(group, d)
    n = group.order
    used = sorted({abs(v) for v in word.letters})
    if len(used) <= 1:
        a = sum(abelianize(word))
        counts = np.zeros(n, dtype=np.int64)
        for start in range(0, n, BATCH):
            chunk = np.arange(start, min(start + BATCH, n), dtype=np.int64)
            counts += np.bincount(power_array(group, a, chunk), minlength=n)
    else:
        record = classes(group)
        per_rep = np.zeros(n, dtype=np.int64)
        per_rep[record.reps] = _class_totals(word.letters, used, group) // record.sizes
        counts = per_rep[record.labels]
    counts *= n ** (d - max(len(used), 1))
    return Distribution(group=group, counts=counts, total=total, mode="exact")


def _evaluate(letters: Sequence[int], columns: dict, group: Group) -> np.ndarray:
    """The word evaluated elementwise on index arrays.

    `columns` maps every generator in `letters` to an index array (all of
    one shape); an inverted letter reads that generator's column through
    the inverse table.  Each letter's column is lifted once, the word is
    multiplied out in the group's own form, and the product is lowered to
    indices once (`word_multiplier`).
    """
    lift, mul, lower = word_multiplier(group)
    inv_arr = group.inv_array()
    lifted = {v: lift(columns[v] if v > 0 else inv_arr[columns[-v]]) for v in set(letters)}
    state = None
    for v in letters:
        state = lifted[v] if state is None else mul(state, lifted[v])
    return lower(state)


def _class_totals(letters: Sequence[int], used: Sequence[int], group: Group) -> np.ndarray:
    """One total per conjugacy class, in the order of `classes(group).reps`,
    for a word whose letters use exactly the generators `used` (ascending,
    at least two).

    Since w(x^g) = w(x)^g, conjugating a tuple by g conjugates its value by
    g, so the first generator used need only run over class
    representatives, each weighted by its class size.  totals[i] is the
    number of tuples in G^len(used) whose value lies in the class of
    reps[i]; a class total divided by the class size is the exact count of
    each of its elements.
    """
    n = group.order
    record = classes(group)
    reps, sizes = record.reps, record.sizes
    inner = n ** (len(used) - 1)
    space = len(reps) * inner
    weighted = np.zeros(n, dtype=np.int64)
    for start in range(0, space, BATCH):
        first, rest = np.divmod(np.arange(start, min(start + BATCH, space), dtype=np.int64),
                                inner)
        columns = {used[0]: reps[first]}
        for g in reversed(used[1:]):
            rest, columns[g] = np.divmod(rest, n)
        values = _evaluate(letters, columns, group)
        # the first generator is the leading digit: the chunk spans reps lo..hi-1
        lo, hi = int(first[0]), int(first[-1]) + 1
        per_rep = np.bincount((first - lo) * n + values, minlength=(hi - lo) * n)
        weighted += sizes[lo:hi] @ per_rep.reshape(hi - lo, n)
    totals = np.zeros(n, dtype=np.int64)
    np.add.at(totals, record.labels, weighted)
    return totals[reps]


def monte_carlo_distribution(word: Word, group: Group, samples: int,
                             rng: Union[Rng, int]) -> Distribution:
    """Empirical pushforward from uniform tuples; deterministic per rng stream.

    When the exponent sums of the word have a nonzero gcd, the certificate
    tuples of `_certificate_columns` ride along in the first batch: their
    columns follow the drawn ones, so one evaluation yields both the sample
    and `certified`, and the draws are the same as without them.
    """
    if samples < 1:
        raise UnsupportedParameterError(f"samples must be >= 1, got {samples}")
    rng = as_rng(rng)
    n = group.order
    support = sorted({abs(v) for v in word.letters})
    counts = np.zeros(n, dtype=np.int64)
    if not support:
        counts[group.identity] = samples
        return Distribution(group=group, counts=counts, total=samples, mode="sampled")
    vec = abelianize(word)
    tail = _certificate_columns(word, group, vec) if gcd_of_vector(vec) else None
    certified = None
    done = 0
    while done < samples:
        b = min(BATCH, samples - done)
        columns = {g: rng.integers(0, n, size=b) for g in support}
        if done == 0 and tail is not None:
            columns = {g: np.concatenate((columns[g], tail[g])) for g in support}
        values = _evaluate(word.letters, columns, group)
        if done == 0 and tail is not None:
            certified = values[b:]
        counts += np.bincount(values[:b], minlength=n)
        done += b
    return Distribution(group=group, counts=counts, total=samples, mode="sampled",
                        certified=certified)


# ---------------------------------------------------------------------------
# Distances
# ---------------------------------------------------------------------------


def l1_uniform_distance(dist: Distribution) -> Union[Fraction, float]:
    """sum_g |P(g) - 1/|G||; Fraction in exact mode, float in sampled mode."""
    n = dist.group.order
    s = int(np.abs(dist.counts * n - dist.total).sum())
    if dist.mode == "exact":
        return Fraction(s, dist.total * n)
    return s / (dist.total * n)


# ---------------------------------------------------------------------------
# Image and power coverage
# ---------------------------------------------------------------------------


@dataclass(eq=False)
class ImageReport:
    """Word-map image versus the m-th powers, as read-only boolean masks
    over the carrier."""

    m: int
    image: np.ndarray
    powers: np.ndarray
    covers_powers: bool
    witness: Optional[int]  # least image element that is not an m-th power
    certificate: Optional[np.ndarray]  # sampled mode: every value w(g^b1, ..., g^bd)


def _class_union(labels: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Mask of every element whose class under `labels` holds one of `values`."""
    hit = np.zeros(labels.size, dtype=bool)
    hit[labels[values]] = True
    return hit[labels]


def _certificate_columns(word: Word, group: Group, vec: Sequence[int]) -> dict:
    """Columns of the tuples (r^b1, ..., r^bd), one per class representative r,
    for b the gcd certificate of the exponent-sum vector `vec`.

    By the certificate the word's values at every (g^b1, ..., g^bd) are
    exactly the m-th powers; they are computed by genuine evaluation, not
    by powering, so they certify that the word map itself attains them.
    Conjugating g by h conjugates its value by h, so the representatives'
    values fix the rest up to their classes.
    """
    reps = classes(group).reps
    coeffs = bezout_certificate(vec)[1]
    return {g: power_array(group, coeffs[g - 1], reps) for g in {abs(v) for v in word.letters}}


def image_and_power_coverage(word: Word, dist: Distribution,
                             m: Optional[int] = None) -> ImageReport:
    """Compare the word-map image seen by `dist` with the set of m-th powers.

    m defaults to the gcd of the exponent-sum vector and must be passed
    explicitly when that gcd is zero.  The image is the support of `dist`;
    in sampled mode the certificate values join it, so it is always a
    subset of the true image.

    Since (h r h^-1)^m = h r^m h^-1, the m-th powers and the certificate
    values are computed on class representatives r only (`classes`,
    cached on the group), each set then being the union of the classes
    they hit.  The certificate values come with a sampled `dist`
    (`certified`, evaluated with its sample).
    """
    group = dist.group
    vec = abelianize(word)
    gamma = gcd_of_vector(vec)
    if m is None:
        if gamma == 0:
            raise EmptyWordError(
                "exponent-sum vector is zero; pass the target power m explicitly"
            )
        m = gamma
    record = classes(group)
    labels = record.labels
    image = dist.counts != 0
    certificate = None
    if dist.mode == "sampled" and gamma > 0:
        if dist.certified is None:
            raise UnsupportedParameterError(
                "sampled distribution carries no certificate values; "
                "build it with monte_carlo_distribution")
        certificate = _class_union(labels, dist.certified)
        image |= certificate
    powers = _class_union(labels, power_array(group, m, record.reps))
    beyond = np.flatnonzero(image & ~powers)
    for mask in (image, powers, certificate):
        if mask is not None:
            mask.flags.writeable = False
    return ImageReport(m=m, image=image, powers=powers,
                       covers_powers=not (powers & ~image).any(),
                       witness=int(beyond[0]) if beyond.size else None,
                       certificate=certificate)
