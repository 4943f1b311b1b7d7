"""Random walks on finite groups driven by a finite step set.

A walk starts at the identity and multiplies one step per tick on the
right, each step drawn independently from a fixed weighted set.  The
module computes the exact law after n steps by integer convolution,
tracks the L1 distance to uniform step by step, detects the cyclic
obstruction that keeps some generating step sets from ever mixing, and
compares the two natural ways of randomizing a power of a group (one
shared letter sequence across coordinates versus independent walks).

Exact laws are kept as python big integers over the common denominator
D**n, where D is the lcm of the step-weight denominators, so distances
to uniform come out as exact Fractions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence, Union

import numpy as np

from .errors import (
    DimensionMismatchError,
    GroupMismatchError,
    NotGeneratingError,
    UnsupportedParameterError,
    WordlabError,
)
from .groups import (
    DirectPowerGroup,
    Element,
    Group,
    _as_indices,
    _check_structure_cap,
    closure,
    commutator_subgroup,
    group_generators,
    right_orbit,
    vector_multiplier,
)
from .measure import Distribution
from .rng import Rng, as_rng, stream

# Largest |G|**copies for which joint statistics are tabulated directly.
JOINT_STATE_CAP = 10**6
# Sample rows processed per vectorized batch.
WALK_BATCH = 1 << 14


@dataclass(frozen=True)
class StepSet:
    """A finite weighted step set: distinct element indices plus Fractions.

    Weights must be positive and sum to 1.  `uniform` builds the equal-
    weight set, the common case throughout.
    """

    group: Group
    support: tuple
    weights: tuple

    def __post_init__(self):
        if not self.support:
            raise UnsupportedParameterError("step set must be nonempty")
        if len(set(self.support)) != len(self.support):
            raise UnsupportedParameterError("step set has repeated elements")
        if len(self.weights) != len(self.support):
            raise DimensionMismatchError(
                f"{len(self.weights)} weights for {len(self.support)} steps"
            )
        for w in self.weights:
            if not isinstance(w, Fraction) or w <= 0:
                raise UnsupportedParameterError("weights must be positive Fractions")
        if sum(self.weights) != 1:
            raise UnsupportedParameterError("weights must sum to 1")
        _as_indices(self.group, self.support)  # IndexError for a step off the carrier

    @classmethod
    def uniform(cls, group: Group, steps: Sequence[Union[Element, int]]) -> "StepSet":
        support = tuple(_as_indices(group, steps))
        # __post_init__ rejects an empty or repeated support
        weights = tuple(Fraction(1, len(support)) for _ in support)
        return cls(group=group, support=support, weights=weights)

    @property
    def size(self) -> int:
        return len(self.support)

    def denominator(self) -> int:
        """lcm of the weight denominators: one tick scales counts by this."""
        return math.lcm(*(w.denominator for w in self.weights))

    def __str__(self) -> str:
        parts = ", ".join(
            f"{self.group.element_repr(s)}:{w}" for s, w in zip(self.support, self.weights)
        )
        return f"steps[{parts}]"


def _source_columns(group: Group, support: Sequence[int]) -> list:
    """For each step g, the column y -> y*g^-1: the state that s -> s*g
    sends to y, since right multiplication by g is a permutation."""
    mul_vec = vector_multiplier(group)
    everyone = np.arange(group.order, dtype=np.int64)
    return [mul_vec(everyone, group.inv(g)) for g in support]


def _convolve_step(counts: np.ndarray, sources: list, int_weights: Sequence[int]) -> np.ndarray:
    """One tick on an object array of python ints: new[y] = sum_g w_g counts[y*g^-1]."""
    new = None
    for src, w in zip(sources, int_weights):
        term = counts[src] if w == 1 else counts[src] * w
        new = term if new is None else new + term
    return new


def _check_walk(group: Group, steps: StepSet) -> None:
    if steps.group is not group and steps.group.name != group.name:
        raise GroupMismatchError(
            f"step set lives on {steps.group.name}, expected {group.name}"
        )
    _check_structure_cap(group)


def _walk_laws(group: Group, steps: StepSet, n: int):
    """Yield (counts, total) after 0, 1, ..., n steps: the law is counts/total,
    with counts an object array of python ints.

    Each round right-multiplies by one step draw; the total grows by D,
    the lcm of the weight denominators.
    """
    _check_walk(group, steps)
    if n < 0:
        raise UnsupportedParameterError("step count must be nonnegative")
    D = steps.denominator()
    int_weights = [int(w * D) for w in steps.weights]
    sources = _source_columns(group, steps.support)
    counts = np.zeros(group.order, dtype=object)
    counts[group.identity] = 1
    total = 1
    yield counts, total
    for _ in range(n):
        counts = _convolve_step(counts, sources, int_weights)
        total *= D
        yield counts, total


def exact_walk_law(group: Group, steps: StepSet, n: int) -> Distribution:
    """Exact law of the n-step walk, as integer counts over D**n.

    The walk is the product s_1 s_2 ... s_n of independent draws, built by
    n rounds of right-multiplication convolution.
    """
    for counts, total in _walk_laws(group, steps, n):
        pass
    return Distribution(
        group=group,
        counts=counts.tolist(),
        total=total,
        mode="exact",
        d=1,
        label=f"walk n={n} {steps}",
    )


def mixing_profile(group: Group, steps: StepSet, n_max: int) -> list:
    """Exact L1 distances to uniform after 0, 1, ..., n_max steps."""
    order = group.order
    profile = []
    for counts, total in _walk_laws(group, steps, n_max):
        profile.append(Fraction(np.abs(counts * order - total).sum(), total * order))
    return profile


# ---------------------------------------------------------------------------
# Cyclic obstruction to mixing
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ObstructionWitness:
    """A surjective label map onto Z/modulus sending every step to 1.

    After n steps the walk sits entirely on the slice labeled n mod
    modulus, so the law misses the other modulus-1 slices forever.  The
    missed uniform mass plus the matching surplus give an L1 distance of
    at least 2*(modulus-1)/modulus, which is at least 1 whenever modulus
    is 2 or more.  `labels[g]` is the residue of element index g.
    """

    group_name: str
    modulus: int
    labels: tuple

    def residue(self, index: int) -> int:
        return self.labels[index]

    def distance_floor(self) -> Fraction:
        """Uniform mass on the slices the n-step law can never touch."""
        return 2 * Fraction(self.modulus - 1, self.modulus)

    def check_homomorphism(self, group: Group) -> bool:
        """label(x*s) = label(x) + label(s) mod modulus for every x and every
        s in `group_generators`.  Every element is a product of those s, so
        by induction this makes the labels a homomorphism, exactly; a label
        outside [0, modulus) fails at the product that lands on it."""
        if group.order != len(self.labels) or group.name != self.group_name:
            raise GroupMismatchError(
                f"witness for {self.group_name}, got {group.name}"
            )
        labels = np.asarray(self.labels, dtype=np.int64)
        s = group_generators(group)
        products = vector_multiplier(group)(np.arange(group.order)[:, None], s)
        return bool((labels[products] == (labels[:, None] + labels[s]) % self.modulus).all())


def cyclic_obstruction(group: Group, steps: StepSet) -> Optional[ObstructionWitness]:
    """Detect the parity-style obstruction for a generating step set.

    Requires the steps to generate the group.  With s1 the first step, let
    H = [G,G]<s s1^-1 : s a step>: a subgroup since [G,G] is normal, and
    normal since it contains [G,G].  Every step lies in the coset H s1, so
    the steps generate G/H = <H s1>, a cyclic group of order |G|/|H| on
    which every step maps to the same generator.  If that order is 1 the
    walk can mix; otherwise it is returned with the label k of every
    element of the coset H s1^k.
    """
    _check_walk(group, steps)
    generated = closure(group, steps.support)
    if len(generated) != group.order:
        raise NotGeneratingError(
            f"steps generate only {len(generated)} of {group.order} elements of {group.name}"
        )
    mul_vec = vector_multiplier(group)
    first = steps.support[0]
    diffs = mul_vec(np.array(steps.support, dtype=np.int64), group.inv(first))
    drift = right_orbit(mul_vec, group.order, sorted(commutator_subgroup(group)), diffs)
    modulus = group.order // int(np.count_nonzero(drift))
    if modulus == 1:
        return None
    labels = np.full(group.order, -1, dtype=np.int64)
    coset = np.flatnonzero(drift)
    for k in range(modulus):
        labels[coset] = k
        coset = mul_vec(coset, first)
    if (labels < 0).any():
        raise WordlabError(
            f"{group.name}: step images do not generate the drift quotient"
        )
    labels = tuple(labels.tolist())
    for s in steps.support:
        if labels[s] != 1 % modulus:
            raise WordlabError(f"{group.name}: step label is not 1 mod {modulus}")
    return ObstructionWitness(group_name=group.name, modulus=modulus, labels=labels)


# ---------------------------------------------------------------------------
# Shared-letters versus independent-walks comparison on G^copies
# ---------------------------------------------------------------------------


@dataclass
class PowerWalkReport:
    """Sampled comparison of two randomizations of G^copies.

    The word route draws one letter sequence per sample and applies the
    j-th coordinate of each chosen tuple to coordinate j, so coordinates
    share their randomness.  The walk route steps every coordinate with
    its own independent letter sequence.  Marginals must agree; the joint
    laws agree only when the tuples do not lock coordinates together.
    """

    group_name: str
    copies: int
    d: int
    n: int
    samples: int
    word_marginal_counts: np.ndarray  # (copies, |G|)
    walk_marginal_counts: np.ndarray  # (copies, |G|)
    marginal_l1: list  # per coordinate, word route vs walk route
    word_uniform_l1: list  # per coordinate
    walk_uniform_l1: list  # per coordinate
    joint_size: Optional[int] = None
    word_joint_counts: Optional[np.ndarray] = None
    walk_joint_counts: Optional[np.ndarray] = None
    joint_l1: Optional[float] = None
    word_joint_uniform_l1: Optional[float] = None
    walk_joint_uniform_l1: Optional[float] = None

    def max_marginal_l1(self) -> float:
        return max(self.marginal_l1)


def _tuple_matrix(group: Group, tuples: Sequence[Sequence[Union[Element, int]]]):
    """Validate a list of equal-length tuples; return a (copies, d) index array."""
    if not tuples:
        raise DimensionMismatchError("need at least one tuple")
    rows = [_as_indices(group, t) for t in tuples]
    d = len(rows[0])
    if d == 0:
        raise DimensionMismatchError("tuples must be nonempty")
    for idx in rows:
        if len(idx) != d:
            raise DimensionMismatchError(
                f"tuple length {len(idx)} differs from first tuple length {d}"
            )
    return np.array(rows, dtype=np.int64)


def _two_streams(rng: Rng):
    """Two decorrelated generators from one seed or generator."""
    if isinstance(rng, (int, np.integer)):
        return stream(int(rng), 101), stream(int(rng), 102)
    gen = as_rng(rng)
    seeds = gen.integers(0, 2**63, size=2)
    return np.random.default_rng(int(seeds[0])), np.random.default_rng(int(seeds[1]))


def power_walk_equivalence(
    group: Group,
    tuples: Sequence[Sequence[Union[Element, int]]],
    n: int,
    samples: int,
    rng: Rng,
) -> PowerWalkReport:
    """Sample both randomizations of G^copies and tabulate their agreement.

    `tuples` is a list of d-tuples of group elements.  In the word route a
    single letter sequence is drawn per sample and letter i multiplies
    coordinate j by tuples[j][i], so all coordinates share their
    randomness; in the walk route every coordinate draws its own letters.
    Marginal counts, their pairwise L1 discrepancies, and distances to
    uniform are always reported; joint statistics are tabulated when
    |G|**copies fits the cap.
    """
    if n < 0:
        raise UnsupportedParameterError("step count must be nonnegative")
    if samples < 1:
        raise UnsupportedParameterError("need at least one sample")
    # gen_matrix[i, j] = element applied to coordinate j when letter i is drawn.
    gen_matrix = _tuple_matrix(group, tuples).T
    d, copies = gen_matrix.shape
    order = group.order
    coords = np.arange(copies)
    # states are rows of coordinates: the lifted form of G^copies
    power = DirectPowerGroup(group, copies)
    joint_size = order**copies if order**copies <= JOINT_STATE_CAP else None

    word_marg = np.zeros((copies, order), dtype=np.int64)
    walk_marg = np.zeros((copies, order), dtype=np.int64)
    word_joint = walk_joint = None
    if joint_size is not None:
        word_joint = np.zeros(joint_size, dtype=np.int64)
        walk_joint = np.zeros(joint_size, dtype=np.int64)

    rng_word, rng_walk = _two_streams(rng)
    # Per tick the word route draws one letter per sample, shared by all
    # coordinates; the walk route an independent letter per coordinate.
    routes = ((rng_word, (), word_marg, word_joint), (rng_walk, (copies,), walk_marg, walk_joint))
    done = 0
    while done < samples:
        chunk = min(WALK_BATCH, samples - done)
        for gen, letter_shape, marg, joint in routes:
            states = np.full((chunk, copies), group.identity, dtype=np.int64)
            for _ in range(n):
                letters = gen.integers(0, d, size=(chunk, *letter_shape))
                states = power.mul_lifted(states, gen_matrix[letters.reshape(chunk, -1), coords])
            for j in range(copies):
                marg[j] += np.bincount(states[:, j], minlength=order)
            if joint is not None:
                joint += np.bincount(power.lower(states), minlength=joint_size)
        done += chunk

    def emp_l1(a: np.ndarray, b: np.ndarray) -> float:
        return float(np.abs(a / samples - b / samples).sum())

    def unif_l1(a: np.ndarray) -> float:
        return float(np.abs(a / samples - 1.0 / len(a)).sum())

    marginal_l1 = [emp_l1(word_marg[j], walk_marg[j]) for j in range(copies)]
    word_uniform = [unif_l1(word_marg[j]) for j in range(copies)]
    walk_uniform = [unif_l1(walk_marg[j]) for j in range(copies)]
    report = PowerWalkReport(
        group_name=group.name,
        copies=copies,
        d=d,
        n=n,
        samples=samples,
        word_marginal_counts=word_marg,
        walk_marginal_counts=walk_marg,
        marginal_l1=marginal_l1,
        word_uniform_l1=word_uniform,
        walk_uniform_l1=walk_uniform,
        joint_size=joint_size,
        word_joint_counts=word_joint,
        walk_joint_counts=walk_joint,
    )
    if joint_size is not None:
        report.joint_l1 = emp_l1(word_joint, walk_joint)
        report.word_joint_uniform_l1 = unif_l1(word_joint)
        report.walk_joint_uniform_l1 = unif_l1(walk_joint)
    return report
