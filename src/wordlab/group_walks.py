"""Random walks on finite groups driven by a finite step set.

A walk starts at the identity and multiplies one step per tick on the
right, each step drawn uniformly and independently from a fixed set.  The
module computes the exact law after n steps by integer convolution,
tracks the L1 distance to uniform step by step, and detects the cyclic
obstruction that keeps some generating step sets from ever mixing.

Exact laws are kept as integer counts over the common denominator D**n,
where D is the number of steps, so distances to uniform come out as exact
Fractions.  The counts are int64 while every value a step can form stays
below 2**62, and python big integers from then on.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence, Union

import numpy as np

from .errors import (
    GroupMismatchError,
    NotGeneratingError,
    UnsupportedParameterError,
    WordlabError,
)
from .groups import (
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


@dataclass(frozen=True)
class StepSet:
    """A finite step set of distinct element indices, each step drawn with
    probability 1/|support|.  `uniform` builds one from elements or indices.
    """

    group: Group
    support: tuple

    def __post_init__(self):
        if not self.support:
            raise UnsupportedParameterError("step set must be nonempty")
        if len(set(self.support)) != len(self.support):
            raise UnsupportedParameterError("step set has repeated elements")
        _as_indices(self.group, self.support)  # IndexError for a step off the carrier

    @classmethod
    def uniform(cls, group: Group, steps: Sequence[Union[Element, int]]) -> "StepSet":
        # __post_init__ rejects an empty or repeated support
        return cls(group=group, support=tuple(_as_indices(group, steps).tolist()))


def _source_columns(group: Group, support: Sequence[int]) -> list:
    """For each step g, the column y -> y*g^-1: the state that s -> s*g
    sends to y, since right multiplication by g is a permutation."""
    mul_vec = vector_multiplier(group)
    everyone = np.arange(group.order, dtype=np.int64)
    return [mul_vec(everyone, group.inv(g)) for g in support]


def _convolve_step(counts: np.ndarray, sources: list) -> np.ndarray:
    """One tick, in the dtype of `counts` (int64 or python ints):
    new[y] = sum_g counts[y*g^-1]."""
    new = None
    for src in sources:
        new = counts[src] if new is None else new + counts[src]
    return new


def _check_walk(group: Group, steps: StepSet) -> None:
    if steps.group is not group and steps.group.name != group.name:
        raise GroupMismatchError(
            f"step set lives on {steps.group.name}, expected {group.name}"
        )
    _check_structure_cap(group)


def _walk_laws(group: Group, steps: StepSet, n: int):
    """Yield (counts, total) after 0, 1, ..., n steps: the law is counts/total,
    with total a python int.

    Each round right-multiplies by one step draw; the total grows by D,
    the number of steps.  No count or partial sum of a round exceeds its
    new total, so the counts stay int64 while the new total times |G| is
    below 2**62, a margin that also keeps every c*|G| - total exact in
    int64; before the first round that could reach it they become an
    object array of python ints.
    """
    _check_walk(group, steps)
    if n < 0:
        raise UnsupportedParameterError("step count must be nonnegative")
    D = len(steps.support)
    sources = _source_columns(group, steps.support)
    counts = np.zeros(group.order, dtype=np.int64)
    counts[group.identity] = 1
    total = 1
    yield counts, total
    for _ in range(n):
        if counts.dtype != object and total * D * group.order >= 1 << 62:
            counts = counts.astype(object)
        counts = _convolve_step(counts, sources)
        total *= D
        yield counts, total


def exact_walk_law(group: Group, steps: StepSet, n: int) -> Distribution:
    """Exact law of the n-step walk, as integer counts over D**n.

    The walk is the product s_1 s_2 ... s_n of independent draws, built by
    n rounds of right-multiplication convolution.  The counts come back
    as python ints.
    """
    for counts, total in _walk_laws(group, steps, n):
        pass
    return Distribution(group=group, counts=counts.astype(object, copy=False), total=total,
                        mode="exact")


def mixing_profile(group: Group, steps: StepSet, n_max: int) -> list:
    """Exact L1 distances to uniform after 0, 1, ..., n_max steps.

    The terms c*|G| - total sum to 0, so sum |c*|G| - total| is twice the
    sum of the positive ones, those with c > floor(total/|G|).
    """
    order = group.order
    profile = []
    for counts, total in _walk_laws(group, steps, n_max):
        above = counts > total // order
        excess = order * int(counts[above].sum()) - total * int(np.count_nonzero(above))
        profile.append(Fraction(2 * excess, total * order))
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
