"""Generating tuples and generation of direct powers.

For a finite group G the ordered d-tuples whose entries generate G can be
counted exactly by a prefix walk over the subgroup lattice: the count of
extensions of a prefix depends only on the subgroup the prefix generates,
so the recursion memoizes on (depth, subgroup), and each step tries one
element per double coset of that subgroup (one per conjugacy class while
the subgroup is trivial).  Both the double cosets of a subgroup and the
subgroups its tried elements generate with it are orbits, so each comes
from one batched `groups.orbit_labels` call per subgroup.  For the simple
groups in the catalog, Aut(G) permutes generating tuples freely, so the
number of orbits is the tuple count divided by |Aut(G)|; that orbit count
is exactly the largest N for which the direct power G^N is generated by d
elements.

Direct checks on G^N work with explicit tuples: N tuples of d entries each
combine into d diagonal steps of G^N, and a closure run decides generation
outright (capped so the carrier stays enumerable).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

from .errors import (
    BudgetExceededError,
    NotInCatalogError,
    UnsupportedParameterError,
    WordlabError,
)
from .groups import (
    DirectPowerGroup,
    Element,
    Group,
    _tuple_matrix,
    classes,
    closure_mask,
    orbit_labels,
    vector_multiplier,
)

# Orders of the automorphism groups of the simple groups in the catalog.
AUT_ORDERS = {
    ("alternating", 5): 120,
    ("alternating", 6): 1440,
    ("psl2", 7): 336,
    ("psl2", 11): 1320,
    ("psl2", 13): 2184,
}

# Largest |G|**d an exact generating-tuple count may cover.
GENERATION_TUPLE_BUDGET = 10**8
# Largest |G|**N for which direct powers are handled by explicit closure.
POWER_CLOSURE_CAP = 10**7


def double_coset_labels(group: Group, gens: Sequence[int]) -> np.ndarray:
    """label[x] = the least element of the double coset HxH, H = <gens>.

    HxH is the orbit of x under the maps x -> hx and x -> xh for h in
    `gens`, so one `orbit_labels` row labels every double coset at once.
    """
    mul_vec = vector_multiplier(group)
    everyone = np.arange(group.order, dtype=np.int64)
    maps = [mul_vec(h, everyone) for h in gens] + [mul_vec(everyone, h) for h in gens]
    return next(orbit_labels(group.order, maps))[0]


def count_generating_tuples(group: Group, d: int) -> int:
    """Number of ordered d-tuples of elements that generate the group.

    Walks prefixes depth-first; the number of completions depends only on
    the subgroup H generated so far, so results are memoized per (depth, H),
    with H held as a boolean mask.  The next entry g matters only through
    <H, g>, which is the same for every element of the double coset HgH, so
    one entry per double coset, its least element, is tried and weighted by
    the coset's size.  While H is trivial those cosets are single elements;
    there, since conjugation maps generating tuples to generating tuples,
    the entry runs over conjugacy-class representatives weighted by class
    size instead.  Each subgroup node makes two `orbit_labels` calls: one
    row labels every double coset at once, as the orbits of x -> hx and
    x -> xh for the prefix entries h, and one row per representative g
    gives <H, g> as the orbit of the identity under x -> xs for s in the
    prefix and g.  Cost scales with the subgroup lattice, not with |G|**d,
    but the raw tuple budget is still enforced up front.
    """
    if d < 0:
        raise UnsupportedParameterError("tuple length must be nonnegative")
    n = group.order
    if n**d > GENERATION_TUPLE_BUDGET:
        raise BudgetExceededError(
            f"{group.name}: |G|^{d} = {n**d} exceeds budget {GENERATION_TUPLE_BUDGET}"
        )
    if d == 0:
        return 1 if n == 1 else 0

    mul_vec = vector_multiplier(group)
    everyone = np.arange(n, dtype=np.int64)
    # every class but the identity's, which is reps[0]
    record = classes(group)
    class_reps, class_sizes = record.reps[1:], record.sizes[1:]
    # (depth, subgroup mask bytes) -> number of generating completions.
    memo = {}

    def completions(depth: int, gens: tuple, mask: np.ndarray) -> int:
        size = int(np.count_nonzero(mask))
        if size == n:
            return n ** (d - depth)
        if depth == d:
            return 0
        key = (depth, mask.tobytes())
        got = memo.get(key)
        if got is None:
            if size == 1:
                reps, weights = class_reps, class_sizes
            else:
                cosets = double_coset_labels(group, gens)
                reps = np.flatnonzero((cosets == everyone) & ~mask)
                weights = np.bincount(cosets, minlength=n)[reps]
            # entries inside H leave it as it is
            got = size * completions(depth + 1, gens, mask)
            # <H, g> is the orbit of the identity, index 0, under x -> xs
            blocks = orbit_labels(n, [mul_vec(everyone, h) for h in gens], reps.size,
                                  lambda lo, hi: mul_vec(everyone, reps[lo:hi, None]),
                                  stop=n // 2)
            wider = (row == 0 for block in blocks for row in block)
            for g, weight, sub in zip(reps.tolist(), weights.tolist(), wider):
                got += weight * completions(depth + 1, gens + (g,), sub)
            memo[key] = got
        return got

    return completions(0, (), everyone == group.identity)


@dataclass(frozen=True)
class HallReport:
    """Exact count data behind the largest d-generated power of a group.

    `max_power` is the number of Aut-orbits of generating d-tuples: the
    direct power G^N is d-generated exactly when N <= max_power.  The
    crude `sqrt_bound` = floor(2*sqrt(|G|)) must never exceed it for the
    catalog groups with d = 2; `consistent` records that comparison.
    """

    group_name: str
    order: int
    d: int
    tuple_count: int
    aut_order: int
    max_power: int
    sqrt_bound: int
    consistent: bool


def hall_max_power(group: Group, d: int = 2) -> HallReport:
    """Largest N with G^N generated by d elements, for catalog simple groups.

    Aut(G) acts freely on generating tuples (an automorphism fixing a
    generating tuple fixes every element), so the orbit count is an exact
    division; a nonzero remainder would mean the automorphism order or the
    tuple count is wrong and raises.
    """
    spec = getattr(group, "spec", None)
    key = (spec.kind, spec.parameter) if spec is not None else None
    aut_order = AUT_ORDERS.get(key)
    if aut_order is None:
        raise NotInCatalogError(
            f"no automorphism-order record for {group.name}; known: "
            + ", ".join(f"{k}:{p}" for k, p in sorted(AUT_ORDERS))
        )
    tuple_count = count_generating_tuples(group, d)
    if tuple_count % aut_order != 0:
        raise WordlabError(
            f"{group.name}: {tuple_count} generating {d}-tuples not divisible "
            f"by |Aut| = {aut_order}"
        )
    max_power = tuple_count // aut_order
    sqrt_bound = math.isqrt(4 * group.order)
    return HallReport(
        group_name=group.name,
        order=group.order,
        d=d,
        tuple_count=tuple_count,
        aut_order=aut_order,
        max_power=max_power,
        sqrt_bound=sqrt_bound,
        consistent=sqrt_bound <= max_power,
    )


def power_tuple_generates(
    group: Group, tuples: Sequence[Sequence[Union[Element, int]]]
) -> bool:
    """Decide whether N tuples of d elements generate G^N.

    Tuple j supplies coordinate j: the d joint steps are
    (tuples[0][i], ..., tuples[N-1][i]) for i < d, and generation is
    decided by explicit closure on the direct power.
    """
    rows = _tuple_matrix(group, tuples)
    copies = len(rows)
    if group.order**copies > POWER_CLOSURE_CAP:
        raise BudgetExceededError(
            f"{group.name}^{copies}: {group.order**copies} states exceed "
            f"cap {POWER_CLOSURE_CAP}"
        )
    power = DirectPowerGroup(group, copies)
    steps = [power.join(column) for column in rows.T.tolist()]
    return bool(closure_mask(power, steps).all())

