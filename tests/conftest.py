"""Shared fixtures and independent reference computations.

The helpers here deliberately avoid the library's vectorized paths: brute
pushforwards run scalar loops over full tuple spaces, subgroups and
conjugacy classes are built by scalar orbit walks, and the symmetric-group
action on alternating-group pairs is recomputed from one-line permutations.
They exist so the fast implementations always have a slow, obviously-correct
counterpart to be compared against.
"""

import dataclasses
import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import settings

from wordlab.errors import UnsupportedParameterError
from wordlab.groups import (
    TABLE_BLOCK,
    PermutationGroup,
    closure,
    commutator_subgroup,
    construct_group,
    power_array,
    quotient_group,
    vector_multiplier,
)
from wordlab.measure import ImageReport, _evaluate
from wordlab.words import Word, abelianize, bezout_certificate, evaluate_indices, gcd_of_vector

settings.register_profile("suite", deadline=None, derandomize=True, max_examples=60)
settings.load_profile("suite")

CATALOG = (
    "cyclic:2", "cyclic:4", "cyclic:6", "dihedral:4",
    "symmetric:3", "symmetric:4", "alternating:4", "alternating:5",
    "alternating:6", "sl2:5", "sl2:7", "psl2:7", "psl2:11", "psl2:13",
)

_GROUP_CACHE = {}


def get_group(spec: str):
    if spec not in _GROUP_CACHE:
        _GROUP_CACHE[spec] = construct_group(spec)
    return _GROUP_CACHE[spec]


@pytest.fixture(scope="session")
def a5():
    return get_group("alternating:5")


@pytest.fixture(scope="session")
def s3():
    return get_group("symmetric:3")


@pytest.fixture(scope="session")
def s4():
    return get_group("symmetric:4")


def brute_pushforward(word: Word, group) -> np.ndarray:
    """Scalar enumeration of the word map over the full tuple space."""
    counts = np.zeros(group.order, dtype=np.int64)
    for tup in itertools.product(range(group.order), repeat=word.rank):
        counts[evaluate_indices(word, group, tup)] += 1
    return counts


def l1_distance(a, b):
    """sum_g |P_a(g) - P_b(g)| between two laws on one carrier: a Fraction
    when both are exact, a float otherwise."""
    if a.group.order != b.group.order:
        raise UnsupportedParameterError("distributions live on different carriers")
    prod = a.counts.astype(object) * b.total - b.counts.astype(object) * a.total
    s = int(np.abs(prod).sum())
    if a.mode == "exact" and b.mode == "exact":
        return Fraction(s, a.total * b.total)
    return s / (a.total * b.total)


def generated_subgroup(group, gens) -> frozenset:
    """Subgroup generated by gens, by scalar worklist saturation."""
    seen = {group.identity}
    frontier = [group.identity]
    while frontier:
        nxt = []
        for x in frontier:
            for g in gens:
                y = group.mul(x, g)
                if y not in seen:
                    seen.add(y)
                    nxt.append(y)
        frontier = nxt
    return frozenset(seen)


def brute_orbit_labels(n: int, maps) -> list:
    """label[x] = the least point of the orbit of x under the permutations
    `maps` of range(n), by a scalar worklist walk from each point."""
    labels = [None] * n
    for x in range(n):
        if labels[x] is None:
            orbit, frontier = {x}, [x]
            while frontier:
                y = frontier.pop()
                for m in maps:
                    for z in (int(m[y]), list(m).index(y)):  # image and preimage
                        if z not in orbit:
                            orbit.add(z)
                            frontier.append(z)
            for y in orbit:
                labels[y] = min(orbit)
    return labels


def all_commutators_subgroup(group) -> frozenset:
    """[G, G] from all |G|^2 commutators a^-1 b^-1 a b (the backend's own
    `mul_vec`, in row blocks), closed by scalar worklist saturation."""
    n = group.order
    everyone = np.arange(n)
    inv = np.array([group.inv(a) for a in range(n)])
    seen = np.zeros(n, dtype=bool)
    for lo in range(0, n, 256):
        a = np.arange(lo, min(lo + 256, n))[:, None]
        seen[group.mul_vec(group.mul_vec(inv[a], inv), group.mul_vec(a, everyone))] = True
    sub, gens = frozenset({group.identity}), []
    for c in np.flatnonzero(seen).tolist():
        if c not in sub:
            gens.append(c)
            sub = generated_subgroup(group, gens)
    return sub


def blocked_native_table(group) -> np.ndarray:
    """The whole int32 Cayley table from the backend's own `mul_vec`, in row
    blocks of about TABLE_BLOCK products, with no row composed from another."""
    n = group.order
    table = np.empty((n, n), dtype=np.int32)
    cols = np.arange(n, dtype=np.int64)
    step = max(1, TABLE_BLOCK // n)
    for a in range(0, n, step):
        rows = np.arange(a, min(a + step, n), dtype=np.int64)
        table[a:a + step] = group.mul_vec(rows[:, None], cols)
    return table


def sl2_matrices(p: int) -> np.ndarray:
    """Rows (a, b, c, d) of every 2x2 matrix mod p with ad - bc = 1, in
    lexicographic order, found by testing all p^4 matrices (one a at a time)."""
    b, c, d = (v.ravel() for v in np.meshgrid(*[np.arange(p)] * 3, indexing="ij"))
    one_plus_bc = (1 + b * c) % p
    blocks = []
    for a in range(p):
        keep = (a * np.arange(p) % p)[d] == one_plus_bc
        blocks.append(np.stack([np.full(keep.sum(), a), b[keep], c[keep], d[keep]], axis=1))
    return np.concatenate(blocks)


def conjugacy_classes(group) -> list:
    """Partition of element indices into conjugacy classes (orbit walk)."""
    n = group.order
    mul, inv = group.mul, group.inv
    seen = [False] * n
    classes = []
    for start in range(n):
        if seen[start]:
            continue
        orbit = {start}
        frontier = [start]
        while frontier:
            x = frontier.pop()
            for g in range(n):
                y = mul(mul(g, x), inv(g))
                if y not in orbit:
                    orbit.add(y)
                    frontier.append(y)
        for x in orbit:
            seen[x] = True
        classes.append(frozenset(orbit))
    return classes


def orbit_class_labels(group) -> np.ndarray:
    """label[x] = the least index in the class of x, with the classes found
    in index order, each as one whole orbit {h x h^-1 : h in G} (2|G|
    products per class)."""
    n = group.order
    mul_vec = vector_multiplier(group)
    carrier = np.arange(n, dtype=np.int64)
    inv_arr = group.inv_array()
    labels = np.full(n, -1, dtype=np.int64)
    for x in range(n):
        if labels[x] < 0:
            labels[mul_vec(mul_vec(carrier, x), inv_arr)] = x
    return labels


def full_carrier_coverage(word: Word, dist, m=None) -> ImageReport:
    """The coverage report of `dist` with no class reduction: the m-th
    powers are g^m for every g, and in sampled mode the certificate is the
    word evaluated at (g^b1, ..., g^bd) for every g."""
    group = dist.group
    vec = abelianize(word)
    gamma = gcd_of_vector(vec)
    m = gamma if m is None else m
    carrier = np.arange(group.order)
    image = set(np.flatnonzero(dist.counts).tolist())
    certificate = None
    if dist.mode == "sampled" and gamma > 0:
        _, coeffs = bezout_certificate(vec)
        columns = {g: power_array(group, coeffs[g - 1], carrier)
                   for g in {abs(v) for v in word.letters}}
        certificate = set(_evaluate(word.letters, columns, group).tolist())
        image |= certificate
    powers = set(power_array(group, m, carrier).tolist())

    def mask(values):
        out = np.zeros(group.order, dtype=bool)
        out[list(values)] = True
        return out

    return ImageReport(m=m, image=mask(image), powers=mask(powers),
                       covers_powers=powers <= image,
                       witness=min(image - powers, default=None),
                       certificate=None if certificate is None else mask(certificate))


def assert_same_coverage(got: ImageReport, want: ImageReport) -> None:
    """Field by field: the same m, verdict and witness, and equal masks."""
    for f in dataclasses.fields(ImageReport):
        a, b = getattr(got, f.name), getattr(want, f.name)
        if isinstance(b, np.ndarray):
            assert isinstance(a, np.ndarray) and a.dtype == bool, f.name
            assert np.array_equal(a, b), f.name
        else:
            assert a == b and type(a) is type(b), f.name


def comb_closed_walk_count(d: int, n: int) -> int:
    """Closed n-step walks on Z^d, assigning slots axis by axis with two
    fresh binomials per term: C(r, 2k) * C(2k, k) for 2k of r free slots."""
    prev = [1] + [0] * n
    for _ in range(d):
        cur = [0] * (n + 1)
        for used, w in enumerate(prev):
            for k in range((n - used) // 2 + 1):
                cur[used + 2 * k] += w * math.comb(n - used, 2 * k) * math.comb(2 * k, k)
        prev = cur
    return prev[n]


def s5_conjugation_maps(alt5: PermutationGroup) -> list:
    """Index maps of Aut(A5) = S5 acting on A5 by conjugation.

    Each map sends the index of x to the index of s x s^-1, for one s in
    S5 (one-line tuples over 0..4).
    """
    maps = []
    for s in itertools.permutations(range(5)):
        s_inv = [0] * 5
        for i, v in enumerate(s):
            s_inv[v] = i
        table = []
        for idx in range(alt5.order):
            x = alt5.lift(idx).tolist()
            conj = tuple(s[x[s_inv[i]]] for i in range(5))
            table.append(alt5.index_of_perm(conj))
        maps.append(tuple(table))
    return maps


def roll_torus_law(side: int, d: int, n: int) -> np.ndarray:
    """Float64 n-step walk law on (Z/side)^d: every step rolls the whole
    torus once per axis and sign and divides by 2d."""
    probs = np.zeros((side,) * d, dtype=np.float64)
    probs[(0,) * d] = 1.0
    for _ in range(n):
        nxt = np.zeros_like(probs)
        for axis in range(d):
            nxt += np.roll(probs, 1, axis=axis)
            nxt += np.roll(probs, -1, axis=axis)
        probs = nxt / (2 * d)
    return probs


def remainder_gcd_statistics(gammas: np.ndarray, gcd_cap: int, moduli) -> tuple:
    """(tail count, zero count, gamma counts, divisible count per modulus) of
    endpoint gcds, by one comparison pass per count and one remainder pass
    per modulus."""
    tail = int(np.count_nonzero(gammas > gcd_cap))
    zero = int(np.count_nonzero(gammas == 0))
    head = np.bincount(gammas[gammas <= gcd_cap], minlength=gcd_cap + 1)
    counts = {str(v): int(c) for v, c in enumerate(head) if c}
    return tail, zero, counts, [int(np.count_nonzero(gammas % q == 0)) for q in moduli]


def int64_draws(rng, m: int, count: int) -> np.ndarray:
    return rng.integers(0, m, size=count, dtype=np.int64)


def bincount_endpoints(d: int, n: int, samples: int, rng, batch_elems: int,
                       draw=int64_draws) -> np.ndarray:
    """Walk endpoints from int64 step draws, `draw(rng, 2d, count)` once per
    batch of batch_elems // n rows, one batch after another, each counted by
    one bincount over row-offset step kinds."""
    out = np.zeros((samples, d), dtype=np.int64)
    if n == 0:
        return out
    batch = max(1, batch_elems // n)
    for done in range(0, samples, batch):
        b = min(batch, samples - done)
        draws = draw(rng, 2 * d, b * n).astype(np.int64).reshape(b, n)
        offsets = draws + (np.arange(b, dtype=np.int64) * (2 * d))[:, None]
        cnt = np.bincount(offsets.ravel(), minlength=b * 2 * d).reshape(b, 2 * d)
        out[done : done + b] = cnt[:, 0::2] - cnt[:, 1::2]
    return out


def list_mod_law_counts(d: int, q: int, n: int) -> list:
    """Counts of the n-step walks ending at each state of (Z/q)^d (flat
    index, coordinate 0 most significant), as python ints: one list
    comprehension per step, each state summing its 2d neighbours."""
    states = list(itertools.product(range(q), repeat=d))
    index = {s: i for i, s in enumerate(states)}
    nbr = [tuple(index[s[:a] + ((s[a] + e) % q,) + s[a + 1:]]
                 for a in range(d) for e in (1, -1)) for s in states]
    counts = [0] * len(states)
    counts[0] = 1
    for _ in range(n):
        counts = [sum(counts[j] for j in nbr[s]) for s in range(len(states))]
    return counts


def broadcast_gcd_tail(d: int, n: int, gcd_cap: int, box_radius: int):
    """Pr[gcd > gcd_cap] and Pr[gcd = v] for v <= max(2 gcd_cap, 10) of the
    n-step law on the torus of side 2 box_radius + 1, with the gcd grid built
    by one broadcast np.gcd pass per axis."""
    side = 2 * box_radius + 1
    probs = roll_torus_law(side, d, n)
    signed = np.arange(side, dtype=np.int64)
    signed[signed > box_radius] -= side
    mags = np.abs(signed)
    gamma = np.zeros((side,) * d, dtype=np.int64)
    for axis in range(d):
        shape = [1] * d
        shape[axis] = side
        gamma = np.gcd(gamma, mags.reshape(shape))
    flat_gamma, flat_probs = gamma.ravel(), probs.ravel()
    law = np.bincount(flat_gamma, weights=flat_probs)
    tail = float(flat_probs[flat_gamma > gcd_cap].sum())
    head_cap = min(len(law) - 1, max(2 * gcd_cap, 10))
    return tail, {str(v): float(law[v]) for v in range(head_cap + 1)}


def list_loop_mixing_profile(group, support, n_max: int) -> list:
    """Exact L1 distances to uniform of the uniform walk on `support` after
    0..n_max steps, pushing python-int counts along scalar products; counts
    are kept over |support| to the power of the step count."""
    order = group.order
    counts = [0] * order
    counts[group.identity] = 1
    total = 1
    profile = []
    for step in range(n_max + 1):
        if step:
            new = [0] * order
            for g in support:
                for src, c in enumerate(counts):
                    if c:
                        new[group.mul(src, g)] += c
            counts = new
            total *= len(support)
        profile.append(Fraction(sum(abs(c * order - total) for c in counts), total * order))
    return profile


def quotient_obstruction(group, support):
    """(modulus, labels) of the cyclic obstruction of a generating step set,
    or None, through quotient tables: G/[G,G], then its quotient by the
    subgroup generated by the step images over the first one's, labelled by
    scalar discrete logs to the base of the first step's image."""
    abelian = quotient_group(group, commutator_subgroup(group), name=f"{group.name}/commutator")
    images = [abelian.projection[s] for s in support]
    inv_first = abelian.inv(images[0])
    diffs = {abelian.mul(img, inv_first) for img in images[1:]} - {abelian.identity}
    drift = closure(abelian, diffs) if diffs else {abelian.identity}
    modulus = abelian.order // len(drift)
    if modulus == 1:
        return None
    quot = quotient_group(abelian, drift, name=f"{group.name}/walk-drift")
    sigma = quot.projection[images[0]]
    dlog, x = {quot.identity: 0}, sigma
    while x != quot.identity:
        dlog[x] = len(dlog)
        x = quot.mul(x, sigma)
    assert len(dlog) == quot.order
    return modulus, tuple(dlog[quot.projection[abelian.projection[g]]] for g in range(group.order))
