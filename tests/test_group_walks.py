"""Walks on finite groups: exact laws, mixing, obstructions."""

from fractions import Fraction

import numpy as np
import pytest

from wordlab.errors import (
    GroupMismatchError,
    NotGeneratingError,
    TooLargeError,
    UnsupportedParameterError,
)
from wordlab.cli import main
from wordlab.generation import power_tuple_generates
from wordlab.group_walks import (
    ObstructionWitness,
    StepSet,
    cyclic_obstruction,
    exact_walk_law,
    mixing_profile,
)
from wordlab.groups import STRUCTURE_CAP, DirectPowerGroup, closure_mask
from wordlab.measure import l1_uniform_distance

from conftest import CATALOG, get_group, list_loop_mixing_profile, quotient_obstruction


def test_step_set_validation():
    s3 = get_group("symmetric:3")
    with pytest.raises(UnsupportedParameterError):
        StepSet.uniform(s3, [])
    with pytest.raises(UnsupportedParameterError):
        StepSet.uniform(s3, [1, 1])
    with pytest.raises(IndexError):
        StepSet.uniform(s3, [99])
    uni = StepSet.uniform(s3, [s3.element(1), 2, 3])
    assert uni.support == (1, 2, 3)


def test_exact_walks_refuse_groups_above_the_structure_cap(tmp_path):
    big = get_group("sl2:29")
    assert big.order == 24360 > STRUCTURE_CAP
    steps = StepSet.uniform(big, [1])
    with pytest.raises(TooLargeError):
        exact_walk_law(big, steps, 1)
    with pytest.raises(TooLargeError):
        mixing_profile(big, steps, 1)
    with pytest.raises(TooLargeError):
        cyclic_obstruction(big, steps)
    assert main(["mixing", "--group", "sl2:29", "--steps", "1", "--n", "1",
                 "--seed", "1", "--out", str(tmp_path)]) == 2


def test_single_step_walk_is_deterministic():
    s3 = get_group("symmetric:3")
    g = s3.index_of_cycles([(1, 2, 3)])
    steps = StepSet.uniform(s3, [g])
    for n in range(6):
        law = exact_walk_law(s3, steps, n)
        expected = s3.pow(g, n)
        for idx, c in enumerate(law.counts):
            assert c == (1 if idx == expected else 0)


@pytest.mark.parametrize("spec", ["symmetric:3", "alternating:4"])
def test_exact_law_matches_transition_matrix_power(spec):
    group = get_group(spec)
    steps = StepSet.uniform(group, [1, 2])
    order = group.order
    T = np.zeros((order, order))
    for g in steps.support:
        for s in range(order):
            T[s, group.mul(s, g)] += 0.5
    law = exact_walk_law(group, steps, 10)
    ref = np.linalg.matrix_power(T, 10)[group.identity]
    got = np.array([c / law.total for c in law.counts])
    assert float(np.max(np.abs(got - ref))) < 1e-12


def test_mixing_profile_matches_fresh_laws():
    a4 = get_group("alternating:4")
    steps = StepSet.uniform(a4, [1, 2])
    profile = mixing_profile(a4, steps, 12)
    assert len(profile) == 13
    assert profile[0] == Fraction(2 * (a4.order - 1), a4.order)
    for n in (0, 1, 5, 12):
        assert profile[n] == l1_uniform_distance(exact_walk_law(a4, steps, n))
    # convolution can never move the law away from uniform
    for a, b in zip(profile, profile[1:]):
        assert a >= b


def test_mixing_profile_matches_list_loop_on_psl2_13():
    # counts turn from int64 to python ints after step 51 here (D = 2,
    # |G| = 1092) and after step 36 on the three-step A4 walk (D = 3, |G| = 12);
    # numpy int64 arithmetic wraps silently, so only steps past the switch
    # can show an overflow
    group = get_group("psl2:13")
    steps = StepSet.uniform(group, [1, 2])
    assert mixing_profile(group, steps, 60) == list_loop_mixing_profile(group, [1, 2], 60)
    for n in (3, 60):
        law = exact_walk_law(group, steps, n)
        assert law.counts.dtype == object and all(type(c) is int for c in law.counts)
    a4 = get_group("alternating:4")
    support = [a4.index_of_cycles([(1, 2, 3)]), a4.index_of_cycles([(1, 2), (3, 4)]),
               a4.index_of_cycles([(1, 3, 4)])]
    three = StepSet.uniform(a4, support)
    assert mixing_profile(a4, three, 45) == list_loop_mixing_profile(a4, support, 45)


def test_a5_walk_mixes():
    a5 = get_group("alternating:5")
    steps = StepSet.uniform(
        a5,
        [a5.index_of_cycles([(1, 2, 3, 4, 5)]), a5.index_of_cycles([(1, 2, 3)])],
    )
    profile = mixing_profile(a5, steps, 60)
    assert cyclic_obstruction(a5, steps) is None
    assert profile[60] < Fraction(1, 10**5)
    assert all(a >= b for a, b in zip(profile, profile[1:]))


def test_cyclic_group_obstructions():
    c4 = get_group("cyclic:4")
    # single generator: fully periodic, modulus 4
    w = cyclic_obstruction(c4, StepSet.uniform(c4, [1]))
    assert w.modulus == 4
    assert w.labels == (0, 1, 2, 3)
    assert w.distance_floor() == Fraction(3, 2)
    # generator and its inverse: parity survives, modulus 2
    w = cyclic_obstruction(c4, StepSet.uniform(c4, [1, 3]))
    assert w.modulus == 2
    assert w.labels == (0, 1, 0, 1)
    assert w.distance_floor() == 1
    # lazy walk: no obstruction, and the law really mixes
    lazy = StepSet.uniform(c4, [0, 1])
    assert cyclic_obstruction(c4, lazy) is None
    assert float(mixing_profile(c4, lazy, 40)[-1]) < 1e-3


def test_obstruction_requires_generating_steps():
    a5 = get_group("alternating:5")
    steps = StepSet.uniform(a5, [a5.index_of_cycles([(1, 2, 3)])])
    with pytest.raises(NotGeneratingError):
        cyclic_obstruction(a5, steps)
    s3 = get_group("symmetric:3")
    with pytest.raises(GroupMismatchError):
        cyclic_obstruction(a5, StepSet.uniform(s3, [1]))


def test_sign_obstruction_on_s3():
    s3 = get_group("symmetric:3")
    t1 = s3.index_of_cycles([(1, 2)])
    t2 = s3.index_of_cycles([(1, 3)])
    steps = StepSet.uniform(s3, [t1, t2])
    w = cyclic_obstruction(s3, steps)
    assert w is not None and w.modulus == 2
    # the witness is the parity of the permutation
    for g in range(s3.order):
        perm = s3.lift(g).tolist()
        inversions = sum(
            1
            for i in range(len(perm))
            for j in range(i + 1, len(perm))
            if perm[i] > perm[j]
        )
        assert w.residue(g) == inversions % 2
    assert w.check_homomorphism(s3)
    # a corrupted label table fails the check
    bad = list(w.labels)
    bad[t1] ^= 1
    broken = ObstructionWitness(group_name=s3.name, modulus=2, labels=tuple(bad))
    assert not broken.check_homomorphism(s3)
    # the floor is tight here: the profile never dips below 1
    profile = mixing_profile(s3, steps, 80)
    assert min(profile) == w.distance_floor() == 1


def test_cyclic_obstruction_matches_the_quotient_table_route():
    # seeded step sets of one to four distinct elements on every group; the
    # witness from cosets must equal the one read off quotient tables
    groups = [get_group(spec) for spec in CATALOG + ("cyclic:12", "dihedral:5", "dihedral:6",
                                                     "symmetric:5")]
    groups += [DirectPowerGroup(get_group(base), 2) for base in ("symmetric:3", "cyclic:4",
                                                                 "dihedral:4")]
    gen = np.random.default_rng(15)
    compared = obstructed = 0
    for group in groups:
        for _ in range(40):
            size = int(gen.integers(1, min(4, group.order) + 1))
            support = gen.choice(group.order, size=size, replace=False).tolist()
            steps = StepSet.uniform(group, support)
            if not closure_mask(group, support).all():
                with pytest.raises(NotGeneratingError):
                    cyclic_obstruction(group, steps)
                continue
            w = cyclic_obstruction(group, steps)
            expected = quotient_obstruction(group, support)
            assert (None if w is None else (w.modulus, w.labels)) == expected, (group, support)
            compared += 1
            obstructed += w is not None
    assert compared >= 500 and obstructed >= 70


@pytest.mark.parametrize("spec, steps", [
    ("symmetric:3", [[(1, 2)], [(1, 3)]]),
    ("symmetric:5", [[(1, 2)], [(2, 3, 4, 5)]]),
])
def test_exact_witness_check_rejects_every_single_label_tamper(spec, steps):
    group = get_group(spec)
    w = cyclic_obstruction(group, StepSet.uniform(group, [group.index_of_cycles(c) for c in steps]))
    assert w is not None and w.modulus == 2 and w.check_homomorphism(group)
    for g in range(group.order):
        for value in (1 - w.labels[g], w.labels[g] + 2, -1):
            bad = w.labels[:g] + (value,) + w.labels[g + 1:]
            tampered = ObstructionWitness(group_name=w.group_name, modulus=2, labels=bad)
            assert not tampered.check_homomorphism(group), (g, value)
    with pytest.raises(GroupMismatchError):
        w.check_homomorphism(get_group("cyclic:6" if group.order != 6 else "cyclic:4"))


def test_parity_lock_despite_generation():
    # the two tuples generate S3 x S3, yet the walk on their diagonal steps
    # is trapped by a parity character of the product
    s3 = get_group("symmetric:3")
    t1 = (s3.index_of_cycles([(1, 2)]), s3.index_of_cycles([(1, 2, 3)]))
    t2 = (s3.index_of_cycles([(1, 2, 3)]), s3.index_of_cycles([(1, 2)]))
    assert power_tuple_generates(s3, [t1, t2])
    prod = DirectPowerGroup(s3, 2)
    word_steps = StepSet.uniform(
        prod, [prod.join((t1[0], t2[0])), prod.join((t1[1], t2[1]))]
    )
    w = cyclic_obstruction(prod, word_steps)
    assert w is not None and w.modulus == 2
