"""Generating tuples and direct-power generation."""

import itertools
import math

import pytest

from wordlab.cli import main
from wordlab.errors import (
    BudgetExceededError,
    DimensionMismatchError,
    GroupMismatchError,
    NotInCatalogError,
    UnsupportedParameterError,
)
from wordlab.generation import (
    AUT_ORDERS,
    count_generating_tuples,
    double_coset_labels,
    hall_max_power,
    power_tuple_generates,
)
from wordlab.groups import (
    DirectPowerGroup,
    closure,
    closure_mask,
    construct_group,
)

from conftest import CATALOG, generated_subgroup, get_group, s5_conjugation_maps


def brute_tuple_count(group, d=2) -> int:
    return sum(1 for tup in itertools.product(range(group.order), repeat=d)
               if len(generated_subgroup(group, tup)) == group.order)


def test_closure_decides_generation():
    a5 = get_group("alternating:5")
    five = a5.index_of_cycles([(1, 2, 3, 4, 5)])
    three = a5.index_of_cycles([(1, 2, 3)])
    assert closure_mask(a5, [five, three]).all()
    assert len(closure(a5, [five, three])) == 60
    assert not closure_mask(a5, [three]).all()
    a4 = get_group("alternating:4")
    dd1 = a4.index_of_cycles([(1, 2), (3, 4)])
    dd2 = a4.index_of_cycles([(1, 3), (2, 4)])
    assert len(closure(a4, (dd1, dd2))) == 4
    assert not closure_mask(a4, [dd1, dd2]).all()
    # no generators: the trivial subgroup, all of the trivial group only
    assert closure_mask(a4, []).sum() == 1
    assert closure_mask(construct_group("cyclic:1"), []).all()
    with pytest.raises(GroupMismatchError, match="at least one generator"):
        closure(a4, [])


def test_indices_outside_the_carrier_raise_index_error(tmp_path):
    a5 = get_group("alternating:5")
    assert len(closure(a5, [1, 15])) == 60
    # -45 and 75 are 15 mod 60: neither may stand in for 15
    for call, bad in ((lambda: closure(a5, [1, -45]), -45),
                      (lambda: power_tuple_generates(a5, [(1, 75)]), 75),
                      (lambda: closure(a5, [1, 75]), 75),
                      (lambda: closure(a5, [60]), 60)):
        with pytest.raises(IndexError, match=f"index {bad} out of range for alternating:5"):
            call()
    assert main(["mixing", "--seed", "1", "--group", "alternating:5", "--n", "5",
                 "--steps", "1,75", "--out", str(tmp_path)]) == 1
    # elements and ints mix; an element of another group is refused
    assert closure(a5, [a5.element(1), 15]) == closure(a5, [1, 15])
    with pytest.raises(GroupMismatchError, match="generator from symmetric:3"):
        closure(a5, [a5.element(1), get_group("symmetric:3").element(1)])


@pytest.mark.parametrize("spec", [s for s in CATALOG if get_group(s).order <= 60])
def test_pair_count_matches_brute_force(spec):
    group = get_group(spec)
    assert count_generating_tuples(group, 2) == brute_tuple_count(group)


def test_triple_count_matches_brute_force():
    s4 = get_group("symmetric:4")
    assert count_generating_tuples(s4, 3) == brute_tuple_count(s4, 3) == 10080
    a4 = get_group("alternating:4")
    assert count_generating_tuples(a4, 3) == brute_tuple_count(a4, 3) == 1560
    # pinned: P. Hall's Eulerian function of A5 at d = 3
    assert count_generating_tuples(get_group("alternating:5"), 3) == 200160


def test_count_without_a_table_matches_brute_force():
    # a direct power has no table: its maps are native products of G^2
    power = DirectPowerGroup(get_group("symmetric:3"), 2)
    assert power.order == 36 and not power.has_table
    assert count_generating_tuples(power, 2) == brute_tuple_count(power, 2)


@pytest.mark.parametrize("spec", ("symmetric:4", "alternating:5"))
def test_double_coset_labels_match_brute_force(spec):
    # every cyclic subgroup H = <h>: label[x] is the least element of HxH
    group = get_group(spec)
    for h in range(group.order):
        sub = generated_subgroup(group, (h,))
        labels = double_coset_labels(group, (h,))
        for x in range(group.order):
            coset = {group.mul(group.mul(a, x), b) for a in sub for b in sub}
            assert labels[x] == min(coset)


# (ordered generating pairs, largest 2-generated power) per AUT_ORDERS entry
HALL_PAIRS = {
    "alternating:5": (2280, 19),
    "alternating:6": (76320, 53),
    "psl2:7": (19152, 57),
    "psl2:11": (335280, 254),
    "psl2:13": (1081080, 495),
}


@pytest.mark.parametrize("spec", [f"{kind}:{p}" for kind, p in sorted(AUT_ORDERS)])
def test_hall_max_power_for_every_aut_orders_entry(spec):
    report = hall_max_power(get_group(spec), 2)
    assert (report.tuple_count, report.max_power) == HALL_PAIRS[spec]
    assert report.consistent


def test_tuple_count_special_values():
    # ordered pairs generating A5: the reference constant for the catalog
    assert count_generating_tuples(get_group("alternating:5"), 2) == 2280
    # cyclic groups, d = 1: Euler's totient
    assert count_generating_tuples(get_group("cyclic:6"), 1) == 2
    assert count_generating_tuples(get_group("cyclic:4"), 1) == 2
    # C2, d = 3: any tuple containing the nontrivial element
    assert count_generating_tuples(construct_group("cyclic:2"), 3) == 7
    # d = 0 generates only the trivial group
    assert count_generating_tuples(get_group("symmetric:3"), 0) == 0
    assert count_generating_tuples(construct_group("cyclic:1"), 0) == 1


def test_tuple_count_guards():
    with pytest.raises(UnsupportedParameterError):
        count_generating_tuples(get_group("symmetric:3"), -1)
    with pytest.raises(BudgetExceededError):
        count_generating_tuples(get_group("symmetric:9"), 2)


def test_a5_automorphisms_act_freely_on_generating_pairs():
    a5 = get_group("alternating:5")
    maps = s5_conjugation_maps(a5)
    assert len(maps) == AUT_ORDERS[("alternating", 5)] == 120
    assert len({tuple(m) for m in maps}) == 120
    # each map is an automorphism: spot-check the product rule
    import numpy as np

    rng = np.random.default_rng(5)
    pairs = rng.integers(0, 60, size=(50, 2))
    for m in maps[:10]:
        for a, b in pairs:
            assert m[a5.mul(int(a), int(b))] == a5.mul(m[int(a)], m[int(b)])
    # the orbit of one generating pair under all 120 maps has full size
    five = a5.index_of_cycles([(1, 2, 3, 4, 5)])
    three = a5.index_of_cycles([(1, 2, 3)])
    orbit = {(m[five], m[three]) for m in maps}
    assert len(orbit) == 120
    assert all(closure_mask(a5, pair).all() for pair in orbit)


def test_hall_report_for_a5():
    a5 = get_group("alternating:5")
    rep = hall_max_power(a5, 2)
    assert rep.order == 60
    assert rep.tuple_count == 2280
    assert rep.aut_order == 120
    assert rep.max_power == 19
    assert rep.sqrt_bound == math.isqrt(240) == 15
    assert rep.consistent


def test_hall_requires_catalog_entry():
    with pytest.raises(NotInCatalogError):
        hall_max_power(get_group("symmetric:4"), 2)


def test_power_tuple_generation():
    a5 = get_group("alternating:5")
    five = a5.index_of_cycles([(1, 2, 3, 4, 5)])
    three = a5.index_of_cycles([(1, 2, 3)])
    other = a5.index_of_cycles([(1, 2, 4)])
    t = (five, three)
    t2 = (five, other)
    assert closure_mask(a5, t).all() and closure_mask(a5, t2).all()
    # one copy: plain generation
    assert power_tuple_generates(a5, [t])
    # a repeated tuple locks the diagonal subgroup
    assert not power_tuple_generates(a5, [t, t])
    # tuples from different automorphism classes fill the square
    maps = s5_conjugation_maps(a5)
    assert (five, other) not in {(m[five], m[three]) for m in maps}
    assert power_tuple_generates(a5, [t, t2])


def test_power_tuple_guards():
    a5 = get_group("alternating:5")
    t = (a5.index_of_cycles([(1, 2, 3, 4, 5)]), a5.index_of_cycles([(1, 2, 3)]))
    with pytest.raises(DimensionMismatchError):
        power_tuple_generates(a5, [])
    with pytest.raises(DimensionMismatchError):
        power_tuple_generates(a5, [()])
    with pytest.raises(DimensionMismatchError):
        power_tuple_generates(a5, [t, t[:1]])
    with pytest.raises(BudgetExceededError):
        power_tuple_generates(a5, [t, t, t, t])  # 60^4 states
