"""Generating tuples, direct-power generation, and central lifts."""

import itertools
import math

import pytest

from wordlab.cli import main
from wordlab.errors import (
    BudgetExceededError,
    GroupMismatchError,
    NotInCatalogError,
    NotPerfectError,
    UnsupportedParameterError,
)
from wordlab.generation import (
    AUT_ORDERS,
    count_generating_tuples,
    hall_max_power,
    is_generating,
    lift_generators,
    power_tuple_generates,
)
from wordlab.groups import (
    DirectPowerGroup,
    center,
    closure,
    construct_group,
    quotient_by_center,
    quotient_group,
)

from conftest import CATALOG, generated_subgroup, get_group, s5_conjugation_maps


def brute_tuple_count(group, d=2) -> int:
    return sum(1 for tup in itertools.product(range(group.order), repeat=d)
               if len(generated_subgroup(group, tup)) == group.order)


def test_is_generating():
    a5 = get_group("alternating:5")
    five = a5.index_of_cycles([(1, 2, 3, 4, 5)])
    three = a5.index_of_cycles([(1, 2, 3)])
    assert is_generating(a5, [five, three])
    assert not is_generating(a5, [three])
    a4 = get_group("alternating:4")
    dd1 = a4.index_of_cycles([(1, 2), (3, 4)])
    dd2 = a4.index_of_cycles([(1, 3), (2, 4)])
    assert len(closure(a4, (dd1, dd2))) == 4
    assert not is_generating(a4, [dd1, dd2])
    assert not is_generating(a4, [])
    assert is_generating(construct_group("cyclic:1"), [])


def test_indices_outside_the_carrier_raise_index_error(tmp_path):
    a5 = get_group("alternating:5")
    assert is_generating(a5, [1, 15])
    # -45 and 75 are 15 mod 60: neither may stand in for 15
    for call, bad in ((lambda: is_generating(a5, [1, -45]), -45),
                      (lambda: power_tuple_generates(a5, [(1, 75)]), 75),
                      (lambda: is_generating(a5, [1, 75]), 75),
                      (lambda: closure(a5, [60]), 60)):
        with pytest.raises(IndexError, match=f"index {bad} out of range for alternating:5"):
            call()
    assert main(["mixing", "--seed", "1", "--group", "alternating:5", "--n", "5",
                 "--steps", "1,75", "--out", str(tmp_path)]) == 1


@pytest.mark.parametrize("spec", [s for s in CATALOG if get_group(s).order <= 60])
def test_pair_count_matches_brute_force(spec):
    group = get_group(spec)
    assert count_generating_tuples(group, 2) == brute_tuple_count(group)


def test_triple_count_matches_brute_force():
    s4 = get_group("symmetric:4")
    assert count_generating_tuples(s4, 3) == brute_tuple_count(s4, 3) == 10080


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
    assert all(is_generating(a5, pair) for pair in orbit)


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
    assert is_generating(a5, t) and is_generating(a5, t2)
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
    with pytest.raises(UnsupportedParameterError):
        power_tuple_generates(a5, [])
    with pytest.raises(UnsupportedParameterError):
        power_tuple_generates(a5, [()])
    with pytest.raises(UnsupportedParameterError):
        power_tuple_generates(a5, [t, t[:1]])
    with pytest.raises(BudgetExceededError):
        power_tuple_generates(a5, [t, t, t, t])  # 60^4 states


def find_generating_pair(group):
    for a in range(1, group.order):
        for b in range(a + 1, group.order):
            if is_generating(group, (a, b)):
                return a, b
    raise AssertionError(f"no generating pair in {group.name}")


def test_lift_generators_from_central_quotient():
    sl = get_group("sl2:5")
    quot = quotient_by_center(sl)
    assert quot.order == 60
    a, b = find_generating_pair(quot)
    lifted = lift_generators(sl, (quot.element(a), quot.element(b)))
    assert len(lifted) == 2
    proj = quot.projection
    for e, q in zip(lifted, (a, b)):
        assert e.group is sl
        assert proj[e.index] == q
        # minimal-index representative of the coset
        assert e.index == min(g for g in range(sl.order) if proj[g] == q)
    assert is_generating(sl, [e.index for e in lifted])


def test_lift_of_non_generating_tuple_is_returned_unchecked():
    sl = get_group("sl2:5")
    quot = quotient_by_center(sl)
    lifted = lift_generators(sl, (quot.element(0),))
    assert len(lifted) == 1
    assert not is_generating(sl, [lifted[0].index])


def test_lift_rejects_imperfect_parent():
    s4 = get_group("symmetric:4")
    with pytest.raises(NotPerfectError):
        lift_generators(s4, (s4.element(1),))


def test_lift_rejects_non_quotient_elements():
    a5 = get_group("alternating:5")
    with pytest.raises(GroupMismatchError):
        lift_generators(a5, (a5.element(1),))
    with pytest.raises(UnsupportedParameterError):
        lift_generators(a5, ())


def test_lift_rejects_non_central_kernel():
    a5 = get_group("alternating:5")
    prod = DirectPowerGroup(a5, 2)
    left_factor = frozenset(prod.join((g, 0)) for g in range(a5.order))
    quot = quotient_group(prod, left_factor, name="a5-squared/left-factor")
    assert quot.order == 60
    assert len(center(prod)) == 1
    a, b = find_generating_pair(quot)
    with pytest.raises(GroupMismatchError):
        lift_generators(prod, (quot.element(a), quot.element(b)))
