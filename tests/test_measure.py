"""Pushforward distributions: exact vs brute force, sampling, image coverage."""

import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from wordlab import harness, measure
from wordlab.errors import BudgetExceededError, EmptyWordError, UnsupportedParameterError
from wordlab.groups import CayleyGroup, classes, construct_group, power_array
from wordlab.measure import (
    BATCH,
    TUPLE_BUDGET,
    Distribution,
    _class_totals,
    _evaluate,
    exact_distribution,
    image_and_power_coverage,
    l1_uniform_distance,
    monte_carlo_distribution,
)
from wordlab.rng import stream
from wordlab.words import (Word, abelianize, bezout_certificate, gcd_of_vector, parse_word,
                           sample_word)

from conftest import (CATALOG, assert_same_coverage, brute_pushforward, conjugacy_classes,
                      full_carrier_coverage, get_group, l1_distance, orbit_class_labels)


# Non-abelian groups, where the reduction to class representatives is not
# trivial: sl2:5 has a nontrivial center, and "table:alternating:4" is A4
# given only by its multiplication table.
REDUCED_GROUPS = ("symmetric:3", "symmetric:4", "alternating:5", "sl2:5", "psl2:7",
                  "table:alternating:4")
# One generator; d = 3 with x1 unused; a commutator.
REDUCED_WORDS = ("x1 x1 x1", "x2 x3 X2", "x1 x2 X1 X2")


def group_for(spec):
    if spec.startswith("table:"):
        rows = get_group(spec[len("table:"):]).mul_table().tolist()
        return CayleyGroup(rows, name=spec)
    return get_group(spec)


BRUTE_FORCE_CASES = [
    ("symmetric:3", "x1 x2 X1 X2"),
    ("symmetric:3", "x1 x1 x2"),
    ("cyclic:6", "x1 x1 x2 x2 x2"),
    ("dihedral:4", "x1 x2 x1"),
    ("alternating:4", "x1 x2 X1 X2"),
]
BRUTE_FORCE_CASES += [(spec, w) for spec in REDUCED_GROUPS for w in REDUCED_WORDS
                      if (spec, w) not in BRUTE_FORCE_CASES]


@pytest.mark.parametrize("spec,word_text", BRUTE_FORCE_CASES)
def test_exact_distribution_matches_brute_force(spec, word_text):
    group = group_for(spec)
    word = parse_word(word_text)
    dist = exact_distribution(word, group)
    # brute-force the generators that occur; each unused one multiplies
    # every count by |G|
    used = sorted({abs(v) for v in word.letters})
    relabel = {g: i + 1 for i, g in enumerate(used)}
    compact = Word(len(used), tuple(relabel[abs(v)] * (1 if v > 0 else -1)
                                    for v in word.letters))
    brute = brute_pushforward(compact, group) * group.order ** (word.rank - len(used))
    assert dist.total == group.order**word.rank
    assert np.array_equal(np.asarray(dist.counts), brute)


def test_single_letter_word_is_exactly_uniform():
    for spec in ("symmetric:4", "psl2:7", "cyclic:6"):
        group = get_group(spec)
        dist = exact_distribution(parse_word("x1"), group)
        assert l1_uniform_distance(dist) == Fraction(0)


def test_unused_generators_scale_counts():
    group = get_group("symmetric:3")
    w2 = parse_word("x1 x1", rank=2)  # rank 2, uses only x1
    w1 = parse_word("x1 x1", rank=1)
    d2 = exact_distribution(w2, group)
    d1 = exact_distribution(w1, group)
    assert d2.total == group.order**2
    assert np.array_equal(np.asarray(d2.counts), np.asarray(d1.counts) * group.order)
    # distances agree exactly
    assert l1_uniform_distance(d2) == l1_uniform_distance(d1)


def test_squaring_word_on_small_cyclic_group():
    c2 = get_group("cyclic:2")
    dist = exact_distribution(parse_word("x1 x1"), c2)
    # squares in C2 are trivial: point mass at the identity
    assert list(dist.counts) == [2, 0]
    assert l1_uniform_distance(dist) == Fraction(1)


def test_commutator_identity_count_equals_order_times_classes():
    # classical count: #{(x, y): [x, y] = e} = sum_x |C(x)| = |G| * #classes
    for spec in ("symmetric:3", "symmetric:4", "dihedral:4", "alternating:4"):
        group = get_group(spec)
        word = parse_word("x1 x2 X1 X2")
        dist = exact_distribution(word, group)
        classes = conjugacy_classes(group)
        assert int(dist.counts[group.identity]) == group.order * len(classes)


def test_monte_carlo_matches_exact():
    group = get_group("symmetric:4")
    word = parse_word("x1 x1 x2")
    exact = exact_distribution(word, group)
    sampled = monte_carlo_distribution(word, group, 200_000, stream(7))
    gap = l1_distance(exact, sampled)
    # crude bound: expected L1 sampling error ~ sqrt(2 |G| / (pi N))
    assert gap < 4 * np.sqrt(2 * group.order / (np.pi * 200_000))
    again = monte_carlo_distribution(word, group, 200_000, stream(7))
    assert np.array_equal(np.asarray(sampled.counts), np.asarray(again.counts))


def test_l1_distance_between_exact_laws_is_a_fraction():
    s3 = get_group("symmetric:3")
    square = exact_distribution(parse_word("x1 x1"), s3)
    uniform = exact_distribution(parse_word("x1 x2"), s3)
    # 4/6 - 1/6 at e, plus 1/6 on each of the three transpositions
    gap = l1_distance(square, uniform)
    assert type(gap) is Fraction and gap == 1
    assert l1_distance(square, square) == 0
    with pytest.raises(UnsupportedParameterError):
        l1_distance(square, exact_distribution(parse_word("x1"), get_group("alternating:4")))


def test_budget_enforced_on_full_tuple_space():
    group = get_group("alternating:6")  # order 360
    word = parse_word("x1 x2 x3 x4")  # 360^4 = 1.7e10 > budget
    with pytest.raises(BudgetExceededError):
        exact_distribution(word, group)


def test_image_coverage_exact_mode():
    c4 = get_group("cyclic:4")
    word = parse_word("x1 x1")
    rep = image_and_power_coverage(word, exact_distribution(word, c4))
    assert rep.m == 2
    assert np.flatnonzero(rep.image).tolist() == [0, 2]
    assert np.array_equal(rep.powers, rep.image)
    assert rep.covers_powers
    assert rep.witness is None
    assert rep.certificate is None
    with pytest.raises(ValueError):
        rep.image[1] = True  # the masks are read-only

    s3 = get_group("symmetric:3")
    rep = image_and_power_coverage(word, exact_distribution(word, s3))
    assert rep.covers_powers  # squares of S3 form the rotation subgroup
    assert np.array_equal(rep.image, rep.powers)


def test_image_coverage_sampled_mode_certifies_powers():
    g = get_group("psl2:7")
    word = parse_word("x1 x1 x2 x2")  # gamma = 2
    rep = image_and_power_coverage(word, monte_carlo_distribution(word, g, 500, stream(9)))
    assert rep.m == 2
    assert rep.covers_powers  # certificate values fill in all m-th powers
    assert rep.certificate is not None
    assert not (rep.certificate & ~rep.image).any()
    assert not (rep.powers & ~rep.image).any()


# (word, m): a square; a commutator with m = 1; a d = 3 word with x1 unused;
# five seeded symmetric words (m = 1 where the exponent sums vanish).
COVERAGE_WORDS = [(parse_word("x1 x1"), None), (parse_word("x1 x2 X1 X2"), 1),
                  (parse_word("x2 x3 X2 x3"), None)]
COVERAGE_WORDS += [(w, None if gcd_of_vector(abelianize(w)) else 1)
                   for w in (sample_word("symmetric", 2, 9, stream(21, i)) for i in range(5))]
# the small catalog groups, and every matrix group of the catalog (whose
# labels come from its class key) with sl2:17 and psl2:23 above the table cap
COVERAGE_GROUPS = tuple(s for s in CATALOG if get_group(s).order <= 168
                        or s.startswith(("sl2:", "psl2:"))) + ("sl2:17", "psl2:23")


@pytest.mark.parametrize("keyed", (False, True))
@pytest.mark.parametrize("mode", ("exact", "sampled"))
@pytest.mark.parametrize("spec", COVERAGE_GROUPS)
def test_class_reduced_coverage_matches_full_carrier(spec, mode, keyed, monkeypatch):
    # the labels come from the class key of a matrix group when keyed, and
    # from the orbit route otherwise (the only route of the other groups)
    group = construct_group(spec)
    if not keyed:
        monkeypatch.setattr(group, "class_key", None)
    assert (group.class_key is not None) == (keyed and spec.startswith(("sl2:", "psl2:")))
    checked = 0
    for i, (word, m) in enumerate(COVERAGE_WORDS):
        if mode == "exact":
            if group.order ** word.rank > TUPLE_BUDGET:
                continue  # exact_distribution refuses it before any evaluation
            dist = exact_distribution(word, group)
        else:
            dist = monte_carlo_distribution(word, group, 200, stream(5, i))
        got = image_and_power_coverage(word, dist, m=m)
        assert_same_coverage(got, full_carrier_coverage(word, dist, m))
        checked += 1
    assert checked >= len(COVERAGE_WORDS) - 1
    # only the orbit route builds a generating set
    assert (group._generators is None) == (group.class_key is not None)


@pytest.mark.parametrize("spec", ("sl2:17", "psl2:23"))
def test_coverage_takes_the_class_route_on_a_class_key(spec):
    # the key's labels cost one pass over the entries, so a fresh matrix
    # group reads them with no generating set (the orbit route's first step)
    group = construct_group(spec)
    word = parse_word("x1 x1")
    dist = monte_carlo_distribution(word, group, 50, 1)
    rep = image_and_power_coverage(word, dist)
    assert group._classes is not None and group._generators is None
    assert_same_coverage(rep, full_carrier_coverage(word, dist))


def test_coverage_holds_only_its_masks_at_the_carrier_cap():
    # "x1 x1 X2" has gcd 1 and certificate w(g, g) = g, so the certificate
    # classes cover all 912,576 elements of sl2:97; the call keeps three
    # boolean masks of the carrier and nothing else once it returns
    group = construct_group("sl2:97")
    word = parse_word("x1 x1 X2")
    dist = monte_carlo_distribution(word, group, 200, stream(3))
    classes(group)  # cached on the group, so not the call's own
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        rep = image_and_power_coverage(word, dist)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert rep.certificate.all() and rep.covers_powers
    assert held <= 3 * group.order + 4 * 2**20


def test_image_coverage_needs_m_for_balanced_words():
    s3 = get_group("symmetric:3")
    word = parse_word("x1 x2 X1 X2")
    dist = exact_distribution(word, s3)
    with pytest.raises(EmptyWordError):
        image_and_power_coverage(word, dist)
    rep = image_and_power_coverage(word, dist, m=1)
    assert rep.m == 1


@pytest.mark.parametrize("spec", REDUCED_GROUPS)
def test_class_labels_match_orbit_partition(spec):
    group = group_for(spec)
    labels = classes(group).labels
    for cls in conjugacy_classes(group):
        assert {int(labels[x]) for x in cls} == {min(cls)}


@pytest.mark.parametrize("spec", REDUCED_GROUPS)
def test_class_totals_are_divisible_by_class_sizes(spec):
    group = group_for(spec)
    n = group.order
    totals = _class_totals([1, 2, 2, -1, 2], [1, 2], group)
    assert totals.shape == classes(group).reps.shape
    assert int(totals.sum()) == n**2
    assert np.all(totals % classes(group).sizes == 0)


# ---------------------------------------------------------------------------
# Each cell evaluated once
# ---------------------------------------------------------------------------


def _count_calls(monkeypatch, name):
    calls = []
    original = getattr(measure, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(measure, name, counted)
    monkeypatch.setattr(harness, name, counted)
    return calls


def test_exact_density_cell_enumerates_once(monkeypatch):
    calls = _count_calls(monkeypatch, "exact_distribution")
    group = get_group("alternating:4")
    word = parse_word("x1 x1 x2 x1 x2")
    gamma = gcd_of_vector(abelianize(word))
    assert gamma != 0  # the coverage check runs
    record = harness._density_cell(word, gamma, group, "alternating:4", "exact", None, 1, 0, 0)
    assert record["error"] is None and record["covers_powers"] is not None
    assert record["group"] == "alternating:4"
    assert len(calls) == 1


def test_sampled_density_cell_samples_once(monkeypatch):
    calls = _count_calls(monkeypatch, "monte_carlo_distribution")
    group = get_group("psl2:7")
    word = parse_word("x1 x1 x2 x2 x2 x2")
    record = harness._density_cell(word, 2, group, "psl2:7", "sampled", 300, 1, 0, 0)
    assert record["covers_powers"] is True  # the certificate supplies every square
    assert len(calls) == 1

    # one kernel call evaluates the sample and the certificate tuples together
    evaluations = []
    evaluate = measure._evaluate
    monkeypatch.setattr(measure, "_evaluate",
                        lambda *args: evaluations.append(args) or evaluate(*args))
    harness._density_cell(word, 2, group, "psl2:7", "sampled", 300, 1, 0, 1)
    assert len(evaluations) == 1


@pytest.mark.parametrize("spec,samples", (("psl2:7", BATCH + 1000), ("sl2:17", 700)))
def test_certificate_tuples_leave_the_draws_as_they_are(spec, samples):
    # the sample matches one drawn and evaluated batch by batch on its own,
    # and `certified` the word at (r^b1, r^b2) for every class representative r
    group = get_group(spec)
    word = parse_word("x1 x1 x2 X1 x2 x2")
    dist = monte_carlo_distribution(word, group, samples, stream(6, 2))
    rng, n = stream(6, 2), group.order
    counts = np.zeros(n, dtype=np.int64)
    for start in range(0, samples, BATCH):
        b = min(BATCH, samples - start)
        draws = {g: rng.integers(0, n, size=b) for g in (1, 2)}
        counts += np.bincount(_evaluate(word.letters, draws, group), minlength=n)
    assert np.array_equal(dist.counts, counts)
    labels = orbit_class_labels(group)
    reps = np.flatnonzero(labels == np.arange(n))
    coeffs = bezout_certificate(abelianize(word))[1]
    columns = {g: power_array(group, coeffs[g - 1], reps) for g in (1, 2)}
    assert np.array_equal(dist.certified, _evaluate(word.letters, columns, group))


def test_sampled_coverage_needs_the_certificate_values():
    group = get_group("psl2:7")
    word = parse_word("x1 x1 x2 x2")
    balanced = monte_carlo_distribution(parse_word("x1 x2 X1 X2"), group, 50, 3)
    assert balanced.certified is None  # no certificate for a zero exponent-sum gcd
    bare = Distribution(group=group, counts=np.ones(group.order, dtype=np.int64),
                        total=group.order, mode="sampled")
    with pytest.raises(UnsupportedParameterError, match="no certificate values"):
        image_and_power_coverage(word, bare)
