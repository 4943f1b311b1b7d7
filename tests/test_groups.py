"""Group backends: axioms, structure helpers, and cross-route agreement."""

import re
import zlib

import numpy as np
import pytest
from hypothesis import given, strategies as st

from wordlab.errors import (
    GroupMismatchError,
    MalformedCayleyTableError,
    TooLargeError,
    UnsupportedParameterError,
)
from wordlab.groups import (
    CATALOG_SPECS,
    CayleyGroup,
    DirectPowerGroup,
    GroupSpec,
    _MatrixGroup,
    _validate_cayley_table,
    abelianization_invariants,
    center,
    class_labels,
    closure,
    closure_mask,
    commutator_subgroup,
    construct_group,
    greedy_generators,
    group_generators,
    is_perfect,
    load_cayley_table,
    power_array,
    quotient_by_center,
    quotient_group,
    vector_multiplier,
)
from wordlab.harness import ingest_cayley_table
from wordlab.rng import stream

from conftest import (
    CATALOG,
    all_commutators_subgroup,
    generated_subgroup,
    get_group,
    orbit_class_labels,
    sl2_matrices,
)

EXPECTED_ORDERS = {
    "cyclic:2": 2, "cyclic:4": 4, "cyclic:6": 6, "dihedral:4": 8,
    "symmetric:3": 6, "symmetric:4": 24, "alternating:4": 12,
    "alternating:5": 60, "alternating:6": 360, "sl2:5": 120,
    "sl2:7": 336, "psl2:7": 168, "psl2:11": 660, "psl2:13": 1092,
}


def test_catalog_is_what_the_package_exports():
    assert set(CATALOG) == set(CATALOG_SPECS)


@pytest.mark.parametrize("spec", CATALOG)
def test_orders_and_identity(spec):
    g = get_group(spec)
    assert g.order == EXPECTED_ORDERS[spec]
    assert g.identity == 0
    assert g.mul(0, 0) == 0
    assert g.inv(0) == 0


@pytest.mark.parametrize("spec", CATALOG)
def test_axioms_on_random_triples(spec):
    g = get_group(spec)
    rng = stream(11, hash(spec) % 1000)
    n = g.order
    a = rng.integers(0, n, size=500)
    b = rng.integers(0, n, size=500)
    c = rng.integers(0, n, size=500)
    for x, y, z in zip(a, b, c):
        x, y, z = int(x), int(y), int(z)
        assert g.mul(g.mul(x, y), z) == g.mul(x, g.mul(y, z))
        assert g.mul(x, g.identity) == x
        assert g.mul(g.identity, x) == x
        assert g.mul(x, g.inv(x)) == g.identity
        assert g.mul(g.inv(x), x) == g.identity


def reference_products(g, a, b) -> np.ndarray:
    """a*b elementwise by a route that does not read the table: scalar
    `mul`, except on matrix groups, whose scalar `mul` reads the table when
    there is one; there, the product of the entry arrays."""
    if isinstance(g, _MatrixGroup):
        return g.lower(g.mul_lifted(g.lift(a), g.lift(b)))
    products = [g.mul(x, y) for x, y in zip(a.ravel().tolist(), b.ravel().tolist())]
    return np.array(products).reshape(a.shape)


@pytest.mark.parametrize("spec", CATALOG + ("symmetric:7",))
def test_vectorized_product_matches_scalar(spec):
    # symmetric:7 is above TABLE_CAP: its one-line rows against tuples
    g = get_group(spec)
    fn = vector_multiplier(g)
    assert fn is not None
    rng = stream(12, hash(spec) % 1000)
    a = rng.integers(0, g.order, size=300)
    b = rng.integers(0, g.order, size=300)
    assert np.array_equal(fn(a, b), reference_products(g, a, b))


@pytest.mark.parametrize("spec", ("cyclic:6", "dihedral:4", "symmetric:4", "sl2:5",
                                  "alternating:6"))
def test_multiplication_table_matches_scalar(spec):
    # sl2:5 and alternating:6 fill their tables in several row blocks, the
    # last one partial
    g = get_group(spec)
    table = g.mul_table()
    assert table.shape == (g.order, g.order)
    x, y = np.meshgrid(np.arange(g.order), np.arange(g.order), indexing="ij")
    assert np.array_equal(table, reference_products(g, x, y))


@pytest.mark.parametrize("spec", [s for s in CATALOG if s.startswith(("symmetric", "alternating"))]
                         + ["symmetric:7"])
def test_permutation_rows_lower_to_their_own_index(spec):
    # the carrier is lexicographic, so the rows' base-n values ascend and
    # `lower` ranks them by one searchsorted
    g = get_group(spec)
    everyone = np.arange(g.order)
    rows = g.lift(everyone)
    assert rows.tolist() == [list(perm) for perm in g.carrier]
    assert np.array_equal(g.lower(rows), everyone)


@pytest.mark.parametrize("spec", CATALOG + ("symmetric:6", "sl2:17"))
def test_array_power_and_inverse_match_scalar(spec):
    g = get_group(spec)
    assert g.has_table == (spec != "sl2:17")
    n = g.order
    assert g.inv_array().tolist() == [g.inv(a) for a in range(n)]
    some = np.arange(n - 1, -1, -3)
    for k in (-7, -1, 0, 1, 2, 5, 60):
        assert power_array(g, k).tolist() == [g.pow(a, k) for a in range(n)]
        assert power_array(g, k, some).tolist() == [g.pow(a, k) for a in some.tolist()]


def test_element_power_reaches_identity():
    for spec in ("symmetric:4", "psl2:7", "dihedral:4"):
        g = get_group(spec)
        for x in range(0, g.order, max(1, g.order // 17)):
            acc = g.identity
            k = 0
            while True:
                acc = g.mul(acc, x)
                k += 1
                if acc == g.identity:
                    break
                assert k <= g.order
            assert g.pow(x, k) == g.identity
            assert g.pow(x, 1) == x
            assert g.pow(x, -1) == g.inv(x)


def test_matrix_groups_multiply_like_matrices():
    for spec in ("sl2:5", "psl2:7"):
        g = get_group(spec)
        p = g.p
        rng = stream(14, p)
        for _ in range(150):
            x = int(rng.integers(0, g.order))
            y = int(rng.integers(0, g.order))
            (a, b), (c, d) = g.matrix(x)
            (e, f), (h, i) = g.matrix(y)
            prod = ((a * e + b * h) % p, (a * f + b * i) % p,
                    (c * e + d * h) % p, (c * f + d * i) % p)
            got = g.matrix(g.mul(x, y))
            flat = (got[0][0], got[0][1], got[1][0], got[1][1])
            neg = tuple((-v) % p for v in prod)
            if spec.startswith("psl2"):
                assert flat in (prod, neg)
            else:
                assert flat == prod
            # determinant stays 1
            assert (flat[0] * flat[3] - flat[1] * flat[2]) % p == 1


@pytest.mark.parametrize("spec", ("sl2:3", "psl2:3", "sl2:17", "psl2:23", "sl2:97", "psl2:97"))
def test_matrix_groups_match_independent_arithmetic(spec):
    # carrier, products and inverses against 2x2 arithmetic mod p done here
    g = construct_group(spec)
    p = g.p
    mats = sl2_matrices(p)

    def packed(m):
        return ((m[:, 0] * p + m[:, 1]) * p + m[:, 2]) * p + m[:, 3]

    def canonical(m):
        if spec.startswith("psl2"):
            neg = -m % p
            return np.where((packed(m) < packed(neg))[:, None], m, neg)
        return m

    reps = mats[packed(mats) == packed(canonical(mats))]
    ident = (reps == [1, 0, 0, 1]).all(axis=1)
    carrier = np.concatenate([reps[ident], reps[~ident]])
    assert g.order == len(carrier) == len(mats) // (2 if spec.startswith("psl2") else 1)
    assert np.array_equal(np.stack(g.entries, axis=1), carrier)
    assert [g.matrix(i) for i in (0, g.order - 1)] == [
        tuple(map(tuple, carrier[i].reshape(2, 2).tolist())) for i in (0, -1)]
    # O(|G|) memory: nothing the size of the p^4 packed range
    arrays = [v for v in vars(g).values() if isinstance(v, np.ndarray)] + list(g.entries)
    assert max(v.size for v in arrays) <= p * (p * p - 1)

    keys = packed(carrier)
    by_key = np.argsort(keys)

    def index_of(m):
        k = packed(canonical(m))
        pos = np.searchsorted(keys, k, sorter=by_key)
        assert np.array_equal(keys[by_key[pos]], k)
        return by_key[pos]

    if g.order ** 2 <= 10**4:
        x, y = (v.ravel() for v in np.meshgrid(np.arange(g.order), np.arange(g.order)))
    else:
        rng = np.random.default_rng(61)
        x, y = rng.integers(0, g.order, size=(2, 10**4))
    a, b, c, d = carrier[x].T
    e, f, h, i = carrier[y].T
    prod = np.stack([a * e + b * h, a * f + b * i, c * e + d * h, c * f + d * i], axis=1) % p
    expected = index_of(prod)
    assert np.array_equal(g.mul_vec(x, y), expected)
    assert [g.mul(u, v) for u, v in zip(x[:200].tolist(), y[:200].tolist())] == expected[:200].tolist()
    a, b, c, d = carrier.T
    inverse = index_of(np.stack([d, -b % p, -c % p, a], axis=1))
    assert np.array_equal(g.inv_array(), inverse)


def test_permutation_group_cycle_lookup():
    s4 = get_group("symmetric:4")
    idx = s4.index_of_cycles([(1, 2)])
    assert s4.carrier[idx] == (1, 0, 2, 3)
    idx = s4.index_of_cycles([(1, 2, 3, 4)])
    assert s4.carrier[idx] == (1, 2, 3, 0)
    a4 = get_group("alternating:4")
    with pytest.raises(KeyError):
        a4.index_of_cycles([(1, 2)])  # odd permutation is not in A4


def test_center_and_quotient_of_double_cover():
    sl = get_group("sl2:5")
    z = center(sl)
    assert len(z) == 2
    q = quotient_by_center(sl)
    assert q.order == 60
    # projection is a homomorphism
    proj = q.projection
    rng = stream(15)
    for _ in range(300):
        x = int(rng.integers(0, sl.order))
        y = int(rng.integers(0, sl.order))
        assert proj[sl.mul(x, y)] == q.mul(proj[x], proj[y])
    assert is_perfect(q)


def all_products_center(group) -> frozenset:
    """Elements z with z*g = g*z for every g, from all |G|^2 products."""
    everyone = np.arange(group.order)
    central = []
    for lo in range(0, group.order, 256):
        z = np.arange(lo, min(lo + 256, group.order))[:, None]
        commutes = group.mul_vec(z, everyone) == group.mul_vec(everyone, z)
        central.extend((z[commutes.all(axis=1), 0]).tolist())
    return frozenset(central)


def test_center_matches_all_products():
    groups = [g for g in map(get_group, CATALOG) if g.order <= 168]
    assert [g.name for g in groups] == ["cyclic:2", "cyclic:4", "cyclic:6", "dihedral:4",
                                        "symmetric:3", "symmetric:4", "alternating:4",
                                        "alternating:5", "sl2:5", "psl2:7"]
    groups += [DirectPowerGroup(get_group("alternating:5"), 2),
               DirectPowerGroup(get_group("dihedral:4"), 2)]
    sizes = []
    for group in groups:
        z = center(group)
        assert z == all_products_center(group), group.name
        sizes.append(len(z))
    assert sizes == [2, 4, 6, 2, 1, 1, 1, 1, 2, 1, 1, 4]


def test_greedy_generators_reach_every_element():
    for spec in ("cyclic:6", "symmetric:4", "sl2:5"):
        group = get_group(spec)
        gens = greedy_generators(vector_multiplier(group), group.order, group.identity)
        assert closure(group, gens) == frozenset(range(group.order))
        # each generator lies outside the subgroup its predecessors generate
        for k in range(1, len(gens)):
            assert gens[k] not in closure(group, gens[:k])
        assert group_generators(group).tolist() == gens


def relabelled_table_file(tmp_path, spec):
    """Table file of the group `spec` whose non-identity elements are shuffled."""
    table = get_group(spec).mul_table()
    perm = np.r_[0, 1 + np.random.default_rng(7).permutation(table.shape[0] - 1)]
    rank = np.argsort(perm)  # old index -> new index
    rows = np.empty_like(table)
    rows[np.ix_(rank, rank)] = rank[table]
    path = tmp_path / (spec.replace(":", "_") + ".txt")
    path.write_text(f"{len(rows)}\n" + "\n".join(" ".join(map(str, r)) for r in rows.tolist()))
    return path


def test_ingest_relabelled_psl2_13(tmp_path):
    summary = ingest_cayley_table(relabelled_table_file(tmp_path, "psl2:13"))
    assert summary["order"] == 1092
    assert summary["perfect"] is True
    assert summary["center_size"] == 1
    assert summary["abelian"] is False


def test_class_labels_match_one_orbit_per_class(tmp_path):
    # symmetric:7 is above TABLE_CAP, so it multiplies natively
    specs = CATALOG + ("sl2:17", "psl2:23", "symmetric:7")
    cases = [construct_group(s) for s in specs]
    cases += [DirectPowerGroup(get_group("alternating:5"), 2),
              load_cayley_table(relabelled_table_file(tmp_path, "psl2:7"))]
    for group in cases:
        labels = class_labels(group)
        assert labels.tolist() == orbit_class_labels(group).tolist(), group.name
    assert len(np.unique(class_labels(cases[-1]))) == 6  # the classes of PSL(2,7)


@pytest.mark.parametrize("spec", ("alternating:4", "sl2:17"))
def test_class_labels_are_computed_once_per_group(spec, monkeypatch):
    products = []

    def counting(group):
        mul_vec = vector_multiplier(group)

        def counted(a, b):
            products.append(1)
            return mul_vec(a, b)
        return counted

    monkeypatch.setattr("wordlab.groups.vector_multiplier", counting)
    group = construct_group(spec)
    first = class_labels(group)
    assert products
    products.clear()
    assert class_labels(group) is first and not products
    assert not first.flags.writeable


def test_commutator_subgroup_matches_all_commutators():
    groups = [g for g in map(get_group, CATALOG) if g.order <= 168]
    groups += [DirectPowerGroup(get_group("alternating:5"), 2),
               DirectPowerGroup(get_group("dihedral:4"), 2)]
    sizes = []
    for group in groups:
        derived = commutator_subgroup(group)
        assert derived == all_commutators_subgroup(group), group.name
        sizes.append(len(derived))
    assert sizes == [1, 1, 1, 2, 3, 12, 4, 60, 120, 168, 3600, 4]


def test_commutator_subgroups():
    assert len(commutator_subgroup(get_group("symmetric:4"))) == 12
    assert len(commutator_subgroup(get_group("symmetric:3"))) == 3
    assert len(commutator_subgroup(get_group("dihedral:4"))) == 2
    assert is_perfect(get_group("alternating:5"))
    assert not is_perfect(get_group("alternating:4"))


def test_abelianization_invariants():
    cases = {
        "cyclic:6": [6],
        "cyclic:4": [4],
        "symmetric:3": [2],
        "symmetric:4": [2],
        "dihedral:4": [2, 2],
        "alternating:4": [3],
        "alternating:5": [],
    }
    groups = [(get_group(spec), want) for spec, want in cases.items()]
    groups += [(CayleyGroup(cyclic_product_rows(m, k), f"z{m}xz{k}"), [m, k])
               for m, k in ((2, 4), (4, 4), (2, 64), (2, 6))]
    groups.append((DirectPowerGroup(get_group("symmetric:3"), 2), [2, 2]))
    for group, want in groups:
        got = abelianization_invariants(group)
        assert list(got) == want, f"{group.name}: {got} != {want}"


def test_closure_sizes():
    a5 = get_group("alternating:5")
    five = a5.index_of_cycles([(1, 2, 3, 4, 5)])
    three = a5.index_of_cycles([(1, 2, 3)])
    assert len(closure(a5, [five])) == 5
    assert len(closure(a5, [three])) == 3
    assert len(closure(a5, [five, three])) == 60


@pytest.mark.parametrize("spec", ("symmetric:4", "dihedral:4", "alternating:5", "psl2:7",
                                  "sl2:5"))
def test_closure_matches_scalar_saturation(spec):
    g = get_group(spec)
    rng = stream(17, zlib.crc32(spec.encode()))
    for k in (1, 1, 2, 2, 3):
        gens = [int(x) for x in rng.integers(0, g.order, size=k)]
        assert closure(g, gens) == generated_subgroup(g, gens)


def test_closure_lagrange_stop_keeps_index_two_subgroups():
    s4 = get_group("symmetric:4")
    a4_gens = [s4.index_of_cycles([(1, 2, 3)]), s4.index_of_cycles([(2, 3, 4)])]
    assert len(closure(s4, a4_gens)) == 12
    assert len(closure(s4, a4_gens + [s4.index_of_cycles([(1, 2)])])) == 24


def test_direct_power_closure_builds_no_table():
    a5 = get_group("alternating:5")
    square = DirectPowerGroup(a5, 2)
    assert vector_multiplier(square) == square.mul_vec
    five = a5.index_of_cycles([(1, 2, 3, 4, 5)])
    three = a5.index_of_cycles([(1, 2, 3)])
    other = a5.index_of_cycles([(1, 2, 4)])
    diagonal = [square.join((five, five)), square.join((three, three))]
    assert np.count_nonzero(closure_mask(square, diagonal)) == 60
    assert closure_mask(square, [square.join((five, five)), square.join((three, other))]).all()
    assert square._table is None


def test_direct_power_round_trip():
    s3 = get_group("symmetric:3")
    p3 = DirectPowerGroup(s3, 3)
    assert p3.order == 6**3
    rng = stream(16)
    for _ in range(200):
        idx = int(rng.integers(0, p3.order))
        parts = p3.split(idx)
        assert p3.join(parts) == idx
        jdx = int(rng.integers(0, p3.order))
        prod = p3.mul(idx, jdx)
        want = tuple(s3.mul(a, b) for a, b in zip(parts, p3.split(jdx)))
        assert p3.split(prod) == want
    assert p3.inv(p3.join((1, 2, 3))) == p3.join(
        (s3.inv(1), s3.inv(2), s3.inv(3))
    )


@pytest.mark.parametrize("base, copies", [("alternating:5", 2), ("symmetric:3", 3),
                                          ("sl2:17", 2)])
def test_direct_power_lift_is_the_split_coordinates(base, copies):
    # the whole carrier where it is small, else 300 seeded indices
    power = DirectPowerGroup(get_group(base), copies)
    if power.order <= 5000:
        idx = np.arange(power.order)
    else:
        idx = stream(17).integers(0, power.order, size=300)
    coords = power.lift(idx)
    assert coords.shape == (idx.size, copies)
    assert [tuple(row) for row in coords.tolist()] == [power.split(int(x)) for x in idx]
    assert np.array_equal(power.lower(coords), idx)


def test_direct_power_past_int64_refuses_arrays_only():
    a5 = get_group("alternating:5")
    power = DirectPowerGroup(a5, 11)
    assert power.order - 1 > np.iinfo(np.int64).max
    last = power.order - 1
    assert power.split(last) == (59,) * 11
    assert power.join(power.split(last)) == last
    assert power.mul(last, 0) == last
    with pytest.raises(TooLargeError):
        power.lift(np.arange(3))
    with pytest.raises(TooLargeError):
        power.mul_vec(np.arange(3), np.arange(3))


def test_quotient_group_cosets():
    s4 = get_group("symmetric:4")
    a4 = commutator_subgroup(s4)
    q = quotient_group(s4, a4, name="s4-mod-a4")
    assert q.order == 2
    assert sorted(q.projection) == [0] * 12 + [1] * 12


def test_quotient_by_a_subgroup_that_is_not_normal_is_rejected():
    s4 = get_group("symmetric:4")
    transposition = closure(s4, [s4.index_of_cycles([(1, 2)])])
    assert len(transposition) == 2
    with pytest.raises(MalformedCayleyTableError, match="not normal"):
        quotient_group(s4, transposition, name="s4-mod-transposition")
    # normal subgroups still pass, and the projection is a homomorphism
    for parent, q in ((s4, quotient_group(s4, commutator_subgroup(s4), name="s4-mod-a4")),
                      (get_group("sl2:5"), quotient_by_center(get_group("sl2:5")))):
        proj = np.array(q.projection)
        table = vector_multiplier(parent)(np.arange(parent.order)[:, None],
                                          np.arange(parent.order))
        assert np.array_equal(proj[table], q.mul_vec(proj[:, None], proj))


def test_group_spec_parsing():
    spec = GroupSpec.parse("psl2:11")
    assert spec.kind == "psl2" and spec.parameter == 11
    assert str(spec) == "psl2:11"
    g = construct_group("psl2:11")
    assert g.order == 660
    with pytest.raises(UnsupportedParameterError):
        construct_group("nosuch:5")
    with pytest.raises(UnsupportedParameterError):
        construct_group("psl2:4")  # not an odd prime
    with pytest.raises(UnsupportedParameterError):
        construct_group("symmetric:10")  # degree cap
    with pytest.raises(UnsupportedParameterError):
        construct_group("sl2:109")  # carrier cap


def test_cayley_table_loading(tmp_path):
    path = tmp_path / "c3.txt"
    path.write_text("3\n0 1 2\n1 2 0\n2 0 1\n")
    g = load_cayley_table(path)
    assert g.order == 3
    assert g.mul(1, 2) == 0

    bad = tmp_path / "bad.txt"
    bad.write_text("3\n0 1 2\n1 2 0\n2 1 0\n")
    with pytest.raises(MalformedCayleyTableError):
        load_cayley_table(bad)

    # Latin square with identity and inverses that is not associative:
    # the smallest such loop has order 5.
    loop = tmp_path / "loop5.txt"
    loop.write_text(
        "5\n"
        "0 1 2 3 4\n"
        "1 0 3 4 2\n"
        "2 4 0 1 3\n"
        "3 2 4 0 1\n"
        "4 3 1 2 0\n"
    )
    with pytest.raises(MalformedCayleyTableError):
        load_cayley_table(loop)


def test_cayley_table_rows_may_wrap_across_lines(tmp_path):
    # row 0 is split over two lines, row 1 shares a line with row 2, and
    # the order shares a line with row 0
    rows = [[0, 1, 2], [1, 2, 0], [2, 0, 1]]
    for text in ("3\n0 1\n2\n1 2 0 2 0 1\n", "3 0 1\n\n2\n1 2 0   2 0\n1"):
        path = tmp_path / "c3.txt"
        path.write_text(text)
        g = load_cayley_table(path)
        assert g.order == 3
        assert g.mul_table().tolist() == rows


def all_triples_associative(rows) -> bool:
    """The test oracle: check (a*b)*c = a*(b*c) on every triple."""
    n = len(rows)
    return all(rows[rows[a][b]][c] == rows[a][rows[b][c]]
               for a in range(n) for b in range(n) for c in range(n))


def swap_intercalate(rows, rng, tries=2000):
    """Swap a 2x2 Latin subsquare [[a, b], [b, a]] away from the identity.

    The subsquare avoids row 0, column 0 and every 0 entry, so the result is
    still a Latin square with identity 0 and two-sided inverses.  Returns
    False (and leaves rows alone) when no such subsquare turns up.
    """
    n = len(rows)
    for _ in range(tries):
        r1, r2, c1 = (int(v) for v in rng.integers(1, n, size=3))
        c2 = rows[r2].index(rows[r1][c1])
        a, b = rows[r1][c1], rows[r1][c2]
        if r1 != r2 and c2 != 0 and rows[r2][c1] == b and 0 not in (a, b):
            rows[r1][c1], rows[r1][c2], rows[r2][c1], rows[r2][c2] = b, a, a, b
            return True
    return False


def product_rows(first: list, k: int) -> list:
    """Table of first x Z_k, element (i, j) at index i * k + j."""
    m = len(first)
    return [[first[x // k][y // k] * k + (x % k + y % k) % k for y in range(m * k)]
            for x in range(m * k)]


def cyclic_product_rows(m: int, k: int) -> list:
    """Cayley table of Z_m x Z_k, element (i, j) at index i * k + j."""
    return product_rows([[(x + y) % m for y in range(m)] for x in range(m)], k)


# The smallest non-associative loop.  Times Z_k, index 1 = (0, 1) lies in
# the middle nucleus, so the first generator Light's test picks passes.
LOOP5 = [[0, 1, 2, 3, 4], [1, 0, 3, 4, 2], [2, 4, 0, 1, 3], [3, 2, 4, 0, 1], [4, 3, 1, 2, 0]]


def test_order_128_loop_is_rejected_with_a_failing_triple(tmp_path):
    rows = cyclic_product_rows(2, 64)
    _validate_cayley_table(rows, "z2xz64")  # the group itself passes
    # rows x, x+u and columns y, y+u with u = (1, 0) of order 2
    x, y, u = 3, 5, 64
    a, b = rows[x][y], rows[x][y + u]
    assert rows[x + u][y] == b and rows[x + u][y + u] == a and 0 not in (a, b)
    rows[x][y], rows[x][y + u], rows[x + u][y], rows[x + u][y + u] = b, a, a, b
    path = tmp_path / "loop128.txt"
    path.write_text("128\n" + "\n".join(" ".join(map(str, r)) for r in rows) + "\n")
    with pytest.raises(MalformedCayleyTableError, match="associativity") as info:
        load_cayley_table(path)
    p, q, r = (int(v) for v in re.search(r"\((\d+),(\d+),(\d+)\)", str(info.value)).groups())
    assert rows[rows[p][q]][r] != rows[p][rows[q][r]]


@pytest.mark.parametrize("spec", ("cyclic:6", "dihedral:4", "symmetric:3",
                                  "symmetric:4", "alternating:4", "z4xz4", "z2xz50",
                                  "loop5xz4"))
def test_light_associativity_test_agrees_with_all_triples(spec):
    if spec == "loop5xz4":
        base = product_rows(LOOP5, 4)
    elif spec.startswith("z"):
        m, k = (int(v) for v in spec[1:].split("xz"))
        base = cyclic_product_rows(m, k)
    else:
        base = get_group(spec).mul_table().tolist()
    rng = stream(18, zlib.crc32(spec.encode()))
    verdicts = set()
    for swaps in (0, 1, 1, 2, 2, 3):
        rows = [list(r) for r in base]
        for _ in range(swaps):
            swap_intercalate(rows, rng)
        try:
            _validate_cayley_table(rows, spec)
            light = True
        except MalformedCayleyTableError as exc:
            assert "associativity" in str(exc)
            light = False
        oracle = all_triples_associative(rows)
        assert light == oracle
        verdicts.add(oracle)
    assert False in verdicts


def test_cayley_group_rejects_misplaced_identity():
    rows = [[1, 0], [0, 1]]  # element 0 is not the identity
    with pytest.raises(MalformedCayleyTableError, match="left identity"):
        CayleyGroup(rows, "swapped")


# One table per defect.  Rows are checked in order (length, range,
# permutation), then columns, the identity on each side and the inverses.
MALFORMED_TABLES = (
    ([], r"t: empty table"),
    ([[0, 1], [1]], r"t: row 1 has 1 entries, expected 2$"),
    ([[0, 1], [1, 2]], r"t: row 1 has an index outside \[0,2\)$"),
    ([[0, 1], [1, 10**30]], r"t: row 1 has an index outside \[0,2\)$"),
    ([[0, 1], [1, 1]], r"t: row 1 is not a permutation of 0\.\.1$"),
    ([[0, 1, 2], [1, 2, 0], [2, 1, 0]], r"t: column 1 is not a permutation of 0\.\.2$"),
    ([[1, 0], [0, 1]], r"t: index 0 is not a left identity at row 0, column 0$"),
    ([[0, 1, 2], [2, 0, 1], [1, 2, 0]], r"t: index 0 is not a right identity at row 1$"),
    ([[0, 1, 2, 3, 4], [1, 0, 3, 4, 2], [2, 3, 4, 0, 1], [3, 4, 1, 2, 0], [4, 2, 0, 1, 3]],
     r"t: row 2 has no two-sided inverse$"),
    # a bad row before a ragged one is the one reported
    ([[0, 1, 2], [1, 1, 0], [2, 0]], r"t: row 1 is not a permutation of 0\.\.2$"),
    ([[0, 1, 2], [1, -1, 0], [2]], r"t: row 1 has an index outside \[0,3\)$"),
    ([[0, 1, 2], [1, 2], [2, 9, 0]], r"t: row 1 has 2 entries, expected 3$"),
)


@pytest.mark.parametrize("rows, message", MALFORMED_TABLES)
def test_cayley_table_defects_are_reported_in_check_order(rows, message):
    with pytest.raises(MalformedCayleyTableError, match=message):
        _validate_cayley_table(rows, "t")


MALFORMED_FILES = (
    ("", r"empty file$"),
    ("3\n0 1 x\n", r"non-integer token$"),  # and the wrong token count
    ("2\n0 1\n1\n", r"expected 5 tokens, got 4$"),
    ("0\n", r"expected order line plus n\^2 tokens, got 1$"),
    (f"2\n0 1\n1 {10**30}\n", r"row 1 has an index outside \[0,2\)$"),
    (f"2\n0 1\n1 {-10**30}\n", r"row 1 has an index outside \[0,2\)$"),
    (f"3\n0 1 2\n1 1 0\n2 0 {10**30}\n", r"row 1 is not a permutation of 0\.\.2$"),
)


@pytest.mark.parametrize("text, message", MALFORMED_FILES)
def test_cayley_file_defects(tmp_path, text, message):
    path = tmp_path / "t.txt"
    path.write_text(text)
    with pytest.raises(MalformedCayleyTableError, match=message):
        load_cayley_table(path)


def test_element_api_guards():
    s3 = get_group("symmetric:3")
    c4 = get_group("cyclic:4")
    with pytest.raises(GroupMismatchError):
        _ = s3.element(1) * c4.element(1)
    with pytest.raises(IndexError):
        s3.element(6)
    e = s3.element(2)
    assert (e * e.inverse()).is_identity()


def test_structural_caps():
    s9 = construct_group("symmetric:9")  # constructible, order 362880
    with pytest.raises(TooLargeError):
        center(s9)


@given(st.data())
def test_axioms_property(data):
    spec = data.draw(st.sampled_from(("symmetric:3", "dihedral:4", "cyclic:6", "alternating:4")))
    g = get_group(spec)
    x = data.draw(st.integers(min_value=0, max_value=g.order - 1))
    y = data.draw(st.integers(min_value=0, max_value=g.order - 1))
    z = data.draw(st.integers(min_value=0, max_value=g.order - 1))
    assert g.mul(g.mul(x, y), z) == g.mul(x, g.mul(y, z))
    assert g.mul(x, g.inv(x)) == g.identity
    assert g.inv(g.inv(x)) == x
