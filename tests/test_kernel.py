"""The word kernel on SL(2,p), PSL(2,p) and S_7, through public functions only.

Above the table cap the kernel multiplies a word out in the group's lifted
form (matrix entries, or one-line permutation rows on symmetric:7) and
ranks the product once; the oracle here multiplies index arrays letter by
letter with the group's own `mul_vec`, a left fold over the same columns.
sl2:3 and psl2:3 run the table route, the others the lifted route.
"""

import numpy as np
import pytest

from wordlab.groups import TABLE_CAP, power_array
from wordlab.measure import BATCH, exact_distribution, monte_carlo_distribution
from wordlab.rng import as_rng
from wordlab.words import parse_word

from conftest import get_group

KERNEL_GROUPS = ("sl2:3", "psl2:3", "sl2:17", "psl2:23", "sl2:97", "psl2:97", "symmetric:7")


def folded_counts(group, letters, columns):
    """Counts of the word over `columns` (generator -> index array), one
    `mul_vec` per letter, inverted letters read through `inv_array`."""
    inv = group.inv_array()
    state = None
    for v in letters:
        col = columns[v] if v > 0 else inv[columns[-v]]
        state = col if state is None else group.mul_vec(state, col)
    return np.bincount(state.ravel(), minlength=group.order)


def test_kernel_groups_cover_both_routes():
    tabled = [spec for spec in KERNEL_GROUPS if get_group(spec).order <= TABLE_CAP]
    assert tabled == ["sl2:3", "psl2:3"]


@pytest.mark.parametrize("spec", KERNEL_GROUPS)
def test_exact_one_generator_matches_fold(spec):
    g = get_group(spec)
    carrier = np.arange(g.order)
    # x1^37 and X1^22 run several squarings; 37 = 100101b, 22 = 10110b
    for text in ("X1 X1 X1", "x1 x1 x1 x1 x1", " ".join(["x1"] * 37), " ".join(["X1"] * 22)):
        word = parse_word(text)
        expected = folded_counts(g, word.letters, {1: carrier})
        assert np.array_equal(exact_distribution(word, g).counts, expected), text


@pytest.mark.parametrize("spec, text", [("sl2:3", "x1 X2 X1 x2 x2"), ("psl2:3", "x1 X2 X1 x2 x2"),
                                        ("sl2:17", "x1 X2")])
def test_exact_two_generators_matches_fold(spec, text):
    # class-reduced in the kernel, every tuple in the fold (in row blocks)
    g = get_group(spec)
    n = g.order
    word = parse_word(text)
    expected = np.zeros(n, dtype=np.int64)
    step = max(1, 10**6 // n)
    for lo in range(0, n, step):
        first = np.arange(lo, min(lo + step, n))[:, None]
        columns = dict(zip((1, 2), np.broadcast_arrays(first, np.arange(n))))
        expected += folded_counts(g, word.letters, columns)
    assert np.array_equal(exact_distribution(word, g).counts, expected)


@pytest.mark.parametrize("spec", KERNEL_GROUPS)
def test_monte_carlo_matches_fold_over_the_same_draws(spec):
    g = get_group(spec)
    word = parse_word("x1 X2 X1 x2 x3 X1")
    samples = 3000
    assert samples <= BATCH  # one batch: the draws below are the kernel's
    rng = as_rng(41)
    draws = {v: rng.integers(0, g.order, size=samples) for v in (1, 2, 3)}
    expected = folded_counts(g, word.letters, draws)
    dist = monte_carlo_distribution(word, g, samples, 41)
    assert dist.total == samples
    assert np.array_equal(dist.counts, expected)


@pytest.mark.parametrize("spec", KERNEL_GROUPS)
def test_power_array_matches_scalar_pow(spec):
    g = get_group(spec)
    p = int(spec.split(":")[1])
    indices = np.random.default_rng(p).integers(0, g.order, size=200)
    for k in (-p, -2, -1, 0, 1, 2, 5, p):
        assert power_array(g, k, indices).tolist() == [g.pow(a, k) for a in indices.tolist()], k


@pytest.mark.parametrize("spec", KERNEL_GROUPS)
def test_power_array_keeps_the_input_shape(spec):
    g = get_group(spec)
    block = np.arange(12).reshape(3, 4) * (g.order // 12)
    for k in (-3, 0, 2, 7):
        assert power_array(g, k, np.array([], dtype=np.int64)).shape == (0,)
        assert np.shape(power_array(g, k, np.array(5))) == ()
        assert int(power_array(g, k, np.array(5))) == g.pow(5, k)
        powered = power_array(g, k, block)
        assert powered.shape == (3, 4)
        assert powered.ravel().tolist() == power_array(g, k, block.ravel()).tolist()


@pytest.mark.parametrize("spec", KERNEL_GROUPS)
def test_mul_vec_broadcasts_rows_against_columns(spec):
    # the call shape of the table build: a block of rows times every column
    g = get_group(spec)
    rows = np.arange(0, g.order, g.order // 5)[:5]
    cols = np.arange(g.order - 1, -1, -(g.order // 7))[:7]
    block = g.mul_vec(rows[:, None], cols)
    assert block.shape == (5, 7)
    assert block.tolist() == [[g.mul(int(r), int(c)) for c in cols] for r in rows]
    flat_rows, flat_cols = (v.ravel() for v in np.meshgrid(rows, cols, indexing="ij"))
    assert block.ravel().tolist() == g.mul_vec(flat_rows, flat_cols).tolist()
