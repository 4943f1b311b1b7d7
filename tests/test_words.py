"""Words: reduction, sampling, gcd certificates, evaluation."""

import pytest
from hypothesis import given, strategies as st

from wordlab.errors import (
    BadLetterError,
    EmptyWordError,
    RankMismatchError,
)
from wordlab.words import (
    Word,
    abelianize,
    bezout_certificate,
    evaluate_indices,
    gcd_of_vector,
    make_word,
    parse_word,
    reduce_letters,
    sample_word,
)
from wordlab.rng import stream

from conftest import get_group


def test_reduction_basics():
    assert reduce_letters([1, -1], 2) == ()
    assert reduce_letters([1, 2, -2, -1], 2) == ()
    assert reduce_letters([1, 2, -2, 1], 2) == (1, 1)
    assert reduce_letters([1, 2, 1], 2) == (1, 2, 1)
    assert reduce_letters([-2, 2, 1], 2) == (1,)


def test_word_construction_and_text():
    w = make_word([1, 2, -1, -2], 2)
    assert w.to_text() == "x1 x2 X1 X2"
    # computed once and kept on the word; equality and hashing ignore it
    assert w.to_text() is w.to_text() and abelianize(w) is abelianize(w)
    assert w == make_word([1, 2, -1, -2], 2) and hash(w) == hash(make_word([1, 2, -1, -2], 2))
    assert parse_word("x1 x2 X1 X2").letters == w.letters
    assert parse_word("x3", rank=5).rank == 5
    assert parse_word("x3").rank == 3
    assert len(w) == 4
    with pytest.raises(BadLetterError):
        parse_word("x0")
    with pytest.raises(BadLetterError):
        parse_word("y1")
    with pytest.raises(EmptyWordError):
        parse_word("")
    with pytest.raises(BadLetterError):
        Word(2, (3,))  # letter outside rank
    with pytest.raises(BadLetterError):
        Word(2, (1, -1))  # not reduced


def test_word_algebra():
    w = parse_word("x1 x2")
    v = parse_word("X2 x1")
    prod = w * v
    assert prod.letters == (1, 1)
    inv = w.inverse()
    assert inv.letters == (-2, -1)
    assert (w * inv).letters == ()
    sq = w**2
    assert sq.letters == (1, 2, 1, 2)
    assert (w**-1).letters == inv.letters
    assert (w**0).letters == ()
    with pytest.raises(RankMismatchError):
        _ = w * parse_word("x3")


def test_sampling_models():
    rng = stream(100)
    w = sample_word("positive", 3, 25, rng)
    assert len(w) == 25
    assert all(v > 0 for v in w.letters)
    w2 = sample_word("symmetric", 2, 40, stream(101))
    assert len(w2) <= 40
    assert all(0 < abs(v) <= 2 for v in w2.letters)
    # same stream, same word
    assert sample_word("symmetric", 2, 40, stream(101)).letters == w2.letters
    # parity of the reduced length matches the unreduced length
    assert (40 - len(w2)) % 2 == 0


def test_abelianize_and_gcd():
    assert abelianize(parse_word("x1 x2 X1 X2")) == (0, 0)
    assert abelianize(parse_word("x1 x1")) == (2,)
    assert abelianize(parse_word("x1 x2 x2 X1 x1")) == (1, 2)
    assert gcd_of_vector((0, 0)) == 0
    assert gcd_of_vector((4, 6)) == 2
    assert gcd_of_vector((-3, 0)) == 3


def test_bezout_certificate_small_cases():
    m, coeffs = bezout_certificate((6, 10, 15))
    assert m == 1
    assert sum(b * v for b, v in zip(coeffs, (6, 10, 15))) == 1
    assert max(abs(b) for b in coeffs) <= 15
    m, coeffs = bezout_certificate((4, 6))
    assert m == 2
    assert sum(b * v for b, v in zip(coeffs, (4, 6))) == 2
    with pytest.raises(EmptyWordError):
        bezout_certificate((0, 0))


@given(st.lists(st.integers(min_value=-50, max_value=50), min_size=1, max_size=6))
def test_bezout_certificate_bound_property(vec):
    if all(v == 0 for v in vec):
        return
    m, coeffs = bezout_certificate(tuple(vec))
    assert m == gcd_of_vector(vec) > 0
    assert sum(b * v for b, v in zip(coeffs, vec)) == m
    assert max(abs(b) for b in coeffs) <= max(abs(v) for v in vec)


def test_evaluation_against_manual_products():
    s3 = get_group("symmetric:3")
    w = parse_word("x1 x2 X1 X2")
    for x in range(6):
        for y in range(6):
            want = s3.mul(s3.mul(s3.mul(x, y), s3.inv(x)), s3.inv(y))
            assert evaluate_indices(w, s3, (x, y)) == want
    with pytest.raises(RankMismatchError):
        evaluate_indices(w, s3, (1,))


def test_empty_word_evaluates_to_identity():
    s3 = get_group("symmetric:3")
    w = Word(2, ())
    assert evaluate_indices(w, s3, (3, 4)) == s3.identity
