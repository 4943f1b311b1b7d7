"""Reduced words in a free group of finite rank, and their evaluation.

A word is stored as a tuple of nonzero signed letters: +i means the i-th
generator (1-based), -i its inverse.  Words are always kept freely reduced
(no adjacent letter/inverse pair).  Two sampling models are supported:
'positive' draws each letter uniformly from the d generators, 'symmetric'
draws uniformly from the 2d generators and inverses and then reduces.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

from .errors import (
    BadLetterError,
    EmptyWordError,
    RankMismatchError,
    TooLargeError,
    UnsupportedParameterError,
)
from .groups import Group
from .rng import Rng

MAX_WORD_LETTERS = 10_000

SAMPLING_MODELS = ("positive", "symmetric")


def _check_letters(letters: Sequence[int], rank: int) -> None:
    if rank < 1:
        raise UnsupportedParameterError(f"word rank must be >= 1, got {rank}")
    if len(letters) > MAX_WORD_LETTERS:
        raise TooLargeError(f"word length {len(letters)} exceeds cap {MAX_WORD_LETTERS}")
    for v in letters:
        if v == 0 or abs(v) > rank:
            raise BadLetterError(f"letter {v} invalid for rank {rank}")


def reduce_letters(letters: Sequence[int], rank: int) -> Tuple[int, ...]:
    """Freely reduce: repeatedly drop adjacent x x^-1 pairs (stack pass)."""
    _check_letters(letters, rank)
    stack: list = []
    for v in letters:
        if stack and stack[-1] == -v:
            stack.pop()
        else:
            stack.append(v)
    return tuple(stack)


@dataclass(frozen=True)
class Word:
    """A freely reduced word; use make_word/parse_word to build from raw letters."""

    rank: int
    letters: Tuple[int, ...]

    def __post_init__(self):
        _check_letters(self.letters, self.rank)
        for i in range(len(self.letters) - 1):
            if self.letters[i] == -self.letters[i + 1]:
                raise BadLetterError(
                    f"letters not reduced at position {i}: "
                    f"{self.letters[i]}, {self.letters[i + 1]}"
                )

    def __len__(self) -> int:
        return len(self.letters)

    def inverse(self) -> "Word":
        return Word(self.rank, tuple(-v for v in reversed(self.letters)))

    def __mul__(self, other: "Word") -> "Word":
        if self.rank != other.rank:
            raise RankMismatchError(f"ranks {self.rank} and {other.rank} differ")
        return Word(self.rank, reduce_letters(self.letters + other.letters, self.rank))

    def __pow__(self, k: int) -> "Word":
        base = self if k >= 0 else self.inverse()
        out = Word(self.rank, ())
        for _ in range(abs(k)):
            out = out * base
        return out

    # A word is frozen, so its text and exponent sums are computed once and
    # kept on it: one density cell reads each of them several times.

    @functools.cached_property
    def _text(self) -> str:
        return " ".join(f"x{v}" if v > 0 else f"X{-v}" for v in self.letters)

    @functools.cached_property
    def _exponent_sums(self) -> Tuple[int, ...]:
        out = [0] * self.rank
        for v in self.letters:
            out[abs(v) - 1] += 1 if v > 0 else -1
        return tuple(out)

    def to_text(self) -> str:
        """Serialize as e.g. 'x1 x2 X1' (capital = inverse)."""
        return self._text

    def __str__(self) -> str:
        return self.to_text() if self.letters else "(empty)"


def make_word(letters: Sequence[int], rank: int) -> Word:
    """Reduce raw letters and wrap them."""
    return Word(rank, reduce_letters(letters, rank))


def parse_word(text: str, rank: Optional[int] = None) -> Word:
    """Inverse of Word.to_text; rank defaults to the largest generator used."""
    letters = []
    for tok in text.split():
        if len(tok) < 2 or tok[0] not in "xX" or not tok[1:].isdigit():
            raise BadLetterError(f"bad word token {tok!r}")
        i = int(tok[1:])
        if i < 1:
            raise BadLetterError(f"bad word token {tok!r}")
        letters.append(i if tok[0] == "x" else -i)
    if rank is None:
        if not letters:
            raise EmptyWordError("cannot infer rank of an empty word")
        rank = max(abs(v) for v in letters)
    return make_word(letters, rank)


def sample_word(model: str, rank: int, length: int, rng: Rng) -> Word:
    """Draw a random word of the given unreduced length.

    'positive' words are already reduced; 'symmetric' words reduce, so the
    result may be shorter than `length` (possibly empty).
    """
    if model not in SAMPLING_MODELS:
        raise UnsupportedParameterError(f"unknown sampling model {model!r}")
    if rank < 1:
        raise UnsupportedParameterError(f"rank must be >= 1, got {rank}")
    if length < 0:
        raise UnsupportedParameterError(f"length must be >= 0, got {length}")
    if length > MAX_WORD_LETTERS:
        raise TooLargeError(f"length {length} exceeds cap {MAX_WORD_LETTERS}")
    if model == "positive":
        draws = rng.integers(1, rank + 1, size=length)
        return Word(rank, tuple(int(v) for v in draws))
    draws = rng.integers(0, 2 * rank, size=length)
    letters = [int(v // 2 + 1) * (1 if v % 2 == 0 else -1) for v in draws]
    return make_word(letters, rank)


# ---------------------------------------------------------------------------
# Abelianization and gcd data
# ---------------------------------------------------------------------------


def abelianize(word: Word) -> Tuple[int, ...]:
    """Exponent-sum vector, one entry per generator."""
    return word._exponent_sums


def gcd_of_vector(vec: Sequence[int]) -> int:
    """gcd of the entries, 0 for the zero vector."""
    g = 0
    for v in vec:
        g = math.gcd(g, v)
    return g


def _ext_gcd(a: int, b: int) -> Tuple[int, int, int]:
    """(g, x, y) with a x + b y = g >= 0."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        return -old_r, -old_s, -old_t
    return old_r, old_s, old_t


def _coeff_cost(b: Sequence[int]) -> Tuple[int, int]:
    return max(abs(v) for v in b), sum(abs(v) for v in b)


def _reduce_coefficients(vec: Sequence[int], b: list) -> None:
    """Shrink a Bezout coefficient vector by zero-sum lattice moves.

    For any pair i != j with vec nonzero, adding k*(vec[j]/g, -vec[i]/g)
    to (b[i], b[j]) preserves the inner product; coordinate descent over
    pairs drives max|b| down.
    """
    d = len(vec)
    idx = [i for i in range(d) if vec[i] != 0]
    for _ in range(32):
        improved = False
        for ii in range(len(idx)):
            for jj in range(len(idx)):
                if ii == jj:
                    continue
                i, j = idx[ii], idx[jj]
                g = math.gcd(vec[i], vec[j])
                u, v = vec[j] // g, -vec[i] // g
                best = _coeff_cost(b)
                best_k = 0
                candidates = set()
                for centre in (-b[i] / u if u else 0.0, b[j] / v if v else 0.0):
                    kc = round(centre)
                    candidates.update((kc - 1, kc, kc + 1))
                for k in candidates:
                    if k == 0:
                        continue
                    b[i] += k * u
                    b[j] += k * v
                    cost = _coeff_cost(b)
                    if cost < best:
                        best = cost
                        best_k = k
                    b[i] -= k * u
                    b[j] -= k * v
                if best_k:
                    b[i] += best_k * u
                    b[j] += best_k * v
                    improved = True
        if not improved:
            break


def bezout_certificate(vec: Sequence[int]) -> Tuple[int, Tuple[int, ...]]:
    """Return (m, b) with m = gcd(vec) > 0, sum b_i vec_i = m, max|b| <= max|vec|."""
    vec = tuple(int(v) for v in vec)
    if all(v == 0 for v in vec):
        raise EmptyWordError("all exponent sums are zero; no gcd certificate exists")
    m = gcd_of_vector(vec)
    d = len(vec)
    b = [0] * d
    g = 0
    for i, a in enumerate(vec):
        if a == 0:
            continue
        if g == 0:
            g = abs(a)
            b[i] = 1 if a > 0 else -1
            continue
        g2, s, t = _ext_gcd(g, a)
        if g2 == g:
            continue  # a is a multiple of g; keep existing coefficients
        for j in range(i):
            b[j] *= s
        b[i] = t
        g = g2
    _reduce_coefficients(vec, b)
    assert sum(bi * vi for bi, vi in zip(b, vec)) == m
    return m, tuple(b)


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------


def evaluate_indices(word: Word, group: Group, indices: Sequence[int]) -> int:
    """Evaluate at a tuple of element indices; returns an element index."""
    if len(indices) != word.rank:
        raise RankMismatchError(
            f"word of rank {word.rank} evaluated at {len(indices)} elements"
        )
    mul, inv = group.mul, group.inv
    acc = group.identity
    for v in word.letters:
        x = indices[v - 1] if v > 0 else inv(indices[-v - 1])
        acc = mul(acc, x)
    return acc
