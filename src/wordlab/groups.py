"""Finite group carriers with dense 0-based element indices.

Every group enumerates its carrier deterministically with the identity at
index 0, so an element is just an index and a distribution over the group
is a flat integer array.  Multiplication is computed on a canonical form
per backend (residue, permutation tuple, matrix) and resolved back to an
index; groups of modest order additionally expose a dense numpy
multiplication table for vectorized consumers.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Optional, Sequence

import numpy as np

from .errors import (
    GroupMismatchError,
    MalformedCayleyTableError,
    TooLargeError,
    UnsupportedParameterError,
)

# Full-enumeration structural queries (center, commutators, quotients).
STRUCTURE_CAP = 20_000
# Dense numpy multiplication tables are built lazily up to this order.
TABLE_CAP = 4096
# Products per mul_vec call while a table is built (small keeps peak memory low).
TABLE_BLOCK = 4096
# sl2/psl2: odd prime p with p(p^2-1) <= 10^6.
SL2_CARRIER_CAP = 10**6
# symmetric/alternating: n <= 9.
PERM_DEGREE_CAP = 9

GROUP_KINDS = (
    "cyclic",
    "dihedral",
    "symmetric",
    "alternating",
    "sl2",
    "psl2",
    "cayley-file",
)


@dataclass(frozen=True)
class GroupSpec:
    """Constructible group description, e.g. kind='psl2', parameter=7."""

    kind: str
    parameter: int
    path: Optional[str] = None

    def __str__(self) -> str:
        if self.kind == "cayley-file":
            return f"cayley-file:{self.path}"
        return f"{self.kind}:{self.parameter}"

    @classmethod
    def parse(cls, text: str) -> "GroupSpec":
        text = text.strip()
        if ":" not in text:
            raise UnsupportedParameterError(f"bad group spec {text!r}: expected kind:parameter")
        kind, _, rest = text.partition(":")
        kind = kind.strip()
        if kind == "cayley-file":
            return cls(kind=kind, parameter=0, path=rest.strip())
        if kind not in GROUP_KINDS:
            raise UnsupportedParameterError(f"unknown group kind {kind!r}")
        try:
            parameter = int(rest)
        except ValueError:
            raise UnsupportedParameterError(f"bad parameter in group spec {text!r}") from None
        return cls(kind=kind, parameter=parameter)


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    for q in range(2, math.isqrt(n) + 1):
        if n % q == 0:
            return False
    return True


class Group:
    """Base carrier: order, identity at index 0, mul/inv on indices."""

    spec: Optional[GroupSpec]
    name: str
    order: int
    identity: int = 0

    def mul(self, a: int, b: int) -> int:
        raise NotImplementedError

    def inv(self, a: int) -> int:
        raise NotImplementedError

    def pow(self, a: int, k: int) -> int:
        """Square-and-multiply power; negative exponents via inverse."""
        if k < 0:
            a, k = self.inv(a), -k
        acc = self.identity
        while k:
            if k & 1:
                acc = self.mul(acc, a)
            a = self.mul(a, a)
            k >>= 1
        return acc

    def elements(self) -> range:
        return range(self.order)

    def element(self, index: int) -> "Element":
        if not 0 <= index < self.order:
            raise IndexError(f"element index {index} out of range for {self.name}")
        return Element(self, index)

    def element_repr(self, index: int) -> str:
        return str(index)

    # --- vectorized multiplication and dense table support --------------

    _table: Optional[np.ndarray] = None
    _inv_array: Optional[np.ndarray] = None
    _class_labels: Optional[np.ndarray] = None

    # Every backend writes one bulk product, `mul_lifted`, on its own form
    # of index arrays: `lift` takes indices there and `lower` back.  Indices
    # are that form unless a backend overrides both.  A word is lifted once,
    # multiplied there and lowered once (see `word_multiplier`).

    def lift(self, x):
        return x

    def lower(self, x):
        return x

    def mul_vec(self, a, b) -> np.ndarray:
        """Elementwise product of index arrays (numpy broadcasting applies)."""
        return self.lower(self.mul_lifted(self.lift(a), self.lift(b)))

    @property
    def has_table(self) -> bool:
        return self.order <= TABLE_CAP

    def mul_table(self) -> np.ndarray:
        """Dense int32 table, table[a, b] = a*b.  Built lazily, cached."""
        if self._table is None:
            if not self.has_table:
                raise TooLargeError(
                    f"{self.name}: order {self.order} exceeds table cap {TABLE_CAP}"
                )
            self._table = self._build_table()
        return self._table

    def _build_table(self) -> np.ndarray:
        """Fill the table in row blocks of about TABLE_BLOCK products each."""
        n = self.order
        table = np.empty((n, n), dtype=np.int32)
        cols = np.arange(n, dtype=np.int64)
        step = max(1, TABLE_BLOCK // n)
        for a in range(0, n, step):
            rows = np.arange(a, min(a + step, n), dtype=np.int64)
            table[a:a + step] = self.mul_vec(rows[:, None], cols)
        return table

    def inv_array(self) -> np.ndarray:
        if self._inv_array is None:
            self._inv_array = np.array([self.inv(a) for a in range(self.order)], dtype=np.int32)
        return self._inv_array

    def __repr__(self) -> str:
        return f"<Group {self.name} order={self.order}>"


@dataclass(frozen=True)
class Element:
    """An element is its owning group plus a dense carrier index."""

    group: Group
    index: int

    def _check(self, other: "Element") -> None:
        if self.group is not other.group and (
            self.group.name != other.group.name or self.group.order != other.group.order
        ):
            raise GroupMismatchError(
                f"elements of {self.group.name} and {other.group.name} cannot combine"
            )

    def __mul__(self, other: "Element") -> "Element":
        self._check(other)
        return Element(self.group, self.group.mul(self.index, other.index))

    def inverse(self) -> "Element":
        return Element(self.group, self.group.inv(self.index))

    def __pow__(self, k: int) -> "Element":
        return Element(self.group, self.group.pow(self.index, k))

    def is_identity(self) -> bool:
        return self.index == self.group.identity

    def __repr__(self) -> str:
        return f"{self.group.name}[{self.index}]"


# ---------------------------------------------------------------------------
# Backends
# ---------------------------------------------------------------------------


class CyclicGroup(Group):
    def __init__(self, n: int):
        if n < 1:
            raise UnsupportedParameterError(f"cyclic group needs n >= 1, got {n}")
        self.spec = GroupSpec("cyclic", n)
        self.name = str(self.spec)
        self.order = n

    def mul(self, a: int, b: int) -> int:
        return (a + b) % self.order

    def inv(self, a: int) -> int:
        return (-a) % self.order

    def mul_lifted(self, a, b) -> np.ndarray:
        return (np.asarray(a, dtype=np.int64) + np.asarray(b, dtype=np.int64)) % self.order


class DihedralGroup(Group):
    """Symmetries of the regular n-gon; index = rotation + n * flip."""

    def __init__(self, n: int):
        if n < 1:
            raise UnsupportedParameterError(f"dihedral group needs n >= 1, got {n}")
        self.spec = GroupSpec("dihedral", n)
        self.name = str(self.spec)
        self.n = n
        self.order = 2 * n

    def mul(self, a: int, b: int) -> int:
        n = self.n
        ra, fa = a % n, a // n
        rb, fb = b % n, b // n
        rot = (ra - rb) % n if fa else (ra + rb) % n
        return rot + n * (fa ^ fb)

    def inv(self, a: int) -> int:
        n = self.n
        ra, fa = a % n, a // n
        return a if fa else (-ra) % n

    def mul_lifted(self, a, b) -> np.ndarray:
        n = self.n
        a = np.asarray(a, dtype=np.int64)
        b = np.asarray(b, dtype=np.int64)
        ra, fa = a % n, a // n
        rb, fb = b % n, b // n
        rot = np.where(fa == 1, (ra - rb) % n, (ra + rb) % n)
        return rot + n * (fa ^ fb)

    def element_repr(self, index: int) -> str:
        r, f = index % self.n, index // self.n
        return f"r{r}" + ("s" if f else "")


def _perm_sign(perm: Sequence[int]) -> int:
    seen = [False] * len(perm)
    sign = 1
    for start in range(len(perm)):
        if seen[start]:
            continue
        length = 0
        j = start
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


class PermutationGroup(Group):
    """S_n or A_n on points 0..n-1, carrier in lexicographic order."""

    def __init__(self, kind: str, n: int):
        if not 1 <= n <= PERM_DEGREE_CAP:
            raise UnsupportedParameterError(
                f"{kind} group needs 1 <= n <= {PERM_DEGREE_CAP}, got {n}"
            )
        self.spec = GroupSpec(kind, n)
        self.name = str(self.spec)
        self.n = n
        even_only = kind == "alternating"
        carrier = [
            p for p in itertools.permutations(range(n)) if not even_only or _perm_sign(p) == 1
        ]
        # lexicographic order puts the identity first
        self.carrier = carrier
        self.order = len(carrier)
        self._index = {p: i for i, p in enumerate(carrier)}
        self._radix = n ** np.arange(n - 1, -1, -1, dtype=np.int64)

    def mul(self, a: int, b: int) -> int:
        pa, pb = self.carrier[a], self.carrier[b]
        return self._index[tuple(pa[x] for x in pb)]

    def inv(self, a: int) -> int:
        pa = self.carrier[a]
        out = [0] * self.n
        for i, x in enumerate(pa):
            out[x] = i
        return self._index[tuple(out)]

    # Arrays are multiplied on one-line rows.  The carrier is lexicographic,
    # so the rows' base-n values ascend and one searchsorted ranks a row.

    @functools.cached_property
    def _rows(self) -> np.ndarray:
        return np.array(self.carrier, dtype=np.int8)

    @functools.cached_property
    def _values(self) -> np.ndarray:
        return self._rows @ self._radix

    def lift(self, x) -> np.ndarray:
        """One-line rows of the index array x, on a new last axis."""
        return self._rows[np.asarray(x)]

    def mul_lifted(self, x, y) -> np.ndarray:
        x, y = np.broadcast_arrays(x, y)
        return np.take_along_axis(x, y.astype(np.intp), axis=-1)

    def lower(self, x) -> np.ndarray:
        return np.searchsorted(self._values, x @ self._radix)

    def inv_array(self) -> np.ndarray:
        # the inverse of a one-line permutation is its argsort
        if self._inv_array is None:
            self._inv_array = self.lower(np.argsort(self._rows, axis=1)).astype(np.int32)
        return self._inv_array

    def element_repr(self, index: int) -> str:
        return _cycle_notation(self.carrier[index])

    def index_of_perm(self, perm: Sequence[int]) -> int:
        """Look up a one-line permutation of 0..n-1 (raises KeyError if absent)."""
        return self._index[tuple(perm)]

    def index_of_cycles(self, cycles: Sequence[Sequence[int]]) -> int:
        """Look up a permutation given as disjoint cycles on 1..n, e.g. [(1,2,3)]."""
        perm = list(range(self.n))
        for cyc in cycles:
            pts = [c - 1 for c in cyc]
            for i, pt in enumerate(pts):
                perm[pt] = pts[(i + 1) % len(pts)]
        return self._index[tuple(perm)]


def _cycle_notation(perm: Sequence[int]) -> str:
    seen = [False] * len(perm)
    parts = []
    for start in range(len(perm)):
        if seen[start] or perm[start] == start:
            seen[start] = True
            continue
        cyc = []
        j = start
        while not seen[j]:
            seen[j] = True
            cyc.append(str(j + 1))
            j = perm[j]
        parts.append("(" + " ".join(cyc) + ")")
    return "".join(parts) if parts else "()"


class _MatrixGroup(Group):
    """Common machinery for SL(2,p) and PSL(2,p).

    Elements are 2x2 matrices mod p of determinant 1 (for PSL, the lex-min
    of {M, -M}).  Carrier order: identity first, the rest sorted by the
    packed value ((a*p+b)*p+c)*p+d.  `entries` holds four arrays, the a, b,
    c, d of every index, and a rank table sends each of the p(p^2-1)
    matrices of SL(2,p) to its index, so a product is four dot products
    mod p and one lookup.  A word is multiplied out on the entries (`lift`,
    `mul_lifted`) and ranked once at the end (`lower`).
    """

    # PSL(2,p): M and -M are one element
    modulo_sign = False

    def __init__(self, kind: str, p: int):
        if not _is_prime(p) or p == 2:
            raise UnsupportedParameterError(f"{kind} needs an odd prime, got {p}")
        if p * (p * p - 1) > SL2_CARRIER_CAP:
            raise UnsupportedParameterError(
                f"{kind}:{p} exceeds carrier cap p(p^2-1) <= {SL2_CARRIER_CAP}"
            )
        self.spec = GroupSpec(kind, p)
        self.name = str(self.spec)
        self.p = p
        entries = _sl2_entries(p)
        if self.modulo_sign:
            # M is the lex-min of {M, -M} iff its first nonzero entry is < p/2
            a, b = entries[:2]
            keep = np.where(a, a, b) <= p // 2
            entries = [e[keep] for e in entries]
        # the identity is the least matrix with a != 0
        first = int(np.count_nonzero(entries[0] == 0))
        order = np.r_[first, 0:first, first + 1:entries[0].size]
        # Entries are < p <= 97 and a sum of two products of them is at most
        # 2(p-1)^2 <= 18432, so int16 holds both and a lookup reduces mod p.
        self.entries = tuple(e[order].astype(np.int16) for e in entries)
        self._mod_p = (np.arange(2 * (p - 1) ** 2 + 1) % p).astype(np.int16)
        self.order = order.size
        indices = np.arange(self.order, dtype=np.int64)
        self._index_of_rank = np.empty(p * (p * p - 1), dtype=np.int64)
        self._index_of_rank[self._rank(*self.entries)] = indices
        if self.modulo_sign:
            self._index_of_rank[self._rank(*(-e % p for e in self.entries))] = indices

    def _rank(self, a, b, c, d):
        """Rank of det-1 matrices in 0 .. p(p^2-1)-1.

        ((a-1)p + b)p + c when a != 0 (det = 1 fixes d); when a = 0 the
        same expression with d for c is negative, and mod p(p^2-1) it is
        (p-1)p^2 + (b-1)p + d (c = -1/b is fixed).
        """
        p = self.p
        a = a.astype(np.int32)  # ranks reach p^3: past int16
        return (((a - 1) * p + b) * p + c + (d - c) * (a == 0)) % (p * (p * p - 1))

    def mul(self, x: int, y: int) -> int:
        # reads (on first use, builds) the table when the group has one
        return int(vector_multiplier(self)(x, y))

    def inv(self, x: int) -> int:
        return int(self.inv_array()[x])

    def matrix(self, index: int) -> tuple:
        """Canonical representative as ((a, b), (c, d)) with entries mod p."""
        a, b, c, d = [v.item(index) for v in self.entries]
        return ((a, b), (c, d))

    def element_repr(self, index: int) -> str:
        (a, b), (c, d) = self.matrix(index)
        return f"[[{a},{b}],[{c},{d}]]"

    def lift(self, x) -> tuple:
        """The entry arrays (a, b, c, d) of the index array x."""
        return tuple(e[x] for e in self.entries)

    def mul_lifted(self, x: tuple, y: tuple) -> tuple:
        mod_p = self._mod_p.take
        a0, b0, c0, d0 = x
        a1, b1, c1, d1 = y
        return (mod_p(a0 * a1 + b0 * c1), mod_p(a0 * b1 + b0 * d1),
                mod_p(c0 * a1 + d0 * c1), mod_p(c0 * b1 + d0 * d1))

    def lower(self, x: tuple) -> np.ndarray:
        """Indices of lifted matrices (for PSL, M and -M rank to one index)."""
        return self._index_of_rank.take(self._rank(*x))

    def inv_array(self) -> np.ndarray:
        # det = 1, so [[a,b],[c,d]]^-1 = [[d,-b],[-c,a]], over the whole carrier
        if self._inv_array is None:
            a, b, c, d = self.entries
            p = self.p
            self._inv_array = self._index_of_rank[self._rank(d, -b % p, -c % p, a)].astype(np.int32)
        return self._inv_array


def _sl2_entries(p: int) -> list:
    """Entry arrays a, b, c, d of every det-1 matrix mod p, in packed (lex) order."""
    inv = np.array([0] + [pow(x, p - 2, p) for x in range(1, p)], dtype=np.int64)
    # a = 0: b != 0, c = -1/b, any d
    b = np.repeat(np.arange(1, p, dtype=np.int64), p)
    zero = [np.zeros_like(b), b, -inv[b] % p, np.tile(np.arange(p, dtype=np.int64), p - 1)]
    # a != 0: any b, c, and d = (1 + bc)/a
    a, bc = np.divmod(np.arange(p * p * (p - 1), dtype=np.int64), p * p)
    a += 1
    b, c = np.divmod(bc, p)
    rest = [a, b, c, (1 + b * c) * inv[a] % p]
    return [np.concatenate(pair) for pair in zip(zero, rest)]


class SL2Group(_MatrixGroup):
    def __init__(self, p: int):
        super().__init__("sl2", p)


class PSL2Group(_MatrixGroup):
    """SL(2,p) modulo its center {+-I}; representative = lex-min of {M, -M}."""

    modulo_sign = True

    def __init__(self, p: int):
        super().__init__("psl2", p)


class CayleyGroup(Group):
    """Group given by an explicit multiplication table.

    The law is one (n, n) int32 array; every row is a permutation, so the
    inverse of a is the position of 0 in row a.
    """

    def __init__(self, table: Sequence[Sequence[int]], name: str,
                 spec: Optional[GroupSpec] = None, validate: bool = True):
        self.spec = spec
        self.name = name
        self.order = len(table)
        if validate:
            self._table = _validate_cayley_table(table, name)
        else:
            self._table = np.asarray(table, dtype=np.int32)
        # attributes set by quotient constructions
        self.projection: Optional[list] = None
        self.parent: Optional[Group] = None

    def mul(self, a: int, b: int) -> int:
        return int(self._table[a, b])

    def inv(self, a: int) -> int:
        return int(self.inv_array()[a])

    def mul_lifted(self, a, b) -> np.ndarray:
        return self._table[np.asarray(a), np.asarray(b)]

    def inv_array(self) -> np.ndarray:
        if self._inv_array is None:
            self._inv_array = np.argmin(self._table, axis=1).astype(np.int32)
        return self._inv_array


class DirectPowerGroup(Group):
    """G^N with componentwise multiplication; index in mixed radix base |G|.

    The carrier is virtual (no table); coordinate 0 is the most significant
    digit of the index.
    """

    def __init__(self, base: Group, n_copies: int):
        if n_copies < 1:
            raise UnsupportedParameterError("direct power needs at least one copy")
        self.base = base
        self.copies = n_copies
        self.spec = None
        self.name = f"power({base.name},{n_copies})"
        self.order = base.order**n_copies

    def split(self, x: int) -> tuple:
        m = self.base.order
        out = []
        for _ in range(self.copies):
            x, r = divmod(x, m)
            out.append(r)
        return tuple(reversed(out))

    def join(self, coords: Sequence[int]) -> int:
        m = self.base.order
        x = 0
        for c in coords:
            x = x * m + c
        return x

    def mul(self, a: int, b: int) -> int:
        return self.join([self.base.mul(x, y) for x, y in zip(self.split(a), self.split(b))])

    def inv(self, a: int) -> int:
        return self.join([self.base.inv(c) for c in self.split(a)])

    @property
    def has_table(self) -> bool:
        # |G|^N squared table entries would dwarf the carrier: multiply natively
        return False

    # Arrays are multiplied as base-|G| coordinates on a new last axis; the
    # scalar methods above stay on Python ints, so they work past int64 too.

    @functools.cached_property
    def _radix(self) -> np.ndarray:
        if self.order - 1 > np.iinfo(np.int64).max:
            raise TooLargeError(f"{self.name}: indices of order {self.order} exceed int64")
        m = self.base.order
        return np.array([m**e for e in range(self.copies - 1, -1, -1)], dtype=np.int64)

    def lift(self, x) -> np.ndarray:
        return np.asarray(x, dtype=np.int64)[..., None] // self._radix % self.base.order

    def mul_lifted(self, x, y) -> np.ndarray:
        return vector_multiplier(self.base)(x, y)

    def lower(self, x) -> np.ndarray:
        return x @ self._radix

    def element_repr(self, index: int) -> str:
        return "(" + ",".join(self.base.element_repr(c) for c in self.split(index)) + ")"


# ---------------------------------------------------------------------------
# Cayley-table file handling
# ---------------------------------------------------------------------------


def _validate_cayley_table(rows: Sequence[Sequence[int]], name: str) -> np.ndarray:
    """Check that `rows` is the table of a group with identity 0 and return
    it as an (n, n) int32 array.

    The first defect found is reported: rows in order (each for its length,
    its range, then being a permutation), then columns, the left and the
    right identity, two-sided inverses and associativity.
    """
    n = len(rows)
    if n == 0:
        raise MalformedCayleyTableError(f"{name}: empty table")
    full = np.arange(n)
    # rows before `ragged` have n entries, rows before `in_range` also lie in [0, n)
    ragged = next((g for g, row in enumerate(rows) if len(row) != n), n)
    table = np.asarray(rows[:ragged]).reshape(ragged, n)
    out_of_range = np.flatnonzero(((table < 0) | (table >= n)).any(axis=1))
    in_range = out_of_range[0] if out_of_range.size else ragged
    table = table[:in_range].astype(np.int32, copy=False)
    not_perm = np.flatnonzero((np.sort(table, axis=1) != full).any(axis=1))
    if not_perm.size:
        raise MalformedCayleyTableError(f"{name}: row {not_perm[0]} is not a permutation of 0..{n - 1}")
    if in_range < ragged:
        raise MalformedCayleyTableError(f"{name}: row {in_range} has an index outside [0,{n})")
    if ragged < n:
        raise MalformedCayleyTableError(
            f"{name}: row {ragged} has {len(rows[ragged])} entries, expected {n}")
    bad = np.flatnonzero((np.sort(table, axis=0) != full[:, None]).any(axis=0))
    if bad.size:
        raise MalformedCayleyTableError(f"{name}: column {bad[0]} is not a permutation of 0..{n - 1}")
    bad = np.flatnonzero(table[0] != full)
    if bad.size:
        raise MalformedCayleyTableError(
            f"{name}: index 0 is not a left identity at row 0, column {bad[0]}")
    bad = np.flatnonzero(table[:, 0] != full)
    if bad.size:
        raise MalformedCayleyTableError(f"{name}: index 0 is not a right identity at row {bad[0]}")
    # two-sided inverses: row g holds its one 0 at column h = g^-1
    bad = np.flatnonzero(table[np.argmin(table, axis=1), full] != 0)
    if bad.size:
        raise MalformedCayleyTableError(f"{name}: row {bad[0]} has no two-sided inverse")
    # Associativity, exactly, by Light's test: the elements a with
    # (x*a)*y = x*(a*y) for all x, y are closed under products, so checking
    # every s in a set S suffices once right multiplication by S reaches
    # every element from the identity.
    for s in greedy_generators(lambda a, b: table[a, b], n, 0):
        bad = np.argwhere(table[table[:, s]] != table[:, table[s]])
        if bad.size:
            x, y = bad[0]
            raise MalformedCayleyTableError(f"{name}: associativity fails at ({x},{s},{y})")
    return table


class _TableEntries(dict):
    """Stored value of each parsed entry of an order-n table: the entry
    itself if it is an index, else -1, which fits the int32 array and fails
    the range check of its row like the value itself.  Indices are added
    as they are met, so the map never outgrows the file."""

    def __init__(self, n: int):
        super().__init__()
        self.n = n

    def __missing__(self, value: int) -> int:
        if 0 <= value < self.n:
            self[value] = value
            return value
        return -1


def load_cayley_table(path: str | Path) -> CayleyGroup:
    """Read the text format: first line order n, then n rows of n indices.

    Only the sequence of whitespace-separated tokens counts, not where the
    lines break.  The file is parsed one line at a time, each line's tokens
    with int() into an int32 array, so no str per token of the whole file
    is ever held.
    """
    path = Path(path)
    n = None
    count = 0
    rows = []
    try:
        with path.open() as text:
            for line in text:
                tokens = line.split()
                if not tokens:
                    continue
                count += len(tokens)
                try:
                    if n is None:
                        n = int(tokens.pop(0))
                        stored = _TableEntries(n).__getitem__
                    rows.append(np.fromiter(map(stored, map(int, tokens)), dtype=np.int32,
                                            count=len(tokens)))
                except ValueError:
                    raise MalformedCayleyTableError(f"{path}: non-integer token") from None
    except OSError as exc:
        raise MalformedCayleyTableError(f"cannot read {path}: {exc}") from exc
    if n is None:
        raise MalformedCayleyTableError(f"{path}: empty file")
    if n < 1 or count != 1 + n * n:
        raise MalformedCayleyTableError(
            f"{path}: expected {1 + n * n if n >= 1 else 'order line plus n^2'} tokens, got {count}"
        )
    spec = GroupSpec("cayley-file", n, path=str(path))
    return CayleyGroup(np.concatenate(rows).reshape(n, n), name=str(spec), spec=spec)


# ---------------------------------------------------------------------------
# Construction
# ---------------------------------------------------------------------------


def construct_group(spec: GroupSpec | str) -> Group:
    """Build the enumerated carrier for a spec (string form accepted)."""
    if isinstance(spec, str):
        spec = GroupSpec.parse(spec)
    kind = spec.kind
    if kind == "cyclic":
        return CyclicGroup(spec.parameter)
    if kind == "dihedral":
        return DihedralGroup(spec.parameter)
    if kind in ("symmetric", "alternating"):
        return PermutationGroup(kind, spec.parameter)
    if kind == "sl2":
        return SL2Group(spec.parameter)
    if kind == "psl2":
        return PSL2Group(spec.parameter)
    if kind == "cayley-file":
        if not spec.path:
            raise UnsupportedParameterError("cayley-file spec needs a path")
        return load_cayley_table(spec.path)
    raise UnsupportedParameterError(f"unknown group kind {kind!r}")


# The groups exercised by the test and experiment suites.
CATALOG_SPECS = (
    "cyclic:2",
    "cyclic:4",
    "cyclic:6",
    "dihedral:4",
    "symmetric:3",
    "symmetric:4",
    "alternating:4",
    "alternating:5",
    "alternating:6",
    "sl2:5",
    "sl2:7",
    "psl2:7",
    "psl2:11",
    "psl2:13",
)


# ---------------------------------------------------------------------------
# Structural queries (full enumeration, capped)
# ---------------------------------------------------------------------------


def _check_structure_cap(group: Group) -> None:
    if group.order > STRUCTURE_CAP:
        raise TooLargeError(
            f"{group.name}: order {group.order} exceeds structural cap {STRUCTURE_CAP}"
        )


def vector_multiplier(group: Group):
    """Elementwise multiplier on index arrays.

    Prefers a cached Cayley table (cheap fancy indexing), falls back to the
    group's native vectorized product.
    """
    if group.has_table:
        table = group.mul_table()

        def by_table(a, b):
            return table[a, b]

        return by_table
    return group.mul_vec


def _same(x):
    return x


def word_multiplier(group: Group) -> tuple:
    """(lift, mul, lower) for multiplying out a word on index arrays.

    `lift` takes index arrays to the form `mul` multiplies, and `lower`
    takes a product back to indices, so a word of L letters is L - 1 calls
    of `mul` between one lift per column and one lower.  A group with a
    table multiplies indices by it; any other group uses its own form
    (the entry arrays of SL(2,p) and PSL(2,p), the one-line rows of S_n).
    """
    if group.has_table:
        return _same, vector_multiplier(group), _same
    return group.lift, group.mul_lifted, group.lower


def power_array(group: Group, k: int, indices: Optional[np.ndarray] = None) -> np.ndarray:
    """g^k for every index g in `indices` (default: the whole carrier), by
    square-and-multiply in the form of `word_multiplier`.

    Agrees with `Group.pow` elementwise; negative exponents power the
    inverses.  The result has the shape of `indices`.
    """
    lift, mul, lower = word_multiplier(group)
    if indices is None:
        base = np.arange(group.order, dtype=np.int64)
    else:
        base = np.asarray(indices, dtype=np.int64)
    if k < 0:
        base, k = group.inv_array()[base].astype(np.int64), -k
    acc = lift(np.full(base.shape, group.identity, dtype=np.int64))
    base = lift(base)
    while k:
        if k & 1:
            acc = mul(acc, base)
        k >>= 1
        if k:
            base = mul(base, base)
    return lower(acc)


def class_labels(group: Group) -> np.ndarray:
    """label[x] = the least index in the conjugacy class of x.

    The classes are the orbits of the maps x -> s^-1 x s for s in a
    generating set S, built with 2|S||G| products.  Every label starts at
    its own index; each round lowers it to the least label among its images
    under the maps, then to the label of that label, until a round changes
    nothing.  A label only falls and stays inside its class, and a fixed
    point is constant on every orbit, so it is the least index.  Cached on
    the group, read-only.
    """
    if group._class_labels is None:
        carrier = np.arange(group.order, dtype=np.int64)
        s = group_generators(group)
        mul_vec = vector_multiplier(group)
        maps = mul_vec(mul_vec(group.inv_array()[s][:, None], carrier), s[:, None])
        labels = carrier
        while True:
            fallen = labels
            for conj in maps:
                fallen = np.minimum(fallen, fallen[conj])
            fallen = fallen[fallen]
            if np.array_equal(fallen, labels):
                break
            labels = fallen
        labels.flags.writeable = False
        group._class_labels = labels
    return group._class_labels


def _as_indices(group: Group, gens: Iterable[Element | int]) -> list:
    """Carrier indices of elements or ints; IndexError names one outside [0, |G|)."""
    out = []
    for g in gens:
        if isinstance(g, Element):
            if g.group is not group and g.group.name != group.name:
                raise GroupMismatchError(f"generator from {g.group.name}, expected {group.name}")
            g = g.index
        out.append(group.element(int(g)).index)
    return out


def right_orbit(mul_vec, n: int, start, gens, stop: Optional[int] = None) -> np.ndarray:
    """Mask of the elements reached from `start` by right multiplication by `gens`.

    Frontier expansion on index arrays: every element found is multiplied
    by every generator once.  Once more than `stop` elements are reached,
    the expansion ends and the mask comes back all True.  Nothing here
    assumes associativity, so it also runs on an unvalidated table.
    """
    gens = np.asarray(gens, dtype=np.int64)
    frontier = np.unique(np.asarray(start, dtype=np.int64))
    seen = np.zeros(n, dtype=bool)
    seen[frontier] = True
    size = frontier.size
    while frontier.size:
        if stop is not None and size > stop:
            seen[:] = True
            break
        reached = mul_vec(frontier[:, None], gens).ravel()
        frontier = np.unique(reached[~seen[reached]])
        seen[frontier] = True
        size += frontier.size
    return seen


def greedy_generators(mul_vec, n: int, identity: int) -> list:
    """Generators grown greedily: add the least element not yet reached
    until right multiplication by them reaches every element from `identity`.

    No Lagrange stop, so it also runs on a table not yet known to be a group;
    on a group, `group_generators` finds the same set faster.
    """
    gens = []
    reached = np.arange(n) == identity
    while not reached.all():
        gens.append(int(np.argmin(reached)))
        reached = right_orbit(mul_vec, n, [identity], gens)
    return gens


def group_generators(group: Group) -> np.ndarray:
    """The generating set of `greedy_generators`, as an index array.

    Each subgroup on the way is closed over the generators and their
    inverses (fewer rounds) with the Lagrange stop of `closure_mask`.
    """
    inv_arr = group.inv_array()
    gens = []
    reached = np.arange(group.order) == group.identity
    while not reached.all():
        gens.append(int(np.argmin(reached)))
        reached = closure_mask(group, gens + inv_arr[gens].tolist())
    return np.array(gens, dtype=np.int64)


def closure_mask(group: Group, gens: Sequence[int]) -> np.ndarray:
    """Boolean mask of the subgroup generated by the indices `gens`.

    A subgroup with more than |G|/2 elements is G (Lagrange), so the
    expansion stops as soon as it passes that size.
    """
    return right_orbit(vector_multiplier(group), group.order, [group.identity], gens,
                       stop=group.order // 2)


def closure(group: Group, gens: Iterable[Element | int]) -> frozenset:
    """Subgroup generated by gens (see `closure_mask`)."""
    gen_idx = _as_indices(group, gens)
    if not gen_idx:
        raise GroupMismatchError("closure needs at least one generator")
    return frozenset(np.flatnonzero(closure_mask(group, gen_idx)).tolist())


def center(group: Group) -> frozenset:
    """Elements alone in their conjugacy class: the labels that
    `class_labels` gives to exactly one element."""
    _check_structure_cap(group)
    sizes = np.bincount(class_labels(group), minlength=group.order)
    return frozenset(np.flatnonzero(sizes == 1).tolist())


def commutator_subgroup(group: Group) -> frozenset:
    """[G, G] as the normal closure of the commutators s^-1 t^-1 s t of a
    greedy generating set S (modulo it the images of S commute).

    Elements the subgroup lacks are adjoined one at a time, first those
    commutators, then the conjugates s^-1 g s of its generators g by each
    s in S, until conjugation by S brings nothing new.  Each adjoin grows
    the subgroup, so the closure is recomputed only O(log |G|) times.
    """
    _check_structure_cap(group)
    mul_vec = vector_multiplier(group)
    s = group_generators(group)
    s_inv = group.inv_array()[s]
    sub = np.arange(group.order) == group.identity
    gens = []
    pending = mul_vec(mul_vec(s_inv[:, None], s_inv), mul_vec(s[:, None], s)).ravel()
    while pending.size:
        for v in pending.tolist():
            if not sub[v]:
                gens.append(v)
                sub = closure_mask(group, gens)
        conj = mul_vec(mul_vec(s_inv[:, None], np.array(gens, dtype=np.int64)), s[:, None]).ravel()
        pending = conj[~sub[conj]]
    return frozenset(np.flatnonzero(sub).tolist())


def quotient_group(group: Group, normal: Iterable[int], name: str) -> CayleyGroup:
    """Quotient by a normal subgroup, as a Cayley-table group.

    Normality is checked on a greedy generating set S: s^-1 k s must lie
    in the subgroup for every s in S and every k in it.  Coset ids are
    assigned in order of each coset's minimal element index, so the
    identity coset gets id 0.  The result carries `.projection` (element
    index -> coset id) and `.parent`.
    """
    sub = np.array(sorted(set(normal)), dtype=np.int64)
    n = group.order
    if n % sub.size != 0:
        raise MalformedCayleyTableError(f"{name}: subgroup size {sub.size} does not divide {n}")
    mul_vec = vector_multiplier(group)
    in_sub = np.zeros(n, dtype=bool)
    in_sub[sub] = True
    s = group_generators(group)
    conj = mul_vec(mul_vec(group.inv_array()[s][:, None], sub), s[:, None])
    if not in_sub[conj].all():
        raise MalformedCayleyTableError(f"{name}: the subgroup is not normal")
    proj = np.full(n, -1, dtype=np.int64)
    reps = []
    for g in range(n):
        if proj[g] < 0:
            proj[mul_vec(g, sub)] = len(reps)
            reps.append(g)
    reps = np.array(reps, dtype=np.int64)
    q = CayleyGroup(proj[mul_vec(reps[:, None], reps)], name=name, validate=False)
    q.projection = proj.tolist()
    q.parent = group
    return q


def quotient_by_center(group: Group) -> CayleyGroup:
    z = center(group)
    return quotient_group(group, z, name=f"{group.name}/center")


def abelianization_invariants(group: Group) -> list:
    """Cyclic factors of G/[G,G], ascending, each dividing the next."""
    k = commutator_subgroup(group)
    ab = quotient_group(group, k, name=f"{group.name}/derived")
    n = ab.order
    if n == 1:
        return []
    primes = [q for q in range(2, n + 1) if n % q == 0 and _is_prime(q)]
    # per prime: lambda_k = number of cyclic p-factors with exponent >= k,
    # read off log_p #{x : x^{p^k} = e} for k = 0, 1, 2, ...
    per_prime_exponents = {}
    for p in primes:
        logs = [0]
        while True:
            pk = p ** len(logs)
            c = int(np.count_nonzero(power_array(ab, pk) == ab.identity))
            # c is the size of a subgroup of a p-group, an exact power of p
            logc = 0
            while c > 1:
                c //= p
                logc += 1
            if logc == logs[-1]:
                break
            logs.append(logc)
        lambdas = [logs[i] - logs[i - 1] for i in range(1, len(logs))]
        # lambdas is nonincreasing; conjugate partition gives factor exponents
        exps = [sum(1 for lam in lambdas if lam >= i) for i in range(1, (lambdas[0] if lambdas else 0) + 1)]
        per_prime_exponents[p] = exps  # descending factor exponents
    r = max(len(v) for v in per_prime_exponents.values())
    factors = []
    for j in range(r):
        d = 1
        for p, exps in per_prime_exponents.items():
            if j < len(exps):
                d *= p ** exps[j]
        factors.append(d)
    factors.reverse()  # ascending, each divides the next
    return factors


def is_perfect(group: Group) -> bool:
    return len(commutator_subgroup(group)) == group.order
