"""Families of subsets of [n] as vertex masks of Q_n: down-compression,
shadows, intersection predicates, and level profiles.

A set A is a vertex of Q_n, element i being bit i, and a family is the
2^n-bit mask whose bit A is set iff A is a member. Down-compression moves
a member containing i to member \\ {i} unless that set is present; the
families it fixes in every direction are exactly the downsets.
"""

from __future__ import annotations

from functools import lru_cache, reduce
from itertools import compress
from math import ceil
from operator import and_
from typing import Iterable

from .core import _Value, _at_least, _bits, _check_dimension, _check_ints, _lo_pattern, _mask, _set

__all__ = [
    "SetFamily",
    "UniformFamily",
    "compress_element",
    "feder_subi_intersecting_check",
    "full_compress",
    "is_downset",
    "is_t_intersecting",
    "iterated_shadow",
    "level_profile",
    "shadow",
]


class SetFamily(_Value):
    """A family of subsets of [n]: bit A of ``mask`` is set iff A is a
    member, so equality and hashing of families are those of the masks."""

    __slots__ = _fields = ("n", "mask")

    def __init__(self, n: int, mask: int):
        _check_dimension(n)
        if type(mask) is not int:
            raise TypeError(f"family mask {mask!r} is not an int")
        if mask < 0 or mask.bit_length() > 1 << n:
            raise ValueError(f"family mask has bits outside the 2^{n} subsets of [{n}]")
        self._init(n, mask)

    @classmethod
    def of(cls, n: int, members: Iterable[int]) -> "SetFamily":
        """The family of the given members, ints in [0, 2^n); the first
        that is no int (a bool is none) is named in a ``TypeError``."""
        _check_dimension(n)  # before a 2^n-bit mask is built
        ms = list(members)
        _check_ints(ms, "family member")
        if ms and (min(ms) < 0 or max(ms) >> n):  # _mask would wrap a negative position
            raise ValueError(f"family members must lie in [0, 2^{n})")
        return cls(n, _mask(ms, 1 << n))

    def __len__(self) -> int:
        return self.mask.bit_count()


class UniformFamily(SetFamily):
    """A family whose members all have exactly k elements."""

    __slots__ = ("k",)
    _fields = SetFamily._fields + __slots__

    def __init__(self, n: int, mask: int, k: int):
        super().__init__(n, mask)
        sizes = {m.bit_count() for m in _bits(mask)}
        if sizes - {k}:
            raise ValueError(f"members of sizes {sorted(sizes)} in a {k}-uniform family")
        if not 0 <= k <= n:
            raise ValueError(f"uniform size {k} out of range for ground set [{n}]")
        _set(self, "k", k)

    @classmethod
    def of(cls, n: int, members: Iterable[int], k: int) -> "UniformFamily":
        return cls(n, SetFamily.of(n, members).mask, k)


def _without(fam: SetFamily, i: int) -> int:
    """D_i: the members that contain i, with i removed."""
    return (fam.mask >> (1 << i)) & _lo_pattern(fam.n, i)


def compress_element(fam: SetFamily, i: int) -> SetFamily:
    """Down-compress in direction i: each member containing i is replaced
    by member \\ {i} when that set is absent from the family, otherwise
    kept. Preserves the family size exactly."""
    if not 0 <= i < fam.n:
        raise ValueError(f"element index {i} out of range for ground set [{fam.n}]")
    moved = _without(fam, i) & ~fam.mask
    result = SetFamily(fam.n, fam.mask ^ moved ^ (moved << (1 << i)))
    if len(result) != len(fam):
        raise RuntimeError(f"compressing element {i} changed the family size {len(fam)} to {len(result)}")
    return result


def full_compress(fam: SetFamily) -> SetFamily:
    """Apply compress_element once for each i = 0..n-1: a downset of the
    same size. Compressing in direction j leaves a family closed under
    removing i if it was before, so after the step for i the family stays
    closed under removing each of 0..i, and one pass is the fixpoint."""
    return reduce(compress_element, range(fam.n), SetFamily(fam.n, fam.mask))


def is_downset(fam: SetFamily) -> bool:
    """True iff removing any one element from any member stays in the
    family."""
    return not any(_without(fam, i) & ~fam.mask for i in range(fam.n))


def shadow(fam: UniformFamily) -> UniformFamily:
    """All (k-1)-sets contained in some member. Each is a k-member with
    one element removed, so the result is (k-1)-uniform by construction
    and is built without ``UniformFamily.__init__``'s member scan."""
    if fam.k < 1:
        raise ValueError("shadow of a 0-uniform family is undefined")
    out = 0
    for i in range(fam.n):
        out |= _without(fam, i)
    result = object.__new__(UniformFamily)
    result._init(fam.n, out, fam.k - 1)
    return result


def iterated_shadow(fam: UniformFamily, l: int) -> UniformFamily:
    """shadow applied l times; l = 0 is the identity."""
    if not 0 <= l <= fam.k:
        raise ValueError(f"cannot take a {l}-fold shadow of a {fam.k}-uniform family")
    current = fam
    for _ in range(l):
        current = shadow(current)
    return current


def is_t_intersecting(fam: SetFamily, t: int) -> bool:
    """True iff |A & B| >= t for every unordered pair of members,
    including A = B, so every member itself needs at least t elements.

    Bit-sliced over member indices: per element, the mask of the members
    that hold it (a column of the members' binary digits); the members
    sharing at least t elements with A are ``_at_least`` t of the masks
    of A's elements. Members that all hold the t elements held most
    often share them, so only the others are counted, up to the first
    that fails."""
    if t < 0:
        raise ValueError("intersection threshold must be nonnegative")
    everyone = (1 << len(fam)) - 1
    rows = [format(a, f"0{fam.n}b") for a in _bits(fam.mask)]  # column j is element n - 1 - j
    holders = [int("".join(column)[::-1], 2) for column in zip(*rows)]
    top = sorted(holders, key=int.bit_count, reverse=True)[:t]
    core = reduce(and_, top, everyone) if len(top) == t else 0
    return all(_at_least(everyone, compress(holders, map("1".__eq__, rows[i])), t)[t] == everyone
               for i in _bits(everyone ^ core))


@lru_cache(maxsize=1)
def _level_masks(n: int) -> tuple[int, ...]:
    """L_k for k = 0..n: the vertices of Q_n with exactly k elements, from
    the bit-sliced count of the n masks "element d present". Kept for the
    last n only: at n = 24 the masks take about 50 MB."""
    full = (1 << (1 << n)) - 1
    at_least = _at_least(full, (full ^ _lo_pattern(n, d) for d in range(n)), n)
    return tuple(a ^ b for a, b in zip(at_least, at_least[1:] + [0]))


def level_profile(fam: SetFamily) -> tuple[int, ...]:
    """Member counts by size: entry k is the number of k-element members.

    The weighted sum over k equals the total popcount of the family; when
    the family is a downset inducing a subgraph of Q_n, that sum equals
    the induced edge count (each edge is counted at its upper endpoint,
    and a downset member of size k has exactly k lower neighbours).
    """
    return tuple((fam.mask & level).bit_count() for level in _level_masks(fam.n))


def feder_subi_intersecting_check(fam: SetFamily, d) -> bool:
    """Internal-consistency check for a downset of claimed average degree
    d: every level at height k >= d/2 must be free of member pairs with
    |A | B| >= d, pairs including A = B. Two k-sets have |A | B| =
    2k - |A & B|, so the level must be t-intersecting for
    t = 2k - ceil(d) + 1, which is at least 1 there.
    """
    if not is_downset(fam):
        raise ValueError("check requires a downset")
    return all(is_t_intersecting(SetFamily(fam.n, fam.mask & level), 2 * k - ceil(d) + 1)
               for k, level in enumerate(_level_masks(fam.n)) if 2 * k >= d)
