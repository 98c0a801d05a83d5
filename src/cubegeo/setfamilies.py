"""Families of subsets of [n] as vertex masks of Q_n: down-compression,
shadows, intersection predicates, and level profiles.

A set A is a vertex of Q_n, element i being bit i, and a family is the
2^n-bit mask whose bit A is set iff A is a member. Down-compression moves
a member containing i to member \\ {i} unless that set is present; the
families it fixes in every direction are exactly the downsets.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import ceil
from typing import Iterable

from .core import _at_least, _bits, _check_dimension, _lo_pattern, _mask

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


@dataclass(frozen=True)
class SetFamily:
    """A family of subsets of [n]: bit A of ``mask`` is set iff A is a
    member, so equality and hashing of families are those of the masks."""

    n: int
    mask: int

    def __post_init__(self):
        _check_dimension(self.n)
        if self.mask < 0 or self.mask.bit_length() > 1 << self.n:
            raise ValueError(f"family mask has bits outside the 2^{self.n} subsets of [{self.n}]")

    @classmethod
    def of(cls, n: int, members: Iterable[int]) -> "SetFamily":
        _check_dimension(n)  # before a 2^n-bit mask is built
        ms = list(members)
        if ms and (min(ms) < 0 or max(ms) >> n):  # _mask would wrap a negative position
            raise ValueError(f"family members must lie in [0, 2^{n})")
        return cls(n, _mask(ms, 1 << n))

    @cached_property
    def sets(self) -> tuple[int, ...]:
        """The members, ascending."""
        return tuple(_bits(self.mask))

    def __len__(self) -> int:
        return self.mask.bit_count()


@dataclass(frozen=True)
class UniformFamily(SetFamily):
    """A family whose members all have exactly k elements."""

    k: int

    def __post_init__(self):
        super().__post_init__()
        sizes = {m.bit_count() for m in self.sets}
        if sizes - {self.k}:
            raise ValueError(f"members of sizes {sorted(sizes)} in a {self.k}-uniform family")
        if not 0 <= self.k <= self.n:
            raise ValueError(f"uniform size {self.k} out of range for ground set [{self.n}]")

    @classmethod
    def of(cls, n: int, members: Iterable[int], k: int | None = None) -> "UniformFamily":
        fam = SetFamily.of(n, members)
        if k is None:
            sizes = {m.bit_count() for m in fam.sets}
            if len(sizes) != 1:
                raise ValueError("k must be given for an empty or non-uniform family")
            k = sizes.pop()
        return cls(n, fam.mask, k)


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
    """Apply compress_element for i = 0..n-1 cyclically until a full pass
    changes nothing. Terminates because the total popcount strictly drops
    on every changing application; the result is a downset of the same
    size."""
    current, previous = SetFamily(fam.n, fam.mask), None
    while current != previous:
        previous = current
        for i in range(fam.n):
            current = compress_element(current, i)
    return current


def is_downset(fam: SetFamily) -> bool:
    """True iff removing any one element from any member stays in the
    family."""
    return not any(_without(fam, i) & ~fam.mask for i in range(fam.n))


def shadow(fam: UniformFamily) -> UniformFamily:
    """All (k-1)-sets contained in some member."""
    if fam.k < 1:
        raise ValueError("shadow of a 0-uniform family is undefined")
    out = 0
    for i in range(fam.n):
        out |= _without(fam, i)
    return UniformFamily(fam.n, out, fam.k - 1)


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
    including A = B, so every member itself needs at least t elements."""
    if t < 0:
        raise ValueError("intersection threshold must be nonnegative")
    sets = fam.sets
    for i, a in enumerate(sets):
        for b in sets[i:]:
            if (a & b).bit_count() < t:
                return False
    return True


def _level_masks(n: int) -> list[int]:
    """L_k for k = 0..n: the vertices of Q_n with exactly k elements, from
    the bit-sliced count of the n masks "element d present"."""
    full = (1 << (1 << n)) - 1
    at_least = _at_least(full, (full ^ _lo_pattern(n, d) for d in range(n)), n)
    return [a ^ b for a, b in zip(at_least, at_least[1:] + [0])]


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
    |A | B| >= d, equivalently (2k - ceil(d) + 1)-intersecting. Pairs
    include A = B.
    """
    if not is_downset(fam):
        raise ValueError("check requires a downset")
    d = Fraction(d)
    need = ceil(d)  # |A | B| >= d as an int comparison
    for k, level in enumerate(_level_masks(fam.n)):
        if k < d / 2:
            continue
        members = _bits(fam.mask & level)
        for i, a in enumerate(members):
            for b in members[i:]:
                if (a | b).bit_count() >= need:
                    return False
    return True
