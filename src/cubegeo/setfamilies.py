"""Families of subsets of [n] as bitmasks: down-compression, shadows,
intersection predicates, and level profiles.

Members are ints below 2^n; element i of the ground set is bit i. The
down-compression here is the standard size-preserving one: a member
containing i moves to member \\ {i} unless that smaller set is already
present. Families fixed by every compression are exactly the downsets.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable

__all__ = [
    "SetFamily",
    "UniformFamily",
    "compress_element",
    "feder_subi_intersecting_check",
    "full_compress",
    "is_downset",
    "is_t_intersecting",
    "iterated_shadow",
    "katona_check",
    "level_profile",
    "shadow",
]


@dataclass(frozen=True)
class SetFamily:
    """A duplicate-free family of subsets of [n], sorted for structural
    equality."""

    n: int
    sets: tuple[int, ...]

    @classmethod
    def of(cls, n: int, members: Iterable[int]) -> "SetFamily":
        ms = sorted(set(members))
        if ms and not 0 <= ms[0] <= ms[-1] < (1 << n):
            raise ValueError(f"family members must lie in [0, 2^{n})")
        return cls(n, tuple(ms))

    @cached_property
    def member_set(self) -> frozenset[int]:
        return frozenset(self.sets)

    def __len__(self) -> int:
        return len(self.sets)


@dataclass(frozen=True)
class UniformFamily(SetFamily):
    """A family whose members all have exactly k elements."""

    k: int

    @classmethod
    def of(cls, n: int, members: Iterable[int], k: int | None = None) -> "UniformFamily":
        ms = sorted(set(members))
        if ms and not 0 <= ms[0] <= ms[-1] < (1 << n):
            raise ValueError(f"family members must lie in [0, 2^{n})")
        sizes = {m.bit_count() for m in ms}
        if k is None:
            if len(sizes) != 1:
                raise ValueError("k must be given for an empty or non-uniform family")
            k = sizes.pop()
        elif sizes - {k}:
            raise ValueError(f"members of sizes {sorted(sizes)} in a {k}-uniform family")
        if not 0 <= k <= n:
            raise ValueError(f"uniform size {k} out of range for ground set [{n}]")
        return cls(n, tuple(ms), k)


def compress_element(fam: SetFamily, i: int) -> SetFamily:
    """Down-compress in direction i: each member containing i is replaced
    by member \\ {i} when that set is absent from the family, otherwise
    kept. Preserves the family size exactly."""
    if not 0 <= i < fam.n:
        raise ValueError(f"element index {i} out of range for ground set [{fam.n}]")
    bit = 1 << i
    present = fam.member_set
    out = []
    for a in fam.sets:
        if a & bit and (a ^ bit) not in present:
            out.append(a ^ bit)
        else:
            out.append(a)
    result = SetFamily.of(fam.n, out)
    if len(result) != len(fam):
        raise RuntimeError(f"compressing element {i} changed the family size {len(fam)} to {len(result)}")
    return result


def full_compress(fam: SetFamily) -> SetFamily:
    """Apply compress_element for i = 0..n-1 cyclically until a full pass
    changes nothing. Terminates because the total popcount strictly drops
    on every changing application; the result is a downset of the same
    size."""
    current = SetFamily.of(fam.n, fam.sets)
    while True:
        nxt = current
        for i in range(fam.n):
            nxt = compress_element(nxt, i)
        if nxt == current:
            return current
        current = nxt


def is_downset(fam: SetFamily) -> bool:
    """True iff removing any one element from any member stays in the
    family."""
    present = fam.member_set
    for a in fam.sets:
        rest = a
        while rest:
            bit = rest & -rest
            if (a ^ bit) not in present:
                return False
            rest ^= bit
    return True


def shadow(fam: UniformFamily) -> UniformFamily:
    """All (k-1)-sets contained in some member."""
    if fam.k < 1:
        raise ValueError("shadow of a 0-uniform family is undefined")
    out = set()
    for a in fam.sets:
        rest = a
        while rest:
            bit = rest & -rest
            out.add(a ^ bit)
            rest ^= bit
    return UniformFamily.of(fam.n, out, fam.k - 1)


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


def katona_check(fam: UniformFamily, t: int) -> bool:
    """Whether |t-fold shadow| >= |family| for a t-intersecting uniform
    family. Always true by Katona's shadow bound; a False return means an
    implementation bug and fails the test suite."""
    if not is_t_intersecting(fam, t):
        raise ValueError(f"family is not {t}-intersecting")
    return len(iterated_shadow(fam, t)) >= len(fam)


def level_profile(fam: SetFamily) -> tuple[int, ...]:
    """Member counts by size: entry k is the number of k-element members.

    The weighted sum over k equals the total popcount of the family; when
    the family is a downset inducing a subgraph of Q_n, that sum equals
    the induced edge count (each edge is counted at its upper endpoint,
    and a downset member of size k has exactly k lower neighbours).
    """
    counts = [0] * (fam.n + 1)
    for a in fam.sets:
        counts[a.bit_count()] += 1
    return tuple(counts)


def feder_subi_intersecting_check(fam: SetFamily, d) -> bool:
    """Internal-consistency check for a downset of claimed average degree
    d: every level at height k >= d/2 must be free of member pairs with
    |A | B| >= d, equivalently (2k - ceil(d) + 1)-intersecting. Pairs
    include A = B.
    """
    if not is_downset(fam):
        raise ValueError("check requires a downset")
    d = Fraction(d)
    by_level: dict[int, list[int]] = {}
    for a in fam.sets:
        by_level.setdefault(a.bit_count(), []).append(a)
    for k, members in by_level.items():
        if k < d / 2:
            continue
        for i, a in enumerate(members):
            for b in members[i:]:
                if (a | b).bit_count() >= d:
                    return False
    return True
