"""Geodesic paths in hypercube subgraphs.

A geodesic is a path whose edge directions are pairwise distinct
(equivalently, a shortest path in Q_n between its endpoints). An
increasing geodesic additionally uses directions in strictly increasing
order with respect to a direction ordering.

The central algorithm is a direction-sweep dynamic program: process the
direction classes of the ordering one at a time, relaxing every edge of a
class simultaneously from pre-class values. Two edges in the same
direction are vertex-disjoint, so the batch update is well defined. The
sweep runs on 2^n-bit vertex masks, one per length: level k holds the
vertices whose longest increasing geodesic so far has at least k edges,
and a direction class updates every level with four big-int operations,
so a table costs at most n(n + 1) level updates whatever |E| is. The
table's per-vertex totals always sum to at least 2|E(G)|, which is the
inequality the verification harness checks on every generated instance.

Geodesic counts use the same masks: stepping the set of path ends along
one direction extends every path that follows a direction sequence at
once, so counting searches over direction sequences, not over paths.

All functions are pure; tables and paths are immutable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

from .core import CubeSubgraph, _at_least, _bits, average_degree

__all__ = [
    "DirectionOrdering",
    "GeodesicPath",
    "IncreasingGeodesic",
    "LTable",
    "count_increasing_geodesics",
    "enumerate_geodesics_of_length",
    "extract_increasing_geodesic",
    "greedy_geodesic",
    "increasing_geodesic_table",
    "longest_geodesic_lower_bound",
    "random_ordering",
]

#: Cap of enumerate_geodesics_of_length: an instance is in range
#: when n <= ORACLE_MAX_N or |E| <= ORACLE_MAX_EDGES.
ORACLE_MAX_N = 8
ORACLE_MAX_EDGES = 200


@dataclass(frozen=True)
class DirectionOrdering:
    """A permutation of the directions [0, n). ``perm[r]`` is the
    direction of rank r; a path is increasing with respect to the
    ordering when the ranks of its edge directions strictly increase."""

    perm: tuple[int, ...]

    def __post_init__(self):
        if sorted(self.perm) != list(range(len(self.perm))):
            raise ValueError(f"{self.perm} is not a permutation of 0..{len(self.perm) - 1}")

    @classmethod
    def identity(cls, n: int) -> "DirectionOrdering":
        return cls(tuple(range(n)))

    @cached_property
    def ranks(self) -> tuple[int, ...]:
        """Inverse permutation: ranks[direction] -> rank."""
        inv = [0] * len(self.perm)
        for r, d in enumerate(self.perm):
            inv[d] = r
        return tuple(inv)

    @property
    def n(self) -> int:
        return len(self.perm)


def random_ordering(n: int, rng) -> DirectionOrdering:
    """Uniformly random direction ordering: the identity shuffled by
    ``rng.shuffle`` (a Fisher-Yates shuffle on a ``SplitMix64``)."""
    perm = list(range(n))
    rng.shuffle(perm)
    return DirectionOrdering(tuple(perm))


@dataclass(frozen=True)
class GeodesicPath:
    """A geodesic: vertex sequence plus the direction of each step.

    Directions are pairwise distinct, so the vertices are automatically
    distinct too. Equality is that of the two fields, so a path and its
    reversal are different objects.
    """

    vertices: tuple[int, ...]
    directions: tuple[int, ...]

    def __post_init__(self):
        if not self.vertices:
            raise ValueError("a path needs at least one vertex")
        if len(self.directions) != len(self.vertices) - 1:
            raise ValueError("need exactly one direction per step")
        for u, v, d in zip(self.vertices, self.vertices[1:], self.directions):
            if u ^ v != 1 << d:
                raise ValueError(f"step {u}->{v} is not in direction {d}")
        if len(set(self.directions)) != len(self.directions):
            raise ValueError(f"directions {self.directions} repeat: not a geodesic")

    @property
    def length(self) -> int:
        return len(self.directions)


@dataclass(frozen=True)
class IncreasingGeodesic(GeodesicPath):
    """A geodesic whose direction ranks under ``ordering`` strictly
    increase along the path."""

    ordering: DirectionOrdering

    def __post_init__(self):
        super().__post_init__()
        ranks = self.ordering.ranks
        seq = [ranks[d] for d in self.directions]
        if any(a >= b for a, b in zip(seq, seq[1:])):
            raise ValueError(f"directions {self.directions} are not increasing")


@dataclass(frozen=True)
class LTable:
    """Per-vertex longest increasing-geodesic lengths for one subgraph
    and ordering, kept as vertex masks, with what it takes to rebuild a
    witness.

    ``levels[t][k]`` is the 2^n-bit mask of the vertices whose longest
    increasing geodesic along the first t directions of the ordering has
    at least k edges. Each ``levels[t]`` ends at its last non-empty mask;
    ``levels[t][0]`` is the vertex set. ``lo_masks`` are the graph's
    per-direction edge masks. ``lengths`` (vertex -> length) is a view
    built from the masks on first use; ``extract_increasing_geodesic``
    rebuilds the witness ending at a vertex.

    Witnesses are rebuilt backwards. The predecessor of v on its witness
    of l edges after t steps is the smallest u = v ^ 2^perm[r], r < t,
    joined to v by an edge and of length exactly l - 1 after r steps; the
    witness goes on from u after r steps. These are the choices of a
    sweep that relaxes edges one by one and breaks ties toward the
    smaller predecessor.
    """

    n: int
    ordering: DirectionOrdering
    lo_masks: tuple[int, ...] = field(repr=False)
    levels: tuple[tuple[int, ...], ...] = field(repr=False)

    @cached_property
    def lengths(self) -> dict[int, int]:
        final = (*self.levels[-1], 0)
        lengths = dict.fromkeys(_bits(final[0]), 0)
        for k in range(1, len(final) - 1):
            lengths.update(dict.fromkeys(_bits(final[k] & ~final[k + 1]), k))
        return lengths

    @property
    def total(self) -> int:
        """Sum of lengths over all vertices; always >= 2|E(G)|."""
        return sum(m.bit_count() for m in self.levels[-1][1:])

    @property
    def longest_end(self) -> int:
        """The smallest vertex of greatest length: the lowest bit of the
        top level."""
        top = self.levels[-1][-1]
        if not top:
            raise ValueError("empty graph has no geodesics")
        return (top & -top).bit_length() - 1

    def _predecessor(self, v: int, length: int, steps: int) -> tuple[int, int]:
        """(u, r): the predecessor of v on its witness of ``length`` edges
        after ``steps`` steps, and the step whose direction joins them."""
        best = None
        for r in range(steps):
            dir = self.ordering.perm[r]
            u = v ^ (1 << dir)
            if best is not None and u > best[0]:
                continue
            levels = self.levels[r]
            if (
                self.lo_masks[dir] >> min(u, v) & 1
                and length - 1 < len(levels)
                and levels[length - 1] >> u & 1
                and not (length < len(levels) and levels[length] >> u & 1)
            ):
                best = (u, r)
        if best is None:
            raise RuntimeError(
                f"vertex {v} has no predecessor at length {length} after {steps} steps"
            )
        return best


def increasing_geodesic_table(
    g: CubeSubgraph, ordering: DirectionOrdering | None = None
) -> LTable:
    """Longest increasing geodesic ending at each vertex, by a sweep over
    direction classes in rank order.

    With M the lo mask of direction d and s = 2^d, the class updates
    every level from its pre-class values at once:
    new[k] = old[k] | ((old[k-1] & M) << s) | ((old[k-1] >> s) & M).
    Each edge (x, y) of the class raises the two endpoint totals by at
    least 2 (whether or not the old values were equal), so the output
    always satisfies sum(lengths) >= 2|E(G)|.
    """
    if ordering is None:
        ordering = DirectionOrdering.identity(g.n)
    if ordering.n != g.n:
        raise ValueError(f"ordering over {ordering.n} directions used with Q_{g.n}")
    levels = (g.vertex_mask,)
    history = [levels]
    for dir in ordering.perm:
        m = g.lo_masks[dir]
        if m:
            s = 1 << dir
            raised = [
                old | ((below & m) << s) | ((below >> s) & m)
                for below, old in zip(levels, (*levels[1:], 0))
            ]
            if not raised[-1]:
                raised.pop()
            levels = (levels[0], *raised)
        history.append(levels)
    return LTable(g.n, ordering, g.lo_masks, tuple(history))


def extract_increasing_geodesic(table: LTable, v: int) -> IncreasingGeodesic:
    """The witness ending at v: a valid increasing geodesic with exactly
    ``table.lengths[v]`` edges, rebuilt backwards from the levels."""
    final = table.levels[-1]
    if v < 0 or not final[0] >> v & 1:
        raise ValueError(f"vertex {v} not in table")
    length = max(k for k, level in enumerate(final) if level >> v & 1)
    steps = len(table.levels) - 1
    verts = [v]
    dirs = []
    while length:
        v, steps = table._predecessor(v, length, steps)
        verts.append(v)
        dirs.append(table.ordering.perm[steps])
        length -= 1
    return IncreasingGeodesic(tuple(verts[::-1]), tuple(dirs[::-1]), table.ordering)


def longest_geodesic_lower_bound(
    g: CubeSubgraph, ordering: DirectionOrdering | None = None
) -> GeodesicPath:
    """The longest witness in the sweep table: a geodesic whose length is
    at least ceil(average_degree(g)), since the table totals at least
    2|E| = avg * |G| and lengths are integers."""
    if not g.vertex_mask:
        raise ValueError("empty graph has no geodesics")
    table = increasing_geodesic_table(g, ordering)
    return extract_increasing_geodesic(table, table.longest_end)


def _min_degree_core(g: CubeSubgraph, threshold) -> int:
    """The mask of the vertices surviving repeated deletion of degree <
    threshold.

    What survives is the unique largest subgraph of minimum degree at
    least k = ceil(threshold), so each round drops every vertex with
    fewer than k live neighbours at once. A round counts live neighbours
    in bit-sliced levels with ``_at_least``, as the sweep table counts
    lengths: the live edge ends of each direction are one mask.

    Nonempty when threshold is half the average degree: each deletion
    then removes fewer than |E|/|V| edges, so deleting all |V| vertices
    would discard fewer than |E| edges.
    """
    k = math.ceil(threshold)
    alive, previous = g.vertex_mask, None
    while alive != previous:
        lives = (m & alive & (alive >> (1 << dir)) for dir, m in enumerate(g.lo_masks))
        ends = (live | live << (1 << dir) for dir, live in enumerate(lives) if live)
        alive, previous = _at_least(alive, ends, k)[k], alive
    return alive


def greedy_geodesic(g: CubeSubgraph) -> GeodesicPath:
    """Baseline geodesic of length >= ceil(average_degree/2).

    Strips vertices of degree below half the average degree to reach a
    min-degree core, then extends greedily from the smallest core vertex
    along unused directions (smallest direction first). While fewer than
    avg/2 directions are used, the current core vertex still has an
    unused-direction neighbour in the core, so the walk cannot stop early.
    """
    if not g.vertex_mask:
        raise ValueError("empty graph has no geodesics")
    half = average_degree(g) / 2
    core = _min_degree_core(g, half)
    if not core:
        raise RuntimeError(f"min-degree core at threshold {half} is empty")
    v = (core & -core).bit_length() - 1
    verts = [v]
    dirs = []
    used = 0
    while True:
        for dir, m in enumerate(g.lo_masks):
            bit = 1 << dir
            if not used & bit and m >> (v & ~bit) & core >> (v ^ bit) & 1:
                break
        else:
            break
        used |= bit
        dirs.append(dir)
        v ^= bit
        verts.append(v)
    path = GeodesicPath(tuple(verts), tuple(dirs))
    if path.length < math.ceil(half):
        raise RuntimeError(f"greedy geodesic has {path.length} edges, below ceil({half})")
    return path


def _check_oracle_cap(g: CubeSubgraph) -> None:
    if g.n > ORACLE_MAX_N and g.edge_count > ORACLE_MAX_EDGES:
        raise ValueError(
            f"instance (n={g.n}, |E|={g.edge_count}) exceeds the oracle cap "
            f"(n <= {ORACLE_MAX_N} or |E| <= {ORACLE_MAX_EDGES})"
        )


def _count_paths(g: CubeSubgraph, d: int, perm, increasing: bool) -> int:
    """Directed paths of g with d edges whose directions are distinct
    members of ``perm``, in ``perm``'s order when ``increasing``, found
    by a search over direction sequences.

    The paths that follow a sequence from the vertices of g are fixed by
    their ends W, and a step along direction dir (lo mask M, s = 2^dir)
    maps W to ((W & M) << s) | ((W >> s) & M). A full sequence adds
    popcount(W) paths; an empty prefix is not extended.
    """
    masks = g.lo_masks
    n = len(perm)

    def walk(w: int, depth: int, start: int, used: int) -> int:
        if depth == d:
            return w.bit_count()
        total = 0
        for q in range(start, n - (d - depth) + 1 if increasing else n):
            dir = perm[q]
            s = 1 << dir
            if used & s:
                continue
            m = masks[dir]
            nxt = ((w & m) << s) | ((w >> s) & m)
            if nxt:
                total += walk(nxt, depth + 1, q + 1 if increasing else 0, used | s)
        return total

    if d > n or not g.vertex_mask:
        return 0
    return walk(g.vertex_mask, 0, 0, 0)


def enumerate_geodesics_of_length(g: CubeSubgraph, d: int) -> int:
    """Count the geodesics of g with exactly d edges.

    A path and its reversal count once: the search over every sequence of
    d distinct directions finds each path in both orientations, and the
    count returned is that total halved.
    """
    if d < 1:
        raise ValueError("geodesic length must be at least 1")
    _check_oracle_cap(g)
    directed = _count_paths(g, d, range(g.n), False)
    if directed % 2:
        raise RuntimeError(f"odd number {directed} of directed geodesics with {d} edges")
    return directed // 2


def count_increasing_geodesics(
    g: CubeSubgraph, d: int, ordering: DirectionOrdering | None = None
) -> int:
    """Number of oriented increasing geodesics with exactly d edges.

    Oriented means each path is counted with its increasing orientation;
    for d >= 2 that is the same as counting path objects (only one
    orientation can be increasing), while for d = 1 every edge counts in
    both orientations. Under this convention the count is at least |G|
    whenever average_degree(g) >= d for an integer d, and averaging over
    uniform orderings satisfies E(count) = 2 * L / d! where L is the
    unordered geodesic count of enumerate_geodesics_of_length.
    """
    if d < 1:
        raise ValueError("geodesic length must be at least 1")
    if ordering is None:
        ordering = DirectionOrdering.identity(g.n)
    if ordering.n != g.n:
        raise ValueError(f"ordering over {ordering.n} directions used with Q_{g.n}")
    return _count_paths(g, d, ordering.perm, True)
