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

from .core import CubeSubgraph, Edge, _bits, average_degree

__all__ = [
    "DirectionOrdering",
    "GeodesicPath",
    "IncreasingGeodesic",
    "LTable",
    "brute_force_increasing_lengths",
    "brute_force_longest_geodesic",
    "count_increasing_geodesics",
    "enumerate_geodesics_of_length",
    "extract_increasing_geodesic",
    "greedy_geodesic",
    "increasing_geodesic_table",
    "longest_geodesic_lower_bound",
    "random_ordering",
]

#: Default caps for the exhaustive oracles: an instance is in range when
#: n <= ORACLE_MAX_N or |E| <= ORACLE_MAX_EDGES.
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


class GeodesicPath:
    """A geodesic: vertex sequence plus the direction of each step.

    Directions are pairwise distinct, so the vertices are automatically
    distinct too. A path and its reversal are the same geodesic; equality
    and hashing use the canonical orientation (smaller endpoint first).
    """

    __slots__ = ("vertices", "directions")

    def __init__(self, vertices, directions=None):
        vertices = tuple(vertices)
        if not vertices:
            raise ValueError("a path needs at least one vertex")
        if directions is None:
            directions = tuple(
                Edge.between(u, v).dir for u, v in zip(vertices, vertices[1:])
            )
        else:
            directions = tuple(directions)
            if len(directions) != len(vertices) - 1:
                raise ValueError("need exactly one direction per step")
            for u, v, d in zip(vertices, vertices[1:], directions):
                if u ^ v != 1 << d:
                    raise ValueError(f"step {u}->{v} is not in direction {d}")
        if len(set(directions)) != len(directions):
            raise ValueError(f"directions {directions} repeat: not a geodesic")
        object.__setattr__(self, "vertices", vertices)
        object.__setattr__(self, "directions", directions)

    def __setattr__(self, name, value):
        raise AttributeError("GeodesicPath is immutable")

    @property
    def length(self) -> int:
        return len(self.directions)

    @property
    def start(self) -> int:
        return self.vertices[0]

    @property
    def end(self) -> int:
        return self.vertices[-1]

    def reversed(self) -> "GeodesicPath":
        return GeodesicPath(self.vertices[::-1], self.directions[::-1])

    def canonical(self) -> "GeodesicPath":
        """The orientation starting at the numerically smaller endpoint."""
        if self.end < self.start:
            return self.reversed()
        return self

    def _key(self):
        c = self.canonical()
        return (c.vertices, c.directions)

    def __eq__(self, other):
        if not isinstance(other, GeodesicPath):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        return f"{type(self).__name__}(vertices={self.vertices}, directions={self.directions})"


class IncreasingGeodesic(GeodesicPath):
    """A geodesic whose direction ranks strictly increase along the path
    (identity ordering by default)."""

    __slots__ = ("ordering",)

    def __init__(self, vertices, directions=None, ordering: DirectionOrdering | None = None):
        super().__init__(vertices, directions)
        if ordering is not None:
            ranks = ordering.ranks
            seq = [ranks[d] for d in self.directions]
        else:
            seq = list(self.directions)
        if any(a >= b for a, b in zip(seq, seq[1:])):
            raise ValueError(f"directions {self.directions} are not increasing")
        object.__setattr__(self, "ordering", ordering)


@dataclass(frozen=True)
class LTable:
    """Per-vertex longest increasing-geodesic lengths for one subgraph
    and ordering, kept as vertex masks, with what it takes to rebuild a
    witness.

    ``levels[t][k]`` is the 2^n-bit mask of the vertices whose longest
    increasing geodesic along the first t directions of the ordering has
    at least k edges. Each ``levels[t]`` ends at its last non-empty mask;
    ``levels[t][0]`` is the vertex set. ``lo_masks`` are the graph's
    per-direction edge masks. ``lengths`` (vertex -> length) and ``pred``
    (vertex -> last edge of its witness, or None) are views built from
    the masks on first use.

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

    @cached_property
    def pred(self) -> dict[int, tuple[int, int] | None]:
        steps = len(self.levels) - 1
        perm = self.ordering.perm
        pred = {}
        for v, length in self.lengths.items():
            if length:
                u, r = self._predecessor(v, length, steps)
                pred[v] = (u, perm[r])
            else:
                pred[v] = None
        return pred

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
    return IncreasingGeodesic(verts[::-1], dirs[::-1], ordering=table.ordering)


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


def _min_degree_core(g: CubeSubgraph, threshold) -> set[int]:
    """Vertices surviving repeated deletion of degree < threshold.

    Nonempty when threshold is half the average degree: each deletion
    then removes fewer than |E|/|V| edges, so deleting all |V| vertices
    would discard fewer than |E| edges.
    """
    deg = dict(g.degrees)
    alive = set(g.vertices)
    stack = sorted((v for v in alive if deg[v] < threshold), reverse=True)
    while stack:
        v = stack.pop()
        if v not in alive or deg[v] >= threshold:
            continue
        alive.remove(v)
        for dir, w in g.neighbours(v):
            if w in alive:
                deg[w] -= 1
                if deg[w] < threshold:
                    stack.append(w)
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
    v = min(core)
    verts = [v]
    dirs = []
    used = 0
    while True:
        step = None
        for dir, w in g.neighbours(v):
            if not (used >> dir) & 1 and w in core:
                step = (dir, w)
                break
        if step is None:
            break
        dir, w = step
        used |= 1 << dir
        dirs.append(dir)
        verts.append(w)
        v = w
    path = GeodesicPath(verts, dirs)
    if path.length < math.ceil(half):
        raise RuntimeError(f"greedy geodesic has {path.length} edges, below ceil({half})")
    return path


def _adjacency(g: CubeSubgraph) -> dict[int, list[tuple[int, int]]]:
    return {v: g.neighbours(v) for v in g.vertices}


def _check_oracle_cap(g: CubeSubgraph, max_n: int, max_edges: int) -> None:
    if g.n > max_n and g.edge_count > max_edges:
        raise ValueError(
            f"instance (n={g.n}, |E|={g.edge_count}) exceeds the oracle cap "
            f"(n <= {max_n} or |E| <= {max_edges})"
        )


def brute_force_longest_geodesic(
    g: CubeSubgraph, max_n: int = ORACLE_MAX_N, max_edges: int = ORACLE_MAX_EDGES
) -> GeodesicPath:
    """Exact maximum-length geodesic by memoized DFS over simple paths
    with a used-direction bitmask. Exponential in principle; guarded by
    the oracle cap."""
    if not g.vertices:
        raise ValueError("empty graph has no geodesics")
    _check_oracle_cap(g, max_n, max_edges)
    adj = _adjacency(g)
    memo: dict[tuple[int, int], tuple[int, int | None]] = {}

    def longest_from(v: int, used: int) -> tuple[int, int | None]:
        key = (v, used)
        hit = memo.get(key)
        if hit is not None:
            return hit
        best, best_dir = 0, None
        for dir, w in adj[v]:
            b = 1 << dir
            if used & b:
                continue
            sub = longest_from(w, used | b)[0] + 1
            if sub > best:
                best, best_dir = sub, dir
        memo[key] = (best, best_dir)
        return (best, best_dir)

    start = min(g.vertices)
    best = 0
    for v in g.vertices:
        length = longest_from(v, 0)[0]
        if length > best:
            start, best = v, length
    verts = [start]
    dirs = []
    v, used = start, 0
    while True:
        _, dir = longest_from(v, used)
        if dir is None:
            break
        v ^= 1 << dir
        used |= 1 << dir
        verts.append(v)
        dirs.append(dir)
    return GeodesicPath(verts, dirs)


def _count_paths(
    g: CubeSubgraph, d: int, perm, increasing: bool, found: set | None = None
) -> int:
    """Directed paths of g with d edges whose directions are distinct
    members of ``perm``, in ``perm``'s order when ``increasing``, found
    by a search over direction sequences.

    The paths that follow a sequence from the vertices of g are fixed by
    their ends W, and a step along direction dir (lo mask M, s = 2^dir)
    maps W to ((W & M) << s) | ((W >> s) & M). A full sequence adds
    popcount(W) paths; an empty prefix is not extended. With ``found``,
    each path is also added to it as a GeodesicPath.
    """
    masks = g.lo_masks
    n = len(perm)

    def walk(w: int, seq: list[int], start: int, used: int) -> int:
        depth = len(seq)
        if depth == d:
            if found is not None:
                flip = 0
                for dir in seq:
                    flip ^= 1 << dir
                for end in _bits(w):
                    verts = [end ^ flip]
                    for dir in seq:
                        verts.append(verts[-1] ^ (1 << dir))
                    found.add(GeodesicPath(verts, seq))
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
                seq.append(dir)
                total += walk(nxt, seq, q + 1 if increasing else 0, used | s)
                seq.pop()
        return total

    if d > n or not g.vertex_mask:
        return 0
    return walk(g.vertex_mask, [], 0, 0)


def enumerate_geodesics_of_length(
    g: CubeSubgraph,
    d: int,
    max_n: int = ORACLE_MAX_N,
    max_edges: int = ORACLE_MAX_EDGES,
    witnesses: bool = False,
):
    """Count the geodesics of g with exactly d edges.

    A path and its reversal count once: the search over every sequence of
    d distinct directions finds each path in both orientations, and the
    count returned is that total halved. With ``witnesses=True``, also
    returns the sorted canonical paths.
    """
    if d < 1:
        raise ValueError("geodesic length must be at least 1")
    _check_oracle_cap(g, max_n, max_edges)
    found: set[GeodesicPath] | None = set() if witnesses else None
    directed = _count_paths(g, d, range(g.n), False, found)
    if directed % 2:
        raise RuntimeError(f"odd number {directed} of directed geodesics with {d} edges")
    count = directed // 2
    if found is not None:
        if len(found) != count:
            raise RuntimeError(f"{len(found)} distinct geodesics with {d} edges, counted {count}")
        return count, sorted(found, key=lambda p: (p.canonical().vertices))
    return count


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


def brute_force_increasing_lengths(
    g: CubeSubgraph, ordering: DirectionOrdering | None = None
) -> dict[int, int]:
    """Oracle for the sweep table: per-vertex longest increasing-geodesic
    length by plain DFS over all rank-increasing paths. Shares no logic
    with increasing_geodesic_table."""
    if ordering is None:
        ordering = DirectionOrdering.identity(g.n)
    ranks = ordering.ranks
    adj = _adjacency(g)
    best = dict.fromkeys(g.vertices, 0)

    def dfs(v: int, last_rank: int, depth: int) -> None:
        if depth > best[v]:
            best[v] = depth
        for dir, w in adj[v]:
            r = ranks[dir]
            if r > last_rank:
                dfs(w, r, depth + 1)

    for s in g.vertices:
        dfs(s, -1, 0)
    return best
