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

The increasing count runs the same sweep on bit-sliced count planes of
path ends; the unordered count steps such planes through a subset DP,
one set of planes per set of directions, not per path or sequence.

All functions are pure; tables and paths are immutable.
"""

from __future__ import annotations

import math
from itertools import zip_longest

from .core import CubeSubgraph, _Value, _at_least, _check_ints, average_degree

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

#: Cap of the geodesic counts: the most bits (here 1 GiB) one layer of count planes may hold.
COUNT_MAX_BITS = 1 << 33


class DirectionOrdering(_Value):
    """A permutation of the directions [0, n). ``perm[r]`` is the
    direction of rank r; a path is increasing with respect to the
    ordering when the ranks of its edge directions strictly increase."""

    __slots__ = _fields = ("perm",)

    def __init__(self, perm: tuple[int, ...]):
        if sorted(perm) != list(range(len(perm))):
            raise ValueError(f"{perm} is not a permutation of 0..{len(perm) - 1}")
        self._init(perm)

    @classmethod
    def identity(cls, n: int) -> "DirectionOrdering":
        return cls(tuple(range(n)))

    @property
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


def _step_directions(vertices: tuple[int, ...]) -> list[int]:
    """The direction of each step of a path, refused unless it has a
    vertex, all ints, the first non-negative (one-bit steps keep the rest
    so), each step is a cube edge and no direction repeats."""
    if not vertices:
        raise ValueError("a path needs at least one vertex")
    _check_ints(vertices, "vertex")
    dirs = []
    for u, v in zip(vertices, vertices[1:]):
        d = u ^ v
        if d <= 0 or d & (d - 1):
            raise ValueError(f"step {u}->{v} is not a cube edge")
        dirs.append(d.bit_length() - 1)
    if vertices[0] < 0:
        raise ValueError(f"vertex {vertices[0]} is negative: no vertex of a cube")
    if len(set(dirs)) != len(dirs):
        raise ValueError(f"directions {tuple(dirs)} repeat: not a geodesic")
    return dirs


class GeodesicPath(_Value):
    """A geodesic: a vertex sequence whose steps are cube edges in
    pairwise distinct directions, so its vertices are distinct too.
    Equality is by class and vertices, so a path and its reversal are
    different objects.
    """

    __slots__ = _fields = ("vertices",)

    def __init__(self, vertices: tuple[int, ...]):
        _step_directions(vertices)
        self._init(vertices)

    @property
    def length(self) -> int:
        return len(self.vertices) - 1


class IncreasingGeodesic(GeodesicPath):
    """A geodesic whose direction ranks under ``ordering`` strictly
    increase along the path."""

    __slots__ = ("ordering",)
    _fields = GeodesicPath._fields + __slots__

    def __init__(self, vertices: tuple[int, ...], ordering: DirectionOrdering):
        directions = _step_directions(vertices)
        ranks = list(map(ordering.ranks.__getitem__, directions))
        if ranks != sorted(ranks):  # the directions, and so their ranks, are distinct
            raise ValueError(f"directions {tuple(directions)} are not increasing")
        self._init(vertices, ordering)


class LTable(_Value):
    """Per-vertex longest increasing-geodesic lengths for one subgraph
    and ordering, kept as vertex masks, with what it takes to rebuild a
    witness.

    ``levels[t][k]`` is the 2^n-bit mask of the vertices whose longest
    increasing geodesic along the first t directions of the ordering has
    at least k edges. Each ``levels[t]`` ends at its last non-empty mask;
    ``levels[t][0]`` is the vertex set. ``lo_masks`` are the graph's
    per-direction edge masks. A vertex's length is the highest k with its
    bit set in ``levels[-1][k]``; ``extract_increasing_geodesic`` rebuilds
    the witness ending at a vertex from the step that raised it.
    """

    __slots__ = _fields = ("ordering", "lo_masks", "levels")

    def __init__(self, ordering: DirectionOrdering, lo_masks: tuple[int, ...], levels: tuple):
        self._init(ordering, lo_masks, levels)

    def __repr__(self) -> str:  # without the masks, which can run to millions of digits
        return f"LTable(n={self.ordering.n!r}, ordering={self.ordering!r})"

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


def _ordering_for(g: CubeSubgraph, ordering: DirectionOrdering | None) -> DirectionOrdering:
    """``ordering``, the identity by default, refused unless it orders g's n directions."""
    if ordering is None:
        return DirectionOrdering.identity(g.n)
    if ordering.n != g.n:
        raise ValueError(f"ordering over {ordering.n} directions used with Q_{g.n}")
    return ordering


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
    ordering = _ordering_for(g, ordering)
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
    return LTable(ordering, g.lo_masks, tuple(history))


def extract_increasing_geodesic(table: LTable, v: int) -> IncreasingGeodesic:
    """The witness ending at v: a valid increasing geodesic with as many
    edges as the highest k with bit v set in ``table.levels[-1][k]``,
    rebuilt backwards the way the sweep built it. Step t (direction
    ``perm[t-1]``) raised v to l edges when v is in ``levels[t][l]`` but
    not in ``levels[t-1][l]``; its neighbour u across that direction then
    had l - 1 edges after t - 1 steps, and the walk goes on from u. One
    step back per direction: O(n) per witness."""
    levels, perm = table.levels, table.ordering.perm
    final = levels[-1]
    if v < 0 or not final[0] >> v & 1:
        raise ValueError(f"vertex {v} not in table")
    length = max(k for k, level in enumerate(final) if level >> v & 1)
    t = len(levels) - 1
    verts = [v]
    while length:
        while t and length < len(levels[t - 1]) and levels[t - 1][length] >> v & 1:
            t -= 1
        dir = perm[t - 1] if t else 0
        u = v ^ (1 << dir)
        if not (t and length - 1 < len(levels[t - 1]) and levels[t - 1][length - 1] >> u & 1
                and table.lo_masks[dir] >> min(u, v) & 1):
            raise RuntimeError(f"vertex {v} has no predecessor at length {length} after {t} steps")
        verts.append(u)
        v, length, t = u, length - 1, t - 1
    return IncreasingGeodesic(tuple(verts[::-1]), table.ordering)


def longest_geodesic_lower_bound(
    g: CubeSubgraph, ordering: DirectionOrdering | None = None
) -> GeodesicPath:
    """The longest witness in the sweep table: a geodesic whose length is
    at least ceil(average_degree(g)), since the table totals at least
    2|E| = avg * |G| and lengths are integers. ``longest_end`` refuses
    the empty graph."""
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
    x along unused directions, those where the current vertex still
    agrees with x (smallest direction first). While fewer than
    avg/2 directions are used, the current core vertex still has an
    unused-direction neighbour in the core, so the walk cannot stop early.
    """
    if not g.vertex_mask:
        raise ValueError("empty graph has no geodesics")
    half = average_degree(g) / 2
    core = _min_degree_core(g, half)
    if not core:
        raise RuntimeError(f"min-degree core at threshold {half} is empty")
    x = v = (core & -core).bit_length() - 1
    verts = [v]
    while True:
        for dir, m in enumerate(g.lo_masks):
            bit = 1 << dir
            if not (v ^ x) & bit and m >> (v & ~bit) & core >> (v ^ bit) & 1:
                break
        else:
            break
        v ^= bit
        verts.append(v)
    path = GeodesicPath(tuple(verts))
    if path.length < math.ceil(half):
        raise RuntimeError(f"greedy geodesic has {path.length} edges, below ceil({half})")
    return path


def _add_planes(xs: list[int], ys: list[int]) -> list[int]:
    """The bit-sliced sum of two counts by a ripple carry: XOR for the sum, AND/OR for the carry."""
    out, carry = [], 0
    for x, y in zip_longest(xs, ys, fillvalue=0):
        out.append(x ^ y ^ carry)
        carry = (x & y) | (carry & (x ^ y))
    return out + [carry] if carry else out


def enumerate_geodesics_of_length(g: CubeSubgraph, d: int) -> int:
    """Count the geodesics of g with exactly d edges.

    A subset DP (Bellman; Held and Karp) over the n directions with edges
    counts directed paths: layer j maps each set of j directions to
    bit-sliced count planes of the paths with that set ending at each
    vertex, and steps into one set are added. A path and its reversal
    count once: the total is halved. Refused when a layer, C(n, j) sets of
    bit_length(j!) planes of 2^g.n bits, would exceed COUNT_MAX_BITS.
    """
    if d < 1:
        raise ValueError("geodesic length must be at least 1")
    steps = [(1 << dir, m) for dir, m in enumerate(g.lo_masks) if m]
    n = len(steps)
    if d > n:
        return 0
    bits = max(math.comb(n, j) * math.factorial(j).bit_length() for j in range(d + 1)) << g.n
    if bits > COUNT_MAX_BITS:
        raise ValueError(f"instance (n={g.n}, |E|={g.edge_count}, d={d}) needs {bits} layer bits, "
                         f"which exceeds the count cap {COUNT_MAX_BITS}")
    layer = {0: [g.vertex_mask]}
    for _ in range(d):
        sums = {}
        for used, planes in layer.items():
            for q, (s, m) in enumerate(steps):
                if not used >> q & 1:
                    moved = [((p & m) << s) | ((p >> s) & m) for p in planes]
                    if any(moved):
                        key = used | 1 << q
                        sums[key] = _add_planes(sums[key], moved) if key in sums else moved
        layer = sums
    directed = sum(p.bit_count() << i for planes in layer.values() for i, p in enumerate(planes))
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

    The sweep of ``increasing_geodesic_table`` on bit-sliced count planes:
    each direction with edges, in rank order, adds the moved ``counts[k-1]``
    (paths of k - 1 edges by end) into ``counts[k]``, k from high to low so
    each step reads pre-class values, and only for the k that can still
    reach d. No cap: of r directions with edges, at most C(r, k) paths of k
    edges end at a vertex, so ``counts[k]`` holds at most
    max(bit_length(C(r, j)) for j <= k) planes (a slot keeps the width of
    what is added into it): 463 in all at r = n = 24, under COUNT_MAX_BITS.
    """
    if d < 1:
        raise ValueError("geodesic length must be at least 1")
    steps = [(1 << dir, g.lo_masks[dir]) for dir in _ordering_for(g, ordering).perm if g.lo_masks[dir]]
    r = len(steps)
    counts = [[g.vertex_mask]] + [[]] * d  # slots are replaced, never changed in place
    for q, (s, m) in enumerate(steps):
        for k in range(min(d, q + 1), max(0, d - r + q), -1):
            moved = [((p & m) << s) | ((p >> s) & m) for p in counts[k - 1]]
            counts[k] = _add_planes(counts[k], moved) if counts[k] else moved
    return sum(p.bit_count() << i for i, p in enumerate(counts[d]))
