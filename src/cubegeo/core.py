"""Vertices, directions, edges, and subgraphs of the hypercube Q_n.

Vertices of Q_n are plain ints in [0, 2^n), read as bitmasks: bit i is
coordinate i. Directions are ints in [0, n); an edge joins two vertices
that differ in exactly one coordinate, and its direction is that
coordinate's index. Everything here is 0-based, including all serialized
formats.

Subgraphs, colourings and the generators share the edge address and
edge order kept here: edge (lo, dir) is bit ``(dir << n) | lo`` of an
edge mask, whose 2^n-bit block d holds the lo endpoints of direction d,
and ``_edge_keys`` lists edges in (lo, dir) order.

All values are immutable after construction and safe to share across
concurrent workers.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import accumulate, chain, repeat
from operator import add, itemgetter, lshift, mul, or_
from typing import Iterable, NamedTuple, Sequence

#: Hard cap on the ambient dimension. Subset-indexed tables allocate
#: O(2^n) state, so anything beyond this is a usage error, not a feature.
MAX_DIMENSION = 24


class Edge(NamedTuple):
    """An edge of Q_n in canonical form: ``lo`` is the endpoint with bit
    ``dir`` equal to 0; the other endpoint is ``lo ^ (1 << dir)``."""

    lo: int
    dir: int

    @classmethod
    def between(cls, u: int, v: int) -> "Edge":
        """Canonical edge between two adjacent vertices.

        Raises ValueError if u and v do not differ in exactly one bit.
        """
        diff = u ^ v
        if diff == 0 or diff & (diff - 1):
            raise ValueError(
                f"vertices {u} and {v} differ in {bin(diff).count('1')} bits, not 1"
            )
        return cls(min(u, v), diff.bit_length() - 1)


def _check_dimension(n: int) -> None:
    if not 0 <= n <= MAX_DIMENSION:
        raise ValueError(f"dimension {n} outside supported range 0..{MAX_DIMENSION}")


def _check_vertex(v: int, n: int) -> None:
    if not 0 <= v < (1 << n):
        raise ValueError(f"vertex {v} out of range for Q_{n}")


@lru_cache(maxsize=None)
def _lo_pattern(n: int, dir: int) -> int:
    """Bitmask over 2^n positions with a 1 at position v iff bit ``dir``
    of v is 0, i.e. the canonical lo endpoints of direction ``dir``:
    a block of 2^dir ones, doubled by shift and OR until it spans 2^n
    bits (a division would be quadratic in 2^n)."""
    pattern, width = (1 << (1 << dir)) - 1, 2 << dir
    while width < 1 << n:
        pattern |= pattern << width
        width <<= 1
    return pattern


def _bits(m: int) -> list[int]:
    """Positions of the set bits of m, ascending. Splitting the binary
    digits (lowest first) at each 1 leaves the runs of 0s between set
    bits, so position k is the sum of the first k + 1 run lengths plus k;
    every step runs at C speed, with work per set bit, not per digit."""
    runs = format(m, "b")[::-1].split("1")
    return list(accumulate(map(add, map(len, runs), repeat(1)), initial=-1))[1:-1]


def _mask(positions: Iterable[int], size: int) -> int:
    """The int with exactly the given bits (all below ``size``) set.
    Built in a bytearray: OR-ing one-bit ints is quadratic."""
    buf = bytearray((size >> 3) + 1)
    for p in positions:
        buf[p >> 3] |= 1 << (p & 7)
    return int.from_bytes(buf, "little")


def _at_least(base: int, masks: Iterable[int], k: int) -> list[int]:
    """Entry j (0 <= j <= k): the bits of ``base`` set in at least j of
    ``masks``, counted in bit-sliced levels: level j holds those set in j
    masks seen so far."""
    levels = [base] + [0] * k
    for m in masks:
        for j in range(k, 0, -1):
            levels[j] |= levels[j - 1] & m
    return levels


def _pos(lo: int, dir: int, n: int) -> int:
    return (dir << n) | lo


def _blocks(mask: int, n: int, count: int) -> list[int]:
    """The first ``count`` 2^n-bit direction blocks of an edge mask of
    Q_n: bit lo of block d is the bit of edge (lo, d)."""
    low = (1 << (1 << n)) - 1
    return [(mask >> (d << n)) & low for d in range(count)]


def _join(blocks: Iterable[int], n: int) -> int:
    """The edge mask of Q_n whose direction block d is ``blocks[d]``."""
    mask = 0
    for d, block in enumerate(blocks):
        mask |= block << (d << n)
    return mask


@lru_cache(maxsize=None)
def _valid_edge_mask(n: int) -> int:
    return _join((_lo_pattern(n, dir) for dir in range(n)), n)


def _edge_keys(n: int, lo_masks: Iterable[int]) -> list[int]:
    """``lo * n + dir`` of the edges (lo, dir) in ``lo_masks``, ascending,
    which is (lo, dir) order; ``divmod(key, n)`` gives back (lo, dir)."""
    return sorted(chain.from_iterable(
        map(add, map(mul, _bits(m), repeat(n)), repeat(dir)) for dir, m in enumerate(lo_masks)
    ))


def _components(n: int, lomasks: Sequence[int]) -> list[int]:
    """Connected components (as vertex bitsets over all 2^n vertices) of
    the subgraph whose direction-d edges have lo endpoints in
    lomasks[d]. Isolated vertices are singleton components."""
    comps = []
    unvisited = (1 << (1 << n)) - 1
    shifts = [1 << d for d in range(n)]
    while unvisited:
        comp = unvisited & -unvisited
        while True:
            nxt = comp
            for d in range(n):
                sh = shifts[d]
                lom = lomasks[d]
                nxt |= (comp & lom) << sh
                nxt |= (comp >> sh) & lom
            if nxt == comp:
                break
            comp = nxt
        comps.append(comp)
        unvisited &= ~comp
    return comps


@dataclass(frozen=True)
class CubeSubgraph:
    """A subgraph of Q_n as bitmasks: bit v of ``vertex_mask`` is set iff
    v is a vertex, and bit lo of ``lo_masks[d]`` iff the edge (lo, d) is
    an edge. The masks are canonical, so equality and hashing of
    subgraphs are those of the masks. The sorted ``vertices`` and
    ``edges`` tuples, which ``max_hamming_pair`` and the report embedding
    of ``graph_to_obj`` read, are built from the masks on first use;
    every other reader, the graph file writer included, works on the
    masks."""

    n: int
    vertex_mask: int
    lo_masks: tuple[int, ...]

    @cached_property
    def vertices(self) -> tuple[int, ...]:
        """Sorted vertices."""
        return tuple(_bits(self.vertex_mask))

    @cached_property
    def edges(self) -> tuple[Edge, ...]:
        """Canonical edges sorted by (lo, dir)."""
        # tuple.__new__(Edge, (lo, dir)) builds each Edge at C speed
        keys = _edge_keys(self.n, self.lo_masks)
        return tuple(map(tuple.__new__, repeat(Edge), map(divmod, keys, repeat(self.n))))

    @property
    def edge_count(self) -> int:
        """|E|, by popcount: no edge tuple is built."""
        return sum(m.bit_count() for m in self.lo_masks)

    def __len__(self) -> int:
        return self.vertex_mask.bit_count()


def make_subgraph(
    n: int,
    vertices: Iterable[int],
    edges: Iterable[Sequence[int]],
) -> CubeSubgraph:
    """Validate and canonicalize a subgraph of Q_n.

    Each edge is a (lo, dir) pair: an ``Edge``, a tuple or a list; an
    item of another length is rejected before any value is checked. For
    endpoints u and v, ``Edge.between(u, v)`` gives the pair. Duplicates
    are dropped. Every edge endpoint must appear in ``vertices``.

    Validation is in bulk: ranges by min and max, then all lo endpoints
    as one mask over the positions ``(dir << n) | lo``, and per direction
    one mask test that the edges lie inside the subgraph induced on the
    vertices, which holds iff each is canonical with both endpoints
    present. Only when a bulk check fails does a scan in input order find
    the first offending item, so the error message is the one an
    item-by-item check gives.
    """
    _check_dimension(n)
    size = 1 << n
    vertices = list(vertices)
    if vertices and not (min(vertices) >= 0 and max(vertices) < size):
        for v in vertices:
            _check_vertex(v, n)
    vmask = _mask(vertices, size)
    edges = list(edges)
    if not edges:
        return CubeSubgraph(n, vmask, (0,) * n)
    if set(map(len, edges)) != {2}:
        raise ValueError(f"edge {next(e for e in edges if len(e) != 2)!r} is not a (lo, dir) pair")
    los = list(map(itemgetter(0), edges))
    dirs = list(map(itemgetter(1), edges))
    if min(dirs) >= 0 and max(dirs) < n and min(los) >= 0 and max(los) < size:
        every = _mask(map(or_, map(lshift, dirs, repeat(n)), los), n << n)
        lo_masks = tuple(_blocks(every, n, n))
        if not any(m & ~(vmask & (vmask >> (1 << d)) & _lo_pattern(n, d))
                   for d, m in enumerate(lo_masks)):
            return CubeSubgraph(n, vmask, lo_masks)
    for lo, dir in edges:
        if not 0 <= dir < n:
            raise ValueError(f"edge direction {dir} out of range for Q_{n}")
        if lo & (1 << dir):
            raise ValueError(f"edge {Edge(lo, dir)} is not canonical: bit {dir} of lo is set")
        _check_vertex(lo ^ (1 << dir), n)
        if not vmask >> lo & vmask >> (lo ^ (1 << dir)) & 1:
            raise ValueError(f"edge {Edge(lo, dir)} has an endpoint outside the vertex set")
    raise RuntimeError("the bulk edge check rejected edges that pass one by one")


def induced_subgraph(n: int, vertices: Iterable[int] | int) -> CubeSubgraph:
    """The subgraph of Q_n induced on a vertex set, given as vertices or
    as a 2^n-bit vertex mask: all Q_n edges with both endpoints inside
    the set, direction d's lo endpoints being V & (V >> 2^d) restricted
    to positions whose bit d is 0."""
    _check_dimension(n)
    size = 1 << n
    if isinstance(vertices, int):
        vmask = vertices
        if not 0 <= vmask < 1 << size:
            raise ValueError(f"vertex mask has bits outside the {size} vertices of Q_{n}")
    else:
        vs = sorted(set(vertices))
        for v in vs:
            _check_vertex(v, n)
        vmask = _mask(vs, size)
    return CubeSubgraph(
        n, vmask, tuple(vmask & (vmask >> (1 << d)) & _lo_pattern(n, d) for d in range(n))
    )


def average_degree(g: CubeSubgraph) -> Fraction:
    """2|E| / |V| as an exact rational. Theorem checks compare against
    this value exactly, so no floating point is involved anywhere."""
    if not g.vertex_mask:
        raise ValueError("average degree of the empty graph is undefined")
    return Fraction(2 * g.edge_count, len(g))


def max_hamming_pair(g: CubeSubgraph) -> tuple[int, int, int]:
    """A pair of vertices realizing the maximum pairwise Hamming distance,
    plus that distance. Ties resolve to the lexicographically smallest
    pair. The returned distance is at least ceil(average_degree) on every
    valid subgraph; the test harness checks that bound on all instances.
    """
    vs = g.vertices
    if not vs:
        raise ValueError("max_hamming_pair of the empty graph is undefined")
    best = (vs[0], vs[0], 0)
    n = g.n
    for i, x in enumerate(vs):
        if best[2] == n:
            break
        for y in vs[i + 1 :]:
            d = (x ^ y).bit_count()
            if d > best[2]:
                best = (x, y, d)
    return best


def antipode(x: int, n: int) -> int:
    """The vertex with every coordinate flipped."""
    _check_vertex(x, n)
    return x ^ ((1 << n) - 1)
