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

All values are immutable after construction (see ``_Value``) and safe
to share across concurrent workers.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, chain, repeat
from operator import add, itemgetter, lshift, mul, or_
from typing import Iterable, Sequence

#: Hard cap on the ambient dimension. Subset-indexed tables allocate
#: O(2^n) state, so anything beyond this is a usage error, not a feature.
MAX_DIMENSION = 24


_set = object.__setattr__


class _Value:
    """Base of the value classes: ``__init__`` sets the slots ``_fields``
    names, once, with ``_init`` or ``_set``. Values are equal when class
    and fields are, hash and print by fields, and refuse assignment and
    deletion."""

    __slots__ = ()

    def _init(self, *values) -> None:
        for name, value in zip(self._fields, values):
            _set(self, name, value)

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        return self._values() == other._values() if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = map("{}={}".format, self._fields, map(_field_repr, self._values()))
        return f"{type(self).__name__}({', '.join(fields)})"

    def __reduce__(self):  # rebuilt through __init__: unpickling cannot set the read-only slots
        return type(self), self._values()

    def __setattr__(self, name, value=None):
        raise AttributeError(f"{type(self).__name__} is read-only: cannot set or delete {name!r}")

    __delattr__ = __setattr__


def _field_repr(value) -> str:
    """``repr``, but an int wider than 64 bits in hex, also inside a tuple:
    Python 3.11+ refuses to write an int of more than 4,300 decimal digits,
    and a 2^n-bit mask has that many from n = 14 on. ``eval`` reads hex."""
    if type(value) is int and value.bit_length() > 64:
        return hex(value)
    if type(value) is tuple:
        return f"({', '.join(map(_field_repr, value))}{',' if len(value) == 1 else ''})"
    return repr(value)


def _check_dimension(n: int) -> None:
    if not 0 <= n <= MAX_DIMENSION:
        raise ValueError(f"dimension {n} outside supported range 0..{MAX_DIMENSION}")


def _check_vertex(v: int, n: int) -> None:
    if not 0 <= v < (1 << n):
        raise ValueError(f"vertex {v} out of range for Q_{n}")


def _check_ints(items: list, what: str) -> None:
    """Name the first item, in order, that is not an int (a bool is none)."""
    if not set(map(type, items)) <= {int}:
        raise TypeError(f"{what} {next(x for x in items if type(x) is not int)!r} is not an int")


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


def _ball(n: int, centre: int, radius: int) -> int:
    """The vertices of Q_n within Hamming distance ``radius`` of
    ``centre``, as a 2^n-bit mask: all but those that differ from it in
    more than ``radius`` coordinates, counted by ``_at_least`` over the n
    masks "coordinate d differs"."""
    full = (1 << (1 << n)) - 1
    differ = (_lo_pattern(n, d) ^ (0 if centre >> d & 1 else full) for d in range(n))
    return full ^ _at_least(full, differ, min(radius, n) + 1)[-1]


def _reverse(m: int, size: int) -> int:
    """The ``size``-bit mask m read backwards: bit v moves to bit
    size - 1 - v. Over the 2^n vertices of Q_n, v moves to its antipode."""
    return int(format(m, f"0{size}b")[::-1], 2)


def _pos(lo: int, dir: int, n: int) -> int:
    return (dir << n) | lo


def _blocks(mask: int, n: int) -> list[int]:
    """The n 2^n-bit direction blocks of an edge mask of Q_n: bit lo of
    block d is the bit of edge (lo, d)."""
    low = (1 << (1 << n)) - 1
    return [(mask >> (d << n)) & low for d in range(n)]


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


class CubeSubgraph(_Value):
    """A subgraph of Q_n as bitmasks: bit v of ``vertex_mask`` is set iff
    v is a vertex, and bit lo of ``lo_masks[d]`` iff the edge (lo, d) is
    an edge. The masks are canonical, so equality and hashing of
    subgraphs are those of the masks, and every reader works on them."""

    __slots__ = _fields = ("n", "vertex_mask", "lo_masks")

    def __init__(self, n: int, vertex_mask: int, lo_masks: tuple[int, ...]):
        self._init(n, vertex_mask, lo_masks)

    @property
    def edges(self) -> tuple[tuple[int, int], ...]:
        """The (lo, dir) edges in (lo, dir) order, built on every call.
        Kept only for the benchmark tracer's ``core.edges_built`` and
        ``geodesics.relaxations`` counters."""
        return tuple(map(divmod, _edge_keys(self.n, self.lo_masks), repeat(self.n)))

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

    Vertices are ints and edges (lo, dir) pairs of ints, tuples or lists:
    lo is the endpoint whose bit dir is 0, and lo ^ 2^dir the other. A
    bool is no int. Refused in turn, the first of each kind named: a vertex
    that is no int (``TypeError``), then out of range; an edge item that
    is no tuple or list (``TypeError``), of another length (``ValueError``)
    or holding a value that is no int (``TypeError``). Duplicates are
    dropped. Every edge endpoint must appear in ``vertices``.

    Validation is in bulk: the pairs are split once, into a lo and a dir
    column, and their value types checked as one set; then ranges by min
    and max, then all lo endpoints as one mask over the positions
    ``(dir << n) | lo``, and per direction one mask test that the edges
    lie inside the subgraph induced on the vertices, which holds iff each
    is canonical with both endpoints present. Only when a bulk check
    fails does a scan in input order find the first offending item, so
    the error message is the one an item-by-item check gives.
    """
    _check_dimension(n)
    size = 1 << n
    vertices = vertices if type(vertices) is list else list(vertices)
    _check_ints(vertices, "vertex")
    if vertices and not (min(vertices) >= 0 and max(vertices) < size):
        for v in vertices:
            _check_vertex(v, n)
    vmask = _mask(vertices, size)
    edges = edges if type(edges) is list else list(edges)
    if not edges:
        return CubeSubgraph(n, vmask, (0,) * n)
    if not set(map(type, edges)) <= {tuple, list}:
        raise TypeError(f"edge {next(e for e in edges if type(e) not in (tuple, list))!r} is not a pair of ints")
    if set(map(len, edges)) != {2}:
        raise ValueError(f"edge {next(e for e in edges if len(e) != 2)!r} is not a (lo, dir) pair")
    los, dirs = list(map(itemgetter(0), edges)), list(map(itemgetter(1), edges))
    if not set(map(type, chain(los, dirs))) <= {int}:
        raise TypeError(f"edge {next(e for e in edges if not type(e[0]) is type(e[1]) is int)!r} "
                        "is not a pair of ints")
    if min(dirs) >= 0 and max(dirs) < n and min(los) >= 0 and max(los) < size:
        every = _mask(map(or_, map(lshift, dirs, repeat(n)), los), n << n)
        lo_masks = tuple(_blocks(every, n))
        if not any(m & ~(vmask & (vmask >> (1 << d)) & _lo_pattern(n, d))
                   for d, m in enumerate(lo_masks)):
            return CubeSubgraph(n, vmask, lo_masks)
    for lo, dir in zip(los, dirs):
        if not 0 <= dir < n:
            raise ValueError(f"edge direction {dir} out of range for Q_{n}")
        if lo & (1 << dir):
            raise ValueError(f"edge {(lo, dir)} is not canonical: bit {dir} of lo is set")
        _check_vertex(lo ^ (1 << dir), n)
        if not vmask >> lo & vmask >> (lo ^ (1 << dir)) & 1:
            raise ValueError(f"edge {(lo, dir)} has an endpoint outside the vertex set")
    raise RuntimeError("the bulk edge check rejected edges that pass one by one")


def induced_subgraph(n: int, vertices: Iterable[int] | int) -> CubeSubgraph:
    """The subgraph of Q_n induced on a vertex set, given as vertices or
    as a 2^n-bit vertex mask: all Q_n edges with both endpoints inside
    the set, direction d's lo endpoints being V & (V >> 2^d) restricted
    to positions whose bit d is 0. Listed vertices are type-checked, then
    sorted for ``make_subgraph``, which names the least out of range."""
    _check_dimension(n)
    size = 1 << n
    if isinstance(vertices, int):
        vmask = vertices
        if not 0 <= vmask < 1 << size:
            raise ValueError(f"vertex mask has bits outside the {size} vertices of Q_{n}")
    else:
        vs = list(vertices)
        _check_ints(vs, "vertex")
        vmask = make_subgraph(n, sorted(set(vs)), ()).vertex_mask
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
    """(x, y, D): D is the largest Hamming distance between two vertices
    of g, and x < y is the lexicographically first pair at distance D;
    (v, v, 0) if v is g's only vertex. D is at least ceil(average_degree)
    on every valid subgraph; the test harness checks that bound on all
    instances.

    Found on 2^n-bit vertex masks, without a per-vertex loop. Reversing
    the mask of V gives the antipodes of its vertices. The ball around V
    grows one Q_n step at a time until, after j steps, it meets them;
    then D = n - j, as d(u, x) = n - d(u, antipode(x)). x is the lowest
    vertex of V whose antipode the ball reached: every partner of x at
    distance D lies above it, or that partner would be lower. y is the
    lowest vertex of V within distance j of x's antipode, that is at
    distance at least D from x, hence exactly D; when j = 0 that is x's
    antipode itself. That is O(n (j + 1)) mask operations.
    """
    n, vmask = g.n, g.vertex_mask
    if not vmask:
        raise ValueError("max_hamming_pair of the empty graph is undefined")
    size = 1 << n
    antipodes = _reverse(vmask, size)
    los = [(1 << d, _lo_pattern(n, d)) for d in range(n)]
    ball, j = vmask, 0
    while not ball & antipodes:
        grown = ball
        for sh, lo in los:
            grown |= (ball & lo) << sh | (ball >> sh) & lo
        ball, j = grown, j + 1
    x = size - (ball & antipodes).bit_length()  # the highest antipode reached is the lowest x's
    if not j:
        return x, x ^ (size - 1), n
    far = _ball(n, x ^ (size - 1), j) & vmask
    return x, (far & -far).bit_length() - 1, n - j


def antipode(x: int, n: int) -> int:
    """The vertex with every coordinate flipped."""
    _check_vertex(x, n)
    return x ^ ((1 << n) - 1)
