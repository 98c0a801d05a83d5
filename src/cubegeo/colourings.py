"""Red/blue edge colourings of the full hypercube and antipodal-pair
searches: monochromatic antipodal paths and geodesics, one-change
geodesics, minimum colour changes, and the constructive equivalence
between the monochromatic-geodesic and one-change-geodesic properties.

A colouring assigns a colour to every edge of Q_n. Internally it is a
single big-int bitmask over core's edge positions (dir << n) | lo, bit
set for blue, which keeps exhaustive sweeps over 2^16 colourings cheap.
The antipodal pair table, the antipodal image, the lift to Q_{n+1},
witness validation and the (lo, dir, colour) triples of ``from_pairs``
and ``pairs`` work on these positions or on their direction blocks.

The four antipodal searches share one layered search over 2^n-bit
vertex sets, ``_antipodal_search``, with two switches: geodesic mode
steps only away from the start, and a budget bounds the colour changes
(0 for monochromatic paths and geodesics, 1 for one-change geodesics,
none for the minimum).

``antipodal_colouring_from_index`` and ``colouring_from_index`` number
the antipodal and the general colourings of Q_n, so exhaustive sweeps
can enumerate them. Both are pure functions of (n, index): index bit i
XORs a fixed flip into a base mask, and a table per index byte holds
the XOR of every subset of that byte's flips, so a build is one lookup
per index byte. Index spaces are capped at ``INDEX_MAX_BITS`` bits.
"""

from __future__ import annotations

import enum
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Iterator

from .core import (CubeSubgraph, _Value, _blocks, _components, _edge_keys, _join, _lo_pattern, _mask, _reverse,
                   _pos, _set, _valid_edge_mask, antipode)
from .geodesics import GeodesicPath, increasing_geodesic_table, extract_increasing_geodesic
from .rng import SplitMix64, derive

__all__ = [
    "AntipodalWitness",
    "Colour",
    "EdgeColouring",
    "antipodal_pair_count",
    "antipodal_colouring_from_index",
    "colouring_from_index",
    "derive_A_from_B",
    "derive_B_from_A",
    "find_monochromatic_antipodal_geodesic",
    "find_monochromatic_antipodal_path",
    "find_one_change_antipodal_geodesic",
    "is_antipodal",
    "lift_to_antipodal",
    "min_colour_changes_antipodal",
    "monochromatic_half_geodesic",
    "random_antipodal_colouring",
    "random_colouring",
    "validate_witness",
]

#: Colourings materialize all n * 2^(n-1) edges; beyond this the masks
#: get unwieldy and no supported operation needs them.
MAX_COLOURING_DIMENSION = 16

#: Cap of the antipodal geodesic searches (state space 2^n).
SEARCH_MAX_N = 12

#: Widest index space of the index builders (A@5 has 40 bits, B@4 32).
INDEX_MAX_BITS = 64


class Colour(enum.Enum):
    RED = "red"
    BLUE = "blue"


def edge_count(n: int) -> int:
    return n << (n - 1) if n else 0


def antipodal_pair_count(n: int) -> int:
    """Number of antipodal edge pairs: half the edge count for n >= 2."""
    if n < 2:
        raise ValueError("antipodal edge pairs need n >= 2")
    return edge_count(n) // 2


def _check_dimension(n: int) -> None:
    if not 1 <= n <= MAX_COLOURING_DIMENSION:
        raise ValueError(f"colouring dimension {n} outside 1..{MAX_COLOURING_DIMENSION}")


class EdgeColouring(_Value):
    """A total red/blue colouring of E(Q_n). ``blue_mask`` has bit
    (dir << n) | lo set iff the edge (lo, dir) is blue."""

    __slots__ = _fields = ("n", "blue_mask")

    def __init__(self, n: int, blue_mask: int):
        _check_dimension(n)
        if blue_mask & ~_valid_edge_mask(n):
            raise ValueError("blue_mask has bits at non-edge positions")
        _set(self, "n", n)  # faster than _init: exhaustive search builds one per index
        _set(self, "blue_mask", blue_mask)

    @classmethod
    def from_pairs(cls, n: int, pairs: Iterable[tuple[int, int, Colour]]) -> "EdgeColouring":
        """Build from (lo, dir, colour) triples; must cover every edge
        exactly once. The blue mask is built once, from its positions."""
        _check_dimension(n)
        seen, blue = set(), []
        for lo, dir, colour in pairs:
            if not 0 <= dir < n or lo >> n or (lo >> dir) & 1:
                raise ValueError(f"({lo}, {dir}) is not a canonical edge of Q_{n}")
            p = _pos(lo, dir, n)
            if p in seen:
                raise ValueError(f"edge ({lo}, {dir}) coloured twice")
            seen.add(p)
            if colour is Colour.BLUE:
                blue.append(p)
        if len(seen) != edge_count(n):  # as many distinct edges as the cube has: all of them
            raise ValueError("colouring does not cover every edge of the cube")
        return cls(n, _mask(blue, n << n))

    def colour_between(self, u: int, v: int) -> Colour:
        """Colour of the edge between two adjacent vertices of Q_n."""
        dir = (u ^ v).bit_length() - 1
        if not (0 <= u < 1 << self.n and 0 <= dir < self.n and u ^ v == 1 << dir):
            raise ValueError(f"{u} and {v} are not adjacent vertices of Q_{self.n}")
        return Colour.BLUE if (self.blue_mask >> _pos(min(u, v), dir, self.n)) & 1 else Colour.RED

    def blue_count(self) -> int:
        return self.blue_mask.bit_count()

    def pairs(self) -> Iterator[tuple[int, int, Colour]]:
        """(lo, dir, colour) for every edge, in (lo, dir) order."""
        n = self.n
        digits = format(self.blue_mask, f"0{n << n}b")[::-1]
        colours = {"0": Colour.RED, "1": Colour.BLUE}
        return ((p & ((1 << n) - 1), p >> n, colours[digits[p]]) for p in _edge_positions(n))


@lru_cache(maxsize=None)
def _edge_positions(n: int) -> tuple[int, ...]:
    """Bit position of every edge, in (lo, dir) order."""
    _check_dimension(n)
    return tuple(_pos(*divmod(key, n), n) for key in _edge_keys(n, _blocks(_valid_edge_mask(n), n, n)))


@lru_cache(maxsize=None)
def _antipodal_pairs(n: int) -> tuple[int, tuple[tuple[int, int], ...]]:
    """``(base, pairs)``: the edge positions (rep, partner) of every
    antipodal pair, the representative being the smaller position, in
    (lo, dir) order of the representative, and the mask with every
    partner blue. The antipodal edge of (lo, d) is (lo ^ (2^n - 1) ^ 2^d,
    d), so position p pairs with p ^ (2^n - 1) ^ 2^(p >> n). Positions
    rather than one-bit masks keep the cache linear in the pair count: at
    n = 16 a mask per pair would take gigabytes."""
    full = (1 << n) - 1
    pairs = []
    for p in _edge_positions(n):
        partner = p ^ full ^ (1 << (p >> n))
        if p < partner:
            pairs.append((p, partner))
    return _mask((partner for _, partner in pairs), n << n), tuple(pairs)


def _antipodal_image(n: int, mask: int) -> int:
    """The edge mask with edge e set iff the antipodal edge of e is set
    in ``mask``. Edge (lo, d) maps to (lo ^ (2^n - 1) ^ 2^d, d): reversing
    the 2^n bits of direction d's block maps lo to lo ^ (2^n - 1), whose
    bit d is 1, and shifting down by 2^d clears it."""
    size = 1 << n
    return _join(
        (_reverse(block, size) >> (1 << d)
         for d, block in enumerate(_blocks(mask, n, n))),
        n,
    )


def is_antipodal(c: EdgeColouring) -> bool:
    """True iff every edge and its antipodal edge have different colours.
    Always False at n = 1, where the unique edge is self-antipodal (its
    image is itself, so the XOR below is empty)."""
    return c.blue_mask ^ _antipodal_image(c.n, c.blue_mask) == _valid_edge_mask(c.n)


def random_antipodal_colouring(n: int, seed: int) -> EdgeColouring:
    """One uniform colour choice per antipodal edge pair, the partner
    forced opposite. Deterministic in the seed."""
    if n < 2:
        raise ValueError("antipodal colourings need n >= 2")
    rng = SplitMix64(derive(seed))
    pairs = _antipodal_pairs(n)[1]
    # digit i is the i-th one-bit draw; 1 blues pair i's representative
    chosen = format(rng.bits(len(pairs)), f"0{len(pairs)}b")[::-1]
    return EdgeColouring(n, _mask((pair[c == "0"] for pair, c in zip(pairs, chosen)), n << n))


def random_colouring(n: int, seed: int) -> EdgeColouring:
    """Every edge coloured independently and uniformly. Deterministic in
    the seed."""
    _check_dimension(n)  # before n << n
    rng = SplitMix64(derive(seed))
    raw = rng.bits(n << n)
    return EdgeColouring(n, raw & _valid_edge_mask(n))


@lru_cache(maxsize=None)
def _index_tables(n: int, antipodal: bool) -> tuple[int, int, tuple[tuple[int, ...], ...]]:
    """``(base, bits, tables)`` of an index space: index bit i XORs flip
    i into ``base``, and entry b of ``tables[j]`` is the XOR of the flips
    of byte j's set bits. Flip i is the i-th antipodal pair (both edges)
    or the i-th edge in (lo, dir) order. The width is checked before any
    flip is built."""
    if antipodal and n < 2:
        raise ValueError("antipodal colourings need n >= 2")
    _check_dimension(n)
    bits = antipodal_pair_count(n) if antipodal else edge_count(n)
    if bits > INDEX_MAX_BITS:
        raise ValueError(f"{bits} index bits at n={n} exceed the cap of {INDEX_MAX_BITS}")
    if antipodal:
        base, pairs = _antipodal_pairs(n)
        flips = [(1 << rep) | (1 << partner) for rep, partner in pairs]
    else:
        base, flips = 0, [1 << p for p in _edge_positions(n)]
    tables = []
    for j in range(0, bits, 8):
        table = [0]
        for flip in flips[j:j + 8]:
            table += [t ^ flip for t in table]
        tables.append(tuple(table))
    return base, bits, tuple(tables)


def _from_index(n: int, index: int, antipodal: bool) -> EdgeColouring:
    base, bits, tables = _index_tables(n, antipodal)
    if not 0 <= index < (1 << bits):
        space = "antipodal pairs" if antipodal else "edges"
        raise ValueError(f"index {index} out of range for {bits} {space}")
    for table in tables:
        base ^= table[index & 255]
        index >>= 8
    return EdgeColouring(n, base)


def antipodal_colouring_from_index(n: int, index: int) -> EdgeColouring:
    """The index-th antipodal colouring: bit i of the index blues the
    i-th representative edge (else its partner). Indices in
    [0, 2^antipodal_pair_count(n)) enumerate them all."""
    return _from_index(n, index, True)


def colouring_from_index(n: int, index: int) -> EdgeColouring:
    """The index-th general colouring: bit i of the index blues the i-th
    edge in (lo, dir) order. Indices in [0, 2^edge_count(n))."""
    return _from_index(n, index, False)


class AntipodalWitness(_Value):
    """A path between antipodal vertices together with what it certifies:
    'mono-path' (all one colour), 'mono-geodesic', 'one-change-geodesic'
    (geodesics of length n), or a simple 'path' carrying its exact
    colour-change count."""

    __slots__ = _fields = ("kind", "vertices", "pair", "change_count")

    def __init__(self, kind: str, vertices: tuple[int, ...], pair: tuple[int, int], change_count: int | None = None):
        self._init(kind, vertices, pair, change_count)


def validate_witness(w: AntipodalWitness, c: EdgeColouring) -> int:
    """Structural check, independent of how the witness was found.
    Raises ValueError on any defect; returns the mask of the path's edge
    positions (dir << n) | lo."""
    n = c.n
    x, y = w.pair
    if y != antipode(x, n):
        raise ValueError(f"pair {w.pair} is not antipodal in Q_{n}")
    verts = w.vertices
    if not verts:
        raise ValueError("witness path has no vertices")
    if verts[0] != x or verts[-1] != y:
        raise ValueError("path endpoints do not match the antipodal pair")
    blue = c.blue_mask
    path = 0
    used = 0
    repeated = False
    changes = 0
    last = None
    for u, v in zip(verts, verts[1:]):
        d = u ^ v
        if d == 0 or d & (d - 1) or d >> n:
            raise ValueError(f"step {u}->{v} is not a cube edge")
        repeated = repeated or bool(used & d)
        used |= d
        # u & v is the lo endpoint of the edge between adjacent u and v
        pos = _pos(u & v, d.bit_length() - 1, n)
        path |= 1 << pos
        colour = (blue >> pos) & 1
        if last is not None and colour != last:
            changes += 1
        last = colour
    if w.kind == "mono-path":
        if changes != 0:
            raise ValueError("mono-path witness is not monochromatic")
    elif w.kind in ("mono-geodesic", "one-change-geodesic"):
        if repeated or len(verts) - 1 != n:
            raise ValueError("witness is not a full-length geodesic")
        limit = 0 if w.kind == "mono-geodesic" else 1
        if changes > limit:
            raise ValueError(f"{w.kind} witness changes colour {changes} times")
    elif w.kind == "path":
        if len(set(verts)) != len(verts):
            raise ValueError("path witness repeats a vertex")
        if changes != w.change_count:
            raise ValueError(
                f"witness records {w.change_count} changes but has {changes}"
            )
    else:
        raise ValueError(f"unknown witness kind {w.kind!r}")
    return path


def _antipodal_search(
    n: int, classes: tuple[list[int], list[int]], x: int, geodesic: bool, budget: int | None
) -> tuple[int, tuple[int, ...]] | None:
    """Fewest colour changes on a path (or geodesic) from x to its
    antipode, searched up to ``budget`` changes (no limit for None):
    ``(changes, vertices)``, or None if the budget is spent or the
    antipode is out of reach.

    Level k holds, per colour (red, then blue), the vertices reached from
    x with at most k changes whose last segment has that colour, as
    breadth-first layers of vertex bitsets: level 0 starts from x, level
    k+1 of a colour from everything level k reached in the other colour.
    A step in colour c along direction d joins lo endpoints in
    classes[c][d] to their hi neighbours; geodesic mode steps only in
    directions where the vertex still agrees with x, that is, away from x.
    """
    y = x ^ ((1 << n) - 1)
    target = 1 << y
    steps = []
    levels = []
    before = [1 << x, 1 << x]
    k = 0
    while True:
        level = []
        levels.append(level)
        reach = []
        for c in (0, 1):
            if not k:
                # (shift, lo endpoints stepped up from, lo endpoints stepped down to)
                if geodesic:
                    steps.append([
                        (1 << d, 0, lom) if (x >> d) & 1 else (1 << d, lom, 0)
                        for d, lom in enumerate(classes[c])
                    ])
                else:
                    steps.append([(1 << d, lom, lom) for d, lom in enumerate(classes[c])])
            frontier = seen = before[1 - c]
            layers = [frontier]
            level.append(layers)
            while True:
                nxt = 0
                for sh, up, down in steps[c]:
                    nxt |= ((frontier & up) << sh) | ((frontier >> sh) & down)
                frontier = nxt & ~seen
                if not frontier:
                    break
                seen |= frontier
                layers.append(frontier)
                if frontier & target:
                    return k, _backtrack(steps, levels, c, y)
            reach.append(seen)
        if k == budget or reach == before:
            return None
        before = reach
        k += 1


def _backtrack(steps: list, levels: list, c: int, v: int) -> tuple[int, ...]:
    """The path from x to v, which the last level reached in colour c,
    rebuilt one segment per level from v back. Within a level it steps
    back one layer at a time, to the lowest-direction vertex of the layer
    before from which a step reaches the current vertex; a segment ends
    in the level's first layer, where the level before reached it in the
    other colour."""
    verts = [v]
    for level in reversed(levels):
        layers = level[c]
        top = len(layers) - 1
        while not (layers[top] >> v) & 1:
            top -= 1
        for layer in reversed(layers[:top]):
            for sh, up, down in steps[c]:
                u = v ^ sh
                if (layer >> u) & 1 and ((up >> u) if v & sh else (down >> v)) & 1:
                    break
            else:
                raise RuntimeError(f"vertex {v} has no predecessor in its breadth-first layer")
            verts.append(u)
            v = u
        c ^= 1
    verts.reverse()
    return tuple(verts)


#: Witness kind -> (geodesic only?, change budget) of the search that
#: finds it (``_first_antipodal``).
_SWITCHES = {"mono-path": (False, 0), "mono-geodesic": (True, 0), "one-change-geodesic": (True, 1)}


def _first_antipodal(c: EdgeColouring, kind: str):
    """The witness for the first x, ascending, joined to its antipode
    within the change budget. Geodesic searches refuse n above
    SEARCH_MAX_N."""
    n = c.n
    geodesic, budget = _SWITCHES[kind]
    if geodesic and n > SEARCH_MAX_N:
        raise ValueError(f"n={n} exceeds the subset-search cap {SEARCH_MAX_N}")
    classes = _colour_lomasks(c)
    for x in range(1 << (n - 1)):
        found = _antipodal_search(n, classes, x, geodesic, budget)
        if found is not None:
            return AntipodalWitness(kind, found[1], (x, x ^ ((1 << n) - 1)))
    return None


def find_monochromatic_antipodal_path(c: EdgeColouring):
    """Search every antipodal pair and both colour classes (red first)
    for a single-colour path joining the pair. None means no such path
    exists for any pair."""
    return _first_antipodal(c, "mono-path")


def find_monochromatic_antipodal_geodesic(c: EdgeColouring):
    """Search for a single-colour geodesic between antipodal vertices.

    From a start x, the set of directions used so far is implied by the
    current vertex (x XOR v), so plain reachability over vertices with
    steps away from x in one colour decides it; reaching the antipode
    means all n directions were used once.
    """
    return _first_antipodal(c, "mono-geodesic")


def find_one_change_antipodal_geodesic(c: EdgeColouring):
    """Search for a geodesic between antipodal vertices with at most one
    colour change: reachability away from x with a change budget of one."""
    return _first_antipodal(c, "one-change-geodesic")


def min_colour_changes_antipodal(c: EdgeColouring) -> tuple[int, AntipodalWitness]:
    """Minimum, over antipodal pairs, of the fewest colour changes on any
    path joining the pair, with a witness for the first pair (x
    ascending) that attains it.

    The layered search optimizes over walks, but the walk it rebuilds is
    a simple path: level k of a colour starts from every vertex the
    levels before it reached, so each segment steps only onto vertices
    new to the walk. The walk minimum is therefore the path minimum, and
    the witness is validated as a path before it is returned. After the
    first x, each x is searched only for fewer changes than the best so
    far.
    """
    n = c.n
    classes = _colour_lomasks(c)
    best: tuple[int, AntipodalWitness] | None = None
    for x in range(1 << (n - 1)):
        found = _antipodal_search(n, classes, x, False, None if best is None else best[0] - 1)
        if found is None:
            if best is None:
                raise RuntimeError("Q_n is connected, yet the antipode was not reached")
            continue
        value, walk = found
        best = (value, AntipodalWitness("path", walk, (x, x ^ ((1 << n) - 1)), value))
        if value == 0:
            break
    validate_witness(best[1], c)
    return best


def _colour_lomasks(c: EdgeColouring) -> tuple[list[int], list[int]]:
    """Per-direction lo-endpoint masks of the red and the blue class."""
    n = c.n
    blue = _blocks(c.blue_mask, n, n)
    return [_lo_pattern(n, dir) ^ b for dir, b in enumerate(blue)], blue


def monochromatic_half_geodesic(c: EdgeColouring) -> GeodesicPath:
    """A single-colour geodesic of length at least ceil(n/2).

    The majority colour class has at least half of all edges, so over all
    2^n vertices its average degree is at least n/2, and some connected
    component of it reaches that ratio; the direction-sweep table on that
    component then yields a geodesic of at least ceil(n/2) edges. That
    bound is the claim under test, so it is left to the caller to check.
    """
    n = c.n
    total = edge_count(n)
    majority = Colour.RED if 2 * (total - c.blue_count()) >= total else Colour.BLUE
    lomasks = _colour_lomasks(c)[majority is Colour.BLUE]
    best_comp = None
    best_avg = None
    for comp in _components(n, lomasks):
        edges = sum((lomasks[d] & comp).bit_count() for d in range(n))
        avg = Fraction(2 * edges, comp.bit_count())
        if best_avg is None or avg > best_avg:
            best_comp, best_avg = comp, avg
    if best_avg is None or 2 * best_avg < n:
        raise RuntimeError(f"densest {majority.value} component has average degree {best_avg} < n/2")
    sub = CubeSubgraph(n, best_comp, tuple(m & best_comp for m in lomasks))
    table = increasing_geodesic_table(sub)
    path = extract_increasing_geodesic(table, table.longest_end)
    if any(c.colour_between(u, v) is not majority for u, v in zip(path.vertices, path.vertices[1:])):
        raise RuntimeError(f"half geodesic {path.vertices} leaves the {majority.value} class")
    return path


def lift_to_antipodal(c: EdgeColouring) -> EdgeColouring:
    """Extend a colouring of Q_n to an antipodal colouring of Q_{n+1}
    that agrees with it on the bottom subcube (new coordinate 0).

    For d < n, direction block d of Q_{n+1} has 2^(n+1) bits: its low
    half (the bottom edges) copies c's block d, and its high half (the
    top edges) is the complement of the antipodal image of c, so each
    top edge takes the colour opposite to its antipodal bottom edge. The
    new-direction edges at lo and lo ^ (2^n - 1) form an antipodal pair,
    split deterministically: blue on the odd-parity end when the
    parities differ (odd n), else on the larger end, the one with bit
    n - 1 set (even n).
    """
    n = c.n
    low = (1 << (1 << n)) - 1
    if n & 1:
        split = 0
        for d in range(n):
            split ^= low ^ _lo_pattern(n, d)  # the vertices with bit d set
    else:
        split = low ^ _lo_pattern(n, n - 1)
    bottom = _blocks(c.blue_mask, n, n)
    top = _blocks(_valid_edge_mask(n) ^ _antipodal_image(n, c.blue_mask), n, n)
    blocks = [b | t << (1 << n) for b, t in zip(bottom, top)] + [split]
    lifted = EdgeColouring(n + 1, _join(blocks, n + 1))
    if not is_antipodal(lifted):
        raise RuntimeError(f"lift of a colouring of Q_{n} is not antipodal")
    return lifted


def _close(verts: tuple[int, ...], s: int, n: int) -> tuple[int, ...]:
    """A geodesic of Q_n between antipodes, closed at step s: from verts[s]
    along the rest of ``verts``, which ends at the antipode of verts[0],
    then along the antipodal image of its first s steps, to the antipode
    of verts[s]. s = 0 gives ``verts`` back."""
    mask = (1 << n) - 1
    return verts[s:] + tuple(v ^ mask for v in verts[1:s + 1])


def derive_B_from_A(c: EdgeColouring) -> AntipodalWitness:
    """Produce a one-change antipodal geodesic for an arbitrary colouring
    from a monochromatic antipodal geodesic on its antipodal lift.

    Lift c to an antipodal colouring of Q_{n+1} and find a monochromatic
    geodesic P between antipodal vertices there. Closed one step after it
    crosses the new direction, less its last vertex, P becomes a geodesic
    between antipodes of one subcube: a piece of P, then a piece of its
    oppositely coloured image. In the bottom subcube, or moved there by
    the antipodal map, the lift agrees with c, so the path changes colour
    at most once under c.
    """
    n = c.n
    lifted = lift_to_antipodal(c)
    found = find_monochromatic_antipodal_geodesic(lifted)
    if found is None:
        raise ValueError(
            "no monochromatic antipodal geodesic on the lifted colouring; "
            "cannot run the construction"
        )
    p = found.vertices
    s = next(i for i in range(1, len(p)) if p[i - 1] ^ p[i] == 1 << n)
    path = _close(p, s, n + 1)[:-1]
    if path[0] >> n:
        path = tuple(v ^ ((2 << n) - 1) for v in path)
    witness = AntipodalWitness("one-change-geodesic", path, (path[0], path[-1]))
    validate_witness(witness, c)
    return witness


def derive_A_from_B(c: EdgeColouring) -> AntipodalWitness:
    """Produce a monochromatic antipodal geodesic for an antipodal
    colouring from a one-change antipodal geodesic.

    Split the one-change geodesic at its colour change; the antipodal
    image of the first piece has the second piece's colour (the colouring
    is antipodal), and appending it to the second piece closes a
    monochromatic geodesic between another antipodal pair.
    """
    n = c.n
    if not is_antipodal(c):
        raise ValueError("construction needs an antipodal colouring")
    found = find_one_change_antipodal_geodesic(c)
    if found is None:
        raise ValueError("no one-change antipodal geodesic; cannot run the construction")
    verts = found.vertices
    cols = [c.colour_between(u, v) for u, v in zip(verts, verts[1:])]
    split = next((i for i in range(1, len(cols)) if cols[i - 1] is not cols[i]), 0)
    path = _close(verts, split, n)
    witness = AntipodalWitness("mono-geodesic", path, (path[0], path[-1]))
    validate_witness(witness, c)
    return witness
