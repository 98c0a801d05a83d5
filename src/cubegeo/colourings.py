"""Red/blue edge colourings of the full hypercube and antipodal-pair
searches: monochromatic antipodal paths and geodesics, one-change
geodesics, minimum colour changes, and the constructive equivalence
between the monochromatic-geodesic and one-change-geodesic properties.

A colouring assigns a colour to every edge of Q_n. Internally it is a
single big-int bitmask over edge positions (dir << n) | lo, bit set for
blue, which keeps exhaustive sweeps over 2^16 colourings cheap.

The four antipodal searches share one layered search over 2^n-bit
vertex sets, ``_antipodal_search``, with two switches: geodesic mode
steps only away from the start, and a budget bounds the colour changes
(0 for monochromatic paths and geodesics, 1 for one-change geodesics,
none for the minimum, whose walk witness is then loop-erased).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import ceil
from typing import Iterable, Iterator

from .core import CubeSubgraph, Edge, _components, _lo_pattern, _mask, antipode
from .geodesics import GeodesicPath, increasing_geodesic_table, extract_increasing_geodesic
from .rng import SplitMix64, derive

__all__ = [
    "AntipodalWitness",
    "Colour",
    "EdgeColouring",
    "all_edges",
    "antipodal_edge",
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
    "restrict_to_bottom",
    "validate_witness",
]

#: Colourings materialize all n * 2^(n-1) edges; beyond this the masks
#: get unwieldy and no supported operation needs them.
MAX_COLOURING_DIMENSION = 16

#: Default cap for the per-start subset searches (state space 2^n).
SEARCH_MAX_N = 12


class Colour(enum.Enum):
    RED = "red"
    BLUE = "blue"

    @property
    def opposite(self) -> "Colour":
        return Colour.BLUE if self is Colour.RED else Colour.RED


@lru_cache(maxsize=None)
def _valid_edge_mask(n: int) -> int:
    mask = 0
    for dir in range(n):
        mask |= _lo_pattern(n, dir) << (dir << n)
    return mask


def _pos(lo: int, dir: int, n: int) -> int:
    return (dir << n) | lo


def all_edges(n: int) -> Iterator[Edge]:
    """All n * 2^(n-1) edges of Q_n in (lo, dir) order."""
    for lo in range(1 << n):
        for dir in range(n):
            if not (lo >> dir) & 1:
                yield Edge(lo, dir)


def edge_count(n: int) -> int:
    return n << (n - 1) if n else 0


def antipodal_edge(e: Edge, n: int) -> Edge:
    """The edge on the antipodal endpoints; same direction. Involution;
    at n = 1 the unique edge is its own antipodal edge."""
    if not 0 <= e.dir < n or e.lo >> n:
        raise ValueError(f"{e} is not an edge of Q_{n}")
    return Edge(((1 << n) - 1) ^ e.lo ^ (1 << e.dir), e.dir)


def antipodal_pair_count(n: int) -> int:
    """Number of antipodal edge pairs: half the edge count for n >= 2."""
    if n < 2:
        raise ValueError("antipodal edge pairs need n >= 2")
    return edge_count(n) // 2


def _check_dimension(n: int) -> None:
    if not 1 <= n <= MAX_COLOURING_DIMENSION:
        raise ValueError(f"colouring dimension {n} outside 1..{MAX_COLOURING_DIMENSION}")


@dataclass(frozen=True)
class EdgeColouring:
    """A total red/blue colouring of E(Q_n). ``blue_mask`` has bit
    (dir << n) | lo set iff the edge (lo, dir) is blue."""

    n: int
    blue_mask: int

    def __post_init__(self):
        _check_dimension(self.n)
        if self.blue_mask & ~_valid_edge_mask(self.n):
            raise ValueError("blue_mask has bits at non-edge positions")

    @classmethod
    def constant(cls, n: int, colour: Colour) -> "EdgeColouring":
        return cls(n, _valid_edge_mask(n) if colour is Colour.BLUE else 0)

    @classmethod
    def direction_split(cls, n: int) -> "EdgeColouring":
        """Directions 0..n-2 red, direction n-1 blue. Not antipodal; the
        standard example of a colouring with no monochromatic antipodal
        path."""
        if n < 2:
            raise ValueError("direction split needs n >= 2")
        return cls(n, _lo_pattern(n, n - 1) << ((n - 1) << n))

    @classmethod
    def from_pairs(cls, n: int, pairs: Iterable[tuple[int, int, Colour]]) -> "EdgeColouring":
        """Build from (lo, dir, colour) triples; must cover every edge
        exactly once."""
        blue = 0
        seen = 0
        for lo, dir, colour in pairs:
            if not 0 <= dir < n or lo >> n or (lo >> dir) & 1:
                raise ValueError(f"({lo}, {dir}) is not a canonical edge of Q_{n}")
            p = 1 << _pos(lo, dir, n)
            if seen & p:
                raise ValueError(f"edge ({lo}, {dir}) coloured twice")
            seen |= p
            if colour is Colour.BLUE:
                blue |= p
        if seen != _valid_edge_mask(n):
            raise ValueError("colouring does not cover every edge of the cube")
        return cls(n, blue)

    def colour_of(self, e: Edge) -> Colour:
        if not 0 <= e.dir < self.n or e.lo >> self.n or (e.lo >> e.dir) & 1:
            raise ValueError(f"{e} is not a canonical edge of Q_{self.n}")
        return Colour.BLUE if (self.blue_mask >> _pos(e.lo, e.dir, self.n)) & 1 else Colour.RED

    def colour_between(self, u: int, v: int) -> Colour:
        """Colour of the edge between two adjacent vertices."""
        dir = (u ^ v).bit_length() - 1
        if u ^ v != 1 << dir:
            raise ValueError(f"{u} and {v} are not adjacent")
        return Colour.BLUE if (self.blue_mask >> _pos(min(u, v), dir, self.n)) & 1 else Colour.RED

    def blue_count(self) -> int:
        return self.blue_mask.bit_count()

    def pairs(self) -> Iterator[tuple[int, int, Colour]]:
        """(lo, dir, colour) for every edge, in (lo, dir) order."""
        for e in all_edges(self.n):
            yield (e.lo, e.dir, self.colour_of(e))


def _antipodal_representatives(n: int) -> list[Edge]:
    """One edge per antipodal pair, the (lo, dir)-smaller one."""
    return [e for e in all_edges(n) if e < antipodal_edge(e, n)]


@lru_cache(maxsize=None)
def _antipodal_pairs(n: int) -> tuple[int, tuple[tuple[int, int], ...]]:
    """``(base, pairs)``: the edge positions (rep, partner) of every
    antipodal pair, in representative order, and the mask with every
    partner blue. Positions rather than one-bit masks keep the cache
    linear in the pair count: at n = 16 a mask per pair would take
    gigabytes."""
    _check_dimension(n)
    pairs = []
    for e in _antipodal_representatives(n):
        a = antipodal_edge(e, n)
        pairs.append((_pos(e.lo, e.dir, n), _pos(a.lo, a.dir, n)))
    return _mask((partner for _, partner in pairs), n << n), tuple(pairs)


@lru_cache(maxsize=None)
def _edge_positions(n: int) -> tuple[int, ...]:
    """Bit position of every edge, in (lo, dir) order."""
    _check_dimension(n)
    return tuple(_pos(e.lo, e.dir, n) for e in all_edges(n))


def _antipodal_image(n: int, mask: int) -> int:
    """The edge mask with edge e set iff the antipodal edge of e is set
    in ``mask``. Edge (lo, d) maps to (lo ^ (2^n - 1) ^ 2^d, d): reversing
    the 2^n bits of direction d's block maps lo to lo ^ (2^n - 1), whose
    bit d is 1, and shifting down by 2^d clears it."""
    size = 1 << n
    image = 0
    for d in range(n):
        block = (mask >> (d << n)) & ((1 << size) - 1)
        image |= int(format(block, f"0{size}b")[::-1], 2) >> (1 << d) << (d << n)
    return image


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
    rng = SplitMix64(derive(seed))
    raw = rng.bits(n << n)
    return EdgeColouring(n, raw & _valid_edge_mask(n))


def antipodal_colouring_from_index(n: int, index: int) -> EdgeColouring:
    """The index-th antipodal colouring: bit i of the index blues the
    i-th representative edge (else its partner). Indices in
    [0, 2^antipodal_pair_count(n)) enumerate them all."""
    blue, pairs = _antipodal_pairs(n)
    if not 0 <= index < (1 << len(pairs)):
        raise ValueError(f"index {index} out of range for {len(pairs)} antipodal pairs")
    while index:
        low = index & -index
        rep, partner = pairs[low.bit_length() - 1]
        blue ^= (1 << rep) | (1 << partner)
        index ^= low
    return EdgeColouring(n, blue)


def colouring_from_index(n: int, index: int) -> EdgeColouring:
    """The index-th general colouring: bit i of the index blues the i-th
    edge in (lo, dir) order. Indices in [0, 2^edge_count(n))."""
    positions = _edge_positions(n)
    if not 0 <= index < (1 << len(positions)):
        raise ValueError(f"index {index} out of range for {len(positions)} edges")
    blue = 0
    while index:
        low = index & -index
        blue |= 1 << positions[low.bit_length() - 1]
        index ^= low
    return EdgeColouring(n, blue)


@dataclass(frozen=True)
class AntipodalWitness:
    """A path between antipodal vertices together with what it certifies:
    'mono-path' (all one colour), 'mono-geodesic', 'one-change-geodesic'
    (geodesics of length n), or a generic 'path' carrying its exact
    colour-change count."""

    kind: str
    vertices: tuple[int, ...]
    pair: tuple[int, int]
    change_count: int | None = None


def validate_witness(w: AntipodalWitness, c: EdgeColouring) -> None:
    """Structural check, independent of how the witness was found.
    Raises ValueError on any defect."""
    n = c.n
    x, y = w.pair
    if y != antipode(x, n):
        raise ValueError(f"pair {w.pair} is not antipodal in Q_{n}")
    verts = w.vertices
    if verts[0] != x or verts[-1] != y:
        raise ValueError("path endpoints do not match the antipodal pair")
    blue = c.blue_mask
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
        colour = (blue >> (((d.bit_length() - 1) << n) | (u & v))) & 1
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
        if changes != w.change_count:
            raise ValueError(
                f"witness records {w.change_count} changes but has {changes}"
            )
    else:
        raise ValueError(f"unknown witness kind {w.kind!r}")


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


def _first_antipodal(c: EdgeColouring, geodesic: bool, budget: int, kind: str):
    """The witness for the first x, ascending, joined to its antipode
    within the change budget."""
    n = c.n
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
    return _first_antipodal(c, False, 0, "mono-path")


def find_monochromatic_antipodal_geodesic(c: EdgeColouring, max_n: int = SEARCH_MAX_N):
    """Search for a single-colour geodesic between antipodal vertices.

    From a start x, the set of directions used so far is implied by the
    current vertex (x XOR v), so plain reachability over vertices with
    steps away from x in one colour decides it; reaching the antipode
    means all n directions were used once.
    """
    if c.n > max_n:
        raise ValueError(f"n={c.n} exceeds the subset-search cap {max_n}")
    return _first_antipodal(c, True, 0, "mono-geodesic")


def find_one_change_antipodal_geodesic(c: EdgeColouring, max_n: int = SEARCH_MAX_N):
    """Search for a geodesic between antipodal vertices with at most one
    colour change: reachability away from x with a change budget of one."""
    if c.n > max_n:
        raise ValueError(f"n={c.n} exceeds the subset-search cap {max_n}")
    return _first_antipodal(c, True, 1, "one-change-geodesic")


def _loop_erase(verts: tuple[int, ...]) -> list[int]:
    out: list[int] = []
    seen: dict[int, int] = {}
    for v in verts:
        if v in seen:
            for u in out[seen[v] + 1 :]:
                del seen[u]
            del out[seen[v] + 1 :]
        else:
            seen[v] = len(out)
            out.append(v)
    return out


def min_colour_changes_antipodal(c: EdgeColouring) -> tuple[int, AntipodalWitness]:
    """Minimum, over antipodal pairs, of the fewest colour changes on any
    path joining the pair, with a witness for the first pair (x
    ascending) that attains it.

    The layered search optimizes over walks; erasing a loop from a walk
    never increases its change count, so the walk minimum equals the
    path minimum and the returned witness is loop-erased to a simple path
    achieving exactly the optimum. After the first x, each x is searched
    only for fewer changes than the best so far.
    """
    n = c.n
    mask = (1 << n) - 1
    classes = _colour_lomasks(c)
    best: tuple[int, AntipodalWitness] | None = None
    for x in range(1 << (n - 1)):
        found = _antipodal_search(n, classes, x, False, None if best is None else best[0] - 1)
        if found is None:
            if best is None:
                raise RuntimeError("Q_n is connected, yet the antipode was not reached")
            continue
        value, walk = found
        simple = _loop_erase(walk)
        cols = [c.colour_between(u, v) for u, v in zip(simple, simple[1:])]
        changes = sum(1 for a, b in zip(cols, cols[1:]) if a is not b)
        if changes != value:
            raise RuntimeError(f"loop erasure gave {changes} changes, not the optimum {value}")
        best = (value, AntipodalWitness("path", tuple(simple), (x, x ^ mask), changes))
        if value == 0:
            break
    return best


def _colour_lomasks(c: EdgeColouring) -> tuple[list[int], list[int]]:
    """Per-direction lo-endpoint masks of the red and the blue class."""
    n = c.n
    vmask = (1 << (1 << n)) - 1
    blue = [(c.blue_mask >> (dir << n)) & vmask for dir in range(n)]
    return [_lo_pattern(n, dir) ^ b for dir, b in enumerate(blue)], blue


def monochromatic_half_geodesic(c: EdgeColouring) -> GeodesicPath:
    """A single-colour geodesic of length at least ceil(n/2).

    The majority colour class has at least half of all edges, so over all
    2^n vertices its average degree is at least n/2, and some connected
    component of it reaches that ratio; the direction-sweep table on that
    component then yields a geodesic of at least ceil(n/2) edges.
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
    if path.length < ceil(Fraction(n, 2)):
        raise RuntimeError(f"half geodesic has {path.length} edges, below ceil(n/2) at n = {n}")
    if any(c.colour_between(u, v) is not majority for u, v in zip(path.vertices, path.vertices[1:])):
        raise RuntimeError(f"half geodesic {path.vertices} leaves the {majority.value} class")
    return path


def lift_to_antipodal(c: EdgeColouring) -> EdgeColouring:
    """Extend a colouring of Q_n to an antipodal colouring of Q_{n+1}
    that agrees with it on the bottom subcube (new coordinate 0).

    Bottom edges copy c; each top edge takes the colour opposite to its
    antipodal bottom edge; each antipodal pair of new-direction edges is
    split deterministically: red on the edge whose bottom endpoint has
    even parity, or on the smaller bottom endpoint when the pair's
    parities agree (they always agree for even n).
    """
    n = c.n
    n2 = n + 1
    mask = (1 << n) - 1
    blue = 0
    for e in all_edges(n):
        p = 1 << _pos(e.lo, e.dir, n2)
        top = 1 << _pos(e.lo | (1 << n), e.dir, n2)
        # antipodal partner of that top edge is the bottom edge
        # (complement(lo) ^ bit, dir); colour the pair oppositely.
        partner = Edge((mask ^ e.lo) ^ (1 << e.dir), e.dir)
        if c.colour_of(e) is Colour.BLUE:
            blue |= p
        if c.colour_of(partner) is Colour.RED:
            blue |= top
    for lo in range(1 << n):
        partner = mask ^ lo
        if lo > partner:
            continue
        lp, pp = lo.bit_count() & 1, partner.bit_count() & 1
        if lp != pp:
            blue_lo = lp == 1
        else:
            blue_lo = False  # smaller endpoint red
        if blue_lo:
            blue |= 1 << _pos(lo, n, n2)
        else:
            blue |= 1 << _pos(partner, n, n2)
    lifted = EdgeColouring(n2, blue)
    if not is_antipodal(lifted):
        raise RuntimeError(f"lift of a colouring of Q_{n} is not antipodal")
    return lifted


def restrict_to_bottom(c: EdgeColouring) -> EdgeColouring:
    """The colouring induced on the bottom subcube (top coordinate 0)."""
    n = c.n - 1
    if n < 1:
        raise ValueError("nothing to restrict to below n = 2")
    blue = 0
    for e in all_edges(n):
        if c.colour_of(Edge(e.lo, e.dir)) is Colour.BLUE:
            blue |= 1 << _pos(e.lo, e.dir, n)
    return EdgeColouring(n, blue)


def derive_B_from_A(c: EdgeColouring) -> AntipodalWitness:
    """Produce a one-change antipodal geodesic for an arbitrary colouring
    from a monochromatic antipodal geodesic on its antipodal lift.

    Lift c to an antipodal colouring of Q_{n+1}, find a monochromatic
    geodesic P between antipodal vertices there, and close it with its
    antipodal image into a cycle of length 2(n+1). The cycle crosses the
    new direction exactly twice, so it splits into a bottom arc and a top
    arc; the bottom arc is a geodesic between Q_n-antipodal vertices made
    of one piece of P and one piece of the oppositely coloured image, so
    it changes colour at most once under c.
    """
    n = c.n
    lifted = lift_to_antipodal(c)
    found = find_monochromatic_antipodal_geodesic(lifted)
    if found is None:
        raise ValueError(
            "no monochromatic antipodal geodesic on the lifted colouring; "
            "cannot run the construction"
        )
    mask2 = (1 << (n + 1)) - 1
    p = list(found.vertices)
    cycle = p + [v ^ mask2 for v in p[1:]]
    steps = list(zip(cycle, cycle[1:]))
    crossings = [i for i, (u, v) in enumerate(steps) if u ^ v == 1 << n]
    if len(crossings) != 2:
        raise RuntimeError(f"the cycle crosses the new direction {len(crossings)} times, not twice")
    i1, i2 = crossings
    arc1 = cycle[i1 + 1 : i2 + 1]
    arc2 = cycle[i2 + 1 :] + cycle[1 : i1 + 1]
    top_bit = 1 << n
    bottom, top = (arc2, arc1) if arc1[0] & top_bit else (arc1, arc2)
    if any(v & top_bit for v in bottom) or not all(v & top_bit for v in top):
        raise RuntimeError("an arc of the cycle between its crossings leaves its subcube")
    witness = AntipodalWitness(
        "one-change-geodesic", tuple(bottom), (bottom[0], bottom[-1])
    )
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
    verts = list(found.vertices)
    cols = [c.colour_between(u, v) for u, v in zip(verts, verts[1:])]
    split = next(
        (i + 1 for i in range(len(cols) - 1) if cols[i] is not cols[i + 1]), None
    )
    if split is None:
        witness = AntipodalWitness("mono-geodesic", tuple(verts), (verts[0], verts[-1]))
        validate_witness(witness, c)
        return witness
    mask = (1 << n) - 1
    tail = verts[split:]
    head_image = [v ^ mask for v in verts[1 : split + 1]]
    combined = tail + head_image
    witness = AntipodalWitness(
        "mono-geodesic", tuple(combined), (combined[0], combined[-1])
    )
    validate_witness(witness, c)
    return witness
