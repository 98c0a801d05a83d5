"""Independent brute-force oracles used only by the tests.

These deliberately share no logic with the library: straight pair
enumeration and simple-path DFS, nothing clever.
"""

from fractions import Fraction
from itertools import combinations
from math import comb

from cubegeo.colourings import MAX_COLOURING_DIMENSION, EdgeColouring
from cubegeo.core import MAX_DIMENSION, CubeSubgraph
from cubegeo.harness.serialize import ParseError
from cubegeo.rng import derive

#: Default cap of brute_force_longest_geodesic: an instance is in range
#: when n <= ORACLE_MAX_N or |E| <= ORACLE_MAX_EDGES.
ORACLE_MAX_N = 8
ORACLE_MAX_EDGES = 200


def _set_bits(m):
    """Positions of the set bits of m, ascending, by peeling off the
    lowest set bit one at a time."""
    out = []
    while m:
        low = m & -m
        out.append(low.bit_length() - 1)
        m ^= low
    return out


def members(fam):
    """Referee for a family's members: the set bits of its mask,
    ascending."""
    return _set_bits(fam.mask)


def vertex_list(g):
    """Referee for a subgraph's vertices: the set bits of its vertex
    mask, ascending."""
    return _set_bits(g.vertex_mask)


def edge_list(g):
    """Referee for a subgraph's edges: a (lo, dir) pair for each set bit
    lo of each direction's lo mask, sorted by (lo, dir)."""
    return sorted((lo, dir) for dir, m in enumerate(g.lo_masks) for lo in _set_bits(m))


def lengths_from_levels(table):
    """Referee for a sweep table's lengths: vertex -> the highest k whose
    mask in ``table.levels[-1]`` has the vertex's bit set, vertices
    ascending."""
    final = table.levels[-1]
    lengths = {}
    for k, level in enumerate(final):
        for v in _set_bits(level):
            lengths[v] = k
    return dict(sorted(lengths.items()))


def induced_edge_pairs(n, vertices):
    """All unordered vertex pairs at Hamming distance 1."""
    vs = sorted(set(vertices))
    return [(u, v) for u, v in combinations(vs, 2) if bin(u ^ v).count("1") == 1]


def max_pairwise_distance(vertices):
    vs = sorted(set(vertices))
    if len(vs) == 1:
        return 0
    return max(bin(u ^ v).count("1") for u, v in combinations(vs, 2))


def lex_first_farthest_pair(vertices):
    """Referee for ``max_hamming_pair``: (x, y, D) with D the largest
    Hamming distance over all pairs x < y, and (x, y) the first such pair
    in lexicographic order; (v, v, 0) for a single vertex v. A double
    loop over the sorted vertices that keeps a pair only if it is
    strictly farther than the best so far."""
    vs = sorted(set(vertices))
    best = (vs[0], vs[0], 0)
    for i in range(len(vs)):
        for j in range(i + 1, len(vs)):
            d = bin(vs[i] ^ vs[j]).count("1")
            if d > best[2]:
                best = (vs[i], vs[j], d)
    return best


def adjacency(g):
    adj = {v: [] for v in vertex_list(g)}
    for lo, dir in edge_list(g):
        hi = lo ^ (1 << dir)
        adj[lo].append((dir, hi))
        adj[hi].append((dir, lo))
    return adj


def greedy_walk(g):
    """Referee for the greedy baseline. Peels vertices of degree below
    half the average degree one at a time off a stack, smallest first,
    updating neighbour degrees as it goes; then walks from the smallest
    survivor, each step along the smallest unused direction whose
    neighbour survived. Returns (vertices, directions)."""
    adj = adjacency(g)
    half = Fraction(len(edge_list(g)), len(adj))
    deg = {v: len(nbrs) for v, nbrs in adj.items()}
    alive = set(adj)
    stack = sorted((v for v in alive if deg[v] < half), reverse=True)
    while stack:
        v = stack.pop()
        if v not in alive or deg[v] >= half:
            continue
        alive.remove(v)
        for _, w in adj[v]:
            if w in alive:
                deg[w] -= 1
                if deg[w] < half:
                    stack.append(w)
    v = min(alive)
    verts, dirs = [v], []
    while True:
        steps = [(d, w) for d, w in adj[v] if d not in dirs and w in alive]
        if not steps:
            return tuple(verts), tuple(dirs)
        d, v = min(steps)
        dirs.append(d)
        verts.append(v)


def all_geodesic_vertex_sequences(g):
    """Every directed distinct-direction path (as a vertex tuple),
    including single vertices."""
    adj = adjacency(g)
    out = []

    def walk(v, used, trail):
        out.append(tuple(trail))
        for dir, w in adj[v]:
            if not used & (1 << dir):
                trail.append(w)
                walk(w, used | (1 << dir), trail)
                trail.pop()

    for s in vertex_list(g):
        walk(s, 0, [s])
    return out

def longest_geodesic_length(g):
    return max(len(seq) - 1 for seq in all_geodesic_vertex_sequences(g))


def brute_force_longest_geodesic(g, max_n=ORACLE_MAX_N, max_edges=ORACLE_MAX_EDGES):
    """Exact maximum-length geodesic by memoized DFS over simple paths
    with a used-direction bitmask. Exponential in principle; guarded by
    a cap (n <= max_n or |E| <= max_edges), by default this module's.
    Returns (vertices, directions)."""
    if not g.vertex_mask:
        raise ValueError("empty graph has no geodesics")
    edge_count = len(edge_list(g))
    if g.n > max_n and edge_count > max_edges:
        raise ValueError(f"instance (n={g.n}, |E|={edge_count}) exceeds the cap")
    adj = adjacency(g)
    memo = {}

    def longest_from(v, used):
        key = (v, used)
        if key not in memo:
            best, best_dir = 0, None
            for dir, w in adj[v]:
                if not used & (1 << dir):
                    sub = longest_from(w, used | (1 << dir))[0] + 1
                    if sub > best:
                        best, best_dir = sub, dir
            memo[key] = (best, best_dir)
        return memo[key]

    start = max(vertex_list(g), key=lambda v: (longest_from(v, 0)[0], -v))
    verts, dirs = [start], []
    v, used = start, 0
    while (dir := longest_from(v, used)[1]) is not None:
        v ^= 1 << dir
        used |= 1 << dir
        verts.append(v)
        dirs.append(dir)
    return tuple(verts), tuple(dirs)


def count_unordered_geodesics(g, d):
    """Distinct-direction paths with d edges, one per unordered path."""
    seqs = set()
    for seq in all_geodesic_vertex_sequences(g):
        if len(seq) == d + 1:
            seqs.add(seq if seq[0] <= seq[-1] else seq[::-1])
    return len(seqs)


def _ranks(ordering):
    """direction -> its position in the ordering's permutation."""
    return {d: r for r, d in enumerate(ordering.perm)}


def increasing_lengths_by_end(g, ordering):
    """Longest rank-increasing path length ending at each vertex."""
    ranks = _ranks(ordering)
    adj = adjacency(g)
    best = dict.fromkeys(vertex_list(g), 0)

    def walk(v, last, depth):
        if depth > best[v]:
            best[v] = depth
        for dir, w in adj[v]:
            if ranks[dir] > last:
                walk(w, ranks[dir], depth + 1)

    for s in vertex_list(g):
        walk(s, -1, 0)
    return best


def min_changes_simple_paths(c, x, y):
    """Minimum colour changes over all simple x..y paths, by exhaustive
    DFS. Exponential; only for n <= 3."""
    n = c.n
    best = None

    def walk(v, visited, last_colour, changes):
        nonlocal best
        if best is not None and changes > best:
            return
        if v == y:
            best = changes if best is None else min(best, changes)
            return
        for dir in range(n):
            w = v ^ (1 << dir)
            if w in visited:
                continue
            col = colour_of(c, v, w)
            extra = 0 if last_colour is None or col == last_colour else 1
            walk(w, visited | {w}, col, changes + extra)

    walk(x, {x}, None, 0)
    return best


def _edge_position(n, u, v):
    """The position dir * 2^n + lo of the edge between u and v: they
    differ in exactly one coordinate, its direction, and its lo end is
    the smaller of the two."""
    (d,) = [d for d in range(n) if (u >> d) & 1 != (v >> d) & 1]
    return d * 2 ** n + min(u, v)


def colour_of(c, u, v):
    """Referee for an edge's colour: "blue" if the colouring's mask has
    the bit of the edge between u and v, else "red"."""
    return "blue" if (c.blue_mask >> _edge_position(c.n, u, v)) & 1 else "red"


def path_colours(c, vertices):
    return [colour_of(c, u, v) for u, v in zip(vertices, vertices[1:])]


def colour_changes(c, vertices):
    cols = path_colours(c, vertices)
    return sum(1 for a, b in zip(cols, cols[1:]) if a != b)


def is_monochromatic(c, vertices):
    cols = path_colours(c, vertices)
    return all(col == cols[0] for col in cols)


def _canonical_edges(n):
    """(lo, dir) for every edge of Q_n, in (lo, dir) order."""
    return [(lo, d) for lo in range(1 << n) for d in range(n) if not (lo >> d) & 1]


def constant_colouring(n, colour):
    """Every edge of Q_n in one colour."""
    return colouring_from_pairs(n, ((lo, d, colour) for lo, d in _canonical_edges(n)))


def direction_split(n):
    """Directions 0..n-2 red, direction n-1 blue. Not antipodal; the
    standard example of a colouring with no monochromatic antipodal
    path."""
    return colouring_from_pairs(
        n, ((lo, d, "blue" if d == n - 1 else "red") for lo, d in _canonical_edges(n))
    )


def antipodal_colouring_blue_edges(n, index):
    """Reference for the index-th antipodal colouring, rebuilt pair by
    pair on every call: bit i of the index blues the i-th representative
    edge (the (lo, dir)-smaller edge of its antipodal pair), else its
    partner. Returns the set of blue (lo, dir) edges."""
    full = (1 << n) - 1
    reps = []
    for lo, d in _canonical_edges(n):
        partner = (full ^ lo ^ (1 << d), d)
        if (lo, d) < partner:
            reps.append(((lo, d), partner))
    return {rep if (index >> i) & 1 else partner for i, (rep, partner) in enumerate(reps)}


def colouring_blue_edges(n, index):
    """Reference for the index-th general colouring: bit i of the index
    blues the i-th edge in (lo, dir) order."""
    return {e for i, e in enumerate(_canonical_edges(n)) if (index >> i) & 1}


def blue_edges(c):
    return {(lo, d) for lo, d, colour in colouring_pairs(c) if colour == "blue"}


def has_mono_antipodal_path(c):
    """The first (x, colour), x ascending and red before blue, such that a
    single-colour path joins x to its antipode; None if there is none.
    Plain depth-first search over vertices."""
    n = c.n
    full = (1 << n) - 1
    for x in range(1 << (n - 1)):
        for colour in ("red", "blue"):
            seen = {x}
            stack = [x]
            while stack:
                v = stack.pop()
                if v == x ^ full:
                    return (x, colour)
                for d in range(n):
                    w = v ^ (1 << d)
                    if w not in seen and colour_of(c, v, w) == colour:
                        seen.add(w)
                        stack.append(w)
    return None


def has_mono_antipodal_geodesic(c):
    """The first (x, colour), x ascending and red before blue, such that a
    single-colour geodesic joins x to its antipode; None if there is none.
    Depth-first search over vertex sequences that use each direction at
    most once."""
    n = c.n
    full = (1 << n) - 1

    def walk(v, used, colour):
        if used == full:
            return True
        for d in range(n):
            w = v ^ (1 << d)
            if not (used >> d) & 1 and colour_of(c, v, w) == colour:
                if walk(w, used | (1 << d), colour):
                    return True
        return False

    for x in range(1 << (n - 1)):
        for colour in ("red", "blue"):
            if walk(x, 0, colour):
                return (x, colour)
    return None


def min_changes_geodesics(c, x):
    """Minimum colour changes over all geodesics from x to its antipode,
    by exhaustive DFS over direction orders."""
    n = c.n
    full = (1 << n) - 1
    best = None

    def walk(v, used, last, changes):
        nonlocal best
        if used == full:
            best = changes if best is None else min(best, changes)
            return
        for d in range(n):
            if not (used >> d) & 1:
                w = v ^ (1 << d)
                colour = colour_of(c, v, w)
                walk(w, used | (1 << d), colour, changes + (last is not None and colour != last))

    walk(x, 0, None, 0)
    return best


def has_one_change_antipodal_geodesic(c):
    """The first x, ascending, such that a geodesic with at most one
    colour change joins x to its antipode; None if there is none."""
    return next((x for x in range(1 << (c.n - 1)) if min_changes_geodesics(c, x) <= 1), None)


def is_antipodal_pairwise(c):
    """Every edge coloured unlike its antipodal edge, checked edge by edge."""
    n = c.n
    full = (1 << n) - 1
    blue = blue_edges(c)
    return all(((lo, d) in blue) != ((full ^ lo ^ (1 << d), d) in blue) for lo, d in _canonical_edges(n))


def lift_edge_by_edge(c):
    """Reference antipodal lift of a colouring of Q_n to Q_{n+1}, built
    edge by edge: bottom edges copy c; the top edge (lo + 2^n, d) takes
    the colour opposite to c's colour on its antipodal bottom edge
    (lo ^ (2^n - 1) ^ 2^d, d); the new-direction edges at lo and
    lo ^ (2^n - 1) are red on the even-parity end if the ends' parities
    differ, else on the smaller end, and blue on the other."""
    n = c.n
    full = (1 << n) - 1
    opposite = {"red": "blue", "blue": "red"}
    triples = []
    for lo, d in _canonical_edges(n):
        triples.append((lo, d, colour_of(c, lo, lo + 2 ** d)))
        partner = colour_of(c, full ^ lo, full ^ lo ^ (1 << d))
        triples.append((lo + 2 ** n, d, opposite[partner]))
    for lo in range(2 ** n):
        other = full ^ lo
        odd, other_odd = bin(lo).count("1") % 2, bin(other).count("1") % 2
        red = odd == 0 if odd != other_odd else lo < other
        triples.append((lo, n, "red" if red else "blue"))
    return colouring_from_pairs(n + 1, triples)


def path_edge_positions(n, vertices):
    """The positions dir * 2^n + lo of a path's edges, read step by step:
    each step flips exactly one coordinate, its direction, and its lo
    end is the smaller of the two vertices."""
    return {_edge_position(n, u, v) for u, v in zip(vertices, vertices[1:])}


def colouring_pairs(c):
    """Referee for the triples of ``serialize.colouring_to_obj``:
    (lo, dir, colour) for every edge in (lo, dir) order, each colour read
    by its own shift of the mask."""
    n = c.n
    return [(lo, d, "blue" if (c.blue_mask >> (d * 2 ** n + lo)) & 1 else "red")
            for lo, d in _canonical_edges(n)]


def colouring_from_pairs(n, pairs):
    """A colouring built from (lo, dir, colour) triples without the
    library's codec, and the referee for the edge checks of
    ``serialize.obj_to_colouring``: the dimension, then one triple at a
    time in input order, with the reader's messages; the coloured and the
    blue edges are kept as sets of (lo, dir)."""
    if not 1 <= n <= MAX_COLOURING_DIMENSION:
        raise ValueError(f"colouring dimension {n} outside 1..{MAX_COLOURING_DIMENSION}")
    edges = set(_canonical_edges(n))
    seen, blue = set(), set()
    for lo, d, colour in pairs:
        if (lo, d) not in edges:
            raise ValueError(f"({lo}, {d}) is not a canonical edge of Q_{n}")
        if (lo, d) in seen:
            raise ValueError(f"edge ({lo}, {d}) coloured twice")
        seen.add((lo, d))
        if colour == "blue":
            blue.add((lo, d))
    if seen != edges:
        raise ValueError("colouring does not cover every edge of the cube")
    return EdgeColouring(n, sum(1 << (d * 2 ** n + lo) for lo, d in blue))


def compress_members(members, i):
    """Referee for down-compression in direction i, member by member: a
    member containing i drops to member - {i} unless that set is
    already a member."""
    present = set(members)
    bit = 1 << i
    return {a ^ bit if a & bit and a ^ bit not in present else a for a in present}


def full_compress_members(n, members):
    """Referee for full compression: compress_members in directions
    0..n-1, pass after pass, until a pass changes nothing."""
    current = set(members)
    while True:
        nxt = current
        for i in range(n):
            nxt = compress_members(nxt, i)
        if nxt == current:
            return current
        current = nxt


def is_t_intersecting_members(members, t):
    """Referee for the t-intersecting test: every pair of members, a
    member with itself included, shares at least t elements."""
    return all(bin(a & b).count("1") >= t for a in members for b in members)


def _drops(a):
    """The sets a - {i} for each element i of a."""
    return [a ^ (1 << i) for i in range(a.bit_length()) if a >> i & 1]


def is_downset_members(members):
    """Referee for the downset test: every a - {i} of every member a is
    a member."""
    present = set(members)
    return all(b in present for a in present for b in _drops(a))


def shadow_members(members):
    """Referee for the shadow: every a - {i} of every member a."""
    return {b for a in members for b in _drops(a)}


def level_profile_members(n, members):
    """Referee for the level profile: each member counted at its size."""
    counts = [0] * (n + 1)
    for a in members:
        counts[bin(a).count("1")] += 1
    return tuple(counts)


def feder_subi_members(members, d):
    """Referee for the Feder-Subi check: no two members of one size k with
    2k >= d, a member with itself included, have a union of d or more
    elements."""
    size = {a: bin(a).count("1") for a in members}
    return not any(
        size[a] == size[b] and 2 * size[a] >= d and bin(a | b).count("1") >= d
        for a in members for b in members
    )


def edge_random_graph(n, density, seed):
    """Referee for the edge-random model: bit i of the seed's Bernoulli
    draw picks the i-th edge in (lo, dir) order, and the graph is built
    one picked edge at a time; a draw that picks nothing gives the
    vertex 0 alone."""
    edges = _canonical_edges(n)
    drawn = SplitMix64Referee(derive(seed)).bernoulli_mask(Fraction(density), len(edges))
    vertices, lo_masks = set(), [0] * n
    for i, (lo, d) in enumerate(edges):
        if (drawn >> i) & 1:
            vertices.update((lo, lo + 2 ** d))
            lo_masks[d] |= 1 << lo
    return CubeSubgraph(n, sum(1 << v for v in vertices) or 1, tuple(lo_masks))


def t_intersecting_members(n, k, t, size, seed):
    """Referee for ``random_t_intersecting_family``: the same draws on
    ``SplitMix64Referee``, with sets of elements. A shuffle of range(n)
    picks the t-element core; each attempt shuffles the other elements
    and adds the first k - t of them to the core; after the first kept
    member, a randrange(4) of 0 swaps a random element of the draw
    (ascending order) for a random one outside it. A draw is kept if it
    is new and meets every kept member in t or more elements, until size
    are kept or 50 min(size, C(n, k)) attempts are made. Returns the kept
    members, as ints, in draw order."""
    rng = SplitMix64Referee(derive(seed))
    elems = list(range(n))
    rng.shuffle(elems)
    core = set(elems[:t])
    outside = [e for e in range(n) if e not in core]
    kept = []
    attempts = 0
    while len(kept) < size and attempts < 50 * min(size, comb(n, k)):
        attempts += 1
        rng.shuffle(outside)
        s = core | set(outside[:k - t])
        if kept and rng.randrange(4) == 0:
            inside = sorted(s)
            away = [e for e in range(n) if e not in s]
            if inside and away:
                s.remove(inside[rng.randrange(len(inside))])
                s.add(away[rng.randrange(len(away))])
        member = sum(2 ** e for e in s)
        if member not in kept and all(bin(member & other).count("1") >= t for other in kept):
            kept.append(member)
    return kept


def subset_draw_masks(rng, n, k, core, count):
    """Referee for ``SplitMix64.subset_draws``, with sets of elements: the
    first ``count`` masks of the stream whose base is the element set
    ``core`` and which adds k - len(core) elements, drawn on the referee
    ``rng``. Each draw shuffles the elements outside the core (one list,
    shuffled again and again) and adds the first k - len(core) of them to
    the core; from the second draw on, a randrange(4) of 0 swaps the
    randrange(k)-th element of the draw (ascending order) for the
    randrange(n - k)-th element outside it, when 0 < k < n."""
    outside = [e for e in range(n) if e not in core]
    masks = []
    for d in range(count):
        rng.shuffle(outside)
        s = set(core) | set(outside[:k - len(core)])
        if d and rng.randrange(4) == 0 and 0 < k < n:
            inside = sorted(s)
            away = [e for e in range(n) if e not in s]
            s.remove(inside[rng.randrange(k)])
            s.add(away[rng.randrange(n - k)])
        masks.append(sum(2 ** e for e in s))
    return masks


def fisher_yates_ordering(n, rng):
    """The direction permutation of a Fisher-Yates shuffle of range(n),
    drawing ``rng.randrange(i + 1)`` for i = n - 1 down to 1."""
    perm = list(range(n))
    for i in range(n - 1, 0, -1):
        j = rng.randrange(i + 1)
        perm[i], perm[j] = perm[j], perm[i]
    return tuple(perm)


class SplitMix64Referee:
    """SplitMix64 one word at a time, written from the published
    algorithm (Steele, Lea and Flood, OOPSLA 2014: a Weyl sequence with
    increment 0x9E3779B97F4A7C15, then the mix64 variant 13 finalizer),
    with the library's draw rules spelled out plainly: bits are queued
    least significant first in a list, and a Bernoulli draw narrows its
    window 16 bits at a time. ``state``, ``buf`` and ``bufbits``
    read like the library generator's ``state``, ``_buf`` and
    ``_bufbits``."""

    def __init__(self, seed):
        self.state = seed % 2 ** 64
        self.queue = []

    def word(self):
        self.state = (self.state + 0x9E3779B97F4A7C15) % 2 ** 64
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) % 2 ** 64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) % 2 ** 64
        return z ^ (z >> 31)

    @staticmethod
    def _value(bits):
        """The int whose bit i is bits[i]."""
        return int("".join(map(str, reversed(bits))) or "0", 2)

    @property
    def buf(self):
        return self._value(self.queue)

    @property
    def bufbits(self):
        return len(self.queue)

    def bits(self, k):
        while len(self.queue) < k:
            w = self.word()
            self.queue.extend((w >> i) & 1 for i in range(64))
        taken, self.queue = self.queue[:k], self.queue[k:]
        return self._value(taken)

    def randrange(self, bound):
        k = (bound - 1).bit_length()
        while True:
            r = self.bits(k)
            if r < bound:
                return r

    def bernoulli(self, p):
        """U < p for a uniform real U read 16 bits at a time: after m
        chunks U lies in [x, x + 1) / scale with scale = 2^(16 m), which
        decides the draw once the window lies wholly on one side of p."""
        if p == 0 or p == 1:
            return p == 1
        x, scale = 0, 1
        while True:
            x, scale = x * 2 ** 16 + self.bits(16), scale * 2 ** 16
            if (x + 1) * p.denominator <= p.numerator * scale:
                return True
            if x * p.denominator >= p.numerator * scale:
                return False

    def bernoulli_mask(self, p, count):
        return self._value([int(self.bernoulli(p)) for _ in range(count)])

    def shuffle(self, seq):
        for i in range(len(seq) - 1, 0, -1):
            j = self.randrange(i + 1)
            seq[i], seq[j] = seq[j], seq[i]


def chain_sweep_table(g, ordering):
    """Referee for the direction-sweep table: relax the edges of each
    direction class one by one, in increasing lo order, from pre-class
    values, keeping per-vertex lengths and snapshot chains
    (predecessor, direction, predecessor's chain). A chain is replaced
    only by a strictly longer one. Returns (lengths, chains)."""
    lengths = dict.fromkeys(vertex_list(g), 0)
    chains = dict.fromkeys(vertex_list(g), None)
    edges = edge_list(g)
    for dir in ordering.perm:
        for lo in sorted(lo for lo, d in edges if d == dir):
            hi = lo ^ (1 << dir)
            llo, lhi = lengths[lo], lengths[hi]
            clo, chi = chains[lo], chains[hi]
            if llo + 1 > lhi:
                lengths[hi], chains[hi] = llo + 1, (lo, dir, clo)
            if lhi + 1 > llo:
                lengths[lo], chains[lo] = lhi + 1, (hi, dir, chi)
    return lengths, chains


def chain_witness(chains, v):
    """The (vertices, directions) of the chain ending at v, start first."""
    verts, dirs = [v], []
    node = chains[v]
    while node is not None:
        u, dir, node = node
        verts.append(u)
        dirs.append(dir)
    return tuple(verts[::-1]), tuple(dirs[::-1])


def count_increasing_paths(g, d, ordering):
    """Paths with d edges whose direction ranks strictly increase along
    the path, by depth-first search from every vertex."""
    ranks = _ranks(ordering)
    adj = adjacency(g)

    def walk(v, last, depth):
        if depth == d:
            return 1
        return sum(walk(w, ranks[dir], depth + 1) for dir, w in adj[v] if ranks[dir] > last)

    return sum(walk(s, -1, 0) for s in vertex_list(g))


def _is_json_int(value):
    return isinstance(value, int) and not isinstance(value, bool)


def _file_field(obj, name, kind):
    if name not in obj:
        raise ParseError(f"missing field {name!r}")
    value = obj[name]
    if not (_is_json_int(value) if kind is int else isinstance(value, kind)):
        raise ParseError(f"field {name!r} should be {kind.__name__}, got {type(value).__name__}")
    return value


def colouring_from_obj(obj):
    """Referee for reading a parsed colouring file: the fields, then one
    triple at a time in file order, raising ``ParseError`` with the
    reader's messages; ``colouring_from_pairs`` judges the edges."""
    n = _file_field(obj, "n", int)
    raw = _file_field(obj, "pairs", list)
    pairs = []
    for i, item in enumerate(raw):
        if not (isinstance(item, list) and len(item) == 3):
            raise ParseError(f"pairs[{i}] should be [lo, dir, colour], got {item!r}")
        lo, d, name = item
        if not (_is_json_int(lo) and _is_json_int(d)):
            raise ParseError(f"pairs[{i}] endpoints should be ints")
        if not (isinstance(name, str) and name in ("red", "blue")):
            raise ParseError(f"pairs[{i}] colour {name!r} is not 'red' or 'blue'")
        pairs.append((lo, d, name))
    try:
        return colouring_from_pairs(n, pairs)
    except ValueError as exc:
        raise ParseError(f"invalid colouring: {exc}") from exc


def _graph_from_items(n, vertices, edges):
    """Item-by-item validation of a graph's (lo, dir) edge pairs, in the
    order of the checks and with the messages of the item scan: every
    vertex first, then each edge's direction, canonical form, hi
    endpoint and endpoints."""
    if not 0 <= n <= MAX_DIMENSION:
        raise ValueError(f"dimension {n} outside supported range 0..{MAX_DIMENSION}")
    vset = set()
    for v in vertices:
        if not 0 <= v < (1 << n):
            raise ValueError(f"vertex {v} out of range for Q_{n}")
        vset.add(v)
    lo_masks = [0] * n
    for lo, dir in edges:
        name = (lo, dir)
        if not 0 <= dir < n:
            raise ValueError(f"edge direction {dir} out of range for Q_{n}")
        if lo & (1 << dir):
            raise ValueError(f"edge {name} is not canonical: bit {dir} of lo is set")
        hi = lo ^ (1 << dir)
        if not 0 <= hi < (1 << n):
            raise ValueError(f"vertex {hi} out of range for Q_{n}")
        if lo not in vset or hi not in vset:
            raise ValueError(f"edge {name} has an endpoint outside the vertex set")
        lo_masks[dir] |= 1 << lo
    return CubeSubgraph(n, sum(1 << v for v in vset), tuple(lo_masks))


def graph_from_obj(obj):
    """Referee for reading a parsed graph file: field, vertex and edge
    item checks one at a time, in file order, raising ``ParseError``
    with the reader's messages; last, the first vertex, then the first
    edge, listed a second time."""
    n = _file_field(obj, "n", int)
    vertices = _file_field(obj, "vertices", list)
    for v in vertices:
        if not _is_json_int(v):
            raise ParseError("graph vertices should be ints")
    raw_edges = _file_field(obj, "edges", list)
    edges = []
    for i, item in enumerate(raw_edges):
        if not (isinstance(item, list) and len(item) == 2
                and _is_json_int(item[0]) and _is_json_int(item[1])):
            raise ParseError(f"edges[{i}] should be [lo, dir], got {item!r}")
        edges.append((item[0], item[1]))
    try:
        g = _graph_from_items(n, vertices, edges)
    except ValueError as exc:
        raise ParseError(f"invalid graph: {exc}") from exc
    for kind, items in (("vertex", vertices), ("edge", edges)):
        for i, item in enumerate(items):
            if item in items[:i]:
                raise ParseError(f"invalid graph: {kind} {item} listed twice")
    return g
