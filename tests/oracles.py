"""Independent brute-force oracles used only by the tests.

These deliberately share no logic with the library: straight pair
enumeration and simple-path DFS, nothing clever.
"""

from itertools import combinations


def induced_edge_pairs(n, vertices):
    """All unordered vertex pairs at Hamming distance 1."""
    vs = sorted(set(vertices))
    return [(u, v) for u, v in combinations(vs, 2) if bin(u ^ v).count("1") == 1]


def max_pairwise_distance(vertices):
    vs = sorted(set(vertices))
    if len(vs) == 1:
        return 0
    return max(bin(u ^ v).count("1") for u, v in combinations(vs, 2))


def adjacency(g):
    adj = {v: [] for v in g.vertices}
    for e in g.edges:
        adj[e.lo].append((e.dir, e.hi))
        adj[e.hi].append((e.dir, e.lo))
    return adj


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

    for s in g.vertices:
        walk(s, 0, [s])
    return out

def longest_geodesic_length(g):
    return max(len(seq) - 1 for seq in all_geodesic_vertex_sequences(g))


def count_unordered_geodesics(g, d):
    """Distinct-direction paths with d edges, one per unordered path."""
    seqs = set()
    for seq in all_geodesic_vertex_sequences(g):
        if len(seq) == d + 1:
            seqs.add(seq if seq[0] <= seq[-1] else seq[::-1])
    return len(seqs)


def increasing_lengths_by_end(g, ordering):
    """Longest rank-increasing path length ending at each vertex."""
    ranks = ordering.ranks
    adj = adjacency(g)
    best = dict.fromkeys(g.vertices, 0)

    def walk(v, last, depth):
        if depth > best[v]:
            best[v] = depth
        for dir, w in adj[v]:
            if ranks[dir] > last:
                walk(w, ranks[dir], depth + 1)

    for s in g.vertices:
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
            col = c.colour_between(v, w)
            extra = 0 if last_colour is None or col is last_colour else 1
            walk(w, visited | {w}, col, changes + extra)

    walk(x, {x}, None, 0)
    return best


def path_colours(c, vertices):
    return [c.colour_between(u, v) for u, v in zip(vertices, vertices[1:])]


def colour_changes(c, vertices):
    cols = path_colours(c, vertices)
    return sum(1 for a, b in zip(cols, cols[1:]) if a is not b)


def is_monochromatic(c, vertices):
    cols = path_colours(c, vertices)
    return all(col is cols[0] for col in cols)


def _canonical_edges(n):
    """(lo, dir) for every edge of Q_n, in (lo, dir) order."""
    return [(lo, d) for lo in range(1 << n) for d in range(n) if not (lo >> d) & 1]


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
    return {(lo, d) for lo, d, colour in c.pairs() if colour.value == "blue"}


def _edge_colour(c, u, v):
    return c.colour_between(u, v).value


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
                    if w not in seen and _edge_colour(c, v, w) == colour:
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
            if not (used >> d) & 1 and _edge_colour(c, v, w) == colour:
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
                colour = _edge_colour(c, v, w)
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


def fisher_yates_ordering(n, rng):
    """The direction permutation of a Fisher-Yates shuffle of range(n),
    drawing ``rng.randrange(i + 1)`` for i = n - 1 down to 1."""
    perm = list(range(n))
    for i in range(n - 1, 0, -1):
        j = rng.randrange(i + 1)
        perm[i], perm[j] = perm[j], perm[i]
    return tuple(perm)


def chain_sweep_table(g, ordering):
    """Referee for the direction-sweep table: relax the edges of each
    direction class one by one, in increasing lo order, from pre-class
    values, keeping per-vertex lengths and snapshot chains
    (predecessor, direction, predecessor's chain). Ties between
    predecessors of equal length go to the smaller one. Returns
    (lengths, chains)."""
    lengths = dict.fromkeys(g.vertices, 0)
    chains = dict.fromkeys(g.vertices, None)
    for dir in ordering.perm:
        for lo in sorted(e.lo for e in g.edges if e.dir == dir):
            hi = lo ^ (1 << dir)
            llo, lhi = lengths[lo], lengths[hi]
            clo, chi = chains[lo], chains[hi]
            if llo + 1 > lhi or (llo + 1 == lhi and lo < chi[0]):
                lengths[hi], chains[hi] = llo + 1, (lo, dir, clo)
            if lhi + 1 > llo or (lhi + 1 == llo and hi < clo[0]):
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
    ranks = ordering.ranks
    adj = adjacency(g)

    def walk(v, last, depth):
        if depth == d:
            return 1
        return sum(walk(w, ranks[dir], depth + 1) for dir, w in adj[v] if ranks[dir] > last)

    return sum(walk(s, -1, 0) for s in g.vertices)
