from fractions import Fraction
from itertools import accumulate
from math import ceil, comb, factorial

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cubegeo import (
    DirectionOrdering,
    GeodesicPath,
    IncreasingGeodesic,
    LTable,
    SplitMix64,
    average_degree,
    count_increasing_geodesics,
    enumerate_geodesics_of_length,
    extract_increasing_geodesic,
    greedy_geodesic,
    increasing_geodesic_table,
    induced_subgraph,
    longest_geodesic_lower_bound,
    make_subgraph,
    random_ordering,
)
from cubegeo import geodesics
from cubegeo.core import MAX_DIMENSION, _bits
from cubegeo.harness.generators import InstanceSpec, generate
from cubegeo.rng import derive

from oracles import (
    SplitMix64Referee,
    brute_force_longest_geodesic,
    chain_sweep_table,
    chain_witness,
    count_increasing_paths,
    count_unordered_geodesics,
    edge_list,
    edge_random_graph,
    fisher_yates_ordering,
    greedy_walk,
    increasing_lengths_by_end,
    lengths_from_levels,
    longest_geodesic_length,
    vertex_list,
)


def full_cube(d):
    return induced_subgraph(d, range(1 << d))


def single_edge(dir=0, n=3):
    lo = 0
    return make_subgraph(n, [lo, lo | (1 << dir)], [(lo, dir)])


def bent_path():
    # 00 -dir1- 10 -dir0- 11
    return make_subgraph(2, [0b00, 0b10, 0b11], [(0b00, 1), (0b10, 0)])


def random_induced(n, seed, density=Fraction(1, 2)):
    rng = SplitMix64(derive(seed))
    verts = _bits(rng.bernoulli_mask(density, 1 << n))
    return induced_subgraph(n, verts or [0])


class TestDirectionOrdering:
    def test_identity_and_ranks(self):
        o = DirectionOrdering.identity(4)
        assert o.perm == (0, 1, 2, 3) and o.ranks == (0, 1, 2, 3)
        o = DirectionOrdering((2, 0, 1))
        assert o.ranks == (1, 2, 0)

    def test_rejects_non_permutation(self):
        with pytest.raises(ValueError):
            DirectionOrdering((0, 0, 1))

    def test_table_rejects_mismatched_ordering(self):
        with pytest.raises(ValueError):
            increasing_geodesic_table(full_cube(3), DirectionOrdering((1, 0)))

    def test_random_ordering_is_seeded_permutation(self):
        a = random_ordering(8, SplitMix64(123))
        b = random_ordering(8, SplitMix64(123))
        assert a == b
        assert sorted(a.perm) == list(range(8))
        assert random_ordering(8, SplitMix64(124)) != a

    def test_random_ordering_matches_fisher_yates_reference(self):
        for n in range(1, 13):
            for seed in range(500):
                rng, ref = SplitMix64(seed), SplitMix64Referee(seed)
                assert random_ordering(n, rng).perm == fisher_yates_ordering(n, ref)
                assert (rng.state, rng._buf, rng._bufbits) == (ref.state, ref.buf, ref.bufbits)


class TestGeodesicPath:
    def test_length_is_the_step_count(self):
        p = GeodesicPath((0b00, 0b01, 0b11), (0, 1))
        assert p.length == 2 and GeodesicPath((5,), ()).length == 0

    def test_rejects_repeated_direction(self):
        with pytest.raises(ValueError, match=r"directions \(0, 0\) repeat: not a geodesic"):
            GeodesicPath((0b00, 0b01, 0b00), (0, 0))

    def test_rejects_non_adjacent_step(self):
        with pytest.raises(ValueError, match="step 0->3 is not in direction 0"):
            GeodesicPath((0b00, 0b11), (0,))
        with pytest.raises(ValueError, match="step 0->1 is not in direction 1"):
            GeodesicPath((0b00, 0b01), (1,))

    def test_rejects_bad_shapes(self):
        with pytest.raises(ValueError, match="a path needs at least one vertex"):
            GeodesicPath((), ())
        with pytest.raises(ValueError, match="need exactly one direction per step"):
            GeodesicPath((0b00, 0b01), ())

    def test_equality_is_by_fields(self):
        p = GeodesicPath((0b00, 0b01, 0b11), (0, 1))
        assert p == GeodesicPath((0b00, 0b01, 0b11), (0, 1))
        assert hash(p) == hash(GeodesicPath((0b00, 0b01, 0b11), (0, 1)))
        assert p != GeodesicPath((0b11, 0b01, 0b00), (1, 0))

    def test_increasing_validation(self):
        identity = DirectionOrdering.identity(2)
        IncreasingGeodesic((0b00, 0b01, 0b11), (0, 1), identity)
        with pytest.raises(ValueError, match=r"directions \(1, 0\) are not increasing"):
            IncreasingGeodesic((0b00, 0b10, 0b11), (1, 0), identity)
        # decreasing in identity order but increasing for the ordering
        IncreasingGeodesic((0b00, 0b10, 0b11), (1, 0), DirectionOrdering((1, 0)))


class TestTable:
    def test_single_edge(self):
        t = increasing_geodesic_table(single_edge())
        assert set(lengths_from_levels(t).values()) == {1}
        assert t.total == 2

    def test_full_q2(self):
        g = full_cube(2)
        t = increasing_geodesic_table(g)
        assert lengths_from_levels(t) == {0: 2, 1: 2, 2: 2, 3: 2}
        assert t.total == 8 == 2 * len(edge_list(g))

    def test_bent_path_hand_simulation(self):
        t = increasing_geodesic_table(bent_path())
        assert lengths_from_levels(t) == {0b00: 2, 0b10: 1, 0b11: 1}
        assert t.total == 4 == 2 * 2
        # 10 reaches length 1 at the first step, across 11 (dir 0); the
        # tie with 00 at the second step (dir 1) leaves that witness
        assert extract_increasing_geodesic(t, 0b10).vertices == (0b11, 0b10)
        # the witness for 00 goes through 10's and does not reuse direction 1
        p = extract_increasing_geodesic(t, 0b00)
        assert p.vertices == (0b11, 0b10, 0b00) and p.directions == (0, 1)

    @pytest.mark.parametrize("d", range(1, 7))
    def test_full_cube_equality_case(self, d):
        g = full_cube(d)
        t = increasing_geodesic_table(g)
        assert set(lengths_from_levels(t).values()) == {d}
        assert t.total == d * (1 << d) == 2 * len(edge_list(g))

    def test_matches_oracle_on_small_cubes(self):
        for d in range(1, 5):
            g = full_cube(d)
            assert lengths_from_levels(increasing_geodesic_table(g)) == increasing_lengths_by_end(
                g, DirectionOrdering.identity(d)
            )

    @given(st.integers(0, 10_000), st.integers(0, 3))
    @settings(max_examples=40, deadline=None)
    def test_oracle_equivalence_random(self, seed, ord_seed):
        g = random_induced(5, seed)
        ordering = random_ordering(5, SplitMix64(ord_seed))
        t = increasing_geodesic_table(g, ordering)
        assert lengths_from_levels(t) == increasing_lengths_by_end(g, ordering)

    @given(st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_theorem4_inequality(self, seed):
        g = random_induced(6, seed)
        assert increasing_geodesic_table(g).total >= 2 * len(edge_list(g))


def referee_cases():
    """(graph, ordering) pairs: seeded induced and non-induced random
    graphs at n = 0..8 under random orderings, plus the empty graph,
    isolated vertices, and edges beside isolated vertices."""
    cases = []
    for n in range(9):
        for seed in range(6):
            density = Fraction(1 + seed % 5, 6)
            for kind in ("induced-random", "edge-random"):
                g = generate(InstanceSpec(kind, n=n, density=density, seed=derive(100 * n + seed)))
                cases.append((g, random_ordering(n, SplitMix64(derive(200 * n + seed)))))
    for g in (
        make_subgraph(3, [], []),
        make_subgraph(0, [0], []),
        make_subgraph(4, [1, 6, 11], []),
        make_subgraph(4, [0, 1, 3, 9, 12], [(0, 0), (1, 1), (1, 3)]),
    ):
        cases.append((g, random_ordering(g.n, SplitMix64(g.n))))
    return cases


REFEREE_CASES = referee_cases()
#: cases small enough for the path-enumerating count oracles
COUNT_CASES = [i for i, (g, _) in enumerate(REFEREE_CASES) if g.n <= 6]


class TestTableAgainstReferee:
    """The mask sweep against the edge-by-edge chain sweep it replaced:
    lengths, every witness vertex for vertex, the top vertex and the
    total."""

    @pytest.mark.parametrize("case", range(len(REFEREE_CASES)))
    def test_matches_chain_sweep(self, case):
        g, ordering = REFEREE_CASES[case]
        t = increasing_geodesic_table(g, ordering)
        lengths, chains = chain_sweep_table(g, ordering)
        assert lengths_from_levels(t) == lengths
        for v in vertex_list(g):
            p = extract_increasing_geodesic(t, v)
            assert (p.vertices, p.directions) == chain_witness(chains, v)
        assert t.total == sum(lengths.values()) >= 2 * g.edge_count
        if g.vertex_mask:
            assert t.longest_end == max(vertex_list(g), key=lengths.__getitem__)
            assert longest_geodesic_lower_bound(g, ordering) == extract_increasing_geodesic(
                t, t.longest_end
            )
        else:
            with pytest.raises(ValueError, match="empty graph"):
                t.longest_end

    def test_levels_are_nested_and_trimmed(self):
        for g, ordering in REFEREE_CASES:
            t = increasing_geodesic_table(g, ordering)
            assert len(t.levels) == g.n + 1 and t.levels[0] == (g.vertex_mask,)
            for levels in t.levels:
                assert all(hi & ~lo == 0 for lo, hi in zip(levels, levels[1:]))
                assert levels[-1] or levels == (0,)


class TestCountsAgainstReferee:
    @pytest.mark.parametrize("case", COUNT_CASES)
    def test_both_counts_for_every_length(self, case):
        g, ordering = REFEREE_CASES[case]
        for d in range(1, g.n + 2):
            assert enumerate_geodesics_of_length(g, d) == count_unordered_geodesics(g, d)
            assert count_increasing_geodesics(g, d, ordering) == count_increasing_paths(g, d, ordering)
        assert enumerate_geodesics_of_length(g, g.n + 1) == 0
        assert count_increasing_geodesics(g, g.n + 1, ordering) == 0

    def test_count_rejects_mismatched_ordering(self):
        with pytest.raises(ValueError, match="ordering over 2 directions"):
            count_increasing_geodesics(full_cube(3), 2, DirectionOrdering((1, 0)))


class TestExtraction:
    def test_isolated_vertex_empty_geodesic(self):
        t = increasing_geodesic_table(make_subgraph(3, [5], []))
        p = extract_increasing_geodesic(t, 5)
        assert p.length == 0 and p.vertices == (5,)

    def test_single_edge_higher_endpoint(self):
        g = single_edge(dir=1)
        t = increasing_geodesic_table(g)
        p = extract_increasing_geodesic(t, 0b10)
        assert p.vertices == (0b00, 0b10)

    def test_q2_witnesses_are_increasing(self):
        t = increasing_geodesic_table(full_cube(2))
        for v in range(4):
            p = extract_increasing_geodesic(t, v)
            assert p.length == 2 and p.vertices[-1] == v
            assert list(p.directions) == sorted(p.directions)

    def test_unknown_vertex(self):
        t = increasing_geodesic_table(full_cube(2))
        with pytest.raises(ValueError):
            extract_increasing_geodesic(t, 4)

    def test_inconsistent_table_raises(self):
        t = increasing_geodesic_table(full_cube(2))
        # vertex 3 claims 3 edges after both directions of Q_2: no vertex
        # reached 2 edges after fewer steps, so its witness breaks off
        planted = LTable(t.n, t.ordering, t.lo_masks, (*t.levels[:-1], (*t.levels[-1], 0b1000)))
        with pytest.raises(RuntimeError, match="vertex 3 has no predecessor at length 3 after 2 steps"):
            extract_increasing_geodesic(planted, 3)

    def test_raise_across_a_missing_edge_raises(self):
        t = increasing_geodesic_table(full_cube(2))
        # the levels raise 3 to 2 edges at the second step, across the
        # edge (1, dir 1), which the lo masks no longer hold
        planted = LTable(t.n, t.ordering, (t.lo_masks[0], 0b0001), t.levels)
        with pytest.raises(RuntimeError, match="^vertex 3 has no predecessor"):
            extract_increasing_geodesic(planted, 3)

    def test_raise_from_a_shorter_neighbour_raises(self):
        t = increasing_geodesic_table(full_cube(2))
        # vertex 0 has no edge after the first step, yet the second step
        # raises its neighbour 2 (dir 1) to 2 edges
        planted = LTable(t.n, t.ordering, t.lo_masks, (t.levels[0], (0b1111, 0b1110), t.levels[2]))
        with pytest.raises(RuntimeError, match="^vertex 2 has no predecessor at length 2 after 2 steps$"):
            extract_increasing_geodesic(planted, 2)

    @given(st.integers(0, 10_000), st.integers(0, 5))
    @settings(max_examples=40, deadline=None)
    def test_soundness(self, seed, ord_seed):
        """Every witness is a valid increasing geodesic of the recorded
        length, entirely inside the graph."""
        g = random_induced(5, seed)
        ordering = random_ordering(5, SplitMix64(ord_seed))
        t = increasing_geodesic_table(g, ordering)
        for v in vertex_list(g):
            p = extract_increasing_geodesic(t, v)
            assert p.vertices[-1] == v and p.length == lengths_from_levels(t)[v]
            for u in p.vertices:
                assert g.vertex_mask >> u & 1
            for u, dir in zip(p.vertices, p.directions):
                assert g.lo_masks[dir] >> min(u, u ^ (1 << dir)) & 1
            ranks = [ordering.ranks[d] for d in p.directions]
            assert ranks == sorted(ranks) and len(set(ranks)) == len(ranks)


class TestLongestLowerBound:
    @pytest.mark.parametrize("d", range(1, 6))
    def test_full_cube_tightness(self, d):
        g = full_cube(d)
        assert longest_geodesic_lower_bound(g).length >= d
        assert len(brute_force_longest_geodesic(g)[1]) == d

    def test_single_edge(self):
        assert longest_geodesic_lower_bound(single_edge()).length == 1

    @given(st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_beats_average_degree(self, seed):
        g = random_induced(6, seed)
        assert longest_geodesic_lower_bound(g).length >= ceil(average_degree(g))

    def test_empty_graph(self):
        with pytest.raises(ValueError):
            longest_geodesic_lower_bound(make_subgraph(2, [], []))


class TestGreedy:
    def test_full_q2(self):
        assert greedy_geodesic(full_cube(2)).length >= 1

    @pytest.mark.parametrize("d", range(1, 7))
    def test_full_cube_half_bound(self, d):
        assert greedy_geodesic(full_cube(d)).length >= ceil(Fraction(d, 2))

    @given(st.integers(0, 2_000))
    @settings(max_examples=25, deadline=None)
    def test_random_half_bound(self, seed):
        g = random_induced(8, seed)
        assert greedy_geodesic(g).length >= ceil(average_degree(g) / 2)

    def test_edgeless(self):
        assert greedy_geodesic(make_subgraph(4, [9], [])).length == 0

    @given(
        st.sampled_from(["induced-random", "edge-random"]),
        st.integers(1, 8),
        st.fractions(0, 1, max_denominator=12),
        st.integers(0, 2**32),
    )
    @settings(max_examples=150, deadline=None)
    def test_matches_stack_peeling_referee(self, kind, n, density, seed):
        """The core peeled in rounds on masks is the core the referee
        peels vertex by vertex, and the walk takes the same steps."""
        g = generate(InstanceSpec(kind, n=n, seed=seed, density=density))
        path = greedy_geodesic(g)
        assert (path.vertices, path.directions) == greedy_walk(g)


class TestBruteForce:
    def test_full_q3(self):
        assert len(brute_force_longest_geodesic(full_cube(3))[1]) == 3

    def test_three_edge_path_with_repeated_direction(self):
        # 00 -d0- 01 -d1- 11 -d0- 10: three edges but direction 0 repeats
        g = make_subgraph(2, [0, 1, 3, 2], [(0, 0), (1, 1), (2, 0)])
        assert len(brute_force_longest_geodesic(g)[1]) == 2

    def test_edgeless(self):
        assert len(brute_force_longest_geodesic(make_subgraph(3, [1], []))[1]) == 0

    def test_cap(self):
        g = full_cube(4)
        with pytest.raises(ValueError):
            brute_force_longest_geodesic(g, max_n=3, max_edges=10)
        # within cap by edge count even if n is large
        assert len(brute_force_longest_geodesic(g, max_n=3, max_edges=100)[1]) == 4

    @given(st.integers(0, 10_000))
    @settings(max_examples=30, deadline=None)
    def test_matches_path_enumeration_oracle(self, seed):
        g = random_induced(4, seed)
        assert len(brute_force_longest_geodesic(g)[1]) == longest_geodesic_length(g)


class TestEnumeration:
    def test_q2_equality_case(self):
        assert enumerate_geodesics_of_length(full_cube(2), 2) == 4 == factorial(2) * 4 // 2

    def test_single_edge(self):
        assert enumerate_geodesics_of_length(single_edge(), 1) == 1

    def test_q3(self):
        assert enumerate_geodesics_of_length(full_cube(3), 3) == 24 == factorial(3) * 8 // 2

    def test_rejects_bad_length(self):
        with pytest.raises(ValueError):
            enumerate_geodesics_of_length(full_cube(2), 0)

    @pytest.mark.parametrize("n", [9, 10, 11])
    def test_full_cube_equality_case_above_the_old_cap(self, n):
        assert enumerate_geodesics_of_length(full_cube(n), n) == factorial(n) * 2**n // 2

    def test_cap(self):
        # the widest layer of Q_16 at d = 16: C(16, 9) sets of bit_length(9!) = 19
        # planes of 2^16 bits
        with pytest.raises(ValueError, match=r"^instance \(n=16, \|E\|=524288, d=16\) needs "
                           r"14244904960 layer bits, which exceeds the count cap 8589934592$"):
            enumerate_geodesics_of_length(full_cube(16), 16)

    def test_increasing_count_above_the_old_cap(self):
        # the sweep has no cap: Q_18 at d = 9 holds at most
        # sum(bit_length(C(18, k)) for k <= 9) = 112 planes of 2^18 bits
        assert count_increasing_geodesics(full_cube(18), 9) == comb(18, 9) << 18

    def test_increasing_count_fits_under_the_cap_at_every_length(self):
        # of n <= MAX_DIMENSION directions, at most C(n, k) increasing paths of
        # k edges end at a vertex, and the sweep's counts[k] keeps the width of
        # counts[k - 1] added into it: max(bit_length(C(n, j)) for j <= k) planes
        n = MAX_DIMENSION
        widths = list(accumulate((comb(n, k).bit_length() for k in range(n + 1)), max))
        for d in range(n + 1):
            assert sum(comb(n, k).bit_length() for k in range(d + 1)) << n <= geodesics.COUNT_MAX_BITS
            assert sum(widths[:d + 1]) << n <= geodesics.COUNT_MAX_BITS

    def test_cap_boundary(self, monkeypatch):
        # Q_4 at d = 4: the widest unordered layer is C(4, 2) sets of 2 planes
        # (or C(4, 3) of 3) of 16 bits; only directions with edges count, so a
        # square in Q_4 needs 32 bits; the increasing count has no cap
        g = full_cube(4)
        two_dirs = induced_subgraph(4, [0b0000, 0b0001, 0b0010, 0b0011])
        monkeypatch.setattr(geodesics, "COUNT_MAX_BITS", 192)
        assert enumerate_geodesics_of_length(g, 4) == 192
        monkeypatch.setattr(geodesics, "COUNT_MAX_BITS", 191)
        with pytest.raises(ValueError, match="needs 192 layer bits, which exceeds the count cap 191"):
            enumerate_geodesics_of_length(g, 4)
        assert count_increasing_geodesics(g, 4) == 16
        assert count_increasing_geodesics(full_cube(6), 3) == comb(6, 3) << 6
        monkeypatch.setattr(geodesics, "COUNT_MAX_BITS", 48)
        assert enumerate_geodesics_of_length(two_dirs, 2) == 4
        assert count_increasing_geodesics(two_dirs, 2) == 4

    @given(st.integers(1, 6).flatmap(lambda n: st.tuples(st.just(n), st.permutations(range(n)))),
           st.integers(0, 10_000), st.booleans())
    @settings(max_examples=40, deadline=None)
    def test_matches_path_oracles(self, n_perm, seed, edges):
        n, perm = n_perm
        g = edge_random_graph(n, Fraction(1, 2), seed) if edges else random_induced(n, seed)
        ordering = DirectionOrdering(tuple(perm))
        for d in range(1, n + 2):
            assert enumerate_geodesics_of_length(g, d) == count_unordered_geodesics(g, d)
            assert count_increasing_geodesics(g, d, ordering) == count_increasing_paths(g, d, ordering)


class TestIncreasingCount:
    @given(st.integers(2, 6).flatmap(lambda n: st.tuples(
               st.just(n), st.permutations(range(n)), st.integers(0, (1 << n) - 1), st.integers(0, (1 << n) - 1))),
           st.integers(0, 10_000))
    @example((5, [4, 0, 3, 1, 2], 0b10101, 0b01010), 0)
    @settings(max_examples=60, deadline=None)
    def test_sweep_with_edgeless_directions_between(self, case, seed):
        """Two copies of the subcube spanned by ``live``, differing in every other
        direction, less a random quarter of their edges: under a random
        ordering the directions without edges fall between those with edges,
        so the band of lengths the sweep steps starts and ends mid-sweep."""
        n, perm, live, base = case
        dead = ~live & ((1 << n) - 1)
        g = induced_subgraph(n, [v for v in range(1 << n) if v & dead in (base & dead, ~base & dead)])
        edges = edge_list(g)
        kept = SplitMix64(derive(seed)).bernoulli_mask(Fraction(3, 4), len(edges))
        g = make_subgraph(n, _bits(g.vertex_mask), [e for i, e in enumerate(edges) if kept >> i & 1])
        ordering = DirectionOrdering(tuple(perm))
        for d in range(1, sum(1 for m in g.lo_masks if m) + 2):
            assert count_increasing_geodesics(g, d, ordering) == count_increasing_paths(g, d, ordering)

    def test_q2_identity(self):
        assert count_increasing_geodesics(full_cube(2), 2) == 4

    def test_q2_single_edges_oriented(self):
        # each edge counts once per orientation at d = 1
        assert count_increasing_geodesics(full_cube(2), 1) == 8

    def test_theorem5_bounds_on_cubes(self):
        for d in range(1, 5):
            g = full_cube(d)
            assert enumerate_geodesics_of_length(g, d) == Fraction(
                factorial(d) * len(vertex_list(g)), 2
            )
            for s in range(5):
                ordering = random_ordering(d, SplitMix64(s))
                assert count_increasing_geodesics(g, d, ordering) >= len(vertex_list(g))

    def test_expectation_identity_small(self):
        g = full_cube(3)
        d = 3
        L = enumerate_geodesics_of_length(g, d)
        rng = SplitMix64(derive(2024))
        samples = 2000
        total = sum(
            count_increasing_geodesics(g, d, random_ordering(3, rng))
            for _ in range(samples)
        )
        expected = Fraction(2 * L, factorial(d))
        assert abs(Fraction(total, samples) - expected) <= Fraction(expected) * Fraction(1, 20)
