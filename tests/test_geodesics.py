from fractions import Fraction
from math import ceil, factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cubegeo import (
    DirectionOrdering,
    GeodesicPath,
    IncreasingGeodesic,
    LTable,
    SplitMix64,
    average_degree,
    brute_force_increasing_lengths,
    brute_force_longest_geodesic,
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
from cubegeo.harness.generators import InstanceSpec, generate
from cubegeo.rng import derive

from oracles import (
    all_geodesic_vertex_sequences,
    chain_sweep_table,
    chain_witness,
    count_increasing_paths,
    count_unordered_geodesics,
    fisher_yates_ordering,
    increasing_lengths_by_end,
    longest_geodesic_length,
)


def full_cube(d):
    return induced_subgraph(d, range(1 << d))


def single_edge(dir=0, n=3):
    lo = 0
    return make_subgraph(n, [lo, lo | (1 << dir)], [(lo, lo | (1 << dir))])


def bent_path():
    # 00 -dir1- 10 -dir0- 11
    return make_subgraph(2, [0b00, 0b10, 0b11], [(0b00, 0b10), (0b10, 0b11)])


def random_induced(n, seed, density=Fraction(1, 2)):
    rng = SplitMix64(derive(seed))
    verts = [v for v in range(1 << n) if rng.bernoulli(density)]
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
                rng, ref = SplitMix64(seed), SplitMix64(seed)
                assert random_ordering(n, rng).perm == fisher_yates_ordering(n, ref)
                assert (rng.state, rng._buf, rng._bufbits) == (ref.state, ref._buf, ref._bufbits)


class TestGeodesicPath:
    def test_derives_directions(self):
        p = GeodesicPath([0b00, 0b01, 0b11])
        assert p.directions == (0, 1) and p.length == 2

    def test_rejects_repeated_direction(self):
        with pytest.raises(ValueError):
            GeodesicPath([0b00, 0b01, 0b00])

    def test_rejects_non_adjacent_step(self):
        with pytest.raises(ValueError):
            GeodesicPath([0b00, 0b11])
        with pytest.raises(ValueError):
            GeodesicPath([0b00, 0b01], [1])

    def test_reversal_is_same_geodesic(self):
        p = GeodesicPath([0b00, 0b01, 0b11])
        assert p == p.reversed()
        assert hash(p) == hash(p.reversed())
        assert p.canonical().start <= p.canonical().end

    def test_increasing_validation(self):
        IncreasingGeodesic([0b00, 0b01, 0b11])
        with pytest.raises(ValueError):
            IncreasingGeodesic([0b00, 0b10, 0b11])
        # decreasing in identity order but increasing for the ordering
        IncreasingGeodesic([0b00, 0b10, 0b11], ordering=DirectionOrdering((1, 0)))


class TestTable:
    def test_single_edge(self):
        t = increasing_geodesic_table(single_edge())
        assert set(t.lengths.values()) == {1}
        assert t.total == 2

    def test_full_q2(self):
        g = full_cube(2)
        t = increasing_geodesic_table(g)
        assert t.lengths == {0: 2, 1: 2, 2: 2, 3: 2}
        assert t.total == 8 == 2 * len(g.edges)

    def test_bent_path_hand_simulation(self):
        t = increasing_geodesic_table(bent_path())
        assert t.lengths == {0b00: 2, 0b10: 1, 0b11: 1}
        assert t.total == 4 == 2 * 2
        # ties break toward the smaller predecessor: 10 is reachable at
        # length 1 from both 11 (dir 0) and 00 (dir 1); 00 wins
        assert t.pred[0b10] == (0b00, 1)
        assert t.pred[0b00] == (0b10, 1)
        # the recorded witness for 00 predates the tie replacement and
        # must not reuse direction 1
        p = extract_increasing_geodesic(t, 0b00)
        assert p.vertices == (0b11, 0b10, 0b00) and p.directions == (0, 1)

    @pytest.mark.parametrize("d", range(1, 7))
    def test_full_cube_equality_case(self, d):
        g = full_cube(d)
        t = increasing_geodesic_table(g)
        assert set(t.lengths.values()) == {d}
        assert t.total == d * (1 << d) == 2 * len(g.edges)

    def test_matches_oracle_on_small_cubes(self):
        for d in range(1, 5):
            g = full_cube(d)
            assert increasing_geodesic_table(g).lengths == increasing_lengths_by_end(
                g, DirectionOrdering.identity(d)
            )

    @given(st.integers(0, 10_000), st.integers(0, 3))
    @settings(max_examples=40, deadline=None)
    def test_oracle_equivalence_random(self, seed, ord_seed):
        g = random_induced(5, seed)
        ordering = random_ordering(5, SplitMix64(ord_seed))
        t = increasing_geodesic_table(g, ordering)
        assert t.lengths == increasing_lengths_by_end(g, ordering)

    @given(st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_theorem4_inequality(self, seed):
        g = random_induced(6, seed)
        assert increasing_geodesic_table(g).total >= 2 * len(g.edges)

    def test_pred_is_first_step_of_witness(self):
        g = random_induced(5, 99)
        t = increasing_geodesic_table(g)
        for v in g.vertices:
            path = extract_increasing_geodesic(t, v)
            if t.lengths[v] == 0:
                assert t.pred[v] is None
            else:
                assert t.pred[v] == (path.vertices[-2], path.directions[-1])


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
        make_subgraph(4, [0, 1, 3, 9, 12], [(0, 1), (1, 3), (1, 9)]),
    ):
        cases.append((g, random_ordering(g.n, SplitMix64(g.n))))
    return cases


REFEREE_CASES = referee_cases()
#: cases small enough for the path-enumerating count oracles
COUNT_CASES = [i for i, (g, _) in enumerate(REFEREE_CASES) if g.n <= 6]


class TestTableAgainstReferee:
    """The mask sweep against the edge-by-edge chain sweep it replaced:
    lengths, the last edge of each witness, every witness vertex for
    vertex, the top vertex and the total."""

    @pytest.mark.parametrize("case", range(len(REFEREE_CASES)))
    def test_matches_chain_sweep(self, case):
        g, ordering = REFEREE_CASES[case]
        t = increasing_geodesic_table(g, ordering)
        lengths, chains = chain_sweep_table(g, ordering)
        assert t.lengths == lengths and list(t.lengths) == list(g.vertices)
        assert t.pred == {v: c[:2] if c else None for v, c in chains.items()}
        for v in g.vertices:
            p = extract_increasing_geodesic(t, v)
            assert (p.vertices, p.directions) == chain_witness(chains, v)
        assert t.total == sum(lengths.values()) >= 2 * g.edge_count
        if g.vertex_mask:
            assert t.longest_end == max(g.vertices, key=lengths.__getitem__)
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
    @pytest.mark.parametrize("case", COUNT_CASES[::3])
    def test_both_counts_for_every_length(self, case):
        g, ordering = REFEREE_CASES[case]
        for d in range(1, g.n + 2):
            assert enumerate_geodesics_of_length(g, d) == count_unordered_geodesics(g, d)
            assert count_increasing_geodesics(g, d, ordering) == count_increasing_paths(g, d, ordering)
        assert enumerate_geodesics_of_length(g, g.n + 1) == 0
        assert count_increasing_geodesics(g, g.n + 1, ordering) == 0

    @pytest.mark.parametrize("case", COUNT_CASES[1::4])
    def test_witnesses_are_the_canonical_paths(self, case):
        g, _ = REFEREE_CASES[case]
        sequences = all_geodesic_vertex_sequences(g)
        for d in range(1, g.n + 2):
            count, paths = enumerate_geodesics_of_length(g, d, witnesses=True)
            expected = sorted({s if s[0] <= s[-1] else s[::-1] for s in sequences if len(s) == d + 1})
            assert count == len(expected)
            assert [p.canonical().vertices for p in paths] == expected

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
            assert p.length == 2 and p.end == v
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

    @given(st.integers(0, 10_000), st.integers(0, 5))
    @settings(max_examples=40, deadline=None)
    def test_soundness(self, seed, ord_seed):
        """Every witness is a valid increasing geodesic of the recorded
        length, entirely inside the graph."""
        g = random_induced(5, seed)
        ordering = random_ordering(5, SplitMix64(ord_seed))
        t = increasing_geodesic_table(g, ordering)
        for v in g.vertices:
            p = extract_increasing_geodesic(t, v)
            assert p.end == v and p.length == t.lengths[v]
            for u, w in zip(p.vertices, p.vertices[1:]):
                assert u in g.vertex_set and w in g.vertex_set
                from cubegeo import Edge

                assert Edge.between(u, w) in g.edge_set
            ranks = [ordering.ranks[d] for d in p.directions]
            assert ranks == sorted(ranks) and len(set(ranks)) == len(ranks)


class TestLongestLowerBound:
    @pytest.mark.parametrize("d", range(1, 6))
    def test_full_cube_tightness(self, d):
        g = full_cube(d)
        assert longest_geodesic_lower_bound(g).length >= d
        assert brute_force_longest_geodesic(g).length == d

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


class TestBruteForce:
    def test_full_q3(self):
        assert brute_force_longest_geodesic(full_cube(3)).length == 3

    def test_three_edge_path_with_repeated_direction(self):
        # 00 -d0- 01 -d1- 11 -d0- 10: three edges but direction 0 repeats
        g = make_subgraph(2, [0, 1, 3, 2], [(0, 1), (1, 3), (3, 2)])
        assert brute_force_longest_geodesic(g).length == 2

    def test_edgeless(self):
        assert brute_force_longest_geodesic(make_subgraph(3, [1], [])).length == 0

    def test_cap(self):
        g = full_cube(4)
        with pytest.raises(ValueError):
            brute_force_longest_geodesic(g, max_n=3, max_edges=10)
        # within cap by edge count even if n is large
        assert brute_force_longest_geodesic(g, max_n=3, max_edges=100).length == 4

    @given(st.integers(0, 10_000))
    @settings(max_examples=30, deadline=None)
    def test_matches_path_enumeration_oracle(self, seed):
        g = random_induced(4, seed)
        assert brute_force_longest_geodesic(g).length == longest_geodesic_length(g)


class TestEnumeration:
    def test_q2_equality_case(self):
        assert enumerate_geodesics_of_length(full_cube(2), 2) == 4 == factorial(2) * 4 // 2

    def test_single_edge(self):
        assert enumerate_geodesics_of_length(single_edge(), 1) == 1

    def test_q3(self):
        assert enumerate_geodesics_of_length(full_cube(3), 3) == 24 == factorial(3) * 8 // 2

    def test_witnesses_match_count(self):
        count, paths = enumerate_geodesics_of_length(full_cube(3), 2, witnesses=True)
        assert len(paths) == count == len(set(paths))
        assert all(p.length == 2 for p in paths)

    def test_rejects_bad_length(self):
        with pytest.raises(ValueError):
            enumerate_geodesics_of_length(full_cube(2), 0)

    @given(st.integers(0, 10_000), st.integers(1, 3))
    @settings(max_examples=30, deadline=None)
    def test_matches_unordered_oracle(self, seed, d):
        g = random_induced(4, seed)
        assert enumerate_geodesics_of_length(g, d) == count_unordered_geodesics(g, d)


class TestIncreasingCount:
    def test_q2_identity(self):
        assert count_increasing_geodesics(full_cube(2), 2) == 4

    def test_q2_single_edges_oriented(self):
        # each edge counts once per orientation at d = 1
        assert count_increasing_geodesics(full_cube(2), 1) == 8

    def test_theorem5_bounds_on_cubes(self):
        for d in range(1, 5):
            g = full_cube(d)
            assert enumerate_geodesics_of_length(g, d) == Fraction(
                factorial(d) * len(g.vertices), 2
            )
            for s in range(5):
                ordering = random_ordering(d, SplitMix64(s))
                assert count_increasing_geodesics(g, d, ordering) >= len(g.vertices)

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
