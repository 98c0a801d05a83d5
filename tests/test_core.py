import re
from fractions import Fraction
from math import ceil

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cubegeo
import cubegeo.core
from cubegeo import (
    antipode,
    average_degree,
    induced_subgraph,
    make_subgraph,
    max_hamming_pair,
)
from cubegeo.core import MAX_DIMENSION, _bits, _lo_pattern
from cubegeo.rng import SplitMix64, derive

from oracles import edge_list, induced_edge_pairs, lex_first_farthest_pair, max_pairwise_distance, vertex_list


def square_edges():
    return [(0b00, 0), (0b00, 1), (0b01, 1), (0b10, 0)]


def _edge(u, v):
    """The (lo, dir) pair of the edge between adjacent u and v."""
    return min(u, v), (u ^ v).bit_length() - 1


def test_edges_are_lo_dir_pairs_with_no_edge_type():
    assert not hasattr(cubegeo, "Edge") and not hasattr(cubegeo.core, "Edge")
    g = induced_subgraph(3, [0, 1, 3, 7])
    assert g.edges == tuple(edge_list(g)) == ((0, 0), (1, 1), (3, 2))


class TestMakeSubgraph:
    def test_full_square(self):
        g = make_subgraph(2, [0, 1, 2, 3], square_edges())
        assert len(edge_list(g)) == 4
        assert vertex_list(g) == [0, 1, 2, 3]

    def test_isolated_vertex(self):
        g = make_subgraph(3, [0], [])
        assert vertex_list(g) == [0] and edge_list(g) == []

    def test_no_edge_joins_vertices_at_distance_2(self):
        for dir in range(2):
            with pytest.raises(ValueError, match="has an endpoint outside"):
                make_subgraph(2, [0b00, 0b11], [(0b00, dir)])

    def test_rejects_vertex_overflow(self):
        with pytest.raises(ValueError):
            make_subgraph(2, [4], [])
        with pytest.raises(ValueError):
            make_subgraph(MAX_DIMENSION + 1, [0], [])

    def test_rejects_missing_endpoint(self):
        with pytest.raises(ValueError):
            make_subgraph(2, [0, 1], [_edge(1, 3)])

    def test_accepts_tuples_and_lists_and_dedupes(self):
        g = make_subgraph(2, [0, 1], [(0, 0), [0, 0], _edge(1, 0)])
        assert edge_list(g) == [(0, 0)]

    def test_a_tuple_and_a_list_are_the_same_lo_dir_pair(self):
        one = [make_subgraph(3, [0, 1, 2, 3], [e]) for e in ((0, 1), [0, 1])]
        assert one[0] == one[1] and edge_list(one[0]) == [(0, 1)]
        mixed = make_subgraph(3, [0, 1, 2, 3], [[0, 1], (1, 1), [1, 1], (0, 1)])
        assert edge_list(mixed) == [(0, 1), (1, 1)]

    @pytest.mark.parametrize("item", [(0,), (0, 1, 0), [], [0, 0, 1]])
    def test_rejects_an_item_that_is_not_a_pair(self, item):
        with pytest.raises(ValueError, match=r"is not a \(lo, dir\) pair"):
            make_subgraph(2, [0, 1, 2, 3], [(0, 0), item, (5, 9)])

    @pytest.mark.parametrize("item", [(0.5, 0), (0, 1.0), (True, 0), (0, False), ("0", 0), "01", (None, 0), [0, None],
                                      None, 3, {0: 0, 1: 0}, b"\x00\x00", range(2)])
    def test_refuses_a_pair_that_is_not_of_ints_naming_it(self, item):
        with pytest.raises(TypeError, match=f"^edge {re.escape(repr(item))} is not a pair of ints$"):
            make_subgraph(2, [0, 1, 2, 3], [(0, 0), [1, 1], item, (0.25, 0)])

    @pytest.mark.parametrize("build", [make_subgraph, lambda n, vs, _: induced_subgraph(n, vs)],
                             ids=["make_subgraph", "induced_subgraph"])
    @pytest.mark.parametrize("vertex", [True, 0.5, "1"])
    def test_refuses_a_vertex_that_is_not_an_int_naming_it(self, build, vertex):
        """Before any range is checked, and first in the given order."""
        with pytest.raises(TypeError, match=f"^vertex {re.escape(repr(vertex))} is not an int$"):
            build(2, [0, 5, vertex, 0.25], [])

    @pytest.mark.parametrize("build", [lambda n: make_subgraph(n, [0, 1], [(0, 0)]),
                                       lambda n: induced_subgraph(n, [0, 1]), lambda n: induced_subgraph(n, 3)],
                             ids=["make_subgraph", "induced_subgraph", "induced_subgraph_mask"])
    @pytest.mark.parametrize("n", [True, False, 2.0, 0.5, Fraction(2), "2", None])
    def test_refuses_a_dimension_that_is_not_an_int_naming_it(self, build, n):
        with pytest.raises(TypeError, match=f"^dimension {re.escape(repr(n))} is not an int$"):
            build(n)

    def test_names_the_first_bad_edge_as_a_lo_dir_pair(self):
        with pytest.raises(ValueError, match=r"^edge \(1, 0\) is not canonical"):
            make_subgraph(2, [0, 1], [(0, 0), [1, 0], (0, 1)])
        with pytest.raises(ValueError, match=r"^edge \(0, 1\) has an endpoint outside"):
            make_subgraph(2, [0, 1], [[0, 1], (0, 0)])

    def test_rejects_non_canonical_edge(self):
        with pytest.raises(ValueError):
            make_subgraph(2, [0, 1], [(1, 0)])

    @pytest.mark.parametrize("edge, message", [
        ((0, -1), "edge direction -1 out of range for Q_2"),
        ((0, 2), "edge direction 2 out of range for Q_2"),
        ((4, 0), "vertex 5 out of range"),
        ((-2, 0), "vertex -1 out of range"),
    ])
    def test_rejects_a_pair_that_is_no_edge_of_the_cube(self, edge, message):
        with pytest.raises(ValueError, match=f"^{message}"):
            make_subgraph(2, [0, 1, 2, 3], [(0, 0), edge])

    def test_structural_equality(self):
        g1 = make_subgraph(2, [3, 0, 1, 2], reversed(square_edges()))
        g2 = make_subgraph(2, [0, 1, 2, 3], square_edges())
        assert g1 == g2


class TestInducedSubgraph:
    @pytest.mark.parametrize("mask", [True, False, 0.5, 1.0, Fraction(3), None])
    def test_refuses_a_mask_that_is_not_an_int_naming_it(self, mask):
        """A bool would pass for a mask; a float, a fraction or None is no vertex list either."""
        with pytest.raises(TypeError, match=f"^vertex mask {re.escape(repr(mask))} is not an int$"):
            induced_subgraph(2, mask)

    @pytest.mark.parametrize("n", range(10))
    def test_lo_pattern_marks_the_vertices_with_bit_dir_clear(self, n):
        for dir in range(n):
            assert _lo_pattern(n, dir) == sum(1 << v for v in range(1 << n) if not v >> dir & 1)

    def test_full_square(self):
        assert len(edge_list(induced_subgraph(2, [0, 1, 2, 3]))) == 4

    def test_even_weight_layer_has_no_edges(self):
        g = induced_subgraph(3, [0b000, 0b011, 0b101, 0b110])
        assert edge_list(g) == []

    def test_face_matches_pair_enumeration(self):
        verts = [0b000, 0b001, 0b010, 0b011]
        g = induced_subgraph(3, verts)
        assert len(edge_list(g)) == len(induced_edge_pairs(3, verts)) == 4

    @pytest.mark.parametrize("n", range(9))
    def test_matches_oracle_and_make_subgraph(self, n):
        for seed in range(12):
            rng = SplitMix64(derive(seed, n))
            verts = _bits(rng.bernoulli_mask(Fraction(seed % 4, 3 + seed % 2), 1 << n))
            pairs = induced_edge_pairs(n, verts)
            g = induced_subgraph(n, verts)
            assert vertex_list(g) == sorted(verts)
            assert edge_list(g) == sorted(_edge(u, v) for u, v in pairs)
            assert g.edge_count == len(pairs)
            assert len(g) == len(verts)
            _assert_same_subgraph(g, induced_subgraph(n, sum(1 << v for v in verts)))
            _assert_same_subgraph(g, make_subgraph(n, reversed(verts), [_edge(u, v) for u, v in pairs]))

    def test_vertex_mask_range(self):
        assert vertex_list(induced_subgraph(2, 0b1011)) == [0, 1, 3]
        with pytest.raises(ValueError, match="outside the 4 vertices of Q_2"):
            induced_subgraph(2, 1 << 4)
        with pytest.raises(ValueError, match="vertex 4 out of range"):
            induced_subgraph(2, [5, 0, 4])
        with pytest.raises(ValueError, match="vertex -1 out of range"):
            induced_subgraph(2, [5, -1])

    def test_sparse_high_dimension(self):
        g = induced_subgraph(20, [0, 1, 1 << 19, (1 << 19) | 2, (1 << 19) | 3])
        assert edge_list(g) == [(0, 0), (0, 19), (1 << 19, 1), (2 | 1 << 19, 0)]

    @given(st.sets(st.integers(0, 31)), st.sets(st.integers(0, 31)))
    @settings(max_examples=60)
    def test_monotone_and_matches_oracle(self, a, b):
        small = induced_subgraph(5, a)
        big = induced_subgraph(5, a | b)
        assert set(edge_list(small)) <= set(edge_list(big))
        assert edge_list(small) == sorted(_edge(u, v) for u, v in induced_edge_pairs(5, a))


def _assert_same_subgraph(g, h):
    """Equal, equally hashed, and equal in every referee list and count."""
    assert g == h and hash(g) == hash(h)
    assert vertex_list(g) == vertex_list(h) and edge_list(g) == edge_list(h)
    assert len(g) == len(h) and g.edge_count == h.edge_count


class TestAverageDegree:
    def test_full_cube(self):
        assert average_degree(induced_subgraph(3, range(8))) == 3

    def test_single_edge(self):
        assert average_degree(make_subgraph(1, [0, 1], [(0, 0)])) == 1

    def test_three_vertex_path_is_exact_rational(self):
        g = make_subgraph(2, [0, 1, 3], [(0, 0), (1, 1)])
        assert average_degree(g) == Fraction(4, 3)

    def test_empty_errors(self):
        with pytest.raises(ValueError):
            average_degree(make_subgraph(2, [], []))


class TestHamming:
    def test_antipode_examples(self):
        assert antipode(0b010, 3) == 0b101
        assert antipode(0, 1) == 1
        assert antipode(0b1111, 4) == 0b0000

    @given(st.integers(0, 255))
    def test_antipode_involution(self, x):
        assert antipode(antipode(x, 8), 8) == x
        assert (x ^ antipode(x, 8)).bit_count() == 8

    def test_antipode_range_check(self):
        with pytest.raises(ValueError):
            antipode(8, 3)


def _hamming_ball(n, centre, radius):
    return [v for v in range(1 << n) if bin(v ^ centre).count("1") <= radius]


class TestMaxHammingPair:
    def test_full_cube(self):
        for d in range(1, 5):
            assert max_hamming_pair(induced_subgraph(d, range(1 << d)))[2] == d

    def test_singleton(self):
        assert max_hamming_pair(make_subgraph(3, [5], []))[2] == 0

    def test_three_singletons(self):
        g = make_subgraph(3, [0b000, 0b001, 0b010], [])
        assert max_hamming_pair(g) == (0b001, 0b010, 2)

    def test_empty_errors(self):
        with pytest.raises(ValueError):
            max_hamming_pair(make_subgraph(2, [], []))

    @given(st.data())
    @settings(max_examples=200)
    def test_is_the_oracles_lex_first_farthest_pair(self, data):
        n = data.draw(st.integers(0, 7))
        verts = data.draw(st.sets(st.integers(0, (1 << n) - 1), min_size=1))
        assert max_hamming_pair(induced_subgraph(n, verts)) == lex_first_farthest_pair(verts)

    @pytest.mark.parametrize("n, verts", [
        *((6, _hamming_ball(6, centre, radius)) for centre in (0, 0b101101, 63) for radius in (0, 1, 2)),
        (7, _hamming_ball(7, 0b0011010, 3)),
        (6, [0b100000 | v for v in range(8)]),  # a 3-subcube
        (6, [v | 1 for v in range(0, 64, 6)]),  # bit 0 fixed
        *((4, [v]) for v in (0, 6, 15)),
        (0, [0]),
    ])
    def test_fixed_cases_below_n_match_the_oracle(self, n, verts):
        x, y, dist = max_hamming_pair(induced_subgraph(n, verts))
        assert (x, y, dist) == lex_first_farthest_pair(verts)
        assert dist < n or n == 0

    def test_full_cube_at_14(self):
        assert max_hamming_pair(induced_subgraph(14, (1 << (1 << 14)) - 1)) == (0, (1 << 14) - 1, 14)

    @given(st.sets(st.integers(0, 63), min_size=1))
    @settings(max_examples=60)
    def test_matches_oracle_and_beats_average_degree(self, verts):
        g = induced_subgraph(6, verts)
        x, y, dist = max_hamming_pair(g)
        assert dist == max_pairwise_distance(verts)
        assert (x ^ y).bit_count() == dist
        assert dist >= ceil(average_degree(g))


class TestInvariants:
    @given(st.sets(st.integers(0, 63)))
    @settings(max_examples=60)
    def test_degree_sum_is_twice_edges(self, verts):
        g = induced_subgraph(6, verts)
        degree_sum = sum((v ^ (1 << d)) in verts for v in verts for d in range(6))
        assert degree_sum == 2 * g.edge_count == 2 * len(edge_list(g))

    def test_every_edge_has_unit_distance(self):
        g = induced_subgraph(4, range(16))
        assert [(lo, lo ^ (1 << dir)) for lo, dir in edge_list(g)] == induced_edge_pairs(4, range(16))
