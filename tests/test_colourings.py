import os
import pickle
import re
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cubegeo import (
    AntipodalWitness,
    DirectionOrdering,
    EdgeColouring,
    antipode,
    derive_A_from_B,
    derive_B_from_A,
    find_monochromatic_antipodal_geodesic,
    find_monochromatic_antipodal_path,
    find_one_change_antipodal_geodesic,
    is_antipodal,
    lift_to_antipodal,
    make_subgraph,
    min_colour_changes_antipodal,
    monochromatic_half_geodesic,
    random_antipodal_colouring,
    random_colouring,
    validate_witness,
)
from cubegeo import colourings
from cubegeo.colourings import (
    INDEX_MAX_BITS,
    _antipodal_search,
    _colour_lomasks,
    antipodal_colouring_from_index,
    antipodal_pair_count,
    colouring_from_index,
    edge_count,
)
from cubegeo.harness import ParseError, colouring_to_obj, obj_to_colouring
from cubegeo.harness.search import _sweep

from cubegeo.rng import SplitMix64, derive

from oracles import (
    antipodal_colouring_blue_edges,
    blue_edges,
    colour_changes,
    colour_of,
    colouring_blue_edges,
    colouring_from_pairs,
    colouring_pairs,
    constant_colouring,
    direction_split,
    has_mono_antipodal_geodesic,
    has_mono_antipodal_path,
    has_one_change_antipodal_geodesic,
    increasing_lengths_by_end,
    is_antipodal_pairwise,
    is_monochromatic,
    lift_edge_by_edge,
    min_changes_geodesics,
    min_changes_simple_paths,
    path_edge_positions,
    step_directions,
)

RED, BLUE = "red", "blue"


def all_red(n):
    return constant_colouring(n, RED)


class TestEdgeColouring:
    def test_total_edge_count(self):
        for n in (1, 2, 3, 4):
            assert len(colouring_to_obj(all_red(n))["pairs"]) == edge_count(n) == n * (1 << (n - 1))

    @pytest.mark.parametrize("build, message", [
        (lambda: EdgeColouring(True, 1), "colouring dimension True is not an int"),
        (lambda: EdgeColouring(2.0, 1), "colouring dimension 2.0 is not an int"),
        (lambda: EdgeColouring(2, True), "blue_mask True is not an int"),
        (lambda: EdgeColouring(2, 1.0), "blue_mask 1.0 is not an int"),
        (lambda: EdgeColouring(2, None), "blue_mask None is not an int"),
        (lambda: random_colouring(True, 0), "colouring dimension True is not an int"),
        (lambda: random_antipodal_colouring(3.0, 0), "colouring dimension 3.0 is not an int"),
        (lambda: colouring_from_index(2.0, 0), "colouring dimension 2.0 is not an int"),
        (lambda: colouring_from_index(True, 0), "colouring dimension True is not an int"),
        (lambda: antipodal_colouring_from_index(2.0, 0), "colouring dimension 2.0 is not an int"),
    ])
    def test_a_dimension_or_mask_that_is_not_an_int_is_refused_naming_it(self, build, message):
        """Also after the int it equals has filled the builders' caches."""
        for n in (1, 2, 3):
            colouring_from_index(n, 0)
            random_antipodal_colouring(n + 1, 0)
            antipodal_colouring_from_index(n + 1, 0)
        with pytest.raises(TypeError, match=f"^{re.escape(message)}$"):
            build()

    def test_file_object_roundtrip(self):
        c = random_colouring(3, 5)
        assert obj_to_colouring(colouring_to_obj(c)) == c

    def test_file_object_requires_totality(self):
        obj = colouring_to_obj(all_red(2))
        del obj["pairs"][-1]
        with pytest.raises(ParseError, match="^invalid colouring: colouring does not cover every edge of the cube$"):
            obj_to_colouring(obj)

    def test_file_object_rejects_duplicates(self):
        obj = colouring_to_obj(all_red(2))
        obj["pairs"].append(list(obj["pairs"][0]))
        with pytest.raises(ParseError, match=r"^invalid colouring: edge \(0, 0\) coloured twice$"):
            obj_to_colouring(obj)


class TestIsAntipodal:
    def test_constructed_antipodal(self):
        assert is_antipodal(random_antipodal_colouring(2, 0))

    def test_all_red_is_not(self):
        assert not is_antipodal(all_red(3))

    def test_direction_split_is_not(self):
        assert not is_antipodal(direction_split(3))

    def test_n1_always_false(self):
        assert not is_antipodal(EdgeColouring(1, 0))
        assert not is_antipodal(EdgeColouring(1, 1))


class TestRandomColourings:
    def test_antipodal_by_construction_and_seeded(self):
        for seed in range(10):
            c = random_antipodal_colouring(4, seed)
            assert is_antipodal(c)
        assert random_antipodal_colouring(4, 3) == random_antipodal_colouring(4, 3)
        assert random_antipodal_colouring(4, 3) != random_antipodal_colouring(4, 4)

    def test_pair_count_n3(self):
        assert antipodal_pair_count(3) == 6
        seen = {antipodal_colouring_from_index(3, i) for i in range(64)}
        assert len(seen) == 64
        assert all(is_antipodal(c) for c in seen)

    def test_requires_n2(self):
        with pytest.raises(ValueError):
            random_antipodal_colouring(1, 0)

    def test_general_seeded(self):
        assert random_colouring(5, 9) == random_colouring(5, 9)
        assert random_colouring(5, 9) != random_colouring(5, 10)

    def test_dimension_checked_before_building_tables(self):
        # n = 17 would otherwise build tables for a million edges first
        for make in (antipodal_colouring_from_index, colouring_from_index, random_antipodal_colouring):
            with pytest.raises(ValueError, match="colouring dimension 17 outside 1..16"):
                make(17, 0)

    def test_index_enumeration_bounds(self):
        with pytest.raises(ValueError):
            antipodal_colouring_from_index(3, 64)
        with pytest.raises(ValueError):
            colouring_from_index(2, 16)


#: kind -> (index builder, reference, index bits at n, dimensions drawn,
#: dimensions that must raise)
_INDEX_BUILDERS = {
    "antipodal": (antipodal_colouring_from_index, antipodal_colouring_blue_edges,
                  antipodal_pair_count, range(2, 6), [-1, 0, 1, 6, 17]),
    "general": (colouring_from_index, colouring_blue_edges, edge_count, range(1, 5), [-1, 0, 5, 17]),
}


def _sampled_indices(count, bits, seed):
    rng = SplitMix64(seed)
    return [rng.bits(bits) for _ in range(count)]


class TestGenerationAgainstReference:
    @pytest.mark.parametrize("n", [2, 3])
    def test_every_antipodal_index(self, n):
        for i in range(1 << antipodal_pair_count(n)):
            assert blue_edges(antipodal_colouring_from_index(n, i)) == antipodal_colouring_blue_edges(n, i)

    def test_sampled_antipodal_indices_n4_n5(self):
        for n in (4, 5):
            for i in _sampled_indices(200, antipodal_pair_count(n), seed=n):
                assert blue_edges(antipodal_colouring_from_index(n, i)) == antipodal_colouring_blue_edges(n, i)

    def test_every_general_index_n3(self):
        for i in range(1 << edge_count(3)):
            assert blue_edges(colouring_from_index(3, i)) == colouring_blue_edges(3, i)

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_any_call_order_gives_the_reference(self, data):
        # The builders are pure functions of (n, index): any order of
        # calls, failing ones between them included, gives the reference
        # colouring every time.
        last = {}
        for _ in range(data.draw(st.integers(1, 30), label="calls")):
            kind = data.draw(st.sampled_from(sorted(_INDEX_BUILDERS)), label="builder")
            build, reference, bits, dims, bad_dims = _INDEX_BUILDERS[kind]
            action = data.draw(st.sampled_from(["build"] * 4 + ["bad index", "bad n"]), label="action")
            if action == "bad n":
                with pytest.raises(ValueError):
                    build(data.draw(st.sampled_from(bad_dims), label="n"), 0)
                continue
            n = data.draw(st.sampled_from(dims), label="n")
            space = 1 << bits(n)
            if action == "bad index":
                index = data.draw(st.one_of(st.integers(space, 2 * space), st.integers(-space, -1)),
                                  label="index")
                with pytest.raises(ValueError, match="out of range"):
                    build(n, index)
                continue
            before = last.get((kind, n), 0)
            index = data.draw(st.one_of(
                st.just(before),  # repeat
                st.integers(max(0, before - 3), min(space - 1, before + 3)),  # step either way
                st.integers(0, space - 1),  # jump
            ), label="index")
            last[kind, n] = index
            assert blue_edges(build(n, index)) == reference(n, index)

    @pytest.mark.parametrize("build, n, index, message", [
        (antipodal_colouring_from_index, -1, 0, "antipodal colourings need n >= 2"),
        (antipodal_colouring_from_index, 0, 0, "antipodal colourings need n >= 2"),
        (antipodal_colouring_from_index, 1, 0, "antipodal colourings need n >= 2"),
        (antipodal_colouring_from_index, 17, 0, "colouring dimension 17 outside 1..16"),
        (antipodal_colouring_from_index, 3, -1, "index -1 out of range for 6 antipodal pairs"),
        (antipodal_colouring_from_index, 3, 1 << 6, "index 64 out of range for 6 antipodal pairs"),
        (antipodal_colouring_from_index, 6, 0, f"96 index bits at n=6 exceed the cap of {INDEX_MAX_BITS}"),
        (colouring_from_index, -1, 0, "colouring dimension -1 outside 1..16"),
        (colouring_from_index, 0, 0, "colouring dimension 0 outside 1..16"),
        (colouring_from_index, 17, 0, "colouring dimension 17 outside 1..16"),
        (colouring_from_index, 1, -1, "index -1 out of range for 1 edges"),
        (colouring_from_index, 1, 2, "index 2 out of range for 1 edges"),
        (colouring_from_index, 3, 1 << 12, "index 4096 out of range for 12 edges"),
        (colouring_from_index, 5, 0, f"80 index bits at n=5 exceed the cap of {INDEX_MAX_BITS}"),
    ])
    def test_error_messages(self, build, n, index, message):
        # antipodal checks n >= 2 before the dimension, both before the width
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            build(n, index)

    def test_wide_space_raises_before_building_anything(self):
        # at n = 16 the flips alone would take gigabytes; under a 1 GiB
        # address-space limit both builders must refuse with ValueError
        script = (
            "import resource\n"
            "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n"
            "from cubegeo import colourings\n"
            "for build in (colourings.antipodal_colouring_from_index, colourings.colouring_from_index):\n"
            "    try:\n"
            "        build(16, 0)\n"
            "    except ValueError as exc:\n"
            "        print(exc)\n"
            "print([f.cache_info().currsize for f in (colourings._edge_positions,\n"
            "       colourings._antipodal_pairs, colourings._index_tables)])\n"
        )
        result = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, timeout=10)
        assert result.returncode == 0, result.stderr
        assert result.stdout.splitlines() == [
            f"262144 index bits at n=16 exceed the cap of {INDEX_MAX_BITS}",
            f"524288 index bits at n=16 exceed the cap of {INDEX_MAX_BITS}",
            "[0, 0, 0]",
        ]

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_random_antipodal_draws_one_bit_per_pair_in_order(self, n):
        # bit i of the drawn index is the i-th one-bit draw of the stream
        for seed in range(5):
            rng = SplitMix64(derive(seed))
            index = sum(rng.bits(1) << i for i in range(antipodal_pair_count(n)))
            c = random_antipodal_colouring(n, seed)
            assert blue_edges(c) == antipodal_colouring_blue_edges(n, index)
            assert is_antipodal_pairwise(c)

    def test_is_antipodal_matches_pairwise_definition(self):
        for n in range(1, 7):
            for seed in range(20):
                cs = [random_colouring(n, seed), constant_colouring(n, RED)]
                if n >= 2:
                    antipodal = random_antipodal_colouring(n, seed)
                    # flipping edge (0, 0), or the edge (0, n - 1) of the last block
                    cs += [antipodal, EdgeColouring(n, antipodal.blue_mask ^ 1),
                           EdgeColouring(n, antipodal.blue_mask ^ (1 << ((n - 1) << n)))]
                for c in cs:
                    assert is_antipodal(c) == is_antipodal_pairwise(c)

    def test_is_antipodal_on_every_colouring_n3(self):
        antipodal = 0
        for i in range(1 << edge_count(3)):
            c = colouring_from_index(3, i)
            assert is_antipodal(c) == is_antipodal_pairwise(c)
            antipodal += is_antipodal(c)
        assert antipodal == 1 << antipodal_pair_count(3)

    def test_is_antipodal_on_every_antipodal_colouring_n3(self):
        for i in range(1 << antipodal_pair_count(3)):
            assert is_antipodal(antipodal_colouring_from_index(3, i))


#: A script that gives the n = 3 antipodal flip table a bit at position
#: 1, the non-edge (lo 1, dir 0), and prints what building from it raises.
_BAD_FLIP_SCRIPT = """
from cubegeo import colourings
base, pairs = colourings._antipodal_pairs(3)
colourings._antipodal_pairs = lambda n: (base, pairs[:-1] + ((pairs[-1][0], 1),))
colourings._index_tables.cache_clear()
try:
    colourings.antipodal_colouring_from_index(3, 0)
except RuntimeError as exc:
    print(exc)
"""


class TestTableCheckedBuild:
    """The index builders set a value's slots without the per-value check
    of ``EdgeColouring``, since ``_index_tables`` checked each table once,
    when it was built, to hold edge masks only."""

    @staticmethod
    def _is_validated(c, n):
        assert c == EdgeColouring(n, c.blue_mask)  # equal values share a class
        assert pickle.loads(pickle.dumps(c)) == c

    @pytest.mark.parametrize("antipodal, n", [(True, 2), (True, 3), (True, 4), (False, 1), (False, 2), (False, 3)])
    def test_every_index(self, antipodal, n):
        bits = antipodal_pair_count(n) if antipodal else edge_count(n)
        for index in range(1 << bits):
            self._is_validated(colourings._from_index(n, index, antipodal), n)

    def test_sampled_general_indices_n4(self):
        for index in _sampled_indices(2000, edge_count(4), seed=44):
            self._is_validated(colourings._from_index(4, index, False), 4)

    @pytest.fixture
    def fresh_tables(self):
        colourings._index_tables.cache_clear()
        yield
        colourings._index_tables.cache_clear()

    def _raises_at_table_build(self, build, n):
        # index 0 XORs no flip in: the table build itself must refuse, on
        # every call, since the cache keeps no exceptions
        for _ in range(2):
            with pytest.raises(RuntimeError, match=f"^index table at n={n} has bits at non-edge positions$"):
                build(n, 0)
        assert colourings._index_tables.cache_info().currsize == 0

    def test_antipodal_flip_off_the_edges(self, monkeypatch, fresh_tables):
        base, pairs = colourings._antipodal_pairs(3)
        monkeypatch.setattr(colourings, "_antipodal_pairs", lambda n: (base, pairs[:-1] + ((pairs[-1][0], 1),)))
        self._raises_at_table_build(antipodal_colouring_from_index, 3)

    def test_antipodal_base_off_the_edges(self, monkeypatch, fresh_tables):
        base, pairs = colourings._antipodal_pairs(3)
        monkeypatch.setattr(colourings, "_antipodal_pairs", lambda n: (base | 1 << 1, pairs))
        self._raises_at_table_build(antipodal_colouring_from_index, 3)

    def test_general_flip_off_the_edges(self, monkeypatch, fresh_tables):
        positions = colourings._edge_positions(3)
        monkeypatch.setattr(colourings, "_edge_positions", lambda n: positions[:-1] + (1,))
        self._raises_at_table_build(colouring_from_index, 3)

    def test_flip_off_the_edges_raises_under_python_O(self):
        src = os.path.dirname(os.path.dirname(colourings.__file__))
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        result = subprocess.run([sys.executable, "-O", "-c", _BAD_FLIP_SCRIPT], env={**os.environ, "PYTHONPATH": path},
                                capture_output=True, text=True, timeout=30)
        assert result.returncode == 0, result.stderr
        assert result.stdout == "index table at n=3 has bits at non-edge positions\n"


def _first_pair(c, w):
    return None if w is None else (w.vertices[0], colour_of(c, w.vertices[0], w.vertices[1]))


def _check_against_oracles(c):
    path = find_monochromatic_antipodal_path(c)
    geodesic = find_monochromatic_antipodal_geodesic(c)
    one_change = find_one_change_antipodal_geodesic(c)
    assert _first_pair(c, path) == has_mono_antipodal_path(c)
    assert _first_pair(c, geodesic) == has_mono_antipodal_geodesic(c)
    assert (None if one_change is None else one_change.vertices[0]) == has_one_change_antipodal_geodesic(c)
    for w, kind in ((path, "mono-path"), (geodesic, "mono-geodesic"), (one_change, "one-change-geodesic")):
        if w is not None:
            assert w.kind == kind
            validate_witness(w, c)


class TestCheckersAgainstOracles:
    @pytest.mark.parametrize("n", [2, 3])
    def test_every_antipodal_index(self, n):
        for i in range(1 << antipodal_pair_count(n)):
            _check_against_oracles(antipodal_colouring_from_index(n, i))

    def test_every_general_colouring_n3(self):
        for i in range(1 << edge_count(3)):
            _check_against_oracles(colouring_from_index(3, i))

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_direction_split(self, n):
        _check_against_oracles(direction_split(n))

    def test_sampled_antipodal_indices_n4(self):
        for i in _sampled_indices(300, antipodal_pair_count(4), seed=44):
            _check_against_oracles(antipodal_colouring_from_index(4, i))

    def test_sampled_general_colourings_n4(self):
        for seed in range(300):
            _check_against_oracles(random_colouring(4, seed))


class TestMonoPath:
    def test_all_red_has_witness(self):
        w = find_monochromatic_antipodal_path(all_red(3))
        assert w is not None and w.kind == "mono-path"
        validate_witness(w, all_red(3))

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_direction_split_has_none(self, n):
        assert find_monochromatic_antipodal_path(direction_split(n)) is None

    def test_all_antipodal_n3(self):
        for i in range(64):
            c = antipodal_colouring_from_index(3, i)
            w = find_monochromatic_antipodal_path(c)
            assert w is not None
            validate_witness(w, c)


class TestMonoGeodesic:
    def test_planted_witness_is_found(self):
        # colour one specific 0 -> 7 geodesic red, everything else blue
        plant = [0b000, 0b001, 0b011, 0b111]
        planted = {(min(u, v), (u ^ v).bit_length() - 1) for u, v in zip(plant, plant[1:])}
        c = colouring_from_pairs(
            3,
            [
                (lo, dir, RED if (lo, dir) in planted else BLUE)
                for lo, dir, _ in colouring_pairs(all_red(3))
            ],
        )
        w = find_monochromatic_antipodal_geodesic(c)
        assert w is not None
        validate_witness(w, c)

    def test_direction_split_has_none(self):
        assert find_monochromatic_antipodal_geodesic(direction_split(4)) is None

    def test_all_antipodal_n3(self):
        for i in range(64):
            c = antipodal_colouring_from_index(3, i)
            w = find_monochromatic_antipodal_geodesic(c)
            assert w is not None and w.kind == "mono-geodesic"
            validate_witness(w, c)


class TestOneChangeGeodesic:
    def test_direction_split_single_change(self):
        c = direction_split(4)
        w = find_one_change_antipodal_geodesic(c)
        assert w is not None
        validate_witness(w, c)
        assert colour_changes(c, w.vertices) <= 1

    def test_all_red_zero_changes(self):
        c = all_red(3)
        w = find_one_change_antipodal_geodesic(c)
        assert w is not None
        assert colour_changes(c, w.vertices) == 0

    def test_sampled_general_colourings_n3(self):
        for i in range(0, 4096, 37):
            c = colouring_from_index(3, i)
            w = find_one_change_antipodal_geodesic(c)
            assert w is not None
            validate_witness(w, c)


def _odd_directions_blue(n):
    """Edges of odd direction blue, the rest red: no start reaches its
    antipode in one colour, so the monochromatic search tries them all."""
    return colouring_from_pairs(n, [(lo, dir, BLUE if dir & 1 else RED) for lo, dir, _ in colouring_pairs(all_red(n))])


class TestGeodesicSearchesAtN13:
    """The geodesic searches run at any colouring dimension; n = 13 is
    one above their old cap."""

    def test_odd_directions_blue(self):
        c = _odd_directions_blue(13)
        assert find_monochromatic_antipodal_geodesic(c) is None
        # the even directions in red, then the odd ones in blue: one change from the first start
        w = find_one_change_antipodal_geodesic(c)
        assert w.kind == "one-change-geodesic" and w.vertices[0] == 0
        assert validate_witness(w, c)[1] == colour_changes(c, w.vertices) == 1

    def test_seeded_colourings(self):
        for c, check, budget in ((random_antipodal_colouring(13, 1), find_monochromatic_antipodal_geodesic, 0),
                                 (random_colouring(13, 1), find_one_change_antipodal_geodesic, 1)):
            w = check(c)
            assert len(w.vertices) == 14
            assert validate_witness(w, c)[1] == colour_changes(c, w.vertices) <= budget

    def test_derive_b_from_a_at_n12(self):
        c = random_colouring(12, 1)
        w = derive_B_from_A(c)
        assert w.kind == "one-change-geodesic"
        assert validate_witness(w, c)[1] == colour_changes(c, w.vertices) <= 1


class TestMinColourChanges:
    def test_all_red(self):
        value, w = min_colour_changes_antipodal(all_red(3))
        assert value == 0
        validate_witness(w, all_red(3))

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_direction_split(self, n):
        c = direction_split(n)
        value, w = min_colour_changes_antipodal(c)
        assert value == 1
        validate_witness(w, c)

    @staticmethod
    def _check_against_simple_paths(c):
        value, w = min_colour_changes_antipodal(c)
        per_start = [min_changes_simple_paths(c, x, x ^ 7) for x in range(4)]
        assert value == min(per_start)
        assert w.vertices[0] == per_start.index(value)
        assert validate_witness(w, c)[1] == value == colour_changes(c, w.vertices)
        assert len(set(w.vertices)) == len(w.vertices)  # simple path

    def test_matches_simple_path_oracle_n3(self):
        for index in range(4096):
            self._check_against_simple_paths(colouring_from_index(3, index))

    def test_matches_simple_path_oracle_antipodal_n3(self):
        for index in range(64):
            self._check_against_simple_paths(antipodal_colouring_from_index(3, index))


class TestSearchKernel:
    """Per-start levels of the shared antipodal search, past the one or
    two changes that the public searches ever need."""

    @staticmethod
    def _parity_colouring(n):
        # edge (lo, d) blue iff lo has odd weight: every geodesic from 0
        # alternates colours, n - 1 changes
        return colouring_from_pairs(
            n, [(lo, dir, BLUE if lo.bit_count() & 1 else RED) for lo, dir, _ in colouring_pairs(all_red(n))]
        )

    @pytest.mark.parametrize("n", range(2, 7))
    def test_geodesic_change_count_is_exact(self, n):
        c = self._parity_colouring(n)
        classes = _colour_lomasks(c)
        changes, verts = _antipodal_search(n, classes, 0, True, None)
        assert changes == n - 1
        assert validate_witness(AntipodalWitness("path", verts), c)[1] == n - 1
        assert len({u ^ v for u, v in zip(verts, verts[1:])}) == len(verts) - 1 == n
        assert _antipodal_search(n, classes, 0, True, n - 2) is None

    def test_stops_when_nothing_new_is_reached(self):
        # red edges along direction 0 only, no blue edges: the antipode
        # of 0 is out of reach, and with no budget the search must stop
        red = [0b0101, 0]
        assert _antipodal_search(2, (red, [0, 0]), 0, False, None) is None
        assert _antipodal_search(2, (red, [0, 0]), 0, True, None) is None

    def test_per_start_minima_match_oracles_n3(self):
        for index in range(0, 4096, 7):
            c = colouring_from_index(3, index)
            classes = _colour_lomasks(c)
            for x in range(8):
                y = x ^ 7
                changes, verts = _antipodal_search(3, classes, x, False, None)
                assert changes == min_changes_simple_paths(c, x, y)
                assert verts[0] == x and verts[-1] == y
                assert validate_witness(AntipodalWitness("path", verts), c)[1] == changes
                changes, verts = _antipodal_search(3, classes, x, True, None)
                assert changes == min_changes_geodesics(c, x)
                assert validate_witness(AntipodalWitness("path", verts), c)[1] == changes
                assert len(verts) == 4

    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_every_walk_is_a_simple_path_with_its_change_count(self, data):
        """The walk rebuilt from the levels never revisits a vertex, in
        either mode and under any budget, so the minimum statistic
        returns its walk as a path witness."""
        n = data.draw(st.integers(2, 5))
        everything = constant_colouring(n, BLUE).blue_mask
        c = data.draw(st.one_of(
            st.builds(lambda m: EdgeColouring(n, m & everything), st.integers(0, everything)),
            st.builds(lambda i: antipodal_colouring_from_index(n, i),
                      st.integers(0, (1 << antipodal_pair_count(n)) - 1)),
        ))
        x = data.draw(st.integers(0, (1 << n) - 1))
        geodesic = data.draw(st.booleans())
        budget = data.draw(st.one_of(st.none(), st.integers(0, n)))
        found = _antipodal_search(n, _colour_lomasks(c), x, geodesic, budget)
        if found is None:
            assert budget is not None
            return
        value, verts = found
        assert budget is None or value <= budget
        assert verts[0] == x and verts[-1] == x ^ ((1 << n) - 1)
        assert all((u ^ v).bit_count() == 1 for u, v in zip(verts, verts[1:]))
        assert len(set(verts)) == len(verts)
        assert colour_changes(c, verts) == value
        if geodesic:
            assert len(verts) == n + 1


#: witness kind -> the per-colouring checker the block sweep must agree with
CHECKERS = {
    "mono-path": find_monochromatic_antipodal_path,
    "mono-geodesic": find_monochromatic_antipodal_geodesic,
    "one-change-geodesic": find_one_change_antipodal_geodesic,
}


def _check_lanes_against_checker(n, build, keys, kind):
    """Sweep one block of colourings (its lanes, one per key) with the
    checker of ``kind``. Each lane is the colouring its key builds, and
    gets a witness of ``kind`` exactly when the checker finds one for
    that colouring on its own. Returns the lanes found, as a bitmask."""
    check = CHECKERS[kind]
    swept = list(_sweep(check, build, n, keys))
    assert [c for c, _ in swept] == [build(n, key) for key in keys]
    found = 0
    for j, (c, got) in enumerate(swept):
        ref = check(c)
        assert got == (None if ref is None else kind), j
        found |= (got is not None) << j
    return found


class TestLaneSearch:
    """The search harness's block sweep, which reuses a block's earlier
    witnesses, against the per-colouring checkers."""

    @pytest.mark.parametrize("kind", sorted(CHECKERS))
    @pytest.mark.parametrize("n", [2, 3])
    def test_every_antipodal_colouring(self, n, kind):
        total = 1 << antipodal_pair_count(n)
        for count in (1, 4, total):
            for start in range(0, total, count):
                _check_lanes_against_checker(n, antipodal_colouring_from_index,
                                             range(start, start + count), kind)

    @pytest.mark.parametrize("kind", sorted(CHECKERS))
    @pytest.mark.parametrize("n", [2, 3])
    def test_every_general_colouring(self, n, kind):
        total = 1 << edge_count(n)
        count = min(total, 256)
        for start in range(0, total, count):
            found = _check_lanes_against_checker(n, colouring_from_index,
                                                 range(start, start + count), kind)
            if kind == "one-change-geodesic":
                assert found == (1 << count) - 1  # B holds for n <= 3

    @pytest.mark.parametrize("kind", ["mono-path", "mono-geodesic"])
    @pytest.mark.parametrize("start", [0, 17 << 10, 63 << 10])
    def test_whole_n4_blocks(self, kind, start):
        found = _check_lanes_against_checker(4, antipodal_colouring_from_index,
                                             range(start, start + 1024), kind)
        assert found == (1 << 1024) - 1

    @pytest.mark.parametrize("antipodal, n, start, count", [
        (True, 3, 0, 64), (True, 3, 24, 8), (True, 4, 5 << 10, 1024), (True, 4, 777, 1),
        (False, 2, 0, 16), (False, 3, 3 << 8, 256), (False, 3, 4095, 1),
    ])
    def test_block_lanes_are_the_index_colourings(self, antipodal, n, start, count):
        """A block sweeps the index colourings in order, each once, and
        they match the reference enumeration."""
        build = antipodal_colouring_from_index if antipodal else colouring_from_index
        reference = antipodal_colouring_blue_edges if antipodal else colouring_blue_edges
        check = find_monochromatic_antipodal_path if antipodal else find_one_change_antipodal_geodesic
        swept = list(_sweep(check, build, n, range(start, start + count)))
        assert [blue_edges(c) for c, _ in swept] == [reference(n, start + j) for j in range(count)]
        assert None not in [kind for _, kind in swept]

    @pytest.mark.parametrize("kind", ["mono-path", "mono-geodesic"])
    @pytest.mark.parametrize("k", [0, 5, 1023])
    def test_planted_lane_without_witness_is_not_found(self, kind, k):
        """A colouring without a witness, planted at lane k, fits none of
        the witnesses found before it, and the lanes after it still get
        theirs."""
        planted = direction_split(4)
        assert CHECKERS[kind](planted) is None
        start = 9 << 10

        def build(n, index):
            return planted if index == start + k else antipodal_colouring_from_index(n, index)

        found = _check_lanes_against_checker(4, build, range(start, start + 1024), kind)
        assert found == ((1 << 1024) - 1) ^ (1 << k)

    def test_one_change_witness_skips_a_start_with_two_changes(self):
        # every geodesic from 0 changes colour twice under the parity
        # colouring, so the one-change witness starts at a later x
        c = TestSearchKernel._parity_colouring(3)
        assert _check_lanes_against_checker(3, lambda n, key: c, [0], "one-change-geodesic") == 1
        assert find_one_change_antipodal_geodesic(c).vertices[0] > 0


class TestWitnessGroup:
    """A witness found for one colouring of a swept block is reused by
    every later colouring that gives its path the same colours, and a
    new witness is validated in full against its own colouring."""

    WITNESS = AntipodalWitness("mono-path", (0b00, 0b01, 0b11))

    def _sweep_group(self, group, checked):
        """Sweep ``group`` with a checker that always offers WITNESS and
        appends each colouring it sees to ``checked``; returns the
        witness kinds."""

        def offer(c):
            checked.append(c)
            return self.WITNESS

        return [kind for _, kind in _sweep(offer, lambda n, i: group[i], 2, range(len(group)))]

    def test_accepts_colourings_that_agree_on_the_path(self):
        # edges (2, 0) and (0, 1), at positions 2 and 4, are off the path
        group = [EdgeColouring(2, m) for m in (0, 1 << 2, 1 << 4, (1 << 2) | (1 << 4))]
        checked = []
        assert self._sweep_group(group, checked) == ["mono-path"] * 4
        assert checked == group[:1]
        for c in group:
            validate_witness(self.WITNESS, c)

    def test_rejects_a_colouring_that_differs_on_the_path(self):
        # edge (1, 1) is on the path: blue in the second colouring only,
        # so that colouring goes to the checker and the witness fails it
        group = [all_red(2), EdgeColouring(2, 1 << ((1 << 2) | 1))]
        checked = []
        with pytest.raises(ValueError, match="^mono-path witness changes colour 1 times$"):
            self._sweep_group(group, checked)
        assert checked == group

    def test_validates_the_first_colouring(self):
        checked = []
        with pytest.raises(ValueError, match="^mono-path witness changes colour 1 times$"):
            self._sweep_group([direction_split(2), all_red(2)], checked)
        assert checked == [direction_split(2)]


class TestHalfGeodesic:
    def test_all_red_q4_spans_cube(self):
        p = monochromatic_half_geodesic(all_red(4))
        assert p.length == 4

    def test_direction_split_n5(self):
        c = direction_split(5)
        p = monochromatic_half_geodesic(c)
        assert p.length >= 3
        assert is_monochromatic(c, p.vertices)

    @given(st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_random_colourings_n6(self, seed):
        c = random_colouring(6, seed)
        p = monochromatic_half_geodesic(c)
        assert p.length >= 3
        assert is_monochromatic(c, p.vertices)
        assert len(set(step_directions(p))) == p.length

    def test_n1(self):
        p = monochromatic_half_geodesic(EdgeColouring(1, 1))
        assert p.length == 1

    @staticmethod
    def _assert_longest_in_majority_class(c):
        """The length is the longest increasing geodesic of the majority
        class (red on a tie), built edge by edge on all 2^n vertices."""
        n = c.n
        blue = blue_edges(c)
        red = {(lo, d) for lo in range(1 << n) for d in range(n) if not lo >> d & 1} - blue
        majority = make_subgraph(n, range(1 << n), blue if len(blue) > len(red) else red)
        lengths = increasing_lengths_by_end(majority, DirectionOrdering.identity(n))
        assert monochromatic_half_geodesic(c).length == max(lengths.values())

    # a smaller component of the majority class holds a longer increasing
    # geodesic than its densest one
    @pytest.mark.parametrize("index", [3367, 3948, 8044, 11555, 12140, 14483])
    def test_whole_majority_class_antipodal_q4(self, index):
        self._assert_longest_in_majority_class(antipodal_colouring_from_index(4, index))

    @given(st.integers(0, (1 << 16) - 1))
    @settings(max_examples=60, deadline=None)
    def test_whole_majority_class_sampled_antipodal_q4(self, index):
        self._assert_longest_in_majority_class(antipodal_colouring_from_index(4, index))

    @given(st.integers(1, 6), st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_whole_majority_class_random(self, n, seed):
        self._assert_longest_in_majority_class(random_colouring(n, seed))


class TestLift:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_every_colouring_matches_edge_by_edge_lift(self, n):
        for i in range(1 << edge_count(n)):
            c = colouring_from_index(n, i)
            reference = lift_edge_by_edge(c)
            assert lift_to_antipodal(c) == reference

    @pytest.mark.parametrize("n", range(4, 11))
    def test_seeded_colourings_match_edge_by_edge_lift(self, n):
        for seed in range(20):
            c = random_colouring(n, seed)
            reference = lift_edge_by_edge(c)
            assert lift_to_antipodal(c) == reference

    @given(st.integers(0, 4095))
    @settings(max_examples=30, deadline=None)
    def test_lift_is_antipodal_and_restricts(self, index):
        c = colouring_from_index(3, index)
        lifted = lift_to_antipodal(c)
        assert lifted.n == 4
        assert is_antipodal(lifted)
        for lo, dir, colour in colouring_pairs(c):
            assert colour_of(lifted, lo, lo | 1 << dir) == colour

    def test_all_red_n2_frozen_rule(self):
        lifted = lift_to_antipodal(all_red(2))
        # top subcube edges are forced opposite: all blue
        for lo, dir, _ in colouring_pairs(all_red(2)):
            assert colour_of(lifted, lo | 4, lo | 4 | 1 << dir) == BLUE
            assert colour_of(lifted, lo, lo | 1 << dir) == RED
        # new-direction pairs have equal parity at n=2: smaller endpoint red
        assert colour_of(lifted, 0b000, 0b100) == RED
        assert colour_of(lifted, 0b011, 0b111) == BLUE
        assert colour_of(lifted, 0b001, 0b101) == RED
        assert colour_of(lifted, 0b010, 0b110) == BLUE


class TestDeriveConstructions:
    def test_b_from_a_all_red_n2(self):
        c = all_red(2)
        w = derive_B_from_A(c)
        assert w.kind == "one-change-geodesic"
        validate_witness(w, c)

    @given(st.integers(0, 4095))
    @settings(max_examples=40, deadline=None)
    def test_b_from_a_structural(self, index):
        c = colouring_from_index(3, index)
        w = derive_B_from_A(c)
        validate_witness(w, c)
        assert colour_changes(c, w.vertices) <= 1

    def test_a_from_b_all_64_antipodal_n3(self):
        for i in range(64):
            c = antipodal_colouring_from_index(3, i)
            w = derive_A_from_B(c)
            assert w.kind == "mono-geodesic"
            validate_witness(w, c)
            assert is_monochromatic(c, w.vertices)

    def test_a_from_b_zero_change_returned_unchanged(self):
        hits = 0
        for i in range(64):
            c = antipodal_colouring_from_index(3, i)
            found = find_one_change_antipodal_geodesic(c)
            if colour_changes(c, found.vertices) == 0:
                w = derive_A_from_B(c)
                assert w.vertices == found.vertices
                hits += 1
        assert hits > 0

    def test_a_from_b_requires_antipodal(self):
        with pytest.raises(ValueError):
            derive_A_from_B(all_red(3))

    def test_concatenation_directions_partition(self):
        for i in (5, 21, 40):
            c = antipodal_colouring_from_index(3, i)
            w = derive_A_from_B(c)
            dirs = [(u ^ v).bit_length() - 1 for u, v in zip(w.vertices, w.vertices[1:])]
            assert sorted(dirs) == [0, 1, 2]


#: Plants a search hit whose count is one above its path's changes.
_WRONG_COUNT_SCRIPT = """
from cubegeo import EdgeColouring, colourings
colourings._antipodal_hits = lambda c, geodesic, budget: iter([(2, (0b00, 0b01, 0b11))])
try:
    colourings.min_colour_changes_antipodal(EdgeColouring(2, 1 << 5))
except RuntimeError as exc:
    print(exc)
"""


def _rejects(w, c, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        validate_witness(w, c)


class TestWitnessValidation:
    @pytest.mark.parametrize("vertices", [
        (),
        (0b00,),
        (0b00, 0b01),
        (0b01, 0b11),
        (0b00, 0b01, 0b11, 0b10),  # passes the antipode of its start
        (0b100, 0b101, 0b111, 0b011),  # a start outside Q_2 with the end its antipode's would be
        (-1, -2, -4),  # negative ends whose XOR is 0b11
    ])
    def test_rejects_ends_that_are_not_antipodal(self, vertices):
        for kind in ("mono-path", "mono-geodesic", "one-change-geodesic", "path", "rainbow"):
            _rejects(AntipodalWitness(kind, vertices), all_red(2), "witness path does not join antipodal vertices of Q_2")

    @pytest.mark.parametrize("n, vertices, bad", [
        (1, (False, True), "False"),  # antipodal ends that are bools
        (1, (0, 1.0), "1.0"),  # an end the antipode equals
        (2, (0, 0.5, 3), "0.5"),
    ])
    def test_rejects_a_vertex_that_is_not_an_int_naming_it(self, n, vertices, bad):
        for kind in ("mono-path", "path"):
            with pytest.raises(TypeError, match=f"^vertex {bad} is not an int$"):
                validate_witness(AntipodalWitness(kind, vertices), all_red(n))

    @pytest.mark.parametrize(
        "vertices, step",
        [
            ((0b00, 0b00, 0b01, 0b11), "0->0"),  # no move
            ((0b00, 0b11), "0->3"),  # two coordinates at once
            ((0b00, 0b100, 0b101, 0b001, 0b011), "0->4"),  # leaves Q_2
        ],
    )
    def test_rejects_non_edge_step(self, vertices, step):
        w = AntipodalWitness("mono-path", vertices)
        _rejects(w, all_red(2), f"step {step} is not a cube edge")

    def test_rejects_colour_mismatch(self):
        c = direction_split(2)
        w = AntipodalWitness("mono-path", (0b00, 0b01, 0b11))
        _rejects(w, c, "mono-path witness changes colour 1 times")

    @pytest.mark.parametrize("kind", ["mono-geodesic", "one-change-geodesic"])
    def test_rejects_repeated_direction(self, kind):
        w = AntipodalWitness(kind, (0b00, 0b01, 0b00, 0b10, 0b11))
        _rejects(w, all_red(2), "witness is not a full-length geodesic")

    @pytest.mark.parametrize("kind", ["mono-geodesic", "one-change-geodesic"])
    @pytest.mark.parametrize("n", [3, 4])
    def test_rejects_a_walk_two_steps_too_long(self, kind, n):
        # steps along direction 0 out and back, then a geodesic from 0 to
        # its antipode: n + 2 cube edges, direction 0 three times
        walk = (0, 1, 0) + tuple((1 << d) - 1 for d in range(1, n + 1))
        assert len(walk) - 1 == n + 2
        w = AntipodalWitness(kind, walk)
        _rejects(w, all_red(n), "witness is not a full-length geodesic")

    def test_rejects_mono_geodesic_with_a_change(self):
        c = direction_split(2)
        w = AntipodalWitness("mono-geodesic", (0b00, 0b01, 0b11))
        _rejects(w, c, "mono-geodesic witness changes colour 1 times")

    def test_rejects_one_change_geodesic_with_two(self):
        # red, blue, red under the split (directions 0, 1 red; 2 blue)
        c = direction_split(3)
        w = AntipodalWitness("one-change-geodesic", (0b000, 0b001, 0b101, 0b111))
        _rejects(w, c, "one-change-geodesic witness changes colour 2 times")

    def test_rejects_path_with_a_repeated_vertex(self):
        # 00 -> 01 -> 00 -> 10 -> 11: a walk with no colour change, but not a path
        w = AntipodalWitness("path", (0b00, 0b01, 0b00, 0b10, 0b11))
        _rejects(w, all_red(2), "path witness repeats a vertex")

    def test_counts_the_colour_changes(self):
        c = direction_split(2)
        # edge (lo, dir) at position (dir << 2) | lo
        assert validate_witness(AntipodalWitness("path", (0b00, 0b01, 0b11)), c) == (0b100001, 1)
        assert validate_witness(AntipodalWitness("path", (0b00, 0b10, 0b11)), c) == (0b010100, 1)
        assert validate_witness(AntipodalWitness("path", (0b00, 0b10, 0b11)), all_red(2)) == (0b010100, 0)

    def test_min_changes_refuses_a_count_its_witness_does_not_have_under_python_O(self):
        src = os.path.dirname(os.path.dirname(colourings.__file__))
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        result = subprocess.run([sys.executable, "-O", "-c", _WRONG_COUNT_SCRIPT],
                                env={**os.environ, "PYTHONPATH": path}, capture_output=True, text=True, timeout=30)
        assert result.returncode == 0, result.stderr
        assert result.stdout == "the search found 2 colour changes, but its witness has 1\n"

    @pytest.mark.parametrize("n", [2, 3])
    def test_returns_the_path_edge_positions(self, n):
        """Every witness the checkers find, over every colouring of Q_n,
        validates to the mask of its path's edge positions."""
        for i in range(1 << edge_count(n)):
            c = colouring_from_index(n, i)
            witnesses = [check(c) for check in CHECKERS.values()]
            witnesses.append(min_colour_changes_antipodal(c)[1])
            for w in witnesses:
                if w is not None:
                    mask, changes = validate_witness(w, c)
                    assert {p for p in range(n << n) if (mask >> p) & 1} == path_edge_positions(
                        n, w.vertices)
                    assert changes == colour_changes(c, w.vertices)

    def test_rejects_unknown_kind(self):
        w = AntipodalWitness("rainbow", (0b00, 0b01, 0b11))
        _rejects(w, all_red(2), "unknown witness kind 'rainbow'")

    def test_witness_antipodal_image_flips_colour(self):
        for i in (3, 17, 33):
            c = antipodal_colouring_from_index(3, i)
            w = find_monochromatic_antipodal_geodesic(c)
            image = tuple(antipode(v, 3) for v in w.vertices)
            cols = {colour_of(c, u, v) for u, v in zip(w.vertices, w.vertices[1:])}
            icols = {colour_of(c, u, v) for u, v in zip(image, image[1:])}
            assert len(cols) == 1 and len(icols) == 1
            assert cols != icols
