from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cubegeo import (
    SetFamily,
    UniformFamily,
    compress_element,
    feder_subi_intersecting_check,
    full_compress,
    induced_subgraph,
    is_downset,
    is_t_intersecting,
    iterated_shadow,
    level_profile,
    max_hamming_pair,
    shadow,
)
from cubegeo.harness import random_t_intersecting_family
from cubegeo.harness.verify import _full_compression
from oracles import (
    compress_members,
    edge_list,
    feder_subi_members,
    full_compress_members,
    is_downset_members,
    is_t_intersecting_members,
    level_profile_members,
    members,
    shadow_members,
)

# Members are bitmasks: element i of the ground set is bit i.
E1, E2, E3 = 0b001, 0b010, 0b100

families = st.builds(
    lambda n, sets: SetFamily.of(n, {s & ((1 << n) - 1) for s in sets}),
    st.integers(2, 6),
    st.sets(st.integers(0, 63), max_size=24),
)

uniform_families = st.integers(2, 6).flatmap(lambda n: st.integers(1, n).flatmap(lambda k: st.sets(
    st.sampled_from([s for s in range(1 << n) if bin(s).count("1") == k]), max_size=16,
).map(lambda sets: UniformFamily.of(n, sets, k))))

#: Supersets of a common core, so that t-intersecting families are common.
intersecting_families = st.integers(1, 7).flatmap(lambda n: st.tuples(
    st.integers(0, (1 << n) - 1), st.sets(st.integers(0, (1 << n) - 1), max_size=20),
).map(lambda drawn: SetFamily.of(n, {drawn[0] | s for s in drawn[1]})))


class TestValidation:
    @pytest.mark.parametrize("build, message", [
        (lambda: SetFamily(2, 1 << 4), "bits outside the 2\\^2 subsets"),
        (lambda: SetFamily(2, -1), "bits outside"),
        (lambda: SetFamily(25, 0), "dimension 25 outside"),
        (lambda: SetFamily.of(-1, []), "dimension -1 outside"),
        (lambda: SetFamily.of(3, [-1]), "must lie in"),
        (lambda: SetFamily.of(3, [8]), "must lie in"),
        (lambda: UniformFamily(3, 0b10, 2), "members of sizes \\[1\\]"),
        (lambda: UniformFamily(3, 0, 4), "uniform size 4 out of range"),
    ])
    def test_rejected(self, build, message):
        with pytest.raises(ValueError, match=message):
            build()

    @pytest.mark.parametrize("member", [True, 0.5])
    def test_a_member_that_is_not_an_int_is_refused_naming_it(self, member):
        with pytest.raises(TypeError, match=f"^family member {member!r} is not an int$"):
            SetFamily.of(3, [member])

    def test_members_are_the_set_bits(self):
        fam = SetFamily.of(3, [5, 0, 5, 3])
        assert fam == SetFamily(3, 0b101001)
        assert members(fam) == [0, 3, 5] and len(fam) == 3


class TestAgainstReferees:
    """Each mask kernel against its member-by-member referee."""

    @given(st.one_of(families, uniform_families), st.integers(0, 5))
    @settings(max_examples=100)
    def test_compress_element(self, fam, i):
        i %= fam.n
        assert members(compress_element(fam, i)) == sorted(compress_members(members(fam), i))

    @given(st.one_of(families, uniform_families))
    @settings(max_examples=100)
    def test_full_compress(self, fam):
        assert members(full_compress(fam)) == sorted(full_compress_members(fam.n, members(fam)))

    @given(st.one_of(families, uniform_families), st.integers(0, 63))
    @settings(max_examples=100)
    def test_is_downset(self, fam, drop):
        """On the family, on its compression, which is a downset, and on
        the compression less one member, which may not be."""
        down = sorted(full_compress_members(fam.n, members(fam)))
        less = down[:drop % len(down)] + down[drop % len(down) + 1:] if down else []
        for sets in (members(fam), down, less):
            assert is_downset(SetFamily.of(fam.n, sets)) == is_downset_members(sets)

    @given(uniform_families)
    @settings(max_examples=100)
    def test_shadow(self, fam):
        out = shadow(fam)
        assert members(out) == sorted(shadow_members(members(fam))) and out.k == fam.k - 1


    @pytest.mark.parametrize("n", [0, 1, 2, 3])
    def test_full_compress_on_every_family(self, n):
        """One pass over the directions reaches the referee's fixpoint on
        all 2^(2^n) families."""
        for mask in range(1 << (1 << n)):
            fam = SetFamily(n, mask)
            assert members(full_compress(fam)) == sorted(full_compress_members(n, members(fam))), mask

    @given(st.one_of(families, uniform_families, intersecting_families), st.integers(0, 8))
    @settings(max_examples=200)
    @example(SetFamily(3, 0), 0)
    @example(SetFamily(3, 0), 4)
    @example(SetFamily.of(3, [0b111]), 4)
    @example(SetFamily.of(2, [0b01, 0b10]), 0)
    def test_is_t_intersecting(self, fam, t):
        """Empty families, t = 0 and t above n included."""
        assert is_t_intersecting(fam, t) == is_t_intersecting_members(members(fam), t)

    @given(st.one_of(families, uniform_families))
    @settings(max_examples=100)
    def test_level_profile(self, fam):
        assert level_profile(fam) == level_profile_members(fam.n, members(fam))

    @given(st.one_of(families, uniform_families))
    @settings(max_examples=100)
    def test_feder_subi_check(self, fam):
        """On the compression, a downset, at every threshold d in [0, 2n]
        with denominator 1, 2 or 3."""
        down = full_compress_members(fam.n, members(fam))
        for d in {Fraction(num, den) for den in (1, 2, 3) for num in range(2 * fam.n * den + 1)}:
            assert feder_subi_intersecting_check(SetFamily.of(fam.n, down), d) == feder_subi_members(down, d), d

    @given(st.one_of(families, uniform_families))
    @settings(max_examples=100)
    def test_compression_popcount_sum(self, fam):
        down = full_compress_members(fam.n, members(fam))
        fc, popsum, _, ok = _full_compression(fam)
        assert popsum == sum(bin(a).count("1") for a in down) and ok


class TestCompressElement:
    def test_downset_is_fixed(self):
        fam = SetFamily.of(2, [0, E1, E2, E1 | E2])
        for i in range(2):
            assert compress_element(fam, i) == fam

    def test_singleton(self):
        assert compress_element(SetFamily.of(1, [E1]), 0) == SetFamily.of(1, [0])

    def test_spec_example(self):
        fam = SetFamily.of(2, [E1, E2, E1 | E2])
        # element 1: {2} drops to {}, {1,2} stays because {1} is present
        assert compress_element(fam, 1) == SetFamily.of(2, [0, E1, E1 | E2])

    def test_index_out_of_range(self):
        with pytest.raises(ValueError):
            compress_element(SetFamily.of(2, [E1]), 2)

    @given(families, st.integers(0, 5))
    @settings(max_examples=80)
    def test_lemma_invariants(self, fam, i):
        """Size preserved, induced edges never lost, max Hamming distance
        never grown."""
        i = i % fam.n
        comp = compress_element(fam, i)
        assert len(comp) == len(fam)
        before = induced_subgraph(fam.n, members(fam))
        after = induced_subgraph(fam.n, members(comp))
        assert len(edge_list(after)) >= len(edge_list(before))
        if fam.mask:
            assert max_hamming_pair(after)[2] <= max_hamming_pair(before)[2]


class TestFullCompress:
    def test_single_pair_set(self):
        assert full_compress(SetFamily.of(2, [E1 | E2])) == SetFamily.of(2, [0])

    def test_downset_identity(self):
        fam = SetFamily.of(3, [0, E1, E2, E1 | E2])
        assert full_compress(fam) == fam

    def test_full_level_becomes_equal_size_downset(self):
        level = [s for s in range(1 << 5) if bin(s).count("1") == 2]
        fam = SetFamily.of(5, level)
        out = full_compress(fam)
        assert is_downset(out) and len(out) == len(fam)

    @given(families)
    @settings(max_examples=80)
    def test_output_downset_same_size_idempotent(self, fam):
        out = full_compress(fam)
        assert is_downset(out)
        assert len(out) == len(fam)
        assert full_compress(out) == out

    @given(families)
    @settings(max_examples=60)
    def test_equation_two_for_downsets(self, fam):
        """For a downset, total popcount = induced edge count: every edge
        is counted at its upper endpoint."""
        out = full_compress(fam)
        g = induced_subgraph(out.n, members(out))
        popsum = sum(bin(a).count("1") for a in members(out))
        profile = level_profile(out)
        assert popsum == len(edge_list(g))
        assert popsum == sum(k * c for k, c in enumerate(profile))


class TestIsDownset:
    def test_examples(self):
        assert is_downset(SetFamily.of(2, [0, E1, E2, E1 | E2]))
        assert not is_downset(SetFamily.of(2, [E1 | E2]))
        assert is_downset(SetFamily.of(2, [0]))
        assert is_downset(SetFamily.of(2, []))


class TestShadow:
    def test_single_pair(self):
        fam = UniformFamily.of(2, [E1 | E2], 2)
        assert shadow(fam) == UniformFamily.of(2, [E1, E2], 1)

    def test_union_of_shadows(self):
        fam = UniformFamily.of(3, [E1 | E2, E1 | E3], 2)
        assert set(members(shadow(fam))) == {E1, E2, E3}

    def test_empty(self):
        assert members(shadow(UniformFamily.of(4, [], 2))) == []

    def test_zero_uniform_errors(self):
        with pytest.raises(ValueError):
            shadow(UniformFamily.of(3, [0], 0))

    @given(uniform_families)
    @settings(max_examples=200)
    def test_equals_the_validated_family(self, fam):
        """``shadow`` skips the constructor's size scan; the value it
        builds is the one the validating constructor builds from the
        same mask, and it passes that scan."""
        out = shadow(fam)
        assert out == UniformFamily(fam.n, out.mask, fam.k - 1)

    def test_uniformity_enforced(self):
        with pytest.raises(ValueError):
            UniformFamily.of(3, [E1, E1 | E2], 1)


class TestIteratedShadow:
    def test_identity(self):
        fam = UniformFamily.of(4, [0b0011, 0b1100], 2)
        assert iterated_shadow(fam, 0) == fam

    def test_two_steps(self):
        fam = UniformFamily.of(3, [E1 | E2 | E3], 3)
        assert set(members(iterated_shadow(fam, 2))) == {E1, E2, E3}

    def test_disjoint_pairs(self):
        fam = UniformFamily.of(4, [0b0011, 0b1100], 2)
        assert set(members(iterated_shadow(fam, 1))) == {0b0001, 0b0010, 0b0100, 0b1000}

    def test_too_deep(self):
        with pytest.raises(ValueError):
            iterated_shadow(UniformFamily.of(3, [E1 | E2], 2), 3)


class TestTIntersecting:
    def test_examples(self):
        fam = SetFamily.of(3, [E1 | E2, E1 | E3])
        assert is_t_intersecting(fam, 1)
        assert not is_t_intersecting(fam, 2)
        assert is_t_intersecting(SetFamily.of(3, []), 5)

    def test_self_intersection_counts(self):
        # a single small member fails a large threshold via A = B
        assert not is_t_intersecting(SetFamily.of(3, [E1]), 2)

    def test_negative_threshold(self):
        with pytest.raises(ValueError):
            is_t_intersecting(SetFamily.of(2, []), -1)


class TestKatona:
    def test_example(self):
        fam = UniformFamily.of(3, [E1 | E2, E1 | E3], 2)
        assert len(iterated_shadow(fam, 1)) >= len(fam)  # shadow has 3 members >= 2

    def test_single_set_full_intersection(self):
        fam = UniformFamily.of(5, [0b10101], 3)
        assert len(iterated_shadow(fam, 3)) >= len(fam)

    @given(st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_random_families(self, seed):
        n, k, t = 8, 3, 1 + seed % 3
        fam = random_t_intersecting_family(n, k, t, 12, seed)
        assert is_t_intersecting(fam, t)
        assert len(iterated_shadow(fam, t)) >= len(fam)


class TestLevelProfile:
    def test_square_downset(self):
        fam = SetFamily.of(2, [0, E1, E2, E1 | E2])
        assert level_profile(fam) == (1, 2, 1)
        g = induced_subgraph(2, members(fam))
        assert sum(k * c for k, c in enumerate(level_profile(fam))) == len(edge_list(g)) == 4

    def test_empty_and_singleton(self):
        assert level_profile(SetFamily.of(3, [])) == (0, 0, 0, 0)
        assert level_profile(SetFamily.of(3, [0])) == (1, 0, 0, 0)


class TestFederSubiCheck:
    def test_square_downset_fails_at_2(self):
        fam = SetFamily.of(2, [0, E1, E2, E1 | E2])
        assert not feder_subi_intersecting_check(fam, 2)

    def test_trivial_singleton(self):
        assert feder_subi_intersecting_check(SetFamily.of(2, [0]), 1)

    def test_small_union(self):
        fam = SetFamily.of(3, [0, E1, E2])
        assert feder_subi_intersecting_check(fam, 3)

    def test_requires_downset(self):
        with pytest.raises(ValueError):
            feder_subi_intersecting_check(SetFamily.of(2, [E1 | E2]), 1)


class TestGenerator:
    def test_deterministic_and_valid(self):
        a = random_t_intersecting_family(10, 4, 2, 20, 7)
        b = random_t_intersecting_family(10, 4, 2, 20, 7)
        assert a == b
        assert a.k == 4 and len(a) >= 1
        assert is_t_intersecting(a, 2)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            random_t_intersecting_family(4, 5, 1, 3, 0)
        with pytest.raises(ValueError):
            random_t_intersecting_family(4, 3, 1, 0, 0)
