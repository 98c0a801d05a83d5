import gc
import io
import json
import os
import subprocess
import sys
import traceback
from contextlib import closing, redirect_stdout
from fractions import Fraction
from functools import partial
from itertools import islice
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from cubegeo import EdgeColouring, SetFamily, UniformFamily, average_degree, induced_subgraph
from cubegeo.harness import (
    InstanceSpec,
    ParseError,
    colouring_to_obj,
    dumps,
    family_to_obj,
    generate,
    graph_to_obj,
    load_instance,
    load_json,
    obj_to_colouring,
    obj_to_family,
    obj_to_graph,
    random_t_intersecting_family,
    run_search,
    run_verify,
    save_json,
)
from cubegeo.colourings import (
    AntipodalWitness,
    antipodal_colouring_from_index,
    colouring_from_index,
    find_monochromatic_antipodal_geodesic,
    find_monochromatic_antipodal_path,
    find_one_change_antipodal_geodesic,
    min_colour_changes_antipodal,
)
from cubegeo.geodesics import GeodesicPath
from cubegeo.harness import generators
from cubegeo.harness.cli import main
from cubegeo.harness.generators import KINDS, pool_map
from cubegeo.harness.search import CONJECTURES, _sweep
from cubegeo.harness.verify import THEOREMS
from cubegeo.rng import SplitMix64, _randbelow, derive, mix64
from oracles import (SplitMix64Referee, direction_split, edge_list, edge_random_graph, members, subset_draw_masks,
                     t_intersecting_members, vertex_list)


BERNOULLI_PROBABILITIES = [
    Fraction(0), Fraction(1), Fraction(1, 2), Fraction(1, 5), Fraction(3, 7),
    Fraction(65535, 65536), Fraction(1, 65537),
]


def _assert_mask_is_sequential(seed, pre, p, count):
    """bernoulli_mask(p, count) gives the bits of count sequential
    one-draw referee calls and leaves the generator in the same state."""
    one_by_one, bulk = SplitMix64Referee(seed), SplitMix64(seed)
    one_by_one.bits(pre)
    bulk.bits(pre)
    want = sum(one_by_one.bernoulli(p) << i for i in range(count))
    assert bulk.bernoulli_mask(p, count) == want
    assert (bulk.state, bulk._buf, bulk._bufbits) == (one_by_one.state, one_by_one.buf, one_by_one.bufbits)


class TestRng:
    def test_streams_are_reproducible(self):
        a = SplitMix64(42)
        b = SplitMix64(42)
        assert [a.next_u64() for _ in range(5)] == [b.next_u64() for _ in range(5)]

    def test_mix64_reference_values(self):
        # SplitMix64 with seed 0: first outputs of the reference stream
        g = SplitMix64(0)
        assert g.next_u64() == 0xE220A8397B1DCDAF
        assert g.next_u64() == 0x6E789E6AA1B965F4
        assert g.next_u64() == 0x06C45D188009454F

    def test_randbelow_bounds_and_determinism(self):
        ref = SplitMix64Referee(7)
        state, buf, bufbits = 7, 0, 0
        vals = []
        for _ in range(1000):
            v, state, buf, bufbits = _randbelow(10, state, buf, bufbits)
            vals.append(v)
        assert vals == [ref.randrange(10) for _ in range(1000)]
        assert (state, buf, bufbits) == (ref.state, ref.buf, ref.bufbits)
        assert all(0 <= v < 10 for v in vals)
        assert len(set(vals)) == 10

    def test_randbelow_rejects_bad_bound(self):
        for bound in (0, -1):
            with pytest.raises(ValueError):
                _randbelow(bound, 0, 0, 0)

    def test_bernoulli_exact_edge_cases(self):
        g = SplitMix64(0)
        assert g.bernoulli_mask(Fraction(0), 1) == 0
        assert g.bernoulli_mask(Fraction(1), 1) == 1
        with pytest.raises(ValueError):
            g.bernoulli_mask(Fraction(3, 2), 1)

    def test_bernoulli_frequency_of_mask(self):
        hits = SplitMix64(123).bernoulli_mask(Fraction(1, 5), 20_000).bit_count()
        assert abs(hits / 20_000 - 0.2) < 0.01

    @pytest.mark.parametrize("p", BERNOULLI_PROBABILITIES, ids=str)
    def test_bernoulli_mask_matches_sequential_draws(self, p):
        # (seed, bits buffered before the draws); seeds 510, 35 and 53 meet
        # the boundary chunk of 1/5, 3/7 and 1/65537 within 300 draws
        for seed, pre in ((1, 0), (2, 5), (3, 16), (4, 37), (510, 23), (35, 23), (53, 0)):
            for count in (0, 1, 5, 64, 300):
                _assert_mask_is_sequential(seed, pre, p, count)

    def test_bernoulli_mask_boundary_chunks(self):
        # each case's chunk number ``at`` equals floor(p * 2^16), which only
        # the exact escalation can decide, as the last draw and mid-mask;
        # seed 12 meets two such chunks
        for p, seed, pre, at, count in (
            (Fraction(1, 5), 510, 23, 271, 300),
            (Fraction(3, 7), 35, 23, 19, 300),
            (Fraction(1, 65537), 53, 0, 73, 300),
            (Fraction(1, 5), 12, 0, 4146, 20_000),
        ):
            probe = SplitMix64(seed)
            probe.bits(pre)
            chunks = [probe.bits(16) for _ in range(at + 1)]
            assert chunks[at] == (p.numerator << 16) // p.denominator
            _assert_mask_is_sequential(seed, pre, p, at + 1)
            _assert_mask_is_sequential(seed, pre, p, count)

    def test_bernoulli_mask_rejects_bad_probability(self):
        for p in (Fraction(-1, 3), Fraction(4, 3)):
            with pytest.raises(ValueError):
                SplitMix64(0).bernoulli_mask(p, 8)

    def test_shuffle_is_permutation(self):
        g = SplitMix64(5)
        xs = list(range(20))
        g.shuffle(xs)
        assert sorted(xs) == list(range(20)) and xs != list(range(20))

    def test_derive_separates_streams(self):
        assert derive(1, 0) != derive(1, 1) != derive(2, 1)
        assert derive(1, 2, 3) == derive(1, 2, 3)
        assert mix64(0) != mix64(1)


def _primed(seed, pre):
    """The library generator and the referee, both after ``bits(pre)``."""
    rng, ref = SplitMix64(seed), SplitMix64Referee(seed)
    assert rng.bits(pre) == ref.bits(pre)
    return rng, ref


def _assert_same_state(rng, ref):
    assert (rng.state, rng._buf, rng._bufbits) == (ref.state, ref.buf, ref.bufbits)


_SEEDS = st.integers(0, (1 << 64) - 1)


@st.composite
def _subset_shapes(draw):
    """(n, k, core) with n <= 12, 0 <= len(core) = t <= k <= n, and core a
    sorted list of t elements of [n]."""
    n = draw(st.integers(0, 12))
    k = draw(st.integers(0, n))
    t = draw(st.integers(0, k))
    return n, k, sorted(draw(st.permutations(range(n)))[:t])


class TestRngAgainstReferee:
    """Every draw and the generator's whole state after it, against the
    scalar SplitMix64 in tests/oracles.py. Draws long enough for the lane
    kernel are included, and bits(100_000) crosses several of its blocks."""

    @given(_SEEDS, st.integers(0, 64), st.lists(st.integers(0, 20_000), max_size=3))
    @example(seed=7, pre=5, ks=[100_000, 3])
    @settings(max_examples=60, deadline=None)
    def test_bits(self, seed, pre, ks):
        rng, ref = _primed(seed, pre)
        for k in ks:
            assert rng.bits(k) == ref.bits(k)
            _assert_same_state(rng, ref)

    @given(_SEEDS, st.integers(0, 64), st.integers(0, 40))
    @settings(max_examples=80, deadline=None)
    def test_shuffle(self, seed, pre, length):
        rng, ref = _primed(seed, pre)
        got, want = list(range(length)), list(range(length))
        rng.shuffle(got)
        ref.shuffle(want)
        assert got == want
        _assert_same_state(rng, ref)

    @given(_SEEDS, st.integers(0, 64), st.lists(st.integers(1, 1 << 70), max_size=20))
    @example(seed=3, pre=0, bounds=[1, 1, 2, (1 << 64) + 1, 3])
    @settings(max_examples=60, deadline=None)
    def test_randbelow(self, seed, pre, bounds):
        rng, ref = _primed(seed, pre)
        stream = rng.state, rng._buf, rng._bufbits
        for bound in bounds:
            v, *stream = _randbelow(bound, *stream)
            assert v == ref.randrange(bound)
            assert tuple(stream) == (ref.state, ref.buf, ref.bufbits)

    @given(_SEEDS, st.integers(0, 64), _subset_shapes(), st.integers(0, 200))
    # closed before the first draw, and right after it (which takes no coin)
    @example(seed=5, pre=0, shape=(12, 4, [3, 7]), count=0)
    @example(seed=5, pre=3, shape=(12, 4, [3, 7]), count=1)
    @example(seed=5, pre=0, shape=(9, 5, [0, 4, 8]), count=200)
    @settings(max_examples=80, deadline=None)
    def test_subset_draws(self, seed, pre, shape, count):
        n, k, core = shape
        rng, ref = _primed(seed, pre)
        draws = rng.subset_draws([1 << e for e in range(n) if e not in core], k - len(core),
                                 sum(1 << e for e in core), n)
        got = list(islice(draws, count))
        draws.close()
        assert got == subset_draw_masks(ref, n, k, core, count)
        _assert_same_state(rng, ref)

    @given(
        _SEEDS,
        st.integers(0, 64),
        st.sampled_from(BERNOULLI_PROBABILITIES) | st.fractions(0, 1, max_denominator=1 << 20),
        st.integers(0, 5000),
    )
    # seed 12 meets the boundary chunk 0x3333 = floor(2^16 / 5) at draw
    # 4146; seed 70's stream holds the bytes 33 33 straddling draws 1 and
    # 2, which is no boundary chunk
    @example(seed=12, pre=0, p=Fraction(1, 5), count=5000)
    @example(seed=70, pre=0, p=Fraction(1, 5), count=300)
    @settings(max_examples=60, deadline=None)
    def test_bernoulli_mask(self, seed, pre, p, count):
        rng, ref = _primed(seed, pre)
        assert rng.bernoulli_mask(p, count) == ref.bernoulli_mask(p, count)
        _assert_same_state(rng, ref)

    @given(_SEEDS, st.integers(0, 64), st.integers(0, 2999), st.integers(0, 1))
    @settings(max_examples=40, deadline=None)
    def test_bernoulli_mask_at_the_cut(self, seed, pre, at, above):
        """p = (v + above) / 2^16 for the chunk v of draw ``at``, so that
        draw's chunk equals the cut (False) or lies just below it (True)."""
        probe = SplitMix64Referee(seed)
        probe.bits(pre + 16 * at)
        p = Fraction(probe.bits(16) + above, 1 << 16)
        rng, ref = _primed(seed, pre)
        got = rng.bernoulli_mask(p, 3000)
        assert got == ref.bernoulli_mask(p, 3000)
        assert (got >> at) & 1 == above
        _assert_same_state(rng, ref)


class TestGenerate:
    def test_full_cube(self):
        g = generate(InstanceSpec("full-cube", n=3))
        assert len(vertex_list(g)) == 8 and len(edge_list(g)) == 12

    def test_disjoint_cubes(self):
        g = generate(InstanceSpec("disjoint-cubes", n=4, subdim=2, copies=2))
        assert len(vertex_list(g)) == 8 and len(edge_list(g)) == 8
        assert average_degree(g) == 2

    def test_disjoint_cubes_capacity(self):
        with pytest.raises(ValueError):
            generate(InstanceSpec("disjoint-cubes", n=3, subdim=2, copies=3))

    @pytest.mark.parametrize("kind", ["full-cube", "induced-random", "edge-random", "disjoint-cubes",
                                      "random-family"])
    def test_graph_dimension_checked_before_any_mask(self, kind):
        spec = InstanceSpec(kind, n=40, density=Fraction(1, 2), subdim=1, copies=1)
        with pytest.raises(ValueError, match="dimension 40 outside"):
            generate(spec)

    def test_hamming_ball(self):
        g = generate(InstanceSpec("hamming-ball", n=10, radius=1))
        assert len(vertex_list(g)) == 11 and len(edge_list(g)) == 10

    @pytest.mark.parametrize("n", [0, 1, 4, 7])
    def test_hamming_ball_matches_the_vertex_by_vertex_ball(self, n):
        for centre in {0, (1 << n) - 1, 5 % (1 << n)}:
            for radius in (0, 1, n // 2, n, n + 1, 10**9):
                ball = [v for v in range(1 << n) if (v ^ centre).bit_count() <= radius]
                assert generate(InstanceSpec("hamming-ball", n=n, radius=radius, centre=centre)) == \
                    induced_subgraph(n, ball)

    def test_induced_random_seeded(self):
        spec = InstanceSpec("induced-random", n=6, density=Fraction(1, 2), seed=5)
        assert generate(spec) == generate(spec)
        assert generate(spec) != generate(spec.replace(seed=6))

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 7), st.integers(0, 2**64 - 1), st.fractions(0, 1, max_denominator=12))
    def test_edge_random_matches_edge_by_edge_referee(self, n, seed, density):
        spec = InstanceSpec("edge-random", n=n, seed=seed, density=density)
        assert generate(spec) == edge_random_graph(n, density, seed)

    @pytest.mark.parametrize("n", [10, 14])
    def test_edge_random_matches_edge_by_edge_referee_at_larger_n(self, n):
        spec = InstanceSpec("edge-random", n=n, seed=n, density=Fraction(1, 2))
        assert generate(spec) == edge_random_graph(n, Fraction(1, 2), n)

    def test_edge_random_never_empty(self):
        g = generate(InstanceSpec("edge-random", n=4, density=Fraction(0), seed=1))
        assert vertex_list(g) == [0] and edge_list(g) == []

    @pytest.mark.parametrize("n, k, t, size", [
        (8, 3, 1, 12), (10, 4, 2, 40), (9, 5, 3, 25),
        (6, 3, 0, 10), (7, 0, 0, 3), (7, 7, 0, 2),  # t = 0
        (7, 3, 3, 5), (6, 6, 6, 4), (5, 2, 2, 1),  # t = k
        (5, 2, 1, 20), (6, 3, 2, 30), (4, 2, 0, 9),  # size above C(n, k): the attempt cap ends the draws
    ])
    @pytest.mark.parametrize("seed", [0, 1, 7, 2**64 - 1])
    def test_t_intersecting_matches_the_plain_referee(self, n, k, t, size, seed):
        members = t_intersecting_members(n, k, t, size, seed)
        assert random_t_intersecting_family(n, k, t, size, seed) == UniformFamily.of(n, members, k)

    def test_colouring_kinds(self):
        c = generate(InstanceSpec("antipodal-colouring", n=3, seed=2))
        assert isinstance(c, EdgeColouring)
        c2 = generate(InstanceSpec("random-colouring", n=3, seed=2))
        assert isinstance(c2, EdgeColouring)

    def test_family_kinds(self):
        f = generate(InstanceSpec("random-family", n=4, density=Fraction(1, 4), seed=3))
        assert isinstance(f, SetFamily)
        f2 = generate(InstanceSpec("t-intersecting-family", n=8, k=3, t=1, size=10, seed=3))
        assert f2.k == 3

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            generate(InstanceSpec("mystery", n=3))

    def test_missing_parameter(self):
        with pytest.raises(ValueError):
            generate(InstanceSpec("induced-random", n=3))

    @pytest.mark.parametrize("spec, items", [
        # 2^n vertices and n 2^(n-1) edges
        (InstanceSpec("full-cube", n=3), 8 + 12),
        (InstanceSpec("induced-random", n=3, density=Fraction(1, 2)), 8 + 12),
        (InstanceSpec("edge-random", n=3, density=Fraction(1, 2)), 8 + 12),
        (InstanceSpec("hamming-ball", n=3, radius=1), 8 + 12),
        (InstanceSpec("disjoint-cubes", n=3, subdim=1, copies=2), 8 + 12),
        (InstanceSpec("full-cube", n=0), 1),
        (InstanceSpec("random-family", n=4, density=Fraction(1, 2)), 16),
        # min(size, C(n, k)) members
        (InstanceSpec("t-intersecting-family", n=6, k=3, t=1, size=30), 20),
        (InstanceSpec("t-intersecting-family", n=6, k=3, t=1, size=7), 7),
    ])
    def test_max_items_refuses_above_the_cap_only(self, spec, items):
        assert generate(spec, max_items=items) == generate(spec)
        with pytest.raises(ValueError, match=f"{spec.kind} instance at n={spec.n} could hold {items} items, "
                                             f"over the cap of {items - 1}"):
            generate(spec, max_items=items - 1)

    @pytest.mark.parametrize("spec, message", [
        (InstanceSpec("full-cube", n=30), "dimension 30 outside"),
        (InstanceSpec("induced-random", n=3), "need the 'density' parameter"),
        (InstanceSpec("hamming-ball", n=3), "need the 'radius' parameter"),
        (InstanceSpec("hamming-ball", n=3, radius=1, centre=9), "centre 9 is not a vertex"),
        (InstanceSpec("disjoint-cubes", n=3, subdim=2, copies=3), "cannot place 3 disjoint 2-cubes"),
        (InstanceSpec("random-family", n=3), "need the 'density' parameter"),
        (InstanceSpec("t-intersecting-family", n=6, k=3, t=4, size=30), "need 0 <= t <= k <= n"),
        (InstanceSpec("t-intersecting-family", n=6, k=-1, t=0, size=30), "need 0 <= t <= k <= n"),
        (InstanceSpec("t-intersecting-family", n=6, k=3, t=1, size=0), "size must be at least 1"),
        (InstanceSpec("random-colouring", n=17), "colouring dimension 17 outside"),
    ])
    def test_max_items_comes_after_every_other_check(self, spec, message):
        with pytest.raises(ValueError, match=message):
            generate(spec, max_items=0)


class TestSerialize:
    def test_graph_roundtrip(self):
        g = generate(InstanceSpec("induced-random", n=5, density=Fraction(1, 2), seed=8))
        assert obj_to_graph(json.loads(dumps(graph_to_obj(g)))) == g

    def test_colouring_roundtrip(self):
        c = generate(InstanceSpec("random-colouring", n=4, seed=9))
        assert obj_to_colouring(json.loads(dumps(colouring_to_obj(c)))) == c

    def test_family_roundtrip(self):
        f = generate(InstanceSpec("random-family", n=5, density=Fraction(1, 3), seed=10))
        assert obj_to_family(json.loads(dumps(family_to_obj(f)))) == f

    def test_file_roundtrip(self, tmp_path):
        g = generate(InstanceSpec("full-cube", n=3))
        path = str(tmp_path / "g.json")
        save_json(path, graph_to_obj(g))
        assert load_instance(path) == g

    def test_truncated_file(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text(dumps(graph_to_obj(generate(InstanceSpec("full-cube", n=2))))[:25])
        with pytest.raises(ParseError) as exc:
            load_json(str(path))
        assert "line" in str(exc.value)

    def test_bad_fields(self):
        with pytest.raises(ParseError):
            obj_to_graph({"n": 2, "vertices": [0], "edges": [[0]]})
        with pytest.raises(ParseError):
            obj_to_graph({"n": 2, "vertices": "zero", "edges": []})
        with pytest.raises(ParseError):
            obj_to_colouring({"n": 1, "pairs": [[0, 0, "green"]]})
        with pytest.raises(ParseError):
            obj_to_family({"n": 2, "sets": [0.5]})

    def test_missing_field_is_named(self):
        with pytest.raises(ParseError) as exc:
            obj_to_graph({"n": 2, "vertices": [0]})
        assert "edges" in str(exc.value)

    @pytest.mark.parametrize(
        "obj",
        [
            {"n": True, "vertices": [0, 1], "edges": [[0, 0]]},
            {"n": 1, "vertices": [0, True], "edges": [[0, 0]]},
            {"n": 1, "vertices": [0, 1], "edges": [[False, 0]]},
            {"n": 1, "vertices": [0, 1], "edges": [[0, False]]},
            {"n": True, "pairs": [[0, 0, "red"]]},
            {"n": 1, "pairs": [[False, 0, "red"]]},
            {"n": 1, "pairs": [[0, False, "red"]]},
            {"n": True, "sets": [0]},
            {"n": 1, "sets": [0, True]},
        ],
    )
    def test_json_bool_is_not_an_int(self, obj, tmp_path, capsys):
        path = str(tmp_path / "bool.json")
        save_json(path, obj)
        with pytest.raises(ParseError):
            load_instance(path)
        assert main(["analyze", "--file", path]) == 1
        assert capsys.readouterr().err.startswith("cubegeo: parse error: ")

    @pytest.mark.parametrize(
        "obj",
        [
            {"n": 1, "vertices": [0, 1], "edges": [[0, 0]]},
            {"n": 1, "pairs": [[0, 0, "red"]]},
            {"n": 1, "sets": [0, 1]},
        ],
    )
    def test_bool_cases_are_valid_with_ints(self, obj, tmp_path):
        path = str(tmp_path / "int.json")
        save_json(path, obj)
        load_instance(path)
        assert main(["analyze", "--file", path, "--out", str(tmp_path / "r.json")]) == 0


class TestRunVerify:
    def test_t4_passes_and_reruns_identically(self):
        spec = InstanceSpec("induced-random", n=6, density=Fraction(1, 2))
        r1 = run_verify("T4", spec, 40, seed=11)
        r2 = run_verify("T4", spec, 40, seed=11)
        assert r1["pass"] and dumps(r1) == dumps(r2)
        assert Fraction(r1["aggregate"]["min_slack"]) >= 0

    def test_jobs_do_not_change_report(self):
        spec = InstanceSpec("edge-random", n=5, density=Fraction(1, 2))
        serial = run_verify("T2", spec, 30, seed=12, jobs=1)
        parallel = run_verify("T2", spec, 30, seed=12, jobs=4)
        assert dumps(serial) == dumps(parallel)

    @pytest.mark.parametrize(
        "theorem,spec",
        [
            ("T2", InstanceSpec("induced-random", n=5, density=Fraction(1, 2))),
            ("T5", InstanceSpec("induced-random", n=4, density=Fraction(3, 5))),
            ("FS", InstanceSpec("edge-random", n=5, density=Fraction(1, 2))),
            ("COMP", InstanceSpec("random-family", n=4, density=Fraction(1, 2))),
            ("KAT", InstanceSpec("t-intersecting-family", n=9, k=4, t=2, size=12)),
            ("COR", InstanceSpec("random-colouring", n=5)),
        ],
    )
    def test_each_theorem_job_passes(self, theorem, spec):
        report = run_verify(theorem, spec, 25, seed=13)
        assert report["pass"]
        assert report["aggregate"]["violations"] == 0

    def test_unknown_theorem(self):
        with pytest.raises(ValueError):
            run_verify("T9", InstanceSpec("full-cube", n=2), 1)

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_violation_embeds_instance(self, monkeypatch, jobs):
        """The embed-on-violation plumbing is unreachable with true
        invariants, so force a failing record; the embedded graph is the
        graph file's object, from a forked worker too."""
        import cubegeo.harness.verify as verify_mod

        monkeypatch.setattr(generators, "_usable_cpus", lambda: 2)
        monkeypatch.setattr(
            verify_mod, "_t4_record", lambda g: {"slack": "-1", "ok": False}
        )
        report = run_verify("T4", InstanceSpec("full-cube", n=3), 2, seed=1, jobs=jobs)
        assert not report["pass"]
        assert report["aggregate"]["violations"] == 2
        instance = generate(InstanceSpec("full-cube", n=3))
        for record in report["records"]:
            assert record["violation"] == json.loads(dumps(instance))
            assert obj_to_graph(record["violation"]) == instance

    def test_record_looked_up_when_called(self, monkeypatch):
        import cubegeo.harness.verify as verify_mod

        calls = []
        record = verify_mod._verify_record

        def counting(theorem, template, root_seed, index):
            calls.append(index)
            return record(theorem, template, root_seed, index)

        monkeypatch.setattr(verify_mod, "_verify_record", counting)
        run_verify("COR", InstanceSpec("random-colouring", n=3), 37, seed=2)
        assert calls == list(range(37))

    @pytest.mark.parametrize("trials, sizes", [
        (1, [1]), (37, [3] * 12 + [1]), (5000, [313] * 15 + [305]), (20000, [1024] * 19 + [544]),
    ])
    def test_block_sizes_depend_on_trials_only(self, monkeypatch, trials, sizes):
        """ceil(trials / 16) records a block, at most 1024."""
        import cubegeo.harness.verify as verify_mod

        seen = []

        def count_block(theorem, templates, root_seed, start, stop):
            seen.append(stop - start)
            return [{"ok": True, "slack": None}] * (stop - start)

        monkeypatch.setattr(verify_mod, "_verify_block", count_block)
        run_verify("COR", InstanceSpec("random-colouring", n=3), trials)
        assert seen == sizes

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_short_cor_path_is_a_violation(self, tmp_path, monkeypatch, jobs):
        """COR's bound is checked in its record alone: a half geodesic
        below ceil(n/2) ends in exit 2 with the colouring embedded, from a
        forked worker too."""
        import cubegeo.colourings as colourings_mod

        monkeypatch.setattr(generators, "_usable_cpus", lambda: 2)
        monkeypatch.setattr(colourings_mod, "longest_geodesic_lower_bound", lambda g: GeodesicPath((0,)))
        out = tmp_path / "cor.json"
        argv = ["verify", "--theorem", "COR", "--n", "4", "--trials", "3", "--seed", "1"]
        assert main(argv + ["--jobs", str(jobs), "--out", str(out)]) == 2
        report = load_json(str(out))
        assert report["aggregate"]["violations"] == 3
        for index, record in enumerate(report["records"]):
            assert record["geodesic_length"] == 0 and record["slack"] == "-2"
            spec = InstanceSpec("random-colouring", n=4, seed=derive(1, index))
            assert obj_to_colouring(record["violation"]) == generate(spec)

    @pytest.mark.parametrize("seed", [0, 1, 7])
    def test_kat_at_k_zero(self, tmp_path, seed):
        """The only 0-set is the empty set, so every 0-uniform family is
        {∅}, and KAT holds on it."""
        assert members(random_t_intersecting_family(5, 0, 0, 3, seed)) == [0]
        out = tmp_path / "kat.json"
        argv = ["verify", "--theorem", "KAT", "--model", "t-intersecting-family", "--n", "5",
                "--k", "0", "--t", "0", "--size", "3", "--trials", "20", "--seed", str(seed)]
        assert main(argv + ["--out", str(out)]) == 0
        report = load_json(str(out))
        assert report["pass"] is True and report["aggregate"]["violations"] == 0
        assert {r["members"] for r in report["records"]} == {1}

    def test_full_cube_t2_tight(self):
        for d in range(1, 7):
            report = run_verify("T2", InstanceSpec("full-cube", n=d), 1)
            assert report["pass"]
            assert report["records"][0]["slack"] == "0"

    def test_disjoint_cubes_t5_equality(self):
        spec = InstanceSpec("disjoint-cubes", n=6, subdim=3, copies=2)
        report = run_verify("T5", spec, 1)
        assert report["pass"]
        assert report["aggregate"]["min_slack"] == "0"
        assert report["records"][0]["count"] == 48  # 3! * 16 / 2


def _counting(counts, name, fn):
    """``fn``, counting its calls in ``counts[name]``."""
    def wrapper(*args):
        counts[name] += 1
        return fn(*args)
    return wrapper


class TestRunSearch:
    def test_exhaustive_counts(self):
        assert run_search("NORINE", "exhaustive", 2)["aggregate"]["checked"] == 4
        assert run_search("B", "exhaustive", 2)["aggregate"]["checked"] == 16

    def test_sample_mode(self):
        r = run_search("A", "sample", 5, budget=50, seed=14)
        assert r["pass"] and r["aggregate"]["checked"] == 50
        assert "min_changes" in r["aggregate"]
        assert r["aggregate"]["min_changes"]["min"] >= 0

    def test_sample_needs_budget(self):
        with pytest.raises(ValueError):
            run_search("A", "sample", 4)

    def test_exhaustive_caps(self):
        with pytest.raises(ValueError):
            run_search("A", "exhaustive", 5)
        with pytest.raises(ValueError):
            run_search("B", "exhaustive", 4)

    def test_jobs_do_not_change_report(self):
        serial = run_search("B", "exhaustive", 3, jobs=1)
        parallel = run_search("B", "exhaustive", 3, jobs=4)
        assert dumps(serial) == dumps(parallel)

    def test_jobs_do_not_change_short_sample_report(self):
        serial = run_search("A", "sample", 5, budget=40, seed=15, jobs=1)
        parallel = run_search("A", "sample", 5, budget=40, seed=15, jobs=4)
        assert dumps(serial) == dumps(parallel)

    @pytest.mark.parametrize(
        "mode, n, budget, sizes",
        [
            ("exhaustive", 4, None, [1024] * 64),
            ("sample", 6, 100, [7] * 14 + [2]),
            ("sample", 6, 5000, [313] * 15 + [305]),
        ],
    )
    def test_block_sizes_depend_on_space_only(self, monkeypatch, mode, n, budget, sizes):
        """Even a short sample run splits into blocks a pool can share."""
        import cubegeo.harness.search as search_mod

        seen = []

        def count_block(conjecture, mode, n, seed, collect_changes, start, stop):
            seen.append(stop - start)
            return {"checked": stop - start, "fail": None, "kinds": {}, "changes": {}}

        monkeypatch.setattr(search_mod, "_search_block", count_block)
        run_search("A", mode, n, budget=budget)
        assert seen == sizes

    @pytest.mark.parametrize(
        "conjecture, mode, n, budget, checker, builder, calls",
        [
            ("NORINE", "exhaustive", 3, None,
             "find_monochromatic_antipodal_path", "antipodal_colouring_from_index", 64),
            ("A", "exhaustive", 3, None,
             "find_monochromatic_antipodal_geodesic", "antipodal_colouring_from_index", 64),
            ("B", "exhaustive", 3, None,
             "find_one_change_antipodal_geodesic", "colouring_from_index", 4096),
            ("NORINE", "sample", 4, 30,
             "find_monochromatic_antipodal_path", "random_antipodal_colouring", 30),
            ("B", "sample", 3, 30,
             "find_one_change_antipodal_geodesic", "random_colouring", 30),
        ],
    )
    def test_checkers_and_builders_looked_up_when_called(
        self, monkeypatch, conjecture, mode, n, budget, checker, builder, calls
    ):
        """A wrapper bound over a search.py name after import (as a tracer
        binds one) sees every call. Both modes call the builder once per
        colouring, and the conjecture's checker only for a colouring that
        fits no earlier witness of its block; each witness the checker
        finds is validated once. Exhaustive sweeps reuse most witnesses."""
        import cubegeo.harness.search as search_mod

        names = (
            "find_monochromatic_antipodal_path", "find_monochromatic_antipodal_geodesic",
            "find_one_change_antipodal_geodesic", "antipodal_colouring_from_index",
            "colouring_from_index", "random_antipodal_colouring", "random_colouring",
            "validate_witness",
        )
        counts = dict.fromkeys(names, 0)
        for name in names:
            monkeypatch.setattr(search_mod, name, _counting(counts, name, getattr(search_mod, name)))
        report = run_search(conjecture, mode, n, budget=budget)
        assert report["aggregate"]["checked"] == calls
        assert counts.pop(builder) == calls
        checks = counts.pop(checker)
        assert 0 < checks == counts.pop("validate_witness") <= calls
        assert counts == dict.fromkeys(counts, 0)
        if mode == "exhaustive":
            assert checks < calls

    @pytest.mark.parametrize(
        "conjecture, n, checker, calls",
        [
            ("NORINE", 4, "find_monochromatic_antipodal_path", 1026),
            ("A", 4, "find_monochromatic_antipodal_geodesic", 938),
            ("NORINE", 3, "find_monochromatic_antipodal_path", 35),
            ("A", 3, "find_monochromatic_antipodal_geodesic", 35),
            ("B", 3, "find_one_change_antipodal_geodesic", 111),
            ("B", 2, "find_one_change_antipodal_geodesic", 16),
        ],
    )
    def test_exhaustive_checker_calls_are_pinned(self, monkeypatch, conjecture, n, checker, calls):
        """The colourings that reach the checker are those that fit none
        of their block's earlier witnesses, whatever order the sweep
        tries them in: the exact checker and ``validate_witness`` counts
        of an exhaustive run. A sweep whose witness order changed which
        colourings are checked fails here."""
        import cubegeo.harness.search as search_mod

        counts = dict.fromkeys((checker, "validate_witness"), 0)
        for name in counts:
            monkeypatch.setattr(search_mod, name, _counting(counts, name, getattr(search_mod, name)))
        report = run_search(conjecture, "exhaustive", n)
        assert report["pass"] and report["aggregate"]["checked"] == report["aggregate"]["space"]
        assert counts == {checker: calls, "validate_witness": calls}

    @pytest.mark.parametrize("conjecture", ["NORINE", "A"])
    @pytest.mark.parametrize("n, k", [(3, 0), (3, 37), (4, 0), (4, 37), (4, 1023), (4, 65535)])
    def test_planted_counterexample_is_reported(self, monkeypatch, conjecture, n, k):
        """A colouring without a monochromatic antipodal path, planted at
        index k, fits none of the witnesses found before it: the sweep
        reports it, and ``checked``, the witness kinds and the min-change
        statistic all stop at k."""
        import cubegeo.harness.search as search_mod

        planted = direction_split(n)
        build = search_mod.antipodal_colouring_from_index
        monkeypatch.setattr(search_mod, "antipodal_colouring_from_index",
                            lambda n, index: planted if index == k else build(n, index))
        report = run_search(conjecture, "exhaustive", n)
        assert not report["pass"]
        assert report["records"] == [{"index": k, "colouring": colouring_to_obj(planted)}]
        assert report["aggregate"]["checked"] == k + 1
        assert sum(report["aggregate"]["witness_kinds"].values()) == k
        if n <= 3:
            values = [min_colour_changes_antipodal(build(n, i))[0] for i in range(k)]
            assert report["aggregate"]["min_changes"] == (
                {"min": min(values), "max": max(values), "mean": str(Fraction(sum(values), k))}
                if k else None
            )

    @pytest.mark.parametrize(
        "conjecture, n, k",
        [("NORINE", 2, 0), ("A", 3, 37), ("B", 3, 1000), ("NORINE", 4, 5000), ("A", 4, 65535)],
    )
    def test_dropped_lane_reports_like_a_failed_check(self, monkeypatch, conjecture, n, k):
        """A sweep that loses the verdict of colouring k (its lane k)
        gives, byte for byte, the report of a per-colouring sweep without
        witness reuse whose checker finds nothing at index k: the
        counterexample, ``checked``, the witness kinds and the min-change
        statistic all stop at k."""
        import cubegeo.harness.search as search_mod

        sweep = search_mod._sweep

        def dropping(check, build, n, keys):
            for key, (c, kind) in zip(keys, sweep(check, build, n, keys)):
                yield c, None if key == k else kind

        monkeypatch.setattr(search_mod, "_sweep", dropping)
        reuse_report = dumps(run_search(conjecture, "exhaustive", n))
        monkeypatch.undo()

        def per_colouring(check, build, n, keys):
            for key in keys:
                c = build(n, key)
                w = None if key == k else check(c)
                yield c, None if w is None else w.kind

        monkeypatch.setattr(search_mod, "_sweep", per_colouring)
        colouring_report = dumps(run_search(conjecture, "exhaustive", n))
        assert reuse_report == colouring_report
        report = json.loads(reuse_report)
        assert report["records"][0]["index"] == k
        assert report["aggregate"]["checked"] == k + 1
        assert sum(report["aggregate"]["witness_kinds"].values()) == k

    @pytest.mark.parametrize("which", [0, 1, -1])
    def test_failed_check_on_b_is_reported(self, monkeypatch, which):
        """B holds at n = 3, so its counterexample is planted in the
        checker: it finds nothing for one colouring that the sweep hands
        it (the first, the second or the last one)."""
        import cubegeo.harness.search as search_mod

        check = search_mod.find_one_change_antipodal_geodesic
        searched = []

        def recording(c):
            searched.append(c)
            return check(c)

        monkeypatch.setattr(search_mod, "find_one_change_antipodal_geodesic", recording)
        run_search("B", "exhaustive", 3)
        planted = searched[which]
        index = next(i for i in range(1 << 12) if colouring_from_index(3, i) == planted)
        monkeypatch.setattr(search_mod, "find_one_change_antipodal_geodesic",
                            lambda c: None if c == planted else check(c))
        report = run_search("B", "exhaustive", 3)
        assert report["records"] == [{"index": index, "colouring": colouring_to_obj(planted)}]
        assert report["aggregate"]["checked"] == index + 1
        assert sum(report["aggregate"]["witness_kinds"].values()) == index

    def test_unknown_conjecture_and_mode(self):
        with pytest.raises(ValueError):
            run_search("C", "exhaustive", 2)
        with pytest.raises(ValueError):
            run_search("A", "turbo", 2)


class TestSweep:
    """The one colouring sweep of both search modes, run past every
    colouring without a witness, against the per-colouring checkers."""

    @pytest.mark.parametrize("check", [find_monochromatic_antipodal_path,
                                       find_monochromatic_antipodal_geodesic,
                                       find_one_change_antipodal_geodesic])
    @pytest.mark.parametrize("build, n, total", [
        (antipodal_colouring_from_index, 2, 1 << 2), (antipodal_colouring_from_index, 3, 1 << 6),
        (colouring_from_index, 2, 1 << 4), (colouring_from_index, 3, 1 << 12),
    ])
    def test_every_colouring_gets_the_checkers_verdict(self, build, n, total, check):
        swept = list(_sweep(check, build, n, range(total)))
        assert [c for c, _ in swept] == [build(n, i) for i in range(total)]
        verdicts = [check(c) for c, _ in swept]
        assert [kind for _, kind in swept] == [None if w is None else w.kind for w in verdicts]


class TestDerive:
    @given(st.integers(0, 2**32), st.integers(0, 1000), st.integers(0, 1000))
    @settings(max_examples=50)
    def test_distinct_indices_distinct_seeds(self, root, i, j):
        if i != j:
            assert derive(root, i) != derive(root, j)


def _count_forks(monkeypatch) -> list:
    """Wrap the real ``os.fork``: the returned list gets each child's pid."""
    forks, fork = [], os.fork

    def counting():
        pid = fork()
        if pid:
            forks.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counting)
    return forks


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _cpu_mask():
    """The CPUs this process may run on, where the OS says."""
    return os.sched_getaffinity(0) if hasattr(os, "sched_getaffinity") else None


def _item(x):
    """A JSON-shaped result with an int-keyed dict, as search blocks give."""
    return {"x": x, "squares": {x: x * x}, "pair": [x, None], "ok": x % 2 == 0}


def _block(start, stop):
    return [_item(x) for x in range(start, stop)]


class TestPoolMap:
    """``pool_map`` runs block c on worker c % W: the caller for worker 0,
    forked children for the rest."""

    @pytest.mark.parametrize("jobs, total, sizes, workers", [
        (2, 17, [2] * 8 + [1], 2),
        (3, 17, [2] * 8 + [1], 3),
        (4, 17, [2] * 8 + [1], 4),
        (2, 50, [4] * 12 + [2], 2),
        (9, 2, [1, 1], 2),
        (1, 0, [], 1),
        (2, 0, [], 1),
    ])
    def test_results_in_order_for_any_worker_count(self, monkeypatch, jobs, total, sizes, workers):
        monkeypatch.setattr(generators, "_usable_cpus", lambda: jobs)
        forks = _count_forks(monkeypatch)
        results = list(pool_map(_block, total, jobs))
        assert [len(block) for block in results] == sizes
        assert [item for block in results for item in block] == [_item(x) for x in range(total)]
        assert len(forks) == workers - 1
        _assert_no_child_left()

    def test_workers_bounded_by_the_block_count(self, monkeypatch):
        forks = _count_forks(monkeypatch)
        assert list(pool_map(_block, 3, 10**6)) == [[_item(x)] for x in range(3)]
        assert len(forks) <= 2
        _assert_no_child_left()

    def test_one_usable_cpu_forks_nothing(self, monkeypatch):
        monkeypatch.setattr(generators, "_usable_cpus", lambda: 1)
        forks = _count_forks(monkeypatch)
        assert list(pool_map(_block, 3, 10**6)) == [[_item(x)] for x in range(3)]
        assert forks == []

    @pytest.mark.parametrize("error", [ValueError, KeyError, ParseError])
    def test_worker_exception_matches_serial(self, monkeypatch, error):
        """Of 48 items, item 4 is in block 1 (3 items a block), a forked
        worker's; its exception comes back in the caller with the type and
        message of a serial run."""
        monkeypatch.setattr(generators, "_usable_cpus", lambda: 2)

        def fn(start, stop):
            if start <= 4 < stop:
                raise error("item 4 failed")
            return _block(start, stop)

        with pytest.raises(error) as serial:
            list(pool_map(fn, 48, 1))
        forks = _count_forks(monkeypatch)
        with pytest.raises(error) as forked:
            list(pool_map(fn, 48, 2))
        assert len(forks) == 1
        assert type(forked.value) is error and str(forked.value) == str(serial.value)
        _assert_no_child_left()

    def test_worker_exception_keeps_the_worker_traceback(self, monkeypatch):
        """Item 4 fails in block 1, a forked worker's; the exception's
        formatted traceback names the function that raised it there."""
        monkeypatch.setattr(generators, "_usable_cpus", lambda: 2)

        def fails_in_the_worker(start, stop):
            if start <= 4 < stop:
                raise ValueError("item 4 failed")
            return _block(start, stop)

        with pytest.raises(ValueError, match="^item 4 failed$") as forked:
            list(pool_map(fails_in_the_worker, 48, 2))
        cause = forked.value.__cause__
        assert "in fails_in_the_worker" in str(cause)
        assert str(cause).rstrip().endswith("ValueError: item 4 failed")
        assert "in fails_in_the_worker" in "".join(traceback.format_exception(
            type(forked.value), forked.value, forked.value.__traceback__))
        _assert_no_child_left()

    @pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="no CPU affinity calls here")
    @pytest.mark.parametrize("workers", [2, 3])
    def test_workers_are_pinned_only_where_they_fill_the_callers_set(self, monkeypatch, workers):
        """With the caller's set cut to its first k CPUs: at k == W, worker w
        runs on the w-th CPU alone and the caller on the first during the
        map; at any other k every worker keeps the whole set. Either way the
        caller's mask is back after a full run, a worker's exception and a
        close mid-sweep. The pinned case needs W CPUs; k runs over 1..W+1
        where the runner has them."""
        monkeypatch.setattr(generators, "_usable_cpus", lambda: workers)
        mask = os.sched_getaffinity(0)
        cpus = sorted(mask)

        def where(start, stop):  # 9 indices: 9 blocks of one, block c on worker c % workers
            return os.getpid(), sorted(os.sched_getaffinity(0))

        def fails(start, stop):
            if start == 1:
                raise ValueError("block 1 failed")
            return where(start, stop)

        for k in range(1, min(workers + 1, len(cpus)) + 1):
            pinned = k == workers
            os.sched_setaffinity(0, cpus[:k])
            try:
                results = list(pool_map(where, 9, workers))
                assert os.sched_getaffinity(0) == set(cpus[:k])
                with pytest.raises(ValueError, match="^block 1 failed$"):
                    list(pool_map(fails, 9, workers))
                assert os.sched_getaffinity(0) == set(cpus[:k])
                with closing(pool_map(where, 9, workers)) as blocks:  # closed mid-sweep, also on a failed assert
                    assert next(blocks) == (os.getpid(), cpus[:1] if pinned else cpus[:k])
                    next(blocks)
                assert os.sched_getaffinity(0) == set(cpus[:k])
            finally:
                os.sched_setaffinity(0, mask)
            want = [[cpus[c % workers]] for c in range(9)] if pinned else [cpus[:k]] * 9
            assert [cpus_seen for _, cpus_seen in results] == want, f"caller on {cpus[:k]}"
            pids = [pid for pid, _ in results]
            assert pids == [pids[c % workers] for c in range(9)] and pids[0] == os.getpid()
            assert len(set(pids)) == workers
            _assert_no_child_left()

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_first_block_comes_at_once_from_2_to_the_62_indices(self, jobs):
        """The blocks are not listed before the first one runs: in 1 GiB of
        address space, 2^52 blocks of 1024 indices give the first block
        within the timeout, and closing the generator reaps the worker."""
        script = (
            "import os, resource\n"
            "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n"
            "from cubegeo.harness import generators\n"
            "generators._usable_cpus = lambda: 2\n"
            f"blocks = generators.pool_map(lambda start, stop: (start, stop), 1 << 62, {jobs})\n"
            "print(next(blocks), next(blocks))\n"
            "blocks.close()\n"
            "try:\n"
            "    os.waitpid(-1, os.WNOHANG)\n"
            "except ChildProcessError:\n"
            "    print('no child left')\n"
        )
        result = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, timeout=60)
        assert result.returncode == 0, result.stderr
        assert result.stdout == "(0, 1024) (1024, 2048)\nno child left\n"

    @pytest.mark.skipif(len(_cpu_mask() or ()) < 2, reason="pins need two CPUs and the affinity calls")
    @pytest.mark.parametrize("refused_in", [("caller",), ("child",), ("caller", "child")],
                             ids=["caller", "child", "both"])
    def test_refused_pin_changes_nothing(self, refused_in):
        """Where the OS refuses a pin, in the caller, in the children or in
        both, the run goes on unpinned: the results are the serial ones, every
        child is reaped, and none runs the caller's code after the map. The
        caller's set is cut to its first 3 CPUs (2 on a 2-CPU runner), and W
        fills it, so every worker pins."""
        workers = min(3, len(_cpu_mask()))
        script = (
            "import os\n"
            "from cubegeo.harness import generators\n"
            f"os.sched_setaffinity(0, sorted(os.sched_getaffinity(0))[:{workers}])\n"
            f"generators._usable_cpus = lambda: {workers}\n"
            "parent, pin = os.getpid(), os.sched_setaffinity\n"
            "def refuse(pid, cpus):\n"
            "    who = 'caller' if os.getpid() == parent else 'child'\n"
            f"    if who in {refused_in!r}:\n"
            "        os.write(2, f'{who} refused\\n'.encode())\n"
            "        raise OSError(22, 'Invalid argument')\n"
            "    pin(pid, cpus)\n"
            "os.sched_setaffinity = refuse\n"
            "fn = lambda start, stop: [x * x for x in range(start, stop)]\n"
            f"print(list(generators.pool_map(fn, 100, {workers})) == list(generators.pool_map(fn, 100, 1)))\n"
            "try:\n"
            "    os.waitpid(-1, os.WNOHANG)\n"
            "except ChildProcessError:\n"
            "    print('no child left')\n"
        )
        result = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, timeout=60)
        assert result.returncode == 0, result.stderr
        assert result.stdout == "True\nno child left\n"
        # the caller pins itself and restores its mask; each of the W - 1 children pins itself once
        want = {"caller": 2, "child": workers - 1}
        assert sorted(result.stderr.splitlines()) == sorted(f"{who} refused" for who in refused_in
                                                             for _ in range(want[who]))

    def test_worker_death_raises_at_once(self):
        script = (
            "import os\n"
            "from cubegeo.harness import generators\n"
            "generators._usable_cpus = lambda: 2\n"
            "parent = os.getpid()\n"
            "list(generators.pool_map(lambda start, stop: os._exit(3) if os.getpid() != parent else start, 4, 2))\n"
        )
        result = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, timeout=60)
        assert result.returncode == 1
        assert result.stderr.splitlines()[-1] == "RuntimeError: worker 1 ended before sending block 1"

    @pytest.mark.parametrize("k", [37, 5000, 65535])
    def test_counterexample_leaves_no_child(self, monkeypatch, k):
        """At --jobs 3 a planted counterexample in the caller's block 0, a
        child's block 1 or the last block stops the sweep; every child is
        reaped, and the caller's CPU mask is what it was."""
        import cubegeo.harness.search as search_mod

        monkeypatch.setattr(generators, "_usable_cpus", lambda: 3)
        planted = direction_split(4)
        build = search_mod.antipodal_colouring_from_index
        monkeypatch.setattr(search_mod, "antipodal_colouring_from_index",
                            lambda n, index: planted if index == k else build(n, index))
        forks = _count_forks(monkeypatch)
        mask = _cpu_mask()
        report = run_search("A", "exhaustive", 4, jobs=3)
        assert report["records"] == [{"index": k, "colouring": colouring_to_obj(planted)}]
        assert report["aggregate"]["checked"] == k + 1
        assert len(forks) == 2
        assert _cpu_mask() == mask
        _assert_no_child_left()


class TestCli:
    def test_gen_analyze_roundtrip(self, tmp_path, capsys):
        out = str(tmp_path / "g.json")
        assert main(["gen", "--model", "full-cube", "--n", "3", "--out", out]) == 0
        report_path = str(tmp_path / "r.json")
        assert main(["analyze", "--file", out, "--out", report_path]) == 0
        report = load_json(report_path)
        assert report["pass"] is True
        assert report["records"][0]["average_degree"] == "3"

    def test_verify_cli_deterministic_across_jobs(self, tmp_path):
        a, b = str(tmp_path / "a.json"), str(tmp_path / "b.json")
        argv = ["verify", "--theorem", "T4", "--trials", "20", "--n", "5", "--seed", "21"]
        assert main(argv + ["--jobs", "1", "--out", a]) == 0
        assert main(argv + ["--jobs", "3", "--out", b]) == 0
        assert Path(a).read_bytes() == Path(b).read_bytes()

    def test_search_cli(self, tmp_path):
        out = str(tmp_path / "s.json")
        code = main(["search", "--conjecture", "NORINE", "--mode", "exhaustive", "--n", "2", "--out", out])
        assert code == 0
        report = load_json(out)
        assert report["aggregate"]["checked"] == 4 and report["pass"] is True

    def test_parse_error_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["analyze", "--file", str(bad)]) == 1
        assert "parse error" in capsys.readouterr().err

    def test_analyze_rejects_a_bad_witness(self, tmp_path, monkeypatch, capsys):
        """analyze validates every witness it reports, as search does: a
        checker that returns a broken path exits 1 with one line and
        writes no report."""
        import cubegeo.harness.search as search_mod

        colouring, out = str(tmp_path / "c.json"), tmp_path / "r.json"
        assert main(["gen", "--model", "antipodal-colouring", "--n", "4", "--out", colouring]) == 0
        monkeypatch.setattr(search_mod, "find_monochromatic_antipodal_geodesic",
                            lambda c: AntipodalWitness("mono-geodesic", (0, 3, 15)))
        capsys.readouterr()
        assert main(["analyze", "--file", colouring, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("cubegeo: error: ") and err.count("\n") == 1
        assert not out.exists()

    def test_usage_error_exit_code(self):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--theorem", "NOPE"])
        assert exc.value.code == 1

    def test_model_mismatch_is_usage_error(self, capsys):
        assert main(["verify", "--theorem", "T4", "--model", "random-colouring", "--n", "3"]) == 1

    @pytest.mark.parametrize("theorem", ["T2", "T4", "T5", "FS"])
    @pytest.mark.parametrize(
        "model, found",
        [("antipodal-colouring", "EdgeColouring"), ("random-family", "SetFamily")],
    )
    def test_from_file_of_wrong_type_is_usage_error(self, tmp_path, capsys, theorem, model, found):
        path = str(tmp_path / "instance.json")
        assert main(["gen", "--model", model, "--n", "3", "--out", path]) == 0
        capsys.readouterr()
        argv = ["verify", "--theorem", theorem, "--model", "from-file", "--file", path, "--trials", "2"]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.err == (
            f"cubegeo: error: {theorem} runs on CubeSubgraph instances, not {found} ({path})\n"
        )
        assert captured.out == ""

    def test_colouring_gen_roundtrip(self, tmp_path):
        out = str(tmp_path / "c.json")
        assert main(["gen", "--model", "antipodal-colouring", "--n", "3", "--seed", "4", "--out", out]) == 0
        c = load_instance(out)
        from cubegeo import is_antipodal

        assert is_antipodal(c)

    def test_stdout_report_is_json(self, capsys):
        assert main(["search", "--conjecture", "B", "--mode", "exhaustive", "--n", "2"]) == 0
        out = capsys.readouterr().out
        assert json.loads(out)["task"] == "search"

    def test_env_jobs_default(self, monkeypatch, tmp_path):
        monkeypatch.setenv("CUBEGEO_JOBS", "2")
        out = str(tmp_path / "v.json")
        assert main(["verify", "--theorem", "T4", "--trials", "8", "--n", "4", "--out", out]) == 0

    @pytest.mark.parametrize(
        "env, argv, message",
        [
            ({"CUBEGEO_JOBS": "abc"}, ["search", "--conjecture", "A", "--mode", "exhaustive", "--n", "2"],
             "CUBEGEO_JOBS must be a positive integer, got 'abc'"),
            ({}, ["search", "--conjecture", "A", "--mode", "exhaustive", "--n", "2", "--jobs", "0"],
             "--jobs must be a positive integer, got 0"),
            ({}, ["verify", "--theorem", "T4", "--n", "4", "--trials", "-3"],
             "trials must be a positive integer, got -3"),
            ({}, ["verify", "--theorem", "T4", "--n", "4", "--trials", "0"],
             "trials must be a positive integer, got 0"),
            ({}, ["verify", "--theorem", "KAT", "--model", "random-family", "--n", "5"],
             "KAT cannot run on random-family instances; it takes t-intersecting-family"),
            ({}, ["search", "--conjecture", "B", "--mode", "sample", "--n", "-2", "--budget", "3"],
             "colouring dimension -2 outside 1..16"),
            ({}, ["search", "--conjecture", "B", "--mode", "exhaustive", "--n", "-1"],
             "colouring dimension -1 outside 1..16"),
            ({}, ["verify", "--theorem", "COR", "--n", "-3"],
             "colouring dimension -3 outside 1..16"),
            ({}, ["gen", "--model", "random-family", "--n", "-1"],
             "dimension -1 outside supported range 0..24"),
            ({}, ["gen", "--model", "random-family", "--n", "25"],
             "dimension 25 outside supported range 0..24"),
            ({}, ["gen", "--model", "t-intersecting-family", "--n", "25", "--k", "4", "--t", "2",
                  "--size", "20"],
             "dimension 25 outside supported range 0..24"),
            ({}, ["verify", "--theorem", "COMP", "--n", "-1"],
             "dimension -1 outside supported range 0..24"),
            ({}, ["verify", "--theorem", "COMP", "--n", "25"],
             "dimension 25 outside supported range 0..24"),
            ({}, ["gen", "--model", "hamming-ball", "--n", "3", "--radius", "1", "--centre", "8"],
             "hamming-ball centre 8 is not a vertex of Q_3"),
            ({}, ["gen", "--model", "hamming-ball", "--n", "3", "--radius", "1", "--centre", "-1"],
             "hamming-ball centre -1 is not a vertex of Q_3"),
            ({}, ["gen", "--model", "hamming-ball", "--n", "3", "--radius", "-1"],
             "hamming-ball radius -1 is negative"),
            ({}, ["gen", "--model", "full-cube", "--n", "17"],
             "full-cube instance at n=17 could hold 1245184 items, over the cap of 1048576"),
            ({}, ["gen", "--model", "induced-random", "--n", "20"],
             "induced-random instance at n=20 could hold 11534336 items, over the cap of 1048576"),
            ({}, ["gen", "--model", "random-family", "--n", "21"],
             "random-family instance at n=21 could hold 2097152 items, over the cap of 1048576"),
            # the checks from before the cap still come first
            ({}, ["gen", "--model", "hamming-ball", "--n", "20", "--radius", "-1"],
             "hamming-ball radius -1 is negative"),
            ({}, ["gen", "--model", "t-intersecting-family", "--n", "24", "--k", "12", "--t", "13",
                  "--size", "2000000"],
             "need 0 <= t <= k <= n, got t=13 k=12 n=24"),
        ],
    )
    def test_bad_counts_exit_1_with_one_line(self, tmp_path, env, argv, message):
        out = tmp_path / "report.json"
        result = subprocess.run(
            [sys.executable, "-m", "cubegeo.harness.cli", *argv, "--out", str(out)],
            env={**os.environ, **env}, capture_output=True, text=True,
        )
        assert result.returncode == 1
        assert result.stderr == f"cubegeo: error: {message}\n"
        assert result.stdout == "" and not out.exists()

    def test_cli_import_leaves_multiprocessing_unloaded(self, tmp_path):
        """Starting the CLI never loads multiprocessing, dataclasses or
        inspect, and a --jobs 2 run on forked workers loads neither
        multiprocessing nor, as no worker fails, pickle."""
        out = str(tmp_path / "report.json")
        script = (
            "import sys, cubegeo.harness.cli\n"
            "print([m for m in ('multiprocessing', 'dataclasses', 'inspect') if m in sys.modules])\n"
            "from cubegeo.harness import generators\n"
            "generators._usable_cpus = lambda: 2\n"
            "code = cubegeo.harness.cli.main(\n"
            f"    ['verify', '--theorem', 'T2', '--n', '5', '--trials', '8', '--jobs', '2', '--out', {out!r}])\n"
            "print(code, [m for m in ('multiprocessing', 'pickle') if m in sys.modules])\n"
        )
        result = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
        assert result.returncode == 0, result.stderr
        lines = result.stdout.splitlines()
        assert lines[0] == "[]" and lines[-1] == "0 []"

    def test_worker_error_exits_like_a_serial_run(self, tmp_path, monkeypatch, capsys):
        """A colouring file under T2 fails in every record, so at --jobs 2
        a forked worker raises too; the exit code and message are those of
        --jobs 1."""
        path = str(tmp_path / "colouring.json")
        assert main(["gen", "--model", "random-colouring", "--n", "3", "--out", path]) == 0
        capsys.readouterr()
        monkeypatch.setattr(generators, "_usable_cpus", lambda: 2)
        argv = ["verify", "--theorem", "T2", "--model", "from-file", "--file", path]
        assert main(argv + ["--jobs", "1"]) == 1
        serial = capsys.readouterr()
        forks = _count_forks(monkeypatch)
        assert main(argv + ["--jobs", "2"]) == 1
        assert capsys.readouterr() == serial
        assert serial.out == "" and serial.err == (
            f"cubegeo: error: T2 runs on CubeSubgraph instances, not EdgeColouring ({path})\n"
        )
        assert len(forks) == 1
        _assert_no_child_left()

    def test_subprocess_entrypoint(self, tmp_path):
        result = subprocess.run(
            [sys.executable, "-m", "cubegeo.harness.cli",
             "search", "--conjecture", "A", "--mode", "exhaustive", "--n", "2"],
            capture_output=True, text=True,
        )
        assert result.returncode == 0
        assert json.loads(result.stdout)["pass"] is True

    def test_gen_from_file_revalidates(self, tmp_path):
        src = str(tmp_path / "src.json")
        dst = str(tmp_path / "dst.json")
        assert main(["gen", "--model", "hamming-ball", "--n", "5", "--radius", "2", "--out", src]) == 0
        assert main(["gen", "--model", "from-file", "--file", src, "--out", dst]) == 0
        assert Path(src).read_text() == Path(dst).read_text()

    def test_failing_report_exits_2(self, tmp_path, capsys):
        from cubegeo.harness.cli import _emit_report
        from cubegeo.harness.serialize import report

        bad = report("verify", {}, 0, [], {}, False)
        assert _emit_report(bad, None) == 2
        out = str(tmp_path / "fail.json")
        assert _emit_report(bad, out) == 2
        assert load_json(out)["pass"] is False

    def test_out_prints_one_summary_line(self, tmp_path, monkeypatch, capsys):
        """With --out, a run prints one line: the verdict, the task, the
        aggregates that are not dicts, and the file; a counterexample
        prints FAIL and exits 2."""
        import cubegeo.harness.search as search_mod

        monkeypatch.chdir(tmp_path)
        assert main(["gen", "--model", "full-cube", "--n", "3", "--out", "g.json"]) == 0
        capsys.readouterr()
        runs = [
            (["verify", "--theorem", "T2", "--trials", "8", "--out", "v.json"], 0,
             "PASS verify (trials=8, violations=0, min_slack=2) -> v.json\n"),
            (["search", "--conjecture", "A", "--mode", "exhaustive", "--n", "3", "--out", "s.json"], 0,
             "PASS search (space=64, checked=64, counterexamples=0) -> s.json\n"),
            (["analyze", "--file", "g.json", "--out", "a.json"], 0, "PASS analyze () -> a.json\n"),
        ]
        for argv, code, line in runs:
            assert main(argv) == code
            assert capsys.readouterr() == (line, "")
        planted = direction_split(3)
        build = search_mod.antipodal_colouring_from_index
        monkeypatch.setattr(search_mod, "antipodal_colouring_from_index",
                            lambda n, index: planted if index == 37 else build(n, index))
        assert main(["search", "--conjecture", "A", "--mode", "exhaustive", "--n", "3", "--out", "f.json"]) == 2
        assert capsys.readouterr() == ("FAIL search (space=64, checked=38, counterexamples=1) -> f.json\n", "")
        assert load_json("f.json")["pass"] is False

    @pytest.mark.parametrize("n", [30, 100_000_000])
    def test_analyze_family_beyond_the_cap_exits_1_at_once(self, tmp_path, n):
        """The family reader checks n before it builds a 2^n-bit mask, as
        the graph and colouring readers do."""
        path = tmp_path / "fam.json"
        path.write_text(json.dumps({"n": n, "sets": [1]}))
        result = subprocess.run(
            [sys.executable, "-m", "cubegeo.harness.cli", "analyze", "--file", str(path)],
            capture_output=True, text=True, timeout=60,
        )
        assert result.returncode == 1 and result.stdout == ""
        assert result.stderr == f"cubegeo: parse error: invalid family: dimension {n} outside supported range 0..24\n"

    def test_t_intersecting_family_far_above_c_n_k_ends_at_once(self):
        """No 4-uniform family on [10] has more than C(10, 4) = 210
        members, so a size target of 10^9 makes no more draws than one of
        210 does, and gives the same family as a target of 1000."""
        result = subprocess.run(
            [sys.executable, "-m", "cubegeo.harness.cli", "gen", "--model", "t-intersecting-family",
             "--n", "10", "--k", "4", "--t", "2", "--size", "1000000000"],
            capture_output=True, text=True, timeout=60,
        )
        assert result.returncode == 0, result.stderr
        assert json.loads(result.stdout) == family_to_obj(random_t_intersecting_family(10, 4, 2, 1000, 0))

    def test_analyze_family_reports_consistency(self, tmp_path):
        path = str(tmp_path / "fam.json")
        save_json(path, {"n": 2, "sets": [0, 1, 2, 3]})
        out = str(tmp_path / "famreport.json")
        assert main(["analyze", "--file", path, "--out", out]) == 0
        rec = load_json(out)["records"][0]
        assert rec["downset"] is True
        assert rec["compressed_average_degree"] == "2"
        # the square downset has a level-1 pair with |A | B| = 2 = d
        assert rec["intersecting_levels_consistent"] is False

    def test_analyze_family_builds_the_level_masks_once(self):
        """The profile, the full compression's check and the Feder-Subi
        check each read the level masks; they are built once per n."""
        import cubegeo.setfamilies as setfamilies_mod
        from cubegeo.harness.cli import _analyze_family

        setfamilies_mod._level_masks.cache_clear()
        fam = generate(InstanceSpec("random-family", n=8, seed=3, density=Fraction(1, 3)))
        first, _ = _analyze_family(fam)
        assert setfamilies_mod._level_masks.cache_info().misses == 1
        assert "intersecting_levels_consistent" in first
        assert _analyze_family(fam)[0] == first and setfamilies_mod._level_masks.cache_info().misses == 1


#: ``python -m cubegeo.harness.cli`` with an exit hook that reports the
#: collector's state last on stderr, after everything the CLI wrote.
_HOOKED_CLI = (
    "import atexit, gc, runpy, sys\n"
    "atexit.register(lambda: print('collector', gc.isenabled(), gc.get_freeze_count() > 0, file=sys.stderr))\n"
    "runpy.run_module('cubegeo.harness.cli', run_name='__main__', alter_sys=True)\n"
)


def _cyclic_garbage(run) -> int:
    """Objects in reference cycles that ``run()`` leaves, found by one
    collection after it has run with the collector off, as in a CLI
    process."""
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        with redirect_stdout(io.StringIO()):
            run()
        return gc.collect()
    finally:
        if enabled:
            gc.enable()


def _garbage_by_size(argvs) -> list[int]:
    """``_cyclic_garbage`` of ``main`` on each argv, the first run twice
    so that nothing done once per process is counted."""
    return [_cyclic_garbage(lambda: main(argv)) for argv in [argvs[0], *argvs]][1:]


class TestCollectorPolicy:
    """A CLI process runs with the cyclic collector off and ends with its
    heap frozen, which is safe while a run leaves a constant amount of
    cyclic garbage, however much work it does; ``main`` in process leaves
    the caller's collector alone."""

    @pytest.mark.parametrize("argv, code", [
        (["verify", "--theorem", "T4", "--trials", "5"], 0),
        (["--help"], 0),
        (["verify", "--trials", "x"], 1),
    ], ids=["verify", "help", "usage-error"])
    def test_a_cli_process_runs_with_the_collector_off_and_ends_frozen(self, argv, code, monkeypatch, capsys):
        monkeypatch.setenv("COLUMNS", "80")  # the same help text in process and in the child
        monkeypatch.delenv("CUBEGEO_JOBS", raising=False)
        try:
            in_process = main(argv)
        except SystemExit as exc:
            in_process = exc.code
        out, err = capsys.readouterr()
        result = subprocess.run([sys.executable, "-c", _HOOKED_CLI, *argv], capture_output=True, text=True,
                                timeout=60)
        assert in_process == result.returncode == code
        assert result.stdout == out
        assert result.stderr == err + "collector False True\n"

    def test_main_and_the_import_leave_the_callers_collector_alone(self, tmp_path):
        out = str(tmp_path / "report.json")
        for enabled in (True, False):
            before = gc.get_freeze_count()
            gc.enable() if enabled else gc.disable()
            try:
                with redirect_stdout(io.StringIO()):
                    assert main(["verify", "--theorem", "T2", "--trials", "3", "--out", out]) == 0
                assert (gc.isenabled(), gc.get_freeze_count()) == (enabled, before)
            finally:
                gc.enable()
        script = ("import gc\n"
                  "before = gc.isenabled(), gc.get_freeze_count()\n"
                  "import cubegeo.harness.cli\n"
                  "print(before, (gc.isenabled(), gc.get_freeze_count()))\n")
        result = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, timeout=60)
        assert result.stdout == "(True, 0) (True, 0)\n", result.stderr

    @pytest.mark.parametrize("theorem", THEOREMS)
    def test_verify_garbage_does_not_grow_with_the_trials(self, theorem):
        argvs = [["verify", "--theorem", theorem, "--trials", str(trials)] for trials in (2, 40)]
        small, large = _garbage_by_size(argvs)
        assert small == large

    # each small run has fewer blocks than its large run (at most 16)
    @pytest.mark.parametrize("conjecture, mode, sizes", [
        *((c, "sample", (["--n", "3", "--budget", "10"], ["--n", "3", "--budget", "300"])) for c in CONJECTURES),
        *((c, "exhaustive", (["--n", "2"], ["--n", "3"])) for c in ("NORINE", "A")),
        ("B", "exhaustive", (["--n", "1"], ["--n", "3"])),
    ])
    def test_search_garbage_does_not_grow_with_the_space(self, conjecture, mode, sizes):
        argvs = [["search", "--conjecture", conjecture, "--mode", mode, *size] for size in sizes]
        small, large = _garbage_by_size(argvs)
        assert small == large

    def test_search_garbage_does_not_grow_with_the_blocks_of_a_budget_of_10_to_the_12(self):
        """A sampled search over 10^12 colourings runs for as long as it
        is let: each block it checks leaves no cyclic garbage."""
        import cubegeo.harness.search as search_mod

        def blocks(k):
            fn = partial(search_mod._search_block, "A", "sample", 3, 0, True)
            with closing(pool_map(fn, 10**12, 1)) as results:
                assert sum(res["checked"] for res in islice(results, k)) == 1024 * k

        small, large = [_cyclic_garbage(lambda: blocks(k)) for k in (1, 1, 3)][1:]
        assert small == large

    @pytest.mark.parametrize("model, sizes", [("induced-random", (4, 9)), ("antipodal-colouring", (3, 6)),
                                              ("random-family", (4, 9))])
    def test_gen_and_analyze_garbage_does_not_grow_with_the_instance(self, model, sizes, tmp_path):
        files = [str(tmp_path / f"{model}-{n}.json") for n in sizes]
        gen = _garbage_by_size([["gen", "--model", model, "--n", str(n), "--out", path]
                                for n, path in zip(sizes, files)])
        analyze = _garbage_by_size([["analyze", "--file", path] for path in files])
        assert gen[0] == gen[1] and analyze[0] == analyze[1]


class TestCliFuzz:
    """Argument vectors drawn from the CLI's own vocabulary, valid and
    not: every run returns, or exits, with 0, 1 or 2, and nothing else
    escapes ``main``. Drawn values stay small (n <= 4, at most 5 trials
    or sampled colourings, at most two workers) so that every run is
    short."""

    @staticmethod
    def _files(tmp_path):
        files = {
            "graph": generate(InstanceSpec("full-cube", n=3)),
            "colouring": generate(InstanceSpec("antipodal-colouring", n=3)),
            "family": {"n": 3, "sets": [0, 1, 2]},
            "huge-family": {"n": 100_000_000, "sets": [1]},
        }
        for name, instance in files.items():
            save_json(str(tmp_path / f"{name}.json"), instance)
        (tmp_path / "bad.json").write_text("{not json")
        names = [*files, "bad", "missing"]
        return [str(tmp_path / f"{name}.json") for name in names] + [str(tmp_path)]

    @given(st.data())
    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_main_exits_0_1_or_2(self, tmp_path, monkeypatch, data):
        monkeypatch.delenv("CUBEGEO_JOBS", raising=False)
        small = st.integers(-1, 4).map(str)
        values = {
            "--theorem": st.sampled_from(THEOREMS + ("T9",)),
            "--conjecture": st.sampled_from(CONJECTURES + ("C",)),
            "--mode": st.sampled_from(("exhaustive", "sample", "turbo")),
            "--model": st.sampled_from(KINDS + ("cube",)),
            "--n": st.one_of(st.integers(-2, 4).map(str), st.just("x")),
            "--trials": st.integers(-1, 5).map(str),
            "--budget": st.integers(-1, 5).map(str),
            "--jobs": st.sampled_from(("-1", "0", "1", "2", "x")),
            "--seed": st.one_of(st.integers(-1, 3).map(str), st.just("x")),
            "--density": st.sampled_from(("1/2", "0.25", "3/2", "1/0", "x")),
            "--radius": small, "--centre": small, "--subdim": small, "--copies": small,
            "--k": small, "--t": small, "--size": small,
            "--file": st.sampled_from(self._files(tmp_path)),
            "--out": st.just(str(tmp_path / "out.json")),
        }
        flag = st.sampled_from(sorted(values))
        pair = flag.flatmap(lambda f: values[f].map(lambda v: [f, v]))
        item = st.one_of(pair, pair, pair, flag.map(lambda f: [f]),
                         st.sampled_from((["-h"], ["--help"], ["x"], ["--"])))
        # each command's required flags come first, so that most runs get past the parser
        required = {"verify": ("--theorem",), "search": ("--conjecture", "--mode", "--n"),
                    "analyze": ("--file",), "gen": ("--model", "--n")}
        command = data.draw(st.sampled_from((*required, "check", None)))
        argv = [] if command is None else [command]
        for f in required.get(command, ()):
            argv += [f, data.draw(values[f])]
        for tokens in data.draw(st.lists(item, max_size=4)):
            argv += tokens
        if command == "verify":
            # the default of 100 trials would make a run long, not different
            argv += ["--trials", data.draw(values["--trials"])]
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        assert code in (0, 1, 2), argv
