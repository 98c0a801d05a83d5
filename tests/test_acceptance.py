"""Acceptance suite: one test per criterion. Every inequality is exact
(zero tolerance) except the criterion-4 Monte Carlo identity (5%
relative at 10^4 samples). Each test prints one PASS line with its
headline numbers and asserts its stated runtime budget.

Run with: pytest tests/test_acceptance.py -v -s
"""

import subprocess
import sys
from fractions import Fraction
from math import ceil, factorial
from pathlib import Path
from time import monotonic

import pytest

from cubegeo import (
    SplitMix64,
    average_degree,
    count_increasing_geodesics,
    enumerate_geodesics_of_length,
    find_monochromatic_antipodal_path,
    derive_A_from_B,
    derive_B_from_A,
    increasing_geodesic_table,
    induced_subgraph,
    make_subgraph,
    min_colour_changes_antipodal,
    random_ordering,
    validate_witness,
)
from cubegeo.colourings import antipodal_colouring_from_index, colouring_from_index
from cubegeo.harness import (
    InstanceSpec,
    dumps,
    generate,
    graph_to_obj,
    load_json,
    obj_to_graph,
    run_search,
    run_verify,
    save_json,
)
from cubegeo.rng import derive

from oracles import (
    brute_force_longest_geodesic,
    direction_split,
    edge_list,
    increasing_lengths_by_end,
    lengths_from_levels,
    vertex_list,
)

DENSITIES = (Fraction(1, 5), Fraction(1, 2), Fraction(4, 5))


def _report(criterion, elapsed, budget, detail):
    print(f"\ncriterion {criterion}: PASS ({detail}; {elapsed:.1f}s < {budget}s)")
    assert elapsed < budget, f"criterion {criterion} exceeded its {budget}s budget"


@pytest.fixture(scope="module")
def oracle_instances():
    """Criterion 2/3 instance pool: 500 induced subgraphs of Q_4 on at
    most 12 vertices plus 200 random instances at n <= 6."""
    pool = []
    attempt = 0
    while len(pool) < 500:
        rng = SplitMix64(derive(800, attempt))
        attempt += 1
        verts = [v for v in range(16) if rng.bits(1)]
        if not verts or len(verts) > 12:
            continue
        pool.append(induced_subgraph(4, verts))
    for idx in range(200):
        kind = "induced-random" if idx % 2 == 0 else "edge-random"
        spec = InstanceSpec(
            kind,
            n=4 + idx % 3,
            density=DENSITIES[idx % 3],
            seed=derive(801, idx),
        )
        pool.append(generate(spec))
    return pool


def test_criterion_1_theorem4_sweeps():
    t0 = monotonic()
    induced = [
        InstanceSpec("induced-random", n=n, density=d)
        for n in range(4, 11)
        for d in DENSITIES
    ]
    r1 = run_verify("T4", induced, 1000, seed=101)
    assert r1["pass"] and Fraction(r1["aggregate"]["min_slack"]) >= 0
    edges = [
        InstanceSpec("edge-random", n=n, density=d)
        for n in range(4, 11)
        for d in DENSITIES
    ]
    r2 = run_verify("T4", edges, 1000, seed=102)
    assert r2["pass"] and Fraction(r2["aggregate"]["min_slack"]) >= 0
    for d in range(1, 7):
        g = generate(InstanceSpec("full-cube", n=d))
        assert increasing_geodesic_table(g).total == 2 * len(edge_list(g)) == d << d
    e = make_subgraph(3, [0, 1], [(0, 0)])
    assert increasing_geodesic_table(e).total == 2
    _report(
        1,
        monotonic() - t0,
        10,
        f"2000 instances, min slacks {r1['aggregate']['min_slack']}/{r2['aggregate']['min_slack']}, "
        "equality on Q_1..Q_6 and a single edge",
    )


def test_criterion_2_dp_oracle_equivalence(oracle_instances):
    t0 = monotonic()
    checked = 0
    for j, g in enumerate(oracle_instances):
        for k in range(5):
            ordering = random_ordering(g.n, SplitMix64(derive(802, j, k)))
            table = increasing_geodesic_table(g, ordering)
            assert lengths_from_levels(table) == increasing_lengths_by_end(g, ordering)
            checked += 1
    _report(2, monotonic() - t0, 60, f"{len(oracle_instances)} instances x 5 orderings = {checked} tables")


def test_criterion_3_theorem2_tightness(oracle_instances):
    t0 = monotonic()
    for g in oracle_instances:
        bound = ceil(average_degree(g))
        assert len(brute_force_longest_geodesic(g)[1]) >= bound
    for d in range(1, 7):
        g = generate(InstanceSpec("full-cube", n=d))
        assert len(brute_force_longest_geodesic(g)[1]) == d
    _report(
        3,
        monotonic() - t0,
        60,
        f"{len(oracle_instances)} instances >= ceil(avg); Q_1..Q_6 exactly d",
    )


def test_criterion_4_theorem5_counts():
    t0 = monotonic()
    # exact equality on cubes and disjoint unions of cubes
    for d in range(1, 5):
        g = generate(InstanceSpec("full-cube", n=d))
        assert enumerate_geodesics_of_length(g, d) == factorial(d) * (1 << d) // 2
    union_specs = [(2, 2, 4), (2, 4, 6), (3, 2, 6)]
    for sub, copies, n in union_specs:
        g = generate(InstanceSpec("disjoint-cubes", n=n, subdim=sub, copies=copies))
        assert average_degree(g) == sub
        assert enumerate_geodesics_of_length(g, sub) == Fraction(
            factorial(sub) * len(vertex_list(g)), 2
        )
    # 200 random instances with integer average degree >= 1
    found = attempt = 0
    while found < 200:
        spec = InstanceSpec(
            "induced-random",
            n=4 + attempt % 2,
            density=DENSITIES[attempt % 3],
            seed=derive(803, attempt),
        )
        attempt += 1
        g = generate(spec)
        avg = average_degree(g)
        if avg.denominator != 1 or avg < 1:
            continue
        d = int(avg)
        count = enumerate_geodesics_of_length(g, d)
        assert count >= Fraction(factorial(d) * len(vertex_list(g)), 2)
        for k in range(10):
            ordering = random_ordering(g.n, SplitMix64(derive(804, attempt, k)))
            assert count_increasing_geodesics(g, d, ordering) >= len(vertex_list(g))
        found += 1
    # Monte Carlo expectation identity E(X) = 2L/d!
    fixed = [
        (generate(InstanceSpec("full-cube", n=2)), 2),
        (generate(InstanceSpec("full-cube", n=3)), 3),
        (generate(InstanceSpec("full-cube", n=4)), 4),
        (generate(InstanceSpec("disjoint-cubes", n=4, subdim=2, copies=2)), 2),
        (generate(InstanceSpec("disjoint-cubes", n=6, subdim=3, copies=2)), 3),
        (generate(InstanceSpec("disjoint-cubes", n=6, subdim=2, copies=4)), 2),
    ]
    seed = 0
    while len(fixed) < 10:
        g = generate(InstanceSpec("induced-random", n=4, density=Fraction(3, 5), seed=derive(805, seed)))
        seed += 1
        if enumerate_geodesics_of_length(g, 2) >= 4:
            fixed.append((g, 2))
    samples = 10_000
    for j, (g, d) in enumerate(fixed):
        L = enumerate_geodesics_of_length(g, d)
        expected = Fraction(2 * L, factorial(d))
        rng = SplitMix64(derive(806, j))
        total = sum(
            count_increasing_geodesics(g, d, random_ordering(g.n, rng))
            for _ in range(samples)
        )
        mean = Fraction(total, samples)
        assert abs(mean - expected) <= expected * Fraction(1, 20), (
            f"instance {j}: mean {float(mean):.3f} vs 2L/d! {float(expected):.3f}"
        )
    _report(
        4,
        monotonic() - t0,
        300,
        "equalities on Q_1..Q_4 + 3 disjoint unions; 200 integer-degree instances; "
        f"MC identity on 10 instances x {samples} orderings within 5%",
    )


def test_criterion_5_feder_subi_and_compression():
    t0 = monotonic()
    graphs = [
        InstanceSpec(kind, n=n, density=d)
        for kind in ("induced-random", "edge-random")
        for n in range(4, 8)
        for d in DENSITIES
    ]
    r1 = run_verify("FS", graphs, 500, seed=103)
    assert r1["pass"] and Fraction(r1["aggregate"]["min_slack"]) >= 0
    families = [
        InstanceSpec("random-family", n=n, density=d)
        for n in (4, 5, 6)
        for d in DENSITIES
    ]
    r2 = run_verify("COMP", families, 1000, seed=104)
    assert r2["pass"] and Fraction(r2["aggregate"]["min_slack"]) >= 0
    _report(
        5,
        monotonic() - t0,
        30,
        f"FS on 500 graphs (min slack {r1['aggregate']['min_slack']}); "
        "compression invariants + equation (2) on 1000 families x every index",
    )


def test_criterion_6_katona():
    t0 = monotonic()
    templates = [
        InstanceSpec("t-intersecting-family", n=n, k=k, t=t, size=20)
        for n in (10, 11, 12)
        for k in (3, 4, 5, 6)
        for t in (1, 2, k)
    ]
    report = run_verify("KAT", templates, 500, seed=105)
    assert report["pass"] and Fraction(report["aggregate"]["min_slack"]) >= 0
    _report(6, monotonic() - t0, 30, "500 t-intersecting families, all |shadow^t| >= |family|")


def test_criterion_7_sweeps():
    t0 = monotonic()
    counts = {}
    for n, space in ((2, 4), (3, 64), (4, 65536)):
        for conj in ("NORINE", "A"):
            r = run_search(conj, "exhaustive", n)
            assert r["pass"] and r["aggregate"]["checked"] == space
            counts[f"{conj}@{n}"] = r["aggregate"]["checked"]
    for n, space in ((2, 16), (3, 4096)):
        r = run_search("B", "exhaustive", n)
        assert r["pass"] and r["aggregate"]["checked"] == space
        counts[f"B@{n}"] = r["aggregate"]["checked"]
    for n in range(3, 9):
        c = direction_split(n)
        assert find_monochromatic_antipodal_path(c) is None
        value, w = min_colour_changes_antipodal(c)
        assert value == 1
        validate_witness(w, c)
    _report(
        7,
        monotonic() - t0,
        300,
        "exhaustive " + ", ".join(f"{k}={v}" for k, v in counts.items())
        + "; direction-split n=3..8 has no mono path and min changes 1",
    )


def test_criterion_8_proposition_round_trips():
    t0 = monotonic()
    for index in range(1 << 12):
        c = colouring_from_index(3, index)
        w = derive_B_from_A(c)
        validate_witness(w, c)
        assert w.kind == "one-change-geodesic"
    for index in range(64):
        c = antipodal_colouring_from_index(3, index)
        w = derive_A_from_B(c)
        validate_witness(w, c)
        assert w.kind == "mono-geodesic"
    _report(8, monotonic() - t0, 120, "4096 liftings to n=4 and 64 splittings at n=3, all valid")


def test_criterion_9_corollary():
    t0 = monotonic()
    slacks = []
    for n in range(4, 11):
        report = run_verify("COR", InstanceSpec("random-colouring", n=n), 1000, seed=106 + n)
        assert report["pass"]
        slacks.append(Fraction(report["aggregate"]["min_slack"]))
    assert min(slacks) >= 0
    _report(9, monotonic() - t0, 60, f"7000 colourings, min slack {min(slacks)}")


def test_criterion_10_harness_determinism(tmp_path):
    t0 = monotonic()
    # byte-identical reports across reruns and across --jobs 1 vs --jobs 8
    argv = [
        sys.executable, "-m", "cubegeo.harness.cli",
        "verify", "--theorem", "T4", "--trials", "60", "--n", "6", "--seed", "42",
    ]
    outputs = []
    for run, jobs in ((1, "1"), (2, "1"), (3, "8")):
        out = str(tmp_path / f"r{run}.json")
        code = subprocess.run(argv + ["--jobs", jobs, "--out", out]).returncode
        assert code == 0
        outputs.append(Path(out).read_bytes())
    assert outputs[0] == outputs[1] == outputs[2]

    search_argv = [
        sys.executable, "-m", "cubegeo.harness.cli",
        "search", "--conjecture", "A", "--mode", "sample", "--n", "5",
        "--budget", "40", "--seed", "7",
    ]
    s1 = subprocess.run(search_argv + ["--jobs", "1"], capture_output=True).stdout
    s8 = subprocess.run(search_argv + ["--jobs", "8"], capture_output=True).stdout
    assert s1 == s8

    # save/load round-trips are identities
    for spec in (
        InstanceSpec("induced-random", n=5, density=Fraction(1, 2), seed=9),
        InstanceSpec("full-cube", n=3),
    ):
        g = generate(spec)
        path = str(tmp_path / "g.json")
        save_json(path, graph_to_obj(g))
        assert obj_to_graph(load_json(path)) == g
        save_json(path, graph_to_obj(g))
        assert dumps(load_json(path)) == Path(path).read_text()
    _report(10, monotonic() - t0, 120, "reruns and jobs 1/8 byte-identical; round-trips exact")
