"""The benchmark's workloads: the ``cubegeo`` CLI invocations each one runs,
how many items each counts, and how each output is checked.

A task is one unit of user work: one ``search`` or ``verify`` run, or a
``gen`` followed by an ``analyze`` of the file it wrote. Every invocation
also gets ``--seed <workload seed>`` and, where the subcommand has it,
``--jobs``; nothing else about the inputs comes from outside the run.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Callable


@dataclass(frozen=True)
class Step:
    """One CLI invocation. Its output is the file named by ``out`` (passed
    as ``--out``) or, without one, what it writes to stdout."""

    args: tuple[str, ...]
    out: str | None = None
    takes_jobs: bool = True


@dataclass(frozen=True)
class Task:
    name: str
    steps: tuple[Step, ...]
    items: int
    #: Given the outputs of the steps, an error message or None.
    check: Callable[[list[bytes]], str | None]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    tasks: tuple[Task, ...]


def _report(raw: bytes) -> dict:
    report = json.loads(raw)
    if report.get("pass") is not True:
        raise ValueError("report does not pass")
    return report


def _search_check(space: int):
    def check(outputs):
        agg = _report(outputs[0])["aggregate"]
        if agg["checked"] != space or agg["space"] != space or agg["counterexamples"] != 0:
            return f"expected {space} colourings checked, got {agg}"
        return None

    return check


def _verify_check(trials: int):
    def check(outputs):
        report = _report(outputs[0])
        agg = report["aggregate"]
        if agg["trials"] != trials or len(report["records"]) != trials or agg["violations"] != 0:
            return f"expected {trials} records without violations, got {agg}"
        return None

    return check


def _round_trip_check(outputs):
    """The analyze report must describe the instance gen wrote."""
    instance = json.loads(outputs[0])
    info = _report(outputs[1])["records"][0]
    n = instance["n"]
    if info["n"] != n:
        return f"analyze read n={info['n']}, gen wrote n={n}"
    if "vertices" in instance:
        got = (info["vertices"], info["edges"])
        want = (len(instance["vertices"]), len(instance["edges"]))
    elif "pairs" in instance:
        blue = sum(1 for p in instance["pairs"] if p[2] == "blue")
        got = (info["blue_edges"], info["red_edges"], info["antipodal"])
        want = (blue, len(instance["pairs"]) - blue, True)
    else:
        got = (info["members"], info["compressed_size"])
        want = (len(instance["sets"]), len(instance["sets"]))
    if got != want:
        return f"analyze read {got}, gen wrote {want}"
    return None


def _search(conjecture: str, mode: str, n: int, space: int, budget: int | None = None) -> Task:
    args = ("search", "--conjecture", conjecture, "--mode", mode, "--n", str(n))
    if budget is not None:
        args += ("--budget", str(budget))
    return Task(f"{conjecture}@{n}", (Step(args),), space, _search_check(space))


def _verify(name: str, theorem: str, trials: int, *model: str) -> Task:
    args = ("verify", "--theorem", theorem, "--trials", str(trials)) + model
    return Task(name, (Step(args),), trials, _verify_check(trials))


def _round_trip(name: str, *model: str) -> Task:
    gen = Step(("gen",) + model + ("--out", "instance.json"), out="instance.json", takes_jobs=False)
    analyze = Step(("analyze", "--file", "instance.json"), takes_jobs=False)
    return Task(name, (gen, analyze), 1, _round_trip_check)


WORKLOADS = (
    Workload(
        "search-exhaustive",
        "All 2^16 antipodal colourings of Q_4 for A and NORINE: colouring-from-index "
        "generation and the conjecture checker, with no rng, sweep-table or min-change work",
        (
            _search("A", "exhaustive", 4, 1 << 16),
            _search("NORINE", "exhaustive", 4, 1 << 16),
        ),
    ),
    Workload(
        "search-sample",
        "Seeded samples for A at n=6 and B at n=5: rng-drawn colourings and the "
        "min-colour-change statistic, the colouring layers the exhaustive sweep bypasses",
        (
            _search("A", "sample", 6, 512, budget=512),
            _search("B", "sample", 5, 1024, budget=1024),
        ),
    ),
    Workload(
        "verify-sweep",
        "Every verify theorem on seeded instances: generation, induced subgraphs, the "
        "sweep table, geodesic counts, set families and half geodesics; no search code",
        (
            _verify("T4@12", "T4", 60, "--n", "12"),
            _verify("T2@10", "T2", 200, "--n", "10"),
            _verify("T5-full-cube@5", "T5", 60, "--model", "full-cube", "--n", "5"),
            _verify("T5-disjoint-cubes@8", "T5", 300, "--model", "disjoint-cubes", "--n", "8",
                    "--subdim", "3", "--copies", "4"),
            _verify("FS@10", "FS", 200, "--n", "10"),
            _verify("COMP@8", "COMP", 100, "--n", "8"),
            _verify("KAT@12", "KAT", 1000, "--n", "12"),
            _verify("COR@10", "COR", 150, "--n", "10"),
        ),
    ),
    Workload(
        "instance-io",
        "gen then analyze of 1-4 MB graphs at n=14, an antipodal colouring and a family: "
        "JSON dump and parse, make_subgraph and the edge-set views the analyzers use",
        (
            _round_trip("full-cube@14", "--model", "full-cube", "--n", "14"),
            _round_trip("induced-random@14", "--model", "induced-random", "--n", "14"),
            _round_trip("antipodal-colouring@8", "--model", "antipodal-colouring", "--n", "8"),
            _round_trip("random-family@12", "--model", "random-family", "--n", "12"),
        ),
    ),
)

BY_NAME = {w.name: w for w in WORKLOADS}
