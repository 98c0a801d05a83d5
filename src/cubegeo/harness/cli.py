"""Command-line interface.

Subcommands:
  verify   run one theorem's invariant over seeded instances
  search   sweep colourings for conjecture counterexamples
  analyze  load a graph/colouring/family file and report its invariants
  gen      generate an instance file from a model spec

Exit codes: 0 all checks passed, 2 a counterexample or invariant
violation was found (and embedded in the report), 1 usage or IO error.
Reports are deterministic: the same invocation (including --seed and
regardless of --jobs) produces byte-identical output. CUBEGEO_JOBS sets
the default for --jobs.
"""

from __future__ import annotations

import argparse
import os
import sys
from fractions import Fraction
from math import ceil

from ..core import CubeSubgraph, average_degree, max_hamming_pair
from ..colourings import (
    EdgeColouring,
    edge_count,
    find_monochromatic_antipodal_geodesic,
    find_monochromatic_antipodal_path,
    find_one_change_antipodal_geodesic,
    is_antipodal,
    min_colour_changes_antipodal,
    monochromatic_half_geodesic,
)
from ..core import induced_subgraph
from ..geodesics import extract_increasing_geodesic, greedy_geodesic, increasing_geodesic_table
from ..setfamilies import (
    SetFamily,
    feder_subi_intersecting_check,
    full_compress,
    is_downset,
    level_profile,
)
from .generators import GRAPH_KINDS, COLOURING_KINDS, FAMILY_KINDS, InstanceSpec, generate
from .search import CONJECTURES, run_search
from .serialize import Report, ParseError, dumps, instance_to_obj, load_instance, save_json
from .verify import THEOREMS, default_template, run_verify

_ANALYZE_SEARCH_MAX_N = 8
_ANALYZE_CHANGES_MAX_N = 10


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage errors by default; the harness reserves
    2 for counterexamples, so remap usage errors to 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _build_parser() -> _Parser:
    parser = _Parser(prog="cubegeo", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, jobs=True):
        p.add_argument("--seed", type=int, default=0, help="root seed (default 0)")
        p.add_argument("--out", help="write the JSON report/instance here instead of stdout")
        if jobs:
            p.add_argument("--jobs", type=int,
                           help="worker processes (default $CUBEGEO_JOBS or 1); never affects results")

    def add_model(p):
        p.add_argument("--model", choices=GRAPH_KINDS + COLOURING_KINDS + FAMILY_KINDS,
                       help="instance model")
        p.add_argument("--n", type=int, help="ambient dimension")
        p.add_argument("--density", default="1/2",
                       help="inclusion probability for random models, as a fraction or decimal (default 1/2)")
        p.add_argument("--radius", type=int, help="hamming-ball radius")
        p.add_argument("--centre", type=int, default=0, help="hamming-ball centre (default 0)")
        p.add_argument("--subdim", type=int, help="disjoint-cubes subcube dimension")
        p.add_argument("--copies", type=int, help="disjoint-cubes copy count")
        p.add_argument("--k", type=int, help="uniform family member size")
        p.add_argument("--t", type=int, help="intersection threshold")
        p.add_argument("--size", type=int, help="family size target")
        p.add_argument("--file", help="instance file for --model from-file")

    pv = sub.add_parser("verify", help="check one theorem's invariant over generated instances")
    pv.add_argument("--theorem", required=True, choices=THEOREMS)
    pv.add_argument("--trials", type=int, default=100)
    add_model(pv)
    add_common(pv)

    ps = sub.add_parser("search", help="sweep colourings for conjecture counterexamples")
    ps.add_argument("--conjecture", required=True, choices=CONJECTURES)
    ps.add_argument("--mode", required=True, choices=("exhaustive", "sample"))
    ps.add_argument("--n", type=int, required=True)
    ps.add_argument("--budget", type=int, help="number of sampled colourings (sample mode)")
    add_common(ps)

    pa = sub.add_parser("analyze", help="report the invariants of a stored instance")
    pa.add_argument("--file", required=True, help="graph, colouring, or family JSON file")
    add_common(pa, jobs=False)

    pg = sub.add_parser("gen", help="generate an instance file")
    add_model(pg)
    add_common(pg, jobs=False)
    return parser


def _spec_from_args(args, default_kind=None, default_n=None) -> InstanceSpec:
    kind = args.model or default_kind
    if kind is None:
        raise ValueError("--model is required")
    n = args.n if args.n is not None else default_n
    if kind != "from-file" and n is None:
        raise ValueError("--n is required for this model")
    density = None
    if kind in ("induced-random", "edge-random", "random-family"):
        try:
            density = Fraction(args.density)
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"bad --density {args.density!r}: {exc}") from exc
        if not 0 <= density <= 1:
            raise ValueError(f"--density {args.density} outside [0, 1]")
    return InstanceSpec(
        kind,
        n=n or 0,
        seed=args.seed,
        density=density,
        radius=args.radius,
        centre=args.centre,
        subdim=args.subdim,
        copies=args.copies,
        k=args.k,
        t=args.t,
        size=args.size,
        path=args.file,
    )


def _jobs(args) -> int:
    """--jobs, else $CUBEGEO_JOBS, else 1; at least 1 whichever is used."""
    if args.jobs is not None:
        name, raw = "--jobs", args.jobs
    else:
        name, raw = "CUBEGEO_JOBS", os.environ.get("CUBEGEO_JOBS", "1")
    try:
        jobs = int(raw)
    except ValueError:
        jobs = 0
    if jobs < 1:
        raise ValueError(f"{name} must be a positive integer, got {raw!r}")
    return jobs


def _emit_report(report: Report, out: str | None) -> int:
    obj = report.to_obj()
    if out:
        save_json(out, obj)
        agg = ", ".join(f"{k}={v}" for k, v in report.aggregate.items() if not isinstance(v, dict))
        print(f"{'PASS' if report.passed else 'FAIL'} {report.task} ({agg}) -> {out}")
    else:
        sys.stdout.write(dumps(obj))
    return 0 if report.passed else 2


def _cmd_verify(args) -> int:
    base = default_template(args.theorem, args.n)
    if args.model:
        spec = _spec_from_args(args)
        if spec.kind in COLOURING_KINDS and args.theorem != "COR":
            raise ValueError(f"{args.theorem} runs on graphs/families, not colourings")
        if args.theorem in ("COMP", "KAT") and spec.kind not in FAMILY_KINDS:
            raise ValueError(f"{args.theorem} needs a family model")
        if args.theorem == "COR" and spec.kind not in COLOURING_KINDS:
            raise ValueError("COR needs a colouring model")
        if args.theorem in ("T2", "T4", "T5", "FS") and spec.kind not in GRAPH_KINDS:
            raise ValueError(f"{args.theorem} needs a graph model")
        template = spec
    else:
        template = base
    report = run_verify(args.theorem, template, args.trials, seed=args.seed, jobs=_jobs(args))
    return _emit_report(report, args.out)


def _cmd_search(args) -> int:
    report = run_search(
        args.conjecture, args.mode, args.n,
        budget=args.budget, seed=args.seed, jobs=_jobs(args),
    )
    return _emit_report(report, args.out)


def _analyze_graph(g: CubeSubgraph) -> tuple[dict, bool]:
    info: dict = {"type": "graph", "n": g.n, "vertices": len(g), "edges": g.edge_count}
    if not g.vertex_mask:
        return info, True
    avg = average_degree(g)
    bound = ceil(avg)
    table = increasing_geodesic_table(g)
    t4_slack = table.total - 2 * g.edge_count
    longest = extract_increasing_geodesic(table, table.longest_end)
    greedy = greedy_geodesic(g)
    x, y, dist = max_hamming_pair(g)
    info.update({
        "average_degree": str(avg),
        "total_increasing_length": table.total,
        "t4_slack": str(t4_slack),
        "longest_geodesic_lower_bound": longest.length,
        "t2_slack": longest.length - bound,
        "greedy_length": greedy.length,
        "max_hamming_pair": [x, y],
        "max_hamming_distance": dist,
        "fs_slack": dist - bound,
    })
    ok = t4_slack >= 0 and longest.length >= bound and dist >= bound
    return info, ok


def _analyze_colouring(c: EdgeColouring) -> tuple[dict, bool]:
    n = c.n
    info: dict = {
        "type": "colouring",
        "n": n,
        "blue_edges": c.blue_count(),
        "red_edges": edge_count(n) - c.blue_count(),
        "antipodal": is_antipodal(c),
    }
    half = monochromatic_half_geodesic(c)
    info["half_geodesic_length"] = half.length
    info["cor_slack"] = half.length - ceil(Fraction(n, 2))
    ok = info["cor_slack"] >= 0
    if n <= _ANALYZE_CHANGES_MAX_N:
        value, _ = min_colour_changes_antipodal(c)
        info["min_colour_changes"] = value
    else:
        info["min_colour_changes"] = None
    if n <= _ANALYZE_SEARCH_MAX_N:
        info["mono_antipodal_path"] = find_monochromatic_antipodal_path(c) is not None
        info["mono_antipodal_geodesic"] = find_monochromatic_antipodal_geodesic(c) is not None
        info["one_change_antipodal_geodesic"] = find_one_change_antipodal_geodesic(c) is not None
    else:
        info["mono_antipodal_path"] = None
        info["mono_antipodal_geodesic"] = None
        info["one_change_antipodal_geodesic"] = None
    return info, ok


def _analyze_family(fam: SetFamily) -> tuple[dict, bool]:
    fc = full_compress(fam)
    popsum = sum(a.bit_count() for a in fc.sets)
    profile = level_profile(fc)
    info = {
        "type": "family",
        "n": fam.n,
        "members": len(fam),
        "downset": is_downset(fam),
        "level_profile": list(level_profile(fam)),
        "compressed_is_downset": is_downset(fc),
        "compressed_size": len(fc),
        "compressed_popcount_sum": popsum,
    }
    if fam.sets:
        # consistency probe for a claimed small-distance counterexample:
        # a downset of average degree d whose levels at height >= d/2 are
        # free of pairs with |A | B| >= d
        g = induced_subgraph(fam.n, fc.sets)
        d = average_degree(g)
        info["compressed_average_degree"] = str(d)
        info["intersecting_levels_consistent"] = feder_subi_intersecting_check(fc, d)
    ok = is_downset(fc) and len(fc) == len(fam) and popsum == sum(
        k * cnt for k, cnt in enumerate(profile)
    )
    return info, ok


def _cmd_analyze(args) -> int:
    instance = load_instance(args.file)
    if isinstance(instance, CubeSubgraph):
        info, ok = _analyze_graph(instance)
    elif isinstance(instance, EdgeColouring):
        info, ok = _analyze_colouring(instance)
    else:
        info, ok = _analyze_family(instance)
    report = Report(
        task="analyze",
        parameters={"file": args.file},
        seed=args.seed,
        records=[info],
        aggregate={},
        passed=ok,
    )
    return _emit_report(report, args.out)


def _cmd_gen(args) -> int:
    spec = _spec_from_args(args)
    obj = instance_to_obj(generate(spec))
    if args.out:
        save_json(args.out, obj)
        print(f"wrote {spec.kind} instance -> {args.out}")
    else:
        sys.stdout.write(dumps(obj))
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "verify": _cmd_verify,
        "search": _cmd_search,
        "analyze": _cmd_analyze,
        "gen": _cmd_gen,
    }
    try:
        return handlers[args.command](args)
    except ParseError as exc:
        print(f"cubegeo: parse error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        print(f"cubegeo: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
