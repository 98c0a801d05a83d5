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

Process entry. ``run()`` is what ``python -m cubegeo.harness.cli`` and the
installed ``cubegeo`` script call. It switches the cyclic garbage
collector off, runs ``main()``, and freezes the heap before the process
exits, so no collection runs during the run and the collections at
interpreter exit skip the objects the imports left. This is safe because a
run leaves a constant few hundred objects of cyclic garbage (argparse's
parser) however much work it does; a test runs every subcommand at two
sizes with the collector off and finds the same count. ``main(argv)``
leaves the caller's collector as it found it.
"""

from __future__ import annotations

import argparse
import gc
import os
import sys
from fractions import Fraction

from ..core import CubeSubgraph, average_degree
from ..colourings import EdgeColouring, edge_count, is_antipodal, min_colour_changes_antipodal, validate_witness
from ..geodesics import greedy_geodesic
from ..setfamilies import SetFamily, feder_subi_intersecting_check, is_downset, level_profile
from .generators import GRAPH_KINDS, COLOURING_KINDS, FAMILY_KINDS, InstanceSpec, generate
from .search import _SPACES, CONJECTURES, run_search
from .serialize import ParseError, dumps, load_instance, report, save_json
from .verify import _THEOREMS, THEOREMS, _full_compression, default_template, run_verify

#: Most items (graph vertices and edges, or family members) a ``gen``
#: file may hold: graphs up to n = 16, random families up to n = 20.
GEN_MAX_ITEMS = 2**20
_ANALYZE_CHECKS_MAX_N = 8
_ANALYZE_CHANGES_MAX_N = 10


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage errors by default; the harness reserves
    2 for counterexamples, so remap usage errors to 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _build_parser() -> _Parser:
    # --help shows the docstring up to its note on the process entry
    description = __doc__ and __doc__.partition("\n\nProcess entry.")[0] + "\n"
    parser = _Parser(prog="cubegeo", description=description, formatter_class=argparse.RawDescriptionHelpFormatter)
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


def _spec_from_args(args) -> InstanceSpec:
    kind, n = args.model, args.n
    if kind is None:
        raise ValueError("--model is required")
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


def _emit_report(obj: dict, out: str | None) -> int:
    if out:
        save_json(out, obj)
        agg = ", ".join(f"{k}={v}" for k, v in obj["aggregate"].items() if not isinstance(v, dict))
        print(f"{'PASS' if obj['pass'] else 'FAIL'} {obj['task']} ({agg}) -> {out}")
    else:
        sys.stdout.write(dumps(obj))
    return 0 if obj["pass"] else 2


def _cmd_verify(args) -> int:
    template = _spec_from_args(args) if args.model else default_template(args.theorem, args.n)
    obj = run_verify(args.theorem, template, args.trials, seed=args.seed, jobs=_jobs(args))
    return _emit_report(obj, args.out)


def _cmd_search(args) -> int:
    obj = run_search(
        args.conjecture, args.mode, args.n,
        budget=args.budget, seed=args.seed, jobs=_jobs(args),
    )
    return _emit_report(obj, args.out)


def _analyze_graph(g: CubeSubgraph) -> tuple[dict, bool]:
    info: dict = {"type": "graph", "n": g.n, "vertices": len(g), "edges": g.edge_count}
    if not g.vertex_mask:
        return info, True
    t4, t2, fs = (_THEOREMS[t].record(g) for t in ("T4", "T2", "FS"))
    info.update({
        "average_degree": str(average_degree(g)),
        "total_increasing_length": t4["total_length"],
        "t4_slack": t4["slack"],
        "longest_geodesic_lower_bound": t2["geodesic_length"],
        "t2_slack": int(t2["slack"]),
        "greedy_length": greedy_geodesic(g).length,
        "max_hamming_pair": fs["pair"],
        "max_hamming_distance": fs["distance"],
        "fs_slack": int(fs["slack"]),
    })
    return info, t4["ok"] and t2["ok"] and fs["ok"]


def _analyze_colouring(c: EdgeColouring) -> tuple[dict, bool]:
    n = c.n
    cor = _THEOREMS["COR"].record(c)
    blue = c.blue_mask.bit_count()
    info: dict = {
        "type": "colouring",
        "n": n,
        "blue_edges": blue,
        "red_edges": edge_count(n) - blue,
        "antipodal": is_antipodal(c),
        "half_geodesic_length": cor["geodesic_length"],
        "cor_slack": int(cor["slack"]),
    }
    info["min_colour_changes"] = min_colour_changes_antipodal(c)[0] if n <= _ANALYZE_CHANGES_MAX_N else None
    for space in _SPACES.values():
        witness = space.check(c) if n <= _ANALYZE_CHECKS_MAX_N else None
        if witness is not None:
            validate_witness(witness, c)
        info[space.key] = witness is not None if n <= _ANALYZE_CHECKS_MAX_N else None
    return info, cor["ok"]


def _analyze_family(fam: SetFamily) -> tuple[dict, bool]:
    fc, popsum, g, ok = _full_compression(fam)
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
    if fam.mask:
        # consistency probe for a claimed small-distance counterexample:
        # a downset of average degree d whose levels at height >= d/2 are
        # free of pairs with |A | B| >= d
        d = average_degree(g)
        info["compressed_average_degree"] = str(d)
        info["intersecting_levels_consistent"] = feder_subi_intersecting_check(fc, d)
    return info, ok


def _cmd_analyze(args) -> int:
    instance = load_instance(args.file)
    if isinstance(instance, CubeSubgraph):
        info, ok = _analyze_graph(instance)
    elif isinstance(instance, EdgeColouring):
        info, ok = _analyze_colouring(instance)
    else:
        info, ok = _analyze_family(instance)
    return _emit_report(report("analyze", {"file": args.file}, args.seed, [info], {}, ok), args.out)


def _cmd_gen(args) -> int:
    spec = _spec_from_args(args)
    instance = generate(spec, max_items=GEN_MAX_ITEMS)
    if args.out:
        save_json(args.out, instance)
        print(f"wrote {spec.kind} instance -> {args.out}")
    else:
        sys.stdout.write(dumps(instance))
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


def run():
    """The process entry: ``main()`` with the collector off, the heap
    frozen before exit also after ``--help``, a usage error or a crash,
    and the process's exit code ``main``'s. Forked workers inherit the
    switched-off collector and end through ``os._exit``."""
    gc.disable()
    try:
        sys.exit(main())
    finally:
        gc.freeze()


if __name__ == "__main__":
    run()
