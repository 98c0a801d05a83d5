"""Verification jobs: each identifier ties one exact inequality to a
seeded sweep of generated instances.

  T4    sum of per-vertex longest increasing-geodesic lengths >= 2|E|
  T2    extracted longest geodesic length >= ceil(average degree)
  T5    geodesic count at length d >= d!|G|/2 and oriented increasing
        count >= |G|, for integer d = floor(average degree) >= 1
  FS    max pairwise Hamming distance >= ceil(average degree)
  COMP  down-compression preserves family size, never loses induced
        edges, never grows the max Hamming distance; full compression
        yields an equal-size downset whose total popcount equals its
        induced edge count
  KAT   t-fold shadow of a t-intersecting uniform family is no smaller
        than the family
  COR   monochromatic geodesic of length >= ceil(n/2) in any colouring

Every violation embeds the full offending instance in its record, so a
failing report is a self-contained reproduction. Records are pure
functions of (theorem, template, root seed, index); parallel runs merge
them in index order and are byte-identical to serial runs.
"""

from __future__ import annotations

import multiprocessing
from fractions import Fraction
from math import ceil, factorial
from typing import Sequence

from ..core import average_degree, induced_subgraph, max_hamming_pair
from ..colourings import monochromatic_half_geodesic
from ..geodesics import (
    count_increasing_geodesics,
    enumerate_geodesics_of_length,
    increasing_geodesic_table,
    longest_geodesic_lower_bound,
    random_ordering,
)
from ..rng import SplitMix64
from ..setfamilies import (
    compress_element,
    full_compress,
    is_downset,
    katona_check,
    iterated_shadow,
    level_profile,
)
from .generators import InstanceSpec, generate, subseed
from .serialize import Report, instance_to_obj

__all__ = ["THEOREMS", "default_template", "run_verify"]

THEOREMS = ("T2", "T4", "T5", "FS", "COMP", "KAT", "COR")

_GRAPH_THEOREMS = ("T2", "T4", "T5", "FS")


def default_template(theorem: str, n: int | None = None) -> InstanceSpec:
    """The CLI's template when no model flags are given."""
    if theorem in _GRAPH_THEOREMS:
        return InstanceSpec("induced-random", n=n if n is not None else 6, density=Fraction(1, 2))
    if theorem == "COMP":
        return InstanceSpec("random-family", n=n if n is not None else 5, density=Fraction(1, 2))
    if theorem == "KAT":
        return InstanceSpec("t-intersecting-family", n=n if n is not None else 10, k=4, t=2, size=20)
    if theorem == "COR":
        return InstanceSpec("random-colouring", n=n if n is not None else 6)
    raise ValueError(f"unknown theorem identifier {theorem!r}")


def _spec_obj(spec: InstanceSpec) -> dict:
    obj = {"kind": spec.kind, "n": spec.n}
    for name in ("density", "radius", "centre", "subdim", "copies", "k", "t", "size", "path"):
        value = getattr(spec, name)
        if value is not None and not (name == "centre" and value == 0):
            obj[name] = str(value) if isinstance(value, Fraction) else value
    return obj


def _t4_record(g) -> dict:
    table = increasing_geodesic_table(g)
    slack = table.total - 2 * g.edge_count
    return {
        "vertices": len(g),
        "edges": g.edge_count,
        "total_length": table.total,
        "slack": str(slack),
        "ok": slack >= 0,
    }


def _t2_record(g) -> dict:
    bound = ceil(average_degree(g))
    path = longest_geodesic_lower_bound(g)
    slack = path.length - bound
    return {
        "vertices": len(g),
        "edges": g.edge_count,
        "geodesic_length": path.length,
        "bound": bound,
        "slack": str(slack),
        "ok": slack >= 0,
    }


def _t5_record(g, root_seed: int, index: int) -> dict:
    avg = average_degree(g)
    if avg < 1 or avg.denominator != 1:
        return {"applicable": False, "slack": None, "ok": True}
    d = int(avg)
    count = enumerate_geodesics_of_length(g, d)
    bound = Fraction(factorial(d) * len(g), 2)
    count_slack = count - bound
    inc_slack = None
    for j in range(3):
        ordering = random_ordering(g.n, SplitMix64(subseed(root_seed, index, 1000 + j)))
        inc = count_increasing_geodesics(g, d, ordering)
        s = inc - len(g)
        if inc_slack is None or s < inc_slack:
            inc_slack = s
    slack = min(Fraction(inc_slack), count_slack)
    return {
        "applicable": True,
        "d": d,
        "vertices": len(g),
        "count": count,
        "bound": str(bound),
        "slack": str(slack),
        "ok": slack >= 0,
    }


def _fs_record(g) -> dict:
    bound = ceil(average_degree(g))
    x, y, dist = max_hamming_pair(g)
    slack = dist - bound
    return {
        "vertices": len(g),
        "edges": g.edge_count,
        "pair": [x, y],
        "distance": dist,
        "slack": str(slack),
        "ok": slack >= 0,
    }


def _comp_record(fam) -> dict:
    base = induced_subgraph(fam.n, fam.sets)
    base_edges = base.edge_count
    base_dist = max_hamming_pair(base)[2] if fam.sets else 0
    slacks = []
    ok = True
    for i in range(fam.n):
        comp = compress_element(fam, i)
        if len(comp) != len(fam):
            ok = False
        g = induced_subgraph(fam.n, comp.sets)
        edge_slack = g.edge_count - base_edges
        dist_slack = base_dist - (max_hamming_pair(g)[2] if comp.sets else 0)
        slacks.extend((edge_slack, dist_slack))
        if edge_slack < 0 or dist_slack < 0:
            ok = False
    fc = full_compress(fam)
    popsum = sum(a.bit_count() for a in fc.sets)
    profile = level_profile(fc)
    weighted = sum(k * cnt for k, cnt in enumerate(profile))
    fc_edges = induced_subgraph(fam.n, fc.sets).edge_count
    if not (is_downset(fc) and len(fc) == len(fam) and popsum == fc_edges == weighted):
        ok = False
    slack = min(slacks, default=0)
    return {
        "members": len(fam),
        "compressed_edges": fc_edges,
        "slack": str(slack),
        "ok": ok,
    }


def _kat_record(fam, t: int) -> dict:
    ok = katona_check(fam, t)
    slack = len(iterated_shadow(fam, t)) - len(fam)
    return {
        "members": len(fam),
        "k": fam.k,
        "t": t,
        "slack": str(slack),
        "ok": ok and slack >= 0,
    }


def _cor_record(c) -> dict:
    bound = ceil(Fraction(c.n, 2))
    path = monochromatic_half_geodesic(c)
    slack = path.length - bound
    return {
        "n": c.n,
        "geodesic_length": path.length,
        "bound": bound,
        "slack": str(slack),
        "ok": slack >= 0,
    }


def _verify_record(params: tuple) -> dict:
    theorem, template, root_seed, index = params
    spec = template.with_seed(subseed(root_seed, index))
    instance = generate(spec)
    if theorem == "T4":
        rec = _t4_record(instance)
    elif theorem == "T2":
        rec = _t2_record(instance)
    elif theorem == "T5":
        rec = _t5_record(instance, root_seed, index)
    elif theorem == "FS":
        rec = _fs_record(instance)
    elif theorem == "COMP":
        rec = _comp_record(instance)
    elif theorem == "KAT":
        rec = _kat_record(instance, template.t)
    elif theorem == "COR":
        rec = _cor_record(instance)
    else:
        raise ValueError(f"unknown theorem identifier {theorem!r}")
    record = {"index": index, "spec": _spec_obj(spec)}
    record.update(rec)
    if not rec["ok"]:
        record["violation"] = instance_to_obj(instance)
    return record


def run_verify(
    theorem: str,
    templates: Sequence[InstanceSpec] | InstanceSpec,
    trials: int,
    seed: int = 0,
    jobs: int = 1,
) -> Report:
    """Run one theorem's invariant over ``trials`` generated instances.

    Instance i uses templates[i % len(templates)] with the sub-seed
    derived from (seed, i); any violation embeds the full instance.
    ``jobs`` never affects the report contents.
    """
    if theorem not in THEOREMS:
        raise ValueError(f"unknown theorem identifier {theorem!r}; expected one of {THEOREMS}")
    if trials < 1:
        raise ValueError(f"trials must be a positive integer, got {trials}")
    if isinstance(templates, InstanceSpec):
        templates = [templates]
    templates = list(templates)
    if not templates:
        raise ValueError("need at least one instance template")
    args = [(theorem, templates[i % len(templates)], seed, i) for i in range(trials)]
    if jobs > 1:
        with multiprocessing.Pool(jobs) as pool:
            records = pool.map(_verify_record, args, chunksize=max(1, trials // (jobs * 4)))
    else:
        records = [_verify_record(a) for a in args]
    violations = sum(1 for r in records if not r["ok"])
    slacks = [Fraction(r["slack"]) for r in records if r["slack"] is not None]
    return Report(
        task="verify",
        parameters={
            "theorem": theorem,
            "templates": [_spec_obj(t) for t in templates],
            "trials": trials,
        },
        seed=seed,
        records=records,
        aggregate={
            "trials": trials,
            "violations": violations,
            "min_slack": str(min(slacks)) if slacks else None,
        },
        passed=violations == 0,
    )
