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

One table, ``_THEOREMS``, gives each identifier the instance kinds it
accepts, the type its instances must have, its default template and its
record function; nothing else branches on the identifier.

Every violation embeds the full offending instance in its record, so a
failing report is a self-contained reproduction. Records are pure
functions of (theorem, template, root seed, index); parallel runs merge
them in index order and are byte-identical to serial runs.
"""

from __future__ import annotations

from fractions import Fraction
from functools import partial
from math import ceil, factorial
from typing import Callable, NamedTuple, Sequence

from ..core import CubeSubgraph, _lo_pattern, average_degree, induced_subgraph, max_hamming_pair
from ..colourings import EdgeColouring, monochromatic_half_geodesic
from ..geodesics import (
    count_increasing_geodesics,
    enumerate_geodesics_of_length,
    increasing_geodesic_table,
    longest_geodesic_lower_bound,
    random_ordering,
)
from ..rng import SplitMix64, derive
from ..setfamilies import (
    SetFamily,
    UniformFamily,
    compress_element,
    full_compress,
    is_downset,
    iterated_shadow,
    level_profile,
)
from .generators import COLOURING_KINDS, FAMILY_KINDS, GRAPH_KINDS, InstanceSpec, generate, pool_map
from .serialize import Report, instance_to_obj

__all__ = ["THEOREMS", "default_template", "run_verify"]


class _Theorem(NamedTuple):
    kinds: tuple[str, ...]  # the instance kinds a template may name
    type: type  # what generating one must give (from-file may not)
    template: InstanceSpec  # default_template's, before its n is set
    record: Callable  # (instance, template, root_seed, index) -> record fields


_GRAPH = InstanceSpec("induced-random", n=6, density=Fraction(1, 2))

#: The one theorem table. Each record lambda looks its function up when
#: called, so a patched module name is the one that runs.
_THEOREMS = {
    "T2": _Theorem(GRAPH_KINDS, CubeSubgraph, _GRAPH, lambda g, *_: _t2_record(g)),
    "T4": _Theorem(GRAPH_KINDS, CubeSubgraph, _GRAPH, lambda g, *_: _t4_record(g)),
    "T5": _Theorem(GRAPH_KINDS, CubeSubgraph, _GRAPH, lambda g, _, seed, i: _t5_record(g, seed, i)),
    "FS": _Theorem(GRAPH_KINDS, CubeSubgraph, _GRAPH, lambda g, *_: _fs_record(g)),
    "COMP": _Theorem(FAMILY_KINDS, SetFamily,
                     InstanceSpec("random-family", n=5, density=Fraction(1, 2)),
                     lambda fam, *_: _comp_record(fam)),
    "KAT": _Theorem(("t-intersecting-family",), UniformFamily,
                    InstanceSpec("t-intersecting-family", n=10, k=4, t=2, size=20),
                    lambda fam, template, *_: _kat_record(fam, template.t)),
    "COR": _Theorem(COLOURING_KINDS, EdgeColouring, InstanceSpec("random-colouring", n=6),
                    lambda c, *_: _cor_record(c)),
}

THEOREMS = tuple(_THEOREMS)


def _entry(theorem: str) -> _Theorem:
    if theorem not in _THEOREMS:
        raise ValueError(f"unknown theorem identifier {theorem!r}; expected one of {THEOREMS}")
    return _THEOREMS[theorem]


def default_template(theorem: str, n: int | None = None) -> InstanceSpec:
    """The CLI's template when no model flags are given."""
    template = _entry(theorem).template
    return template if n is None else template.replace(n=n)


def _spec_obj(spec: InstanceSpec) -> dict:
    obj = {"kind": spec.kind, "n": spec.n}
    for name in InstanceSpec._fields[InstanceSpec._fields.index("seed") + 1:]:
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
        ordering = random_ordering(g.n, SplitMix64(derive(root_seed, index, 1000 + j)))
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


def _full_compression(fam) -> tuple[SetFamily, int, CubeSubgraph, bool]:
    """The full compression of fam, its total popcount, its induced
    subgraph, and whether it is a downset whose total popcount equals both
    its induced edge count and its level-weighted size. (Its size is fam's:
    ``compress_element`` raises on any change.) The total popcount counts,
    per element d, the members containing d."""
    fc = full_compress(fam)
    popsum = sum((fc.mask & ~_lo_pattern(fam.n, d)).bit_count() for d in range(fam.n))
    g = induced_subgraph(fam.n, fc.mask)
    weighted = sum(k * cnt for k, cnt in enumerate(level_profile(fc)))
    ok = is_downset(fc) and popsum == g.edge_count == weighted
    return fc, popsum, g, ok


def _comp_record(fam) -> dict:
    base = induced_subgraph(fam.n, fam.mask)
    base_edges = base.edge_count
    base_dist = max_hamming_pair(base)[2] if fam.mask else 0
    slacks = []
    ok = True
    for i in range(fam.n):
        comp = compress_element(fam, i)
        g = induced_subgraph(fam.n, comp.mask)
        edge_slack = g.edge_count - base_edges
        dist_slack = base_dist - (max_hamming_pair(g)[2] if comp.mask else 0)
        slacks.extend((edge_slack, dist_slack))
        if edge_slack < 0 or dist_slack < 0:
            ok = False
    _, _, fc_graph, fc_ok = _full_compression(fam)
    slack = min(slacks, default=0)
    return {
        "members": len(fam),
        "compressed_edges": fc_graph.edge_count,
        "slack": str(slack),
        "ok": ok and fc_ok,
    }


def _kat_record(fam, t: int) -> dict:
    # KAT takes only generated families, which are checked t-intersecting
    slack = len(iterated_shadow(fam, t)) - len(fam)
    return {
        "members": len(fam),
        "k": fam.k,
        "t": t,
        "slack": str(slack),
        "ok": slack >= 0,
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


def _verify_record(theorem: str, template: InstanceSpec, root_seed: int, index: int) -> dict:
    entry = _THEOREMS[theorem]
    spec = template.replace(seed=derive(root_seed, index))
    instance = generate(spec)
    if not isinstance(instance, entry.type):
        raise ValueError(
            f"{theorem} runs on {entry.type.__name__} instances, "
            f"not {type(instance).__name__} ({spec.path or spec.kind})"
        )
    rec = entry.record(instance, template, root_seed, index)
    record = {"index": index, "spec": _spec_obj(spec)}
    record.update(rec)
    if not rec["ok"]:
        record["violation"] = instance_to_obj(instance)
    return record


def _verify_block(theorem: str, templates: list, root_seed: int, start: int, stop: int) -> list[dict]:
    """The records of instances [start, stop), each from ``_verify_record``
    as the module names it when called."""
    return [_verify_record(theorem, templates[i % len(templates)], root_seed, i) for i in range(start, stop)]


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
    kinds = _entry(theorem).kinds
    if trials < 1:
        raise ValueError(f"trials must be a positive integer, got {trials}")
    templates = [templates] if isinstance(templates, InstanceSpec) else list(templates)
    if not templates:
        raise ValueError("need at least one instance template")
    for t in templates:
        if t.kind not in kinds:
            raise ValueError(f"{theorem} cannot run on {t.kind} instances; it takes {', '.join(kinds)}")
    blocks = pool_map(partial(_verify_block, theorem, templates, seed), trials, jobs)
    records = [record for block in blocks for record in block]
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
