"""Seeded instance generation for verification sweeps.

Every instance is a pure function of its spec (kind, parameters, seed):
the seed fully determines the result, and sweeps derive one sub-seed per
instance index, so parallel and serial runs see identical instances.

Random draws that select nothing fall back to the singleton vertex {0}
so that average degree stays defined.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction

from ..core import CubeSubgraph, _bits, _check_dimension, _lo_pattern, _mask, induced_subgraph
from ..colourings import random_antipodal_colouring, random_colouring, all_edges
from ..rng import SplitMix64, derive
from ..setfamilies import SetFamily, UniformFamily, is_t_intersecting

__all__ = ["InstanceSpec", "generate", "random_t_intersecting_family", "subseed"]

GRAPH_KINDS = ("induced-random", "edge-random", "hamming-ball", "full-cube", "disjoint-cubes", "from-file")
COLOURING_KINDS = ("random-colouring", "antipodal-colouring")
FAMILY_KINDS = ("random-family", "t-intersecting-family")
KINDS = GRAPH_KINDS + COLOURING_KINDS + FAMILY_KINDS


@dataclass(frozen=True)
class InstanceSpec:
    """What to generate. Unused parameters stay None; ``seed`` fully
    determines the instance for every random kind."""

    kind: str
    n: int = 0
    seed: int = 0
    density: Fraction | None = None
    radius: int | None = None
    centre: int = 0
    subdim: int | None = None
    copies: int | None = None
    k: int | None = None
    t: int | None = None
    size: int | None = None
    path: str | None = None

    def with_seed(self, seed: int) -> "InstanceSpec":
        return replace(self, seed=seed)


def subseed(root: int, *keys: int) -> int:
    """Per-instance sub-seed; see the RNG module's splitting contract."""
    return derive(root, *keys)


def _need(spec: InstanceSpec, field: str):
    value = getattr(spec, field)
    if value is None:
        raise ValueError(f"{spec.kind} instances need the {field!r} parameter")
    return value


def generate(spec: InstanceSpec):
    """Build the instance a spec describes: a CubeSubgraph, an
    EdgeColouring, or a SetFamily."""
    if spec.kind not in KINDS:
        raise ValueError(f"unknown instance kind {spec.kind!r}")
    if spec.kind == "from-file":
        from . import serialize

        return serialize.load_instance(_need(spec, "path"))

    n = spec.n
    if spec.kind in GRAPH_KINDS:
        _check_dimension(n)  # before any 2^n-bit mask is built
    if spec.kind == "full-cube":
        return induced_subgraph(n, (1 << (1 << n)) - 1)

    if spec.kind == "induced-random":
        density = Fraction(_need(spec, "density"))
        rng = SplitMix64(derive(spec.seed))
        return induced_subgraph(n, rng.bernoulli_mask(density, 1 << n) or 1)

    if spec.kind == "edge-random":
        density = Fraction(_need(spec, "density"))
        rng = SplitMix64(derive(spec.seed))
        edges = list(all_edges(n))
        picked = [edges[i] for i in _bits(rng.bernoulli_mask(density, len(edges)))]
        lo_masks = tuple(_mask((e.lo for e in picked if e.dir == d), 1 << n) for d in range(n))
        vmask = _mask((v for e in picked for v in e.endpoints()), 1 << n)
        return CubeSubgraph(n, vmask or 1, lo_masks)

    if spec.kind == "hamming-ball":
        radius = _need(spec, "radius")
        centre = spec.centre
        verts = [v for v in range(1 << n) if (v ^ centre).bit_count() <= radius]
        return induced_subgraph(n, verts)

    if spec.kind == "disjoint-cubes":
        d = _need(spec, "subdim")
        copies = _need(spec, "copies")
        if copies < 1 or d < 0 or copies << d > 1 << n:
            raise ValueError(f"cannot place {copies} disjoint {d}-cubes inside Q_{n}")
        # copy j occupies the consecutive vertices [j 2^d, (j + 1) 2^d)
        vmask = (1 << (copies << d)) - 1
        lo_masks = tuple(_lo_pattern(n, dir) & vmask if dir < d else 0 for dir in range(n))
        return CubeSubgraph(n, vmask, lo_masks)

    if spec.kind == "random-colouring":
        return random_colouring(n, spec.seed)

    if spec.kind == "antipodal-colouring":
        return random_antipodal_colouring(n, spec.seed)

    if spec.kind == "random-family":
        density = Fraction(_need(spec, "density"))
        rng = SplitMix64(derive(spec.seed))
        return SetFamily.of(n, _bits(rng.bernoulli_mask(density, 1 << n)))

    if spec.kind == "t-intersecting-family":
        return random_t_intersecting_family(
            n, _need(spec, "k"), _need(spec, "t"), _need(spec, "size"), spec.seed
        )

    raise AssertionError(f"unhandled kind {spec.kind}")


def random_t_intersecting_family(
    n: int, k: int, t: int, size: int, seed: int
) -> UniformFamily:
    """A nonempty t-intersecting k-uniform family on [n].

    Seed a common t-element core, draw k-sets containing it, then perturb
    a quarter of the draws by one element swap and keep a draw only if it
    stays t-intersecting with everything kept so far. The first draw is
    never perturbed, so the family is nonempty.
    """
    if not 0 <= t <= k <= n:
        raise ValueError(f"need 0 <= t <= k <= n, got t={t} k={k} n={n}")
    if size < 1:
        raise ValueError("size must be at least 1")
    rng = SplitMix64(derive(seed))
    elems = list(range(n))
    rng.shuffle(elems)
    core = 0
    for e in elems[:t]:
        core |= 1 << e
    outside = [e for e in range(n) if not (core >> e) & 1]
    kept: list[int] = []
    attempts = 0
    while len(kept) < size and attempts < 50 * size:
        attempts += 1
        rng.shuffle(outside)
        s = core
        for e in outside[: k - t]:
            s |= 1 << e
        if kept and rng.randrange(4) == 0:
            inside = [e for e in range(n) if (s >> e) & 1]
            away = [e for e in range(n) if not (s >> e) & 1]
            if away:
                s ^= 1 << inside[rng.randrange(len(inside))]
                s |= 1 << away[rng.randrange(len(away))]
        if s in kept:
            continue
        if all((s & other).bit_count() >= t for other in kept):
            kept.append(s)
    fam = UniformFamily.of(n, kept, k)
    if not is_t_intersecting(fam, t):
        raise RuntimeError(f"generated family is not {t}-intersecting")
    return fam
