"""Seeded instance generation for verification sweeps.

Every instance is a pure function of its spec (kind, parameters, seed):
the seed fully determines the result, and sweeps derive one sub-seed per
instance index, so parallel and serial runs see identical instances.

Random draws that select nothing fall back to the singleton vertex {0}
so that average degree stays defined.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb

from ..core import (CubeSubgraph, _Value, _ball, _bits, _blocks, _check_dimension, _edge_keys, _lo_pattern, _mask,
                    _pos, _valid_edge_mask, induced_subgraph)
from ..colourings import random_antipodal_colouring, random_colouring
from ..rng import SplitMix64, derive
from ..setfamilies import SetFamily, UniformFamily, is_t_intersecting

__all__ = ["InstanceSpec", "generate", "random_t_intersecting_family"]

GRAPH_KINDS = ("induced-random", "edge-random", "hamming-ball", "full-cube", "disjoint-cubes", "from-file")
COLOURING_KINDS = ("random-colouring", "antipodal-colouring")
FAMILY_KINDS = ("random-family", "t-intersecting-family")
KINDS = GRAPH_KINDS + COLOURING_KINDS + FAMILY_KINDS


class InstanceSpec(_Value):
    """What to generate. Unused parameters stay None; ``seed`` fully
    determines the instance for every random kind."""

    __slots__ = _fields = ("kind", "n", "seed", "density", "radius", "centre", "subdim", "copies", "k", "t",
                           "size", "path")

    def __init__(self, kind: str, n: int = 0, seed: int = 0, density: Fraction | None = None,
                 radius: int | None = None, centre: int = 0, subdim: int | None = None, copies: int | None = None,
                 k: int | None = None, t: int | None = None, size: int | None = None, path: str | None = None):
        self._init(kind, n, seed, density, radius, centre, subdim, copies, k, t, size, path)

    def replace(self, **changes) -> "InstanceSpec":
        """This spec with the named fields changed; an unknown name is a TypeError."""
        return InstanceSpec(**dict(zip(self._fields, self._values()), **changes))


def pool_map(fn, total: int, jobs: int):
    """fn(start, stop) on each block of the indices [0, total), the results
    in order and lazily. Blocks hold min(1024, ceil(total / 16)) indices,
    the last one the rest: a split by the work alone, never by ``jobs``.
    They go to W = min(jobs, block count, usable CPUs) workers, serially
    when W is 1 or ``os.fork`` is missing; the results never depend on W.

    Block c runs on worker c % W. Worker 0 is the calling process, which
    runs its blocks as the caller reaches them; workers 1..W-1 are forked
    children, each sending every block's result down its own pipe as a
    length-prefixed ``marshal`` frame, so fn must return values of the
    built-in types marshal takes, as JSON-shaped dicts are; marshal,
    unlike JSON, keeps int dict keys. An exception in fn is re-raised at
    its block's position, a worker's with its traceback text there as
    ``__cause__``; a child that ends before sending a block raises
    RuntimeError, and finishing, failing or closing the generator kills
    and reaps every child."""
    size = min(1024, -(-total // 16))
    blocks = [(start, min(start + size, total)) for start in range(0, total, size)]
    if jobs > 1:
        import os

        workers = min(jobs, len(blocks), _usable_cpus())
        if workers > 1 and hasattr(os, "fork"):
            yield from _forked_map(fn, blocks, workers)
            return
    for start, stop in blocks:
        yield fn(start, stop)


def _usable_cpus() -> int:
    """The CPUs this process may run on."""
    import os

    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def _forked_map(fn, blocks: list, workers: int):
    import marshal
    import os
    import signal

    children = {}  # worker -> (pid, read end of its pipe)
    try:
        for w in range(1, workers):
            r, wr = os.pipe()
            pid = os.fork()
            if pid == 0:
                os.close(r)
                _run_child(fn, blocks[w::workers], wr)  # never returns
            os.close(wr)
            children[w] = (pid, open(r, "rb"))
        for c, (start, stop) in enumerate(blocks):
            w = c % workers
            if w == 0:
                yield fn(start, stop)
                continue
            pipe = children[w][1]
            head = pipe.read(8)
            size = int.from_bytes(head, "little")
            body = pipe.read(size)
            if len(head) < 8 or len(body) < size:
                raise RuntimeError(f"worker {w} ended before sending block {c}")
            result, trace = marshal.loads(body)
            if trace is not None:  # result is the pickled exception fn raised
                import pickle

                raise pickle.loads(result) from _WorkerTraceback(trace)
            yield result
    finally:
        for pid, pipe in children.values():
            pipe.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


class _WorkerTraceback(Exception):
    """The ``__cause__`` of an exception re-raised from a forked worker:
    its traceback text there, which the pickled exception does not keep."""


def _run_child(fn, blocks: list, fd: int):
    """A forked worker's whole life: send each block's result, or the
    exception that stops it, pickled, with its traceback text, as a marshal
    frame; then exit at once, running no handler inherited from the parent."""
    import marshal
    import os

    try:
        with open(fd, "wb") as out:
            for start, stop in blocks:
                try:
                    frame, failed = marshal.dumps((fn(start, stop), None)), False
                except Exception as exc:
                    import pickle
                    import traceback

                    frame, failed = marshal.dumps((pickle.dumps(exc), traceback.format_exc())), True
                out.write(len(frame).to_bytes(8, "little") + frame)
                out.flush()
                if failed:
                    break
    finally:
        os._exit(0)


def _need(spec: InstanceSpec, field: str):
    value = getattr(spec, field)
    if value is None:
        raise ValueError(f"{spec.kind} instances need the {field!r} parameter")
    return value


def _check_items(spec: InstanceSpec, items: int, max_items: int | None) -> None:
    if max_items is not None and items > max_items:
        raise ValueError(f"{spec.kind} instance at n={spec.n} could hold {items} items, over the cap of {max_items}")


def generate(spec: InstanceSpec, max_items: int | None = None):
    """Build the instance a spec describes: a CubeSubgraph, an
    EdgeColouring, or a SetFamily. With ``max_items``, a graph or family
    whose file could hold more items (vertices and edges, or members) is
    refused after the spec's other checks, before anything is built."""
    if spec.kind not in KINDS:
        raise ValueError(f"unknown instance kind {spec.kind!r}")
    if spec.kind == "from-file":
        from . import serialize

        return serialize.load_instance(_need(spec, "path"))

    n = spec.n
    if spec.kind not in COLOURING_KINDS:  # colourings check their own, smaller range
        _check_dimension(n)  # before any 2^n-bit mask is built or any member drawn
        graph_items = (1 << n) + (n << n >> 1)
    if spec.kind == "full-cube":
        _check_items(spec, graph_items, max_items)
        return induced_subgraph(n, (1 << (1 << n)) - 1)

    if spec.kind == "induced-random":
        density = Fraction(_need(spec, "density"))
        _check_items(spec, graph_items, max_items)
        rng = SplitMix64(derive(spec.seed))
        return induced_subgraph(n, rng.bernoulli_mask(density, 1 << n) or 1)

    if spec.kind == "edge-random":
        density = Fraction(_need(spec, "density"))
        _check_items(spec, graph_items, max_items)
        rng = SplitMix64(derive(spec.seed))
        # bit i of the draw picks the i-th edge in (lo, dir) order
        keys = _edge_keys(n, _blocks(_valid_edge_mask(n), n, n))
        picked = [divmod(keys[i], n) for i in _bits(rng.bernoulli_mask(density, len(keys)))]
        lo_masks = tuple(_blocks(_mask((_pos(lo, dir, n) for lo, dir in picked), n << n), n, n))
        vmask = _mask((v for lo, dir in picked for v in (lo, lo | 1 << dir)), 1 << n)
        return CubeSubgraph(n, vmask or 1, lo_masks)

    if spec.kind == "hamming-ball":
        radius = _need(spec, "radius")
        centre = spec.centre
        if not 0 <= centre < 1 << n:
            raise ValueError(f"hamming-ball centre {centre} is not a vertex of Q_{n}")
        if radius < 0:
            raise ValueError(f"hamming-ball radius {radius} is negative")
        _check_items(spec, graph_items, max_items)
        return induced_subgraph(n, _ball(n, centre, radius))

    if spec.kind == "disjoint-cubes":
        d = _need(spec, "subdim")
        copies = _need(spec, "copies")
        if copies < 1 or d < 0 or copies << d > 1 << n:
            raise ValueError(f"cannot place {copies} disjoint {d}-cubes inside Q_{n}")
        _check_items(spec, graph_items, max_items)
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
        _check_items(spec, 1 << n, max_items)
        rng = SplitMix64(derive(spec.seed))
        return SetFamily(n, rng.bernoulli_mask(density, 1 << n))

    if spec.kind == "t-intersecting-family":
        k, t, size = _need(spec, "k"), _need(spec, "t"), _need(spec, "size")
        if 0 <= t <= k <= n:  # else random_t_intersecting_family names the fault
            _check_items(spec, min(size, comb(n, k)), max_items)
        return random_t_intersecting_family(n, k, t, size, spec.seed)

    raise AssertionError(f"unhandled kind {spec.kind}")


def random_t_intersecting_family(
    n: int, k: int, t: int, size: int, seed: int
) -> UniformFamily:
    """A nonempty t-intersecting k-uniform family on [n].

    Seed a common t-element core, draw k-sets containing it, then perturb
    a quarter of the draws by one element swap and keep a draw only if it
    stays t-intersecting with everything kept so far. The first draw is
    never perturbed, so the family is nonempty. Two supersets of the core
    share at least t elements, so a draw that holds the core is tested
    only against the kept members that miss part of it.
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
    kept: set[int] = set()
    loose: list[int] = []  # the kept members that miss part of the core
    attempts = 0
    while len(kept) < size and attempts < 50 * min(size, comb(n, k)):  # there are only C(n, k) k-sets
        attempts += 1
        rng.shuffle(outside)
        s = core
        for e in outside[: k - t]:
            s |= 1 << e
        if kept and rng.randrange(4) == 0:
            inside = [e for e in range(n) if (s >> e) & 1]
            away = [e for e in range(n) if not (s >> e) & 1]
            if inside and away:
                s ^= 1 << inside[rng.randrange(len(inside))]
                s |= 1 << away[rng.randrange(len(away))]
        if s in kept:
            continue
        holds_core = s & core == core
        if all((s & other).bit_count() >= t for other in (loose if holds_core else kept)):
            kept.add(s)
            if not holds_core:
                loose.append(s)
    fam = UniformFamily.of(n, kept, k)
    if not is_t_intersecting(fam, t):
        raise RuntimeError(f"generated family is not {t}-intersecting")
    return fam
