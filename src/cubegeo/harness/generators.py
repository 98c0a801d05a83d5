"""Seeded instance generation for verification sweeps.

Every instance is a pure function of its spec (kind, parameters, seed):
the seed fully determines the result, and sweeps derive one sub-seed per
instance index, so parallel and serial runs see identical instances.

Random draws that select nothing fall back to the singleton vertex {0}
so that average degree stays defined.
"""

from __future__ import annotations

import marshal
import os
from contextlib import closing, suppress
from fractions import Fraction
from functools import reduce
from itertools import islice
from math import comb
from operator import or_

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
    They go to W = min(jobs, block count, usable CPUs) workers, at least
    one, and to one where ``os.fork`` is missing; the results never depend
    on W, and every W takes the same path.

    Block c runs on worker c % W. Worker 0 is the calling process, which
    runs its blocks as the caller reaches them, so W = 1 forks and pins
    nothing; workers 1..W-1 are forked children, each sending every
    block's result down its own pipe as a length-prefixed ``marshal``
    frame, so fn must return values of the built-in types marshal takes,
    as JSON-shaped dicts are; marshal, unlike JSON, keeps int dict keys.
    An exception in fn is re-raised at its block's position, a worker's
    with its traceback text there as ``__cause__``; a child that ends
    before sending a block raises RuntimeError, and finishing, failing or
    closing the generator kills and reaps every child.

    Where W equals the size of the caller's allowed CPU set, as at
    ``--jobs 2`` on two CPUs, worker w runs on the w-th CPU of the set
    alone, in ascending order, and the calling thread stays on the first
    until the generator finishes or is closed: a caller that stops early
    must close it to get its own mask back. With fewer workers than CPUs,
    or where the OS cannot or will not pin, the OS places the workers.
    The pins keep apart the workers of one map, not of two processes: two
    maps on the same set pin to the same CPUs, and a pinned worker stays
    on its CPU while another process keeps that CPU busy."""
    size = min(1024, -(-total // 16)) or 1  # total 0: no block and no fork
    starts = range(0, total, size)  # O(1) to build and to slice: no block is listed

    def block(start: int):
        return fn(start, min(start + size, total))

    # -(-total // size) is the block count: len(starts) overflows past 2^63
    workers = min(jobs, -(-total // size), _usable_cpus()) if hasattr(os, "fork") else 1
    yield from _forked_map(block, starts, max(workers, 1))


def _usable_cpus() -> int:
    """The CPUs this process may run on."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def _forked_map(block, starts: range, workers: int):
    import signal

    mask = os.sched_getaffinity(0) if workers > 1 and hasattr(os, "sched_setaffinity") else set()
    # one CPU a worker only where two or more workers fill the set; otherwise the OS places every worker
    cpus = sorted(mask) if len(mask) == workers else []
    children = {}  # worker -> (pid, read end of its pipe)
    try:
        _pin(cpus[:1])
        for w in range(1, workers):
            r, wr = os.pipe()
            pid = os.fork()
            if pid == 0:
                os.close(r)
                _run_child(block, starts[w::workers], wr, cpus[w:w + 1])  # never returns
            os.close(wr)
            children[w] = (pid, open(r, "rb"))
        for c, start in enumerate(starts):
            w = c % workers
            if w == 0:
                yield block(start)
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
        _pin(cpus and mask)


class _WorkerTraceback(Exception):
    """The ``__cause__`` of an exception re-raised from a forked worker:
    its traceback text there, which the pickled exception does not keep."""


def _pin(cpus) -> None:
    """Run this process on ``cpus`` alone. With none given, or where the
    OS refuses, its placement stays the OS's, and the run goes on."""
    if cpus:
        with suppress(OSError):
            os.sched_setaffinity(0, cpus)


def _run_child(block, starts: range, fd: int, cpus):
    """A forked worker's whole life: move to ``cpus``, then send the result
    of each block, by its start, or the exception that stops it, pickled,
    with its traceback text, as a marshal frame; then exit at once, running
    no handler inherited from the parent, also when the parent closed the
    pipe."""
    try:
        _pin(cpus)
        with open(fd, "wb") as out:
            for start in starts:
                try:
                    frame, failed = marshal.dumps((block(start), None)), False
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
        keys = _edge_keys(n, _blocks(_valid_edge_mask(n), n))
        picked = [divmod(keys[i], n) for i in _bits(rng.bernoulli_mask(density, len(keys)))]
        lo_masks = tuple(_blocks(_mask((_pos(lo, dir, n) for lo, dir in picked), n << n), n))
        # an edge (lo, d) has the endpoints lo and lo + 2^d
        vmask = reduce(or_, (m | m << (1 << d) for d, m in enumerate(lo_masks)), 0)
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

    Seed a common t-element core by a shuffle of [n], then take candidate
    k-sets from ``SplitMix64.subset_draws``: the core plus k - t shuffled
    elements outside it, and after the first candidate, one element swap
    in a quarter of them. A candidate is kept if it is new and stays
    t-intersecting with everything kept so far, until ``size`` are kept
    or 50 min(size, C(n, k)) candidates are drawn (there are only C(n, k)
    k-sets). The first candidate is never perturbed, so the family is
    nonempty. Two supersets of the core share at least t elements, so a
    candidate that holds the core is tested only against the kept members
    that miss part of it.
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
    outside = [1 << e for e in range(n) if not (core >> e) & 1]
    kept: set[int] = set()
    loose: list[int] = []  # the kept members that miss part of the core
    with closing(rng.subset_draws(outside, k - t, core, n)) as draws:
        for s in islice(draws, 50 * min(size, comb(n, k))):
            if s in kept:
                continue
            holds_core = s & core == core
            if all((s & other).bit_count() >= t for other in (loose if holds_core else kept)):
                kept.add(s)
                if not holds_core:
                    loose.append(s)
                if len(kept) == size:
                    break
    fam = UniformFamily.of(n, kept, k)
    if not is_t_intersecting(fam, t):
        raise RuntimeError(f"generated family is not {t}-intersecting")
    return fam
