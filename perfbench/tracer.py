"""Per-layer tracing of one ``cubegeo`` CLI invocation, from outside the library.

Run as a script, it executes one CLI invocation in this process with every
function named in ``LAYERS`` wrapped at each module that binds it (``search``,
``verify`` and ``colourings`` import library functions by name, so patching
only the defining module would miss those calls):

    PYTHONPATH=src python3 perfbench/tracer.py --spans FILE -- search ...

The CLI writes its report exactly as it does untraced. Each wrapped call
records a span (name, parent, start, end) in memory, and the spans and
counts are written to FILE when the invocation ends; ``read_metrics`` turns
that file into the per-layer metrics.

A layer's time metric is its self time: the summed duration of its spans
minus the part of each span that its child spans cover. Counts are exact:
they repeat on every run of the same invocation.
"""

from __future__ import annotations

import array
import functools
import json
import os
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass

_MASK = (1 << 64) - 1


@dataclass(frozen=True)
class Layer:
    """One traced layer: the functions whose self time ``time_metric`` sums.

    ``calls_metric`` counts calls of ``counted`` (all ``functions`` when
    empty). ``moves`` names the workloads whose ``items_per_s`` this layer
    should move; ``zero_on`` the workloads on which its calls and counters
    must read exactly zero.
    """

    time_metric: str
    module: str
    functions: tuple[str, ...]
    calls_metric: str | None = None
    counted: tuple[str, ...] = ()
    counters: tuple[str, ...] = ()
    moves: tuple[str, ...] = ()
    zero_on: tuple[str, ...] = ()


_SEARCH = ("search-exhaustive", "search-sample")

LAYERS = (
    Layer("colourings.from_index_s", "cubegeo.colourings",
          ("antipodal_colouring_from_index", "colouring_from_index"),
          calls_metric="colourings.from_index_calls",
          moves=("search-exhaustive",), zero_on=("search-sample", "verify-sweep")),
    Layer("colourings.random_s", "cubegeo.colourings",
          ("random_antipodal_colouring", "random_colouring"),
          moves=("search-sample",), zero_on=("search-exhaustive",)),
    Layer("colourings.check_s", "cubegeo.colourings",
          ("find_monochromatic_antipodal_path", "find_monochromatic_antipodal_geodesic",
           "find_one_change_antipodal_geodesic"),
          calls_metric="colourings.check_calls",
          moves=_SEARCH, zero_on=("verify-sweep",)),
    Layer("colourings.validate_s", "cubegeo.colourings", ("validate_witness",),
          moves=_SEARCH, zero_on=("verify-sweep",)),
    Layer("colourings.min_changes_s", "cubegeo.colourings", ("min_colour_changes_antipodal",),
          calls_metric="colourings.min_changes_calls",
          moves=("search-sample",), zero_on=("search-exhaustive",)),
    Layer("colourings.half_geodesic_s", "cubegeo.colourings", ("monochromatic_half_geodesic",),
          moves=("verify-sweep",), zero_on=_SEARCH),
    Layer("core.induced_subgraph_s", "cubegeo.core", ("induced_subgraph",),
          calls_metric="core.induced_subgraph_calls", counters=("core.edges_built",),
          moves=("verify-sweep", "instance-io"), zero_on=_SEARCH),
    Layer("core.make_subgraph_s", "cubegeo.core", ("make_subgraph",),
          moves=("instance-io", "verify-sweep"), zero_on=_SEARCH),
    Layer("core.max_hamming_s", "cubegeo.core", ("max_hamming_pair",),
          moves=("instance-io", "verify-sweep"), zero_on=_SEARCH),
    Layer("geodesics.table_s", "cubegeo.geodesics", ("increasing_geodesic_table",),
          calls_metric="geodesics.table_calls", counters=("geodesics.relaxations",),
          moves=("verify-sweep",), zero_on=_SEARCH),
    Layer("geodesics.count_s", "cubegeo.geodesics",
          ("enumerate_geodesics_of_length", "count_increasing_geodesics"),
          moves=("verify-sweep",), zero_on=_SEARCH),
    Layer("geodesics.greedy_s", "cubegeo.geodesics", ("greedy_geodesic",),
          moves=("instance-io",), zero_on=_SEARCH),
    Layer("setfamilies.compress_s", "cubegeo.setfamilies", ("compress_element", "full_compress"),
          moves=("verify-sweep",), zero_on=_SEARCH),
    Layer("setfamilies.shadow_s", "cubegeo.setfamilies", ("shadow", "iterated_shadow"),
          moves=("verify-sweep",), zero_on=_SEARCH),
    Layer("generators.generate_s", "cubegeo.harness.generators", ("generate",),
          counters=("rng.u64_draws",),
          moves=("verify-sweep", "search-sample"), zero_on=("search-exhaustive",)),
    # The pool code of run_search also moves items_per_s_jobs2 here.
    Layer("search.self_s", "cubegeo.harness.search", ("run_search", "_search_block"),
          calls_metric="search.blocks", counted=("_search_block",),
          moves=("search-exhaustive",), zero_on=("verify-sweep",)),
    Layer("verify.self_s", "cubegeo.harness.verify", ("run_verify", "_verify_record"),
          calls_metric="verify.records", counted=("_verify_record",),
          moves=("verify-sweep",), zero_on=_SEARCH),
    # Every invocation dumps its report, so dumping is small but never zero.
    Layer("serialize.dump_s", "cubegeo.harness.serialize",
          ("dumps", "save_json", "instance_to_obj", "graph_to_obj", "colouring_to_obj",
           "family_to_obj"),
          counters=("serialize.report_bytes",),
          moves=("instance-io", "verify-sweep")),
    Layer("serialize.load_s", "cubegeo.harness.serialize",
          ("load_json", "load_instance", "obj_to_instance", "obj_to_graph", "obj_to_colouring",
           "obj_to_family"),
          counters=("serialize.instance_bytes",),
          moves=("instance-io",), zero_on=_SEARCH),
)

#: Metrics that count work; they repeat exactly across runs of one commit.
COUNT_METRICS = tuple(
    name for layer in LAYERS for name in ((layer.calls_metric,) if layer.calls_metric else ())
) + tuple(c for layer in LAYERS for c in layer.counters) + ("trace.spans",)

#: Every metric a traced invocation reports, in report order.
METRICS = tuple(layer.time_metric for layer in LAYERS) + COUNT_METRICS


def self_times(names, parents, starts, ends) -> list[int]:
    """Self time of each span: its duration minus the union of its child
    spans' intervals, clipped to its own. ``parents[i]`` is the index of the
    span that was open when span i started, or -1."""
    children: dict[int, list[int]] = {}
    for i, p in enumerate(parents):
        if p >= 0:
            children.setdefault(p, []).append(i)
    out = []
    for i in range(len(names)):
        lo, hi = starts[i], ends[i]
        covered = 0
        reach = lo
        for c in sorted(children.get(i, ()), key=lambda c: starts[c]):
            a, b = max(starts[c], reach), min(ends[c], hi)
            if b > a:
                covered += b - a
                reach = b
        out.append((hi - lo) - covered)
    return out


def bypassed_but_busy(workload: str, metrics: dict) -> list[str]:
    """The metrics of layers predicted to do no work on ``workload`` that
    read non-zero, as ``name=value`` strings."""
    out = []
    for layer in LAYERS:
        if workload in layer.zero_on:
            names = [layer.time_metric, *filter(None, [layer.calls_metric]), *layer.counters]
            out += [f"{name}={metrics[name]}" for name in names if metrics[name]]
    return out


class Tracer:
    """Wraps the LAYERS functions while installed and records their spans."""

    def __init__(self):
        self.names: list[str] = []  # span name table; spans store indices
        self.name = array.array("q")
        self.parent = array.array("q")
        self.start = array.array("q")
        self.end = array.array("q")
        self.counts = dict.fromkeys(COUNT_METRICS, 0)
        self._stack = [-1]
        self._rngs: list[tuple[object, int]] = []
        self._layer_of: dict[str, Layer] = {}

    def _wrap(self, fn, qualified: str, layer: Layer):
        name_id = len(self.names)
        self.names.append(qualified)
        self._layer_of[qualified] = layer
        short = qualified.rsplit(".", 1)[1]
        count = layer.calls_metric if short in (layer.counted or layer.functions) else None
        hook = _HOOKS.get(short)
        stack, names, parent, start, end = self._stack, self.name, self.parent, self.start, self.end
        counts = self.counts
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(names)
            names.append(name_id)
            parent.append(stack[-1])
            start.append(0)
            end.append(0)
            stack.append(sid)
            start[sid] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end[sid] = clock()
                stack.pop()
            if count:
                counts[count] += 1
            if hook:
                hook(counts, args, result)
            return result

        return traced

    @contextmanager
    def installed(self):
        """Patch every binding of every LAYERS function in the loaded
        ``cubegeo`` modules; restore them all on exit."""
        import importlib

        import cubegeo.harness.cli  # noqa: F401  (loads every library module)
        from cubegeo.rng import SplitMix64

        wrappers = {}
        for layer in LAYERS:
            module = importlib.import_module(layer.module)
            for fname in layer.functions:
                fn = getattr(module, fname)
                wrappers[id(fn)] = (fn, self._wrap(fn, f"{layer.module}.{fname}", layer))
        patched = []
        for mod_name, module in list(sys.modules.items()):
            if not mod_name.startswith("cubegeo") or module is None:
                continue
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])
                    patched.append((module, attr, value))

        rngs = self._rngs
        original_init = SplitMix64.__init__

        def init(rng, seed):
            original_init(rng, seed)
            rngs.append((rng, rng.state))

        SplitMix64.__init__ = init
        try:
            yield self
        finally:
            SplitMix64.__init__ = original_init
            for module, attr, value in patched:
                setattr(module, attr, value)
            self._count_rng_draws()

    def _count_rng_draws(self) -> None:
        # Each draw adds the Weyl increment to the state, so the number of
        # draws is the state's advance times the increment's inverse.
        from cubegeo.rng import _GAMMA

        inverse = pow(_GAMMA, -1, 1 << 64)
        self.counts["rng.u64_draws"] += sum(
            ((rng.state - first) * inverse) & _MASK for rng, first in self._rngs
        )
        self._rngs.clear()

    def write_spans(self, path: str) -> None:
        """A JSON header line (span names, their layers, the counts), then
        the name, parent, start and end columns as raw native int64 arrays;
        times are in ns from an arbitrary origin."""
        counts = dict(self.counts, **{"trace.spans": len(self.name)})
        header = {"names": self.names,
                  "layers": [self._layer_of[n].time_metric for n in self.names],
                  "spans": len(self.name), "counts": counts}
        with open(path, "wb") as fh:
            fh.write((json.dumps(header) + "\n").encode())
            for column in (self.name, self.parent, self.start, self.end):
                column.tofile(fh)


def read_metrics(path: str) -> dict[str, float | int]:
    """The per-layer metrics of one span file written by ``write_spans``."""
    with open(path, "rb") as fh:
        header = json.loads(fh.readline())
        columns = []
        for _ in range(4):
            column = array.array("q")
            column.fromfile(fh, header["spans"])
            columns.append(column)
    names, parents, starts, ends = columns
    out: dict[str, float | int] = {layer.time_metric: 0.0 for layer in LAYERS}
    layers = header["layers"]
    for name_id, ns in zip(names, self_times(names, parents, starts, ends)):
        out[layers[name_id]] += ns / 1e9
    out.update(header["counts"])
    return out


def _count_edges_built(counts, args, result) -> None:
    counts["core.edges_built"] += len(result.edges)


def _count_relaxations(counts, args, result) -> None:
    counts["geodesics.relaxations"] += len(args[0].edges)


def _count_dump(counts, args, result) -> None:
    obj = args[0]
    key = "serialize.report_bytes" if isinstance(obj, dict) and "task" in obj else "serialize.instance_bytes"
    counts[key] += len(result.encode())


def _count_load(counts, args, result) -> None:
    counts["serialize.instance_bytes"] += os.path.getsize(args[0])


_HOOKS = {
    "induced_subgraph": _count_edges_built,
    "make_subgraph": _count_edges_built,
    "increasing_geodesic_table": _count_relaxations,
    "dumps": _count_dump,
    "load_json": _count_load,
}


def main(argv: list[str]) -> int:
    if len(argv) < 3 or argv[0] != "--spans" or argv[2] != "--":
        print("usage: tracer.py --spans FILE -- CLI-ARGS...", file=sys.stderr)
        return 1
    tracer = Tracer()
    with tracer.installed():
        from cubegeo.harness import cli

        code = cli.main(argv[3:])
    sys.stdout.flush()
    tracer.write_spans(argv[1])
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
