"""JSON formats and deterministic report I/O.

Formats (all 0-based directions, all keys in fixed order):

  graph     {"n": int, "vertices": [int], "edges": [[lo, dir]]}
  colouring {"n": int, "pairs": [[lo, dir, "red"|"blue"]]}   every edge
  family    {"n": int, "sets": [int]}
  report    {"task", "parameters", "seed", "records", "aggregate", "pass"}

Every file format lives here; a report is the dict it writes. Output is
canonical (sorted members, fixed key order, indent 2, trailing newline),
so identical runs produce byte-identical files. A graph is written from
its masks in exactly the text the stdlib encoder gives for its
``graph_to_obj`` dict, a colouring from one digit string of its mask.
Graphs and colourings are read with shape and edge checks in bulk; the
error messages for malformed files are those of an item-by-item check.
Each list item appears once: a reader refuses a file that lists a
vertex, an edge, a pair or a member twice, or that has the fields of
more than one instance type.
"""

from __future__ import annotations

import json
from itertools import chain, compress, repeat
from operator import itemgetter, lshift, or_
from typing import Any

from ..colourings import EdgeColouring, _check_dimension, _edge_positions, edge_count
from ..core import CubeSubgraph, _bits, _edge_keys, _mask, _valid_edge_mask, make_subgraph
from ..setfamilies import SetFamily

__all__ = [
    "ParseError",
    "report",
    "dumps",
    "instance_to_obj",
    "load_instance",
    "load_json",
    "obj_to_colouring",
    "obj_to_graph",
    "obj_to_family",
    "colouring_to_obj",
    "family_to_obj",
    "graph_to_obj",
    "save_json",
]


class ParseError(ValueError):
    """A file could not be parsed or validated; the message carries
    line/field diagnostics."""


def report(task: str, parameters: dict, seed: int, records: list, aggregate: dict, passed: bool) -> dict:
    """One verification or search run as its file's object: enough to
    reproduce it exactly (parameters + seed) plus per-record results and
    aggregates, with ``"pass"`` last."""
    return {"task": task, "parameters": parameters, "seed": seed, "records": records,
            "aggregate": aggregate, "pass": passed}


def graph_to_obj(g: CubeSubgraph) -> dict:
    """The graph file's dict, its lists read off the masks as
    ``_graph_text`` reads them."""
    edges = map(list, map(divmod, _edge_keys(g.n, g.lo_masks), repeat(g.n)))
    return {"n": g.n, "vertices": _bits(g.vertex_mask), "edges": list(edges)}


def colouring_to_obj(c: EdgeColouring) -> dict:
    """The colouring file's dict, every colour read off one digit string
    of the blue mask, in (lo, dir) order."""
    n, low = c.n, (1 << c.n) - 1
    digits = format(c.blue_mask, f"0{n << n}b")[::-1]
    return {"n": n, "pairs": [[p & low, p >> n, "blue" if digits[p] == "1" else "red"]
                              for p in _edge_positions(n)]}


def family_to_obj(fam: SetFamily) -> dict:
    return {"n": fam.n, "sets": _bits(fam.mask)}


def instance_to_obj(instance) -> dict:
    if isinstance(instance, CubeSubgraph):
        return graph_to_obj(instance)
    if isinstance(instance, EdgeColouring):
        return colouring_to_obj(instance)
    if isinstance(instance, SetFamily):
        return family_to_obj(instance)
    raise TypeError(f"cannot serialize {type(instance).__name__}")


def _is_int(value) -> bool:
    """A JSON integer. ``bool`` subclasses ``int``, but ``true`` is no
    number."""
    return isinstance(value, int) and not isinstance(value, bool)


def _field(obj: dict, name: str, kind: type):
    if name not in obj:
        raise ParseError(f"missing field {name!r}")
    value = obj[name]
    if not (_is_int(value) if kind is int else isinstance(value, kind)):
        raise ParseError(f"field {name!r} should be {kind.__name__}, got {type(value).__name__}")
    return value


def _first_repeat(items) -> Any:
    """The first item, in order, equal to one before it."""
    seen = set()
    for item in items:
        if item in seen:
            return item
        seen.add(item)


def obj_to_graph(obj: dict) -> CubeSubgraph:
    """The graph of a parsed graph file. Shapes are checked in bulk, by
    the sets of item types and lengths; only when that fails does a scan
    in item order name the first bad item. ``make_subgraph`` validates
    the rest. Last, no vertex and no edge may be listed twice, as the
    writer never lists one twice: the counts are compared in bulk, and a
    scan names the first repeat."""
    n = _field(obj, "n", int)
    vertices = _field(obj, "vertices", list)
    if not (set(map(type, vertices)) <= {int} or all(map(_is_int, vertices))):
        raise ParseError("graph vertices should be ints")
    raw_edges = _field(obj, "edges", list)
    if not (set(map(type, raw_edges)) <= {list} and set(map(len, raw_edges)) <= {2}
            and set(map(type, chain.from_iterable(raw_edges))) <= {int}):
        for i, item in enumerate(raw_edges):
            if not (isinstance(item, list) and len(item) == 2 and _is_int(item[0]) and _is_int(item[1])):
                raise ParseError(f"edges[{i}] should be [lo, dir], got {item!r}")
    try:
        g = make_subgraph(n, vertices, raw_edges)
    except (ValueError, TypeError) as exc:
        raise ParseError(f"invalid graph: {exc}") from exc
    if len(set(vertices)) != len(vertices):
        raise ParseError(f"invalid graph: vertex {_first_repeat(vertices)} listed twice")
    if g.edge_count != len(raw_edges):
        raise ParseError(f"invalid graph: edge {_first_repeat(map(tuple, raw_edges))} listed twice")
    return g


def obj_to_colouring(obj: dict) -> EdgeColouring:
    """The colouring of a parsed colouring file, its shapes checked as
    ``obj_to_graph`` checks them (types before colour names, which could
    be unhashable lists), then its edges: as many as the cube has, in
    range, and with the mask of every edge, so each appears exactly once.
    Only when that fails does a scan in item order name the first bad one."""
    n = _field(obj, "n", int)
    raw = _field(obj, "pairs", list)
    if not (set(map(type, raw)) <= {list} and set(map(len, raw)) <= {3}
            and set(map(type, chain.from_iterable(map(itemgetter(0, 1), raw)))) <= {int}
            and set(map(type, map(itemgetter(2), raw))) <= {str}
            and set(map(itemgetter(2), raw)) <= {"red", "blue"}):
        for i, item in enumerate(raw):
            if not (isinstance(item, list) and len(item) == 3):
                raise ParseError(f"pairs[{i}] should be [lo, dir, colour], got {item!r}")
            lo, dir, colour = item
            if not _is_int(lo) or not _is_int(dir):
                raise ParseError(f"pairs[{i}] endpoints should be ints")
            if not (isinstance(colour, str) and colour in ("red", "blue")):
                raise ParseError(f"pairs[{i}] colour {colour!r} is not 'red' or 'blue'")
    try:
        _check_dimension(n)
    except ValueError as exc:
        raise ParseError(f"invalid colouring: {exc}") from exc
    los, dirs = list(map(itemgetter(0), raw)), list(map(itemgetter(1), raw))
    positions = []
    if (len(raw) == edge_count(n) and 0 <= min(los) and max(los) < 1 << n
            and 0 <= min(dirs) and max(dirs) < n):
        positions = list(map(or_, map(lshift, dirs, repeat(n)), los))
    if _mask(positions, n << n) != _valid_edge_mask(n):
        seen = set()
        for lo, dir in zip(los, dirs):
            if not 0 <= dir < n or lo >> n or (lo >> dir) & 1:
                raise ParseError(f"invalid colouring: ({lo}, {dir}) is not a canonical edge of Q_{n}")
            if (lo, dir) in seen:
                raise ParseError(f"invalid colouring: edge ({lo}, {dir}) coloured twice")
            seen.add((lo, dir))
        raise ParseError("invalid colouring: colouring does not cover every edge of the cube")
    return EdgeColouring(n, _mask(compress(positions, map("blue".__eq__, map(itemgetter(2), raw))), n << n))


def obj_to_family(obj: dict) -> SetFamily:
    """The family of a parsed family file; last, no member may be listed
    twice."""
    n = _field(obj, "n", int)
    sets = _field(obj, "sets", list)
    if not (set(map(type, sets)) <= {int} or all(map(_is_int, sets))):
        raise ParseError("family members should be ints")
    try:
        fam = SetFamily.of(n, sets)
    except ValueError as exc:
        raise ParseError(f"invalid family: {exc}") from exc
    if len(fam) != len(sets):
        raise ParseError(f"invalid family: member {_first_repeat(sets)} listed twice")
    return fam


def obj_to_instance(obj: dict):
    """Sniff the instance type from its fields: exactly one of
    ``vertices``, ``pairs`` and ``sets``."""
    if not isinstance(obj, dict):
        raise ParseError(f"expected a JSON object, got {type(obj).__name__}")
    kinds = [name for name in ("vertices", "pairs", "sets") if name in obj]
    if len(kinds) > 1:
        raise ParseError(f"object has the fields {' and '.join(map(repr, kinds))} of more than one instance type")
    if "vertices" in obj:
        return obj_to_graph(obj)
    if "pairs" in obj:
        return obj_to_colouring(obj)
    if "sets" in obj:
        return obj_to_family(obj)
    raise ParseError("object is neither a graph, a colouring, nor a family")


#: The text of a graph file; the two lists are filled in by ``_json_list``.
_GRAPH_TEXT = '{\n  "n": %d,\n  "vertices": %s,\n  "edges": %s\n}\n'
#: One ``[lo, dir]`` item of the edge list, indented as the encoder does.
_EDGE_TEXT = "[\n      %d,\n      %d\n    ]"


def _json_list(items: list[str]) -> str:
    """A list of encoded items at the depth of a graph file's fields."""
    return "[\n    " + ",\n    ".join(items) + "\n  ]" if items else "[]"


def _graph_text(g: CubeSubgraph) -> str:
    """The text ``dumps(graph_to_obj(g))`` gives, written from the masks
    with no per-edge lists."""
    vertices = list(map(str, _bits(g.vertex_mask)))
    edges = list(map(_EDGE_TEXT.__mod__, map(divmod, _edge_keys(g.n, g.lo_masks), repeat(g.n))))
    return _GRAPH_TEXT % (g.n, _json_list(vertices), _json_list(edges))


def dumps(obj: Any) -> str:
    """Canonical JSON text: fixed key order as constructed, indent 2,
    newline-terminated. An instance is written in its file format: a
    graph straight from its masks, a colouring or family through its
    ``*_to_obj`` dict."""
    if isinstance(obj, (CubeSubgraph, EdgeColouring, SetFamily)):
        if isinstance(obj, CubeSubgraph):
            return _graph_text(obj)
        obj = instance_to_obj(obj)
    return json.dumps(obj, indent=2) + "\n"


def save_json(path: str, obj: Any) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(dumps(obj))


def load_json(path: str) -> Any:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"{path}: {exc}") from exc
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: line {exc.lineno} column {exc.colno}: {exc.msg}") from exc
    except RecursionError as exc:
        raise ParseError(f"{path}: {exc}") from exc


def load_instance(path: str):
    return obj_to_instance(load_json(path))
