"""Instance files: the mask writer against the stdlib encoder, the graph
and colouring readers against item-by-item referees, and a fuzz of the
colouring and family readers.

The writer must give, for every graph, colouring and family, exactly
the text ``json.dumps(instance_to_obj(x), indent=2)`` gives, with no
Python line run per edge, and a graph's dict must hold the lists of
``oracles.vertex_list`` and ``oracles.edge_list``; the graph reader
must return the same subgraph as ``oracles.graph_from_obj``, or raise
the same exception with the same message, on every mutation of a valid
graph file; the colouring reader must agree with
``oracles.colouring_from_obj`` in the same way, also on every mutation
of a valid colouring's edge list, and the colouring writer with
``oracles.colouring_pairs``.
Any JSON value must read as a valid instance or raise ``ParseError``.
"""

import copy
import json
import subprocess
import sys
import types
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cubegeo.colourings import EdgeColouring, edge_count
from cubegeo.core import CubeSubgraph, _lo_pattern, induced_subgraph, make_subgraph
from cubegeo.harness import (
    InstanceSpec,
    ParseError,
    colouring_to_obj,
    dumps,
    family_to_obj,
    generate,
    graph_to_obj,
    instance_to_obj,
    obj_to_colouring,
    obj_to_family,
    obj_to_graph,
)
from cubegeo.harness.serialize import (_CHUNK, _graph_text, _items_text, _json_list, obj_to_instance,
                                      report)
from cubegeo.setfamilies import SetFamily

import oracles


@st.composite
def graphs(draw, max_n=8):
    """Subgraphs of Q_n for n <= max_n: induced, edgeless, or a random
    subset of the induced edges; the empty and the full vertex set are
    drawn often."""
    n = draw(st.integers(0, max_n))
    everything = (1 << (1 << n)) - 1
    vmask = draw(st.one_of(st.just(0), st.just(everything), st.integers(0, everything)))
    induced = induced_subgraph(n, vmask)
    kind = draw(st.sampled_from(["induced", "edgeless", "edge-random"]))
    if kind == "induced":
        return induced
    if kind == "edgeless":
        return CubeSubgraph(n, vmask, (0,) * n)
    return CubeSubgraph(n, vmask, tuple(m & draw(st.integers(0, everything)) for m in induced.lo_masks))


@settings(max_examples=200, deadline=None)
@given(graphs())
def test_graph_text_is_the_stdlib_encoding(g):
    text = dumps(g)
    obj = graph_to_obj(g)
    assert obj == {"n": g.n, "vertices": oracles.vertex_list(g),
                   "edges": list(map(list, oracles.edge_list(g)))}
    assert text == json.dumps(obj, indent=2) + "\n"
    assert obj_to_graph(json.loads(text)) == g


def _encoded(instance):
    return json.dumps(instance_to_obj(instance), indent=2) + "\n"


def test_every_colouring_of_q1_and_q2_is_written_as_the_stdlib_encodes_it():
    for n in (1, 2):
        everything = oracles.constant_colouring(n, "blue").blue_mask
        colourings = {EdgeColouring(n, mask & everything) for mask in range(everything + 1)}
        assert len(colourings) == 2 ** edge_count(n)
        for c in colourings:
            assert dumps(c) == _encoded(c)


@pytest.mark.parametrize("kind, first", [("random-colouring", 1), ("antipodal-colouring", 2)])
def test_seeded_colourings_are_written_as_the_stdlib_encodes_them(kind, first):
    for n in range(first, 9):
        for seed in (0, 7):
            c = generate(InstanceSpec(kind, n=n, seed=seed))
            assert dumps(c) == _encoded(c), (n, seed)


def test_families_are_written_as_the_stdlib_encodes_them():
    for n in range(9):
        for fam in (SetFamily(n, 0), SetFamily(n, (1 << (1 << n)) - 1),
                    generate(InstanceSpec("random-family", n=n, seed=n, density=Fraction(1, 3)))):
            assert dumps(fam) == _encoded(fam), fam


#: A spec of every graph model but ``from-file``, at dimension n.
GRAPH_SPECS = {
    "full-cube": lambda n: InstanceSpec("full-cube", n=n),
    "induced-random": lambda n: InstanceSpec("induced-random", n=n, seed=n, density=Fraction(3, 5)),
    "edge-random": lambda n: InstanceSpec("edge-random", n=n, seed=n, density=Fraction(1, 3)),
    "hamming-ball": lambda n: InstanceSpec("hamming-ball", n=n, radius=n // 3, centre=(1 << n) // 3),
    "disjoint-cubes": lambda n: InstanceSpec("disjoint-cubes", n=n, subdim=n // 2,
                                             copies=(1 << (n - n // 2)) // 2 or 1),
}


@pytest.mark.parametrize("model", sorted(GRAPH_SPECS))
def test_every_graph_model_is_written_as_the_stdlib_encodes_it(model):
    for n in range(15):
        g = generate(GRAPH_SPECS[model](n))
        assert dumps(g) == _encoded(g), (model, n)


def test_a_sparse_graph_over_many_chunks_is_written_as_the_stdlib_encodes_it():
    """A Hamming ball of radius 1 at n = 16 whose edges fall in 3 of the
    16 chunks of lo values, one of them at the last lo of a chunk with its
    other endpoint in the next chunk."""
    g = generate(InstanceSpec("hamming-ball", n=16, radius=1, centre=0x5FFF))
    los = {lo for lo, _ in oracles.edge_list(g)}
    assert {lo // _CHUNK for lo in los} == {1, 4, 5}
    assert (0x4FFF, 12) in oracles.edge_list(g) and 0x4FFF % _CHUNK == _CHUNK - 1
    assert dumps(g) == _encoded(g)


@st.composite
def lo_masks(draw):
    """A subgraph of Q_n for n <= 14 with any lo masks of its edges,
    dense or a few set bits each, over any vertex mask."""
    n = draw(st.integers(0, 14))
    every = (1 << (1 << n)) - 1
    sparse = st.lists(st.integers(0, (1 << n) - 1), max_size=6).map(lambda bits: sum({1 << b for b in bits}))
    masks = tuple(draw(st.one_of(sparse, st.integers(0, every))) & _lo_pattern(n, d) for d in range(n))
    return CubeSubgraph(n, draw(st.integers(0, every)), masks)


@settings(max_examples=60, deadline=None)
@given(lo_masks())
def test_any_lo_masks_are_written_as_the_stdlib_encodes_them(g):
    assert dumps(g) == _encoded(g)


def test_a_sparse_graph_at_n_24_round_trips_in_1_gb(tmp_path):
    """A ``from-file`` round trip of the 25-vertex Hamming ball around the
    top vertex of Q_24, whose lo masks are 2^24 bits wide, in 1 GiB of
    address space: the writer's table spans one chunk of lo values at a
    time, not all n 2^n edge positions."""
    ball, again = tmp_path / "ball.json", tmp_path / "again.json"
    script = (
        "import json, resource\n"
        "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n"
        "from cubegeo.harness import InstanceSpec, generate, graph_to_obj\n"
        "from cubegeo.harness.cli import main\n"
        "g = generate(InstanceSpec('hamming-ball', n=24, radius=1, centre=(1 << 24) - 1))\n"
        "text = json.dumps(graph_to_obj(g), indent=2) + '\\n'\n"
        f"with open({str(ball)!r}, 'w') as fh:\n"
        "    fh.write(text)\n"
        f"code = main(['gen', '--model', 'from-file', '--file', {str(ball)!r}, '--out', {str(again)!r}])\n"
        f"with open({str(again)!r}) as fh:\n"
        "    print(code, len(g), fh.read() == text)\n"
    )
    result = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    assert result.stdout.endswith("\n0 25 True\n")


def test_writing_a_graph_runs_no_per_edge_loop():
    """The graph writer's own lines run as often for 24,576 edges as for
    32."""
    small, large = (generate(InstanceSpec("full-cube", n=n)) for n in (4, 12))
    helpers = (_graph_text, _items_text, _json_list)
    assert _lines_run(dumps, small, *helpers) == _lines_run(dumps, large, *helpers)


def test_writing_builds_no_edge_tuples(monkeypatch):
    def refuse(self):
        raise AssertionError("CubeSubgraph.edges read")

    monkeypatch.setattr(CubeSubgraph, "edges", property(refuse))
    g = generate(InstanceSpec("full-cube", n=6))
    assert json.loads(dumps(g)) == graph_to_obj(g)


def _nested(code):
    """``code`` and the code objects defined inside it: its generator
    expressions, comprehensions and lambdas."""
    yield code
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            yield from _nested(const)


def _lines_run(read, obj, *helpers):
    """Line events in ``read``, the code nested in it included, and in
    ``helpers`` themselves (not in the functions they call) while
    ``read`` reads ``obj``."""
    watched = {*_nested(read.__code__), *(helper.__code__ for helper in helpers)}
    count = 0

    def local(frame, event, arg):
        nonlocal count
        count += event == "line"
        return local

    def calls(frame, event, arg):
        return local if frame.f_code in watched else None

    previous = sys.gettrace()
    sys.settrace(calls)
    try:
        read(obj)
    finally:
        sys.settrace(previous)
    return count


def test_reading_a_valid_file_runs_no_per_item_loop():
    """The reader's own lines run as often for 10,240 edges as for 192."""
    small, large = (graph_to_obj(generate(InstanceSpec("full-cube", n=n))) for n in (6, 11))
    assert _lines_run(obj_to_graph, small, make_subgraph) == _lines_run(obj_to_graph, large, make_subgraph)


def test_reading_a_valid_colouring_file_runs_no_per_item_loop():
    """The colouring reader's own lines run as often for 1,024 pairs as
    for 32."""
    small, large = (colouring_to_obj(generate(InstanceSpec("random-colouring", n=n, seed=3))) for n in (4, 8))
    assert _lines_run(obj_to_colouring, small) == _lines_run(obj_to_colouring, large)


def test_reading_a_valid_family_file_runs_no_per_item_loop():
    """The family reader's own lines run as often for about 128 members
    as for 8."""
    small, large = (family_to_obj(generate(InstanceSpec("random-family", n=n, seed=3, density=Fraction(1, 2))))
                    for n in (4, 8))
    assert len(large["sets"]) > 100
    assert _lines_run(obj_to_family, small, SetFamily.of) == _lines_run(obj_to_family, large, SetFamily.of)


#: JSON values that are not integers
NOT_INTS = st.one_of(
    st.booleans(), st.floats(), st.text(max_size=2), st.none(),
    st.lists(st.integers(0, 3), max_size=2), st.dictionaries(st.text(max_size=1), st.integers(), max_size=1),
)


def _index(data, items):
    return data.draw(st.integers(0, len(items) - 1))


def _edge(data, obj):
    """One of obj's edge items that is still an [lo, dir] pair of ints
    with 0 <= dir < n, or None."""
    fit = [e for e in obj["edges"]
           if type(e) is list and len(e) == 2 and set(map(type, e)) == {int} and 0 <= e[1] < obj["n"]]
    return data.draw(st.sampled_from(fit)) if fit else None


def _bad_vertex_type(data, obj):
    if obj["vertices"]:
        obj["vertices"][_index(data, obj["vertices"])] = data.draw(NOT_INTS)


def _bad_edge_part(data, obj):
    edge = _edge(data, obj)
    if edge:
        edge[data.draw(st.integers(0, 1))] = data.draw(NOT_INTS)


def _bad_edge_shape(data, obj):
    item = data.draw(st.one_of(NOT_INTS, st.lists(st.integers(0, 7), max_size=4)))
    obj["edges"].insert(data.draw(st.integers(0, len(obj["edges"]))), item)


def _outside(data, top):
    """An int outside 0..top - 1, the two nearest ones often."""
    return data.draw(st.one_of(st.sampled_from([-1, top]), st.integers(max_value=-1),
                               st.integers(min_value=top)))


def _vertex_out_of_range(data, obj):
    obj["vertices"].insert(data.draw(st.integers(0, len(obj["vertices"]))),
                           _outside(data, 1 << obj["n"]))


def _edge_out_of_range(data, obj):
    edge = _edge(data, obj)
    if edge and data.draw(st.booleans()):
        edge[0] = _outside(data, 1 << obj["n"])
    elif edge:
        edge[1] = _outside(data, obj["n"])


def _non_canonical(data, obj):
    edge = _edge(data, obj)
    if edge:
        edge[0] |= 1 << edge[1]


def _missing_endpoint(data, obj):
    edge = _edge(data, obj)
    if edge:
        lo, dir = edge
        gone = data.draw(st.sampled_from([lo, lo ^ (1 << dir)]))
        obj["vertices"] = [v for v in obj["vertices"] if v != gone]


def _duplicate(data, obj):
    items = obj[data.draw(st.sampled_from(["vertices", "edges"]))]
    if items:
        items.insert(data.draw(st.integers(0, len(items))), copy.deepcopy(items[_index(data, items)]))


def _any_edge(data, obj):
    top = (1 << obj["n"]) + 2
    item = [data.draw(st.integers(-2, top)), data.draw(st.integers(-1, obj["n"] + 1))]
    obj["edges"].insert(data.draw(st.integers(0, len(obj["edges"]))), item)


def _shuffle(data, obj):
    obj["vertices"] = data.draw(st.permutations(obj["vertices"]))
    obj["edges"] = data.draw(st.permutations(obj["edges"]))


def _bad_n(data, obj):
    obj["n"] = data.draw(st.one_of(st.integers(max_value=-1), st.integers(min_value=25),
                                   st.integers(0, 24), NOT_INTS))


def _bad_field(data, obj):
    name = data.draw(st.sampled_from(["n", "vertices", "edges"]))
    if data.draw(st.booleans()):
        del obj[name]
    else:
        obj[name] = data.draw(st.one_of(NOT_INTS, st.integers()))


#: Every mutation keeps the fields it reads well-formed, so that any
#: number of them can be applied in any order; the field mutations come
#: last.
ITEM_MUTATIONS = [_bad_vertex_type, _bad_edge_part, _bad_edge_shape, _vertex_out_of_range,
                  _edge_out_of_range, _non_canonical, _missing_endpoint, _duplicate, _any_edge,
                  _shuffle]
FIELD_MUTATIONS = [_bad_n, _bad_field]


def _outcome(read, obj):
    try:
        return read(copy.deepcopy(obj))
    except Exception as exc:
        return type(exc), str(exc)


@settings(max_examples=400, deadline=None)
@given(graphs(max_n=6), st.data())
def test_reader_matches_item_by_item_referee(g, data):
    obj = graph_to_obj(g)
    for mutate in data.draw(st.lists(st.sampled_from(ITEM_MUTATIONS), max_size=3)):
        mutate(data, obj)
    for mutate in data.draw(st.lists(st.sampled_from(FIELD_MUTATIONS), max_size=1)):
        mutate(data, obj)
    assert _outcome(obj_to_graph, obj) == _outcome(oracles.graph_from_obj, obj)


@pytest.mark.parametrize("obj", [
    {"n": 2, "vertices": [0, 1], "edges": [[1, 0]]},
    {"n": 2, "vertices": [0, 2], "edges": [[0, 1], [0, 0]]},
    {"n": 2, "vertices": [0, True], "edges": []},
    {"n": 1, "vertices": [0, 1], "edges": [[0, 0], None]},
    {"n": 1, "vertices": [0, 1], "edges": [{}]},
    {"n": 1, "vertices": [0, 1], "edges": ["01"]},
])
def test_analyze_of_a_malformed_graph_exits_1_with_one_line(obj, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(obj))
    result = subprocess.run(
        [sys.executable, "-m", "cubegeo.harness.cli", "analyze", "--file", str(path)],
        capture_output=True, text=True,
    )
    kind, message = _outcome(oracles.graph_from_obj, obj)
    assert kind is ParseError
    assert result.returncode == 1 and result.stdout == ""
    assert result.stderr == f"cubegeo: parse error: {message}\n"


def test_a_repeat_is_named_first_in_file_order_after_every_other_check():
    for read, obj, message in [
        (obj_to_graph, {"n": 2, "vertices": [2, 1, 1, 2], "edges": []}, "invalid graph: vertex 1 listed twice"),
        (obj_to_graph, {"n": 2, "vertices": [0, 0, 4], "edges": []}, "invalid graph: vertex 4 out of range for Q_2"),
        (obj_to_graph, {"n": 2, "vertices": [0, 1, 0], "edges": [[0, 0], [0, 0], [1, 0]]},
         "invalid graph: edge (1, 0) is not canonical: bit 0 of lo is set"),
        (obj_to_family, {"n": 2, "sets": [3, 1, 1, 3]}, "invalid family: member 1 listed twice"),
        (obj_to_family, {"n": 2, "sets": [1, 1, 4]}, "invalid family: family members must lie in [0, 2^2)"),
    ]:
        with pytest.raises(ParseError) as refused:
            read(obj)
        assert str(refused.value) == message, obj


@pytest.mark.parametrize("obj, message", [
    ({"n": 3, "vertices": [1, 1], "edges": []}, "invalid graph: vertex 1 listed twice"),
    ({"n": 2, "vertices": [2, 0, 1, 3], "edges": [[0, 1], [0, 0], [0, 1]]}, "invalid graph: edge (0, 1) listed twice"),
    ({"n": 3, "sets": [5, 3, 5]}, "invalid family: member 5 listed twice"),
    ({"n": 2, "vertices": [0], "edges": [], "sets": [0]},
     "object has the fields 'vertices' and 'sets' of more than one instance type"),
])
def test_analyze_of_a_file_the_writer_would_not_write_exits_1_with_one_line(obj, message, tmp_path):
    """A vertex, an edge or a member listed twice, or a graph that also
    holds a family's field: the writer writes none of these files."""
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(obj))
    result = subprocess.run(
        [sys.executable, "-m", "cubegeo.harness.cli", "analyze", "--file", str(path)],
        capture_output=True, text=True,
    )
    assert result.returncode == 1 and result.stdout == ""
    assert result.stderr == f"cubegeo: parse error: {message}\n"


@pytest.mark.parametrize("content, message", [
    (b"[" * 100_000, "maximum recursion depth exceeded"),
    (b'{"n": 2, "sets": [\xff]}', "'utf-8' codec can't decode byte 0xff in position 18: invalid start byte"),
    pytest.param(b'{"n": 2, "vertices": [' + b"1" * 5000 + b'], "edges": []}', "Exceeds the limit",
                 marks=pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                                          reason="no limit on int string conversion")),
], ids=["nested-100000-deep", "not-utf-8", "5000-digit-number"])
def test_analyze_of_a_file_json_cannot_read_names_the_file_in_one_line(content, message, tmp_path):
    """Nesting deeper than the decoder's recursion limit, bytes that are
    not UTF-8 and a number too long to convert to an int are parse errors
    of the file, as a syntax error is: one line that names the file and
    the decoder's message."""
    path = tmp_path / "bad.json"
    path.write_bytes(content)
    result = subprocess.run(
        [sys.executable, "-m", "cubegeo.harness.cli", "analyze", "--file", str(path)],
        capture_output=True, text=True,
    )
    assert result.returncode == 1 and result.stdout == ""
    assert result.stderr.startswith(f"cubegeo: parse error: {path}: {message}")
    assert result.stderr.count("\n") == 1 and "Traceback" not in result.stderr


def test_report_is_its_file_object_with_pass_last():
    obj = report("search", {"n": 2}, 7, [{"index": 0}], {"checked": 1}, False)
    assert list(obj.items()) == [("task", "search"), ("parameters", {"n": 2}), ("seed", 7),
                                 ("records", [{"index": 0}]), ("aggregate", {"checked": 1}), ("pass", False)]
    assert dumps(obj).endswith('  "pass": false\n}\n')


@st.composite
def colourings(draw, max_n=6):
    n = draw(st.integers(1, max_n))
    everything = oracles.constant_colouring(n, "blue").blue_mask
    mask = draw(st.one_of(st.just(0), st.just(everything), st.integers(0, everything)))
    return EdgeColouring(n, mask & everything)


def _mutate_pairs(data, n, pairs):
    """One of: drop a triple, repeat one, move one to an arbitrary
    (lo, dir), or shuffle them all."""
    if not pairs:
        return
    kind = data.draw(st.sampled_from(["drop", "repeat", "move", "shuffle"]))
    i = _index(data, pairs)
    if kind == "drop":
        del pairs[i]
    elif kind == "repeat":
        pairs.insert(data.draw(st.integers(0, len(pairs))), pairs[i])
    elif kind == "move":
        pairs[i] = (data.draw(st.integers(-2, 1 << (n + 1))), data.draw(st.integers(-2, n + 1)), pairs[i][2])
    else:
        pairs[:] = data.draw(st.permutations(pairs))


@settings(max_examples=300, deadline=None)
@given(colourings(), st.data())
def test_colouring_codec_matches_item_by_item_referee(c, data):
    pairs = oracles.colouring_pairs(c)
    obj = colouring_to_obj(c)
    assert obj == {"n": c.n, "pairs": [[lo, d, colour] for lo, d, colour in pairs]}
    assert obj_to_colouring(obj) == c
    for _ in range(data.draw(st.integers(0, 3))):
        _mutate_pairs(data, c.n, pairs)
    n = data.draw(st.one_of(st.just(c.n), st.integers(-2, 18), st.integers()))
    obj = {"n": n, "pairs": [[lo, d, colour] for lo, d, colour in pairs]}
    assert _outcome(obj_to_colouring, obj) == _outcome(oracles.colouring_from_obj, obj)


@pytest.mark.parametrize("pairs, message", [
    ([[1, 0, "red"], [2, 0, "red"], [0, 1, "red"], [0, 1, "red"]], r"\(1, 0\) is not a canonical edge of Q_2"),
    ([[0, 0, "red"], [0, 0, "blue"], [0, 1, "red"], [3, 1, "red"]], r"edge \(0, 0\) coloured twice"),
    ([[0, 0, "red"], [2, 0, "red"], [0, 1, "red"], [4, 1, "red"]], r"\(4, 1\) is not a canonical edge of Q_2"),
    ([[0, 0, "red"], [2, 0, "red"], [0, 1, "red"], [0, 1, "blue"], [1, 1, "red"]], r"edge \(0, 1\) coloured twice"),
    ([[0, 0, "red"], [2, 0, "red"], [0, 1, "red"]], "colouring does not cover every edge of the cube"),
], ids=["non-edge-first", "repeat-first", "lo-out-of-range", "one-too-many", "one-missing"])
def test_colouring_reader_names_the_first_bad_edge_in_file_order(pairs, message):
    """Each case gets past a different part of the bulk edge check (count,
    ranges, mask), so the scan in file order names the fault."""
    obj = {"n": 2, "pairs": pairs}
    with pytest.raises(ParseError, match=f"^invalid colouring: {message}$"):
        obj_to_colouring(obj)
    assert _outcome(obj_to_colouring, obj) == _outcome(oracles.colouring_from_obj, obj)


def _pair(data, obj):
    """One of obj's pair items that is still a list of three, or None."""
    fit = [p for p in obj["pairs"] if type(p) is list and len(p) == 3]
    return data.draw(st.sampled_from(fit)) if fit else None


def _bad_pair_field(data, obj):
    pair = _pair(data, obj)
    if pair:
        pair[data.draw(st.integers(0, 1))] = data.draw(NOT_INTS)


def _bad_colour(data, obj):
    pair = _pair(data, obj)
    if pair:
        pair[2] = data.draw(st.one_of(st.sampled_from(["green", "", "Red", "red "]), NOT_INTS))


def _bad_pair_shape(data, obj):
    item = data.draw(st.one_of(NOT_INTS, st.lists(st.sampled_from([0, 1, "red"]), max_size=4)))
    obj["pairs"].insert(data.draw(st.integers(0, len(obj["pairs"]))), item)


def _moved_pair(data, obj):
    pair = _pair(data, obj)
    if pair:
        pair[data.draw(st.integers(0, 1))] = data.draw(st.integers(-2, 40))


def _dropped_or_repeated_pair(data, obj):
    pairs = obj["pairs"]
    if not pairs:
        return
    i = _index(data, pairs)
    if data.draw(st.booleans()):
        del pairs[i]
    else:
        pairs.insert(data.draw(st.integers(0, len(pairs))), copy.deepcopy(pairs[i]))


def _bad_colouring_field(data, obj):
    name = data.draw(st.sampled_from(["n", "pairs"]))
    if data.draw(st.booleans()):
        del obj[name]
    else:
        obj[name] = data.draw(st.one_of(NOT_INTS, st.integers(-2, 18)))


PAIR_MUTATIONS = [_bad_pair_field, _bad_colour, _bad_pair_shape, _moved_pair, _dropped_or_repeated_pair]


@settings(max_examples=300, deadline=None)
@given(colourings(max_n=4), st.data())
def test_colouring_reader_matches_item_by_item_referee(c, data):
    obj = colouring_to_obj(c)
    for mutate in data.draw(st.lists(st.sampled_from(PAIR_MUTATIONS), max_size=3)):
        mutate(data, obj)
    if data.draw(st.integers(0, 4)) == 0:
        _bad_colouring_field(data, obj)
    assert _outcome(obj_to_colouring, obj) == _outcome(oracles.colouring_from_obj, obj)


#: Any JSON value, nested a little
JSON = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(), st.floats(), st.text(max_size=3)),
    lambda inner: st.one_of(st.lists(inner, max_size=4),
                            st.dictionaries(st.text(max_size=3), inner, max_size=3)),
    max_leaves=12,
)
_TRIPLES = st.lists(st.one_of(
    JSON,
    st.tuples(st.integers(-2, 40), st.integers(-2, 6), st.sampled_from(["red", "blue", "green"])).map(list),
), max_size=8)
_FIELDS = {
    "n": st.one_of(st.integers(-2, 18), st.just(1 << 64), st.integers(), JSON),
    "pairs": st.one_of(_TRIPLES, JSON),
    "sets": st.one_of(st.lists(st.one_of(st.integers(-2, 300), st.integers(), JSON), max_size=8), JSON),
}


@st.composite
def instance_objs(draw, fields):
    """A dict with each of ``fields`` present or not, holding a value of
    roughly the right shape or any JSON value, plus stray keys."""
    obj = draw(st.dictionaries(st.text(max_size=3), JSON, max_size=2))
    for name in fields:
        if draw(st.integers(0, 5)):
            obj[name] = draw(_FIELDS[name])
    return obj


@settings(max_examples=400, deadline=None)
@given(st.one_of(
    st.tuples(st.just((obj_to_colouring, colouring_to_obj)), instance_objs(["n", "pairs"])),
    st.tuples(st.just((obj_to_family, family_to_obj)), instance_objs(["n", "sets"])),
    st.tuples(st.just((obj_to_instance, instance_to_obj)), JSON),
))
def test_any_json_reads_as_an_instance_or_a_parse_error(case):
    (read, write), obj = case
    try:
        instance = read(copy.deepcopy(obj))
    except ParseError:
        return
    assert read(write(instance)) == instance
