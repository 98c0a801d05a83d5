"""Golden reports: fixed CLI invocations whose outputs must not change.

Each search and verify invocation is re-run at --jobs 1 and 2 and
compared byte for byte with its file under tests/golden/. Each gen
invocation's instance file is compared byte for byte. Each analyze
invocation runs on a freshly generated instance, named relative to the
working directory as the golden's ``parameters.file`` names it, and its
report is compared byte for byte. Every search and gen and analyze
invocation, and some verify invocations, are run again under
``python -O``.

Regenerate the files (only when a report change is intended) with

    PYTHONPATH=src python tests/test_golden.py
"""

import ast
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from cubegeo.harness.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"
SRC = GOLDEN.parent.parent / "src"

SEARCHES = {
    "search-NORINE-exhaustive-n3": ["NORINE", "exhaustive", "3"],
    "search-A-exhaustive-n3": ["A", "exhaustive", "3"],
    "search-NORINE-exhaustive-n4": ["NORINE", "exhaustive", "4"],
    "search-A-exhaustive-n4": ["A", "exhaustive", "4"],
    "search-B-exhaustive-n2": ["B", "exhaustive", "2"],
    "search-B-exhaustive-n3": ["B", "exhaustive", "3"],
    "search-A-sample-n6": ["A", "sample", "6", "--budget", "128", "--seed", "5"],
    "search-B-sample-n5": ["B", "sample", "5", "--budget", "256", "--seed", "5"],
    "search-NORINE-sample-n7": ["NORINE", "sample", "7", "--budget", "32", "--seed", "5"],
}

VERIFIES = {
    "verify-T2-n8": ["T2", "--trials", "24", "--model", "induced-random", "--n", "8",
                     "--density", "3/7"],
    "verify-T4-n10": ["T4", "--trials", "12", "--n", "10"],
    "verify-T5-full-cube-n4": ["T5", "--trials", "4", "--model", "full-cube", "--n", "4"],
    "verify-T5-disjoint-cubes-n6": ["T5", "--trials", "12", "--model", "disjoint-cubes",
                                    "--n", "6", "--subdim", "2", "--copies", "5"],
    "verify-FS-n9": ["FS", "--trials", "24", "--model", "induced-random", "--n", "9",
                     "--density", "1/5"],
    "verify-COMP-n6": ["COMP", "--trials", "16", "--model", "random-family", "--n", "6",
                       "--density", "2/5"],
    "verify-KAT-n10": ["KAT", "--trials", "24", "--n", "10"],
    "verify-COR-n8": ["COR", "--trials", "16", "--n", "8"],
}

GENS = {
    "gen-induced-random-n7": ["induced-random", "--n", "7", "--density", "3/7"],
    "gen-edge-random-n6": ["edge-random", "--n", "6", "--density", "1/5"],
    "gen-hamming-ball-n6": ["hamming-ball", "--n", "6", "--radius", "2", "--centre", "37"],
    "gen-full-cube-n4": ["full-cube", "--n", "4"],
    "gen-disjoint-cubes-n6": ["disjoint-cubes", "--n", "6", "--subdim", "2", "--copies", "5"],
}

ANALYSES = {
    "analyze-antipodal-colouring-n4": ["antipodal-colouring", "--n", "4"],
    "analyze-antipodal-colouring-n8": ["antipodal-colouring", "--n", "8"],
    "analyze-random-colouring-n6": ["random-colouring", "--n", "6"],
    "analyze-random-colouring-n10": ["random-colouring", "--n", "10"],
    "analyze-induced-random-n9": ["induced-random", "--n", "9", "--density", "3/5"],
    "analyze-random-family-n8": ["random-family", "--n", "8", "--density", "2/7"],
}

SEED = ["--seed", "5"]


def _search(name, out, jobs):
    conjecture, mode, n, *rest = SEARCHES[name]
    argv = ["search", "--conjecture", conjecture, "--mode", mode, "--n", n, *rest]
    return main(argv + ["--jobs", str(jobs), "--out", str(out)])


def _verify(name, out, jobs):
    theorem, *rest = VERIFIES[name]
    argv = ["verify", "--theorem", theorem, *rest, *SEED]
    return main(argv + ["--jobs", str(jobs), "--out", str(out)])


def _gen(name, out):
    model, *rest = GENS[name]
    return main(["gen", "--model", model, *rest, *SEED, "--out", str(out)])


def _analyze_argv(name, out):
    """The gen and the analyze invocation of an analyze golden, to run in
    one working directory: the instance is named relative to it, as the
    golden's ``parameters.file`` names it."""
    model, *rest = ANALYSES[name]
    instance = f"{name}-instance.json"
    return (["gen", "--model", model, *rest, "--out", instance],
            ["analyze", "--file", instance, "--out", str(out)])


def _check(name, code, out, stderr=""):
    """The exit code and the bytes written must be the golden's."""
    golden = (GOLDEN / f"{name}.json").read_bytes()
    assert code == (0 if name.startswith("gen-") or json.loads(golden)["pass"] else 2), stderr
    assert out.read_bytes() == golden


@pytest.mark.parametrize("jobs", [1, 2])
@pytest.mark.parametrize("name", sorted(SEARCHES))
def test_search_report_matches_golden(name, jobs, tmp_path):
    out = tmp_path / f"{name}.json"
    _check(name, _search(name, out, jobs), out)


@pytest.mark.parametrize("jobs", [1, 2])
@pytest.mark.parametrize("name", sorted(VERIFIES))
def test_verify_report_matches_golden(name, jobs, tmp_path):
    out = tmp_path / f"{name}.json"
    _check(name, _verify(name, out, jobs), out)


@pytest.mark.parametrize("name", sorted(GENS))
def test_gen_instance_matches_golden(name, tmp_path):
    out = tmp_path / f"{name}.json"
    _check(name, _gen(name, out), out)


@pytest.mark.parametrize("name", sorted(ANALYSES))
def test_analyze_report_matches_golden(name, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    out = tmp_path / f"{name}.json"
    gen, analyze = _analyze_argv(name, out)
    code = main(gen)
    assert code == 0
    _check(name, main(analyze), out)


#: verify configurations re-run under ``python -O``, which strips asserts
OPTIMIZED = ["verify-T2-n8", "verify-T4-n10", "verify-T5-full-cube-n4",
             "verify-T5-disjoint-cubes-n6", "verify-COR-n8"]

#: search configurations re-run under ``python -O``: all of them, since
#: exhaustive and sample mode run the same sweep
OPTIMIZED_SEARCHES = sorted(SEARCHES)


def _run_optimized(argv, cwd):
    """Run the CLI under ``python -O`` in ``cwd``."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-O", "-m", "cubegeo.harness.cli", *argv],
        cwd=cwd, env={**os.environ, "PYTHONPATH": path}, capture_output=True, text=True,
    )


def _optimized(argv, name, tmp_path):
    """Run the CLI under ``python -O`` and compare with the golden file."""
    out = tmp_path / f"{name}.json"
    result = _run_optimized([*argv, "--out", str(out)], tmp_path)
    _check(name, result.returncode, out, result.stderr)


@pytest.mark.parametrize("name", OPTIMIZED)
def test_verify_report_matches_golden_under_optimize(name, tmp_path):
    theorem, *rest = VERIFIES[name]
    _optimized(["verify", "--theorem", theorem, *rest, *SEED], name, tmp_path)


@pytest.mark.parametrize("name", OPTIMIZED_SEARCHES)
def test_search_report_matches_golden_under_optimize(name, tmp_path):
    conjecture, mode, n, *rest = SEARCHES[name]
    _optimized(["search", "--conjecture", conjecture, "--mode", mode, "--n", n, *rest],
               name, tmp_path)


@pytest.mark.parametrize("name", sorted(GENS))
def test_gen_instance_matches_golden_under_optimize(name, tmp_path):
    model, *rest = GENS[name]
    _optimized(["gen", "--model", model, *rest, *SEED], name, tmp_path)


@pytest.mark.parametrize("name", sorted(ANALYSES))
def test_analyze_report_matches_golden_under_optimize(name, tmp_path):
    out = tmp_path / f"{name}.json"
    gen, analyze = _analyze_argv(name, out)
    result = _run_optimized(gen, tmp_path)
    assert result.returncode == 0, result.stderr
    result = _run_optimized(analyze, tmp_path)
    _check(name, result.returncode, out, result.stderr)


def test_library_has_no_assert():
    """Library invariants raise; ``python -O`` would strip an assert."""
    package = Path(__file__).parent.parent / "src" / "cubegeo"
    found = [
        f"{path.relative_to(package)}:{node.lineno}"
        for path in sorted(package.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def _unused_imports(path):
    """Names a module imports and never references; a name counts as
    referenced when it appears as a name anywhere, an annotation
    included."""
    tree = ast.parse(path.read_text(), str(path))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.partition(".")[0]
                imported.setdefault(name, node.lineno)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


def test_no_unused_imports():
    """Every import of the library and the tests is used; package
    ``__init__.py`` files are exempt, since they import to re-export."""
    root = Path(__file__).parent.parent
    paths = sorted((root / "src" / "cubegeo").rglob("*.py")) + sorted((root / "tests").glob("*.py"))
    found = [
        f"{path.relative_to(root)}: {name}"
        for path in paths
        if path.name != "__init__.py"
        for name in _unused_imports(path)
    ]
    assert found == []


#: Public names no library module calls, each kept on purpose.
NO_LIBRARY_CALLER = {
    # the paper's A <=> B constructions, kept until a harness path runs them
    "derive_A_from_B",
    "derive_B_from_A",
    # the documented way to pass endpoints to make_subgraph
    "Edge.between",
    # argparse calls it on a usage error
    "_Parser.error",
    # the per-vertex view of the sweep table, which test_geodesics compares
    # with oracles.increasing_lengths_by_end
    "LTable.lengths",
}


def test_every_public_name_has_a_library_caller():
    """Every public top-level function or class of the library, and every
    public method of a top-level class, is loaded (as a ``Name`` or an
    ``Attribute``) in some library module other than a package
    ``__init__.py``, outside its own definition, so a local variable of
    the same name in its body does not count; the allow-list names the
    exceptions."""
    package = SRC / "cubegeo"
    trees = {path: ast.parse(path.read_text(), str(path)) for path in sorted(package.rglob("*.py"))}
    loads = {}  # name -> the nodes that load it
    for path, tree in trees.items():
        if path.name != "__init__.py":
            for node in ast.walk(tree):
                if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load):
                    loads.setdefault(node.id if isinstance(node, ast.Name) else node.attr, []).append(node)
    public = []  # (qualified name, name, definition)
    for tree in trees.values():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            if not node.name.startswith("_"):
                public.append((node.name, node.name, node))
            if isinstance(node, ast.ClassDef):
                public.extend((f"{node.name}.{m.name}", m.name, m) for m in node.body
                              if isinstance(m, ast.FunctionDef) and not m.name.startswith("_"))
    uncalled = set()
    for qualified, name, definition in public:
        inside = set(map(id, ast.walk(definition)))
        if all(id(node) in inside for node in loads.get(name, ())):
            uncalled.add(qualified)
    assert uncalled == NO_LIBRARY_CALLER


def test_every_export_resolves():
    """Every ``__all__`` entry of every library module names an attribute
    of that module, so a deleted name leaves no stale export."""
    modules = [".".join(path.relative_to(SRC).with_suffix("").parts).removesuffix(".__init__")
               for path in sorted((SRC / "cubegeo").rglob("*.py"))]
    exports = {name: getattr(importlib.import_module(name), "__all__", ()) for name in modules}
    assert sum(map(len, exports.values())) > 0
    missing = [f"{name}.{entry}" for name, entries in exports.items()
               for entry in entries if not hasattr(sys.modules[name], entry)]
    assert missing == []


if __name__ == "__main__":
    import tempfile

    GOLDEN.mkdir(exist_ok=True)
    for name in SEARCHES:
        _search(name, GOLDEN / f"{name}.json", 1)
    for name in VERIFIES:
        _verify(name, GOLDEN / f"{name}.json", 1)
    for name in GENS:
        _gen(name, GOLDEN / f"{name}.json")
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        for name in ANALYSES:
            gen, analyze = _analyze_argv(name, GOLDEN / f"{name}.json")
            if main(gen) != 0:
                raise SystemExit(f"gen for {name} failed")
            main(analyze)
