"""Golden reports: fixed CLI invocations whose outputs must not change.

Each search and verify invocation is re-run at --jobs 1 and 2 and
compared byte for byte with its file under tests/golden/. Each gen
invocation's instance file is compared byte for byte. Each analyze
invocation runs on a freshly generated instance and is compared on
everything except ``parameters.file``, the path of that temporary
instance.

Regenerate the files (only when a report change is intended) with

    PYTHONPATH=src python tests/test_golden.py
"""

import ast
import json
import subprocess
import sys
from pathlib import Path

import pytest

from cubegeo.harness import dumps
from cubegeo.harness.cli import main

GOLDEN = Path(__file__).parent / "golden"

SEARCHES = {
    "search-NORINE-exhaustive-n3": ["NORINE", "exhaustive", "3"],
    "search-A-exhaustive-n3": ["A", "exhaustive", "3"],
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


def _analyze(name, workdir):
    model, *rest = ANALYSES[name]
    instance = Path(workdir) / f"{name}-instance.json"
    out = Path(workdir) / f"{name}.json"
    assert main(["gen", "--model", model, *rest, "--out", str(instance)]) == 0
    return main(["analyze", "--file", str(instance), "--out", str(out)]), out


def _without_file(raw):
    report = json.loads(raw)
    del report["parameters"]["file"]
    return report


@pytest.mark.parametrize("jobs", [1, 2])
@pytest.mark.parametrize("name", sorted(SEARCHES))
def test_search_report_matches_golden(name, jobs, tmp_path):
    out = tmp_path / f"{name}.json"
    code = _search(name, out, jobs)
    golden = (GOLDEN / f"{name}.json").read_bytes()
    assert code == (0 if json.loads(golden)["pass"] else 2)
    assert out.read_bytes() == golden


@pytest.mark.parametrize("jobs", [1, 2])
@pytest.mark.parametrize("name", sorted(VERIFIES))
def test_verify_report_matches_golden(name, jobs, tmp_path):
    out = tmp_path / f"{name}.json"
    code = _verify(name, out, jobs)
    golden = (GOLDEN / f"{name}.json").read_bytes()
    assert code == (0 if json.loads(golden)["pass"] else 2)
    assert out.read_bytes() == golden


@pytest.mark.parametrize("name", sorted(GENS))
def test_gen_instance_matches_golden(name, tmp_path):
    out = tmp_path / f"{name}.json"
    assert _gen(name, out) == 0
    assert out.read_bytes() == (GOLDEN / f"{name}.json").read_bytes()


@pytest.mark.parametrize("name", sorted(ANALYSES))
def test_analyze_report_matches_golden(name, tmp_path):
    code, out = _analyze(name, tmp_path)
    golden = (GOLDEN / f"{name}.json").read_bytes()
    assert code == (0 if json.loads(golden)["pass"] else 2)
    assert _without_file(out.read_bytes()) == _without_file(golden)


#: verify configurations re-run under ``python -O``, which strips asserts
OPTIMIZED = ["verify-T2-n8", "verify-T4-n10", "verify-T5-full-cube-n4",
             "verify-T5-disjoint-cubes-n6", "verify-COR-n8"]


@pytest.mark.parametrize("name", OPTIMIZED)
def test_verify_report_matches_golden_under_optimize(name, tmp_path):
    out = tmp_path / f"{name}.json"
    theorem, *rest = VERIFIES[name]
    result = subprocess.run(
        [sys.executable, "-O", "-m", "cubegeo.harness.cli", "verify", "--theorem", theorem,
         *rest, *SEED, "--out", str(out)],
        capture_output=True, text=True,
    )
    golden = (GOLDEN / f"{name}.json").read_bytes()
    assert result.returncode == (0 if json.loads(golden)["pass"] else 2), result.stderr
    assert out.read_bytes() == golden


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
        for name in ANALYSES:
            _, out = _analyze(name, tmp)
            report = json.loads(out.read_bytes())
            report["parameters"]["file"] = f"{name}-instance.json"
            (GOLDEN / f"{name}.json").write_text(dumps(report))
