"""Golden reports: fixed CLI invocations whose reports must not change.

Each search invocation is re-run at --jobs 1 and 2 and compared byte for
byte with its file under tests/golden/. Each analyze invocation runs on a
freshly generated colouring and is compared on everything except
``parameters.file``, the path of that temporary instance.

Regenerate the files (only when a report change is intended) with

    PYTHONPATH=src python tests/test_golden.py
"""

import json
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

ANALYSES = {
    "analyze-antipodal-colouring-n4": ["antipodal-colouring", "4"],
    "analyze-antipodal-colouring-n8": ["antipodal-colouring", "8"],
    "analyze-random-colouring-n6": ["random-colouring", "6"],
    "analyze-random-colouring-n10": ["random-colouring", "10"],
}


def _search(name, out, jobs):
    conjecture, mode, n, *rest = SEARCHES[name]
    argv = ["search", "--conjecture", conjecture, "--mode", mode, "--n", n, *rest]
    return main(argv + ["--jobs", str(jobs), "--out", str(out)])


def _analyze(name, workdir):
    model, n = ANALYSES[name]
    instance = Path(workdir) / f"{name}-instance.json"
    out = Path(workdir) / f"{name}.json"
    assert main(["gen", "--model", model, "--n", n, "--out", str(instance)]) == 0
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


@pytest.mark.parametrize("name", sorted(ANALYSES))
def test_analyze_report_matches_golden(name, tmp_path):
    code, out = _analyze(name, tmp_path)
    golden = (GOLDEN / f"{name}.json").read_bytes()
    assert code == (0 if json.loads(golden)["pass"] else 2)
    assert _without_file(out.read_bytes()) == _without_file(golden)


if __name__ == "__main__":
    import tempfile

    GOLDEN.mkdir(exist_ok=True)
    for name in SEARCHES:
        _search(name, GOLDEN / f"{name}.json", 1)
    with tempfile.TemporaryDirectory() as tmp:
        for name in ANALYSES:
            _, out = _analyze(name, tmp)
            report = json.loads(out.read_bytes())
            report["parameters"]["file"] = f"{name}-instance.json"
            (GOLDEN / f"{name}.json").write_text(dumps(report))
