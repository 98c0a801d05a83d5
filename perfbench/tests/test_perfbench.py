"""Tests of the benchmark itself (stdlib unittest; run from the repository root):

    python3 -m unittest discover -s perfbench/tests
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import re
import shutil
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from cubegeo.harness import cli, search  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def run_cli(args: list[str]) -> tuple[int, bytes]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(args)
    return code, out.getvalue().encode()


def run_task(task: workloads.Task, seed: int = 0) -> list[bytes]:
    """A task's outputs, run in this process in the current directory."""
    outputs = []
    for step in task.steps:
        args = [*step.args, "--seed", str(seed)] + (["--jobs", "1"] if step.takes_jobs else [])
        code, stdout = run_cli(args)
        if code != 0:
            raise AssertionError(f"{task.name}: exit code {code}")
        outputs.append(Path(step.out).read_bytes() if step.out else stdout)
    return outputs


@contextlib.contextmanager
def in_temp_dir():
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            yield Path(tmp)
        finally:
            os.chdir(cwd)


def traced_metrics(tasks) -> dict:
    """Per-layer metrics of the given tasks run traced in this process,
    read back from the span file as the benchmark reads it."""
    t = tracer.Tracer()
    with in_temp_dir() as tmp:
        with t.installed():
            for task in tasks:
                run_task(task)
        t.write_spans(str(tmp / "spans.bin"))
        return tracer.read_metrics(str(tmp / "spans.bin"))


class SelfTime(unittest.TestCase):
    def test_nested_spans(self):
        # root [0, 100) holds a [10, 40) with child [20, 30), and two
        # overlapping children b [50, 60) and c [55, 70).
        spans = [  # name, parent, start, end
            ("root", -1, 0, 100),
            ("a", 0, 10, 40),
            ("a.child", 1, 20, 30),
            ("b", 0, 50, 60),
            ("c", 0, 55, 70),
            ("other-root", -1, 200, 205),
        ]
        names, parents, starts, ends = zip(*spans)
        got = tracer.self_times(names, parents, starts, ends)
        self.assertEqual(got, [100 - 30 - 20, 30 - 10, 10, 10, 15, 5])

    def test_child_outside_parent_is_clipped(self):
        got = tracer.self_times(["p", "c"], [-1, 0], [0, 5], [10, 15])
        self.assertEqual(got, [5, 10])


class Wrapping(unittest.TestCase):
    INVOCATIONS = [
        ["search", "--conjecture", "A", "--mode", "sample", "--n", "5", "--budget", "40"],
        ["search", "--conjecture", "B", "--mode", "exhaustive", "--n", "2"],
        ["verify", "--theorem", "T5", "--model", "full-cube", "--n", "3", "--trials", "3"],
        ["verify", "--theorem", "COMP", "--n", "5", "--trials", "4"],
        ["verify", "--theorem", "KAT", "--trials", "4"],
        ["verify", "--theorem", "COR", "--n", "6", "--trials", "4"],
    ]

    def test_reports_are_byte_identical(self):
        for args in self.INVOCATIONS:
            with self.subTest(args=args):
                plain = run_cli(args + ["--seed", "5"])
                with tracer.Tracer().installed():
                    traced = run_cli(args + ["--seed", "5"])
                self.assertEqual(plain[0], 0)
                self.assertEqual(traced, plain)

    def test_instance_round_trip_is_byte_identical(self):
        task = workloads.BY_NAME["instance-io"].tasks[2]
        with in_temp_dir():
            plain = run_task(task, seed=3)
            with tracer.Tracer().installed():
                traced = run_task(task, seed=3)
        self.assertEqual(traced, plain)

    def test_uninstall_restores_every_binding(self):
        original = search.find_monochromatic_antipodal_geodesic
        with tracer.Tracer().installed():
            self.assertIsNot(search.find_monochromatic_antipodal_geodesic, original)
        self.assertIs(search.find_monochromatic_antipodal_geodesic, original)

    def test_counts_repeat_exactly(self):
        task = workloads.Task("small", (workloads.Step(Wrapping.INVOCATIONS[3]),), 4, None)
        first, second = traced_metrics([task]), traced_metrics([task])
        for name in tracer.COUNT_METRICS:
            self.assertEqual(first[name], second[name], name)
        self.assertEqual(first["verify.records"], 4)
        self.assertGreater(first["rng.u64_draws"], 0)


class Judging(unittest.TestCase):
    def judged(self, check, outputs: list[bytes], repeats: int = 20) -> run.Bench:
        task = workloads.Task("t", (workloads.Step(("verify",)),), 1, check)
        bench = run.Bench(workloads.Workload("judging-test", "", (task,)), seed=1)
        self.addCleanup(shutil.rmtree, bench.work, True)
        for output in outputs * repeats:
            bench.judge(task, [0], [output])
        return bench

    def test_failed_content_check_fails_every_repeat(self):
        bench = self.judged(lambda outputs: "wrong report", [b"same bytes"])
        self.assertEqual((bench.attempted, bench.failed), (20, 20))

    def test_passing_repeats_and_a_differing_output(self):
        bench = self.judged(lambda outputs: None, [b"same bytes"])
        self.assertEqual((bench.attempted, bench.failed), (20, 0))
        bench = self.judged(lambda outputs: None, [b"first", b"other"], repeats=1)
        self.assertEqual((bench.attempted, bench.failed), (2, 1))


class Timing(unittest.TestCase):
    def test_a_run_shorter_than_the_probe_period_still_gets_a_reference_loop(self):
        result, wall, slowdown = run.timed(lambda: "done", run.usable_cpus()[:1])
        self.assertEqual(result, "done")
        self.assertGreater(wall, 0)
        self.assertGreater(slowdown, 0)

    def test_children_run_on_the_cpus_given_and_the_caller_keeps_its_own(self):
        bench = run.Bench(workloads.Workload("timing-test", "", ()), seed=1)
        self.addCleanup(shutil.rmtree, bench.work, True)
        out = bench.work / "affinity"
        argv = [sys.executable, "-c", "import os; print(sorted(os.sched_getaffinity(0)))"]
        code, _ = bench.spawn(argv, bench.work, out, bench.cpus[:1])
        self.assertEqual(code, 0)
        self.assertEqual(out.read_text().strip(), str(bench.cpus[:1]))
        self.assertEqual(run.usable_cpus(), bench.cpus)


class Names(unittest.TestCase):
    def setUp(self):
        self.spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    def test_names_are_well_formed(self):
        names = [w["name"] for w in self.spec["workloads"]]
        names += [m["name"] for m in self.spec["end_to_end"] + self.spec["per_layer"]]
        for name in names:
            self.assertRegex(name, NAME)
            self.assertTrue(NAME.fullmatch(name), name)
        self.assertEqual(len(names), len(set(names)))

    def test_spec_matches_the_code(self):
        self.assertEqual([(w["name"], w["why"]) for w in self.spec["workloads"]],
                         [(w.name, w.why) for w in workloads.WORKLOADS])
        self.assertEqual([(m["name"], m["unit"]) for m in self.spec["end_to_end"]],
                         list(run.END_TO_END))
        self.assertEqual([(m["name"], m["unit"]) for m in self.spec["per_layer"]],
                         run.per_layer_units())

    def test_readme_table_is_the_layer_table(self):
        readme = (HERE / "README.md").read_text()
        for layer in tracer.LAYERS:
            metrics = (layer.time_metric, layer.calls_metric, *layer.counters)
            row = "| {} | {} | {} | {} |".format(
                ", ".join(f"`{m}`" for m in metrics if m),
                ", ".join(f"`{f}`" for f in layer.functions),
                ", ".join(layer.moves),
                ", ".join(layer.zero_on) or "-",
            )
            self.assertIn(row, readme)

    def test_layer_predictions_name_real_workloads(self):
        for layer in tracer.LAYERS:
            for name in layer.moves + layer.zero_on:
                self.assertIn(name, workloads.BY_NAME, layer.time_metric)


class BypassedLayers(unittest.TestCase):
    """Layers that tracer.LAYERS predicts a workload bypasses read exactly zero."""

    def check(self, workload: str, tasks=None):
        metrics = traced_metrics(tasks or workloads.BY_NAME[workload].tasks)
        self.assertEqual(tracer.bypassed_but_busy(workload, metrics), [])
        return metrics

    def test_search_exhaustive(self):
        # One of the two tasks: NORINE@4 takes the same path.
        metrics = self.check("search-exhaustive", workloads.BY_NAME["search-exhaustive"].tasks[:1])
        self.assertEqual(metrics["colourings.min_changes_calls"], 0)
        self.assertEqual(metrics["colourings.from_index_calls"], 1 << 16)
        self.assertEqual(metrics["search.blocks"], 64)

    def test_search_sample(self):
        metrics = self.check("search-sample")
        self.assertEqual(metrics["colourings.min_changes_calls"], 512 + 1024)

    def test_verify_sweep(self):
        metrics = self.check("verify-sweep")
        self.assertEqual(metrics["verify.records"],
                         sum(t.items for t in workloads.BY_NAME["verify-sweep"].tasks))

    def test_instance_io(self):
        metrics = self.check("instance-io")
        self.assertGreater(metrics["serialize.instance_bytes"], 1 << 20)


if __name__ == "__main__":
    unittest.main()
