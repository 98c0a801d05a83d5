"""Benchmark of the ``cubegeo`` CLI, run the way users run it.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from a checkout of the repository; the library is used from ``src``
with nothing to build. Every invocation is a fresh child process of this
one, with ``--seed N`` and, where the subcommand has it, ``--jobs 1`` or
``--jobs 2`` (never more than the CPUs this process may use).

The speed of each CPU of a shared virtual machine changes by tens of
percent within seconds, as other tenants come and go, and a child's CPU
time changes with its wall time. So a run at J jobs is pinned to the first
J CPUs (a copy of a task that takes no --jobs to a CPU of its own), and
while it runs a thread of this process visits those CPUs in turn,
every ``PROBE_EVERY_S`` seconds, and takes the CPU time of a fixed
pure-Python loop there (``reference_seconds``). The run's wall time is
scaled to the nominal speed at which that loop takes ``REFERENCE_S``:
scaled seconds = wall seconds * REFERENCE_S / mean loop time during the
run. The loop does not depend on the program, so a change to the program
moves a scaled time by the same share as the wall time. A loop on the
child's own CPU follows the child's speed; one on another CPU does not.

``--trace 0`` cycles through the workload's tasks, each at one and at two
jobs, for S seconds (but at least once each), and reports:

  setup_s            median scaled time of 15 fresh
                     ``python -m cubegeo.harness.cli --help`` runs, spread
                     evenly over the S seconds
  items_per_s        items of one pass of the tasks / sum of the tasks'
                     median scaled times, at --jobs 1
  items_per_s_jobs2  the same at two-way parallelism (--jobs 2, or two
                     concurrent copies where the subcommands have no --jobs)
  peak_rss_mb        largest per-task median of a --jobs 1 child's peak RSS

``--trace 1`` runs each task once untraced and once under ``tracer.py``
and reports the per-layer metrics of the traced pass, plus the tracing
overhead.

Every output is checked: exit code 0, the task's own content check,
byte identity with the first run of the same task in this run (so --jobs
1 against 2, repeats, and traced against untraced), and at the default
seed the SHA-256 pinned in ``digests.json``. An invocation that fails any
check counts in ``failed``; the last line of stdout is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``, and the exit
code is 1 if any invocation failed.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"
sys.path.insert(0, str(HERE))

import tracer  # noqa: E402
from workloads import BY_NAME, Task, Workload  # noqa: E402

DEFAULT_SEED = 0
SETUP_RUNS = 15
#: Children still running this long after the run started are killed (and
#: fail), so a run ends well within the 180 s it is allowed.
DEADLINE_S = 170
#: Iterations of the reference loop, how often it runs while a child runs,
#: and its time at the nominal machine speed that times are scaled to
#: (about its median on the 2-CPU machine the benchmark was written on).
REFERENCE_LOOPS = 10_000
PROBE_EVERY_S = 0.05
REFERENCE_S = 0.004

END_TO_END = (
    ("items_per_s", "1/s"),
    ("items_per_s_jobs2", "1/s"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
)
TRACE_OVERHEAD = ("trace.overhead_pct", "%")


def per_layer_units() -> list[tuple[str, str]]:
    def unit(name: str) -> str:
        if name.endswith("_s"):
            return "s"
        if name.endswith("_bytes"):
            return "bytes"
        return "count"

    return [(name, unit(name)) for name in tracer.METRICS] + [TRACE_OVERHEAD]


def usable_cpus() -> list[int]:
    return sorted(os.sched_getaffinity(0))


def reference_seconds() -> float:
    """CPU seconds of this thread in a fixed loop of integer arithmetic, bit
    operations and dict stores, the kind of work the library's inner loops
    do. CPU time, so that sharing the CPU with a child does not count."""
    t0 = time.thread_time()
    acc, table = 0, {}
    for i in range(REFERENCE_LOOPS):
        acc = (acc * 31 + i) & 0xFFFFFFFF
        table[i & 1023] = acc ^ (i >> 3)
    return time.thread_time() - t0


def timed(run, cpus: list[int]):
    """Call ``run()``; its result, its wall seconds, and the slowdown of the
    given CPUs meanwhile: the mean time of the reference loop, run in a
    thread on each CPU in turn every PROBE_EVERY_S seconds, over
    REFERENCE_S."""
    probes: list[float] = []
    stop = threading.Event()

    def probe():
        # The first loop waits, so that it does not slow the child's start;
        # a run shorter than that gets one loop just after it ends.
        cpu = itertools.cycle(cpus)
        while not stop.wait(PROBE_EVERY_S) or not probes:
            os.sched_setaffinity(0, {next(cpu)})
            probes.append(reference_seconds())

    thread = threading.Thread(target=probe)
    t0 = time.perf_counter()
    thread.start()
    try:
        result = run()
    finally:
        wall = time.perf_counter() - t0
        stop.set()
        thread.join()
    return result, wall, statistics.mean(probes) / REFERENCE_S


@dataclass
class Execution:
    """One run of a task: per-copy, per-step exit codes and outputs."""

    wall: float
    #: Wall seconds scaled to the nominal machine speed.
    scaled: float
    rss_kb: int
    codes: list[list[int]]
    outputs: list[list[bytes]]


class Bench:
    def __init__(self, workload: Workload, seed: int):
        self.workload = workload
        self.seed = seed
        self.deadline = time.monotonic() + DEADLINE_S
        self.cpus = usable_cpus()
        self.jobs2 = min(2, len(self.cpus))
        self.work = WORK / workload.name
        shutil.rmtree(self.work, ignore_errors=True)
        (self.work / "tmp").mkdir(parents=True)
        env = dict(os.environ)
        env.pop("CUBEGEO_JOBS", None)
        # Children use cached bytecode, as an installed package does, whatever
        # the caller's environment says; the first --help run writes it.
        env.pop("PYTHONDONTWRITEBYTECODE", None)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
        env["TMPDIR"] = str(self.work / "tmp")
        self.env = env
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.reference: dict[str, str] = {}
        #: Task name -> its content check's verdict (an error message or
        #: None) on the outputs that became the task's reference.
        self.verdicts: dict[str, str | None] = {}
        #: Scaled seconds of each run of a task at a job count.
        self.walls: dict[tuple[str, int], list[float]] = {}
        #: The slowdown during each timed child run.
        self.slowdowns: list[float] = []
        self.runs = 0
        self.pinned = None
        if seed == DEFAULT_SEED:
            pins = json.loads((HERE / "digests.json").read_text())
            self.pinned = pins["digests"].get(workload.name, {})

    # -- child processes -------------------------------------------------

    def spawn(self, argv: list[str], cwd: Path, stdout: Path,
              cpus: list[int]) -> tuple[int, int]:
        """Run one child, pinned to the given CPUs, to completion; (exit
        code, peak RSS in KiB of that child alone)."""
        with open(stdout, "wb") as out, open(stdout.with_suffix(".err"), "wb") as err:
            # The child, and any pool it starts, inherits the affinity of
            # the thread that starts it.
            os.sched_setaffinity(0, cpus)
            try:
                proc = subprocess.Popen(argv, cwd=cwd, env=self.env, stdout=out, stderr=err,
                                        start_new_session=True)
            finally:
                os.sched_setaffinity(0, self.cpus)
            timer = threading.Timer(max(0.0, self.deadline - time.monotonic()), _kill_group,
                                    (proc.pid,))
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                _kill_group(proc.pid)
                proc.wait()
                raise
            finally:
                timer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
        return proc.returncode, usage.ru_maxrss

    def cli(self, args, traced_spans: Path | None = None) -> list[str]:
        if traced_spans is None:
            return [sys.executable, "-m", "cubegeo.harness.cli", *args]
        return [sys.executable, str(HERE / "tracer.py"), "--spans", str(traced_spans), "--", *args]

    def execute(self, task: Task, jobs: int, traced: bool = False) -> Execution:
        """Run a task at the given parallelism; spans of a traced run go to
        ``spans-<task>-<step>.bin`` in the work directory."""
        copies = copies_at(task, jobs)
        cpus = self.cpus[:jobs]

        def one(copy: int):
            cwd = self.work / f"copy{copy}"
            cwd.mkdir(exist_ok=True)
            codes, rss = [], 0
            for i, step in enumerate(task.steps):
                args = [*step.args, "--seed", str(self.seed)]
                if step.takes_jobs:
                    args += ["--jobs", str(jobs)]
                spans = self.work / f"spans-{task.name}-{i}.bin" if traced else None
                code, peak = self.spawn(self.cli(args, spans), cwd, cwd / f"stdout{i}",
                                        cpus[copy:copy + 1] if copies > 1 else cpus)
                codes.append(code)
                rss = max(rss, peak)
            return cwd, codes, rss

        def run_copies():
            if copies == 1:
                return [one(0)]
            with ThreadPoolExecutor(copies) as pool:
                return list(pool.map(one, range(copies)))

        results, wall, slowdown = timed(run_copies, cpus)
        self.slowdowns.append(slowdown)
        outputs = [[(cwd / (step.out or f"stdout{i}")).read_bytes() if code == 0 else b""
                    for i, (step, code) in enumerate(zip(task.steps, codes))]
                   for cwd, codes, _ in results]
        execution = Execution(wall, wall / slowdown, max(r[2] for r in results),
                              [r[1] for r in results], outputs)
        for codes, outputs in zip(execution.codes, execution.outputs):
            self.judge(task, codes, outputs)
        return execution

    # -- checks ----------------------------------------------------------

    def judge(self, task: Task, codes: list[int], outputs: list[bytes]) -> None:
        bad = set()
        for i, (code, output) in enumerate(zip(codes, outputs)):
            key = f"{task.name}/{i}"
            if code != 0:
                bad.add(i)
                self.problems.append(f"{key}: exit code {code}")
                continue
            digest = hashlib.sha256(output).hexdigest()
            if self.reference.setdefault(key, digest) != digest:
                bad.add(i)
                self.problems.append(f"{key}: output differs from this run's first output")
            if self.pinned is not None and self.pinned.get(key) != digest:
                bad.add(i)
                self.problems.append(f"{key}: sha256 {digest} is not the pinned digest")
        if not bad:
            # Clean outputs are the reference bytes, so the verdict on the
            # first of them holds for all.
            if task.name not in self.verdicts:
                try:
                    self.verdicts[task.name] = task.check(outputs)
                except (ValueError, KeyError, TypeError, IndexError) as exc:
                    self.verdicts[task.name] = f"unreadable output: {exc!r}"
            problem = self.verdicts[task.name]
            if problem:
                bad = set(range(len(codes)))
                self.problems.append(f"{task.name}: {problem}")
        self.attempted += len(codes)
        self.failed += len(bad)

    # -- runs ------------------------------------------------------------

    def help_seconds(self) -> float:
        """Scaled seconds of one fresh ``--help`` run, which is checked."""
        out = self.work / "help"
        cpus = self.cpus[:1]
        (code, _), wall, slowdown = timed(
            lambda: self.spawn(self.cli(["--help"]), self.work, out, cpus), cpus)
        self.slowdowns.append(slowdown)
        self.attempted += 1
        if code != 0 or not out.read_bytes().startswith(b"usage: cubegeo"):
            self.failed += 1
            self.problems.append(f"--help: exit code {code}")
        return wall / slowdown

    def measure(self, seconds: float) -> dict[str, float]:
        self.help_seconds()  # warms the file and bytecode caches; not timed
        setup: list[float] = []
        tasks = self.workload.tasks
        order = [(task, jobs) for task in tasks for jobs in (1, self.jobs2)]
        walls = self.walls = {(t.name, j): [] for t, j in order}
        last_wall: dict[tuple[str, int], float] = {}
        rss: dict[str, list[int]] = {t.name: [] for t in tasks}
        # One full pass, then more while the next task is expected to end
        # within the time given (expected: its last wall time). The --help
        # runs of setup_s are spread evenly over the same time.
        start = time.perf_counter()
        end = start + seconds
        k = 0
        while True:
            due = SETUP_RUNS * (time.perf_counter() - start) / seconds
            while len(setup) < min(SETUP_RUNS, due + 1):
                setup.append(self.help_seconds())
            task, jobs = order[k % len(order)]
            if k >= len(order) and time.perf_counter() + last_wall[(task.name, jobs)] > end:
                break
            k += 1
            run = self.execute(task, jobs)
            walls[(task.name, jobs)].append(run.scaled)
            last_wall[(task.name, jobs)] = run.wall
            if jobs == 1:
                rss[task.name].append(run.rss_kb)
        while len(setup) < SETUP_RUNS:
            setup.append(self.help_seconds())

        def rate(jobs: int) -> float:
            items = sum(t.items * copies_at(t, jobs) for t in tasks)
            return items / sum(statistics.median(walls[(t.name, jobs)]) for t in tasks)

        self.runs = k
        return {
            "items_per_s": rate(1),
            "items_per_s_jobs2": rate(self.jobs2),
            "peak_rss_mb": max(statistics.median(v) for v in rss.values()) / 1024,
            "setup_s": statistics.median(setup),
        }

    def trace(self) -> dict[str, float]:
        totals = dict.fromkeys(tracer.METRICS, 0)
        untraced = traced = 0.0
        for task in self.workload.tasks:
            untraced += self.execute(task, 1).scaled
            traced += self.execute(task, 1, traced=True).scaled
            for i in range(len(task.steps)):
                spans = self.work / f"spans-{task.name}-{i}.bin"
                if spans.exists():
                    for name, value in tracer.read_metrics(str(spans)).items():
                        totals[name] += value
        self.runs = 2 * len(self.workload.tasks)
        totals[TRACE_OVERHEAD[0]] = 100 * (traced / untraced - 1)
        return totals


def copies_at(task: Task, jobs: int) -> int:
    """Concurrent copies of a task at the given parallelism: a task whose
    subcommands take no --jobs runs as that many clients at once."""
    return 1 if any(step.takes_jobs for step in task.steps) else jobs


def _kill_group(pid: int) -> None:
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def run_workload(workload: Workload, seed: int, seconds: float, trace: bool) -> dict:
    bench = Bench(workload, seed)
    if trace:
        values = bench.trace()
        units = per_layer_units()
    else:
        values = bench.measure(seconds)
        units = list(END_TO_END)
    error_rate = bench.failed / bench.attempted
    print(f"workload {workload.name}  seed {seed}  trace {int(trace)}  "
          f"task runs {bench.runs}  machine: {len(usable_cpus())} cpus, "
          f"python {platform.python_version()}")
    print(f"  slowdown against the nominal speed: mean {statistics.mean(bench.slowdowns):.3f} "
          f"over {len(bench.slowdowns)} child runs")
    for name, unit in units:
        print(f"  {name:<32} {values[name]:>14.6g} {unit}")
    print(f"  {'error_rate':<32} {error_rate:>14.6g} fraction "
          f"({bench.failed} of {bench.attempted} invocations)")
    for (task, jobs), walls in bench.walls.items():
        print(f"  task {task} --jobs {jobs}: median {statistics.median(walls):.3f} scaled s"
              f" of {len(walls)}: {' '.join(f'{w:.3f}' for w in walls)}")
    for problem in bench.problems[:20]:
        print(f"  FAILED {problem}")
    if trace:
        for wrong in tracer.bypassed_but_busy(workload.name, values):
            print(f"  predicted zero on this workload, but {wrong}")
    return {
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=list(BY_NAME))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "cubegeo" / "harness" / "cli.py").is_file():
        print(f"run.py: no cubegeo sources under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2
    result = run_workload(BY_NAME[args.workload], args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
