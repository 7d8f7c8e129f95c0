"""isdd-lab benchmark: run one workload through the CLI and report its metrics.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload graphs-n7 [--seed 1] [--seconds 25] [--trace 0]
    python3 perfbench/run.py --workload all      # every workload, one after another

Every measurement is a fresh ``isdd-lab`` process started the way the
installed entry point starts it (plus an exit hook that records the peak
RSS), with stdout and ``--report`` written to a
temporary directory under ``.perfbench_work/`` in the checkout.  Each output
is checked (exit code, totals, no violations, discrepancy digest).

``--trace 0`` reports the end-to-end metrics, each the median of the runs
made in ``--seconds``, with times scaled to a reference CPU speed (see
``SpeedProbe``).  ``--trace 1`` alternates untraced runs with traced
ones (see layers.py) and reports the per-layer metrics of the traced runs,
with the tracing overhead.  A human-readable table comes first; the last
line of stdout is one JSON object with the keys correct, attempted, failed
and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import pickle
import shutil
import signal
import subprocess
import sys
import tempfile
import threading
from dataclasses import dataclass, field, replace
from pathlib import Path
from statistics import mean, median
from time import perf_counter, thread_time

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

from layers import PER_LAYER, layer_metrics, main_process_breakdown  # noqa: E402
from workloads import (  # noqa: E402
    DEFAULT_SEED, REPORT, WORKLOADS, Expect, Workload, check_outputs, digest, expectations,
)

SETUPS_PER_SAMPLE = 3  # set-up runs after each timed run
BURST_ITERATIONS = 5_000  # loop iterations of one speed-probe burst
BURST_REF_S = 0.002  # burst CPU time that defines the reference speed
PROBE_GAP_S = 0.04  # pause between two bursts of a speed probe
MIN_SAMPLES = 3
# the CPUs this process may use; the CLI is pinned to the first one or two
CPUS = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else []
RUN_LIMIT_S = 170.0  # a run of the benchmark must end within 180 s
# The entry point plus a record of the process tree's peak RSS.  os.wait4 would
# report at least this script's own peak, which a spawned child inherits.
ENTRY = """
import atexit, os, resource, sys

def record_peak_rss():
    with open("/proc/self/status") as fh:
        own = max(int(line.split()[1]) for line in fh if line.startswith("VmHWM:"))
    workers = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    with open(os.environ["PERFBENCH_PEAK_RSS_FILE"], "w") as fh:
        fh.write(str(max(own, workers)))

atexit.register(record_peak_rss)
from isdd_lab.cli import main
sys.exit(main())
"""
NO_WORK = Expect(0, 0, digest(()))
# check_pair_stats time over kernel chunk time in the ROADMAP's cProfile baseline
ROADMAP_PROFILE = {"graphs-n7": "0.60 of 1.02 s = 0.59", "trees-n9": "0.29 of 0.64 s = 0.45"}


@dataclass
class Sample:
    wall: float
    cpu: float
    rss_mb: float
    problems: list[str]
    digest: str
    stdout_bytes: int
    report_bytes: int
    dump: dict | None = None


@dataclass
class Result:
    name: str
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    metrics: dict = field(default_factory=dict)  # name -> (value, unit, samples)
    notes: list[str] = field(default_factory=list)

    def record(self, sample: Sample) -> Sample:
        self.attempted += 1
        if sample.problems:
            self.failed += 1
            self.problems.extend(sample.problems)
        return sample


def _stop(proc: subprocess.Popen):
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


class Runner:
    """Starts CLI processes inside one temporary directory of the checkout."""

    def __init__(self, tmp: Path, deadline: float):
        self.tmp = tmp
        self.deadline = deadline
        self.env = dict(os.environ)
        self.env.pop("PYTHONDONTWRITEBYTECODE", None)
        self.env.pop("ISDD_LAB_JOBS", None)
        self.env["PYTHONPATH"] = str(SRC)
        # compiled modules persist in the checkout, so runs after the first start warm
        self.env["PYTHONPYCACHEPREFIX"] = str(tmp.parent / "pycache")
        self.peak_rss = tmp / "peak_rss_kb.txt"
        self.env["PERFBENCH_PEAK_RSS_FILE"] = str(self.peak_rss)
        self.empty = tmp / "empty.g6"
        self.empty.write_bytes(b"")

    def invoke(self, args, stdin: Path | None, expect: Expect, traced: bool = False) -> Sample:
        report = self.tmp / "report.json"
        dump = self.tmp / "trace.pickle"
        stdout = self.tmp / "stdout.txt"
        stderr = self.tmp / "stderr.txt"
        for path in (report, dump, self.peak_rss):
            path.unlink(missing_ok=True)
        cli_args = [str(report) if a == REPORT else a for a in args]
        if traced:
            cmd = [sys.executable, str(HERE / "traced_cli.py"), str(dump), *cli_args]
        else:
            cmd = [sys.executable, "-c", ENTRY, *cli_args]
        with open(stdin or self.empty, "rb") as fin, open(stdout, "wb") as fout, \
                open(stderr, "wb") as ferr:
            start = perf_counter()
            # a session of its own, so that the CLI and its pool workers stop together
            proc = subprocess.Popen(cmd, stdin=fin, stdout=fout, stderr=ferr,
                                    cwd=self.tmp, env=self.env, start_new_session=True)
            timer = threading.Timer(max(1.0, self.deadline - start), _stop, (proc,))
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                _stop(proc)
                proc.wait()
                raise
            finally:
                timer.cancel()
            wall = perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        report_text = report.read_text(encoding="ascii") if REPORT in args and \
            report.exists() else None
        out_text = stdout.read_text(encoding="ascii", errors="replace")
        err_text = stderr.read_text(encoding="ascii", errors="replace")
        if REPORT in args and report_text is None:
            problems, got = ["no report written"], ""
        else:
            problems, got = check_outputs(expect, proc.returncode, out_text, err_text,
                                          report_text)
        rss_kb = 0
        if not traced:
            if self.peak_rss.exists():
                rss_kb = int(self.peak_rss.read_text(encoding="ascii"))
            else:
                problems.append("no peak RSS recorded")
        dump_data = None
        if traced:
            if dump.exists():
                with open(dump, "rb") as fh:  # written by our own traced_cli.py
                    dump_data = pickle.load(fh)
            else:
                problems.append("no trace dump written")
        return Sample(
            wall=wall,
            cpu=usage.ru_utime + usage.ru_stime,
            rss_mb=rss_kb / 1024.0,
            problems=problems,
            digest=got,
            stdout_bytes=stdout.stat().st_size,
            report_bytes=report.stat().st_size if report.exists() else 0,
            dump=dump_data,
        )


def _room_for_another(deadline: float, rounds: list[float], minimum: int) -> bool:
    return len(rounds) < minimum or perf_counter() + median(rounds) < deadline


def _pin_digest(expect: Expect, first: Sample) -> Expect:
    """A stream without a recorded digest: later runs must agree with the first."""
    return replace(expect, digest=first.digest) if expect.digest is None else expect


def _burst():
    """A fixed piece of pure-Python dict, tuple and integer work, about 2 ms."""
    counts: dict = {}
    total = 0
    for i in range(BURST_ITERATIONS):
        key = (i % 7, i % 5)
        counts[key] = counts.get(key, 0) + 1
        total += i * i % 97
    return total


class SpeedProbe:
    """Measures how fast the CPUs run while a CLI process runs on them.

    The CPU speed of this kind of machine swings by a factor of two within
    seconds (a neighbour's load on a shared core), which moves every timing of
    the CLI alike.  One thread per CPU the CLI runs on, pinned to it, wakes
    every ``PROBE_GAP_S`` and times ``_burst`` in its own CPU time, so that
    waiting for the CPU does not count.  The mean over a run follows the speed
    the CLI saw, as both take turns on the same CPU; ``factor`` is that mean
    over the reference burst time.  The probe costs the CLI about 5% of a CPU.
    """

    def __init__(self, cpus):
        self.stop = threading.Event()
        self.times: list[float] = []
        self.threads = [threading.Thread(target=self._run, args=(cpu,), daemon=True)
                        for cpu in cpus]

    def _run(self, cpu):
        if cpu is not None:
            os.sched_setaffinity(0, {cpu})  # this thread only
        while not self.stop.wait(PROBE_GAP_S):
            start = thread_time()
            _burst()
            self.times.append(thread_time() - start)

    def __enter__(self):
        for thread in self.threads:
            thread.start()
        return self

    def __exit__(self, *exc):
        self.stop.set()
        for thread in self.threads:
            thread.join()

    def factor(self) -> float | None:
        return mean(self.times) / BURST_REF_S if self.times else None


def cli_cpus(wl: Workload) -> list:
    """The CPUs a workload's CLI runs on: one per pool worker, the first ones."""
    if not CPUS:
        return [None]
    jobs = int(wl.args[wl.args.index("--jobs") + 1]) if "--jobs" in wl.args else 1
    return CPUS[:jobs]


def measure_end_to_end(runner: Runner, wl: Workload, stdin, expect, result: Result,
                       deadline: float):
    result.record(runner.invoke(wl.setup_args, None, NO_WORK))  # warm-up, not timed
    cpus = cli_cpus(wl)
    samples, factors, setups, setup_factors, rounds = [], [], [], [], []
    while _room_for_another(deadline, rounds, MIN_SAMPLES):
        begin = perf_counter()
        with SpeedProbe(cpus) as probe:
            samples.append(result.record(runner.invoke(wl.args, stdin, expect)))
        expect = _pin_digest(expect, samples[0])
        # set-up runs spread over the whole run see the same machine as the timed ones
        with SpeedProbe(cpus) as setup_probe:
            setups += [result.record(runner.invoke(wl.setup_args, None, NO_WORK))
                       for _ in range(SETUPS_PER_SAMPLE)]
        factors.append(probe.factor() or 1.0)
        setup_factors += [setup_probe.factor() or factors[-1]] * SETUPS_PER_SAMPLE
        rounds.append(perf_counter() - begin)
    # Every run's times are divided by the speed factor measured during it, so
    # that runs made while the machine is slow compare with runs made while it
    # is fast; the median is then taken over the runs.
    walls = [s.wall / f for s, f in zip(samples, factors)]
    for name, unit, values in (
        ("wall_s", "s", walls),
        ("graphs_per_s", "1/s", [expect.seen / w for w in walls]),
        ("setup_s", "s", [s.wall / f for s, f in zip(setups, setup_factors)]),
        ("cpu_s", "s", [s.cpu / f for s, f in zip(samples, factors)]),
        ("peak_rss_mb", "MB", [s.rss_mb for s in samples]),
    ):
        result.metrics[name] = (median(values), unit, len(values))
    result.notes.append(
        f"machine slowness: probe bursts on CPUs {cpus} took {median(factors):.4f} times the "
        f"reference {BURST_REF_S * 1000:g} ms (median over the timed runs, range "
        f"{min(factors):.4f}-{max(factors):.4f}); each run's times are divided by its factor")
    result.notes.append("as measured: " + ", ".join((
        f"wall_s {median(s.wall for s in samples):.6g}",
        f"setup_s {median(s.wall for s in setups):.6g}",
        f"cpu_s {median(s.cpu for s in samples):.6g}")))
    result.notes.append(f"failed_frac {result.failed / result.attempted:g} ({result.failed} "
                        f"of {result.attempted} CLI runs; not in BENCHMARK.json, where a "
                        "metric that is 0 on a good run cannot carry a relative bound)")
    result.notes.append("wall_s of each run, as measured: " +
                        " ".join(f"{s.wall:.4f}" for s in samples))


def measure_per_layer(runner: Runner, wl: Workload, stdin, expect, result: Result,
                      deadline: float):
    result.record(runner.invoke(wl.setup_args, None, NO_WORK))  # warm-up, not timed
    plain, traced, rounds = [], [], []
    while _room_for_another(deadline, rounds, 1):
        begin = perf_counter()
        plain.append(result.record(runner.invoke(wl.args, stdin, expect)))
        expect = _pin_digest(expect, plain[0])
        traced.append(result.record(runner.invoke(wl.args, stdin, expect, traced=True)))
        rounds.append(perf_counter() - begin)
    per_run = [
        layer_metrics(t.dump, t.wall, t.report_bytes, t.stdout_bytes)
        for t in traced if t.dump is not None
    ]
    overhead = median([t.wall for t in traced]) / median([p.wall for p in plain]) - 1.0
    for name, unit in PER_LAYER:
        if name == "trace.overhead_frac":
            result.metrics[name] = (overhead, unit, len(traced))
        elif per_run:
            result.metrics[name] = (median([m[name] for m in per_run]), unit, len(per_run))
    last = traced[-1]
    if last.dump is not None:
        parts = main_process_breakdown(last.dump, last.wall)
        result.notes.append("CLI process self time by layer in the last traced run, summing "
                            f"to its {last.wall:.3f} s wall time: " +
                            ", ".join(f"{k} {v:.3f}" for k, v in sorted(parts.items())))
    if per_run and wl.name in ROADMAP_PROFILE:
        share = result.metrics["kernel.check_pair_stats.share"][0]
        result.notes.append(f"check_pair_stats share of kernel chunk time: traced {share:.2f}, "
                            f"ROADMAP cProfile {ROADMAP_PROFILE[wl.name]}")


def run_workload(wl: Workload, seed: int, seconds: float, trace: bool) -> Result:
    work = ROOT / ".perfbench_work"
    work.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="run-", dir=work))
    start = perf_counter()
    cpus = cli_cpus(wl)
    try:
        if cpus != [None]:
            os.sched_setaffinity(0, cpus)  # this thread, and the CLI processes it starts
        runner = Runner(tmp, start + RUN_LIMIT_S)
        stdin, expect = expectations(wl, seed, tmp)
        result = Result(wl.name)
        measure = measure_per_layer if trace else measure_end_to_end
        measure(runner, wl, stdin, expect, result, start + seconds)
        return result
    finally:
        if cpus != [None]:
            os.sched_setaffinity(0, CPUS)
        shutil.rmtree(tmp, ignore_errors=True)


def print_result(result: Result, seed: int, trace: bool):
    print(f"# workload {result.name}  seed {seed}  trace {int(trace)}")
    print(f"{'metric':40} {'value':>16} {'unit':14} samples")
    for name, (value, unit, count) in result.metrics.items():
        print(f"{name:40} {value:16.6g} {unit:14} {count}")
    for note in result.notes:
        print(f"# {note}")
    for problem in sorted(set(result.problems)):
        print(f"# FAILED CHECK: {problem}")


def as_json(result: Result) -> dict:
    return {
        "correct": result.failed == 0,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _) in result.metrics.items()},
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # on SIGTERM, unwind: the running CLI is stopped and the temporary directory removed
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    if not (SRC / "isdd_lab" / "cli.py").is_file():
        print(f"error: the program's sources ({SRC / 'isdd_lab'}) are missing; "
              "run this from a checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))  # the stream generator writes graph6 with the library
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        result = run_workload(WORKLOADS[name], args.seed, args.seconds, bool(args.trace))
        print_result(result, args.seed, bool(args.trace))
        results[name] = as_json(result)
    print(json.dumps(results[names[0]] if len(names) == 1 else results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
