#!/usr/bin/env python3
"""End-to-end sweep benchmark for the RASA reproduction.

Usage, from the root of a checkout::

    python3 sweepbench/run.py --workload NAME --seed N --seconds S --trace 0|1

One sweep is one ``repro plan run <axes> --cache-dir STORE -o REPORT``
process, timed from exec to exit, which builds the same plan, ``Session``
and tables as ``repro sweep`` and writes the canonical report.  Workers are
left at the CLI default, the CPU count.  The benchmark is a closed loop with
one client: it starts the next sweep when the previous one has ended, for
as long as one more round, as long as the longest so far, still fits in
``--seconds`` (at least one round).  A sweep counts as
failed on a non-zero exit, on a timeout, or when the report's SHA-256
differs from the workload's digest in ``expected.json``.

With ``--trace 0`` it prints the end-to-end metrics of ``BENCHMARK.json``,
medians over the run's sweeps.  The two times are scaled to a fixed host
speed: before the first sweep and after each one the runner times
``REFERENCE``, a fixed piece of work that does not touch the program, and
multiplies each sweep's times by ``REFERENCE_S`` over the mean of the two
reference times around it (see :func:`host_scale`):

- ``wall_s``: exec to exit of the sweep process, interpreter teardown included;
- ``setup_s``: exec until the plan starts to expand: interpreter start,
  imports and opening the store;
- ``peak_rss_mb``: the largest peak resident set among the sweep process and
  its pool workers, from the kernel's accounting of the reaped process tree;
- ``ok_frac``: sweeps that passed over sweeps attempted;
- ``fig5_mae``: mean absolute error of the five RASA designs' geomean runtime
  over baseline against the paper's Fig. 5 averages (``PAPER_AVERAGES``).

With ``--trace 1`` it alternates an untraced sweep, a traced sweep and a
traced ``--jobs 1`` sweep, and prints the per-layer metrics: medians over the
traced sweeps of the spans ``tracing.py`` records, and over the untraced
sweeps of the times ``probe.py`` marks.  The last line of standard output is
one JSON object.

``--seed`` makes the workload's inputs: it seeds the background store of
the suites workloads.  The plans, and so the reports, do not depend on it.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import itertools
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path
from typing import Any, Callable, Dict, Iterable, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: A sweep that takes this long is killed and counted as failed.
SWEEP_TIMEOUT_S = 60.0

TABLE1_AXES = ("--designs", "all", "--workloads", "table1", "--scale", "4",
               "--fidelity", "fast")
SUITES_AXES = ("--designs", "all", "--workloads", "all", "--batches", "1,64,512",
               "--scale", "1", "--fidelity", "analytic")


#: The host-speed reference: interpreter start, a pure-Python loop and numpy
#: prefix maxima, the same kinds of work a sweep does.  It imports nothing
#: from the repository, so no change to the program moves it.
REFERENCE = """
import numpy as np
s = 0
for i in range(400000):
    s += i * i % 7
a = np.arange(100000, dtype=np.float64)
for _ in range(100):
    a = np.maximum.accumulate(a[::-1])
"""

#: ``REFERENCE``'s exec-to-exit time on the host the bounds were set on, a
#: 2-vCPU Intel Xeon VM at 2.1 GHz, so scaled times read as seconds there.
REFERENCE_S = 0.3


def now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def host_scale(before: float, after: float) -> float:
    """Factor that takes a time measured between two runs of ``REFERENCE``,
    which took ``before`` and ``after`` seconds, to the reference host.

    Shared hosts change speed by up to 1.9x over minutes, far more than the
    bounds allow, and a sweep slows with them.  A single-process reference
    tracks that drift: on Table I it cut the spread of one-minute medians
    of wall time from 0.20 to 0.05 of their median.  A parallel reference
    tracked it worse (0.11).
    """
    return 2 * REFERENCE_S / (before + after)


# -- fig5_mae: the model's error against the paper's Fig. 5 averages -----------------


def _paper_error(averages: Dict[str, float], paper: Dict[str, float]) -> float:
    return statistics.fmean(abs(averages[d] - paper[d]) for d in paper)


def fig5_mae_grid(report_text: str) -> float:
    """Fig. 5 itself: geomean over Table I layers of runtime over baseline."""
    from repro.experiments.runner import geometric_mean, normalized_runtimes
    from repro.experiments.runtime_sweep import PAPER_AVERAGES
    from repro.runtime.plan import SweepReport

    normalized = normalized_runtimes(SweepReport.from_json(report_text).grid())
    averages = {d: geometric_mean(normalized[w][d] for w in normalized)
                for d in PAPER_AVERAGES}
    return _paper_error(averages, PAPER_AVERAGES)


def fig5_mae_suite(report_text: str) -> float:
    """The same error for the ``table1`` suite of a batch-axis report:
    geomean over the batches of the suite's runtime over baseline."""
    from repro.experiments.runner import geometric_mean
    from repro.experiments.runtime_sweep import PAPER_AVERAGES
    from repro.runtime.plan import SweepReport

    curves = SweepReport.from_json(report_text).batch_curves()["table1"]
    averages = {d: geometric_mean(curves[d].normalized_to(curves["baseline"]).values())
                for d in PAPER_AVERAGES}
    return _paper_error(averages, PAPER_AVERAGES)


@dataclasses.dataclass(frozen=True)
class Workload:
    axes: tuple
    #: Run into a copy of the seeded background store (``store.py``).
    background: bool
    #: Run the plan once, untimed, so every measured sweep hits the cache.
    warm: bool
    fig5_mae: Callable[[str], float]


WORKLOADS: Dict[str, Workload] = {
    "table1-cold": Workload(TABLE1_AXES, background=False, warm=False,
                            fig5_mae=fig5_mae_grid),
    "suites-analytic-cold": Workload(SUITES_AXES, background=True, warm=False,
                                     fig5_mae=fig5_mae_suite),
    "suites-analytic-warm": Workload(SUITES_AXES, background=True, warm=True,
                                     fig5_mae=fig5_mae_suite),
}


# -- one sweep ---------------------------------------------------------------------


@dataclasses.dataclass
class Sweep:
    ok: bool
    wall_s: float
    rss_mb: float
    #: CLOCK_MONOTONIC times: the probe's marks, plus ``exec`` and ``exit``.
    marks: Dict[str, Any]
    pid: int
    report: Path
    trace_dir: Optional[Path]


def sweep_env() -> Dict[str, str]:
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _kill_group(pgid: int) -> None:
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def _reap_group(pgid: int, limit_s: float = 5.0) -> None:
    """Kill what is left of a sweep's process group and wait until it is gone."""
    deadline = now() + limit_s
    while now() < deadline:
        try:
            os.killpg(pgid, signal.SIGKILL)
        except ProcessLookupError:
            return
        time.sleep(0.01)


def sha256(path: Path) -> Optional[str]:
    try:
        return hashlib.sha256(path.read_bytes()).hexdigest()
    except OSError:
        return None


def report_matches(report: Path, expected: str) -> bool:
    """Whether the report exists and its bytes have the expected digest."""
    return sha256(report) == expected


class Runner:
    """Runs sweeps of one workload in a private work directory."""

    def __init__(self, workload: Workload, expected_digest: str, work: Path) -> None:
        self.workload = workload
        self.expected = expected_digest
        self.work = work
        self.env = sweep_env()
        self.env["TMPDIR"] = str(work)  # keep every file a sweep writes in the checkout
        self.tags = itertools.count()
        self.attempted = 0
        self.failed = 0

    def reference(self) -> float:
        """Exec-to-exit time of one run of ``REFERENCE``."""
        t_exec = now()
        subprocess.run([sys.executable, "-c", REFERENCE], cwd=self.work, env=self.env,
                       check=True, timeout=SWEEP_TIMEOUT_S)
        return now() - t_exec

    def sweep(self, store: Path, trace: bool = False, jobs: Optional[int] = None) -> Sweep:
        """Run one sweep into ``store`` and check its report."""
        tag = next(self.tags)
        marks_path = self.work / f"marks-{tag}.json"
        report = self.work / f"report-{tag}.json"
        trace_dir = self.work / f"trace-{tag}" if trace else None
        if trace_dir is not None:
            trace_dir.mkdir()
        argv = [sys.executable, str(HERE / "probe.py"), str(marks_path),
                str(trace_dir) if trace_dir is not None else "-", "--",
                "plan", "run", *self.workload.axes,
                "--cache-dir", str(store), "-o", str(report)]
        if jobs is not None:
            argv += ["--jobs", str(jobs)]
        with open(self.work / f"stderr-{tag}.txt", "wb") as stderr:
            t_exec = now()
            proc = subprocess.Popen(argv, cwd=ROOT, env=self.env, stdout=subprocess.DEVNULL,
                                    stderr=stderr, start_new_session=True)
            timer = threading.Timer(SWEEP_TIMEOUT_S, _kill_group, (proc.pid,))
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
                t_exit = now()
            finally:
                timer.cancel()
            proc.returncode = os.waitstatus_to_exitcode(status)
        _reap_group(proc.pid)
        try:
            marks = json.loads(marks_path.read_text())
        except (OSError, ValueError):
            marks = {}
        ok = (proc.returncode == 0 and marks.get("code") == 0
              and "expand" in marks and report_matches(report, self.expected))
        self.attempted += 1
        self.failed += not ok
        if not ok:
            tail = (self.work / f"stderr-{tag}.txt").read_text(errors="replace")[-2000:]
            print(f"sweep {tag} failed: exit {proc.returncode}, report "
                  f"{sha256(report)}\n{tail}", file=sys.stderr)
        marks.update(exec=t_exec, exit=t_exit)
        return Sweep(ok=ok, wall_s=t_exit - t_exec, rss_mb=usage.ru_maxrss / 1024,
                     marks=marks, pid=proc.pid, report=report, trace_dir=trace_dir)


# -- per-layer metrics from spans ----------------------------------------------------


def _covered(span: Dict[str, Any], others: Iterable[Dict[str, Any]]) -> float:
    """Length of ``span``'s interval that the union of ``others`` covers."""
    parts = sorted((max(o["start"], span["start"]), min(o["end"], span["end"]))
                   for o in others)
    total, reach = 0.0, span["start"]
    for start, end in parts:
        start = max(start, reach)
        if end > start:
            total += end - start
            reach = end
    return total


def read_spans(trace_dir: Path) -> List[Dict[str, Any]]:
    spans = []
    for path in sorted(trace_dir.glob("spans-*.jsonl")):
        spans.extend(json.loads(line) for line in path.read_text().splitlines())
    for path in trace_dir.glob("missing-*.json"):
        print(f"tracing skipped entry points: {json.loads(path.read_text())}",
              file=sys.stderr)
    return spans


def layer_metrics(spans: List[Dict[str, Any]], main_pid: int) -> Dict[str, float]:
    """Per-layer counts and self times of one traced sweep.

    A span's self time is its duration minus the part its child spans cover.
    The children of ``Session.run`` include the outermost spans of the pool
    workers, which run at the same time in other processes.
    """
    children: Dict[Optional[str], List[Dict[str, Any]]] = defaultdict(list)
    remote = []
    named: Dict[str, List[Dict[str, Any]]] = defaultdict(list)
    for span in spans:
        named[span["name"]].append(span)
        if span["parent"] is not None:
            children[span["parent"]].append(span)
        elif span["pid"] != main_pid:
            remote.append(span)

    def self_s(name: str) -> float:
        total = 0.0
        for span in named[name]:
            kids = children[span["id"]] + (remote if name == "session.run" else [])
            total += span["end"] - span["start"] - _covered(span, kids)
        return total

    def total_s(name: str) -> float:
        return sum(span["end"] - span["start"] for span in named[name])

    jobs = max((s["jobs"] for s in named["plan.expand"]), default=0)
    distinct = max((s["distinct"] for s in named["plan.hash"]), default=0)
    lowerings = len(named["codegen.lower"])
    fastvec_s = self_s("fastvec")
    fastvec_instrs = sum(s["instrs"] for s in named["fastvec"])
    return {
        "plan.expand_s": self_s("plan.expand"),
        "plan.hash_s": self_s("plan.hash"),
        "plan.jobs": jobs,
        "plan.distinct": distinct,
        "plan.dedup_ratio": jobs / distinct if distinct else 0.0,
        "cache.open_s": self_s("cache.open"),
        "cache.get_s": self_s("cache.get"),
        "cache.put_s": self_s("cache.put"),
        "cache.flush_s": self_s("cache.flush"),
        "cache.hits": sum(1 for s in named["cache.get"] if s["hit"]),
        "cache.misses": sum(1 for s in named["cache.get"] if not s["hit"]),
        "cache.store_entries": max(
            (s["entries"] for s in named["cache.open"] + named["cache.flush"]), default=0),
        "codegen.s": total_s("codegen"),
        "codegen.lowerings": lowerings,
        "codegen.reuse_ratio": (len({s["program"] for s in named["codegen.lower"]})
                                / lowerings if lowerings else 0.0),
        "codegen.instrs": sum(s["instrs"] for s in named["codegen.lower"]),
        "decode.s": self_s("decode"),
        "decode.calls": sum(1 for s in named["decode"] if s["miss"]),
        "fastvec.s": fastvec_s,
        "fastvec.runs": len(named["fastvec"]),
        "fastvec.instr_per_s": fastvec_instrs / fastvec_s if fastvec_s else 0.0,
        "analytic.s": self_s("analytic"),
        "analytic.points": len(named["analytic"]),
        "session.run_s": total_s("session.run"),
        "session.self_s": self_s("session.run"),
    }


# -- runs ----------------------------------------------------------------------------


def median(values: List[float]) -> float:
    return statistics.median(values) if values else 0.0


def describe(name: str, values: List[float]) -> str:
    if len(values) >= 2:
        q1, q2, q3 = statistics.quantiles(values, n=4)
        return f"{name}: median {q2:.6g}, quartiles {q1:.6g}..{q3:.6g}, n={len(values)}"
    return f"{name}: {values[0] if values else 0:.6g}, n={len(values)}"


class Bench:
    def __init__(self, name: str, seed: int, seconds: float, work: Path) -> None:
        self.workload = WORKLOADS[name]
        expected = json.loads((HERE / "expected.json").read_text())[name]
        self.runner = Runner(self.workload, expected, work)
        self.seed = seed
        self.seconds = seconds
        self.work = work
        self.background: Optional[Path] = None
        self.warm: Optional[Path] = None

    def prepare(self) -> None:
        """Build the workload's inputs; nothing here is timed."""
        subprocess.run([sys.executable, "-m", "compileall", "-q", str(ROOT / "src")],
                       cwd=ROOT, env=self.runner.env, stdout=subprocess.DEVNULL, check=True)
        if self.workload.background:
            from store import write_background

            self.background = self.work / "background"
            write_background(self.background, self.seed)
        if self.workload.warm:
            self.warm = self.fresh_store()
            self.runner.sweep(self.warm)

    def fresh_store(self) -> Path:
        """An empty store, or a copy of the background store."""
        store = self.work / f"store-{next(self.runner.tags)}"
        if self.background is not None:
            shutil.copytree(self.background, store)
        return store

    def sweep(self, **kwargs: Any) -> Sweep:
        if self.warm is not None:
            return self.runner.sweep(self.warm, **kwargs)
        store = self.fresh_store()
        try:
            return self.runner.sweep(store, **kwargs)
        finally:
            shutil.rmtree(store, ignore_errors=True)

    def rounds(self, one_round: Callable[[], None]) -> None:
        """Repeat ``one_round`` for ``seconds``: at least once, and then while
        another round as long as the longest so far still fits."""
        deadline = now() + self.seconds
        longest = 0.0
        while True:
            start = now()
            one_round()
            longest = max(longest, now() - start)
            if now() + longest > deadline:
                return

    def end_to_end(self) -> Dict[str, List[float]]:
        sweeps: List[Sweep] = []
        references = [self.runner.reference()]

        def one_round() -> None:
            sweeps.append(self.sweep())
            references.append(self.runner.reference())

        self.rounds(one_round)
        good = [(s, host_scale(before, after))
                for s, before, after in zip(sweeps, references, references[1:]) if s.ok]
        wall = [s.wall_s for s, _ in good]
        setup = [s.marks["expand"] - s.marks["exec"] for s, _ in good]
        print(describe("unscaled wall_s", wall))
        print(describe("unscaled setup_s", setup))
        print(describe("reference_s", references))
        # Every good report has the same bytes, so one gives the error.
        mae = self.workload.fig5_mae(good[0][0].report.read_text()) if good else 0.0
        return {
            "wall_s": [t * scale for t, (_, scale) in zip(wall, good)],
            "setup_s": [t * scale for t, (_, scale) in zip(setup, good)],
            "peak_rss_mb": [s.rss_mb for s, _ in good],
            "ok_frac": [(self.runner.attempted - self.runner.failed) / self.runner.attempted],
            "fig5_mae": [mae],
        }

    def per_layer(self) -> Dict[str, List[float]]:
        plain: List[Sweep] = []
        traced: List[Sweep] = []
        serial: List[Sweep] = []

        def one_round() -> None:
            plain.append(self.sweep())
            traced.append(self.sweep(trace=True))
            serial.append(self.sweep(trace=True, jobs=1))

        self.rounds(one_round)
        plain = [s for s in plain if s.ok]
        layers = [layer_metrics(read_spans(s.trace_dir), s.pid) for s in traced if s.ok]
        serial_run_s = [layer_metrics(read_spans(s.trace_dir), s.pid)["session.run_s"]
                        for s in serial if s.ok]
        values: Dict[str, List[float]] = defaultdict(list)
        for metrics in layers:
            for name, value in metrics.items():
                values[name].append(value)
        parallel_run_s = median(values["session.run_s"])
        values["session.pool_speedup"] = [
            median(serial_run_s) / parallel_run_s if parallel_run_s else 0.0]
        values["cli.import_s"] = [s.marks["imported"] - s.marks["start"] for s in plain]
        values["cli.render_s"] = [s.marks["main_return"] - s.marks["run_end"] for s in plain]
        values["process.teardown_s"] = [s.marks["exit"] - s.marks["main_return"]
                                        for s in plain]
        plain_wall = median([s.wall_s for s in plain])
        values["trace.overhead_frac"] = [
            median([s.wall_s for s in traced if s.ok]) / plain_wall - 1 if plain_wall else 0.0]
        return values


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "cli.py").is_file():
        print(f"error: {ROOT} is not a checkout of the repro package "
              "(no src/repro/cli.py); run from the repository root", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    specs = benchmark["per_layer" if args.trace else "end_to_end"]
    work = ROOT / ".sweepbench" / f"run-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        bench = Bench(args.workload, args.seed, args.seconds, work)
        bench.prepare()
        values = bench.per_layer() if args.trace else bench.end_to_end()
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()  # unless another run is using it
        except OSError:
            pass
    metrics = {}
    for spec in specs:
        series = values[spec["name"]]
        print(describe(spec["name"], series))
        metrics[spec["name"]] = {"value": median(series), "unit": spec["unit"]}
    runner = bench.runner
    print(json.dumps({"correct": runner.failed == 0, "attempted": runner.attempted,
                      "failed": runner.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
