"""Self-tests of the sweep benchmark.

Run from the root of a checkout: ``python3 -m pytest sweepbench -q``.
They start real sweeps, so they take about half a minute.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import store  # noqa: E402

sys.path.insert(0, str(run.ROOT / "src"))


def _bench(name: str, tmp_path: Path) -> run.Bench:
    work = tmp_path / "work"
    work.mkdir()
    return run.Bench(name, seed=3, seconds=0, work=work)


def test_same_seed_gives_the_same_store(tmp_path):
    from repro.runtime.cache import ResultCache

    for name, seed in (("a", 5), ("b", 5), ("c", 6)):
        store.write_background(tmp_path / name, seed, entries=300)
    first, second, other = (sorted(p.read_bytes() for p in (tmp_path / n).iterdir())
                            for n in "abc")
    assert first == second
    assert first != other
    assert len(ResultCache(tmp_path / "a")) == 300


def test_corrupted_report_fails_the_digest_check(tmp_path):
    bench = _bench("table1-cold", tmp_path)
    sweep = bench.sweep()
    assert sweep.ok
    assert run.report_matches(sweep.report, bench.runner.expected)
    corrupted = tmp_path / "corrupted.json"
    data = bytearray(sweep.report.read_bytes())
    data[len(data) // 2] ^= 1
    corrupted.write_bytes(bytes(data))
    assert not run.report_matches(corrupted, bench.runner.expected)
    assert not run.report_matches(tmp_path / "missing.json", bench.runner.expected)


def test_crashing_sweep_is_counted_as_failed(tmp_path, monkeypatch):
    bench = _bench("table1-cold", tmp_path)
    not_a_directory = tmp_path / "store-file"
    not_a_directory.write_text("")
    # The cache cannot create its store under a regular file: the sweep
    # simulates, then raises when it writes its results back.
    monkeypatch.setattr(bench, "fresh_store", lambda: not_a_directory)
    values = bench.end_to_end()
    assert (bench.runner.attempted, bench.runner.failed) == (1, 1)
    assert values["ok_frac"] == [0.0]
    assert values["wall_s"] == []


def test_times_are_scaled_by_the_references_around_the_sweep(tmp_path, monkeypatch):
    bench = _bench("table1-cold", tmp_path)
    # The host runs the reference at half the reference host's speed.
    references = iter([0.5, 0.7])
    monkeypatch.setattr(bench.runner, "reference", lambda: next(references))
    sweeps = []
    real_sweep = bench.sweep
    monkeypatch.setattr(bench, "sweep", lambda: sweeps.append(real_sweep()) or sweeps[-1])
    values = bench.end_to_end()
    (sweep,) = sweeps
    assert values["wall_s"] == [pytest.approx(sweep.wall_s / 2)]
    setup = sweep.marks["expand"] - sweep.marks["exec"]
    assert values["setup_s"] == [pytest.approx(setup / 2)]


def test_timed_out_sweep_is_killed_and_counted(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "SWEEP_TIMEOUT_S", 0.2)
    bench = _bench("table1-cold", tmp_path)
    sweep = bench.sweep()
    assert not sweep.ok
    assert sweep.wall_s < 5
    assert bench.runner.failed == 1


def test_table1_cold_trace_sees_the_simulating_layers(tmp_path):
    bench = _bench("table1-cold", tmp_path)
    bench.prepare()
    sweep = bench.sweep(trace=True)
    assert sweep.ok
    m = run.layer_metrics(run.read_spans(sweep.trace_dir), sweep.pid)
    assert m["plan.jobs"] == m["fastvec.runs"] == m["cache.misses"] == 72
    assert m["codegen.lowerings"] >= m["decode.calls"] > 0
    assert m["analytic.points"] == 0
    layers = m["codegen.s"] + m["decode.s"] + m["fastvec.s"]
    assert layers > m["session.run_s"] / 2


def test_warm_trace_bypasses_codegen_and_simulation(tmp_path):
    bench = _bench("suites-analytic-warm", tmp_path)
    bench.prepare()
    sweep = bench.sweep(trace=True)
    assert sweep.ok
    m = run.layer_metrics(run.read_spans(sweep.trace_dir), sweep.pid)
    assert m["codegen.lowerings"] == m["fastvec.runs"] == m["analytic.points"] == 0
    assert m["cache.hits"] == m["plan.distinct"] == 1544
    assert m["cache.misses"] == 0
    assert m["cache.store_entries"] == store.BACKGROUND_ENTRIES + 1544


def test_refuses_a_directory_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    spec = json.loads((tmp_path / "BENCHMARK.json").read_text())
    result = subprocess.run(
        spec["command"] + ["--workload", "table1-cold", "--seed", "1",
                           "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert result.returncode != 0
    assert result.stdout == ""


@pytest.mark.parametrize("name", sorted(run.WORKLOADS))
def test_every_workload_has_an_expected_digest(name):
    expected = json.loads((HERE / "expected.json").read_text())
    assert len(expected[name]) == 64
