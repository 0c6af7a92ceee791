"""``Session.bounds``: per-point static bound reports for a sweep plan.

The sharding contract mirrors ``Session.run``: every shard computes bounds
only for the keys it owns, and merging the shard sweeps reproduces the
unsharded sweep *bit-identically* — same keys, same frozen reports.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.analysis import bounds as bounds_analysis
from repro.analysis.bounds import BoundsSweep
from repro.errors import ExperimentError
from repro.runtime import Session, SweepPlan
from repro.workloads.gemm import GemmShape

SMALL = GemmShape(64, 64, 64, name="small")
SUBTILE = GemmShape(60, 64, 64, name="subtile")  # pads onto SMALL's program
TALL = GemmShape(128, 32, 64, name="tall")


def plan(**overrides) -> SweepPlan:
    kwargs = dict(
        designs=("baseline", "rasa-dmdb-wls"),
        workloads=(("small", SMALL), ("subtile", SUBTILE), ("tall", TALL)),
    )
    kwargs.update(overrides)
    return SweepPlan(**kwargs)


def test_reports_cover_every_distinct_job():
    sweep = Session(workers=1).bounds(plan())
    full = plan()
    assert set(sweep.reports) == set(full.job_keys())
    for key, job in zip(full.job_keys(), full.expanded_jobs()):
        assert sweep.reports[key].design_key == job.design_key


def test_shards_merge_bit_identically_to_unsharded():
    session = Session(workers=1)
    whole = session.bounds(plan())
    merged = Session(workers=1).bounds(plan().shard(0, 2)).merge(
        Session(workers=1).bounds(plan().shard(1, 2))
    )
    assert merged == whole


def test_shards_partition_the_keys():
    session = Session(workers=1)
    a = session.bounds(plan().shard(0, 2))
    b = session.bounds(plan().shard(1, 2))
    assert not set(a.reports) & set(b.reports)
    # Overlap with *equal* reports is idempotent; disagreement is an error.
    assert a.merge(a) == a
    key = next(iter(a.reports))
    doctored = BoundsSweep(reports={
        key: dataclasses.replace(a.reports[key], lower_bound=-1)
    })
    with pytest.raises(ExperimentError):
        a.merge(doctored)


@pytest.mark.parametrize("index", [0, 1, 2])
def test_shard_reports_cover_exactly_the_owned_jobs(index):
    shard = plan().shard(index, 3)
    sweep = Session(workers=1).bounds(shard)
    assert list(sweep.reports) == list(shard.owned_jobs())


def test_bounds_memoize_per_distinct_program(monkeypatch):
    calls = []
    real = bounds_analysis.bound_program

    def counting(program, design_key, core=None):
        calls.append(design_key)
        return real(program, design_key, core=core)

    monkeypatch.setattr(bounds_analysis, "bound_program", counting)
    session = Session(workers=1)
    session.bounds(plan())
    # SMALL and SUBTILE share one padded program -> 2 programs x 2 designs.
    assert len(calls) == 4
    session.bounds(plan())
    assert len(calls) == 4  # memoized across calls of the same session


def test_bound_against_achieved_cycles():
    session = Session(workers=1)
    p = plan(fidelity="fast")
    sweep = session.bounds(p)
    report = session.run(p)
    for key, result in report.results.items():
        static = sweep.reports[key]
        assert static.lower_bound <= result.cycles <= static.upper_bound, key
