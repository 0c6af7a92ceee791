"""Tests for the E16 per-model batch curves (Fig. 7 at suite granularity)."""

from __future__ import annotations

import pytest

from repro.errors import ExperimentError
from repro.experiments.batch_sweep import ASYMPTOTE
from repro.experiments.runner import ExperimentSettings
from repro.experiments.suite_batch_sweep import (
    DEFAULT_CURVE_SUITES,
    suite_batch_sweep,
)
from repro.runtime import Session, SweepPlan
from repro.workloads.suites import get_suite

SETTINGS = ExperimentSettings(scale=16)
BATCHES = (1, 4, 16, 64, 256, 1024)


@pytest.fixture(scope="module")
def sweep():
    return suite_batch_sweep(
        SETTINGS,
        suites=("bert-base", "dlrm"),
        batches=BATCHES,
        session=Session(workers=1),
    )


class TestSuiteBatchSweep:
    def test_series_layout(self, sweep):
        series = sweep.series()
        assert set(series) == {"bert-base", "dlrm"}
        for per_batch in series.values():
            assert set(per_batch) == set(BATCHES)

    def test_runtime_non_increasing_with_batch(self, sweep):
        for name, per_batch in sweep.series().items():
            values = [per_batch[b] for b in BATCHES]
            assert values == sorted(values, reverse=True), name
            assert values[-1] < values[0], name

    def test_scaled_plateau_is_flat(self, sweep):
        """Batches below the scaled one-block floor share one stream."""
        for name, per_batch in sweep.series().items():
            floor = [per_batch[b] for b in (1, 4, 16)]  # all m = 32 at /16
            assert max(floor) - min(floor) < 1e-12, name

    def test_approaches_paper_asymptote(self, sweep):
        for name, per_batch in sweep.series().items():
            assert per_batch[1024] == pytest.approx(ASYMPTOTE, abs=0.05), name
            assert per_batch[1024] > ASYMPTOTE - 0.01, name

    def test_cross_batch_dedup_counted(self, sweep):
        assert 0 < sweep.simulated_points < sweep.expanded_points

    def test_point_counts_come_from_the_plan(self, sweep):
        plan = SweepPlan(
            designs=("baseline", sweep.design_key),
            suites=("bert-base", "dlrm"),
            batches=BATCHES,
            scale=SETTINGS.scale,
            core=SETTINGS.core,
            codegen=SETTINGS.codegen,
        )
        assert sweep.simulated_points == len(plan.distinct_keys())
        assert sweep.expanded_points == plan.job_count()
        # Independent recount: tile-padded dims across suites and batches.
        padded, expanded = set(), 0
        for name in ("bert-base", "dlrm"):
            for batch in BATCHES:
                entries = get_suite(name, batch=batch, scale=SETTINGS.scale).distinct()
                expanded += len(entries)
                padded.update(entry.shape.tile_padded().dims for entry in entries)
        assert sweep.simulated_points == 2 * len(padded)
        assert sweep.expanded_points == 2 * expanded

    def test_matches_per_batch_suite_plan_oracle(self, sweep):
        """Every curve point equals a standalone single-batch suite plan."""
        session = Session(workers=1)
        for batch in (1, 64, 1024):
            totals = session.run(
                SweepPlan(
                    designs=("baseline", sweep.design_key),
                    suites=("bert-base", "dlrm"),
                    batch=batch,
                    scale=SETTINGS.scale,
                    core=SETTINGS.core,
                    codegen=SETTINGS.codegen,
                )
            ).suite_totals()
            for name in ("bert-base", "dlrm"):
                oracle = totals[name][sweep.design_key].normalized_to(
                    totals[name]["baseline"]
                )
                assert sweep.series()[name][batch] == oracle, (name, batch)

    def test_render(self, sweep):
        text = sweep.render()
        assert "E16" in text
        assert "0.168" in text
        assert "bert-base" in text and "dlrm" in text
        assert "cross-batch dedup" in text

    def test_baseline_design_key_rejected(self):
        with pytest.raises(ExperimentError, match="baseline"):
            suite_batch_sweep(
                SETTINGS, design_key="baseline", session=Session(workers=1)
            )

    def test_default_suites_are_fc_shaped(self):
        assert "resnet50" not in DEFAULT_CURVE_SUITES
        assert "bert-base" in DEFAULT_CURVE_SUITES
