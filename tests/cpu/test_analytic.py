"""Analytic-tier tests: exact counts, bounded cycle error, suite validation.

The contract (see :mod:`repro.cpu.analytic`): counts are *exact* against
the fast model, cycles stay within :data:`ANALYTIC_CYCLE_ERROR_BOUND`
relative error on every validated point.  Empirically the model is exact
on cycles too — the unit tests below assert full :class:`SimResult`
equality, while the suite-level validation asserts only the documented
bound (the conservative contract the docs promise).
"""

from __future__ import annotations

import pytest

from repro.cpu import analytic
from repro.cpu.analytic import ANALYTIC_CYCLE_ERROR_BOUND, AnalyticCoreModel
from repro.cpu.config import CoreConfig
from repro.cpu.fast import FastCoreModel
from repro.cpu.result import SimResult
from repro.engine.designs import DESIGNS, get_design
from repro.errors import ExperimentError
from repro.experiments import ExperimentSettings
from repro.experiments.analytic_validation import (
    EXACT_FIELDS,
    ValidationPoint,
    ValidationReport,
    validate_analytic,
)
from repro.physical.energy import EnergyBreakdown, EnergyModel
from repro.runtime.plan import SweepPlan
from repro.runtime.session import execute_job
from repro.workloads.codegen import CodegenOptions, generate_gemm_program
from repro.workloads.gemm import GemmShape
from repro.workloads.suites import SUITES
from repro.workloads.tiling import BlockingConfig, MMOrder

#: Scaled-down settings: full-size layers shrink 16x per dimension, so the
#: fast-model reference side of each comparison stays test-suite cheap.
FAST_SETTINGS = ExperimentSettings(scale=16)

SQUARE = GemmShape(256, 256, 256, name="square")
TALL = GemmShape(1024, 16, 64, name="tall")  # degenerate bn' = 1 edge column
TINY = GemmShape(16, 16, 32, name="tiny")    # single tile, single K step

ALT_CODEGENS = (
    CodegenOptions(blocking=BlockingConfig(bm=1, bn=3)),
    CodegenOptions(blocking=BlockingConfig(bm=3, bn=1)),
    CodegenOptions(blocking=BlockingConfig(bm=2, bn=2, mm_order=MMOrder.ALTERNATE)),
)


def _fast_reference(design_key: str, shape: GemmShape, codegen: CodegenOptions):
    config = get_design(design_key).config
    return FastCoreModel(engine=config).run(generate_gemm_program(shape, codegen))


class TestAnalyticMatchesFast:
    """Unit-level: the analytic SimResult equals the fast model's, bit for bit."""

    @pytest.mark.parametrize("shape", [SQUARE, TALL, TINY], ids=lambda s: s.name)
    def test_every_design_default_codegen(self, design_key, shape):
        config = get_design(design_key).config
        analytic = AnalyticCoreModel(engine=config).run_shape(shape, CodegenOptions())
        assert analytic == _fast_reference(design_key, shape, CodegenOptions())

    @pytest.mark.parametrize("codegen", ALT_CODEGENS)
    @pytest.mark.parametrize("design", ["baseline", "rasa-dmdb-wls"])
    def test_alternate_blockings(self, design, codegen):
        config = get_design(design).config
        model = AnalyticCoreModel(engine=config)
        for shape in (SQUARE, TALL):
            assert model.run_shape(shape, codegen) == _fast_reference(
                design, shape, codegen
            )

    def test_unnamed_shape_gets_generated_program_name(self):
        config = get_design("baseline").config
        result = AnalyticCoreModel(engine=config).run_shape(
            GemmShape(64, 64, 64), CodegenOptions()
        )
        assert result.program == "gemm_64x64x64"

    def test_energy_matches_fast_pipeline(self):
        config = get_design("rasa-dmdb-wls").config
        analytic, breakdown = AnalyticCoreModel(engine=config).energy(
            SQUARE, CodegenOptions()
        )
        fast = _fast_reference("rasa-dmdb-wls", SQUARE, CodegenOptions())
        assert analytic == fast
        assert isinstance(breakdown, EnergyBreakdown)
        assert breakdown == EnergyModel().run_energy(fast, config)


class TestSuiteValidation:
    """Satellite contract: all 8 designs across the three richest suites."""

    @pytest.mark.parametrize("suite", ["table1", "bert-full", "resnet50-train"])
    def test_suite_within_documented_bound(self, suite):
        report = validate_analytic(suites=(suite,), settings=FAST_SETTINGS)
        # Every catalog design on every distinct shape of the suite.
        assert {p.design_key for p in report.points} == set(DESIGNS)
        assert report.max_cycle_error <= ANALYTIC_CYCLE_ERROR_BOUND
        for point in report.points:
            assert point.counts_exact, (
                f"{point.suite}/{point.design_key}/{point.shape.dims} "
                f"count mismatch: {point.count_mismatches}"
            )
        assert report.ok
        assert "PASS" in report.render()

    def test_empty_sample_rejected(self):
        with pytest.raises(ExperimentError):
            validate_analytic(suites=())


#: The process-wide scheduler-probe memos of :mod:`repro.cpu.analytic`.
PROBE_MEMOS = ("_settled", "_block_profile", "_warmup")


def _clear_probe_memos() -> None:
    for name in PROBE_MEMOS:
        getattr(analytic, name).cache_clear()


def _suite_plan(designs=tuple(DESIGNS), **overrides) -> SweepPlan:
    return SweepPlan(
        designs=designs,
        suites=tuple(SUITES),
        batches=(1, 64, 512),
        fidelity="analytic",
        **overrides,
    )


class TestProbeMemo:
    """The probe memos are keyed on every input that changes a probe.

    A memo keyed on too little hands one point another point's probe, so
    the result depends on which points ran first in the process.
    """

    def test_results_independent_of_order_and_memo_state(self):
        jobs = [
            job
            for plan in (
                _suite_plan(),
                _suite_plan(
                    scale=4,
                    codegen=CodegenOptions(blocking=BlockingConfig(
                        bm=2, bn=2, mm_order=MMOrder.ALTERNATE
                    )),
                ),
                _suite_plan(scale=4, core=CoreConfig(load_ports=1, l1_latency=9)),
            )
            for job in plan.owned_jobs().values()
        ]
        _clear_probe_memos()
        forward = [execute_job(job) for job in jobs]
        _clear_probe_memos()
        backward = [execute_job(job) for job in reversed(jobs)][::-1]
        cold = []
        for job in jobs:
            _clear_probe_memos()
            cold.append(execute_job(job))
        assert forward == cold
        assert backward == cold

    def test_one_probe_per_distinct_key(self, monkeypatch):
        """A one-design sweep misses each memo once per distinct key."""
        memos = {name: getattr(analytic, name) for name in PROBE_MEMOS}
        requested = {name: set() for name in PROBE_MEMOS}
        _clear_probe_memos()
        for name, memo in memos.items():

            def spy(*args, _memo=memo, _keys=requested[name]):
                _keys.add(args)
                return _memo(*args)

            monkeypatch.setattr(analytic, name, spy)
        jobs = _suite_plan(designs=("rasa-dmdb-wls",)).owned_jobs()
        for job in jobs.values():
            execute_job(job)
        for name, memo in memos.items():
            assert memo.cache_info().misses == len(requested[name]), name
        # Hundreds of points share about a dozen probes per memo.
        assert len(jobs) > 100
        assert all(len(keys) <= 16 for keys in requested.values())


def _result(cycles: int, mm_count: int = 4) -> SimResult:
    return SimResult(
        design="d",
        program="p",
        cycles=cycles,
        instructions=10,
        mm_count=mm_count,
        bypass_count=1,
        weight_loads=2,
        engine_busy_cycles=5,
        clock_mhz=2000,
    )


class TestReportMechanics:
    """The report's arithmetic, without running any simulator."""

    def test_cycle_error_and_count_mismatch(self):
        point = ValidationPoint(
            suite="s",
            design_key="d",
            shape=TINY,
            fast=_result(1000),
            analytic=_result(1030, mm_count=5),
        )
        assert point.cycle_error == pytest.approx(0.03)
        assert point.count_mismatches == ("mm_count",)
        assert not point.counts_exact
        assert "mm_count" in EXACT_FIELDS

    def test_report_fails_above_bound(self):
        good = ValidationPoint("s", "d", TINY, _result(1000), _result(1001))
        report = ValidationReport(points=(good,), bound=0.0001)
        assert report.max_cycle_error == pytest.approx(0.001)
        assert report.worst is good
        assert not report.ok
        assert "FAIL" in report.render()

    def test_exact_report_passes(self):
        point = ValidationPoint("s", "d", TINY, _result(1000), _result(1000))
        report = ValidationReport(points=(point,), bound=ANALYTIC_CYCLE_ERROR_BOUND)
        assert report.ok
        assert report.count_violations == ()
