"""Sweep-execution semantics: dedup, memoization, suite totals, batch curves.

The ``SweepRunner.run_*`` shim family is gone; every sweep is a
:class:`repro.runtime.SweepPlan` run by a :class:`repro.runtime.Session`.
These tests pin the execution semantics the shims used to cover — each
distinct point simulates exactly once, suite totals match brute-force
per-layer oracles that bypass the dedup layer, batch curves match
standalone per-batch runs — plus the ``normalized_runtimes`` /
``geometric_mean`` edge cases the grid consumers rely on.
"""

from __future__ import annotations

import pytest

import repro.runtime.plan as plan_module
from repro.cpu.config import CoreConfig
from repro.cpu.result import SimResult
from repro.engine.designs import DESIGNS
from repro.errors import ExperimentError
from repro.experiments.runner import geometric_mean, normalized_runtimes
from repro.runtime import ResultCache, Session, SweepJob, SweepPlan, cached_program
from repro.runtime.registry import FIDELITIES, resolve_backend
from repro.workloads.codegen import generate_gemm_program
from repro.workloads.gemm import GemmShape
from repro.workloads.suites import SuiteSpec, WorkloadSuite

SHAPES = {
    "small": GemmShape(m=64, n=64, k=64, name="small"),
    "tall": GemmShape(m=128, n=32, k=64, name="tall"),
}
DESIGN_KEYS = ("baseline", "rasa-wlbp", "rasa-dmdb-wls")


def _jobs():
    return [
        SweepJob(design_key=key, shape=shape, workload=name)
        for name, shape in SHAPES.items()
        for key in DESIGN_KEYS
    ]


def _run_flat(jobs, **session_kwargs):
    return Session(workers=1, **session_kwargs).run(SweepPlan(jobs=tuple(jobs))).flat()


def _grid(design_keys=DESIGN_KEYS, shapes=None, workers=1):
    plan = SweepPlan(
        designs=tuple(design_keys),
        workloads=tuple((shapes or SHAPES).items()),
    )
    return Session(workers=workers).run(plan).grid()


@pytest.fixture
def counting_fidelity():
    """Register a backend that records every simulation it executes.

    Runs with ``workers=1`` keep execution in-process, so the shared list
    observes exactly how many simulations a sweep performed.
    """
    calls = []

    class CountingBackend:
        def run(self, program):
            calls.append(program.name)
            return SimResult(
                design="counting",
                program=program.name,
                cycles=100 + len(program),
                instructions=len(program),
                mm_count=1,
                bypass_count=0,
                weight_loads=1,
                engine_busy_cycles=10,
                clock_mhz=2000,
            )

    FIDELITIES["counting-test"] = lambda engine, core: CountingBackend()
    try:
        yield calls
    finally:
        del FIDELITIES["counting-test"]


class TestFlatJobPlans:
    def test_serial_results(self):
        results = _run_flat(_jobs())
        assert len(results) == 6
        assert all(isinstance(r, SimResult) for r in results)

    def test_duplicate_jobs_share_one_simulation(self, tmp_path):
        cache = ResultCache(tmp_path)
        job = _jobs()[0]
        results = _run_flat([job, job, job], cache=cache)
        assert results[0] == results[1] == results[2]
        assert len(cache) == 1  # one key, simulated once

    def test_cache_hit_on_second_run(self, tmp_path):
        first = ResultCache(tmp_path)
        cold = _run_flat(_jobs(), cache=first)
        assert (first.hits, first.misses) == (0, 6)

        warm_cache = ResultCache(tmp_path)
        warm = _run_flat(_jobs(), cache=warm_cache)
        assert (warm_cache.hits, warm_cache.misses) == (6, 0)
        assert warm == cold

    def test_fidelity_flows_through(self):
        engine = _run_flat(
            [SweepJob(design_key="rasa-wlbp", shape=SHAPES["small"],
                      fidelity="engine")]
        )[0]
        fast = _run_flat(
            [SweepJob(design_key="rasa-wlbp", shape=SHAPES["small"])]
        )[0]
        assert engine.mm_count == fast.mm_count
        assert engine.cycles < fast.cycles

    def test_job_key_distinguishes_core_config(self):
        a = SweepJob(design_key="baseline", shape=SHAPES["small"])
        b = SweepJob(
            design_key="baseline",
            shape=SHAPES["small"],
            core=CoreConfig(rob_size=224),
        )
        assert a.key != b.key

    def test_grid_matches_flat_jobs(self):
        grid = _grid()
        flat = _run_flat(_jobs())
        by_pair = {
            (job.workload, job.design_key): result
            for job, result in zip(_jobs(), flat)
        }
        for workload, per_design in grid.items():
            for key, result in per_design.items():
                assert result == by_pair[(workload, key)]


class TestDedup:
    """Each distinct (design, dims, config, fidelity) point simulates once."""

    def test_duplicate_jobs_simulate_once_uncached(self, counting_fidelity):
        job = SweepJob(
            design_key="baseline", shape=SHAPES["small"], fidelity="counting-test"
        )
        results = _run_flat([job, job, job])
        assert len(counting_fidelity) == 1
        assert results[0] == results[1] == results[2]

    def test_identically_dimensioned_names_simulate_once(self, counting_fidelity):
        jobs = [
            SweepJob(
                design_key="baseline",
                shape=GemmShape(64, 64, 64, name=f"layer{i}"),
                workload=f"layer{i}",
                fidelity="counting-test",
            )
            for i in range(5)
        ]
        results = _run_flat(jobs)
        assert len(counting_fidelity) == 1
        assert len(set(map(id, results))) == 1

    def test_distinct_dims_still_simulate_separately(self, counting_fidelity):
        jobs = [
            SweepJob(design_key="baseline", shape=shape, fidelity="counting-test")
            for shape in SHAPES.values()
        ]
        _run_flat(jobs)
        assert len(counting_fidelity) == 2

    def test_repeated_keys_count_one_cache_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        job = _jobs()[0]
        _run_flat([job] * 4, cache=cache)
        assert (cache.hits, cache.misses) == (0, 1)

    def test_program_memo_is_name_independent(self):
        from repro.workloads.codegen import CodegenOptions

        codegen = CodegenOptions()
        a = cached_program(GemmShape(64, 64, 64, name="enc0.q"), codegen)
        b = cached_program(GemmShape(64, 64, 64, name="enc7.v"), codegen)
        assert a is b


class TestSuiteTotals:
    SUITE = WorkloadSuite.from_gemms(
        "toy-model",
        {
            "a": GemmShape(64, 64, 64, name="a"),
            "b": GemmShape(64, 64, 64, name="b"),   # duplicate dims of "a"
            "c": GemmShape(128, 32, 64, name="c"),
            "d": GemmShape(64, 64, 64, name="d"),   # duplicate dims of "a"
        },
    )

    @staticmethod
    def _totals(suites, design_keys=DESIGN_KEYS, fidelity="fast"):
        plan = SweepPlan(
            designs=tuple(design_keys), suites=tuple(suites), fidelity=fidelity
        )
        return Session(workers=1).run(plan).suite_totals()

    def test_simulates_distinct_points_only(self, counting_fidelity):
        totals = self._totals([self.SUITE], fidelity="counting-test")["toy-model"]
        assert len(counting_fidelity) == 2 * len(DESIGN_KEYS)
        for totals_one in totals.values():
            assert totals_one.gemm_count == 4
            assert totals_one.simulations == 2
            assert totals_one.dedup_factor == pytest.approx(2.0)

    def test_aggregation_matches_brute_force_per_layer(self):
        """Oracle independence: per-layer runs bypass the dedup layer.

        Every layer simulates directly through ``resolve_backend`` — not
        a session — so a cache-key conflation or a wrong dedup expansion
        cannot leak into both sides of the comparison.
        """
        totals = self._totals([self.SUITE])["toy-model"]
        for key in DESIGN_KEYS:
            per_layer = [
                resolve_backend(key).run(generate_gemm_program(shape))
                for _, shape in self.SUITE.gemms
            ]
            agg = totals[key]
            assert agg.cycles == sum(r.cycles for r in per_layer)
            assert agg.instructions == sum(r.instructions for r in per_layer)
            assert agg.mm_count == sum(r.mm_count for r in per_layer)
            assert agg.bypass_count == sum(r.bypass_count for r in per_layer)
            assert agg.weight_loads == sum(r.weight_loads for r in per_layer)

    def test_normalized_and_speedup(self):
        totals = self._totals([self.SUITE], ["baseline", "rasa-dmdb-wls"])[
            "toy-model"
        ]
        base = totals["baseline"]
        best = totals["rasa-dmdb-wls"]
        assert base.normalized_to(base) == pytest.approx(1.0)
        assert best.normalized_to(base) < 0.25
        assert best.speedup_over(base) > 4.0

    def test_per_shape_counts_cover_the_multiset(self):
        totals = self._totals([self.SUITE], ["baseline"])["toy-model"]
        per_shape = totals["baseline"].per_shape
        assert sum(count for _, count, _ in per_shape) == len(self.SUITE)
        assert [count for _, count, _ in per_shape] == [3, 1]

    def test_multi_suite_plans_dedup_across_suites(self, counting_fidelity):
        other = WorkloadSuite.from_gemms(
            "toy-sibling",
            {
                "x": GemmShape(64, 64, 64, name="x"),    # shared with SUITE
                "y": GemmShape(32, 256, 64, name="y"),   # unique
            },
        )
        totals = self._totals(
            [self.SUITE, other], ["baseline"], fidelity="counting-test"
        )
        # 2 distinct in SUITE + 1 new in other: the shared 64^3 point
        # simulates once for the whole batch.
        assert len(counting_fidelity) == 3
        assert set(totals) == {"toy-model", "toy-sibling"}
        assert totals["toy-sibling"]["baseline"].gemm_count == 2

    def test_duplicate_suite_names_rejected(self):
        with pytest.raises(ExperimentError, match="duplicates: toy-model"):
            self._totals([self.SUITE, self.SUITE], ["baseline"])

    def test_suite_uses_result_cache(self, tmp_path):
        plan = SweepPlan(designs=DESIGN_KEYS, suites=(self.SUITE,))
        cold = ResultCache(tmp_path)
        first = Session(cache=cold, workers=1).run(plan).suite_totals()
        assert (cold.hits, cold.misses) == (0, 2 * len(DESIGN_KEYS))
        warm = ResultCache(tmp_path)
        second = Session(cache=warm, workers=1).run(plan).suite_totals()
        assert (warm.hits, warm.misses) == (2 * len(DESIGN_KEYS), 0)
        assert first == second


class TestKeyHashing:
    """A run hashes each job exactly once (keys are SHA-256 over JSON).

    ``SweepJob.key`` resolves ``cache_key`` through the plan module, so
    that is where the counter hooks in; the session precomputes every key
    and threads them through dedup, the cache, and the report views.
    """

    def test_one_cache_key_call_per_job(self, monkeypatch):
        calls = []
        real = plan_module.cache_key

        def counting(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(plan_module, "cache_key", counting)
        jobs = _jobs() + [_jobs()[0]] * 3  # duplicates still hash once each
        _run_flat(jobs)
        assert len(calls) == len(jobs)

    def test_one_cache_key_call_per_job_with_cache(self, tmp_path, monkeypatch):
        calls = []
        real = plan_module.cache_key

        def counting(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(plan_module, "cache_key", counting)
        jobs = _jobs()
        _run_flat(jobs, cache=ResultCache(tmp_path))
        assert len(calls) == len(jobs)


class TestSweepRunnerIsGone:
    """The deprecated shim family is deleted, not just hidden."""

    def test_runtime_no_longer_exports_sweeprunner(self):
        import repro.runtime as runtime

        assert not hasattr(runtime, "SweepRunner")
        assert "SweepRunner" not in runtime.__all__

    def test_top_level_package_no_longer_exports_sweeprunner(self):
        import repro

        assert not hasattr(repro, "SweepRunner")
        assert "SweepRunner" not in repro.__all__

    def test_shim_module_is_deleted(self):
        with pytest.raises(ImportError):
            import repro.runtime.sweep  # noqa: F401


def _toy_fc_factory(batch):
    batch = batch if batch is not None else 64
    return {
        "fc0": GemmShape(batch, 64, 64, name="fc0"),
        "fc1": GemmShape(batch, 128, 64, name="fc1"),
        "fc2": GemmShape(batch, 64, 64, name="fc2"),  # duplicate dims of fc0
    }


TOY_FC_SPEC = SuiteSpec("toy-fc", "toy FC stack for batch-curve tests",
                        None, _toy_fc_factory)


def _curves(design_keys, spec, batches, fidelity="fast", scale=1, workers=1):
    plan = SweepPlan(
        designs=tuple(design_keys),
        suites=(spec,),
        batches=tuple(batches),
        scale=scale,
        fidelity=fidelity,
    )
    name = spec if isinstance(spec, str) else spec.name
    return Session(workers=workers).run(plan).batch_curves()[name]


class TestSuiteBatchCurves:
    """The Fig. 7 batch axis at suite granularity, dedup across batches."""

    def test_curve_layout(self):
        curves = _curves(DESIGN_KEYS, TOY_FC_SPEC, batches=(16, 64))
        assert set(curves) == set(DESIGN_KEYS)
        for design, curve in curves.items():
            assert curve.suite == "toy-fc"
            assert curve.design_key == design
            assert curve.batches == (16, 64)
            assert all(t.gemm_count == 3 for t in curve.totals)
            assert all(t.simulations == 2 for t in curve.totals)

    def test_sub_tile_batches_simulate_once(self, counting_fidelity):
        """Batches 1..16 pad to one tile row block: identical streams."""
        _curves(["baseline"], TOY_FC_SPEC, batches=(1, 2, 4, 8, 16),
                fidelity="counting-test")
        # 2 distinct (padded) shapes, once each — not 5 batches x 2 shapes.
        assert len(counting_fidelity) == 2

    def test_sub_tile_batches_identical_normalized_runtime(self):
        """The Fig. 7 plateau at suite granularity: one lowered stream."""
        curves = _curves(
            ["baseline", "rasa-dmdb-wls"], TOY_FC_SPEC, batches=(1, 2, 4, 8, 16)
        )
        normalized = curves["rasa-dmdb-wls"].normalized_to(curves["baseline"])
        values = set(normalized.values())
        assert len(values) == 1
        assert 0.0 < values.pop() < 1.0

    def test_matches_per_batch_suite_oracle(self, counting_fidelity):
        """Curve points == standalone per-batch runs, with fewer simulations.

        The oracle rebuilds and runs each batch as its own single-batch
        plan in a fresh session, so the cross-batch dedup cannot leak
        into both sides; totals must agree on every weighted counter.
        """
        batches = (1, 4, 16, 64)
        curves = _curves(
            DESIGN_KEYS, TOY_FC_SPEC, batches=batches, fidelity="counting-test"
        )
        curve_simulations = len(counting_fidelity)
        oracle_simulations = 0
        for batch in batches:
            before = len(counting_fidelity)
            oracle_plan = SweepPlan(
                designs=DESIGN_KEYS,
                suites=(TOY_FC_SPEC.build(batch=batch),),
                fidelity="counting-test",
            )
            oracle = Session(workers=1).run(oracle_plan).suite_totals()["toy-fc"]
            oracle_simulations += len(counting_fidelity) - before
            for design in DESIGN_KEYS:
                point = curves[design].totals_by_batch()[batch]
                assert point.cycles == oracle[design].cycles
                assert point.instructions == oracle[design].instructions
                assert point.mm_count == oracle[design].mm_count
                assert point.bypass_count == oracle[design].bypass_count
                assert point.weight_loads == oracle[design].weight_loads
                assert point.gemm_count == oracle[design].gemm_count
        # Strictly fewer simulations than batches x distinct shapes: the
        # sub-tile batches (1, 4, 16) collapsed onto one padded point.
        assert oracle_simulations == len(batches) * 2 * len(DESIGN_KEYS)
        assert curve_simulations == 2 * 2 * len(DESIGN_KEYS)

    def test_accepts_registered_suite_names(self, counting_fidelity):
        curves = _curves(
            ["baseline"], "dlrm", batches=(64,), fidelity="counting-test", scale=8
        )
        assert curves["baseline"].suite == "dlrm"
        assert curves["baseline"].totals[0].gemm_count == 9

    def test_unknown_suite_name_rejected(self):
        with pytest.raises(ExperimentError, match="unknown workload suite"):
            _curves(["baseline"], "bogus", batches=(1,))

    def test_duplicate_batches_rejected(self):
        with pytest.raises(ExperimentError, match="duplicates: 16"):
            _curves(["baseline"], TOY_FC_SPEC, batches=(16, 64, 16))

    def test_empty_batches_rejected(self):
        with pytest.raises(ExperimentError, match="at least one batch"):
            _curves(["baseline"], TOY_FC_SPEC, batches=())

    @pytest.mark.parametrize("batch", [0, -4, 1.5, "16"])
    def test_non_positive_batches_rejected(self, batch):
        with pytest.raises(ExperimentError, match="positive integers"):
            _curves(["baseline"], TOY_FC_SPEC, batches=(batch,))

    def test_normalize_rejects_mismatched_batch_axes(self):
        a = _curves(["baseline"], TOY_FC_SPEC, batches=(16,))
        b = _curves(["baseline"], TOY_FC_SPEC, batches=(64,))
        with pytest.raises(ExperimentError, match="do not match"):
            a["baseline"].normalized_to(b["baseline"])


class TestZeroCycleGuards:
    """Degenerate zero-cycle/zero-energy aggregates raise, never return 0.0."""

    @staticmethod
    def _totals(cycles, suite="toy-model", design="baseline"):
        from repro.runtime.plan import SuiteTotals

        return SuiteTotals(
            suite=suite, design_key=design, gemm_count=1, simulations=1,
            cycles=cycles, instructions=0, mm_count=0, bypass_count=0,
            weight_loads=0, per_shape=(),
        )

    def test_normalized_to_zero_cycle_baseline_raises(self):
        with pytest.raises(ExperimentError, match="'baseline'.*zero cycles"):
            self._totals(100).normalized_to(self._totals(0))

    def test_speedup_of_zero_cycle_suite_raises(self):
        with pytest.raises(ExperimentError, match="'rasa-wlbp'.*zero cycles"):
            self._totals(0, design="rasa-wlbp").speedup_over(self._totals(100))

    def test_healthy_totals_unaffected(self):
        assert self._totals(50).normalized_to(self._totals(100)) == 0.5
        assert self._totals(50).speedup_over(self._totals(100)) == 2.0


class TestGridEdgeCases:
    def test_normalized_runtimes_empty_grid(self):
        assert normalized_runtimes({}) == {}

    def test_normalized_runtimes_missing_baseline(self):
        grid = _grid(["rasa-wlbp"])
        with pytest.raises(ExperimentError, match="no baseline"):
            normalized_runtimes(grid)

    def test_normalized_runtimes_custom_baseline(self):
        grid = _grid(["rasa-wlbp"])
        table = normalized_runtimes(grid, baseline_key="rasa-wlbp")
        for per_design in table.values():
            assert per_design["rasa-wlbp"] == pytest.approx(1.0)

    def test_geometric_mean_empty(self):
        assert geometric_mean([]) == 0.0

    def test_geometric_mean_values(self):
        assert geometric_mean([2.0, 8.0]) == pytest.approx(4.0)

    def test_full_design_registry_grid(self):
        """Every registered design runs through the session unchanged."""
        grid = _grid(DESIGNS, {"small": SHAPES["small"]})
        normalized = normalized_runtimes(grid)["small"]
        assert normalized["baseline"] == pytest.approx(1.0)
        assert normalized["rasa-dmdb-wls"] < 0.25
