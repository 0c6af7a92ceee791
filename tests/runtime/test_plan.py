"""SweepPlan semantics: validation, expansion, JSON round-trip, sharding."""

from __future__ import annotations

import json

import pytest

from repro.errors import ConfigError, ExperimentError
from repro.runtime import Session, SweepJob, SweepPlan, SweepReport
from repro.workloads.codegen import CodegenOptions
from repro.workloads.gemm import GemmShape
from repro.workloads.suites import SuiteSpec, WorkloadSuite
from repro.workloads.tiling import BlockingConfig, MMOrder

SMALL = GemmShape(64, 64, 64, name="small")
TALL = GemmShape(128, 32, 64, name="tall")

INLINE_SUITE = WorkloadSuite.from_gemms(
    "toy-model",
    {
        "a": GemmShape(64, 64, 64, name="a"),
        "b": GemmShape(64, 64, 64, name="b"),
        "c": GemmShape(128, 32, 64, name="c"),
    },
)


def grid_plan(**overrides) -> SweepPlan:
    kwargs = dict(
        designs=("baseline", "rasa-dmdb-wls"),
        workloads=(("small", SMALL), ("tall", TALL)),
    )
    kwargs.update(overrides)
    return SweepPlan(**kwargs)


def suite_plan(**overrides) -> SweepPlan:
    kwargs = dict(designs=("baseline", "rasa-wlbp"), suites=("dlrm",), scale=8)
    kwargs.update(overrides)
    return SweepPlan(**kwargs)


class TestValidation:
    def test_no_work_rejected(self):
        with pytest.raises(ExperimentError, match="declares no work"):
            SweepPlan(designs=("baseline",))

    def test_workloads_without_designs_rejected(self):
        with pytest.raises(ExperimentError, match="at least one design"):
            SweepPlan(workloads=(("small", SMALL),))

    def test_jobs_only_plan_needs_no_designs(self):
        plan = SweepPlan(jobs=(SweepJob(design_key="baseline", shape=SMALL),))
        assert plan.job_count() == 1

    def test_prebuilt_jobs_validate_their_design_keys(self):
        with pytest.raises(ConfigError, match="unknown design"):
            SweepPlan(jobs=(SweepJob(design_key="nope", shape=SMALL),))

    def test_unknown_design_rejected(self):
        with pytest.raises(ConfigError, match="unknown design"):
            grid_plan(designs=("baseline", "bogus"))

    def test_duplicate_designs_rejected(self):
        with pytest.raises(ExperimentError, match="duplicates: baseline"):
            grid_plan(designs=("baseline", "baseline"))

    def test_duplicate_workload_names_rejected(self):
        with pytest.raises(ExperimentError, match="duplicates: small"):
            grid_plan(workloads=(("small", SMALL), ("small", TALL)))

    def test_unknown_suite_rejected(self):
        with pytest.raises(ExperimentError, match="unknown workload suite"):
            suite_plan(suites=("bogus",))

    def test_duplicate_suite_names_rejected(self):
        with pytest.raises(ExperimentError, match="duplicates: toy-model"):
            SweepPlan(
                designs=("baseline",), suites=(INLINE_SUITE, INLINE_SUITE)
            )

    def test_batch_and_batches_mutually_exclusive(self):
        with pytest.raises(ExperimentError, match="mutually exclusive"):
            suite_plan(batch=64, batches=(1, 2))

    def test_batch_without_suites_rejected(self):
        with pytest.raises(ExperimentError, match="apply to suite workloads"):
            grid_plan(batch=64)

    def test_batches_reject_inline_suites(self):
        with pytest.raises(ExperimentError, match="cannot be rebatched"):
            SweepPlan(
                designs=("baseline",), suites=(INLINE_SUITE,), batches=(1, 2)
            )

    @pytest.mark.parametrize("batches,match", [
        ((), "at least one batch"),
        ((0,), "positive integers"),
        ((16, 16), "duplicates: 16"),
    ])
    def test_bad_batch_axes_rejected(self, batches, match):
        with pytest.raises(ExperimentError, match=match):
            suite_plan(batches=batches)

    @pytest.mark.parametrize("scale", [0, -1, 1.5, "4"])
    def test_bad_scale_rejected(self, scale):
        with pytest.raises(ExperimentError, match="scale"):
            suite_plan(scale=scale)

    @pytest.mark.parametrize("knob", ["scale_batch", "scale_spatial"])
    @pytest.mark.parametrize("value", [0, -1, 1.5, "4"])
    def test_bad_role_knobs_rejected(self, knob, value):
        with pytest.raises(ExperimentError, match=knob):
            suite_plan(**{knob: value})

    @pytest.mark.parametrize("knob", ["scale_batch", "scale_spatial"])
    def test_role_knobs_without_suites_rejected(self, knob):
        with pytest.raises(ExperimentError, match="suite workloads only"):
            grid_plan(**{knob: 4})

    @pytest.mark.parametrize("knob", ["scale_batch", "scale_spatial"])
    def test_role_knobs_reject_inline_suites(self, knob):
        with pytest.raises(ExperimentError, match="already lowered"):
            SweepPlan(
                designs=("baseline",), suites=(INLINE_SUITE,), **{knob: 4}
            )

    @pytest.mark.parametrize("knob", ["scale_batch", "scale_spatial"])
    def test_role_knobs_reject_pre_lowered_specs_eagerly(self, knob):
        """A shape-mapping SuiteSpec fails at construction, not mid-run."""
        adhoc = SuiteSpec(
            "adhoc", "pre-lowered", None, lambda batch: {"x": SMALL}
        )
        with pytest.raises(ExperimentError, match="already lowered"):
            SweepPlan(designs=("baseline",), suites=(adhoc,), **{knob: 4})

    def test_workloads_mapping_normalizes_to_items(self):
        assert grid_plan(workloads={"small": SMALL, "tall": TALL}) == grid_plan()


class TestRoleAwareLowering:
    """scale_batch/scale_spatial thread from the plan into suite lowering."""

    def test_scale_spatial_shrinks_conv_suite_rows_only(self):
        plain = suite_plan(suites=("resnet50",), scale=1)
        shrunk = suite_plan(suites=("resnet50",), scale=1, scale_spatial=16)
        plain_suite = plain.built_suites()[0][0]
        shrunk_suite = shrunk.built_suites()[0][0]
        for (label, a), (_, b) in zip(plain_suite.gemms, shrunk_suite.gemms):
            assert b.n == a.n and b.k == a.k
            assert b.m < a.m

    def test_scale_batch_reduces_distinct_key_count_not_identity(self):
        """Knobs change *which* shapes lower, tracked by the cache keys."""
        a = suite_plan(scale_batch=8)
        b = suite_plan()
        assert a.distinct_keys() != b.distinct_keys()

    def test_lowering_config_roundtrips_through_json(self):
        plan = suite_plan(suites=("resnet50",), scale_batch=8, scale_spatial=4)
        decoded = SweepPlan.from_json(plan.to_json())
        assert decoded == plan
        assert decoded.lowering_config().scale_batch == 8
        assert decoded.lowering_config().scale_spatial == 4
        assert decoded.distinct_keys() == plan.distinct_keys()

    def test_pre_knob_plan_json_still_decodes(self):
        """Plan documents written before the op IR lack the knob fields."""
        raw = json.loads(suite_plan().to_json())
        del raw["plan"]["scale_batch"]
        del raw["plan"]["scale_spatial"]
        decoded = SweepPlan.from_json(json.dumps(raw))
        assert decoded.scale_batch == 1 and decoded.scale_spatial == 1
        assert decoded == suite_plan()

    def test_knobbed_batch_axis_curves_execute(self):
        plan = suite_plan(
            suites=("resnet50-train",), scale=16, batches=(1, 4),
            scale_batch=8, scale_spatial=8,
        )
        report = Session(workers=1).run(plan)
        curves = report.batch_curves()["resnet50-train"]
        for curve in curves.values():
            assert curve.batches == (1, 4)
            assert all(t.gemm_count == 159 for t in curve.totals)

    def test_sharded_knobbed_plan_merges_bit_identically(self):
        plan = suite_plan(
            suites=("resnet50-train",), scale=16, scale_batch=8, scale_spatial=8
        )
        full = Session(workers=1).run(plan)
        merged = Session(workers=1).run(plan.shard(0, 2)).merge(
            Session(workers=1).run(plan.shard(1, 2))
        )
        assert merged == full
        assert merged.to_json() == full.to_json()


class TestExpansion:
    def test_grid_job_order_is_workload_major(self):
        jobs = list(grid_plan().iter_jobs())
        assert [(j.workload, j.design_key) for j in jobs] == [
            ("small", "baseline"), ("small", "rasa-dmdb-wls"),
            ("tall", "baseline"), ("tall", "rasa-dmdb-wls"),
        ]

    def test_suite_jobs_expand_distinct_entries_only(self):
        plan = SweepPlan(designs=("baseline",), suites=(INLINE_SUITE,))
        jobs = list(plan.iter_jobs())
        assert len(jobs) == 2  # 3 GEMMs, 2 distinct dims
        assert [j.shape.dims for j in jobs] == [(64, 64, 64), (128, 32, 64)]

    def test_batch_axis_labels_jobs_per_batch(self):
        plan = suite_plan(batches=(1, 64))
        labels = {j.workload for j in plan.iter_jobs()}
        assert any(label.endswith("@b1") for label in labels)
        assert any(label.endswith("@b64") for label in labels)

    def test_distinct_keys_dedup_sub_tile_batches(self):
        collapsed = suite_plan(batches=(1, 2, 4))   # all below one tile block
        spread = suite_plan(batches=(1, 512))
        assert len(collapsed.distinct_keys()) < len(spread.distinct_keys())

    def test_lazy_expansion_runs_nothing(self):
        # Construction + key expansion must not need any backend: an
        # unknown *fidelity* (resolved only at execution time) is fine.
        plan = grid_plan(fidelity="registered-later")
        assert len(plan.distinct_keys()) == 4

    def test_scale_applies_to_named_workloads(self):
        # The plan serializes the unscaled declaration; expansion shrinks
        # workload shapes with the usual GemmShape.scaled floors.
        jobs = list(grid_plan(workloads={"big": GemmShape(512, 512, 512)},
                              scale=4).iter_jobs())
        assert {j.shape.dims for j in jobs} == {(128, 128, 128)}
        unscaled = list(grid_plan(
            workloads={"big": GemmShape(512, 512, 512)}
        ).iter_jobs())
        assert {j.shape.dims for j in unscaled} == {(512, 512, 512)}

    def test_job_keys_hash_once_and_memoize(self):
        plan = grid_plan()
        assert plan.expanded_jobs() is plan.expanded_jobs()
        assert plan.job_keys() is plan.job_keys()
        assert plan.distinct_keys() is plan.distinct_keys()
        assert plan.job_count() == len(plan.job_keys())
        assert list(plan.iter_jobs()) == list(plan.expanded_jobs())

    def test_built_suites_memoize(self):
        plan = suite_plan(batches=(1, 64))
        assert plan.built_suites() is plan.built_suites()

    def test_registered_suite_spec_normalizes_to_its_name(self):
        from repro.workloads.suites import SUITES

        by_spec = SweepPlan(designs=("baseline",), suites=(SUITES["dlrm"],))
        by_name = SweepPlan(designs=("baseline",), suites=("dlrm",))
        assert by_spec == by_name
        assert SweepPlan.from_json(by_spec.to_json()) == by_spec

    def test_empty_inline_suite_rejected(self):
        # WorkloadSuite.from_gemms rejects {}, but decoded/hand-built
        # suites can bypass it; the plan must not declare zero points.
        empty = WorkloadSuite(name="hollow", gemms=())
        with pytest.raises(ExperimentError, match="'hollow' has no GEMMs"):
            SweepPlan(designs=("baseline",), suites=(empty,))

    def test_empty_inline_suite_rejected_from_json(self):
        import json as jsonlib

        text = SweepPlan(
            designs=("baseline",), suites=(INLINE_SUITE,)
        ).to_json()
        payload = jsonlib.loads(text)
        payload["plan"]["suites"][0]["inline"]["gemms"] = []
        with pytest.raises(ExperimentError, match="has no GEMMs"):
            SweepPlan.from_json(jsonlib.dumps(payload))


class TestJsonRoundTrip:
    @pytest.mark.parametrize("plan_factory", [
        grid_plan,
        suite_plan,
        lambda: suite_plan(batches=(1, 16, 256)),
        lambda: suite_plan(batch=64),
        lambda: SweepPlan(designs=("baseline",), suites=(INLINE_SUITE,)),
        lambda: SweepPlan(jobs=(
            SweepJob(design_key="baseline", shape=SMALL, workload="j0"),
            SweepJob(design_key="rasa-wlbp", shape=TALL, fidelity="engine"),
        )),
        lambda: grid_plan(
            codegen=CodegenOptions(
                blocking=BlockingConfig(bm=1, bn=2, mm_order=MMOrder.ALTERNATE),
                scalar_overhead_per_kstep=5,
            ),
            fidelity="ooo",
        ),
        lambda: grid_plan().shard(1, 3),
    ])
    def test_round_trip_equality(self, plan_factory):
        plan = plan_factory()
        assert SweepPlan.from_json(plan.to_json()) == plan

    def test_canonical_json_is_compact_and_sorted(self):
        text = grid_plan().to_json()
        assert ": " not in text and ", " not in text
        keys = list(json.loads(text)["plan"])
        assert keys == sorted(keys)

    def test_round_trip_preserves_distinct_keys(self):
        plan = suite_plan(batches=(1, 64))
        assert SweepPlan.from_json(plan.to_json()).distinct_keys() == \
            plan.distinct_keys()

    def test_ad_hoc_suite_spec_does_not_serialize(self):
        spec = SuiteSpec("adhoc", "test", None,
                         lambda batch: {"x": GemmShape(64, 64, 64)})
        plan = SweepPlan(designs=("baseline",), suites=(spec,))
        with pytest.raises(ExperimentError, match="cannot.*serialize|serialize"):
            plan.to_json()

    def test_malformed_json_rejected(self):
        with pytest.raises(ExperimentError, match="malformed plan JSON"):
            SweepPlan.from_json("{not json")
        with pytest.raises(ExperimentError, match="not a format"):
            SweepPlan.from_json('{"format": 99, "plan": {}}')


class TestSharding:
    def test_partition_is_disjoint_and_exhaustive(self):
        plan = suite_plan(batches=(1, 64, 512))
        full = set(plan.distinct_keys())
        shards = [set(plan.shard(i, 3).shard_keys()) for i in range(3)]
        assert set().union(*shards) == full
        assert sum(len(s) for s in shards) == len(full)  # pairwise disjoint

    def test_partition_is_deterministic(self):
        a = suite_plan(batches=(1, 64)).shard(0, 2).shard_keys()
        b = suite_plan(batches=(1, 64)).shard(0, 2).shard_keys()
        assert a == b

    def test_partition_is_balanced_by_construction(self):
        plan = suite_plan()
        sizes = [len(plan.shard(i, 4).shard_keys()) for i in range(4)]
        assert max(sizes) - min(sizes) <= 1

    def test_single_shard_owns_everything(self):
        plan = grid_plan()
        assert set(plan.shard(0, 1).shard_keys()) == set(plan.distinct_keys())

    def test_shard_of_shard_rejected(self):
        with pytest.raises(ExperimentError, match="already shard 0/2"):
            grid_plan().shard(0, 2).shard(0, 2)

    @pytest.mark.parametrize("index,count", [(2, 2), (-1, 2), (0, 0)])
    def test_out_of_range_shard_rejected(self, index, count):
        with pytest.raises(ExperimentError, match="shard index"):
            grid_plan().shard(index, count)

    def test_unsharded_strips_the_annotation(self):
        plan = grid_plan()
        assert plan.shard(1, 2).unsharded() == plan


class TestOwnedJobs:
    def test_unsharded_holds_the_first_job_per_distinct_key(self):
        plan = suite_plan(batches=(1, 2, 64))
        owned = plan.owned_jobs()
        assert tuple(owned) == plan.distinct_keys()
        first = {}
        for key, job in zip(plan.job_keys(), plan.expanded_jobs()):
            first.setdefault(key, job)
        for key, job in owned.items():
            assert job is first[key]

    def test_first_occurrence_wins_over_later_labels(self):
        subtile = GemmShape(60, 64, 64, name="subtile")  # pads onto SMALL
        plan = grid_plan(workloads=(("small", SMALL), ("subtile", subtile)))
        owned = plan.owned_jobs()
        assert len(owned) == 2  # one padded program x two designs
        assert {job.workload for job in owned.values()} == {"small"}

    def test_shards_partition_the_unsharded_mapping(self):
        plan = suite_plan(batches=(1, 64, 512))
        whole = plan.owned_jobs()
        shards = [plan.shard(i, 3) for i in range(3)]
        merged = {}
        for shard in shards:
            part = shard.owned_jobs()
            assert tuple(part) == shard.shard_keys()
            merged.update(part)
        assert sum(len(shard.owned_jobs()) for shard in shards) == len(whole)
        assert merged == whole

    def test_memoized_per_plan_instance(self):
        plan = grid_plan()
        assert plan.owned_jobs() is plan.owned_jobs()


class TestReportViews:
    @pytest.fixture(scope="class")
    def session(self):
        return Session(workers=1)

    def test_partial_report_refuses_views(self, session):
        report = session.run(grid_plan().shard(0, 2))
        with pytest.raises(ExperimentError, match="merge all 2 shard"):
            report.grid()
        with pytest.raises(ExperimentError, match="merge all 2 shard"):
            report.flat()

    def test_suite_totals_on_batch_plan_redirects(self, session):
        report = session.run(suite_plan(batches=(1, 64)))
        with pytest.raises(ExperimentError, match="batch_curves"):
            report.suite_totals()

    def test_batch_curves_on_plain_plan_redirects(self, session):
        report = session.run(suite_plan())
        with pytest.raises(ExperimentError, match="suite_totals"):
            report.batch_curves()

    def test_point_access(self, session):
        report = session.run(grid_plan())
        result = report.point("baseline", SMALL)
        assert result.cycles == report.grid()["small"]["baseline"].cycles
        with pytest.raises(ExperimentError, match="no result"):
            report.point("baseline", GemmShape(512, 512, 512))

    def test_point_resolves_declared_shapes_on_scaled_plans(self, session):
        big = GemmShape(512, 512, 512, name="big")
        report = session.run(grid_plan(workloads={"big": big}, scale=4))
        # The declared (unscaled) shape resolves; point() applies the
        # plan's scale exactly as expansion does.
        assert report.point("baseline", big) == \
            report.grid()["big"]["baseline"]

    def test_flat_aligns_with_iter_jobs(self, session):
        plan = grid_plan()
        flat = session.run(plan).flat()
        grid = session.run(plan).grid()
        jobs = list(plan.iter_jobs())
        for job, result in zip(jobs, flat):
            assert grid[job.workload][job.design_key] == result

    def test_report_json_round_trip(self, session):
        report = session.run(suite_plan())
        loaded = SweepReport.from_json(report.to_json())
        assert loaded == report
        assert loaded.suite_totals() == report.suite_totals()


class TestMerging:
    @pytest.fixture(scope="class")
    def session(self):
        return Session(workers=1)

    def test_merge_requires_same_plan(self, session):
        a = session.run(grid_plan().shard(0, 2))
        b = session.run(suite_plan().shard(1, 2))
        with pytest.raises(ExperimentError, match="different plans"):
            a.merge(b)

    def test_merge_requires_every_shard(self, session):
        plan = suite_plan()
        a = session.run(plan.shard(0, 3))
        b = session.run(plan.shard(1, 3))
        with pytest.raises(ExperimentError, match="missing"):
            a.merge(b)

    def test_merge_rejects_disagreeing_results(self, session):
        import dataclasses as dc

        plan = grid_plan()
        full = session.run(plan)
        key = next(iter(full.results))
        tampered = SweepReport(
            plan=plan,
            results={
                k: (dc.replace(r, cycles=r.cycles + 1) if k == key else r)
                for k, r in full.results.items()
            },
        )
        with pytest.raises(ExperimentError, match="disagree"):
            full.merge(tampered)
