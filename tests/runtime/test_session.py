"""Session tests: plan execution, crash-safe caching, sharded runs."""

from __future__ import annotations

import pytest

from repro.cpu.result import SimResult
from repro.engine.designs import DESIGNS
from repro.errors import ExperimentError, SimError
from repro.runtime import ResultCache, Session, SweepPlan
from repro.runtime.registry import FIDELITIES, resolve_backend
from repro.runtime.session import cached_program
from repro.workloads.codegen import CodegenOptions, generate_gemm_program
from repro.workloads.gemm import GemmShape
from repro.workloads.suites import get_suite

SMALL = GemmShape(64, 64, 64, name="small")
TALL = GemmShape(128, 32, 64, name="tall")
WIDE = GemmShape(32, 256, 64, name="wide")
#: 6 x 2 x 2 = 24 rasa_mm tiles — a count no other test shape shares, so
#: the poison backend can single it out from the lowered program alone.
POISON = GemmShape(96, 32, 64, name="poison")


def grid_plan(designs=("baseline", "rasa-dmdb-wls"), **overrides) -> SweepPlan:
    kwargs = dict(
        designs=designs,
        workloads=(("small", SMALL), ("tall", TALL)),
    )
    kwargs.update(overrides)
    return SweepPlan(**kwargs)


@pytest.fixture
def poison_fidelity():
    """A backend that simulates normally but crashes on one program.

    The poisoned program is POISON's (identified by its mm tile count), so
    a plan can interleave healthy and fatal jobs to prove which results
    survive a mid-sweep crash.
    """
    class PoisonBackend:
        def __init__(self):
            self._program = None

        def prepare(self, program):
            self._program = program
            return self

        def run(self):
            mm = sum(1 for i in self._program if i.opcode.name == "RASA_MM")
            if mm == POISON.mm_count:
                raise SimError("poisoned job crashed mid-sweep")
            return SimResult(
                design="poison",
                program=self._program.name,
                cycles=1000 + mm,
                instructions=len(self._program),
                mm_count=mm,
                bypass_count=0,
                weight_loads=mm,
                engine_busy_cycles=10,
                clock_mhz=2000,
            )

    FIDELITIES["poison-test"] = lambda engine, core, functional: PoisonBackend()
    try:
        yield
    finally:
        del FIDELITIES["poison-test"]


class TestSessionRun:
    def test_matches_direct_backend_execution(self):
        report = Session(workers=1).run(grid_plan())
        grid = report.grid()
        for name, shape in (("small", SMALL), ("tall", TALL)):
            for design in ("baseline", "rasa-dmdb-wls"):
                # The session lowers the *unlabeled* shape (program memo
                # identity); timing must match the labeled direct run.
                direct = resolve_backend(design).simulate(
                    generate_gemm_program(shape.unlabeled())
                )
                assert grid[name][design] == direct

    def test_parallel_matches_serial_bit_identical(self):
        serial = Session(workers=1).run(grid_plan())
        parallel = Session(workers=2).run(grid_plan())
        assert serial == parallel

    def test_cache_round_trip(self, tmp_path):
        cold_cache = ResultCache(tmp_path)
        cold = Session(cache=cold_cache, workers=1).run(grid_plan())
        assert (cold.simulated, cold.cache_hits) == (4, 0)
        warm_cache = ResultCache(tmp_path)
        warm = Session(cache=warm_cache, workers=1).run(grid_plan())
        assert (warm.simulated, warm.cache_hits) == (0, 4)
        assert warm == cold

    def test_session_from_env_no_cache(self, monkeypatch):
        monkeypatch.setenv("REPRO_NO_CACHE", "1")
        assert Session.from_env().cache is None

    def test_session_from_env_cache_dir(self, monkeypatch, tmp_path):
        monkeypatch.delenv("REPRO_NO_CACHE", raising=False)
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        session = Session.from_env()
        assert session.cache is not None
        assert session.cache.directory == tmp_path

    @pytest.mark.parametrize("workers", [0, -3, 2.5, "4"])
    def test_bad_worker_counts_rejected(self, workers):
        with pytest.raises(ExperimentError, match="workers"):
            Session(workers=workers)


class TestCrashSafeCaching:
    """Results completed before a worker crash persist (try/finally flush)."""

    def test_completed_results_survive_a_poisoned_job(
        self, tmp_path, poison_fidelity
    ):
        # Job order is plan order: small (healthy) runs before the poison.
        plan = grid_plan(
            designs=("baseline",),
            workloads=(("small", SMALL), ("poison", POISON)),
            fidelity="poison-test",
        )
        cache = ResultCache(tmp_path)
        with pytest.raises(SimError, match="poisoned job"):
            Session(cache=cache, workers=1).run(plan)
        # The healthy job's result was written back and flushed to disk
        # before the crash: a fresh cache serves it without simulating.
        survivor = ResultCache(tmp_path)
        healthy = grid_plan(
            designs=("baseline",),
            workloads=(("small", SMALL),),
            fidelity="poison-test",
        )
        report = Session(cache=survivor, workers=1).run(healthy)
        assert (report.simulated, report.cache_hits) == (0, 1)

    def test_nothing_persists_when_the_first_job_crashes(
        self, tmp_path, poison_fidelity
    ):
        plan = grid_plan(
            designs=("baseline",),
            workloads=(("poison", POISON),),  # the poisoned point only
            fidelity="poison-test",
        )
        cache = ResultCache(tmp_path)
        with pytest.raises(SimError):
            Session(cache=cache, workers=1).run(plan)
        assert len(ResultCache(tmp_path)) == 0

    def test_crash_free_runs_flush_everything(self, tmp_path, poison_fidelity):
        plan = grid_plan(
            designs=("baseline",),
            workloads=(("small", SMALL), ("wide", WIDE)),
            fidelity="poison-test",
        )
        Session(cache=ResultCache(tmp_path), workers=1).run(plan)
        assert len(ResultCache(tmp_path)) == 2


class TestShardedRuns:
    def test_shard_runs_owned_keys_only(self):
        plan = grid_plan()
        session = Session(workers=1)
        shard0 = session.run(plan.shard(0, 2))
        shard1 = session.run(plan.shard(1, 2))
        assert set(shard0.results).isdisjoint(shard1.results)
        assert set(shard0.results) | set(shard1.results) == set(
            plan.distinct_keys()
        )
        assert shard0.simulated + shard1.simulated == 4

    def test_merged_two_shard_suite_sweep_equals_unsharded_bit_for_bit(self):
        """The ROADMAP sharding item, end to end, with isolated sessions."""
        plan = SweepPlan(
            designs=("baseline", "rasa-dmdb-wls"),
            suites=("dlrm", "training"),
            batches=(1, 64),
            scale=8,
        )
        # Three *independent* sessions — no shared cache, as on three hosts.
        full = Session(workers=1).run(plan)
        merged = Session(workers=1).run(plan.shard(0, 2)).merge(
            Session(workers=1).run(plan.shard(1, 2))
        )
        assert merged == full
        assert merged.to_json() == full.to_json()
        assert merged.batch_curves() == full.batch_curves()

    def test_shard_reports_count_partial_work(self):
        plan = grid_plan()
        report = Session(workers=1).run(plan.shard(0, 2))
        assert report.is_partial
        assert 0 < report.distinct_points < len(plan.distinct_keys())
        assert report.job_count < plan.job_count()


class TestPersistentPool:
    """The worker pool outlives run(): multi-plan sessions fork once."""

    def test_pool_survives_across_runs(self):
        session = Session(workers=2)
        assert session._pool is None  # created lazily, on first fan-out
        session.run(grid_plan())
        pool = session._pool
        assert pool is not None
        session.run(grid_plan(designs=("rasa-pipe", "rasa-wlbp")))
        assert session._pool is pool
        session.close()

    def test_close_idempotent_and_pool_respawns(self):
        session = Session(workers=2)
        session.close()  # nothing to close yet: a no-op
        first = session.run(grid_plan())
        session.close()
        session.close()
        assert session._pool is None
        second = session.run(grid_plan())  # pool respawns transparently
        assert second == first
        session.close()

    def test_context_manager_closes_pool(self):
        with Session(workers=2) as session:
            session.run(grid_plan())
            assert session._pool is not None
        assert session._pool is None

    def test_serial_session_never_spawns_a_pool(self):
        session = Session(workers=1)
        session.run(grid_plan())
        assert session._pool is None


class TestArrayNativeSweep:
    def test_fast_table1_sweep_never_builds_instruction_objects(self):
        """The fast tier reads the decode the lowering carries, nothing else."""
        cached_program.cache_clear()
        plan = SweepPlan(designs=tuple(DESIGNS), suites=("table1",), scale=4)
        report = Session(workers=1).run(plan)
        assert report.simulated == 9 * len(DESIGNS)
        shapes = [g.shape for g in get_suite("table1", scale=4).distinct()]
        programs = [cached_program(shape, CodegenOptions()) for shape in shapes]
        assert cached_program.cache_info().misses == len(shapes)
        assert all(p.decoded is not None for p in programs)
        assert not any(p.is_materialized for p in programs)


class TestLargeFanOut:
    """200 jobs through computed chunks: unordered streaming, complete results."""

    def _plan_200(self) -> SweepPlan:
        # 8 designs x 25 distinct shapes = 200 distinct analytic points;
        # the analytic fidelity keeps both the parallel and the serial
        # reference runs test-suite cheap.
        shapes = tuple(
            (f"s{i}", GemmShape(32 * (i + 1), 32, 32)) for i in range(25)
        )
        return SweepPlan(
            designs=tuple(DESIGNS), workloads=shapes, fidelity="analytic"
        )

    def test_unordered_but_complete(self):
        plan = self._plan_200()
        assert plan.job_count() == 200
        with Session(workers=4) as parallel:
            report = parallel.run(plan)
        # chunksize = max(1, 200 // (4 * 4)) = 12: results arrive unordered
        # in batches, yet every distinct key lands exactly once.
        assert report.simulated == 200
        assert set(report.results) == set(plan.distinct_keys())
        assert report == Session(workers=1).run(plan)
