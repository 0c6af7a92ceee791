"""Backend protocol + registry resolution tests."""

from __future__ import annotations

import pytest

from repro.cpu.analytic import AnalyticCoreModel
from repro.cpu.config import CoreConfig
from repro.cpu.fast import FastCoreModel
from repro.cpu.fastvec import FastVecCoreModel
from repro.cpu.ooo.core import OutOfOrderCore
from repro.engine.designs import get_design
from repro.errors import ConfigError
from repro.runtime import (
    EngineBackend,
    ShapeBackend,
    SimBackend,
    register_backend,
    resolve_backend,
)
from repro.runtime.plan import SweepJob
from repro.runtime.registry import FIDELITIES
from repro.runtime.session import execute_job
from repro.workloads.codegen import generate_gemm_program
from repro.workloads.gemm import GemmShape

SHAPE = GemmShape(m=64, n=64, k=64, name="backend-test")

#: Every built-in fidelity and the model class the registry returns for it.
BUILTIN_MODELS = {
    "analytic": AnalyticCoreModel,
    "fast": FastVecCoreModel,
    "fast-ref": FastCoreModel,
    "ooo": OutOfOrderCore,
    "engine": EngineBackend,
}


@pytest.fixture(scope="module")
def program():
    return generate_gemm_program(SHAPE)


class TestRegistry:
    def test_default_resolution_is_fast(self):
        assert type(resolve_backend("rasa-dmdb-wls")) is FastVecCoreModel

    def test_every_fidelity_resolves(self):
        for fidelity, model in BUILTIN_MODELS.items():
            assert type(resolve_backend("baseline", fidelity=fidelity)) is model

    def test_engine_config_comes_from_design(self):
        core = CoreConfig(l1_latency=7)
        for fidelity in BUILTIN_MODELS:
            backend = resolve_backend("rasa-wlbp", fidelity=fidelity, core=core)
            assert backend.engine == get_design("rasa-wlbp").config
            assert backend.core == core

    @pytest.mark.parametrize("fidelity", sorted(BUILTIN_MODELS))
    def test_execute_job_equals_the_direct_model(self, fidelity):
        """The registry adds nothing: a job runs exactly the bare model."""
        shape = GemmShape(m=64, n=96, k=32)
        core = CoreConfig(l1_latency=7)
        job = SweepJob("rasa-dmdb-wls", shape, core=core, fidelity=fidelity)
        model = BUILTIN_MODELS[fidelity](
            core=core, engine=get_design("rasa-dmdb-wls").config
        )
        if fidelity == "analytic":
            direct = model.run_shape(shape, job.codegen)
        else:
            direct = model.run(generate_gemm_program(shape, job.codegen))
        assert execute_job(job) == direct

    def test_resolved_backends_satisfy_protocol(self):
        for fidelity in FIDELITIES:
            if fidelity != "analytic":
                backend = resolve_backend("baseline", fidelity=fidelity)
                assert isinstance(backend, SimBackend)

    def test_unknown_fidelity(self):
        with pytest.raises(ConfigError, match="unknown fidelity"):
            resolve_backend("baseline", fidelity="spice")

    def test_unknown_design(self):
        with pytest.raises(ConfigError, match="unknown design"):
            resolve_backend("bogus-design")

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ConfigError, match="already registered"):
            register_backend("fast")(lambda engine, core: None)


class TestExecution:
    def test_fast_backend_matches_direct_model(self, program, design_key):
        """The vectorized fast tier is bit-identical to the scalar model."""
        backend = resolve_backend(design_key)
        direct = FastCoreModel(
            core=CoreConfig(), engine=get_design(design_key).config
        ).run(program)
        assert backend.run(program) == direct

    def test_engine_backend_agrees_on_engine_stats(self, program):
        fast = resolve_backend("rasa-wlbp").run(program)
        engine = resolve_backend("rasa-wlbp", fidelity="engine").run(program)
        assert engine.mm_count == fast.mm_count
        assert engine.bypass_count == fast.bypass_count
        assert engine.weight_loads == fast.weight_loads
        # Engine-bound is an optimistic lower bound on end-to-end time.
        assert 0 < engine.cycles <= fast.cycles

    def test_engine_backend_repeatable(self, program):
        """run() resets engine state, so reruns are independent."""
        backend = resolve_backend("rasa-wlbp", fidelity="engine")
        assert backend.run(program) == backend.run(program)

    def test_ooo_backend_close_to_fast(self, program):
        fast = resolve_backend("rasa-dmdb-wls").run(program)
        ooo = resolve_backend("rasa-dmdb-wls", fidelity="ooo").run(program)
        assert ooo.mm_count == fast.mm_count
        assert ooo.cycles == pytest.approx(fast.cycles, rel=0.05)


class TestAnalyticBackend:
    """The shape-level fidelity: no program ever exists."""

    def test_resolves_and_satisfies_shape_protocol(self):
        backend = resolve_backend("rasa-dmdb-wls", fidelity="analytic")
        assert type(backend) is AnalyticCoreModel
        assert isinstance(backend, ShapeBackend)
        assert not isinstance(backend, SimBackend)

    def test_run_shape_matches_fast_backend(self, program, design_key):
        analytic = resolve_backend(design_key, fidelity="analytic")
        fast = resolve_backend(design_key, fidelity="fast")
        assert analytic.run_shape(SHAPE) == fast.run(program)
