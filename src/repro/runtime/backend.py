"""The :class:`SimBackend` protocol and its three adapters.

A backend binds one engine design point (plus, for the CPU-attached models,
one :class:`repro.cpu.config.CoreConfig`) and executes programs in two
phases::

    backend = resolve_backend("rasa-dmdb-wls", fidelity="fast")
    result = backend.prepare(program).run()     # -> SimResult

``prepare`` binds the instruction stream (and lets a backend do per-program
setup — the engine adapter resets its register file and scheduler there);
``run`` executes and returns the uniform :class:`repro.cpu.result.SimResult`
record every layer above consumes.  ``simulate`` is the one-shot
convenience combining both.

Four fidelities exist, cheapest first:

- ``"analytic"`` — :class:`repro.cpu.analytic.AnalyticCoreModel`, the
  closed-form O(1)-per-point model.  Shape-level: it never builds a
  program, so it implements :meth:`ShapeBackend.run_shape` instead of
  ``prepare``/``run`` (the runtime layer dispatches on that);
- ``"engine"`` — engine-bound :class:`repro.engine.engine.MatrixEngine`
  execution: operands always ready, optional functional data movement
  (``"array"`` / ``"oracle"`` / ``"off"``);
- ``"fast"``   — :class:`repro.cpu.fastvec.FastVecCoreModel`, the
  vectorized O(n) timestamp-propagation core model (the default for
  sweeps), bit-identical to the scalar reference;
- ``"fast-ref"`` — :class:`repro.cpu.fast.FastCoreModel`, the scalar
  per-instruction reference the vectorized kernel is cross-checked
  against (the oracle tier; same results, slower);
- ``"ooo"``    — :class:`repro.cpu.ooo.core.OutOfOrderCore`, the
  cycle-accurate validation model.
"""

from __future__ import annotations

from typing import Optional, Protocol, runtime_checkable

from repro.cpu.analytic import AnalyticCoreModel
from repro.cpu.config import CoreConfig
from repro.cpu.fast import FastCoreModel
from repro.cpu.fastvec import FastVecCoreModel
from repro.cpu.ooo.core import OutOfOrderCore
from repro.cpu.result import SimResult
from repro.engine.config import EngineConfig
from repro.engine.engine import MatrixEngine
from repro.errors import SimError
from repro.isa.program import Program
from repro.workloads.codegen import CodegenOptions
from repro.workloads.gemm import GemmShape


@runtime_checkable
class SimBackend(Protocol):
    """Uniform execution interface: ``prepare(program)`` then ``run()``."""

    fidelity: str

    def prepare(self, program: Program) -> "SimBackend":
        """Bind ``program`` for the next :meth:`run`; returns ``self``."""
        ...

    def run(self) -> SimResult:
        """Execute the prepared program and return its :class:`SimResult`."""
        ...

    def simulate(self, program: Program) -> SimResult:
        """One-shot ``prepare(program).run()``."""
        ...


@runtime_checkable
class ShapeBackend(Protocol):
    """A backend that executes (shape, codegen) points without a program.

    The runtime layer's single dispatch rule: if a resolved backend has
    ``run_shape``, jobs skip program generation entirely and call it with
    the job's shape and codegen options.
    """

    fidelity: str

    def run_shape(
        self, shape: GemmShape, codegen: CodegenOptions
    ) -> SimResult:
        """Estimate the point directly from the shape's structure."""
        ...


class _BaseBackend:
    """Shared prepare/run plumbing for the concrete adapters."""

    fidelity = "abstract"

    def __init__(self, engine: EngineConfig, core: Optional[CoreConfig] = None) -> None:
        self.engine = engine
        self.core = core if core is not None else CoreConfig()
        self._program: Optional[Program] = None

    def prepare(self, program: Program) -> "_BaseBackend":
        self._program = program
        return self

    def run(self) -> SimResult:
        if self._program is None:
            raise SimError(
                f"{type(self).__name__}.run() called before prepare(); "
                "bind a program first (or use simulate(program))"
            )
        program, self._program = self._program, None
        return self._execute(program)

    def simulate(self, program: Program) -> SimResult:
        return self.prepare(program).run()

    def _execute(self, program: Program) -> SimResult:
        raise NotImplementedError


class AnalyticBackend:
    """Adapter over the closed-form analytic model (shape-level).

    This backend deliberately does *not* implement the program-based
    :class:`SimBackend` phases: the whole point of the analytic tier is
    that no program ever exists.  Construction is cheap and holds no state
    worth keeping: the scheduler probes are memoized per process
    (:data:`repro.cpu.analytic.PROBE_CACHE_SIZE`), so the fresh backend
    the session builds for every job still reuses every probe an earlier
    job ran against the same design and block geometries.
    """

    fidelity = "analytic"

    def __init__(self, engine: EngineConfig, core: Optional[CoreConfig] = None) -> None:
        self.engine = engine
        self.core = core if core is not None else CoreConfig()
        self._model = AnalyticCoreModel(core=self.core, engine=engine)

    def run_shape(
        self, shape: GemmShape, codegen: CodegenOptions = CodegenOptions()
    ) -> SimResult:
        return self._model.run_shape(shape, codegen)

    def prepare(self, program: Program) -> "AnalyticBackend":
        raise SimError(
            "the 'analytic' fidelity is shape-level and never executes "
            "programs; call run_shape(shape, codegen) instead (the Session "
            "layer does this automatically)"
        )

    def run(self) -> SimResult:
        raise SimError(
            "the 'analytic' fidelity is shape-level; use run_shape(shape, codegen)"
        )

    def simulate(self, program: Program) -> SimResult:
        return self.prepare(program).run()


class FastCoreBackend(_BaseBackend):
    """Adapter over the vectorized O(n) timestamp-propagation core model.

    The vectorized kernel shares one :class:`repro.cpu.decode.DecodedProgram`
    per distinct program across every design and is bit-identical to the
    scalar reference (``"fast-ref"``), so existing ``"fast"`` cache entries
    stay valid.
    """

    fidelity = "fast"

    def _execute(self, program: Program) -> SimResult:
        model = FastVecCoreModel(core=self.core, engine=self.engine)
        return model.run(program)


class FastRefBackend(_BaseBackend):
    """Adapter over the scalar per-instruction reference model.

    Kept as its own fidelity so the cross-check oracles
    (:func:`repro.analysis.bounds.cross_check_bounds`,
    :func:`repro.analysis.verifier.cross_check_counters`, the hypothesis
    property suite) can assert ``fast == fast-ref`` end to end.
    """

    fidelity = "fast-ref"

    def _execute(self, program: Program) -> SimResult:
        model = FastCoreModel(core=self.core, engine=self.engine)
        return model.run(program)


class OoOCoreBackend(_BaseBackend):
    """Adapter over the cycle-accurate out-of-order core."""

    fidelity = "ooo"

    def __init__(
        self,
        engine: EngineConfig,
        core: Optional[CoreConfig] = None,
        max_cycles: int = 50_000_000,
    ) -> None:
        super().__init__(engine, core)
        self.max_cycles = max_cycles

    def _execute(self, program: Program) -> SimResult:
        model = OutOfOrderCore(core=self.core, engine=self.engine)
        return model.run(program, max_cycles=self.max_cycles)


class EngineBackend(_BaseBackend):
    """Adapter over engine-bound :class:`MatrixEngine` execution.

    Cycles are reported in the CPU clock domain (engine completion time
    times the clock ratio) so results stay comparable with the CPU-attached
    fidelities; ``engine_busy_cycles`` keeps the engine-clock busy window.
    """

    fidelity = "engine"

    def __init__(
        self,
        engine: EngineConfig,
        core: Optional[CoreConfig] = None,
        functional: str = "off",
    ) -> None:
        super().__init__(engine, core)
        self.functional = functional
        self._engine_sim = MatrixEngine(engine, functional=functional)

    def prepare(self, program: Program) -> "EngineBackend":
        # A fresh program gets a cold engine: clear weights + dirty bits so
        # back-to-back simulate() calls are independent, like the CPU models.
        self._engine_sim.reset()
        return super().prepare(program)

    def _execute(self, program: Program) -> SimResult:
        report = self._engine_sim.run(program)
        ratio = self.core.engine_clock_ratio(self.engine.clock_mhz)
        complete = report.schedule[-1].complete if report.schedule else 0
        return SimResult(
            design=self.engine.describe(),
            program=program.name,
            cycles=complete * ratio,
            instructions=len(program),
            mm_count=report.stats.mm_count,
            bypass_count=report.stats.bypass_count,
            weight_loads=report.stats.weight_load_count,
            engine_busy_cycles=report.stats.total_cycles,
            clock_mhz=self.core.clock_mhz,
        )
