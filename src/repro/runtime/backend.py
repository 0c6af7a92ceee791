"""The backend protocols and the engine-bound adapter.

A backend is the timing model itself: the registry
(:func:`repro.runtime.registry.resolve_backend`) binds one engine design
point plus one :class:`repro.cpu.config.CoreConfig` and returns the model
that runs that fidelity::

    backend = resolve_backend("rasa-dmdb-wls", fidelity="fast")
    result = backend.run(program)     # -> SimResult

Every program-level backend implements :class:`SimBackend`; the
shape-level one implements :class:`ShapeBackend`.  Five fidelities exist,
cheapest first:

- ``"analytic"`` — :class:`repro.cpu.analytic.AnalyticCoreModel`, the
  closed-form O(1)-per-point model.  Shape-level: it never builds a
  program, so it implements :meth:`ShapeBackend.run_shape` instead of
  ``run`` (the runtime layer dispatches on that);
- ``"engine"`` — :class:`EngineBackend`, engine-bound
  :class:`repro.engine.engine.MatrixEngine` execution with operands
  always ready and no data movement;
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

from repro.cpu.config import CoreConfig
from repro.cpu.result import SimResult
from repro.engine.config import EngineConfig
from repro.engine.engine import MatrixEngine
from repro.isa.program import Program
from repro.workloads.codegen import CodegenOptions
from repro.workloads.gemm import GemmShape


@runtime_checkable
class SimBackend(Protocol):
    """A backend that executes programs: ``run(program) -> SimResult``."""

    def run(self, program: Program) -> SimResult:
        """Execute ``program`` from a cold start and return its result."""
        ...


@runtime_checkable
class ShapeBackend(Protocol):
    """A backend that executes (shape, codegen) points without a program.

    The runtime layer's single dispatch rule: if a resolved backend has
    ``run_shape``, jobs skip program generation entirely and call it with
    the job's shape and codegen options.
    """

    def run_shape(
        self, shape: GemmShape, codegen: CodegenOptions
    ) -> SimResult:
        """Estimate the point directly from the shape's structure."""
        ...


class EngineBackend:
    """Engine-bound :class:`MatrixEngine` execution as a :class:`SimBackend`.

    Cycles are reported in the CPU clock domain (engine completion time
    times the clock ratio) so results stay comparable with the CPU-attached
    fidelities; ``engine_busy_cycles`` keeps the engine-clock busy window.
    Functional data movement is out of scope here: construct
    ``MatrixEngine(config, functional=...)`` directly for that.
    """

    def __init__(
        self, engine: EngineConfig, core: Optional[CoreConfig] = None
    ) -> None:
        self.engine = engine
        self.core = core if core is not None else CoreConfig()
        self._engine_sim = MatrixEngine(engine, functional="off")

    def run(self, program: Program) -> SimResult:
        # A fresh program gets a cold engine: clear weights + dirty bits so
        # back-to-back runs are independent, like the CPU models.
        self._engine_sim.reset()
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
