"""Common experiment plumbing, now a thin client of :mod:`repro.runtime`.

Every simulation below goes through the runtime's one backend dispatch
(:func:`repro.runtime.session.execute_job`) and every grid is declared as a
:class:`repro.runtime.SweepPlan` and executed by the shared
:class:`repro.runtime.Session` (:func:`default_session`) — parallel across
worker processes and memoized in the on-disk result cache.  Environment
knobs:

- ``REPRO_SWEEP_WORKERS`` — worker process count (default: CPU count);
- ``REPRO_NO_CACHE``      — any non-empty value disables the disk cache;
- ``REPRO_CACHE_DIR``     — cache location (default ``~/.cache/repro``).

The paper's absolute cycle counts come from full-size layers on MacSim; our
default sweeps run the same layers *scaled down* (every GEMM dimension
divided by ``scale``) because normalized runtimes converge quickly with
size — the steady-state initiation interval dominates — which a dedicated
convergence test verifies.  Pass ``scale=1`` for full-size runs.
"""

from __future__ import annotations

import dataclasses
import functools
from pathlib import Path
from typing import Dict, Optional

from repro.cpu.config import CoreConfig
from repro.cpu.result import SimResult
from repro.engine.designs import DESIGNS
from repro.errors import ExperimentError
from repro.runtime.plan import SweepJob, SweepPlan
from repro.runtime.session import Session, execute_job
from repro.workloads.codegen import CodegenOptions
from repro.workloads.gemm import GemmShape
from repro.workloads.layers import table1_gemms


@dataclasses.dataclass(frozen=True)
class ExperimentSettings:
    """Shared knobs for every sweep.

    ``core`` and ``codegen`` use ``default_factory`` so no single shared
    instance leaks across settings objects; all three fields are frozen
    dataclasses, keeping settings hashable — they feed both the in-process
    memoization below and the runtime layer's persistent cache keys.
    """

    scale: int = 4
    core: CoreConfig = dataclasses.field(default_factory=CoreConfig)
    codegen: CodegenOptions = dataclasses.field(default_factory=CodegenOptions)


DEFAULT_SETTINGS = ExperimentSettings()


def default_session(
    workers: Optional[int] = None,
    cache_dir: Optional[Path] = None,
    use_cache: bool = True,
) -> Session:
    """The :class:`Session` the experiment drivers share.

    Honors the ``REPRO_SWEEP_WORKERS`` / ``REPRO_NO_CACHE`` /
    ``REPRO_CACHE_DIR`` environment knobs documented in the module doc.
    """
    return Session.from_env(
        workers=workers, cache_dir=cache_dir, use_cache=use_cache
    )


def _resolve_session(session: Optional[Session]) -> Session:
    """An explicit driver session, or the shared environment-driven one."""
    if session is not None:
        return session
    return default_session()


def workload_shapes(settings: ExperimentSettings = DEFAULT_SETTINGS) -> Dict[str, GemmShape]:
    """The nine Table I GEMMs at the settings' scale."""
    return {
        name: shape.scaled(settings.scale) for name, shape in table1_gemms().items()
    }


def run_design(
    design_key: str,
    shape: GemmShape,
    settings: ExperimentSettings = DEFAULT_SETTINGS,
    fidelity: str = "fast",
) -> SimResult:
    """Simulate ``shape`` on one design, uncached and in-process.

    A thin call to :func:`repro.runtime.session.execute_job`, the one
    backend dispatch sweeps use too: shape-level fidelities (``analytic``)
    skip generation entirely, the rest share the per-process program memo.
    ``settings.scale`` is not applied — ``shape`` runs as given.
    """
    return execute_job(
        SweepJob(
            design_key=design_key,
            shape=shape,
            core=settings.core,
            codegen=settings.codegen,
            fidelity=fidelity,
        )
    )


@functools.lru_cache(maxsize=8)
def runtime_sweep(
    settings: ExperimentSettings = DEFAULT_SETTINGS,
) -> Dict[str, Dict[str, SimResult]]:
    """Run every design on every Table I workload (the Fig. 5 grid).

    Declares the grid as a :class:`SweepPlan` and runs it through the
    shared :func:`default_session` — parallel workers plus the persistent
    result cache — and memoizes in-process on top: Fig. 6 and the energy
    table reuse the same grid without a second lookup pass.

    Returns ``results[workload_name][design_key]``.
    """
    plan = SweepPlan(
        designs=tuple(DESIGNS),
        workloads=tuple(workload_shapes(settings).items()),
        core=settings.core,
        codegen=settings.codegen,
    )
    return default_session().run(plan).grid()


def normalized_runtimes(
    results: Dict[str, Dict[str, SimResult]],
    baseline_key: str = "baseline",
) -> Dict[str, Dict[str, float]]:
    """Normalize each design's cycles to the baseline, per workload.

    An empty grid yields an empty table; a workload row lacking
    ``baseline_key`` raises :class:`ExperimentError` (not ``KeyError``) so
    callers see which row was malformed.
    """
    table: Dict[str, Dict[str, float]] = {}
    for workload, per_design in results.items():
        try:
            base = per_design[baseline_key]
        except KeyError:
            raise ExperimentError(
                f"workload {workload!r} has no baseline design "
                f"{baseline_key!r}; present: {', '.join(per_design) or 'none'}"
            ) from None
        table[workload] = {
            key: result.normalized_to(base) for key, result in per_design.items()
        }
    return table


def geometric_mean(values) -> float:
    """Geometric mean (the conventional normalized-runtime average).

    Empty input returns 0.0 — the "no data" sentinel the tables render.
    """
    values = list(values)
    if not values:
        return 0.0
    product = 1.0
    for v in values:
        product *= v
    return product ** (1.0 / len(values))
