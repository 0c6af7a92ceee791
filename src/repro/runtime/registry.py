"""Backend registry: (design key x fidelity) -> the model that runs it.

Call sites never hand-wire ``FastVecCoreModel``/``MatrixEngine``/
``OutOfOrderCore`` constructors; they ask the registry::

    backend = resolve_backend("rasa-dmdb-wls")                  # fast model
    backend = resolve_backend("baseline", fidelity="ooo")       # cycle-accurate
    result = backend.run(program)

Each fidelity names a factory called as ``factory(engine=..., core=...)``;
the built-in factories are the model classes themselves.  New fidelities
register one under a unique name::

    @register_backend("my-fidelity")
    def _make(engine, core):
        return MyModel(core=core, engine=engine)
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Optional

from repro.cpu.analytic import AnalyticCoreModel
from repro.cpu.config import CoreConfig
from repro.cpu.fast import FastCoreModel
from repro.cpu.fastvec import FastVecCoreModel
from repro.cpu.ooo.core import OutOfOrderCore
from repro.engine.designs import get_design
from repro.errors import ConfigError
from repro.runtime.backend import EngineBackend

#: Factory signature: ``(engine=EngineConfig, core=CoreConfig)`` -> a
#: :class:`~repro.runtime.backend.SimBackend` or
#: :class:`~repro.runtime.backend.ShapeBackend`.
BackendFactory = Callable[..., Any]

#: The registered fidelities, by name.
FIDELITIES: Dict[str, BackendFactory] = {
    "analytic": AnalyticCoreModel,
    "fast": FastVecCoreModel,
    "fast-ref": FastCoreModel,
    "ooo": OutOfOrderCore,
    "engine": EngineBackend,
}


def register_backend(name: str) -> Callable[[BackendFactory], BackendFactory]:
    """Decorator registering a backend factory under ``name``."""

    def _register(factory: BackendFactory) -> BackendFactory:
        if name in FIDELITIES:
            raise ConfigError(f"backend fidelity {name!r} is already registered")
        FIDELITIES[name] = factory
        return factory

    return _register


def resolve_backend(
    design_key: str,
    fidelity: str = "fast",
    core: Optional[CoreConfig] = None,
) -> Any:
    """One registry lookup: design key + fidelity -> a ready backend.

    Returns a :class:`~repro.runtime.backend.SimBackend` (``run(program)``)
    or, for the shape-level ``"analytic"`` fidelity, a
    :class:`~repro.runtime.backend.ShapeBackend` (``run_shape``).

    Args:
        design_key: a key from :data:`repro.engine.designs.DESIGNS`.
        fidelity: ``"fast"`` (default), ``"analytic"``, ``"fast-ref"``,
            ``"ooo"``, ``"engine"``, or any fidelity added via
            :func:`register_backend`.
        core: CPU core configuration (default :class:`CoreConfig`).
    """
    try:
        factory = FIDELITIES[fidelity]
    except KeyError:
        raise ConfigError(
            f"unknown fidelity {fidelity!r}; registered: {', '.join(FIDELITIES)}"
        ) from None
    design = get_design(design_key)
    return factory(
        engine=design.config, core=core if core is not None else CoreConfig()
    )
