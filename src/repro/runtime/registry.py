"""Backend registry: (design key x fidelity) -> ready :class:`SimBackend`.

Call sites never hand-wire ``FastCoreModel``/``MatrixEngine``/``OoOCore``
constructors anymore; they ask the registry::

    backend = resolve_backend("rasa-dmdb-wls")                  # fast model
    backend = resolve_backend("baseline", fidelity="ooo")       # cycle-accurate
    backend = resolve_backend("rasa-pipe", fidelity="engine",
                              functional="oracle")              # engine-bound

New fidelities register a factory under a unique name::

    @register_backend("my-fidelity")
    def _make(engine, core, functional):
        return MyBackend(engine, core)
"""

from __future__ import annotations

from typing import Callable, Dict, Optional

from repro.cpu.config import CoreConfig
from repro.engine.config import EngineConfig
from repro.engine.designs import get_design
from repro.errors import ConfigError
from repro.runtime.backend import (
    AnalyticBackend,
    EngineBackend,
    FastCoreBackend,
    FastRefBackend,
    OoOCoreBackend,
    SimBackend,
)

#: Factory signature: (engine config, core config, functional mode) -> backend.
BackendFactory = Callable[[EngineConfig, CoreConfig, str], SimBackend]

#: The registered fidelities, by name.
FIDELITIES: Dict[str, BackendFactory] = {}

#: Functional data-movement modes understood by the engine fidelity.
FUNCTIONAL_MODES = ("array", "oracle", "off")


def register_backend(name: str) -> Callable[[BackendFactory], BackendFactory]:
    """Decorator registering a backend factory under ``name``."""

    def _register(factory: BackendFactory) -> BackendFactory:
        if name in FIDELITIES:
            raise ConfigError(f"backend fidelity {name!r} is already registered")
        FIDELITIES[name] = factory
        return factory

    return _register


def _register_timing_only(
    name: str, backend_cls: Callable[[EngineConfig, CoreConfig], SimBackend]
) -> None:
    """Register ``backend_cls(engine, core)`` as timing-only fidelity ``name``.

    Timing-only backends model no data movement, so any functional mode
    but ``"off"`` is refused with one message naming the fidelity.
    """

    @register_backend(name)
    def _factory(engine: EngineConfig, core: CoreConfig, functional: str) -> SimBackend:
        if functional != "off":
            raise ConfigError(
                f"the {name!r} fidelity is timing-only; functional execution "
                "requires fidelity='engine'"
            )
        return backend_cls(engine, core)


_register_timing_only("analytic", AnalyticBackend)
_register_timing_only("fast", FastCoreBackend)
_register_timing_only("fast-ref", FastRefBackend)
_register_timing_only("ooo", OoOCoreBackend)


@register_backend("engine")
def _engine_factory(engine: EngineConfig, core: CoreConfig, functional: str) -> SimBackend:
    return EngineBackend(engine, core, functional=functional)


def resolve_backend(
    design_key: str,
    fidelity: str = "fast",
    core: Optional[CoreConfig] = None,
    functional: str = "off",
) -> SimBackend:
    """One registry lookup: design key + fidelity -> a ready backend.

    Args:
        design_key: a key from :data:`repro.engine.designs.DESIGNS`.
        fidelity: ``"fast"`` (default), ``"ooo"``, ``"engine"``, or any
            fidelity added via :func:`register_backend`.
        core: CPU core configuration (default :class:`CoreConfig`).
        functional: data-movement mode, engine fidelity only
            (``"array"`` / ``"oracle"`` / ``"off"``).
    """
    if functional not in FUNCTIONAL_MODES:
        raise ConfigError(
            f"functional must be one of {FUNCTIONAL_MODES}, got {functional!r}"
        )
    try:
        factory = FIDELITIES[fidelity]
    except KeyError:
        raise ConfigError(
            f"unknown fidelity {fidelity!r}; registered: {', '.join(FIDELITIES)}"
        ) from None
    design = get_design(design_key)
    return factory(design.config, core if core is not None else CoreConfig(), functional)
