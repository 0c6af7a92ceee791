"""E6 — Fig. 5: runtime of every RASA design normalized to the baseline.

Regenerates the paper's headline figure: 8 designs x 9 Table I layers.
The grid goes through the :mod:`repro.runtime` layer — the benchmark timer
measures one representative backend simulation (registry-resolved, no
caching) while the printed table is the full cache-backed sweep.
"""

from __future__ import annotations

from repro.experiments.runner import workload_shapes
from repro.experiments.runtime_sweep import fig5_normalized_runtime
from repro.runtime import resolve_backend
from repro.runtime.session import cached_program


def test_fig5_runtime(benchmark, emit, settings):
    shapes = workload_shapes(settings)
    program = cached_program(shapes["DLRM-2"], settings.codegen)
    backend = resolve_backend("rasa-dmdb-wls", core=settings.core)
    benchmark(backend.run, program)

    sweep = fig5_normalized_runtime(settings)
    # The paper's qualitative claims must hold in the regenerated figure.
    avg = sweep.averages
    assert avg["rasa-pipe"] < 1.0
    assert avg["rasa-wlbp"] < avg["rasa-pipe"]
    assert avg["rasa-dm-wlbp"] < avg["rasa-wlbp"]
    assert avg["rasa-db-wls"] < avg["rasa-dm-wlbp"]
    assert abs(avg["rasa-dmdb-wls"] - avg["rasa-db-wls"]) < 0.05  # "similar"
    emit("Fig. 5 — normalized runtime (8 designs x 9 layers)", sweep.render())
