"""E15 — extension: whole-model GEMM suites, not just three layers apiece.

Simulates the complete GEMM portion of every registered workload suite
(:mod:`repro.workloads.suites`) and reports the end-to-end normalized
runtime per model.  Because the paper's per-layer result is
workload-independent, the whole-model numbers should land at the same
~0.17-0.21 the Fig. 5 geomean shows — this bench verifies that the
three-layer sample was representative.

The bench is a thin client of the declarative API: one
:class:`repro.runtime.SweepPlan` per suite, run through a
:class:`repro.runtime.Session`.  Each suite simulates its *distinct*
shapes once per design and expands the results by occurrence count, so the
full 12-layer BERT-base stack costs 3 simulations per design instead
of 72.
"""

from __future__ import annotations

from repro.runtime import Session, SweepPlan, cached_program, resolve_backend
from repro.utils.tables import format_table
from repro.workloads.suites import get_suite

MODEL_SUITES = (
    "resnet50", "bert-base", "bert-full", "dlrm", "training", "resnet50-train"
)

DESIGN_KEYS = ("baseline", "rasa-dmdb-wls")


def test_full_models(benchmark, emit, settings):
    session = Session(workers=1)  # small grids; cache-free for honest timing
    rows = []
    sample = None
    for name in MODEL_SUITES:
        # Doubled scale keeps the bench quick; per-layer normalized results
        # are batch-insensitive past one tile row block.
        suite = get_suite(name, scale=settings.scale * 2)
        if sample is None:
            sample = cached_program(suite.gemms[0][1], settings.codegen)
        plan = SweepPlan(
            designs=DESIGN_KEYS,
            suites=(name,),
            scale=settings.scale * 2,
            core=settings.core,
            codegen=settings.codegen,
        )
        totals = session.run(plan).suite_totals()[name]
        base, best = totals["baseline"], totals["rasa-dmdb-wls"]
        norm = best.normalized_to(base)
        rows.append(
            (
                name,
                base.gemm_count,
                base.simulations,
                base.cycles,
                best.cycles,
                f"{norm:.3f}",
            )
        )
        assert norm < 0.25, name

    backend = resolve_backend("rasa-dmdb-wls", core=settings.core)
    benchmark(backend.run, sample)
    emit(
        "Extension E15 — whole-model GEMM suites (RASA-DMDB-WLS vs baseline)",
        format_table(
            ["model", "GEMMs", "distinct", "baseline cyc", "DMDB-WLS cyc", "normalized"],
            rows,
        ),
    )
