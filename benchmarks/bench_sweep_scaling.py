"""Sweep-scaling perf trajectory: cold/warm sweep times per fidelity.

This bench is the recorded perf baseline the ROADMAP asked for: it times
cold (empty result cache) and warm (fully cached) sweeps of the table1 and
bert-full suites at the ``fast`` (vectorized), ``fast-ref`` (scalar
reference) and ``analytic`` fidelities and writes ``BENCH_sweep.json`` at
the repo root — one entry in the PR-over-PR perf trajectory (fields
documented in the README's "Perf trajectory" section).

Three assertions pin the PR's perf claims:

- the vectorized fast model runs the cold table1 grid >= 3x faster than
  the scalar ``fast-ref`` model (the shared program memo is pre-warmed,
  instruction objects included, so neither side is charged for
  lowering: ``fast`` reads the decode the lowering carries, ``fast-ref``
  walks the objects);
- the analytic tier runs the table1 grid >= 8x faster than the fast
  model on the same plan (measured in-process, cold caches both sides);
- the FastCoreModel port-selection micro-opt (1-port store special case,
  inlined 2-load-port min) changed *no* timing: both the scalar and the
  vectorized model still equal the pre-optimization reference values
  pinned below.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

from repro.cpu.fast import FastCoreModel
from repro.cpu.fastvec import FastVecCoreModel
from repro.engine.designs import DESIGNS, get_design
from repro.runtime import ResultCache, Session, SweepPlan
from repro.runtime.session import cached_program
from repro.utils.tables import format_table
from repro.workloads.codegen import generate_gemm_program
from repro.workloads.gemm import GemmShape

REPO_ROOT = Path(__file__).resolve().parents[1]
BENCH_JSON = REPO_ROOT / "BENCH_sweep.json"

#: Fidelities the trajectory tracks (program memo pre-warmed; see above).
TIMED_FIDELITIES = ("fast", "fast-ref", "analytic")

#: Suites timed per fidelity: the Table I layers and the structurally
#: richest inference suite (head-batched attention shapes).
TIMED_SUITES = ("table1", "bert-full")

#: The in-sweep speedup floor the analytic tier must clear on table1.
#: Was 50x against the scalar fast model; the vectorized ``fast`` tier
#: legitimately narrowed the gap (~19x measured), so the floor tracks the
#: new denominator with headroom.
ANALYTIC_SPEEDUP_FLOOR = 8.0

#: The cold-sweep speedup floor the vectorized fast model must clear over
#: the scalar reference on table1 (measured ~5x; 3x leaves CI headroom).
VECTORIZED_SPEEDUP_FLOOR = 3.0

#: FastCoreModel reference results captured immediately *before* the
#: port-selection micro-opt (commit history: generic min-over-range scan
#: per instruction).  The optimization is legal only if timing is
#: bit-identical, so these pins are the before/after assertion.
MICRO_OPT_SHAPE = GemmShape(256, 256, 256, name="microopt-pin")
MICRO_OPT_PINS = {
    "baseline": {"cycles": 778339, "instructions": 6016, "engine_busy_cycles": 194560},
    "rasa-dmdb-wls": {"cycles": 131331, "instructions": 6016, "engine_busy_cycles": 32808},
}


def _suite_plan(suite: str, fidelity: str, settings) -> SweepPlan:
    return SweepPlan(
        designs=tuple(DESIGNS),
        suites=(suite,),
        scale=settings.scale,
        core=settings.core,
        codegen=settings.codegen,
        fidelity=fidelity,
    )


def _timed_run(session: Session, plan: SweepPlan):
    start = time.perf_counter()
    report = session.run(plan)
    return time.perf_counter() - start, report


def test_port_selection_micro_opt_timing_identical(emit):
    """Neither fast-model rewrite may move a single cycle off the pins."""
    rows = []
    for design_key, pins in MICRO_OPT_PINS.items():
        program = generate_gemm_program(MICRO_OPT_SHAPE)
        config = get_design(design_key).config
        scalar = FastCoreModel(engine=config).run(program)
        vector = FastVecCoreModel(engine=config).run(program)
        for field, pinned in pins.items():
            assert getattr(scalar, field) == pinned, (design_key, field)
            assert getattr(vector, field) == pinned, (design_key, field)
        rows.append((design_key, pins["cycles"], scalar.cycles, "identical"))
    emit(
        "FastCoreModel port-selection micro-opt (before/after pins, 256^3)",
        format_table(["design", "pre-opt cycles", "post-opt cycles", "timing"], rows),
    )


def test_sweep_scaling(emit, settings, tmp_path):
    """Time cold/warm suite sweeps per fidelity; write BENCH_sweep.json."""
    sweeps = {}
    rows = []
    for suite in TIMED_SUITES:
        per_fidelity = {}
        # Pre-warm the shared program memo, object view included: the
        # lowering carries the decode ``fast`` reads, and ``fast-ref`` walks
        # instruction objects that a ``fast`` sweep never builds.  Charging
        # either to whichever fidelity runs first would skew the
        # model-vs-model speedup row, so both timings are simulation only.
        for job in _suite_plan(suite, "fast", settings).iter_jobs():
            list(cached_program(job.shape, job.codegen))
        for fidelity in TIMED_FIDELITIES:
            plan = _suite_plan(suite, fidelity, settings)
            cache = ResultCache(tmp_path / f"{suite}-{fidelity}")
            with Session(cache=cache, workers=1) as session:
                cold_s, cold = _timed_run(session, plan)
                warm_s, warm = _timed_run(session, plan)
            assert warm.simulated == 0  # warm run is pure cache hits
            assert warm.results == cold.results
            per_fidelity[fidelity] = {
                "cold_s": round(cold_s, 6),
                "warm_s": round(warm_s, 6),
                "jobs": plan.job_count(),
                "distinct_points": cold.distinct_points,
                "simulated_cold": cold.simulated,
                "cache_hits_warm": warm.cache_hits,
            }
            rows.append(
                (
                    suite,
                    fidelity,
                    plan.job_count(),
                    cold.distinct_points,
                    f"{cold_s:.3f}s",
                    f"{warm_s:.3f}s",
                )
            )
        analytic_speedup = (
            per_fidelity["fast"]["cold_s"] / per_fidelity["analytic"]["cold_s"]
        )
        vectorized_speedup = (
            per_fidelity["fast-ref"]["cold_s"] / per_fidelity["fast"]["cold_s"]
        )
        sweeps[suite] = {
            "fidelities": per_fidelity,
            "analytic_speedup_cold": round(analytic_speedup, 2),
            "vectorized_speedup_cold": round(vectorized_speedup, 2),
        }

    assert sweeps["table1"]["analytic_speedup_cold"] >= ANALYTIC_SPEEDUP_FLOOR, (
        "analytic tier lost its table1 speedup floor: "
        f"{sweeps['table1']['analytic_speedup_cold']:.1f}x < "
        f"{ANALYTIC_SPEEDUP_FLOOR:.0f}x"
    )
    assert (
        sweeps["table1"]["vectorized_speedup_cold"] >= VECTORIZED_SPEEDUP_FLOOR
    ), (
        "vectorized fast model lost its table1 speedup floor over fast-ref: "
        f"{sweeps['table1']['vectorized_speedup_cold']:.1f}x < "
        f"{VECTORIZED_SPEEDUP_FLOOR:.0f}x"
    )

    record = {
        "schema": 1,
        "generated_by": "benchmarks/bench_sweep_scaling.py",
        "scale": settings.scale,
        "workers": 1,
        "designs": len(DESIGNS),
        "sweeps": sweeps,
        "micro_opt_pins": {
            "shape": list(MICRO_OPT_SHAPE.dims),
            "results": MICRO_OPT_PINS,
            "note": "fast-model port-selection micro-opt is timing-identical",
        },
    }
    BENCH_JSON.write_text(json.dumps(record, indent=2) + "\n")

    emit(
        "Sweep scaling (cold = empty cache, warm = fully cached; workers=1)",
        format_table(
            ["suite", "fidelity", "jobs", "distinct", "cold", "warm"], rows
        )
        + "\n"
        + "\n".join(
            f"{suite}: vectorized fast "
            f"{data['vectorized_speedup_cold']:.1f}x faster than fast-ref, "
            f"analytic {data['analytic_speedup_cold']:.1f}x faster than fast "
            "(cold)"
            for suite, data in sweeps.items()
        )
        + f"\nwrote {BENCH_JSON}",
    )
