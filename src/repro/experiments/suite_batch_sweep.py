"""E16 — Fig. 7 at model granularity: per-suite batch curves.

The paper's Fig. 7 sweeps the six FC layers in isolation and argues
RASA-DMDB-WLS approaches the perfect-pipelining asymptote 16/95 as batch
grows.  This driver stress-tests that claim end to end: whole workload
suites (the 12-layer BERT-base stack, the DLRM MLPs, the training passes)
are rebuilt at every batch along a :class:`repro.runtime.plan.SweepPlan`
batch axis and reduced to one occurrence-weighted normalized-runtime curve
per model (:meth:`repro.runtime.plan.SweepReport.batch_curves`).

All (suite, batch, design) points run through **one** flat plan, so the
runtime layer's key dedup collapses duplicate points across batches:
sub-tile batches lower to identical streams and simulate once, as do
scaled batches that saturate at the one-register-block floor.  Each curve
point still matches a standalone single-batch suite plan bit for bit.

The default suites are the FC/attention-shaped models: a conv suite's
streamed rows are batch x output spatial, so ``resnet50`` (or ``table1``,
which embeds its convs) at large batches lowers to millions of tile rows —
sweep those explicitly via ``repro sweep --workloads resnet50 --batches
... --scale-spatial N``, whose dimension-role-aware knob shrinks the
spatial product without touching filters or channels.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Iterable, Optional, Sequence, Tuple

from repro.engine.designs import DESIGNS
from repro.errors import ExperimentError
from repro.experiments.batch_sweep import ASYMPTOTE
from repro.experiments.model_report import BEST_DESIGN
from repro.experiments.runner import (
    DEFAULT_SETTINGS,
    ExperimentSettings,
    _resolve_session,
)
from repro.runtime.plan import SuiteBatchCurve, SweepPlan
from repro.runtime.session import Session
from repro.utils.tables import format_table
from repro.workloads.ops import DEFAULT_LOWERING, LoweringConfig

#: The batch axis the per-model curves sweep by default.
DEFAULT_SUITE_BATCHES: Sequence[int] = (1, 4, 16, 64, 256, 1024)

#: Suites swept by default: the FC/attention-shaped models, whose
#: streamed-rows dimension *is* the batch (conv suites multiply it by
#: output spatial — sweep those with ``scale_spatial`` to keep large
#: batches tractable).
DEFAULT_CURVE_SUITES: Tuple[str, ...] = ("bert-base", "bert-full", "dlrm", "training")


@dataclasses.dataclass(frozen=True)
class SuiteBatchSweep:
    """Per-model batch curves: normalized runtime of one design per suite.

    ``curves[suite][design_key]`` keeps the full per-design
    :class:`SuiteBatchCurve` data (occurrence-weighted totals per batch);
    ``series()`` reduces it to the Fig. 7 view — ``design_key``'s runtime
    normalized to the baseline design at the same batch.
    """

    design_key: str
    batches: Tuple[int, ...]
    scale: int
    curves: Dict[str, Dict[str, SuiteBatchCurve]]
    simulated_points: int   # the plan's distinct keys (cold-cache simulations)
    expanded_points: int    # the plan's jobs: per-batch distinct points

    def series(self) -> Dict[str, Dict[int, float]]:
        """``series[suite][batch]`` — normalized runtime vs the baseline."""
        return {
            suite: per_design[self.design_key].normalized_to(
                per_design["baseline"]
            )
            for suite, per_design in self.curves.items()
        }

    def render(self) -> str:
        series = self.series()
        rows = [
            [batch] + [f"{series[suite][batch]:.3f}" for suite in series]
            for batch in self.batches
        ]
        table = format_table(
            ["batch"] + list(series),
            rows,
            title=(
                f"E16 — per-model batch curves: {DESIGNS[self.design_key].label}"
                " runtime normalized to baseline"
            ),
        )
        dedup = (
            self.expanded_points / self.simulated_points
            if self.simulated_points
            else 1.0
        )
        return table + (
            f"\nPerfect-pipelining asymptote: 16/95 = {ASYMPTOTE:.3f}"
            f"\n{self.simulated_points} distinct points stood in for "
            f"{self.expanded_points} per-batch suite points "
            f"({dedup:.1f}x cross-batch dedup at scale {self.scale})"
        )


def suite_batch_sweep(
    settings: ExperimentSettings = DEFAULT_SETTINGS,
    suites: Optional[Iterable[str]] = None,
    batches: Sequence[int] = DEFAULT_SUITE_BATCHES,
    design_key: str = BEST_DESIGN,
    fidelity: str = "fast",
    session: Optional[Session] = None,
    lowering: LoweringConfig = DEFAULT_LOWERING,
) -> SuiteBatchSweep:
    """Sweep whole-model suites over the batch axis vs the baseline.

    Every suite is rebuilt at every batch (``settings.scale`` shrinks the
    rebuilt shapes with the usual floors) and the full
    (suite x batch x {design, baseline}) cross-product is one dedup-aware
    :class:`SweepPlan` executed through ``session`` (default: the shared
    environment-driven session).  ``lowering`` carries the role-aware
    ``scale_batch``/``scale_spatial`` knobs — the way to keep conv-suite
    curves (batch x output-spatial streamed rows) tractable at large
    batches.
    """
    if design_key == "baseline":
        raise ExperimentError(
            "suite_batch_sweep normalizes against 'baseline'; pick a "
            "non-baseline design_key to plot"
        )
    plan = SweepPlan(
        designs=("baseline", design_key),
        suites=tuple(suites if suites is not None else DEFAULT_CURVE_SUITES),
        batches=tuple(batches),
        scale=settings.scale,
        scale_batch=lowering.scale_batch,
        scale_spatial=lowering.scale_spatial,
        core=settings.core,
        codegen=settings.codegen,
        fidelity=fidelity,
    )
    curves = _resolve_session(session).run(plan).batch_curves()
    return SuiteBatchSweep(
        design_key=design_key,
        batches=tuple(batches),
        scale=settings.scale,
        curves=curves,
        simulated_points=len(plan.distinct_keys()),
        expanded_points=plan.job_count(),
    )
